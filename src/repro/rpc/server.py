"""The two-sided RPC baseline substrate (paper sections 1 and 3.1).

"With distributed data structures, a processor close to the memory can
receive and service RPC requests to access the data structure. Doing so
consumes the local processor, but takes only one round trip over the
fabric."

That sentence is the whole model: an RPC costs the client exactly one
network round trip plus the server's service time — but the server is a
*shared, serial* resource. :class:`RpcServer` implements it as a
virtual-time single-server queue: each request starts when both it has
arrived and the server is free, so under load, queueing delay grows and
throughput saturates at ``1 / service_ns``. One-sided far accesses have no
such shared bottleneck, which is exactly the trade-off ("shipping
computation or data") that experiment E2 sweeps.

Request handlers execute against the server's near memory (plain Python
state); the far-memory pool is not involved — this is the "traditional
memory with two-sided RPC access" side of the paper's comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..fabric.client import Client
from ..fabric.errors import RpcError

Handler = Callable[..., Any]


@dataclass
class RpcServerStats:
    """Utilisation view of one RPC server."""

    rpcs: int = 0
    busy_ns: float = 0.0
    total_wait_ns: float = 0.0
    last_done_ns: float = 0.0

    def utilisation(self) -> float:
        """Busy fraction of the server's elapsed timeline."""
        if self.last_done_ns == 0.0:
            return 0.0
        return self.busy_ns / self.last_done_ns


class RpcServer:
    """A memory-side processor servicing RPCs serially.

    Args:
        name: label for reporting.
        service_ns: CPU time consumed per request (the default 700 ns is a
            typical small key-value RPC handler; it is the knob that sets
            the server's throughput ceiling).
        one_way_ns: network latency each way. Defaults to half the
            one-sided far access latency, so an uncontended RPC round trip
            costs the same as one far access — the paper's "only one round
            trip over the fabric".
    """

    def __init__(
        self,
        name: str = "rpc-server",
        *,
        service_ns: float = 700.0,
        one_way_ns: float = 500.0,
    ) -> None:
        self.name = name
        self.service_ns = service_ns
        self.one_way_ns = one_way_ns
        self.stats = RpcServerStats()
        self._handlers: dict[str, Handler] = {}
        self._busy_until_ns = 0.0

    def register(self, op: str, handler: Handler) -> None:
        """Expose ``handler`` as RPC operation ``op``."""
        if op in self._handlers:
            raise RpcError(f"handler {op!r} already registered on {self.name}")
        self._handlers[op] = handler

    def call(
        self,
        client: Client,
        op: str,
        *args: Any,
        request_bytes: int = 64,
        reply_bytes: int = 64,
        service_ns: float | None = None,
    ) -> Any:
        """Issue one RPC from ``client``; returns the handler's result.

        Advances the client's clock across the full round trip including
        any queueing delay behind other clients' requests.
        """
        handler = self._handlers.get(op)
        if handler is None:
            raise RpcError(f"no handler {op!r} on {self.name}")
        cost = service_ns if service_ns is not None else self.service_ns
        model = client.cost_model  # the wire prices RPC payloads as it does far accesses
        wire_ns = model.byte_ns * max(0, request_bytes + reply_bytes - model.inline_bytes)

        arrival_ns = client.clock.now_ns + self.one_way_ns
        start_ns = max(arrival_ns, self._busy_until_ns)
        done_ns = start_ns + cost
        self._busy_until_ns = done_ns

        self.stats.rpcs += 1
        self.stats.busy_ns += cost
        self.stats.total_wait_ns += start_ns - arrival_ns
        self.stats.last_done_ns = done_ns

        client.clock.sync_to(done_ns + self.one_way_ns + wire_ns)
        client.metrics.rpcs += 1
        client.metrics.round_trips += 1
        client.metrics.network_traversals += 2
        client.metrics.rpc_bytes += request_bytes + reply_bytes

        return handler(*args)

    def __repr__(self) -> str:
        return f"RpcServer({self.name!r}, service_ns={self.service_ns})"
