"""RPC-served data structures: the paper's competitor implementations.

These are the "distributed data structures" of section 3: the data lives
in the server's near memory, clients reach it with two-sided RPCs, every
operation is one round trip regardless of structure shape — but every
operation consumes shared server CPU. They are the baselines that far
memory data structures must match on round trips to win (section 3.1).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..fabric.client import Client
from ..fabric.errors import QueueEmpty, QueueFull
from .server import RpcServer


class RpcMap:
    """A key-value map behind an RPC server (one round trip per op)."""

    def __init__(self, server: RpcServer, name: str = "map") -> None:
        self.server = server
        self.name = name
        self._data: dict[int, int] = {}
        server.register(f"{name}.get", self._get)
        server.register(f"{name}.put", self._put)
        server.register(f"{name}.delete", self._delete)

    def _get(self, key: int) -> Optional[int]:
        return self._data.get(key)

    def _put(self, key: int, value: int) -> None:
        self._data[key] = value

    def _delete(self, key: int) -> bool:
        return self._data.pop(key, None) is not None

    def get(self, client: Client, key: int) -> Optional[int]:
        """Look up ``key``: one RPC."""
        return self.server.call(client, f"{self.name}.get", key)

    def put(self, client: Client, key: int, value: int) -> None:
        """Insert/update ``key``: one RPC."""
        self.server.call(client, f"{self.name}.put", key, value)

    def delete(self, client: Client, key: int) -> bool:
        """Remove ``key``: one RPC."""
        return self.server.call(client, f"{self.name}.delete", key)

    def __len__(self) -> int:
        return len(self._data)


class RpcQueue:
    """A FIFO queue behind an RPC server (one round trip per op)."""

    def __init__(
        self, server: RpcServer, name: str = "queue", capacity: Optional[int] = None
    ) -> None:
        self.server = server
        self.name = name
        self.capacity = capacity
        self._items: deque[int] = deque()
        server.register(f"{name}.enqueue", self._enqueue)
        server.register(f"{name}.dequeue", self._dequeue)
        server.register(f"{name}.size", self._size)

    def _enqueue(self, value: int) -> None:
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise QueueFull(f"rpc queue at capacity {self.capacity}")
        self._items.append(value)

    def _dequeue(self) -> int:
        if not self._items:
            raise QueueEmpty("rpc queue empty")
        return self._items.popleft()

    def _size(self) -> int:
        return len(self._items)

    def enqueue(self, client: Client, value: int) -> None:
        """Add an item: one RPC."""
        self.server.call(client, f"{self.name}.enqueue", value)

    def dequeue(self, client: Client) -> int:
        """Remove the oldest item: one RPC; raises QueueEmpty."""
        return self.server.call(client, f"{self.name}.dequeue")

    def try_dequeue(self, client: Client) -> Optional[int]:
        """Non-raising dequeue (still one RPC)."""
        try:
            return self.dequeue(client)
        except QueueEmpty:
            return None

    def size(self, client: Client) -> int:
        """Current length: one RPC."""
        return self.server.call(client, f"{self.name}.size")

