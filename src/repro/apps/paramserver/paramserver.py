"""A parameter server over refreshable vectors (paper section 5.4).

"This abstraction is useful in distributed machine learning to store model
parameters: workers read parameters from the vector and refresh
periodically to provide bounded staleness and guarantee learning
convergence."

The deployment: model parameters live in a
:class:`~repro.core.refreshable_vector.RefreshableVector`; a single
coordinator applies gradient updates (the vector's writer); workers train
on private data shards against their *cached* parameter copies, refreshing
every ``staleness`` rounds. Workers ship their sparse gradients to the
coordinator through far memory: the gradient blob is one far write, and a
:class:`~repro.core.queue.FarQueue` carries the blob pointer (one ``saai``)
— so the whole reduction path is far-memory data structures from this
reproduction, end to end.

The training task is sparse linear regression with synthetic data, chosen
because sparse gradients touch few version groups — exactly the workload
shape where grouped-version refresh beats full-vector rereads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...alloc import FarAllocator
from ...cluster import Cluster
from ...core.queue import FarQueue
from ...core.refreshable_vector import RefreshableVector
from ...fabric.client import Client
from ...fabric.wire import WORD, Layout, decode_u64
from .encoding import float_to_word, word_to_float, words_to_floats

GRADIENT = Layout("count")  # then ``count`` ENTRY records
ENTRY = Layout("index value")  # ``value`` is the float's bit pattern
_MAX_ENTRIES = 64  # the largest sparse gradient one channel message carries


@dataclass(frozen=True)
class SparseExample:
    """One training example: sparse features and a target."""

    indices: np.ndarray
    values: np.ndarray
    target: float


def make_sparse_dataset(
    dimensions: int,
    examples: int,
    *,
    nnz: int = 8,
    noise: float = 0.01,
    seed: int = 0,
) -> tuple[list[SparseExample], np.ndarray]:
    """Generate a sparse linear-regression dataset with known weights.

    Returns the examples and the ground-truth weight vector.
    """
    rng = np.random.default_rng(seed)
    truth = rng.normal(0, 1, size=dimensions)
    data: list[SparseExample] = []
    for _ in range(examples):
        indices = rng.choice(dimensions, size=min(nnz, dimensions), replace=False)
        values = rng.normal(0, 1, size=len(indices))
        target = float(values @ truth[indices] + rng.normal(0, noise))
        data.append(SparseExample(indices=indices, values=values, target=target))
    return data, truth


@dataclass
class GradientChannel:
    """Far-memory gradient shipping: blob regions + a pointer queue.

    Blob layout: ``GRADIENT | ENTRY * count``.
    """

    allocator: FarAllocator
    queue: FarQueue

    @classmethod
    def create(cls, cluster: Cluster, *, max_workers: int) -> "GradientChannel":
        """Build a channel sized for ``max_workers`` concurrent producers
        plus one consumer (the coordinator)."""
        queue = cluster.far_queue(
            capacity=max(max_workers * 8, 4 * (max_workers + 1) + 1),
            max_clients=max_workers + 1,
        )
        return cls(allocator=cluster.allocator, queue=queue)

    def send(self, client: Client, gradient: dict[int, float]) -> None:
        """Ship one sparse gradient (at most 64 entries): one blob write +
        one enqueue."""
        if len(gradient) > _MAX_ENTRIES:
            raise ValueError(
                f"gradient has {len(gradient)} entries, channel max is {_MAX_ENTRIES}"
            )
        blob = GRADIENT.pack(len(gradient)) + b"".join(
            ENTRY.pack(index, float_to_word(value))
            for index, value in sorted(gradient.items())
        )
        region = self.allocator.alloc(max(len(blob), WORD))
        client.write(region, blob)
        client.fence()
        self.queue.enqueue(client, region)

    def receive(self, client: Client) -> Optional[dict[int, float]]:
        """Fetch one gradient: one dequeue + one blob read; None if idle."""
        region = self.queue.try_dequeue(client)
        if region is None:
            return None
        count = decode_u64(client.read(region, WORD))
        raw = client.read(region + GRADIENT.size, count * ENTRY.size)
        self.allocator.free(region)
        return {index: word_to_float(word) for index, word in ENTRY.iter_unpack(raw)}

    def receive_many(
        self, client: Client, max_items: Optional[int] = None
    ) -> "list[dict[int, float]]":
        """Drain available gradients with every stage pipelined: the
        dequeues overlap (:meth:`FarQueue.dequeue_many`), then the count
        words across all blobs, then the payloads. Per-gradient far
        accesses match :meth:`receive`; only the latency overlaps."""
        limit = max_items if max_items is not None else self.queue.capacity
        regions = self.queue.dequeue_many(client, limit)
        count_futures = [
            client.submit("read", region, WORD, signaled=False)
            for region in regions
        ]
        body_futures = []
        for region, future in zip(regions, count_futures):
            count = decode_u64(future.result())
            body_futures.append(
                (
                    region,
                    client.submit(
                        "read", region + GRADIENT.size, count * ENTRY.size, signaled=False
                    ),
                )
            )
        gradients: "list[dict[int, float]]" = []
        for region, future in body_futures:
            entries = ENTRY.iter_unpack(future.result())
            self.allocator.free(region)
            gradients.append({index: word_to_float(word) for index, word in entries})
        return gradients


@dataclass
class Coordinator:
    """The single writer: applies gradients to the far parameter vector."""

    params: RefreshableVector
    client: Client
    learning_rate: float = 0.05
    _local: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._local is None:
            self._local = np.zeros(self.params.length, dtype=np.float64)

    def apply_many(self, gradients: "list[dict[int, float]]") -> None:
        """SGD steps for a batch of gradients in arrival order, publishing
        the final coordinates with one :meth:`RefreshableVector.set_many`
        (one far access for the whole batch, however many gradients). The
        steps accumulate in ``_local`` first, so the published weights equal
        those of one call per gradient — only each coordinate's
        intermediate values are skipped on the wire."""
        updates: dict[int, int] = {}
        for gradient in gradients:
            for index, g in gradient.items():
                self._local[index] -= self.learning_rate * g
                updates[index] = float_to_word(float(self._local[index]))
        if updates:
            self.params.set_many(self.client, updates)

    def weights(self) -> np.ndarray:
        """The coordinator's authoritative weight view (near memory)."""
        return self._local.copy()


@dataclass
class Worker:
    """One trainer: private shard, cached parameters, bounded staleness."""

    params: RefreshableVector
    client: Client
    shard: list[SparseExample]
    staleness: int = 4
    rounds_done: int = 0
    refreshes: int = 0

    def _cached_weights(self, indices: np.ndarray) -> np.ndarray:
        words = np.array(
            [self.params.get(self.client, int(i)) for i in indices], dtype=np.uint64
        )
        return words_to_floats(words)

    def step(self, rng: np.random.Generator, batch: int = 4) -> dict[int, float]:
        """One local round: refresh if due, then compute a minibatch
        gradient against the cached parameters."""
        if self.rounds_done % self.staleness == 0:
            self.params.refresh(self.client)
            self.refreshes += 1
        self.rounds_done += 1
        gradient: dict[int, float] = {}
        picks = rng.integers(0, len(self.shard), size=batch)
        for pick in picks:
            example = self.shard[int(pick)]
            w = self._cached_weights(example.indices)
            error = float(example.values @ w) - example.target
            for j, index in enumerate(example.indices):
                gradient[int(index)] = (
                    gradient.get(int(index), 0.0)
                    + 2.0 * error * float(example.values[j]) / batch
                )
        return gradient


@dataclass
class TrainingReport:
    """Outcome of one :func:`run_training` call."""

    losses: list[float]
    worker_refreshes: int

    def converged(self, threshold: float = 0.5) -> bool:
        """True if the final loss dropped below ``threshold`` times the
        initial loss."""
        return bool(self.losses and self.losses[-1] < self.losses[0] * threshold)


def run_training(
    cluster: Cluster,
    *,
    dimensions: int = 128,
    examples: int = 256,
    workers: int = 4,
    rounds: int = 40,
    staleness: int = 4,
    learning_rate: float = 0.05,
    group_size: int = 16,
    seed: int = 0,
) -> TrainingReport:
    """End-to-end bounded-staleness training over far memory.

    Each round: every worker computes a sparse gradient from its cached
    parameters and ships it through the gradient channel; the coordinator
    drains the channel and applies the updates. Returns per-round loss on
    the full dataset (computed out-of-band, for reporting only).
    """
    data, _truth = make_sparse_dataset(dimensions, examples, seed=seed)
    params = cluster.refreshable_vector(dimensions, group_size=group_size)
    coordinator = Coordinator(
        params=params, client=cluster.client("coordinator"), learning_rate=learning_rate
    )
    channel = GradientChannel.create(cluster, max_workers=workers)
    shards = [data[i::workers] for i in range(workers)]
    team = [
        Worker(
            params=params,
            client=cluster.client(f"worker-{i}"),
            shard=shards[i],
            staleness=staleness,
        )
        for i in range(workers)
    ]
    rng = np.random.default_rng(seed + 1)

    def loss(weights: np.ndarray) -> float:
        total = 0.0
        for example in data:
            pred = float(example.values @ weights[example.indices])
            total += (pred - example.target) ** 2
        return total / len(data)

    losses = [loss(coordinator.weights())]
    for _ in range(rounds):
        for worker in team:
            gradient = worker.step(rng)
            channel.send(worker.client, gradient)
        coordinator.apply_many(channel.receive_many(coordinator.client))
        losses.append(loss(coordinator.weights()))
    return TrainingReport(
        losses=losses,
        worker_refreshes=sum(w.refreshes for w in team),
    )
