"""Integration tests for the parameter-server application (section 5.4)."""

import numpy as np
import pytest

from repro import Cluster
from repro.apps.paramserver import (
    Coordinator,
    GradientChannel,
    Worker,
    float_to_word,
    make_sparse_dataset,
    run_training,
    word_to_float,
    words_to_floats,
)

NODE_SIZE = 32 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=1, node_size=NODE_SIZE)


class TestEncoding:
    def test_roundtrip_scalar(self):
        for value in (0.0, 1.5, -3.25, 1e300, -1e-300):
            assert word_to_float(float_to_word(value)) == value

    def test_roundtrip_array(self):
        arr = np.array([0.1, -2.5, 3e10])
        words = np.array([float_to_word(v) for v in arr], dtype=np.uint64)
        assert (words_to_floats(words) == arr).all()

    def test_nan_preserved_bitwise(self):
        word = float_to_word(float("nan"))
        assert np.isnan(word_to_float(word))


class TestDataset:
    def test_shapes(self):
        data, truth = make_sparse_dataset(64, 100, nnz=8, seed=1)
        assert len(data) == 100
        assert truth.shape == (64,)
        assert all(len(ex.indices) == 8 for ex in data)

    def test_targets_follow_truth(self):
        data, truth = make_sparse_dataset(32, 50, noise=0.0, seed=2)
        for ex in data[:10]:
            assert ex.target == pytest.approx(float(ex.values @ truth[ex.indices]))

    def test_deterministic(self):
        a, _ = make_sparse_dataset(16, 10, seed=3)
        b, _ = make_sparse_dataset(16, 10, seed=3)
        assert all(
            (x.indices == y.indices).all() and x.target == y.target
            for x, y in zip(a, b)
        )


class TestGradientChannel:
    def test_send_receive_roundtrip(self, cluster):
        channel = GradientChannel.create(cluster, max_workers=2)
        worker, coordinator = cluster.client(), cluster.client()
        gradient = {3: 0.5, 17: -1.25}
        channel.send(worker, gradient)
        assert channel.receive(coordinator) == gradient

    def test_receive_idle_returns_none(self, cluster):
        channel = GradientChannel.create(cluster, max_workers=2)
        assert channel.receive(cluster.client()) is None

    def test_fifo_across_workers(self, cluster):
        channel = GradientChannel.create(cluster, max_workers=3)
        workers = [cluster.client() for _ in range(2)]
        coordinator = cluster.client()
        channel.send(workers[0], {1: 1.0})
        channel.send(workers[1], {2: 2.0})
        assert channel.receive(coordinator) == {1: 1.0}
        assert channel.receive(coordinator) == {2: 2.0}

    def test_blob_region_recycled(self, cluster):
        channel = GradientChannel.create(cluster, max_workers=2)
        worker, coordinator = cluster.client(), cluster.client()
        live_before = cluster.allocator.stats.live_blocks
        channel.send(worker, {1: 1.0})
        channel.receive(coordinator)
        assert cluster.allocator.stats.live_blocks == live_before

    def test_oversized_gradient_rejected(self, cluster):
        channel = GradientChannel.create(cluster, max_workers=2)
        with pytest.raises(ValueError):
            channel.send(cluster.client(), {index: 1.0 for index in range(65)})


class TestTraining:
    def test_loss_decreases(self, cluster):
        report = run_training(
            cluster, dimensions=64, examples=128, workers=3, rounds=25, seed=4
        )
        assert report.losses[-1] < report.losses[0] * 0.7
        assert report.converged(0.7)

    def test_bounded_staleness_controls_refreshes(self, cluster):
        report = run_training(
            cluster, dimensions=32, examples=64, workers=2, rounds=12, staleness=4, seed=5
        )
        # Each worker refreshes every `staleness` rounds: 12/4 * 2 workers.
        assert report.worker_refreshes == 2 * (12 // 4 + (1 if 12 % 4 else 0))

    def test_stale_workers_still_converge(self, cluster):
        # The section 5.4 claim: bounded staleness preserves convergence.
        report = run_training(
            cluster, dimensions=48, examples=96, workers=3, rounds=40, staleness=8, seed=6
        )
        assert report.converged(0.7)

    def test_fresh_vs_stale_traffic(self):
        def far_traffic(staleness):
            cluster = Cluster(node_count=1, node_size=NODE_SIZE)
            run_training(
                cluster,
                dimensions=64,
                examples=64,
                workers=2,
                rounds=20,
                staleness=staleness,
                seed=7,
            )
            return cluster.total_metrics().far_accesses

        assert far_traffic(8) < far_traffic(1)


class TestWorkerCoordinator:
    def test_coordinator_applies_sgd(self, cluster):
        params = cluster.refreshable_vector(8, group_size=4)
        coordinator = Coordinator(
            params=params, client=cluster.client(), learning_rate=0.1
        )
        coordinator.apply({2: 1.0})
        assert coordinator.weights()[2] == pytest.approx(-0.1)
        reader = cluster.client()
        params.refresh(reader)
        assert word_to_float(params.get(reader, 2)) == pytest.approx(-0.1)

    def test_worker_reads_cached_params(self, cluster):
        data, _ = make_sparse_dataset(16, 8, seed=8)
        params = cluster.refreshable_vector(16, group_size=4)
        worker = Worker(params=params, client=cluster.client(), shard=data, staleness=2)
        rng = np.random.default_rng(0)
        gradient = worker.step(rng)
        assert gradient  # produced something
        assert worker.refreshes == 1
        worker.step(rng)  # staleness 2: no refresh this round
        assert worker.refreshes == 1
