"""Unit tests for the workload generators."""

import numpy as np
import pytest

from repro.workloads import (
    MetricStream,
    OperationMix,
    OpKind,
    READ_ONLY,
    Sequential,
    Uniform,
    Zipf,
    generate,
)


class TestKeyDistributions:
    def test_uniform_in_range(self):
        keys = Uniform(1000, seed=1).sample(500)
        assert keys.min() >= 0 and keys.max() < 1000

    def test_seeded_determinism(self):
        a = Uniform(1000, seed=5).sample(100)
        b = Uniform(1000, seed=5).sample(100)
        assert (a == b).all()

    def test_sequential_wraps(self):
        dist = Sequential(10)
        assert dist.sample(12).tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]

    def test_zipf_is_skewed(self):
        keys = Zipf(10_000, seed=2, s=1.2).sample(5_000)
        _, counts = np.unique(keys, return_counts=True)
        top = np.sort(counts)[::-1]
        # The hottest key gets far more than a uniform share.
        assert top[0] > 5_000 / 10_000 * 20

    def test_zipf_validates_exponent(self):
        with pytest.raises(ValueError):
            Zipf(100, s=1.0)

    def test_sample_unique(self):
        keys = Uniform(1000, seed=4).sample_unique(500)
        assert len(set(keys.tolist())) == 500

    def test_sample_unique_overflow(self):
        with pytest.raises(ValueError):
            Uniform(10).sample_unique(11)

    def test_keyspace_validated(self):
        with pytest.raises(ValueError):
            Uniform(0)


class TestOperationMix:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            OperationMix(read=0.5, update=0.1, insert=0.1)

    def test_read_only(self):
        ops = list(generate(READ_ONLY, Uniform(100, seed=1), 50))
        assert all(op.kind is OpKind.READ for op in ops)

    def test_fractions_roughly_hold(self):
        mix = OperationMix(read=0.6, update=0.2, insert=0.2)
        ops = list(generate(mix, Uniform(100, seed=1), 2_000))
        reads = sum(op.kind is OpKind.READ for op in ops) / len(ops)
        assert 0.55 < reads < 0.65

    def test_count(self):
        assert len(list(generate(READ_ONLY, Uniform(10, seed=0), 123))) == 123

    def test_fresh_keys_drive_inserts(self):
        mix = OperationMix(read=0.0, update=0.0, insert=1.0)
        ops = list(
            generate(
                mix,
                Uniform(10, seed=1),
                100,
                fresh_keys=Uniform(10_000, seed=2),
            )
        )
        assert any(op.key >= 10 for op in ops)


class TestMetricStream:
    def test_samples_in_range(self):
        stream = MetricStream(bins=100, seed=1)
        samples = stream.samples(2_000)
        assert samples.min() >= 0 and samples.max() < 100

    def test_tail_fraction_controlled(self):
        stream = MetricStream(bins=100, spike_probability=0.05, seed=2)
        samples = stream.samples(20_000)
        tail = (samples >= stream.tail_start).mean()
        assert 0.03 < tail < 0.08

    def test_quiet_stream_rarely_alarms(self):
        stream = MetricStream(bins=100, spike_probability=0.0, mean=40, std=5, seed=3)
        samples = stream.samples(10_000)
        assert (samples >= stream.tail_start).mean() < 0.001

    def test_determinism(self):
        a = MetricStream(seed=9).samples(100)
        b = MetricStream(seed=9).samples(100)
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricStream(bins=1)
        with pytest.raises(ValueError):
            MetricStream(spike_probability=2.0)
