"""Unit tests for feature extraction."""

import numpy as np

from repro.core import FeatureConfig, FeatureExtractor, JsonPathCollector
from repro.workload import PathKey


def key(path="$.a"):
    return PathKey("db", "t", "payload", path)


def collector_with(counts: dict[int, int], k=None) -> JsonPathCollector:
    collector = JsonPathCollector()
    k = k or key()
    for day, n in counts.items():
        for _ in range(n):
            collector.record_query(day, (k,))
    return collector


class TestSequenceFor:
    def test_shapes(self):
        extractor = FeatureExtractor(FeatureConfig(window_days=7))
        collector = collector_with({d: 1 for d in range(10)})
        seq, labels = extractor.sequence_for(collector, key(), 9)
        assert seq.shape == (8, extractor.timestep_dim)
        assert labels.shape == (8,)

    def test_counts_in_order(self):
        extractor = FeatureExtractor(FeatureConfig(window_days=3))
        collector = collector_with({5: 2, 6: 1, 7: 3})
        seq, _ = extractor.sequence_for(collector, key(), 8)
        # counts are scaled by /10 for the LSTM's benefit
        assert list(seq[:3, 0]) == [0.2, 0.1, 0.3]

    def test_datediff_descending(self):
        extractor = FeatureExtractor(FeatureConfig(window_days=3))
        collector = collector_with({})
        seq, _ = extractor.sequence_for(collector, key(), 8)
        # normalised to (0, 1]; strictly decreasing toward the target day
        assert list(seq[:3, 2]) == [1.0, 2 / 3, 1 / 3]

    def test_target_step_masked(self):
        extractor = FeatureExtractor(FeatureConfig(window_days=3))
        collector = collector_with({8: 5})
        seq, labels = extractor.sequence_for(collector, key(), 8)
        assert list(seq[-1, :4]) == [-1.0, -1.0, 0.0, -1.0]
        assert labels[-1] == 1  # 5 accesses >= 2 -> MPJP

    def test_labels_match_threshold(self):
        extractor = FeatureExtractor(FeatureConfig(window_days=2))
        collector = collector_with({6: 2, 7: 1, 8: 2})  # MPJP_THRESHOLD is 2
        _, labels = extractor.sequence_for(collector, key(), 8)
        assert list(labels) == [1, 0, 1]

    def test_negative_days_zero(self):
        extractor = FeatureExtractor(FeatureConfig(window_days=7))
        collector = collector_with({0: 4})
        seq, _ = extractor.sequence_for(collector, key(), 2)
        # window covers days -5..1; missing days have count 0
        assert seq[0, 0] == 0.0

    def test_location_block_constant_across_steps(self):
        extractor = FeatureExtractor()
        collector = collector_with({0: 1})
        seq, _ = extractor.sequence_for(collector, key(), 3)
        for row in seq[1:]:
            assert np.array_equal(row[4:], seq[0, 4:])

    def test_different_tables_different_locations(self):
        extractor = FeatureExtractor()
        collector = JsonPathCollector()
        a = PathKey("db", "alpha", "c", "$.x")
        b = PathKey("db", "bravo_table", "c", "$.x")
        collector.record_query(0, (a, b))
        seq_a, _ = extractor.sequence_for(collector, a, 1)
        seq_b, _ = extractor.sequence_for(collector, b, 1)
        assert not np.array_equal(seq_a[0, 4:], seq_b[0, 4:])


class TestDataset:
    def test_rows_per_day_and_key(self):
        extractor = FeatureExtractor(FeatureConfig(window_days=3))
        collector = JsonPathCollector()
        keys = [key("$.a"), key("$.b")]
        collector.record_query(0, tuple(keys))
        dataset = extractor.dataset(collector, [4, 5])
        assert len(dataset.keys) == 4  # 2 keys x 2 days
        assert dataset.flat.shape[0] == 4
        assert dataset.labels.shape == (4,)

    def test_flat_features_order_free(self):
        """Flat view must be invariant to permuting the *older* history
        days (yesterday stays a distinguished feature) — the 'cannot take
        into account date sequences' property."""
        extractor = FeatureExtractor(FeatureConfig(window_days=4))
        c1 = collector_with({4: 3, 5: 0, 6: 0, 7: 1})
        c2 = collector_with({4: 0, 5: 0, 6: 3, 7: 1})
        seq1, _ = extractor.sequence_for(c1, key(), 8)
        seq2, _ = extractor.sequence_for(c2, key(), 8)
        assert np.array_equal(extractor.flatten(seq1), extractor.flatten(seq2))
        assert not np.array_equal(seq1, seq2)  # sequences do differ

    def test_flat_aggregates_values(self):
        extractor = FeatureExtractor(FeatureConfig(window_days=3))
        collector = collector_with({5: 2, 6: 0, 7: 4})
        seq, _ = extractor.sequence_for(collector, key(), 8)
        flat = extractor.flatten(seq)
        assert flat[0] == 4.0  # yesterday count
        assert flat[3] == (2 + 0 + 4) / 3  # mean
        assert flat[4] == 4.0  # max
