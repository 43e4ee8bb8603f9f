"""Tests for per-generation cache-efficacy accounting."""

from repro.obs.efficacy import EfficacyAccountant


class FakeCollector:
    """counts_on(day) -> {path_key: parse_count}, keyed off a dict."""

    def __init__(self, by_day):
        self.by_day = by_day

    def counts_on(self, day):
        return dict(self.by_day.get(day, {}))


class TestScoring:
    def test_precision_recall_and_hit_ratios(self):
        accountant = EfficacyAccountant()
        # predicted {a, b}; cached only {a}; realized on day 3: {a, c}.
        accountant.open_generation(
            generation=2, day=3, predicted=["a", "b"], cached=["a"]
        )
        collector = FakeCollector({3: {"a": 5, "b": 1, "c": 3}})
        record = accountant.close_pending(collector, up_to_day=4, threshold=2)
        assert record is not None
        assert record.generation == 2
        assert record.served_days == (3,)
        assert record.predicted_paths == 2
        assert record.cached_paths == 1
        assert record.realized_paths == 2  # a and c (b below threshold)
        assert record.true_positives == 1  # only a
        assert record.precision == 0.5
        assert record.recall == 0.5
        assert record.f1 == 0.5
        assert record.cached_realized == 1
        # count-weighted: cached a intercepts 5 of the 8 realized parses.
        assert record.count_weighted_hit_ratio == 5 / 8

    def test_multi_day_counts_accumulate(self):
        accountant = EfficacyAccountant()
        accountant.open_generation(1, day=1, predicted=["a"], cached=["a"])
        # 'b' never crosses the threshold on any single day.
        collector = FakeCollector({1: {"a": 2, "b": 1}, 2: {"a": 3, "b": 1}})
        record = accountant.close_pending(collector, up_to_day=3, threshold=2)
        assert record.served_days == (1, 2)
        assert record.realized_paths == 1
        assert record.count_weighted_hit_ratio == 1.0

    def test_byte_weighted_ratio_uses_weight_function(self):
        weights = {"a": 100, "c": 300}
        accountant = EfficacyAccountant(
            byte_weights=lambda keys: {key: weights[key] for key in keys}
        )
        accountant.open_generation(1, day=1, predicted=["a"], cached=["a"])
        collector = FakeCollector({1: {"a": 2, "c": 2}})
        record = accountant.close_pending(collector, up_to_day=2)
        assert record.byte_weighted_hit_ratio == 100 / 400

    def test_byte_weight_failure_degrades_to_zero(self):
        def lost_c(keys):  # the sampler could not weigh c
            return {key: 100 for key in keys if key != "c"}

        def lost_everything(keys):
            raise RuntimeError("sampler lost the warehouse")

        collector = FakeCollector({1: {"a": 2, "c": 2}})
        ratios = []
        for weights in (lost_c, lost_everything):
            accountant = EfficacyAccountant(byte_weights=weights)
            accountant.open_generation(1, day=1, predicted=["a"], cached=["a"])
            record = accountant.close_pending(collector, up_to_day=2)
            ratios.append(record.byte_weighted_hit_ratio)
        # c's weight degrades to 0, so the cached path holds all bytes;
        # a sampler that fails outright weighs nothing and fails nothing.
        assert ratios == [1.0, 0.0]

    def test_no_byte_weight_reports_zero(self):
        accountant = EfficacyAccountant()
        accountant.open_generation(1, day=1, predicted=["a"], cached=["a"])
        record = accountant.close_pending(
            FakeCollector({1: {"a": 2}}), up_to_day=2
        )
        assert record.byte_weighted_hit_ratio == 0.0

    def test_empty_realized_set_is_all_zero_ratios(self):
        accountant = EfficacyAccountant()
        accountant.open_generation(1, day=1, predicted=["a"], cached=["a"])
        record = accountant.close_pending(FakeCollector({}), up_to_day=2)
        assert record.realized_paths == 0
        assert record.precision == 0.0
        assert record.recall == 0.0
        assert record.count_weighted_hit_ratio == 0.0


class TestLifecycle:
    def test_close_without_open_returns_none(self):
        accountant = EfficacyAccountant()
        assert accountant.close_pending(FakeCollector({}), up_to_day=5) is None

    def test_zero_served_days_not_scored(self):
        accountant = EfficacyAccountant()
        accountant.open_generation(1, day=5, predicted=["a"], cached=["a"])
        assert accountant.close_pending(FakeCollector({}), up_to_day=5) is None
        # pending is consumed either way
        assert accountant.close_pending(FakeCollector({}), up_to_day=9) is None

    def test_records_bounded(self):
        accountant = EfficacyAccountant(max_records=3)
        collector = FakeCollector({d: {"a": 2} for d in range(100)})
        for generation in range(6):
            accountant.open_generation(
                generation, day=generation, predicted=["a"], cached=["a"]
            )
            accountant.close_pending(collector, up_to_day=generation + 1)
        assert len(accountant.records) == 3
        assert [r.generation for r in accountant.records] == [3, 4, 5]

    def test_snapshot_and_summary(self):
        accountant = EfficacyAccountant()
        assert accountant.latest() is None
        assert accountant.summary()["generations_scored"] == 0
        accountant.open_generation(1, day=1, predicted=["a"], cached=["a"])
        accountant.close_pending(FakeCollector({1: {"a": 2}}), up_to_day=2)
        snap = accountant.snapshot()
        assert len(snap) == 1
        assert snap[0]["generation"] == 1
        assert snap[0]["served_days"] == [1]
        summary = accountant.summary()
        assert summary["generations_scored"] == 1
        assert summary["mean_precision"] == 1.0
