"""Smoke tests of the public package surface."""

import pytest


class TestRoot:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_lazy_maxson_system(self):
        import repro

        assert repro.MaxsonSystem.__name__ == "MaxsonSystem"

    def test_unknown_attribute(self):
        import repro

        with pytest.raises(AttributeError):
            repro.not_a_thing


class TestAllExports:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.jsonlib",
            "repro.xmllib",
            "repro.storage",
            "repro.engine",
            "repro.ml",
            "repro.workload",
            "repro.core",
            "repro.server",
            "repro.faults",
            "repro.obs",
            "repro.cluster",
            "repro.engine.frame",  # the lane codec's home since PR 24
            "repro.engine.procpool",  # ... and no longer exported from here
        ],
    )
    def test_all_names_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module_name}.{name}"

    def test_no_duplicate_exports(self):
        import importlib

        for module_name in ("repro.jsonlib", "repro.engine", "repro.core"):
            module = importlib.import_module(module_name)
            assert len(module.__all__) == len(set(module.__all__))


class TestDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.jsonlib.jackson",
            "repro.jsonlib.mison",
            "repro.jsonlib.sparser",
            "repro.jsonlib.jsonpath",
            "repro.xmllib.parser",
            "repro.xmllib.xpath",
            "repro.storage.fs",
            "repro.storage.orc",
            "repro.storage.sargs",
            "repro.engine.sqlparser",
            "repro.engine.planner",
            "repro.engine.physical",
            "repro.engine.functions",
            "repro.engine.rawfilter",
            "repro.engine.frame",
            "repro.ml.lstm",
            "repro.ml.crf",
            "repro.ml.lstm_crf",
            "repro.workload.trace",
            "repro.workload.nobench",
            "repro.core.collector",
            "repro.core.predictor",
            "repro.core.scoring",
            "repro.core.cacher",
            "repro.core.maxson_parser",
            "repro.core.combiner",
            "repro.core.pushdown",
            "repro.core.system",
            "repro.server.admission",
            "repro.server.generation",
            "repro.server.scheduler",
            "repro.server.service",
            "repro.server.status",
            "repro.server.replay",
            "repro.server.config",
            "repro.cluster.hashing",
            "repro.cluster.rpc",
            "repro.cluster.metacache",
            "repro.cluster.shard",
            "repro.cluster.router",
            "repro.cluster.replay",
            "repro.obs.trace",
            "repro.obs.instrument",
            "repro.obs.explain",
            "repro.obs.metrics",
            "repro.obs.promlint",
            "repro.obs.logging",
            "repro.obs.efficacy",
            "repro.cli",
            "repro.reporting",
        ],
    )
    def test_module_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_key_classes_documented(self):
        from repro.core import (
            JsonPathCacher,
            JsonPathCollector,
            JsonPathPredictor,
            MaxsonSystem,
            ScoringFunction,
        )
        from repro.engine import Session
        from repro.jsonlib import JacksonParser, MisonParser

        for cls in (
            MaxsonSystem,
            JsonPathCollector,
            JsonPathPredictor,
            ScoringFunction,
            JsonPathCacher,
            Session,
            JacksonParser,
            MisonParser,
        ):
            assert cls.__doc__ and cls.__doc__.strip()


#: Every settable field of the config objects. A change that adds a
#: knob has to add it here, where a reviewer sees the option count move.
CONFIG_SURFACE = {
    "repro.engine.Session": """
        fs catalog projection_parser_factory scan_workers worker_backend
        plan_cache_entries result_cache_enabled result_cache_entries
        cache_budget_bytes worker_observer""",
    "repro.core.MaxsonConfig": """
        cache_budget_bytes selection_strategy enable_pushdown predictor
        random_seed quarantine_seconds build_workers""",
    "repro.core.PredictorConfig": """
        model window_days hidden_size num_layers epochs learning_rate
        all_possible_transitions seed""",
    "repro.server.ServerConfig": """
        max_workers per_tenant_limit queue_capacity admission_timeout_seconds
        refresh_interval_seconds max_query_retries retry_backoff_seconds
        default_deadline_ms deadline_shed_factor memory_soft_limit_bytes
        drain_timeout_seconds build_workers scan_workers worker_backend
        plan_cache_entries result_cache cache_budget_bytes system_tables
        telemetry_budget_bytes trace_dir slow_query_seconds log_file""",
    "repro.cluster.ShardSpec": """
        shard_id rows_per_table days row_group_size table_ids fault_profile
        read_latency_seconds model server""",
}


@pytest.mark.parametrize("name", CONFIG_SURFACE)
def test_config_fields_are_exactly_the_listed_ones(name):
    import dataclasses
    import importlib

    module, _, cls = name.rpartition(".")
    fields = dataclasses.fields(getattr(importlib.import_module(module), cls))
    assert {f.name for f in fields} == set(CONFIG_SURFACE[name].split())
