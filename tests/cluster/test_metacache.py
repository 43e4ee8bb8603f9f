"""Coordinator metadata cache: version-vector invalidation semantics, and
the shard's one metadata answer it caches (a table's schema)."""

from types import SimpleNamespace

import pytest

from repro.cluster.metacache import MetadataCache
from repro.cluster.shard import metadata_payload
from repro.storage import DataType, Schema

V0 = {"catalog": 1, "generation": 0}
V1 = {"catalog": 2, "generation": 0}
V2 = {"catalog": 2, "generation": 1}


def loader_returning(payload, version):
    calls = []

    def loader():
        calls.append(1)
        return payload, version

    loader.calls = calls
    return loader


class TestLookup:
    def test_first_lookup_misses_then_hits(self):
        cache = MetadataCache()
        loader = loader_returning({"a": 1}, V0)
        assert cache.lookup(0, "prod.t", loader) == {"a": 1}
        assert cache.lookup(0, "prod.t", loader) == {"a": 1}
        assert loader.calls == [1]
        assert cache.hits == 1 and cache.misses == 1

    def test_tables_are_independent_entries(self):
        cache = MetadataCache()
        cache.lookup(0, "prod.t", loader_returning("s", V0))
        other = loader_returning("x", V0)
        assert cache.lookup(0, "prod.u", other) == "x"
        assert cache.lookup(0, "prod.t", other) == "s"
        snap = cache.snapshot()
        assert snap["entries"] == 2
        assert (snap["hits"], snap["misses"]) == (1, 2)
        assert other.calls == [1]


class TestInvalidation:
    def test_version_move_drops_only_that_shard(self):
        cache = MetadataCache()
        cache.lookup(0, "prod.t", loader_returning("a", V0))
        cache.lookup(1, "prod.t", loader_returning("b", V0))
        # Shard 0 appends: its vector moves, shard 1 untouched.
        cache.observe_version(0, V1)
        reload0 = loader_returning("a2", V1)
        keep1 = loader_returning("unused", V0)
        assert cache.lookup(0, "prod.t", reload0) == "a2"
        assert cache.lookup(1, "prod.t", keep1) == "b"
        assert reload0.calls == [1]
        assert keep1.calls == []
        assert cache.invalidations == 1

    def test_generation_swap_invalidates_like_ddl(self):
        cache = MetadataCache()
        cache.lookup(0, "prod.t", loader_returning("g0", V1))
        cache.observe_version(0, V2)
        reload = loader_returning("g1", V2)
        assert cache.lookup(0, "prod.t", reload) == "g1"
        assert reload.calls == [1]

    def test_same_version_observation_is_free(self):
        cache = MetadataCache()
        cache.lookup(0, "prod.t", loader_returning("a", V0))
        assert cache.observe_version(0, dict(V0)) is False
        assert cache.invalidations == 0

    def test_entry_loaded_under_stale_vector_never_hits(self):
        """If the shard's vector moves while a load is in flight, the
        stored entry must not satisfy later lookups."""
        cache = MetadataCache()

        def racing_loader():
            # The shard answers with the *old* vector, but by the time
            # the router stores it another response already reported V1.
            cache.observe_version(0, V1)
            return "stale", V0

        cache.lookup(0, "prod.t", racing_loader)
        fresh = loader_returning("fresh", V1)
        assert cache.lookup(0, "prod.t", fresh) == "fresh"
        assert fresh.calls == [1]


class TestHousekeeping:
    def test_forget_shard(self):
        cache = MetadataCache()
        cache.lookup(0, "prod.t", loader_returning("a", V0))
        cache.forget_shard(0)
        assert cache.snapshot()["entries"] == 0
        reload = loader_returning("a", V0)
        cache.lookup(0, "prod.t", reload)
        assert reload.calls == [1]

    def test_reset_stats_keeps_entries(self):
        cache = MetadataCache()
        loader = loader_returning("a", V0)
        cache.lookup(0, "prod.t", loader)
        cache.reset_stats()
        assert cache.snapshot()["entries"] == 1
        assert cache.lookup(0, "prod.t", loader) == "a"
        assert loader.calls == [1]  # still a hit after reset
        assert cache.hit_rate == 1.0

    def test_hit_rate_zero_when_empty(self):
        assert MetadataCache().hit_rate == 0.0


class TestShardPayload:
    def test_schema_is_the_only_kind(self, session):
        session.catalog.create_table(
            "prod", "t", Schema.of(("id", DataType.INT64), ("doc", DataType.STRING))
        )
        system = SimpleNamespace(catalog=session.catalog)
        payload = metadata_payload(system, "schema", "prod", "t")
        assert payload["columns"] == [["id", "INT64"], ["doc", "STRING"]]
        for kind in ("footers", "stripes", "registry"):
            with pytest.raises(ValueError, match="unknown metadata kind"):
                metadata_payload(system, kind, "prod", "t")
