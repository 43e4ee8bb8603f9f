"""Tracing must not change what is executed: at every worker count and
backend a traced run of ``tests/sql_generator.py`` statements returns the
rows and the count-valued metrics of the untraced one, its operator spans
are the operators ``Session.explain`` lists, and its span deltas reconcile
with its ``QueryMetrics`` — also with the paths cached, and with a cache
file corrupted (``test_trace_reconcile.py``'s fixtures). That property is
structural per plan *shape*, so tier-1 runs one statement per distinct
shape on each leg; ``--every-statement`` (CI's fault-matrix job) runs all.
The rows legs are cells of ``tests/test_differential_matrix.py``.
"""

import pytest

from repro.faults import FaultPolicy
from repro.obs import Tracer
from repro.obs.explain import operator_root

from test_differential_matrix import STATEMENTS, counts, one_per_plan_shape
import test_trace_reconcile as reconcile

@pytest.fixture
def world(matrix):
    """The matrix's serial world; the traced test moves its worker knobs,
    and they are put back for the cells that share it."""
    world = matrix.world("serial")
    yield world.system, world.fs, None
    world.system.session.configure(scan_workers=1, worker_backend="thread")
    world.system.session.close_worker_pools()


@pytest.mark.parametrize("workers", [1, 4])
def test_plain_engine(matrix, workers):
    matrix.check("serial" if workers == 1 else "thread", "raw", "session")


def test_maxson_rewritten_all_paths_cached(matrix):
    matrix.check("serial", "cached", "session")


def test_maxson_under_flaky_cache_reads(matrix):
    matrix.check("serial", "degraded", "session")


def test_result_cache_serves_the_reference(matrix):
    matrix.check("serial", "result", "session")


def assert_tracing_changes_nothing(session, sqls, modifiers=None) -> None:
    for sql in sqls:
        plain = session.sql(sql, modifiers=modifiers)
        traced = session.sql(sql, tracer=Tracer(), modifiers=modifiers)
        assert traced.rows == plain.rows, sql
        assert counts(traced) == counts(plain), sql
        assert traced.metrics.extra.get("degraded_splits") == (
            plain.metrics.extra.get("degraded_splits")
        ), sql
        # operator spans are labelled; split/combine/parse ones are not
        # (an unset label reads as the span's name)
        spans = operator_root(traced.trace).walk()
        assert {span.label for span in spans if span.label != span.name} == {
            line.strip() for line in session.explain(sql, modifiers).splitlines()
        }, sql
        reconcile.assert_reconciles(traced)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("workers", [1, 3])
def test_traced_equals_untraced(world, workers, backend, request):
    system, fs, _ = world
    fs.policy = FaultPolicy()  # an earlier test's may still be installed
    session = system.session
    session.scan_workers, session.worker_backend = workers, backend
    # modifiers=(): the plain engine parses every path.
    shapes = one_per_plan_shape(session, STATEMENTS, modifiers=())
    print(f"{len(shapes)} plan shapes in {len(STATEMENTS)} statements")
    every = request.config.getoption("--every-statement")
    assert_tracing_changes_nothing(session, STATEMENTS if every else shapes, ())
    assert_tracing_changes_nothing(session, STATEMENTS[::5])  # every path cached
    fixture = reconcile.TestDegradedReconciliation()
    for corrupt in (False, True):
        small = fixture.build_system(workers, backend)
        small.cacher.populate(fixture.KEYS)
        if corrupt:
            fixture.corrupt_first_cache_file(small)
            small.breaker.quarantine_seconds = 0.0  # both runs probe the cache
        try:
            assert_tracing_changes_nothing(small.session, [fixture.SQL])
            assert bool(small.resilience.get("fallback_queries")) == corrupt
        finally:
            small.session.close_worker_pools()
