"""The four workloads: inputs from a seed, set-up steps, stratified batches.

Each workload drives the program through one public entry point only
(``MaxsonSystem.sql``, ``MaxsonServer.submit``, ``ClusterRouter.submit``,
``scheduler.advance_to``) and is a closed loop with one client: on this
host a second request in flight turns a 5 % run-to-run spread into 25 %.

A *batch* is the unit of timing. Every batch of a workload holds the
identical histogram of query classes; the seed only shuffles the order
inside a batch and draws the literals, so batch times are samples of one
distribution and a pooled percentile always falls in the same class.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import random
import threading
from dataclasses import dataclass

from . import spec
from .estimators import run_calibrated, run_ticked

__all__ = [
    "Request",
    "Outcome",
    "StepTimer",
    "digest",
    "WORKLOADS",
]


@dataclass(frozen=True)
class Request:
    cls: str
    """Query class: the stratum this request is counted in."""
    sql: str
    tenant: str | None = None
    day: int | None = None


@dataclass
class Outcome:
    rows: list
    metrics: dict
    """Per-query counters reported by the program (``QueryMetrics`` fields
    in process, the shard's ``metrics`` envelope through the router; a
    field the envelope does not carry is absent, not zero)."""
    shard: int | None = None


def digest(rows) -> str:
    """Order-independent digest of a result set (sorted row strings)."""
    joined = "\n".join(sorted(map(str, rows)))
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()


def in_child(fn, *args):
    """``fn(*args)`` computed in a forked child; returns its result.

    The oracle parses every raw document, which is the benchmark's own
    work: done in this process it set ``peak_rss_mb`` (the same value
    for ``raw_parse`` and ``cached_hot``, moving 10 % with the seed). A
    forked child sees the generated inputs without copying them and
    takes its memory with it. Only before set-up, while this process has
    one thread.
    """
    if threading.active_count() != 1:
        raise RuntimeError("in_child forks: call it before anything starts a thread")
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target() -> None:
        sender.send(fn(*args))

    child = context.Process(target=target)
    child.start()
    sender.close()
    try:
        return receiver.recv()  # EOFError when the child died
    finally:
        child.join()


# ---------------------------------------------------------------------------
# set-up timing
# ---------------------------------------------------------------------------
class StepTimer:
    """Times set-up steps, each against its own calibrations.

    A call that cannot be split (a cache build, a spawn, a midnight) is a
    ``step`` and goes through ``run_ticked``; a list of requests (a
    warm-up pass) goes through ``requests`` and ``run_calibrated``, as a
    timed batch does. Work done outside both — generating inputs,
    reference answers — is not set-up and not counted.
    """

    def __init__(self) -> None:
        self.steps: list[tuple[str, float, float]] = []  # group, clocked, normalised
        self.calibrations: list[float] = []

    def step(self, group: str, fn, *args, **kwargs):
        result, clocked, norm, samples = run_ticked(functools.partial(fn, *args, **kwargs))
        self.calibrations += samples
        self.steps.append((group, clocked, norm))
        return result

    def requests(self, group: str, execute, requests) -> None:
        results, calibrations = run_calibrated(requests, execute)
        self.calibrations += calibrations
        for _, _, outcome, _ in results:
            if isinstance(outcome, Exception):
                raise outcome
        self.steps.append(
            (
                group,
                sum(latency for _, latency, _, _ in results),
                sum(latency * scale for _, latency, _, scale in results),
            )
        )

    def total(self, normalised: bool = True) -> float:
        return sum(s[2] if normalised else s[1] for s in self.steps)

    def by_group(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for group, _, norm in self.steps:
            out[group] = out.get(group, 0.0) + norm
        return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Tables:
    """Generated rows of the Table II tables, one list per daily file."""

    factories: dict
    files: dict[str, list[list[tuple]]]
    user_bytes: int


def generate_tables(seed: int, rows_per_table: int, table_ids=None) -> Tables:
    """Table II documents for ``seed`` (values and filler move with it;
    shapes, sizes and the metric column's row clustering do not)."""
    from repro.workload.tables import TABLE_SPECS, DocumentFactory

    class SeededFactory(DocumentFactory):
        # Same documents-by-construction as the stock factory, but draws
        # a filler string in one call instead of one call per character
        # and serialises with the stdlib (the same compact text for these
        # documents): generating inputs is the benchmark's own time.
        def _filler_value(self, rng):
            return "".join(rng.choices(_ALPHABET, k=self._filler_len))

        def json(self, index):
            return json.dumps(self.document(index), separators=(",", ":"))

    metric_scale = max(1, 10_000 // rows_per_table)
    per_day = max(1, rows_per_table // spec.DAYS)
    factories = {}
    files: dict[str, list[list[tuple]]] = {}
    user_bytes = 0
    for table_spec in TABLE_SPECS:
        if table_ids is not None and table_spec.query_id not in table_ids:
            continue
        factory = SeededFactory(
            table_spec, seed=1000 + seed, metric_scale=metric_scale
        )
        factories[table_spec.query_id] = factory
        index = 0
        days = []
        for day in range(spec.DAYS):
            date = str(spec.START_DATE + day)
            rows = []
            for _ in range(per_day):
                text = factory.json(index)
                rows.append((index, date, text))
                user_bytes += (
                    len(text.encode("utf-8")) + len(date) + len(str(index))
                )
                index += 1
            days.append(rows)
        files[table_spec.query_id] = days
    return Tables(factories=factories, files=files, user_bytes=user_bytes)


def load_tables(tables: Tables, steps: StepTimer):
    """A fresh session holding ``tables``: one set-up step per table."""
    from repro.engine.session import Session
    from repro.storage.fs import BlockFileSystem
    from repro.workload.tables import table_schema

    session = Session(fs=BlockFileSystem())

    def load_one(table_spec, days):
        session.catalog.create_table(
            table_spec.database, table_spec.table, table_schema()
        )
        for rows in days:
            session.catalog.append_rows(
                table_spec.database,
                table_spec.table,
                rows,
                row_group_size=spec.ROW_GROUP_SIZE,
            )

    for query_id, days in tables.files.items():
        steps.step(
            "load_tables", load_one, tables.factories[query_id].spec, days
        )
    return session


def table_ii_inputs(seed: int, rows_per_table: int):
    """(tables, thresholds, one set of the ten queries per threshold)."""
    from repro.workload.queries import build_queries

    tables = generate_tables(seed, rows_per_table)
    thresholds = sorted(
        random.Random(f"thresholds-{seed}").sample(
            range(*spec.THRESHOLD_RANGE), spec.THRESHOLD_POOL
        )
    )
    variants = [
        build_queries(tables.factories, metric_threshold=t) for t in thresholds
    ]
    return tables, thresholds, variants


def path_keys(queries, query_ids=None):
    from repro.workload.trace import PathKey

    return [
        PathKey(q.database, q.table, q.column, path)
        for query_id, q in queries.items()
        if query_ids is None or query_id in query_ids
        for path in q.paths
    ]


def filesystem_bytes(system) -> int:
    """Every byte the workload's file system holds: raw MORC files, cache
    tables of the live generation, and the build journal."""
    from repro.core.journal import JOURNAL_PATH

    catalog = system.catalog
    total = sum(
        catalog.table_bytes(info.database, info.name)
        for info in catalog.list_tables()
    )
    if catalog.fs.exists(JOURNAL_PATH):
        total += catalog.fs.status(JOURNAL_PATH).length
    return total


def metrics_dict(metrics) -> dict:
    """The fields of ``QueryMetrics`` the ledger reads, as plain numbers."""
    return {
        "total_seconds": metrics.total_seconds,
        "plan_seconds": metrics.plan_seconds,
        "read_seconds": metrics.read_seconds,
        "parse_seconds": metrics.parse_seconds,
        "compute_seconds": metrics.compute_seconds,
        "bytes_read": metrics.bytes_read,
        "row_groups_total": metrics.row_groups_total,
        "row_groups_skipped": metrics.row_groups_skipped,
        "parse_documents": metrics.parse_documents,
        "shared_parse_hits": metrics.shared_parse_hits,
        "cache_hits": metrics.cache_hits,
        "cache_misses": metrics.cache_misses,
        "plan_cache_hits": int(metrics.extra.get("plan_cache_hits", 0)),
        "result_cache_hits": int(metrics.extra.get("result_cache_hits", 0)),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
class Workload:
    """Common shape: generate → (set up → tear down)* → batches → checks."""

    name = ""
    why = ""
    sizes: dict = {}
    has_end_batch = False
    """Whether ``end_batch`` does timed work (the nightly midnight)."""
    exact_counters = True
    """Whether one statement must report the same counters every time it
    runs (not through the router: result-cache hits come and go)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.references: dict[str, str] = {}
        """Digest of the reference rows of every statement the workload
        issues, from ``MaxsonSystem.baseline_sql`` — the plain engine, no
        Maxson rewrite. ``generate`` fills it (see ``in_child``)."""

    # inputs and oracle ------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def reference(self, request: Request) -> str:
        return self.references[request.sql]

    # set-up -----------------------------------------------------------
    def setup(self, steps: StepTimer) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` built."""

    # batches ----------------------------------------------------------
    def histogram(self) -> dict[str, int]:
        """Requests per class in every batch."""
        raise NotImplementedError

    def batch(self, index: int) -> list[Request]:
        raise NotImplementedError

    def execute(self, request: Request) -> Outcome:
        raise NotImplementedError

    def end_batch(self, index: int) -> None:
        """Work that belongs to the batch after its queries (midnight)."""

    # results ----------------------------------------------------------
    def session(self):
        """An in-process session over the workload's tables and caches,
        for the direct layer probes."""
        raise NotImplementedError

    def stored_bytes(self) -> int:
        raise NotImplementedError

    def user_bytes(self) -> int:
        raise NotImplementedError

    def bytes_written(self) -> int:
        """Running count of bytes written to the workload's file system
        (read before and after a batch; only the nightly build writes)."""
        return 0

    def child_pids(self) -> list[int]:
        return []

    def check(self, totals: dict) -> list[str]:
        """Workload assertions over the summed per-query counters;
        returns the violated ones."""
        return []

    def _shuffled(self, index: int, requests: list[Request]) -> list[Request]:
        random.Random(f"{self.name}-{self.seed}-{index}").shuffle(requests)
        return requests


def table_ii_references(tables: Tables, variants) -> dict[str, str]:
    """Reference digests of every statement in ``variants``, from a plain
    ``MaxsonSystem`` over ``tables``."""
    from repro.core.system import MaxsonSystem

    oracle = MaxsonSystem(session=load_tables(tables, StepTimer()))
    return {
        sql: digest(oracle.baseline_sql(sql).rows)
        for sql in sorted({q.sql for queries in variants for q in queries.values()})
    }


class _TableIIWorkload(Workload):
    """Ten Table II queries over in-process tables via ``MaxsonSystem.sql``."""

    def generate(self) -> None:
        self.tables, self.thresholds, self.variants = table_ii_inputs(
            self.seed, self.sizes["rows_per_table"]
        )
        self.references = in_child(table_ii_references, self.tables, self.variants)
        self.system = None

    def _new_system(self, steps: StepTimer):
        from repro.core.system import MaxsonSystem

        session = load_tables(self.tables, steps)
        return MaxsonSystem(session=session)

    def teardown(self) -> None:
        self.system = None

    def session(self):
        return self.system.session

    def histogram(self) -> dict[str, int]:
        return {q: self.sizes["passes_per_batch"] for q in self.variants[0]}

    def batch(self, index: int) -> list[Request]:
        rng = random.Random(f"{self.name}-{self.seed}-{index}-literals")
        requests = []
        for _ in range(self.sizes["passes_per_batch"]):
            for query_id in self.variants[0]:
                queries = self.variants[rng.randrange(len(self.variants))]
                requests.append(Request(query_id, queries[query_id].sql))
        return self._shuffled(index, requests)

    def execute(self, request: Request) -> Outcome:
        result = self.system.sql(request.sql)
        return Outcome(result.rows, metrics_dict(result.metrics))

    def stored_bytes(self) -> int:
        return filesystem_bytes(self.system)

    def user_bytes(self) -> int:
        return self.tables.user_bytes


class RawParse(_TableIIWorkload):
    name = "raw_parse"
    why = (
        "cache empty: every query parses its raw JSON, so jsonlib and "
        "storage reads do the work and core/server/cluster do none"
    )
    sizes = spec.RAW_PARSE

    def setup(self, steps: StepTimer) -> None:
        self.system = self._new_system(steps)
        steps.requests("warmup", self.execute, self.batch(-1))

    def check(self, totals: dict) -> list[str]:
        problems = []
        if totals["cache_hits"] != 0:
            problems.append(f"cache_hits={totals['cache_hits']}, expected 0")
        if totals["parse_documents"] == 0:
            problems.append("no document was parsed")
        return problems


class CachedHot(_TableIIWorkload):
    name = "cached_hot"
    why = (
        "every JSONPath pre-cached: cache-table reads, the Value Combiner "
        "and operators do the work and the parser none; a parser "
        "optimisation must read as no change here"
    )
    sizes = spec.CACHED_HOT

    def setup(self, steps: StepTimer) -> None:
        self.system = self._new_system(steps)
        keys = path_keys(self.variants[0])
        report = steps.step(
            "cache_build",
            self.system.cache_paths_directly,
            keys,
            budget_bytes=1 << 60,
        )
        if report.build.failed or len(report.selected) != len(set(keys)):
            raise RuntimeError("cache build did not cover every candidate")
        steps.requests("warmup", self.execute, self.batch(-1))

    def check(self, totals: dict) -> list[str]:
        problems = []
        if totals["parse_documents"] != 0:
            problems.append(
                f"parse_documents={totals['parse_documents']}, expected 0"
            )
        if totals["cache_misses"] != 0 or totals["cache_hits"] == 0:
            problems.append("not every extraction was a cache hit")
        return problems


class NightlyCycle(Workload):
    name = "nightly_cycle"
    why = (
        "served days with a midnight rebuild after each: data larger than "
        "the cache budget, cached and raw classes mixed, and the build "
        "writes with the code the other workloads only read with"
    )
    sizes = spec.NIGHTLY_CYCLE
    has_end_batch = True

    def generate(self) -> None:
        self.tables, self.thresholds, self.variants = table_ii_inputs(
            self.seed, self.sizes["rows_per_table"]
        )
        self.references = in_child(table_ii_references, self.tables, self.variants)
        self.tenants = [f"tenant-{i:02d}" for i in range(self.sizes["tenants"])]
        self.cached_keys = set(
            path_keys(self.variants[0], self.sizes["cached_tables"])
        )
        self.server = None
        self.day = 0

    def setup(self, steps: StepTimer) -> None:
        from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
        from repro.server import MaxsonServer, ServerConfig

        session = load_tables(self.tables, steps)
        system = MaxsonSystem(
            session=session,
            config=MaxsonConfig(predictor=PredictorConfig(model="always")),
        )
        self.server = MaxsonServer(
            system, ServerConfig(max_workers=2, result_cache=False)
        )
        self.day = 0

        # Day 0 only feeds the collector (bare stats events, the server's
        # second ingestion route); the first midnight then measures every
        # candidate, sets the budget's selection and builds generation 1.
        def first_day():
            for request in self.batch(0):
                query = self.variants[0][request.cls]
                self.server.ingest(0, tuple(path_keys({request.cls: query})))
            # The budget is the measured size of the tables the frozen
            # histogram makes hottest — about half of all candidates.
            system.config.cache_budget_bytes = sum(
                system.scoring.measure(key).estimated_total_bytes
                for key in sorted(self.cached_keys)
            )
            self._midnight()

        steps.step("cache_build", first_day)
        for _ in range(self.sizes["warmup_days"]):
            steps.requests("warmup", self.execute, self.batch(-self.day))
            steps.step("warmup", self._midnight)

    def _midnight(self) -> None:
        scheduler = self.server.scheduler
        scheduler.advance_to((self.day + 1) * scheduler.clock.seconds_per_day)
        self.day += 1

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    def session(self):
        return self.server.system.session

    def histogram(self) -> dict[str, int]:
        return dict(self.sizes["day_histogram"])

    def batch(self, index: int) -> list[Request]:
        # ``index`` is ignored for the day number: the virtual day is
        # whatever the server's clock says when the batch runs.
        rng = random.Random(f"{self.name}-{self.seed}-{index}-literals")
        requests = []
        for query_id, count in self.sizes["day_histogram"].items():
            for _ in range(count):
                queries = self.variants[rng.randrange(len(self.variants))]
                requests.append(
                    Request(
                        query_id,
                        queries[query_id].sql,
                        tenant=rng.choice(self.tenants),
                    )
                )
        return self._shuffled(index, requests)

    def execute(self, request: Request) -> Outcome:
        result = self.server.submit(
            request.sql, tenant=request.tenant, day=self.day
        ).result()
        return Outcome(result.rows, metrics_dict(result.metrics))

    def end_batch(self, index: int) -> None:
        self._midnight()

    def midnight_reports(self) -> list:
        return list(self.server.scheduler.reports)

    def bytes_written(self) -> int:
        return self.server.system.catalog.fs.stats.bytes_written

    def stored_bytes(self) -> int:
        return filesystem_bytes(self.server.system)

    def user_bytes(self) -> int:
        return self.tables.user_bytes

    def check(self, totals: dict) -> list[str]:
        problems = []
        reports = self.midnight_reports()
        system = self.server.system
        if len(reports) != self.day or system.generation != self.day:
            problems.append(
                f"{len(reports)} midnight reports and generation "
                f"{system.generation} after {self.day} days"
            )
        for report in reports:
            if report.build.failed or set(report.cached_paths) != self.cached_keys:
                problems.append(
                    f"day {report.day}: selected {len(report.selected)} paths, "
                    f"expected the {len(self.cached_keys)} of "
                    f"{self.sizes['cached_tables']}"
                )
                break
        hits, misses = totals["cache_hits"], totals["cache_misses"]
        if not (hits > 0 and misses > 0):
            problems.append(f"cache hit ratio not inside (0, 1): {hits}/{misses}")
        return problems


class ClusterReplay(Workload):
    name = "cluster_replay"
    why = (
        "the serving tier: router, RPC codec, admission, result and plan "
        "caches over two warm shards; engine and parser work barely show, "
        "codec/RPC/service-pipeline work shows only here"
    )
    sizes = spec.CLUSTER_REPLAY
    exact_counters = False

    def generate(self) -> None:
        from repro.cluster import ShardSpec

        if self.sizes["rows_per_table"] > 100:
            # See ``reference``: ad-hoc LIMITs must cover every row.
            raise ValueError("cluster_replay needs rows_per_table <= 100")
        self.shard_spec = ShardSpec(
            rows_per_table=self.sizes["rows_per_table"],
            days=spec.DAYS,
            row_group_size=spec.ROW_GROUP_SIZE,
            table_ids=list(self.sizes["table_ids"]),
            model="always",
            server={"result_cache": True, "max_workers": 2},
        )
        self.tenants = [f"tenant-{i:02d}" for i in range(self.sizes["tenants"])]
        low, high = self.sizes["adhoc_limit_range"]
        self.adhoc_limits = random.Random(f"adhoc-{self.seed}").sample(
            range(low, high), self.sizes["adhoc_pool"]
        )
        self.router = None
        self.twin = None
        from repro.cluster.shard import spec_queries

        self.queries = spec_queries(self.shard_spec)
        self.references, self.raw_bytes, self.row_bytes = in_child(self._oracle)

    def _twin(self):
        """A single-server twin built from the same spec: it holds the
        same tables byte for byte as every shard, and is never timed."""
        from repro.cluster.shard import build_shard_server

        system, server = build_shard_server(self.shard_spec)
        server.shutdown()
        return system

    def _oracle(self):
        """(reference digests, bytes of the raw tables, UTF-8 bytes of
        their rows), all from the twin."""
        twin = self._twin()
        references = {
            query.sql: digest(twin.baseline_sql(query.sql).rows)
            for query in self.queries.values()
        }
        raw_bytes = sum(
            twin.catalog.table_bytes(info.database, info.name)
            for info in twin.catalog.list_tables("prod")
        )
        row_bytes = 0
        for query in self.queries.values():
            rows = twin.baseline_sql(
                f"select id, date, {query.column} from "
                f"{query.database}.{query.table}"
            ).rows
            for row in rows:
                row_bytes += sum(len(str(v).encode("utf-8")) for v in row.values())
        return references, raw_bytes, row_bytes

    # The shards generate their own (deterministic) tables from the
    # spec, so the seed moves the request stream, not the stored data.
    def setup(self, steps: StepTimer) -> None:
        from repro.cluster import ClusterRouter

        self.router = steps.step(
            "spawn",
            ClusterRouter,
            self.sizes["shards"],
            spec=self.shard_spec,
            client_pool_workers=2,
        )
        # One raw pass per (query, tenant) shows every shard the tables
        # routed to it; the midnight then caches all their paths (the
        # shards' JSONPath budget is the default, larger than the data).
        steps.requests(
            "cache_build",
            self.execute,
            [
                Request(query.query_id, query.sql, tenant=tenant, day=0)
                for query in self.queries.values()
                for tenant in self.tenants
            ],
        )
        steps.step("cache_build", self.router.run_midnight, 1)
        # Bring both shards' result caches to capacity with throwaway
        # entries (a bare LIMIT scan each, the cheapest distinct
        # statement), so ad-hoc admissions pay the at-capacity eviction
        # scan from the first timed batch instead of from the 15th.
        rng = random.Random(f"fill-{self.seed}")
        query = self.queries["Q7"]
        steps.requests(
            "warmup",
            self.execute,
            [
                Request(
                    "fill",
                    f"select id from {query.database}.{query.table} limit {n + 1}",
                    tenant=rng.choice(self.tenants),
                    day=1,
                )
                for n in range(self.sizes["fill_requests"])
            ],
        )
        for index in range(self.sizes["warmup_batches"]):
            steps.requests("warmup", self.execute, self.batch(-1 - index))

    def teardown(self) -> None:
        if self.router is not None:
            self.router.shutdown()
            self.router = None

    def session(self):
        # Only the traced run probes; the end-to-end run never pays for
        # the twin in this process.
        if self.twin is None:
            self.twin = self._twin()
        return self.twin.session

    def reference(self, request: Request) -> str:
        # An ad-hoc statement is its template with ``limit 100`` replaced
        # by a larger limit; the tables hold fewer than 100 rows, so both
        # return every row and one baseline run serves the whole class.
        template = request.cls.removesuffix("-adhoc")
        return self.references[self.queries[template].sql]

    def histogram(self) -> dict[str, int]:
        out = dict(self.sizes["recurring_per_batch"])
        for query_id, count in self.sizes["adhoc_per_batch"].items():
            out[f"{query_id}-adhoc"] = count
        return out

    def batch(self, index: int) -> list[Request]:
        rng = random.Random(f"{self.name}-{self.seed}-{index}-literals")
        requests = []
        for query_id, count in self.sizes["recurring_per_batch"].items():
            for _ in range(count):
                requests.append(
                    Request(
                        query_id,
                        self.queries[query_id].sql,
                        tenant=rng.choice(self.tenants),
                        day=1,
                    )
                )
        for query_id, count in self.sizes["adhoc_per_batch"].items():
            base = self.queries[query_id].sql
            if not base.endswith(" limit 100"):
                raise RuntimeError(f"{query_id} template lost its LIMIT")
            stem = base[: -len("100")]
            for _ in range(count):
                requests.append(
                    Request(
                        f"{query_id}-adhoc",
                        f"{stem}{rng.choice(self.adhoc_limits)}",
                        tenant=rng.choice(self.tenants),
                        day=1,
                    )
                )
        return self._shuffled(index, requests)

    def execute(self, request: Request) -> Outcome:
        response = self.router.submit(
            request.sql, tenant=request.tenant, day=request.day
        ).result()
        return Outcome(response["rows"], response["metrics"], response["shard"])

    @staticmethod
    def reply_frame(outcome: Outcome) -> dict:
        """The shard's reply as ``cluster.rpc`` framed it (the request id
        and version vector at a fixed width)."""
        return {
            "id": 0,
            "v": {"catalog": 0, "generation": 0},
            "ok": True,
            "rows": outcome.rows,
            "metrics": outcome.metrics,
        }

    def frame_bytes(self, request: Request, outcome: Outcome) -> int:
        """Bytes one query moved between router and shard, both frames
        re-encoded the way ``send_frame`` encodes them."""
        call = {
            "id": 0,
            "op": "execute",
            "sql": request.sql,
            "tenant": request.tenant,
            "day": request.day,
            "deadline_ms": None,
        }
        return sum(
            4 + len(json.dumps(frame, separators=(",", ":")).encode("utf-8"))
            for frame in (call, self.reply_frame(outcome))
        )

    def stored_bytes(self) -> int:
        # Shard file systems are out of reach; every shard holds the
        # twin's raw tables byte for byte and reports its own cache bytes.
        cached = sum(
            int(status["cache_bytes"])
            for status in self.router.shard_status().values()
        )
        return self.raw_bytes * self.sizes["shards"] + cached

    def user_bytes(self) -> int:
        return self.row_bytes * self.sizes["shards"]

    def child_pids(self) -> list[int]:
        return [
            p.pid
            for p in multiprocessing.active_children()
            if p.name.startswith("maxson-shard-") and p.pid is not None
        ]

    def check(self, totals: dict) -> list[str]:
        problems = []
        served = self.router.status()["router"]["per_shard_completed"]
        if len(served) != self.sizes["shards"] or min(served.values()) == 0:
            problems.append(f"not every shard served requests: {served}")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (RawParse, CachedHot, NightlyCycle, ClusterReplay)
}
