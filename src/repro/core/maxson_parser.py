"""Maxson Parser (paper §IV-D, Algorithm 1): physical-plan rewriting.

Registered on a :class:`repro.engine.session.Session` as a plan modifier,
it runs between planning and execution — the place MaxsonParser occupies
relative to SparkSQL. For every expression in the plan (ProjectList and
Predicate alike) it pattern-matches ``get_json_object(CN, JP)`` calls:

* resolve the column to its scan, giving (DBN, TN, CN, JP);
* look the tuple up in the cache registry;
* check validity — if the raw table's modification time is *after* the
  cache time, mark the cache table invalid and leave the expression
  untouched (lines 16-20);
* on a valid hit, replace the call with a placeholder
  (:class:`~repro.engine.expressions.CachedField`) carrying the column
  name, column id and JSONPath (lines 22-23).

Afterwards each scan with hits becomes a
:class:`~repro.core.combiner.MaxsonScanExec`; the JSON column is pruned
from the scan when no surviving expression still references it, and
predicates over cached fields are translated into cache-table SARGs
(Algorithm 3) via :mod:`repro.core.pushdown`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.expressions import (
    CachedField,
    Column,
    Expression,
    ExtractionCall,
    transform,
    walk,
)
from ..engine.physical import (
    ExecState,
    FilterExec,
    PhysicalPlan,
    ScanExec,
    expression_slots,
    slot_expression,
    walk_plan,
)
from ..engine.planner import PlannedQuery
from ..engine.logical import SortKey
from ..workload.trace import PathKey
from .cacher import CacheRegistry
from .combiner import CachedFieldRequest, MaxsonScanExec
from .pushdown import extract_cache_sarg

__all__ = ["MaxsonPlanModifier", "RewriteReport"]


@dataclass
class RewriteReport:
    """What the last ``modify`` call did (for tests and Fig 13)."""

    hits: int = 0
    misses: int = 0
    invalidated_tables: list[str] = field(default_factory=list)
    scans_rewritten: int = 0
    pruned_columns: list[str] = field(default_factory=list)


def _set_slot(holder, slot, expr: Expression) -> None:
    current = holder[slot] if isinstance(slot, int) else getattr(holder, slot)
    if isinstance(current, SortKey):
        expr = SortKey(expr, current.ascending)  # type: ignore[assignment]
    if isinstance(slot, int):
        holder[slot] = expr
    else:
        setattr(holder, slot, expr)


class MaxsonPlanModifier:
    """The plan modifier implementing Algorithm 1.

    Parameters
    ----------
    registry:
        The cache registry populated by the cacher.
    enable_pushdown:
        Algorithm 3 on/off (an ablation knob; the paper has it on).
    """

    def __init__(
        self,
        registry: CacheRegistry,
        enable_pushdown: bool = True,
        breaker=None,
        resilience=None,
    ) -> None:
        self.registry = registry
        self.enable_pushdown = enable_pushdown
        #: Optional :class:`~repro.core.resilience.CacheCircuitBreaker`;
        #: quarantined cache tables are treated as misses at plan time so
        #: queries degrade to raw parsing without re-paying the failure.
        self.breaker = breaker
        #: Optional :class:`~repro.core.resilience.ResilienceStats`.
        self.resilience = resilience
        self.last_report = RewriteReport()

    def plan_cache_token(self) -> tuple:
        """Plan-cache key component for this modifier.

        A generation swap installs a brand-new registry object, so the
        registry's identity changes the token (stale plans referencing
        retired ``__g{N}`` tables can never be served); the registry
        version covers in-place mutations (refresh repairs, invalid
        marks). The breaker epoch changes on quarantine transitions,
        which alter the modifier's plan-time hit/miss decisions.
        """
        epoch = self.breaker.epoch if self.breaker is not None else -1
        registry = self.registry
        return (
            "maxson",
            id(registry),
            registry.version,
            self.enable_pushdown,
            epoch,
        )

    # ------------------------------------------------------------------
    def modify(self, planned: PlannedQuery, state: ExecState) -> PhysicalPlan:
        plan = planned.physical
        report = RewriteReport()
        self.last_report = report
        # Snapshot the registry reference once: a concurrent generation
        # swap replaces ``self.registry`` wholesale, and one query must
        # resolve every expression against a single consistent registry.
        registry = self.registry
        scans = [n for n in walk_plan(plan) if isinstance(n, ScanExec)]
        if not scans:
            return plan
        resolvers = _build_resolvers(scans)
        requests: dict[int, dict[str, CachedFieldRequest]] = {
            id(scan): {} for scan in scans
        }
        column_counter = [0]

        def rewrite(expr: Expression) -> Expression | None:
            # MatchExpr (Algorithm 1 lines 11-25). Matching the base class
            # means every extraction format (JSON, XML, ...) is cacheable.
            if not isinstance(expr, ExtractionCall):
                return None
            if not isinstance(expr.column, Column):
                return None
            resolved = resolvers.get_scan(expr.column.name)
            if resolved is None:
                return None
            scan, column_name = resolved
            key = PathKey(scan.database, scan.table, column_name, expr.path)
            entry = registry.lookup(key)
            if entry is None:
                report.misses += 1
                return None
            # Circuit breaker: a quarantined cache table is a planned
            # miss — the query parses raw instead of re-hitting a read
            # path known to be failing. allows() also half-opens an
            # expired quarantine, making this read the re-probe.
            if self.breaker is not None and not self.breaker.allows(
                entry.cache_table
            ):
                if self.resilience is not None:
                    self.resilience.add("quarantine_skips")
                report.misses += 1
                return None
            # Validity: cache must be newer than the raw table (lines 16-19).
            modify_time = state.catalog.modification_time(
                scan.database, scan.table
            )
            if modify_time > entry.cache_time:
                registry.mark_table_invalid(entry.cache_table)
                report.invalidated_tables.append(entry.cache_table)
                report.misses += 1
                return None
            prefix = scan.alias or scan.table
            env_key = f"__mx__{prefix}__{entry.field_name}"
            column_counter[0] += 1
            request = CachedFieldRequest(entry=entry, env_key=env_key)
            requests[id(scan)][env_key] = request
            report.hits += 1
            return CachedField(
                column_name=column_name,
                column_id=column_counter[0],
                path=expr.path,
                env_key=env_key,
            )

        for holder, slot in list(expression_slots(plan)):
            _set_slot(holder, slot, transform(slot_expression(holder, slot), rewrite))

        # Misses are counted at plan time (hits land in the metrics when
        # the combiner actually reads cached values at execution).
        state.metrics.cache_misses += report.misses

        if report.hits == 0:
            return plan

        # Column pruning: drop scan columns (typically the JSON column)
        # no longer referenced by any expression.
        referenced: set[str] = set()
        for holder, slot in expression_slots(plan):
            for node in walk(slot_expression(holder, slot)):
                if isinstance(node, Column):
                    referenced.add(node.name)

        def replace_scan(node: PhysicalPlan) -> PhysicalPlan | None:
            if not isinstance(node, ScanExec) or isinstance(node, MaxsonScanExec):
                return None
            scan_requests = requests.get(id(node), {})
            if not scan_requests:
                return None
            surviving: list[str] = []
            for name in node.columns:
                qualified = f"{node.alias}.{name}" if node.alias else None
                if name in referenced or (qualified and qualified in referenced):
                    surviving.append(name)
                else:
                    report.pruned_columns.append(f"{node.database}.{node.table}.{name}")
            report.scans_rewritten += 1
            return MaxsonScanExec(
                database=node.database,
                table=node.table,
                alias=node.alias,
                columns=surviving,
                sarg=node.sarg if surviving else None,
                cached_fields=sorted(
                    scan_requests.values(), key=lambda r: r.env_key
                ),
                breaker=self.breaker,
                resilience=self.resilience,
            )

        plan = plan.transform_nodes(replace_scan)

        if self.enable_pushdown:
            _push_cache_sargs(plan)
        return plan


@dataclass
class _Resolvers:
    by_alias: dict[str, ScanExec]
    by_bare_column: dict[str, ScanExec | None]

    def get_scan(self, column_ref: str) -> tuple[ScanExec, str] | None:
        """Resolve a column reference to (scan, bare column name)."""
        if "." in column_ref:
            prefix, bare = column_ref.split(".", 1)
            scan = self.by_alias.get(prefix)
            if scan is not None and bare in scan.columns:
                return scan, bare
            return None
        scan = self.by_bare_column.get(column_ref)
        if scan is None:
            return None
        return scan, column_ref


def _build_resolvers(scans: list[ScanExec]) -> _Resolvers:
    by_alias: dict[str, ScanExec] = {}
    by_bare: dict[str, ScanExec | None] = {}
    for scan in scans:
        by_alias[scan.alias or scan.table] = scan
        by_alias.setdefault(scan.table, scan)
        for column in scan.columns:
            if column in by_bare and by_bare[column] is not scan:
                by_bare[column] = None  # ambiguous across scans
            else:
                by_bare.setdefault(column, scan)
    return _Resolvers(by_alias=by_alias, by_bare_column=by_bare)


def _push_cache_sargs(plan: PhysicalPlan) -> None:
    """Find Filter -> MaxsonScan pairs and push SARGs on cached fields."""

    def visit(node: PhysicalPlan) -> PhysicalPlan | None:
        if isinstance(node, FilterExec) and isinstance(node.child, MaxsonScanExec):
            scan = node.child
            sarg = extract_cache_sarg(node.condition, scan.cached_fields)
            if sarg is not None:
                scan.cache_sarg = sarg
        return None

    plan.transform_nodes(visit)
