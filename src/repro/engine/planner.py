"""Lower logical plans to physical operators.

Responsibilities, mirroring (a small slice of) SparkSQL's analyzer +
optimizer:

* resolve identifiers case-insensitively — table and column references
  are rewritten to the catalog's canonical spelling (exact match first),
  matching SparkSQL's default ``spark.sql.caseSensitive=false``; this is
  what makes the canonical statement's case folding (the result- and
  plan-cache key) safe, since two recased spellings of a query now
  compile to the same plan. The canonicaliser runs this pass on the
  parse the planner later consumes; it is idempotent. (Schemas
  with column names differing only in case would defeat the folding; no
  schema in this repo does.);
* resolve ``*`` against scan schemas;
* column pruning — each scan reads only the columns the plan references;
* SARG extraction — conjuncts of a WHERE clause that compare a plain
  column to a literal become search arguments pushed into the scan, each
  paired with the conjunct it came from (the baseline engine can only
  push predicates on *real* columns; pushing predicates on cached
  JSONPaths is Maxson's contribution, implemented in
  :mod:`repro.core.pushdown` with the same translator,
  :func:`conjunct_sargs`);
* join-side pushdown — a WHERE conjunct above an inner join that is such
  a comparison over columns qualified to one side only moves to a filter
  on that side's scan; anything else (a bare name, an extraction, a
  function, a cross-side OR) stays above the join;
* ORDER BY / HAVING resolution — sort keys and having predicates that
  textually match a SELECT expression are rewritten to reference its
  output column, otherwise the sort is planned below the projection.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.sargs import AndSarg, ComparisonSarg, Sarg, SargOp
from .batch import ExpressionProgram
from .catalog import Catalog
from .errors import PlanError
from .expressions import (
    AggregateCall,
    Alias,
    Between,
    BinaryOp,
    Column,
    Expression,
    Literal,
    UnaryOp,
    conjoin,
    split_conjuncts,
    walk,
)
from .logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    SortKey,
)
from .physical import (
    AggregateExec,
    FilterExec,
    HashJoinExec,
    LimitExec,
    PhysicalPlan,
    ProjectExec,
    ScanExec,
    SortExec,
)
from .sqlparser import Star

__all__ = ["Planner", "PlannedQuery", "conjunct_sargs"]


@dataclass
class PlannedQuery:
    """A compiled physical plan plus planning metadata."""

    physical: PhysicalPlan
    logical: LogicalPlan
    referenced_json_paths: list[tuple[str, str, str, str]]
    """Every (database, table, column, path) mentioned by the query."""
    duplicate_extractions: int = 0
    """Textually identical extraction calls beyond each first occurrence —
    the common subexpressions the batch compiler collapses to one node
    (and evaluates once per batch) at execution time."""
    json_paths: tuple[str, ...] = ()
    """The JSONPaths the plan still extracts from raw text once the plan
    modifiers have run (``physical.json_paths_of``): what each execution
    context projects out of a document in one pass. Filled in by the
    session and kept with the plan in the plan cache."""
    program: ExpressionProgram | None = None
    """The final plan's :class:`~repro.engine.batch.ExpressionProgram`
    (``physical.compile_plan``), built by the session once the plan is
    final and kept with it in the plan cache."""


_COMPARE_TO_SARG = {
    "=": SargOp.EQ,
    "<": SargOp.LT,
    "<=": SargOp.LE,
    ">": SargOp.GT,
    ">=": SargOp.GE,
}

#: The comparison read right to left (``5 < a`` is ``a > 5``).
_FLIP = {
    SargOp.EQ: SargOp.EQ,
    SargOp.LT: SargOp.GT,
    SargOp.LE: SargOp.GE,
    SargOp.GT: SargOp.LT,
    SargOp.GE: SargOp.LE,
}


class Planner:
    """Compile logical plans against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    def plan(self, logical: LogicalPlan, resolved: bool = False) -> PlannedQuery:
        """Plan ``logical`` (consumed: the passes rewrite it in place);
        ``resolved`` says the identifier pass already ran on it."""
        scans = _collect_scans(logical)
        if not resolved:
            self._resolve_identifier_case(logical, scans)
        logical = self._expand_stars(logical, scans)
        required = self._required_columns(logical, scans)
        physical = self._lower(logical, required)
        return PlannedQuery(
            physical=physical,
            logical=logical,
            referenced_json_paths=self._referenced_paths(logical, scans),
            duplicate_extractions=self._duplicate_extractions(logical),
        )

    def _duplicate_extractions(self, plan: LogicalPlan) -> int:
        """Count repeated identical extraction calls across the query.

        Expression nodes are frozen dataclasses, so value equality makes
        two ``get_json_object(col, '$.p')`` occurrences — wherever they
        sit in the plan — the same dictionary key. Each occurrence beyond
        the first is a CSE opportunity; the batch compiler's
        equality-memoised compilation eliminates them and reports actual
        eliminations in ``QueryMetrics.duplicate_extractions_eliminated``.
        """
        from .expressions import ExtractionCall

        counts: dict[Expression, int] = {}
        for expr in _all_expressions(plan):
            for node in walk(expr):
                if isinstance(node, ExtractionCall):
                    counts[node] = counts.get(node, 0) + 1
        return sum(count - 1 for count in counts.values())

    # ------------------------------------------------------------------
    # identifier-case resolution (the analyzer's first pass)
    # ------------------------------------------------------------------
    def _resolve_identifier_case(
        self, plan: LogicalPlan, scans: list[LogicalScan]
    ) -> None:
        """Rewrite table and column references to canonical spelling.

        Exact matches always win; otherwise a reference resolves to the
        unique case-insensitive match (a missing or ambiguous reference
        is left untouched and fails downstream exactly as it would have
        before this pass existed). Scans are fixed in place first so
        column resolution sees the canonical schemas.
        """
        for scan in scans:
            if not self.catalog.table_exists(scan.database, scan.table):
                wanted = (scan.database.lower(), scan.table.lower())
                matches = [
                    info
                    for info in self.catalog.list_tables()
                    if (info.database.lower(), info.name.lower()) == wanted
                ]
                if len(matches) == 1:
                    scan.database = matches[0].database
                    scan.table = matches[0].name
        prefix_map: dict[str, tuple[str, LogicalScan]] = {}
        for scan in scans:
            prefix = scan.alias or scan.table
            prefix_map.setdefault(prefix.lower(), (prefix, scan))

        def canonical_column(scan: LogicalScan, name: str) -> str | None:
            if not self.catalog.table_exists(scan.database, scan.table):
                return None
            schema_names = self.catalog.get_table(
                scan.database, scan.table
            ).schema.names
            if name in schema_names:
                return name
            matches = [n for n in schema_names if n.lower() == name.lower()]
            return matches[0] if len(matches) == 1 else None

        def rewrite(node: Expression) -> Expression | None:
            if not isinstance(node, Column):
                return None
            name = node.name
            if "." in name:
                prefix, rest = name.split(".", 1)
                hit = prefix_map.get(prefix.lower())
                if hit is None:
                    return None
                canon_prefix, scan = hit
                canon_col = canonical_column(scan, rest) or rest
                new_name = f"{canon_prefix}.{canon_col}"
                return Column(new_name) if new_name != name else None
            candidates: set[str] = set()
            for scan in scans:
                canon = canonical_column(scan, name)
                if canon == name:
                    return None  # exact match somewhere: leave it
                if canon is not None:
                    candidates.add(canon)
            if len(candidates) == 1:
                return Column(candidates.pop())
            return None

        from .expressions import transform

        _map_expressions(plan, lambda expr: transform(expr, rewrite))

    # ------------------------------------------------------------------
    # star expansion
    # ------------------------------------------------------------------
    def _expand_stars(
        self, plan: LogicalPlan, scans: list[LogicalScan]
    ) -> LogicalPlan:
        if isinstance(plan, LogicalProject):
            plan.child = self._expand_stars(plan.child, scans)
            if any(isinstance(e, Star) for e in plan.expressions):
                expanded: list[Expression] = []
                for expr in plan.expressions:
                    if isinstance(expr, Star):
                        for scan in scans:
                            info = self.catalog.get_table(scan.database, scan.table)
                            expanded.extend(Column(n) for n in info.schema.names)
                    else:
                        expanded.append(expr)
                plan.expressions = expanded
            return plan
        for attr in ("child", "left", "right"):
            child = getattr(plan, attr, None)
            if isinstance(child, LogicalPlan):
                setattr(plan, attr, self._expand_stars(child, scans))
        if isinstance(plan, LogicalAggregate) and any(
            isinstance(e, Star) for e in plan.output
        ):
            raise PlanError("'*' cannot appear in an aggregate SELECT list")
        return plan

    # ------------------------------------------------------------------
    # column pruning
    # ------------------------------------------------------------------
    def _required_columns(
        self, plan: LogicalPlan, scans: list[LogicalScan]
    ) -> dict[int, list[str]]:
        """Map id(scan) -> ordered column list that scan must read."""
        referenced: set[str] = set()
        for expr in _all_expressions(plan):
            for node in walk(expr):
                if isinstance(node, Column):
                    referenced.add(node.name)
        required: dict[int, list[str]] = {}
        for scan in scans:
            info = self.catalog.get_table(scan.database, scan.table)
            needed: list[str] = []
            for name in info.schema.names:
                qualified = f"{scan.alias}.{name}" if scan.alias else None
                if name in referenced or (qualified and qualified in referenced):
                    needed.append(name)
            required[id(scan)] = needed
        return required

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def _lower(
        self, plan: LogicalPlan, required: dict[int, list[str]]
    ) -> PhysicalPlan:
        if isinstance(plan, LogicalScan):
            self.catalog.get_table(plan.database, plan.table)  # existence check
            return ScanExec(
                database=plan.database,
                table=plan.table,
                alias=plan.alias,
                columns=required[id(plan)],
            )
        if isinstance(plan, LogicalFilter):
            if isinstance(plan.child, LogicalAggregate):
                return self._lower_having(plan, required)
            if isinstance(plan.child, LogicalJoin):
                return self._lower_join(plan.child, required, plan.condition)
            return _filtered(self._lower(plan.child, required), plan.condition)
        if isinstance(plan, LogicalProject):
            child = self._lower(plan.child, required)
            return ProjectExec(child, plan.expressions)
        if isinstance(plan, LogicalAggregate):
            child = self._lower(plan.child, required)
            return AggregateExec(child, plan.group_keys, plan.output)
        if isinstance(plan, LogicalSort):
            return self._lower_sort(plan, required)
        if isinstance(plan, LogicalLimit):
            return LimitExec(self._lower(plan.child, required), plan.count, plan.slot)
        if isinstance(plan, LogicalJoin):
            return self._lower_join(plan, required)
        raise PlanError(f"cannot lower {type(plan).__name__}")

    def _lower_having(
        self, plan: LogicalFilter, required: dict[int, list[str]]
    ) -> PhysicalPlan:
        """HAVING: resolve aggregate references against (or add them to)
        the aggregate's output, then filter above it."""
        aggregate: LogicalAggregate = plan.child  # type: ignore[assignment]
        by_sql: dict[str, str] = {}
        for expr in aggregate.output:
            target = expr.child if isinstance(expr, Alias) else expr
            by_sql[target.sql()] = expr.output_name()
        hidden: list[Expression] = []

        def resolve(node: Expression) -> Expression | None:
            if not isinstance(node, AggregateCall):
                return None
            name = by_sql.get(node.sql())
            if name is None:
                name = f"__having_{len(hidden)}"
                hidden.append(Alias(node, name))
                by_sql[node.sql()] = name
            return Column(name)

        from .expressions import transform

        condition = transform(plan.condition, resolve)
        visible = [e.output_name() for e in aggregate.output]
        aggregate.output = aggregate.output + hidden
        child = self._lower(aggregate, required)
        filtered = FilterExec(child, condition)
        if hidden:
            # Project the hidden helper columns back out.
            return ProjectExec(filtered, [Column(n) for n in visible])
        return filtered

    def _lower_join(
        self, plan: LogicalJoin, required: dict[int, list[str]], where=None
    ) -> PhysicalPlan:
        """The hash join, under the conjuncts of ``where`` that did not
        move to a filter on one side's scan (see :func:`_side_of`)."""
        left = self._lower(plan.left, required)
        right = self._lower(plan.right, required)
        above: list[Expression] = []
        pushed: tuple[list, list] = ([], [])
        for conjunct in split_conjuncts(where) if where is not None else ():
            side = _side_of(conjunct, left, right)
            (above if side is None else pushed[side]).append(conjunct)
        left = _filtered(left, conjoin(pushed[0]))
        right = _filtered(right, conjoin(pushed[1]))
        left_names = left.output_names()
        right_names = right.output_names()
        left_keys: list[Expression] = []
        right_keys: list[Expression] = []
        residual: list[Expression] = []
        for conjunct in split_conjuncts(plan.condition):
            pair = _equi_pair(conjunct, left_names, right_names)
            if pair is None:
                residual.append(conjunct)
            else:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
        if not left_keys:
            raise PlanError(
                "join requires at least one equi-condition "
                f"(got {plan.condition.sql()})"
            )
        join = HashJoinExec(left, right, left_keys, right_keys, conjoin(residual))
        return _filtered(join, conjoin(above))

    def _lower_sort(
        self, plan: LogicalSort, required: dict[int, list[str]]
    ) -> PhysicalPlan:
        child_logical = plan.child
        # Limit directly under sort? The parser builds Sort above, Limit
        # outermost, so child here is Project/Aggregate/Filter.
        if isinstance(child_logical, (LogicalProject, LogicalAggregate)):
            outputs = (
                child_logical.expressions
                if isinstance(child_logical, LogicalProject)
                else child_logical.output
            )
            resolved, all_resolved = _resolve_keys_against_output(plan.keys, outputs)
            if all_resolved:
                child = self._lower(child_logical, required)
                return SortExec(child, resolved)
            if isinstance(child_logical, LogicalProject):
                # Sort below the projection: keys reference pruned inputs.
                inner = self._lower(child_logical.child, required)
                sort = SortExec(inner, plan.keys)
                return ProjectExec(sort, child_logical.expressions)
            raise PlanError(
                "ORDER BY expression not found in aggregate output: "
                + ", ".join(k.expression.sql() for k in plan.keys)
            )
        child = self._lower(child_logical, required)
        return SortExec(child, plan.keys)

    # ------------------------------------------------------------------
    def _referenced_paths(
        self, plan: LogicalPlan, scans: list[LogicalScan]
    ) -> list[tuple[str, str, str, str]]:
        from .expressions import ExtractionCall

        alias_to_scan: dict[str, LogicalScan] = {}
        for scan in scans:
            alias_to_scan[scan.alias or scan.table] = scan
            alias_to_scan.setdefault(scan.table, scan)
        out: list[tuple[str, str, str, str]] = []
        seen: set[tuple[str, str, str, str]] = set()
        for expr in _all_expressions(plan):
            for node in walk(expr):
                if not isinstance(node, ExtractionCall):
                    continue
                if not isinstance(node.column, Column):
                    continue
                column = node.column.name
                if "." in column:
                    prefix, column_name = column.split(".", 1)
                    scan = alias_to_scan.get(prefix)
                else:
                    column_name = column
                    scan = self._scan_with_column(scans, column_name)
                if scan is None:
                    continue
                key = (scan.database, scan.table, column_name, node.path)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out

    def _scan_with_column(
        self, scans: list[LogicalScan], column: str
    ) -> LogicalScan | None:
        for scan in scans:
            info = self.catalog.get_table(scan.database, scan.table)
            if column in info.schema:
                return scan
        return None


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _collect_scans(plan: LogicalPlan) -> list[LogicalScan]:
    if isinstance(plan, LogicalScan):
        return [plan]
    out: list[LogicalScan] = []
    for child in plan.children():
        out.extend(_collect_scans(child))
    return out


def _map_expressions(plan: LogicalPlan, fn) -> None:
    """Apply ``fn`` to every expression of the plan tree, in place."""
    if isinstance(plan, LogicalFilter):
        plan.condition = fn(plan.condition)
    elif isinstance(plan, LogicalProject):
        plan.expressions = [fn(e) for e in plan.expressions]
    elif isinstance(plan, LogicalAggregate):
        plan.group_keys = [fn(e) for e in plan.group_keys]
        plan.output = [fn(e) for e in plan.output]
    elif isinstance(plan, LogicalSort):
        plan.keys = [SortKey(fn(k.expression), k.ascending) for k in plan.keys]
    elif isinstance(plan, LogicalJoin):
        plan.condition = fn(plan.condition)
    for child in plan.children():
        _map_expressions(child, fn)


def _all_expressions(plan: LogicalPlan):
    if isinstance(plan, LogicalFilter):
        yield plan.condition
    elif isinstance(plan, LogicalProject):
        yield from plan.expressions
    elif isinstance(plan, LogicalAggregate):
        yield from plan.group_keys
        yield from plan.output
    elif isinstance(plan, LogicalSort):
        for key in plan.keys:
            yield key.expression
    elif isinstance(plan, LogicalJoin):
        yield plan.condition
    for child in plan.children():
        yield from _all_expressions(child)


def _filtered(child: PhysicalPlan, condition: Expression | None) -> PhysicalPlan:
    """``child`` under a filter on ``condition`` (none for ``None``). Over
    a scan, the SARG-able conjuncts also go to the scan, paired with their
    SARGs; the filter keeps every conjunct (SARGs prune row groups, not
    rows), so correctness never depends on statistics."""
    if condition is None:
        return child
    if isinstance(child, ScanExec):
        child.sargs = conjunct_sargs(condition, _column_of(child))
    return FilterExec(child, condition)


def _side_of(
    conjunct: Expression, left: PhysicalPlan, right: PhysicalPlan
) -> int | None:
    """0 or 1 when ``conjunct`` may move below the join to that side's
    scan: an error-free column-vs-literal form whose every column is
    qualified to that side alone; ``None`` keeps it above the join."""
    sides = [
        index
        for index, scan in enumerate((left, right))
        if isinstance(scan, ScanExec)
        and _to_sarg(conjunct, _column_of(scan, qualified=True)) is not None
    ]
    return sides[0] if len(sides) == 1 else None


def _column_of(scan: ScanExec, qualified: bool = False):
    """The leaf naming for ``scan``: a column as ``name`` or
    ``alias.name`` (only the latter when ``qualified``) -> ``name``."""
    columns, prefix = set(scan.columns), f"{scan.alias}."

    def column_of(expr: Expression) -> str | None:
        if not isinstance(expr, Column):
            return None
        if expr.name in columns and not qualified:
            return expr.name
        if scan.alias and expr.name.startswith(prefix):
            bare = expr.name[len(prefix):]
            return bare if bare in columns else None
        return None

    return column_of


def conjunct_sargs(condition: Expression, column_of) -> tuple:
    """``(conjunct, SARG)`` for each conjunct of ``condition`` that
    compares one column to a literal — the one translator of SARG-able
    conjuncts. ``column_of(expr)`` names the statistics column a leaf
    reads (a scan column, or a cached field's lane) or returns ``None``."""
    pairs = ((c, _to_sarg(c, column_of)) for c in split_conjuncts(condition))
    return tuple((conjunct, sarg) for conjunct, sarg in pairs if sarg is not None)


def _literal(expr: Expression) -> object:
    """A scalar literal's value, else ``None``."""
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float, str)):
        return expr.value
    return None


def _to_sarg(conjunct: Expression, column_of) -> Sarg | None:
    """Translate one conjunct to a SARG if it compares a column to a literal."""
    if isinstance(conjunct, BinaryOp) and conjunct.op in _COMPARE_TO_SARG:
        op = _COMPARE_TO_SARG[conjunct.op]
        column, literal = column_of(conjunct.left), _literal(conjunct.right)
        if column is None:
            column, literal = column_of(conjunct.right), _literal(conjunct.left)
            op = _FLIP[op]
        if column is None or literal is None:
            return None
        return ComparisonSarg(column, op, literal)
    if isinstance(conjunct, Between):
        column = column_of(conjunct.child)
        low, high = _literal(conjunct.low), _literal(conjunct.high)
        if column is None or low is None or high is None:
            return None
        return AndSarg(
            (
                ComparisonSarg(column, SargOp.GE, low),
                ComparisonSarg(column, SargOp.LE, high),
            )
        )
    if isinstance(conjunct, UnaryOp) and conjunct.op in ("is null", "is not null"):
        column = column_of(conjunct.child)
        if column is None:
            return None
        op = SargOp.IS_NULL if conjunct.op == "is null" else SargOp.IS_NOT_NULL
        return ComparisonSarg(column, op)
    return None


def _columns_in(expr: Expression) -> set[str]:
    return {node.name for node in walk(expr) if isinstance(node, Column)}


def _equi_pair(
    conjunct: Expression, left_names: set[str], right_names: set[str]
) -> tuple[Expression, Expression] | None:
    """If the conjunct is ``left_expr = right_expr``, return the pair
    oriented (left-side key, right-side key); otherwise None."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    a_cols = _columns_in(conjunct.left)
    b_cols = _columns_in(conjunct.right)
    if not a_cols or not b_cols:
        return None
    if a_cols <= left_names and b_cols <= right_names:
        return conjunct.left, conjunct.right
    if a_cols <= right_names and b_cols <= left_names:
        return conjunct.right, conjunct.left
    return None


def _resolve_keys_against_output(
    keys: list[SortKey], outputs: list[Expression]
) -> tuple[list[SortKey], bool]:
    """Rewrite sort keys to output-column references where possible."""
    by_sql: dict[str, str] = {}
    names: set[str] = set()
    names_lower: dict[str, list[str]] = {}
    for expr in outputs:
        name = expr.output_name()
        names.add(name)
        names_lower.setdefault(name.lower(), []).append(name)
        target = expr.child if isinstance(expr, Alias) else expr
        by_sql[target.sql()] = name
    resolved: list[SortKey] = []
    ok = True
    for key in keys:
        expr = key.expression
        if isinstance(expr, Column) and expr.name in names:
            resolved.append(key)
            continue
        if isinstance(expr, Column):
            # Case-insensitive fallback, matching the analyzer's
            # identifier resolution (unique matches only).
            candidates = names_lower.get(expr.name.lower(), [])
            if len(candidates) == 1:
                resolved.append(SortKey(Column(candidates[0]), key.ascending))
                continue
        name = by_sql.get(expr.sql())
        if name is not None:
            resolved.append(SortKey(Column(name), key.ascending))
            continue
        if isinstance(expr, AggregateCall):
            ok = False
            break
        ok = False
        break
    return (resolved, ok) if ok else (keys, False)
