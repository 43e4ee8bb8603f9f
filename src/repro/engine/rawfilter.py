"""Sparser-style raw prefiltering as an engine plan modifier.

Sparser's observation: for highly selective predicates it is cheaper to
probe the *undecoded* JSON bytes than to parse every record. This module
derives conservative raw filters from equality conjuncts of the form
``get_json_object(col, '$.path') = literal`` and installs a prefilter
operator between the scan and the filter, so most records are rejected
before any JSON parsing happens. The exact filter above is preserved, so
false positives of the raw probe are still removed.

This is the ``Spark+Sparser`` configuration used in ablations; it is
independent of (and composable with) Maxson's caching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..jsonlib.jackson import dumps
from ..jsonlib.jsonpath import Member, parse_path
from ..jsonlib.sparser import FilterCascade, KeyValueFilter
from .batch import ColumnBatch
from .expressions import (
    BinaryOp,
    Column,
    Expression,
    GetJsonObject,
    Literal,
    split_conjuncts,
)
from .physical import ExecState, FilterExec, PhysicalPlan, ScanExec, UnaryExec, _rebuilt
from .planner import PlannedQuery

__all__ = ["SparserPrefilterExec", "SparserPlanModifier"]


def _render_literal(value: object) -> str | None:
    """The byte pattern a scalar value starts with in JSON text."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return dumps(value)
    # floats have several textual spellings (1.0 vs 1) -> don't probe
    return None


def derive_cascade(
    condition: Expression, json_columns: set[str]
) -> tuple[str, FilterCascade] | None:
    """Build (column, cascade) from the pushable equality conjuncts."""
    filters = []
    column_name: str | None = None
    for conjunct in split_conjuncts(condition):
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            continue
        call, literal = conjunct.left, conjunct.right
        if not isinstance(call, GetJsonObject):
            call, literal = conjunct.right, conjunct.left
        if not isinstance(call, GetJsonObject) or not isinstance(literal, Literal):
            continue
        if not isinstance(call.column, Column):
            continue
        bare = call.column.name.split(".")[-1]
        if bare not in json_columns:
            continue
        if column_name is not None and column_name != bare:
            continue  # one probed column per scan keeps this simple
        steps = parse_path(call.path).steps
        if not all(isinstance(step, Member) for step in steps):
            continue
        rendered = _render_literal(literal.value)
        if rendered is None:
            continue
        filters.append(KeyValueFilter(steps[-1].name, rendered))
        column_name = bare
    if not filters or column_name is None:
        return None
    return column_name, FilterCascade(filters)


@dataclass
class SparserPrefilterExec(UnaryExec):
    """Drop rows whose raw JSON bytes cannot satisfy the predicate."""

    child: ScanExec
    column: str
    cascade: FilterCascade
    calibration_sample: int = 64

    def _label(self) -> str:
        probes = ", ".join(f.describe() for f in self.cascade.filters)
        return f"SparserPrefilter {self.column} [{probes}]"

    def filtered_by(self, condition: Expression) -> PhysicalPlan:
        # The probed column was the first probe-able one: only its
        # conjuncts made the cascade.
        _, cascade = derive_cascade(condition, {self.column})
        child = self.child.filtered_by(condition)
        return _rebuilt(self, child=child, cascade=cascade)

    def apply(self, state: ExecState, batch: ColumnBatch) -> ColumnBatch:
        """Probe one batch (one split, under a morsel pipeline).

        ``FilterCascade.calibrate`` reorders its filter list and
        ``matches`` mutates stats, so the plan's cascade is a template:
        every batch calibrates its own copy on its own leading sample —
        deterministic because it only depends on the batch's rows.
        """
        cascade = FilterCascade(list(self.cascade.filters))
        started = time.perf_counter()
        if self.column in batch.columns:
            texts = batch.column(self.column)
        else:
            # Rows whose probe column is absent are kept, not probed.
            texts = [None] * batch.length
        sample = [
            text
            for text in texts[: self.calibration_sample]
            if isinstance(text, str)
        ]
        cascade.calibrate(sample)
        keep = [
            i
            for i, text in enumerate(texts)
            if not isinstance(text, str) or cascade.matches(text)
        ]
        extra = state.metrics.extra
        extra["sparser_seconds"] = (
            extra.get("sparser_seconds", 0.0) + time.perf_counter() - started
        )
        extra["sparser_rows_dropped"] = (
            extra.get("sparser_rows_dropped", 0.0) + batch.length - len(keep)
        )
        if len(keep) == batch.length:
            return batch
        return batch.take(keep)


@dataclass
class SparserPlanModifier:
    """Install raw prefilters under filters with probe-able predicates.

    Register on a session with ``session.add_plan_modifier`` — composes
    with Maxson's modifier (run Sparser *after* Maxson so cached scans,
    which no longer carry the JSON column, are naturally skipped).
    """

    json_columns: set[str] = field(default_factory=lambda: {"payload", "doc", "sale_logs"})

    def plan_cache_token(self) -> tuple:
        """Cache-key component: the rewrite is a pure function of the
        plan and the configured probe-able column set."""
        return ("sparser", tuple(sorted(self.json_columns)))

    def modify(self, planned: PlannedQuery, state: ExecState) -> PhysicalPlan:
        plan = planned.physical

        def visit(node: PhysicalPlan) -> PhysicalPlan | None:
            if not isinstance(node, FilterExec):
                return None
            child = node.child
            if type(child) is not ScanExec:
                return None
            derived = derive_cascade(node.condition, self.json_columns)
            if derived is None:
                return None
            column, cascade = derived
            if column not in child.columns:
                return None
            node.child = SparserPrefilterExec(
                child=child, column=column, cascade=cascade
            )
            return None

        return plan.transform_nodes(visit)
