"""Predicate pushdown onto cache tables (paper §IV-F, Algorithm 3).

Because cached JSONPath values live in their own typed ORC columns, a
query predicate over a cached path can be evaluated against the cache
table's row-group min/max statistics. This module translates the
SARG-able conjuncts of a filter condition that reference
:class:`~repro.engine.expressions.CachedField` placeholders into a
:class:`~repro.storage.sargs.Sarg` over the cache table's *field names*.

The mask computed from that SARG is shared with the primary reader inside
:class:`~repro.core.combiner.MaxsonScanExec` (Algorithm 3 line 7), so both
the cache file and the raw file skip the same row groups; a conjunct whose
SARG the cache file's statistics prove for a split is not evaluated there.
"""

from __future__ import annotations

from ..engine.expressions import CachedField, Expression
from ..engine.planner import conjunct_sargs
from ..storage.sargs import Sarg, conjunction
from .combiner import CachedFieldRequest

__all__ = ["cache_sarg_pairs", "extract_cache_sarg"]


def cache_sarg_pairs(
    condition: Expression, cached_fields: list[CachedFieldRequest]
) -> tuple:
    """``(conjunct, SARG over cache-table columns)`` for each pushable
    conjunct of ``condition`` — the planner's translator, with a leaf
    named by the lane of the cached field it reads."""
    lanes = {r.env_key: r.entry.field_name for r in cached_fields}

    def column_of(expr: Expression) -> str | None:
        return lanes.get(expr.env_key) if isinstance(expr, CachedField) else None

    return conjunct_sargs(condition, column_of)


def extract_cache_sarg(
    condition: Expression, cached_fields: list[CachedFieldRequest]
) -> Sarg | None:
    """SARG over cache-table columns for the pushable conjuncts of
    ``condition``; ``None`` when nothing is pushable."""
    return conjunction(s for _, s in cache_sarg_pairs(condition, cached_fields))
