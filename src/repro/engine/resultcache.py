"""Semantic result cache: canonicalize recurring queries, reuse rows.

The paper's trace analysis found 82% of raw-data queries recurring
daily or weekly. The plan cache (:mod:`repro.engine.plancache`) removes
re-planning from those recurrences; this module removes re-*execution*:
the finished rows of a query are stored under a semantic key, and a
recurrence — even one reformatted, recased, re-aliased or with its
predicates reordered — is answered from memory.

Three pieces:

**Canonicalizer.** A rule-based normalizer over the parsed (and
identifier-resolved) statement. It renders the logical plan to a
canonical structural text in which keyword case is gone (everything is
rendered lowercase), table aliases are positional (``t0``, ``t1``…),
output aliases are stripped, commutative predicate chains (AND/OR,
IN lists, ``=``/``!=`` operands) are ordered deterministically, and
literals are replaced by placeholders whose values move into a separate
*parameter vector* — a ``LIMIT`` count too — each literal keeping its
slot there. Semantically equivalent statements therefore share one
canonical text; statements differing only in literal values share the
text (the template: one plan) but not the cache key. The memo holds the
parse it rendered from until the session's planner takes it, so a
statement is parsed once whether it is keyed, planned or both.

**Result store.** Entries hold final result sets as encoded lane frames
(:mod:`repro.engine.frame`: the bytes a shard's reply carries, so a hit
is forwarded as it is and row dicts are built, fresh for every reader,
only when someone reads them). Only an exact recurrence — same canonical
text, same parameters — is answered; the cache replays no operator.
Keys embed the same catalog-version and plan-modifier tokens the plan
cache uses, so DDL, data appends, cache-generation swaps and
circuit-breaker transitions all invalidate by key mismatch.

**Benefit-based admission.** Candidates are scored Maxson-style by
acceleration per byte — (observed execution seconds saved × recurrences
of the same statement, text and parameters) / result bytes — and compete
for space with the plan and document caches under one shared
:class:`~repro.engine.cachebudget.CacheLedger` byte budget: a candidate
is admitted only if it fits the remaining budget or out-scores the
lowest-value resident entries, which are then evicted. The victim order
is a heap of ``(score, recency stamp)`` with lazy deletion: the lowest
score goes first and, among equal scores, the least recently stored or
served entry.
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter
from dataclasses import dataclass

from .batch import ColumnBatch
from .cachebudget import CacheLedger
from .errors import EngineError
from .expressions import (
    AggregateCall,
    Alias,
    Between,
    BinaryOp,
    CastExpr,
    Column,
    Expression,
    ExtractionCall,
    InList,
    Literal,
    UnaryOp,
)
from .frame import encode_frame
from .functions import FunctionCall
from .logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from .planner import _collect_scans, _resolve_keys_against_output
from .sqlparser import Star, parse_sql

__all__ = ["CanonicalStatement", "ResultCache", "canonicalize"]


class _Uncanonical(Exception):
    """Raised internally when a statement cannot be canonicalized."""


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CanonicalStatement:
    """The semantic identity of one parsed statement.

    ``text`` + ``params`` identify the statement (together with the
    session's catalog/modifier tokens) and count its recurrences; ``text``
    alone is the template, under which statements that differ only in
    their literal values share one plan.
    """

    text: str
    params: tuple
    #: Output column names in select-list order, or ``None`` when the
    #: statement is not alias-remappable (``*`` in the select list, or
    #: duplicate output names); non-remappable results are stored and
    #: served verbatim, with the alias pattern folded into ``params``.
    output_names: tuple[str, ...] | None


class _Renderer:
    """Renders expressions to canonical text, optionally binding literals.

    ``params=None`` renders literals inline (used to order commutative
    operands deterministically, literal values included); a list collects
    ``(type_name, value)`` pairs while the rendering emits ``?`` and tags
    the node with its slot. Type names keep ``1``/``1.0``/``True`` distinct
    even though Python hashes them equal.
    """

    def __init__(self, alias_map: dict[str, str], params: list | None) -> None:
        self.alias_map = alias_map
        self.params = params

    def _inline(self) -> "_Renderer":
        return _Renderer(self.alias_map, None)

    def param(self, node, value) -> str:
        """``?`` for ``value``, bound into the next slot, which ``node``
        (a frozen ``Literal`` or a ``LogicalLimit``) keeps."""
        object.__setattr__(node, "slot", len(self.params))
        self.params.append((type(value).__name__, value))
        return "?"

    def expr(self, e: Expression) -> str:
        if isinstance(e, Alias):
            return self.expr(e.child)  # output aliases are not identity
        if isinstance(e, Column):
            return self._column(e)
        if isinstance(e, Literal):
            if self.params is None:
                return f"{type(e.value).__name__}:{e.value!r}"
            return self.param(e, e.value)
        if isinstance(e, Star):
            return "*"
        if isinstance(e, BinaryOp):
            return self._binary(e)
        if isinstance(e, UnaryOp):
            return f"({e.op} {self.expr(e.child)})"
        if isinstance(e, CastExpr):
            return f"cast({self.expr(e.child)} as {e.target})"
        if isinstance(e, InList):
            return self._in_list(e)
        if isinstance(e, Between):
            return (
                f"({self.expr(e.child)} between "
                f"{self.expr(e.low)} and {self.expr(e.high)})"
            )
        if isinstance(e, AggregateCall):
            inner = self.expr(e.argument) if e.argument is not None else "*"
            prefix = "distinct " if e.distinct else ""
            return f"{e.func}({prefix}{inner})"
        if isinstance(e, FunctionCall):
            args = ", ".join(self.expr(a) for a in e.arguments)
            return f"{e.name.lower()}({args})"
        # ExtractionCall subclasses (get_json_object / get_xml_object)
        # carry their path as data; render it verbatim but fold the
        # column reference.
        if isinstance(e, ExtractionCall):
            return f"{e.function_name}({self.expr(e.column)}, '{e.path}')"
        raise _Uncanonical(type(e).__name__)

    def _column(self, e: Column) -> str:
        name = e.name
        if "." in name:
            prefix, rest = name.split(".", 1)
            tag = self.alias_map.get(prefix.lower())
            if tag is not None:
                return f"{tag}.{rest.lower()}"
        return name.lower()

    def _ordered(self, operands: list[Expression]) -> list[Expression]:
        """Order commutative operands by their literal-inclusive inline
        rendering, so reordered predicates bind parameters identically."""
        inline = self._inline()
        return sorted(operands, key=inline.expr)

    def _binary(self, e: BinaryOp) -> str:
        if e.op in ("and", "or"):
            operands = self._ordered(_flatten(e.op, e))
            parts = [self.expr(op) for op in operands]
            return "(" + f" {e.op} ".join(parts) + ")"
        if e.op in ("=", "!="):
            left, right = self._ordered([e.left, e.right])
            return f"({self.expr(left)} {e.op} {self.expr(right)})"
        return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"

    def _in_list(self, e: InList) -> str:
        options = self._ordered(list(e.options))
        inner = ", ".join(self.expr(o) for o in options)
        return f"({self.expr(e.child)} in ({inner}))"


def _flatten(op: str, e: Expression) -> list[Expression]:
    if isinstance(e, BinaryOp) and e.op == op:
        return _flatten(op, e.left) + _flatten(op, e.right)
    return [e]


def _render_plan(node: LogicalPlan, r: _Renderer) -> str:
    """Structural canonical text for a logical plan (not SQL — a
    deterministic, unambiguous encoding keyed on plan shape)."""
    if isinstance(node, LogicalScan):
        prefix = (node.alias or node.table).lower()
        tag = r.alias_map.get(prefix, prefix)
        return f"scan({node.database.lower()}.{node.table.lower()}@{tag})"
    if isinstance(node, LogicalJoin):
        left = _render_plan(node.left, r)
        right = _render_plan(node.right, r)
        return f"join({left},{right},on={r.expr(node.condition)})"
    if isinstance(node, LogicalFilter):
        return f"filter({_render_plan(node.child, r)},{r.expr(node.condition)})"
    if isinstance(node, LogicalProject):
        cols = ",".join(r.expr(e) for e in node.expressions)
        return f"project({_render_plan(node.child, r)},[{cols}])"
    if isinstance(node, LogicalAggregate):
        keys = ",".join(r.expr(e) for e in node.group_keys)
        outs = ",".join(r.expr(e) for e in node.output)
        return f"agg({_render_plan(node.child, r)},keys=[{keys}],out=[{outs}])"
    if isinstance(node, LogicalSort):
        keys = ",".join(
            f"{r.expr(k.expression)} {'asc' if k.ascending else 'desc'}"
            for k in node.keys
        )
        return f"sort({_render_plan(node.child, r)},[{keys}])"
    if isinstance(node, LogicalLimit):
        return f"limit({_render_plan(node.child, r)},{r.param(node, node.count)})"
    raise _Uncanonical(type(node).__name__)


def _select_items(plan: LogicalPlan) -> list[Expression] | None:
    """The select list of the outermost projecting node, if reachable."""
    node = plan
    while isinstance(node, (LogicalLimit, LogicalSort, LogicalFilter)):
        node = node.child  # type: ignore[assignment]
    if isinstance(node, LogicalProject):
        return node.expressions
    if isinstance(node, LogicalAggregate):
        return node.output
    return None


def canonicalize(sql: str, planner) -> CanonicalStatement | None:
    """Canonicalize one statement, or ``None`` when it cannot be (a
    statement that does not parse included)."""
    try:
        logical = parse_sql(sql)
    except EngineError:
        return None
    return _canonical_of(logical, planner)


def _canonical_of(logical: LogicalPlan, planner) -> CanonicalStatement | None:
    """The canonical form of a parsed statement, or ``None``.

    ``planner`` supplies the identifier-case resolution pass (the same
    analyzer step real planning runs first, applied here in place), so
    canonical output names match the names execution will actually
    produce. Analysis failures return ``None`` — the caller falls through
    to the normal path, which raises the real error.
    """
    scans = _collect_scans(logical)
    if not scans:
        return None
    if any(
        scan.database and scan.database.lower() == "system" for scan in scans
    ):
        # Telemetry tables mutate on every query without bumping the
        # catalog version (by design — see repro.obs.systables), so the
        # version-keyed invalidation the result cache relies on cannot
        # see their appends. Queries over them are never canonicalized,
        # hence never served from or admitted to the result cache.
        return None
    try:
        planner._resolve_identifier_case(logical, scans)
    except EngineError:
        return None
    alias_map: dict[str, str] = {}
    for index, scan in enumerate(scans):
        prefix = (scan.alias or scan.table).lower()
        if prefix in alias_map:
            return None  # ambiguous prefixes: leave the statement alone
        alias_map[prefix] = f"t{index}"
    params: list = []
    renderer = _Renderer(alias_map, params)
    try:
        return _canonical_from(logical, renderer, params)
    except _Uncanonical:
        return None


def _canonical_from(
    logical: LogicalPlan, renderer: _Renderer, params: list
) -> CanonicalStatement:
    items = _select_items(logical)
    if items is None:
        raise _Uncanonical("no select list")
    names = tuple(e.output_name() for e in items if not isinstance(e, Star))
    remappable = (
        len(names) == len(items) and len(set(names)) == len(names)
    )
    text = _positional_sort(logical, names, renderer) if remappable else None
    if text is None:
        text = _render_plan(logical, renderer)
    out_params: tuple = tuple(params)
    output_names: tuple[str, ...] | None = names if remappable else None
    if not remappable:
        # Alias patterns are identity for verbatim-served statements:
        # the stored rows carry the producing statement's names.
        markers = tuple(
            "*" if isinstance(e, Star) else e.output_name() for e in items
        )
        out_params = out_params + ("__names__",) + markers
    return CanonicalStatement(
        text=text, params=out_params, output_names=output_names
    )


def _positional_sort(
    logical: LogicalPlan, names: tuple[str, ...], r: _Renderer
) -> str | None:
    """Canonical text of an ``ORDER BY`` (under an optional ``LIMIT``)
    over the projection of one, possibly filtered, scan whose sort keys
    are output columns, each key rendered by its select-list position:
    sorting by an output column is the same statement whatever that
    column was aliased to. ``None`` (and nothing bound into the
    renderer's parameters) for any other statement."""
    node = logical.child if isinstance(logical, LogicalLimit) else logical
    if not isinstance(node, LogicalSort):
        return None
    project = node.child
    if not isinstance(project, LogicalProject) or not (
        isinstance(project.child, LogicalScan)
        or (
            isinstance(project.child, LogicalFilter)
            and isinstance(project.child.child, LogicalScan)
        )
    ):
        return None
    positions = {name: i for i, name in enumerate(names)}
    resolved, ok = _resolve_keys_against_output(node.keys, project.expressions)
    if not ok or not all(
        isinstance(k.expression, Column) and k.expression.name in positions
        for k in resolved
    ):
        return None  # the sort runs below the projection
    keys = ",".join(
        f"#{positions[k.expression.name]} {'asc' if k.ascending else 'desc'}"
        for k in resolved
    )
    text = f"sort({_render_plan(project, r)},[{keys}])"
    if isinstance(logical, LogicalLimit):
        text = f"limit({text},{r.param(logical, logical.count)})"
    return text


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
_NONE = type(None)


def _estimate_bytes(batch: ColumnBatch) -> int:
    """Cheap deterministic size estimate of a result set, counted per value
    type: 80 a row, 8 a ``None``, 32 a number, 56 plus the length of a
    string (of its ``repr`` for anything else). Accuracy matters less than
    monotonicity: bigger results must cost more budget."""
    total = 80 * batch.length
    for name in dict.fromkeys(batch.names):
        values = batch.columns[name]
        kinds = Counter(map(type, values))
        for kind, n in kinds.items():
            if kind is _NONE or issubclass(kind, (int, float)):  # bool is int
                total += (8 if kind is _NONE else 32) * n
                continue
            same = values
            if len(kinds) > 1:
                same = [v for v in values if type(v) is kind]
            sized = same if issubclass(kind, str) else map(repr, same)
            total += 56 * n + sum(map(len, sized))
    return total


def _identity(canonical: CanonicalStatement) -> tuple:
    """What recurs: the canonical text *and* its parameters. Counted per
    template, a literal's variants would inherit the template's count."""
    return canonical.text, canonical.params


@dataclass
class _Entry:
    statement: tuple  # its _identity
    nbytes: int
    cost_seconds: float
    referenced_paths: tuple
    plan: object
    #: The stored result: the producing statement's output names, its row
    #: count and its lane frame (:func:`repro.engine.frame.encode_frame`).
    names: tuple
    count: int
    frame: bytes
    #: Its live victim-heap item: current score, stamp of last store/serve.
    score: float = 0.0
    stamp: int = 0


_COUNTERS = ("hits", "misses", "admissions", "rejections", "evictions", "invalidations")
_MEMO_CAPACITY = 512
_RECURRENCE_CAPACITY = 4096


class ResultCache:
    """Thread-safe semantic result store under a shared byte ledger."""

    def __init__(
        self,
        ledger: CacheLedger | None = None,
        capacity: int = 256,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"result cache capacity must be >= 0, got {capacity}")
        self.ledger = ledger if ledger is not None else CacheLedger()
        self.capacity = capacity
        self._counts = dict.fromkeys(_COUNTERS, 0)
        #: key -> entry, least recently stored or served first.
        self._entries: dict[tuple, _Entry] = {}
        #: ``(score, stamp, key)`` heap: an item matching its entry's score
        #: and stamp is live, the rest are dropped when they surface.
        self._victims: list[tuple] = []
        self._stamp = 0
        #: statement identity -> keys of the resident entries carrying it.
        self._by_statement: dict[tuple, set] = {}
        #: statement identity -> times seen (the recurrence estimate).
        self._recurrence: dict[tuple, int] = {}
        #: (exact statement text, catalog version) -> [its canonical
        #: statement or None, its parse until the planner takes it (a
        #: LogicalPlan or the parse error), then None].
        self._memo: dict[tuple, list] = {}
        self._lock = threading.RLock()

    # -- canonicalization (one parse per statement and catalog version) --
    def canonicalize(
        self, sql: str, planner, catalog_version: int
    ) -> CanonicalStatement | None:
        memo_key = (sql, catalog_version)
        with self._lock:
            held = self._memo.pop(memo_key, None)
            if held is not None:
                self._memo[memo_key] = held  # LRU touch
                return held[0]
        try:
            logical = parse_sql(sql)
            held = [_canonical_of(logical, planner), logical]
        except EngineError as error:
            held = [None, error]
        with self._lock:
            while len(self._memo) >= _MEMO_CAPACITY:
                self._memo.pop(next(iter(self._memo)))
            self._memo[memo_key] = held
        return held[0]

    def take_parse(self, sql: str, catalog_version: int) -> tuple | None:
        """``(logical plan, identifiers resolved)`` of the parse
        :meth:`canonicalize` made, handed over once (the planner consumes
        it), or ``None``; a held parse error is raised instead."""
        with self._lock:
            held = self._memo.get((sql, catalog_version))
            parse = None if held is None else held[1]
            if parse is not None:
                held[1] = None
        if isinstance(parse, EngineError):
            raise parse
        return None if parse is None else (parse, held[0] is not None)

    def note_recurrence(self, canonical: CanonicalStatement) -> int:
        """Record one observation of a statement; returns the updated
        recurrence count (the admission-time benefit multiplier)."""
        statement = _identity(canonical)
        with self._lock:
            count = self._recurrence.pop(statement, 0) + 1
            while len(self._recurrence) >= _RECURRENCE_CAPACITY:
                dropped = next(iter(self._recurrence))
                del self._recurrence[dropped]  # its count falls back to 1
                self._rescore_locked(dropped)
            self._recurrence[statement] = count
            self._rescore_locked(statement)
            return count

    # -- lookup ---------------------------------------------------------
    def fetch(self, key: tuple) -> _Entry | None:
        """The entry stored under ``key``, or ``None``. The caller serves
        ``entry.frame`` under its *own* output names, so a recurrence that
        only renamed its aliases still reads correctly labelled columns."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                self._counts["misses"] += 1
                return None
            self._store_locked(key, entry)  # LRU touch
            self._counts["hits"] += 1
            return entry

    def peek(self, key: tuple) -> bool:
        """Counter-free presence check (traced queries record the
        decision without consuming or skewing hit statistics)."""
        with self._lock:
            return key in self._entries

    # -- admission ------------------------------------------------------
    def admit(
        self,
        key: tuple,
        canonical: CanonicalStatement,
        batch: ColumnBatch,
        cost_seconds: float,
        referenced_paths=(),
        plan: object = None,
    ) -> bool:
        """Benefit-scored admission of an executed batch; True when the
        entry — its lane frame, encoded here at most once — was stored."""
        names = canonical.output_names
        # Output names drifted from the executed columns (defensive:
        # should not happen post identifier resolution).
        drifted = names is not None and batch.names != names
        nbytes = None if self.capacity == 0 or drifted else _estimate_bytes(batch)
        with self._lock:
            admitted = nbytes is not None and self._make_room_locked(
                key, _identity(canonical), cost_seconds, nbytes
            )
            if admitted:
                entry = _Entry(
                    statement=_identity(canonical),
                    nbytes=nbytes,
                    cost_seconds=cost_seconds,
                    referenced_paths=tuple(referenced_paths),
                    plan=plan,
                    names=batch.names,
                    count=batch.length,
                    frame=encode_frame(batch),
                )
                self._store_locked(key, entry)
                self.ledger.charge("result", nbytes)
            self._counts["admissions" if admitted else "rejections"] += 1
            return admitted

    def _make_room_locked(self, key: tuple, stmt: tuple, cost: float, nbytes) -> bool:
        """Evict lower-scored entries until ``nbytes`` fit; False when they
        cannot (a resident entry scores at least as high, or the other
        tiers own the budget)."""
        score = _score(cost, self._recurrence.get(stmt, 1), nbytes)
        budget = self.ledger.budget
        if budget is not None and nbytes > budget:
            return False
        if key in self._entries:
            self._evict_locked(key, count=False)
        while self._entries and (
            len(self._entries) >= self.capacity or self.ledger.over_budget(nbytes)
        ):
            victim_key, victim = self._victim_locked()
            if self._score_of(victim) >= score:
                return False
            self._evict_locked(victim_key)
        return not self.ledger.over_budget(nbytes)

    def _score_of(self, entry: _Entry) -> float:
        recurrence = self._recurrence.get(entry.statement, 1)
        return _score(entry.cost_seconds, recurrence, entry.nbytes)

    def _store_locked(self, key: tuple, entry: _Entry) -> None:
        """(Re)insert ``entry`` as the most recent and push its heap item."""
        self._stamp += 1
        entry.stamp = self._stamp
        self._entries[key] = entry
        self._by_statement.setdefault(entry.statement, set()).add(key)
        self._push_locked(key, entry)

    def _push_locked(self, key: tuple, entry: _Entry) -> None:
        entry.score = self._score_of(entry)
        heapq.heappush(self._victims, (entry.score, entry.stamp, key))
        if len(self._victims) > 2 * len(self._entries) + 64:
            self._victims = [(e.score, e.stamp, k) for k, e in self._entries.items()]
            heapq.heapify(self._victims)

    def _rescore_locked(self, statement: tuple) -> None:
        for key in self._by_statement.get(statement, ()):
            self._push_locked(key, self._entries[key])

    def _victim_locked(self) -> tuple[tuple, _Entry]:
        """The lowest-scored entry, the least recent among equals (the
        heap's top once stale items are dropped; entries must be
        non-empty)."""
        victims = self._victims
        while True:
            score, stamp, key = victims[0]
            entry = self._entries.get(key)
            if entry is not None and (entry.stamp, entry.score) == (stamp, score):
                return key, entry
            heapq.heappop(victims)

    def _evict_locked(self, key: tuple, count: bool = True) -> None:
        entry = self._entries.pop(key)
        keys = self._by_statement[entry.statement]
        keys.discard(key)
        if not keys:
            del self._by_statement[entry.statement]
        self.ledger.release("result", entry.nbytes)
        if count:
            self._counts["evictions"] += 1

    # -- maintenance ----------------------------------------------------
    def shrink_to_bytes(self, target_bytes: int) -> int:
        """Evict lowest-benefit entries until the tier fits ``target_bytes``.

        Returns bytes released. The server's memory-pressure watchdog
        calls this before shedding queries; victim order matches
        admission's, so the cheapest-to-recompute results go first.
        """
        released = 0
        with self._lock:
            used = sum(e.nbytes for e in self._entries.values())
            while self._entries and used > target_bytes:
                victim_key, victim = self._victim_locked()
                self._evict_locked(victim_key)
                used -= victim.nbytes
                released += victim.nbytes
        return released

    def clear(self) -> None:
        """Drop everything (generation swaps, modifier changes)."""
        with self._lock:
            self._counts["invalidations"] += len(self._entries)
            self.ledger.release(
                "result", sum(e.nbytes for e in self._entries.values())
            )
            self._entries.clear()
            self._victims.clear()
            self._by_statement.clear()
            self._memo.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "bytes": sum(e.nbytes for e in self._entries.values()),
                **self._counts,
            }


def _score(cost_seconds: float, recurrence: int, nbytes: int) -> float:
    """Benefit density: seconds saved × expected recurrences per byte —
    the result-set analogue of Maxson's acceleration-per-byte scoring."""
    return (max(cost_seconds, 0.0) * max(recurrence, 1)) / max(nbytes, 1)
