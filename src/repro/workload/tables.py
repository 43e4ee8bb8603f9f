"""The ten experiment tables of the paper's Table II.

Each representative query Q1..Q10 runs against its own table whose JSON
documents match the published characteristics: number of JSONPaths used by
the query, total property count, nesting level, and average JSON size in
bytes. The actual data values are synthetic (the paper does the same:
"we synthetically generate ... data for each table by following the real
data hierarchies and formats").

:class:`DocumentFactory` builds deterministic documents for a spec and
exposes the leaf JSONPaths; :func:`load_tables` materialises the tables
into a catalog.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..engine.catalog import Catalog
from ..jsonlib.jackson import dumps
from ..storage.schema import DataType, Schema

__all__ = ["TableSpec", "TABLE_SPECS", "DocumentFactory", "load_tables"]


@dataclass(frozen=True)
class TableSpec:
    """One row of the paper's Table II."""

    query_id: str
    path_count: int
    property_count: int
    nesting_level: int
    avg_json_bytes: int
    selective: bool = False
    """Whether the query filters on a JSON field (Q2/Q9 per Fig 12)."""

    @property
    def table(self) -> str:
        return f"t_{self.query_id.lower()}"

    @property
    def database(self) -> str:
        return "prod"

    @property
    def json_column(self) -> str:
        return "payload"


#: Table II of the paper, verbatim characteristics.
TABLE_SPECS: list[TableSpec] = [
    TableSpec("Q1", 11, 11, 1, 408),
    TableSpec("Q2", 10, 17, 1, 655, selective=True),
    TableSpec("Q3", 10, 206, 4, 4830),
    TableSpec("Q4", 1, 215, 4, 4736),
    TableSpec("Q5", 12, 26, 3, 582),
    TableSpec("Q6", 29, 107, 5, 2031),
    TableSpec("Q7", 3, 12, 2, 252),
    TableSpec("Q8", 5, 17, 1, 368),
    TableSpec("Q9", 1, 319, 3, 21459, selective=True),
    TableSpec("Q10", 8, 90, 1, 8692),
]


class DocumentFactory:
    """Deterministic JSON documents for one :class:`TableSpec`.

    Structure: properties are distributed over ``nesting_level`` levels —
    level 1 keys sit at the root, deeper levels inside a chain of nested
    objects ``n1``, ``n1.n2``, ... Query paths (the first
    ``spec.path_count`` leaf paths, spread across levels) carry typed
    values usable in predicates and aggregates; the remaining properties
    are string filler sized so the average serialised document hits
    ``spec.avg_json_bytes``.
    """

    def __init__(self, spec: TableSpec, seed: int = 11, metric_scale: int = 1) -> None:
        self.spec = spec
        self.seed = seed
        self.metric_scale = max(1, metric_scale)
        self._layout = self._build_layout()
        self._filler_len = 4
        self._category_pad = 0
        self._calibrate()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _build_layout(self) -> list[tuple[int, str]]:
        """[(level, key)] for every scalar property, level 1-based."""
        spec = self.spec
        levels = max(spec.nesting_level, 1)
        out: list[tuple[int, str]] = []
        for i in range(spec.property_count):
            level = (i % levels) + 1 if levels > 1 else 1
            out.append((level, f"f{i:03d}"))
        return out

    def leaf_paths(self) -> list[str]:
        """All leaf JSONPaths of the document, layout order."""
        paths = []
        for level, key in self._layout:
            prefix = "".join(f".n{d}" for d in range(1, level))
            paths.append(f"${prefix}.{key}")
        return paths

    def query_paths(self) -> list[str]:
        """The ``path_count`` paths the representative query accesses.

        Spread across levels (stride sampling) so deep tables exercise
        deep paths, matching Table II's nesting levels.
        """
        paths = self.leaf_paths()
        count = self.spec.path_count
        if count >= len(paths):
            return paths
        stride = max(1, len(paths) // count)
        picked = [paths[i * stride] for i in range(count)]
        return picked

    def numeric_query_paths(self) -> list[str]:
        """Query paths whose values are integers (usable in predicates)."""
        return self._paths_of_kind(0)

    def category_query_paths(self) -> list[str]:
        """Query paths with low-cardinality string values (join/group keys)."""
        return self._paths_of_kind(1)

    def _paths_of_kind(self, kind: int) -> list[str]:
        query_set = set(self.query_paths())
        out = []
        for position, path in enumerate(self.leaf_paths()):
            if path in query_set and position % 3 == kind:
                out.append(path)
        return out

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def document(self, index: int) -> dict:
        rng = random.Random((self.seed << 32) ^ index)
        query_set = set(self.query_paths())
        root: dict[str, object] = {}
        # Pre-create the nesting chain.
        containers: list[dict] = [root]
        for depth in range(1, self.spec.nesting_level):
            inner: dict[str, object] = {}
            containers[depth - 1][f"n{depth}"] = inner
            containers.append(inner)
        for position, ((level, key), path) in enumerate(
            zip(self._layout, self.leaf_paths())
        ):
            container = containers[level - 1]
            if path in query_set:
                container[key] = self._query_value(position, index, rng)
            else:
                container[key] = self._filler_value(rng)
        return root

    def _query_value(self, position: int, index: int, rng: random.Random):
        kind = position % 3
        if kind == 0:
            # Numeric metric increasing with row index (wrapping at 10k):
            # consecutive rows cluster, so row-group min/max statistics are
            # tight and predicate pushdown can eliminate groups.
            # ``metric_scale`` stretches small tables over the full value
            # range so fixed selectivity thresholds stay meaningful.
            return (index * self.metric_scale + position * 7) % 10_000
        if kind == 1:
            # Low-cardinality category; padded during calibration for
            # tables whose query paths cover every property.
            value = f"c{rng.randint(0, 19):02d}"
            if self._category_pad:
                value += "x" * self._category_pad
            return value
        return rng.randint(0, 999)

    def _filler_value(self, rng: random.Random) -> str:
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        return "".join(rng.choice(alphabet) for _ in range(self._filler_len))

    def _calibrate(self) -> None:
        """Size the filler (or category padding) to hit the target bytes.

        Tables where the query touches every property have no filler
        fields; their category-valued query paths absorb the padding
        instead.
        """
        has_filler = self.spec.property_count > self.spec.path_count

        def measure(length: int) -> int:
            if has_filler:
                self._filler_len = length
            else:
                self._category_pad = length
            return len(dumps(self.document(0)))

        # Each slot holds at least ``length`` bytes: no longer one fits.
        spare = self.spec.property_count - self.spec.path_count
        slots = spare if has_filler else len(self.category_query_paths())
        target = self.spec.avg_json_bytes
        low, high = 0, target // max(1, slots)
        best = 0
        while low <= high:
            mid = (low + high) // 2
            if measure(mid) <= target:
                best = mid
                low = mid + 1
            else:
                high = mid - 1
        measure(best)

    def json(self, index: int) -> str:
        return dumps(self.document(index))

    def average_size(self, sample: int = 20) -> float:
        return sum(len(self.json(i)) for i in range(sample)) / sample


def table_schema() -> Schema:
    """Common schema of the ten tables: (id, date, payload-json)."""
    return Schema.of(
        ("id", DataType.INT64),
        ("date", DataType.STRING),
        ("payload", DataType.STRING),
    )


def load_tables(
    catalog: Catalog,
    rows_per_table: int = 1000,
    days: int = 3,
    specs: list[TableSpec] | None = None,
    row_group_size: int = 100,
    start_date: int = 20190101,
) -> dict[str, DocumentFactory]:
    """Create and populate the Table II tables.

    Rows are split evenly over ``days`` daily partitions (one file per
    day, the production append pattern). Returns the factory per query id
    so callers can recover paths and document shapes.
    """
    factories: dict[str, DocumentFactory] = {}
    metric_scale = max(1, 10_000 // max(rows_per_table, 1))
    for spec in specs if specs is not None else TABLE_SPECS:
        factory = DocumentFactory(spec, metric_scale=metric_scale)
        factories[spec.query_id] = factory
        if not catalog.table_exists(spec.database, spec.table):
            catalog.create_table(spec.database, spec.table, table_schema())
        per_day = max(1, rows_per_table // days)
        index = 0
        for day in range(days):
            date = str(start_date + day)
            rows = []
            for _ in range(per_day):
                rows.append((index, date, factory.json(index)))
                index += 1
            catalog.append_rows(
                spec.database, spec.table, rows, row_group_size=row_group_size
            )
    return factories
