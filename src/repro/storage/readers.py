"""SARG-aware table readers over the ORC-like format.

:class:`OrcReader` connects the pieces: it loads a file from the
:class:`~repro.storage.fs.BlockFileSystem`, evaluates an optional SARG
against every row group's statistics to build a skip mask (the ``NO``
groups), and decodes only the surviving groups for the requested columns;
:meth:`OrcReader.proves` asks whether a SARG holds on every row it reads.

The skip mask is exposed (:attr:`OrcReader.row_group_mask`) because
Maxson's predicate pushdown (paper Algorithm 3) shares the mask computed on
the *cache* table with the *primary* reader of the raw table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fs import BlockFileSystem, FsError
from .orc import OrcError, OrcFileReader
from .sargs import Sarg, Truth

__all__ = ["ReadResult", "OrcReader", "NdjsonReader", "split_reader"]


@dataclass
class ReadResult:
    """Outcome of one split read."""

    columns: dict[str, list[object]]
    rows_read: int
    row_groups_total: int
    row_groups_read: int
    bytes_read: int
    row_groups_proven: int = 0
    """Read groups whose statistics prove the reader's whole SARG."""

    @property
    def row_groups_skipped(self) -> int:
        return self.row_groups_total - self.row_groups_read


class OrcReader:
    """Read one ORC-like file (one *split* in Maxson's alignment scheme).

    Parameters
    ----------
    fs:
        The file system holding the file.
    path:
        File path inside ``fs``.
    columns:
        Column names to decode; ``None`` means all.
    sarg:
        Optional search argument evaluated against row-group statistics.
    """

    def __init__(
        self,
        fs: BlockFileSystem,
        path: str,
        columns: list[str] | None = None,
        sarg: Sarg | None = None,
    ) -> None:
        self.fs = fs
        self.path = path
        self.columns = columns
        self.sarg = sarg
        self._file = OrcFileReader(fs.read(path))
        self._shared_mask: list[bool] | None = None

    @property
    def sarg(self) -> Sarg | None:
        return self._sarg

    @sarg.setter
    def sarg(self, sarg: Sarg | None) -> None:
        """Set before the first read; the mask follows the new SARG."""
        self._sarg, self._mask = sarg, None

    @property
    def schema(self):
        return self._file.schema

    @property
    def row_count(self) -> int:
        return self._file.row_count

    @property
    def stripe_count(self) -> int:
        return self._file.stripe_count

    # ------------------------------------------------------------------
    # row-group elimination
    # ------------------------------------------------------------------
    @property
    def row_group_mask(self) -> list[bool]:
        """Per-row-group include mask (True = must read).

        Combines the local SARG mask with any shared mask installed by
        :meth:`share_row_group_mask`. Computed lazily and cached.
        """
        if self._mask is None:
            if self.sarg is None:
                mask = [True] * len(self._file.row_group_layout())
            else:
                mask = [truth is not Truth.NO for truth in self.truths(self.sarg)]
            if self._shared_mask is not None:
                if len(self._shared_mask) != len(mask):
                    raise OrcError(
                        "shared row-group mask length mismatch: "
                        f"{len(self._shared_mask)} vs {len(mask)} groups"
                    )
                mask = [a and b for a, b in zip(mask, self._shared_mask)]
            self._mask = mask
        return self._mask

    def share_row_group_mask(self, mask: list[bool]) -> None:
        """Install a mask computed by another reader (Algorithm 3, line 7).

        Only legal before the first read. Alignment requires identical
        row-group layouts, which Maxson guarantees for single-stripe files
        parsed file-for-file from the raw table.
        """
        self._shared_mask = list(mask)
        self._mask = None  # recompute on next access

    def can_align_row_groups(self) -> bool:
        """Pushdown sharing precondition: the file has exactly one stripe."""
        return self.stripe_count == 1

    def truths(self, sarg: Sarg) -> tuple[Truth, ...]:
        """``sarg``'s truth per row group, shared by every reader of the
        file's footer (:meth:`OrcFileReader.truths`)."""
        return self._file.truths(sarg)

    def proves(self, sarg: Sarg) -> bool:
        """True when the statistics prove ``sarg`` for every row group
        this reader reads — its conjunct need not be evaluated."""
        return all(
            truth is Truth.YES
            for truth, keep in zip(self.truths(sarg), self.row_group_mask)
            if keep
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def read(self) -> ReadResult:
        """Decode the requested columns of all non-skipped row groups;
        the row count comes from the row-group directory, so a read of no
        column still counts its rows."""
        mask = self.row_group_mask
        truths = self.truths(self.sarg) if self.sarg is not None else ()
        columns, bytes_read = self._file.read_columns(self.columns, mask)
        layout = self._file.row_group_layout()
        rows = sum(rg.row_count for rg, keep in zip(layout, mask) if keep)
        if any(len(values) != rows for values in columns.values()):
            raise OrcError(f"a decoded lane disagrees with the directory's {rows} rows")
        return ReadResult(
            columns=columns,
            rows_read=rows,
            row_groups_total=len(mask),
            row_groups_read=sum(mask),
            bytes_read=bytes_read,
            row_groups_proven=sum(
                truth is Truth.YES and keep
                for truth, keep in zip(truths, mask)
            ),
        )

    def read_rows(self) -> list[tuple]:
        """Row-major convenience; column order follows the request order."""
        result = self.read()
        wanted = self.columns if self.columns is not None else self.schema.names
        series = [result.columns[name] for name in wanted]
        return list(zip(*series)) if series else []


class NdjsonReader:
    """Read one NDJSON segment file with the :class:`OrcReader` surface.

    Telemetry segments (``system.*`` tables) are newline-delimited JSON
    appended while the engine runs, so this reader is deliberately
    forgiving where the ORC reader is strict:

    * A missing file yields zero rows — segment rotation can delete a
      file between split listing and split read.
    * A torn tail (crash mid-append) or any unparseable line is skipped
      and counted, never raised — the registered system tables must stay
      queryable after a crash.
    * SARGs are accepted but not used for skipping (the residual filter
      above the scan preserves correctness); the whole file is one row
      group, so the pushdown-sharing protocol degrades to no-ops.

    Requested columns are promoted from each document's top-level keys;
    a missing key reads as NULL, nested values are re-encoded as JSON
    text (so ``get_json_object`` works on them), and the virtual
    ``payload`` column carries the whole document as JSON text.
    """

    def __init__(
        self,
        fs: BlockFileSystem,
        path: str,
        columns: list[str] | None = None,
        sarg: Sarg | None = None,
    ) -> None:
        self.fs = fs
        self.path = path
        self.columns = columns
        self.sarg = sarg
        self.lines_skipped = 0
        try:
            data = fs.read(path)
        except FsError:
            data = b""
        self._bytes_read = len(data)
        self._docs: list[dict] = []
        for line in data.split(b"\n"):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except (ValueError, UnicodeDecodeError):
                self.lines_skipped += 1
                continue
            if not isinstance(doc, dict):
                self.lines_skipped += 1
                continue
            self._docs.append(doc)

    @property
    def row_count(self) -> int:
        return len(self._docs)

    @property
    def stripe_count(self) -> int:
        return 1

    @property
    def row_group_mask(self) -> list[bool]:
        return [True]

    def share_row_group_mask(self, mask: list[bool]) -> None:
        """Accepted and ignored — there are no group stats to combine."""

    def can_align_row_groups(self) -> bool:
        return False

    def proves(self, sarg: Sarg) -> bool:
        """Never: there are no statistics to prove anything with."""
        return False

    @staticmethod
    def _cell(doc: dict, name: str) -> object:
        if name == "payload":
            return json.dumps(doc, sort_keys=True, default=str)
        value = doc.get(name)
        if isinstance(value, (dict, list)):
            return json.dumps(value, sort_keys=True, default=str)
        return value

    def read(self) -> ReadResult:
        if self.columns is not None:
            wanted = list(self.columns)
        else:
            seen: dict[str, None] = {}
            for doc in self._docs:
                for key in doc:
                    seen.setdefault(key, None)
            wanted = list(seen)
        columns = {
            name: [self._cell(doc, name) for doc in self._docs]
            for name in wanted
        }
        return ReadResult(
            columns=columns,
            rows_read=len(self._docs),
            row_groups_total=1,
            row_groups_read=1,
            bytes_read=self._bytes_read,
        )


def split_reader(
    fs: BlockFileSystem,
    path: str,
    columns: list[str] | None = None,
    sarg: Sarg | None = None,
):
    """Reader factory dispatching on the split's storage format.

    Telemetry segments are ``.ndjson``; everything else in the warehouse
    is the ORC-like format. Scan operators go through this factory so
    system tables flow through the identical execution path as raw
    tables (prefilter, batch engine, morsels, cache builds)."""
    if path.endswith(".ndjson"):
        return NdjsonReader(fs, path, columns=columns, sarg=sarg)
    return OrcReader(fs, path, columns=columns, sarg=sarg)
