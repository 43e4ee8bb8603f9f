"""An ORC-like columnar file format.

Mirrors the pieces of Apache ORC the paper relies on (§IV-F):

* a file is split into **stripes** (bounded by a target byte size, 64MB by
  default in real ORC — configurable here);
* each stripe holds columnar chunks for **row groups** of a fixed number of
  rows (10,000 in ORC and in this implementation's default);
* every row group records per-column min/max/null statistics used by
  readers with SARGs to skip row groups entirely;
* the file footer carries the schema and the stripe directory.

Files serialise to ``bytes`` and live in a
:class:`~repro.storage.fs.BlockFileSystem`. Layout::

    magic "MORC"  version u8
    stripe 0 .. stripe N-1           (column chunks, row-group major)
    footer                           (schema, stripe directory + checksums, stats)
    footer_crc32 u32-le  footer_length u32-le  magic "MORC"

Format version 2 adds integrity checksums: every stripe's CRC32 lives in
the footer's stripe directory and the footer itself carries a trailing
CRC32. Readers verify the footer eagerly and each stripe lazily before
its first decode, raising :class:`CorruptStripeError` instead of
decoding garbage — the contract Maxson's graceful-degradation path
(fall back to raw parsing) depends on. Version 1 files (no checksums)
remain readable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from .codec import (
    CodecError,
    checksum_of,
    decode_column,
    encode_column,
    read_varint,
    write_varint,
)
from .sargs import ColumnStats
from .schema import DataType, Field, Schema

__all__ = [
    "OrcError",
    "CorruptStripeError",
    "RowGroupInfo",
    "StripeInfo",
    "OrcWriter",
    "OrcFileReader",
    "DEFAULT_ROW_GROUP_SIZE",
    "DEFAULT_STRIPE_BYTES",
]

MAGIC = b"MORC"
VERSION = 2

#: Rows per row group — ORC's documented default.
DEFAULT_ROW_GROUP_SIZE = 10_000

#: Target stripe payload size before a new stripe is cut. Real ORC uses
#: 64MB; the experiments in this reproduction use far smaller files, so the
#: default keeps most files single-stripe, matching the paper's pushdown
#: precondition ("we only perform this optimisation when a file has only
#: one stripe and that is quite common").
DEFAULT_STRIPE_BYTES = 64 * 1024 * 1024


class OrcError(Exception):
    """Malformed ORC-like file or invalid writer use."""


class CorruptStripeError(OrcError):
    """A stripe's bytes do not match the checksum recorded in the footer.

    Raised *before* any value of the stripe is decoded, so a corrupt
    cache table can never leak wrong JSONPath values into query results.
    """


@dataclass(frozen=True)
class RowGroupInfo:
    """Directory entry for one row group inside a stripe.

    ``chunk_lengths`` holds the encoded byte length of each column chunk
    (schema order) so readers can seek past unwanted chunks instead of
    decoding them — the moral equivalent of ORC's row index streams.
    """

    row_count: int
    column_stats: dict[str, ColumnStats]
    chunk_lengths: tuple[int, ...]


@dataclass(frozen=True)
class StripeInfo:
    """Directory entry for one stripe."""

    offset: int
    length: int
    row_count: int
    row_groups: tuple[RowGroupInfo, ...]
    checksum: int = 0
    """CRC32 of the stripe's bytes (0 in version-1 files: unverified)."""


@dataclass
class _PendingStripe:
    columns: list[list[object]]
    rows: int = 0
    approx_bytes: int = 0


def _approx_row_bytes(row: tuple) -> int:
    total = 8
    for value in row:
        if isinstance(value, str):
            total += len(value) + 4
        else:
            total += 8
    return total


class OrcWriter:
    """Stream rows into an ORC-like byte buffer.

    Usage::

        writer = OrcWriter(schema)
        writer.write_row((1, "a", ...))
        data = writer.finish()

    Rows are tuples in schema order. ``finish`` returns the serialised
    file; the writer cannot be reused afterwards.
    """

    def __init__(
        self,
        schema: Schema,
        row_group_size: int = DEFAULT_ROW_GROUP_SIZE,
        stripe_bytes: int = DEFAULT_STRIPE_BYTES,
    ) -> None:
        if row_group_size <= 0:
            raise OrcError("row_group_size must be positive")
        self.schema = schema
        self.row_group_size = row_group_size
        self.stripe_bytes = stripe_bytes
        self._buffer = bytearray(MAGIC)
        self._buffer.append(VERSION)
        self._stripes: list[StripeInfo] = []
        self._pending = _PendingStripe(columns=[[] for _ in schema.fields])
        self._finished = False

    def write_row(self, row: tuple) -> None:
        """Append one row (tuple in schema order)."""
        if self._finished:
            raise OrcError("writer already finished")
        if len(row) != len(self.schema):
            raise OrcError(
                f"row has {len(row)} values, schema has {len(self.schema)}"
            )
        for column, value, fld in zip(self._pending.columns, row, self.schema.fields):
            fld.validate(value)
            column.append(value)
        self._pending.rows += 1
        self._pending.approx_bytes += _approx_row_bytes(row)
        if self._pending.approx_bytes >= self.stripe_bytes:
            self._flush_stripe()

    def write_rows(self, rows) -> None:
        """Append an iterable of rows."""
        for row in rows:
            self.write_row(row)

    def _flush_stripe(self) -> None:
        if self._pending.rows == 0:
            return
        offset = len(self._buffer)
        row_groups: list[RowGroupInfo] = []
        chunk = bytearray()
        total = self._pending.rows
        for start in range(0, total, self.row_group_size):
            end = min(start + self.row_group_size, total)
            stats: dict[str, ColumnStats] = {}
            lengths: list[int] = []
            for fld, column in zip(self.schema.fields, self._pending.columns):
                values = column[start:end]
                stats[fld.name] = ColumnStats.of(values)
                encoded = encode_column(fld.dtype, values)
                lengths.append(len(encoded))
                chunk.extend(encoded)
            row_groups.append(
                RowGroupInfo(
                    row_count=end - start,
                    column_stats=stats,
                    chunk_lengths=tuple(lengths),
                )
            )
        self._buffer.extend(chunk)
        self._stripes.append(
            StripeInfo(
                offset=offset,
                length=len(chunk),
                row_count=total,
                row_groups=tuple(row_groups),
                checksum=checksum_of(bytes(chunk)),
            )
        )
        self._pending = _PendingStripe(columns=[[] for _ in self.schema.fields])

    def finish(self) -> bytes:
        """Flush, write the footer, and return the file bytes."""
        if self._finished:
            raise OrcError("writer already finished")
        self._flush_stripe()
        self._finished = True
        footer = _encode_footer(self.schema, self._stripes)
        self._buffer.extend(footer)
        self._buffer.extend(struct.pack("<I", checksum_of(footer)))
        self._buffer.extend(struct.pack("<I", len(footer)))
        self._buffer.extend(MAGIC)
        return bytes(self._buffer)


# ----------------------------------------------------------------------
# footer encoding
# ----------------------------------------------------------------------
_DTYPE_CODES = {t: i for i, t in enumerate(DataType)}
_CODE_DTYPES = {i: t for i, t in enumerate(DataType)}


def _encode_stat_value(out: bytearray, value: object) -> None:
    # A single stats value: reuse the column codec on a 1-element column.
    if value is None:
        out.append(0)
        return
    out.append(1)
    dtype = DataType.infer(value)
    out.extend(encode_column(dtype, [value]))


def _decode_stat_value(data: bytes, pos: int) -> tuple[object, int]:
    flag = data[pos]
    pos += 1
    if flag == 0:
        return None, pos
    _, values, pos = decode_column(data, pos)
    return values[0], pos


def _encode_footer(
    schema: Schema, stripes: list[StripeInfo], version: int = VERSION
) -> bytes:
    out = bytearray()
    write_varint(out, len(schema))
    for fld in schema.fields:
        raw = fld.name.encode("utf-8")
        write_varint(out, len(raw))
        out.extend(raw)
        out.append(_DTYPE_CODES[fld.dtype])
    write_varint(out, len(stripes))
    for stripe in stripes:
        write_varint(out, stripe.offset)
        write_varint(out, stripe.length)
        write_varint(out, stripe.row_count)
        if version >= 2:
            write_varint(out, stripe.checksum)
        write_varint(out, len(stripe.row_groups))
        for rg in stripe.row_groups:
            write_varint(out, rg.row_count)
            for length, fld in zip(rg.chunk_lengths, schema.fields):
                write_varint(out, length)
                stats = rg.column_stats[fld.name]
                _encode_stat_value(out, stats.minimum)
                _encode_stat_value(out, stats.maximum)
                write_varint(out, stats.null_count)
                write_varint(out, stats.value_count)
    return bytes(out)


#: What a damaged chunk or footer can make the decoders raise.
_DECODE_ERRORS = (CodecError, UnicodeDecodeError, struct.error, IndexError)


@lru_cache(maxsize=256)
def _decode_footer(
    data: bytes, version: int = VERSION
) -> tuple[Schema, tuple[StripeInfo, ...]]:
    """Decode a footer: a pure function of its bytes and the version.

    Files are immutable and the result is frozen, so it is memoised on
    exactly that key — every reader of the same file content (or of
    another file with an identical footer) shares one decoded directory.
    Nothing here needs invalidating: different bytes are a different key.
    """
    pos = 0
    n_fields, pos = read_varint(data, pos)
    fields: list[Field] = []
    for _ in range(n_fields):
        length, pos = read_varint(data, pos)
        name = data[pos : pos + length].decode("utf-8")
        pos += length
        dtype = _CODE_DTYPES.get(data[pos])
        if dtype is None:
            raise CodecError(f"unknown dtype code {data[pos]}")
        pos += 1
        fields.append(Field(name, dtype))
    schema = Schema(tuple(fields))
    n_stripes, pos = read_varint(data, pos)
    stripes: list[StripeInfo] = []
    for _ in range(n_stripes):
        offset, pos = read_varint(data, pos)
        length, pos = read_varint(data, pos)
        row_count, pos = read_varint(data, pos)
        checksum = 0
        if version >= 2:
            checksum, pos = read_varint(data, pos)
        n_groups, pos = read_varint(data, pos)
        groups: list[RowGroupInfo] = []
        for _ in range(n_groups):
            rg_rows, pos = read_varint(data, pos)
            stats: dict[str, ColumnStats] = {}
            lengths: list[int] = []
            for fld in fields:
                chunk_len, pos = read_varint(data, pos)
                lengths.append(chunk_len)
                minimum, pos = _decode_stat_value(data, pos)
                maximum, pos = _decode_stat_value(data, pos)
                null_count, pos = read_varint(data, pos)
                value_count, pos = read_varint(data, pos)
                stats[fld.name] = ColumnStats(minimum, maximum, null_count, value_count)
            groups.append(
                RowGroupInfo(
                    row_count=rg_rows,
                    column_stats=stats,
                    chunk_lengths=tuple(lengths),
                )
            )
        stripes.append(
            StripeInfo(
                offset=offset,
                length=length,
                row_count=row_count,
                row_groups=tuple(groups),
                checksum=checksum,
            )
        )
    return schema, tuple(stripes)


class OrcFileReader:
    """Random-access reader over serialised ORC-like bytes.

    Opening verifies the footer's checksum and takes the decoded
    directory for those footer bytes (decoded once per distinct content,
    see :func:`_decode_footer`); stripes are verified and decoded lazily,
    a lane at a time. Column pruning (read only some columns) and
    row-group skipping (via a boolean include mask) are both supported —
    they are the levers Maxson's predicate pushdown pulls.
    """

    def __init__(self, data: bytes) -> None:
        if len(data) < len(MAGIC) * 2 + 5 or data[: len(MAGIC)] != MAGIC:
            raise OrcError("not an MORC file (bad magic)")
        if data[-len(MAGIC) :] != MAGIC:
            raise OrcError("truncated MORC file (bad tail magic)")
        self.version = data[len(MAGIC)]
        if self.version not in (1, VERSION):
            raise OrcError(f"unsupported MORC version {self.version}")
        (footer_len,) = struct.unpack_from("<I", data, len(data) - len(MAGIC) - 4)
        # Version 2 stores the footer's own CRC32 just before its length.
        tail_fixed = len(MAGIC) + 4 + (4 if self.version >= 2 else 0)
        footer_start = len(data) - tail_fixed - footer_len
        if footer_start < len(MAGIC) + 1:
            raise OrcError("corrupt footer length")
        footer = data[footer_start : footer_start + footer_len]
        if self.version >= 2:
            (footer_crc,) = struct.unpack_from(
                "<I", data, len(data) - len(MAGIC) - 8
            )
            if checksum_of(footer) != footer_crc:
                raise OrcError("corrupt footer (checksum mismatch)")
        try:
            self.schema, self.stripes = _decode_footer(footer, self.version)
        except _DECODE_ERRORS as exc:
            raise OrcError(f"corrupt footer: {exc}") from exc
        self._data = data
        self._verified_stripes: set[int] = set()

    @property
    def row_count(self) -> int:
        return sum(s.row_count for s in self.stripes)

    @property
    def stripe_count(self) -> int:
        return len(self.stripes)

    def _verify_stripe(self, index: int, stripe: StripeInfo) -> None:
        """Check the stripe's CRC32 before its first decode (version ≥ 2).

        Verification is lazy and cached per stripe: fully skipped stripes
        are never checksummed (their bytes are never interpreted), and a
        verified stripe is not re-hashed on later column reads.
        """
        if self.version < 2 or index in self._verified_stripes:
            return
        span = self._data[stripe.offset : stripe.offset + stripe.length]
        if checksum_of(span) != stripe.checksum:
            raise CorruptStripeError(
                f"stripe {index} checksum mismatch "
                f"(offset={stripe.offset}, length={stripe.length})"
            )
        self._verified_stripes.add(index)

    def row_group_layout(self) -> list[RowGroupInfo]:
        """All row groups of the file in row order (across stripes)."""
        out: list[RowGroupInfo] = []
        for stripe in self.stripes:
            out.extend(stripe.row_groups)
        return out

    def read_columns(
        self,
        names: list[str] | None = None,
        row_group_mask: list[bool] | None = None,
    ) -> tuple[dict[str, list[object]], int]:
        """Decode the requested columns.

        ``names=None`` reads every column. ``row_group_mask`` is indexed
        over :meth:`row_group_layout`; ``False`` entries are *skipped*
        without decoding (their rows simply do not appear in the output).
        Returns ``(columns, bytes_decoded)`` where ``bytes_decoded`` counts
        only the column chunks actually touched — the reader's contribution
        to input-size accounting.
        """
        wanted = names if names is not None else self.schema.names
        for name in wanted:
            self.schema.index_of(name)  # raise early on unknown columns
        columns: dict[str, list[object]] = {name: [] for name in wanted}
        fields = [(f.name, f.name in columns) for f in self.schema.fields]
        data = self._data
        bytes_decoded = 0
        group_index = -1
        for stripe_index, stripe in enumerate(self.stripes):
            pos = stripe.offset
            verified = False
            for rg in stripe.row_groups:
                group_index += 1
                if (
                    row_group_mask is not None
                    and group_index < len(row_group_mask)
                    and not row_group_mask[group_index]
                ):
                    pos += sum(rg.chunk_lengths)  # true seek: skipped chunks cost nothing
                    continue
                for (name, selected), chunk_len in zip(fields, rg.chunk_lengths):
                    if not selected:
                        pos += chunk_len
                        continue
                    if not verified:
                        self._verify_stripe(stripe_index, stripe)
                        verified = True
                    try:
                        _, values, end = decode_column(data, pos, pos + chunk_len)
                    except _DECODE_ERRORS as exc:
                        raise OrcError(
                            f"corrupt chunk for {name!r} in row group {group_index}: {exc}"
                        ) from exc
                    if end - pos != chunk_len:
                        raise OrcError(
                            f"chunk length mismatch for {name!r}: "
                            f"directory says {chunk_len}, decoded {end - pos}"
                        )
                    if columns[name]:
                        columns[name].extend(values)
                    else:  # the usual single row group: no copy
                        columns[name] = values
                    bytes_decoded += chunk_len
                    pos = end
        return columns, bytes_decoded

    def read_rows(
        self,
        names: list[str] | None = None,
        row_group_mask: list[bool] | None = None,
    ) -> list[tuple]:
        """Row-oriented convenience over :meth:`read_columns`."""
        wanted = names if names is not None else self.schema.names
        columns, _ = self.read_columns(wanted, row_group_mask)
        series = [columns[name] for name in wanted]
        return list(zip(*series)) if series else []


