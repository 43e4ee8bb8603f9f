"""One footer decode per distinct file content: safe, and bounded.

``_decode_footer`` is memoised on the footer bytes alone, and so are the
SARG truths kept beside the directory (keyed on ``Sarg.key``). Files are
immutable and the key *is* the content, so there is nothing to
invalidate; what has to hold is that the version byte and the footer CRC
are still checked on every open (before the lookup), that sharing a
directory never mixes up two files' stripes or two literals' truths, and
that neither memo can grow without bound.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from reference_engine import reference_rows
from test_checksums import SCHEMA, build_file, with_version

from repro.engine import Session
from repro.storage import (
    AndSarg,
    BlockFileSystem,
    ComparisonSarg,
    DataType,
    OrcReader,
    OrcWriter,
    SargOp,
    Schema,
    Truth,
)
from repro.storage.orc import (
    TRUTHS_PER_FOOTER,
    CorruptStripeError,
    OrcError,
    OrcFileReader,
    _decode_footer,
)


def file_of(ids: list[int]) -> bytes:
    writer = OrcWriter(SCHEMA, row_group_size=4)
    writer.write_rows((i, f"n{i}") for i in ids)
    return writer.finish()


def flipped(blob: bytes, position: int) -> bytes:
    return blob[:position] + bytes([blob[position] ^ 0xFF]) + blob[position + 1 :]


def test_corrupted_copy_at_the_same_path_is_refused():
    fs = BlockFileSystem()
    blob = build_file()
    fs.create("/t/f.orc", blob)
    healthy = OrcReader(fs, "/t/f.orc")
    assert len(healthy.read_rows()) == 40
    last = healthy._file.stripes[-1]
    for position, error in [
        (last.offset + last.length + 2, OrcError),  # in the footer: refused at open
        (last.offset + 3, CorruptStripeError),  # same footer, so a memo hit: refused at read
    ]:
        fs.delete("/t/f.orc")
        fs.create("/t/f.orc", flipped(blob, position))
        with pytest.raises(error):
            OrcReader(fs, "/t/f.orc").read_rows()
    # The healthy bytes still read: no failure was remembered.
    assert OrcFileReader(blob).read_rows() == healthy.read_rows()


def test_identical_footers_share_a_directory_and_read_their_own_stripes():
    # The same content at two paths is one entry, two readers over their
    # own bytes; other rows carry other chunk CRCs, so another footer.
    first, second = [0, 1, 2, 3, 4, 5, 6, 7], [0, 2, 1, 3, 4, 6, 5, 7]
    blob = file_of(first)
    c, d = OrcFileReader(blob), OrcFileReader(bytes(bytearray(blob)))
    assert c.stripes is d.stripes and c.schema is d.schema
    assert c._data is not d._data
    assert c.read_rows() == d.read_rows() == [(i, f"n{i}") for i in first]
    other = OrcFileReader(file_of(second))
    assert other.stripes is not c.stripes and other.schema == c.schema
    assert other.read_rows() == [(i, f"n{i}") for i in second]


def test_a_v1_and_a_v2_file_with_equal_footer_bytes_do_not_share_an_entry():
    # A forged version byte over a footer already in the memo is refused
    # before the memo is consulted, so neither hits nor misses move.
    blob = OrcWriter(SCHEMA).finish()
    _decode_footer.cache_clear()
    assert OrcFileReader(blob).read_rows() == []
    for version in (1, 2, 3):
        with pytest.raises(OrcError, match=f"unsupported MORC version {version}"):
            OrcFileReader(with_version(blob, version))
    info = _decode_footer.cache_info()
    assert (info.hits, info.misses) == (0, 1)


def test_memo_is_bounded():
    bound = _decode_footer.cache_info().maxsize
    assert bound is not None and bound <= 1024
    for i in range(bound + 20):  # a distinct minimum: a distinct footer
        assert OrcFileReader(file_of([i, 5000])).row_count == 2
    info = _decode_footer.cache_info()
    assert info.currsize <= bound and info.misses >= bound + 20


def test_readers_on_four_threads_return_identical_columns():
    blobs = [file_of(list(range(start, start + 30))) for start in range(0, 180, 30)]
    expected = [OrcFileReader(blob).read_columns() for blob in blobs]
    _decode_footer.cache_clear()  # the threads race to fill it

    def read_all(_):
        return [OrcFileReader(blob).read_columns() for _ in range(25) for blob in blobs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(read_all, n) for n in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected * 25 for result in results)


@pytest.fixture
def truth_calls():
    """The SARGs ``ComparisonSarg.truth`` is asked about from here on."""
    calls, real = [], ComparisonSarg.truth
    with mock.patch.object(
        ComparisonSarg, "truth", lambda self, stats: calls.append(self) or real(self, stats)
    ):
        yield calls


def direct_truths(blob: bytes, sarg) -> tuple:
    return tuple(sarg.truth(rg.column_stats) for rg in OrcFileReader(blob).row_group_layout())


def test_a_second_reader_of_the_same_content_asks_no_truth(truth_calls):
    fs = BlockFileSystem()
    blob = file_of(list(range(16)))
    fs.create("/t/a.orc", blob)
    fs.create("/t/b.orc", blob)
    _decode_footer.cache_clear()
    sarg = AndSarg((ComparisonSarg("id", SargOp.GE, 4), ComparisonSarg("id", SargOp.LT, 12)))
    first = OrcReader(fs, "/t/a.orc", sarg=sarg)
    assert first.row_group_mask == [False, True, True, False] and truth_calls
    truth_calls.clear()
    for path in ("/t/a.orc", "/t/b.orc"):
        again = OrcReader(fs, path, sarg=AndSarg(sarg.children))
        assert again.row_group_mask == first.row_group_mask
        assert again.read().row_groups_proven == 2
    assert truth_calls == []


def test_a_second_execution_of_a_cached_plan_asks_no_truth(truth_calls):
    session = Session(fs=BlockFileSystem())
    session.catalog.create_table("db", "t", SCHEMA)
    for start in (0, 40):
        rows = [(i, f"n{i}") for i in range(start, start + 40)]
        session.catalog.append_rows("db", "t", rows, row_group_size=10)
    sql = "select name from db.t where id >= 25 and id < 60"
    first = session.sql(sql)
    assert first.metrics.row_groups_skipped == 4 and truth_calls
    truth_calls.clear()
    second = session.sql(sql)
    assert truth_calls == []
    assert second.rows == first.rows and len(second.rows) == 35
    assert second.metrics.row_groups_proven == first.metrics.row_groups_proven == 3


def test_equal_literals_of_other_types_keep_their_own_truths():
    # 1 == 1.0 == True, but on statistics [1, 1] only the int literal is
    # YES: a float compares inexactly and a bool is another domain.
    schema = Schema.of(("c", DataType.INT64))
    writer = OrcWriter(schema, row_group_size=4)
    writer.write_rows([(1,)] * 8)
    blob = writer.finish()
    session = Session(fs=BlockFileSystem())
    session.catalog.create_table("db", "t", schema)
    session.catalog.append_rows("db", "t", [(1,)] * 8, row_group_size=4)
    path = session.catalog.table_files("db", "t")[0]
    cases = [(1, Truth.YES), (1.0, Truth.MAYBE), (True, Truth.MAYBE)]  # not a dict: 1 == True
    for order in (cases, cases[::-1]):
        _decode_footer.cache_clear()
        for literal, truth in order:
            sarg = ComparisonSarg("c", SargOp.EQ, literal)
            assert OrcReader(session.fs, path, sarg=sarg).truths(sarg) == (truth,) * 2
            assert direct_truths(blob, sarg) == (truth,) * 2
    for literal in ("1", "1.0", "true"):
        sql = f"select c from db.t where c = {literal}"
        assert session.sql(sql).rows == reference_rows(session, sql), sql


def test_truths_stay_within_their_bound():
    blob = file_of(list(range(0, 4000, 4)))
    _decode_footer.cache_clear()
    reader = OrcFileReader(blob)
    assert TRUTHS_PER_FOOTER <= 1024
    for threshold in range(1000):
        sarg = ComparisonSarg("id", SargOp.LT, threshold * 4)
        assert reader.truths(sarg) == direct_truths(blob, sarg)
        assert len(reader._truths) <= TRUTHS_PER_FOOTER
    assert OrcFileReader(blob)._truths is reader._truths


def test_masks_on_four_threads_are_identical():
    fs = BlockFileSystem()
    for n in range(4):
        fs.create(f"/t/{n}.orc", file_of(list(range(n, 400 + n))))
    sargs = [
        ComparisonSarg("id", op, literal)
        for op in (SargOp.LT, SargOp.GE, SargOp.EQ)
        for literal in (3, 99.5, 201, True, 400)
    ]
    sargs += [AndSarg((a, b)) for a, b in zip(sargs, sargs[1:])]
    paths = sorted(fs.file_splits("/t"))

    def masks(_):
        out = []
        for _ in range(5):
            _decode_footer.cache_clear()  # the threads race to fill both memos
            out += [
                (OrcReader(fs, path, sarg=sarg).row_group_mask, OrcReader(fs, path).truths(sarg))
                for path in paths
                for sarg in sargs
            ]
        return out

    expected = [
        (
            [truth is not Truth.NO for truth in direct_truths(fs.read(path), sarg)],
            direct_truths(fs.read(path), sarg),
        )
        for _ in range(5)
        for path in paths
        for sarg in sargs
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(masks, n) for n in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
