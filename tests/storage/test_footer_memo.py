"""One footer decode per distinct file content: safe, and bounded.

``_decode_footer`` is memoised on ``(footer bytes, version)``. Files are
immutable and the key *is* the content, so there is nothing to
invalidate; what has to hold is that the footer CRC is still checked on
every open (before the lookup), that sharing a directory never mixes up
two files' stripes, and that the memo cannot grow without bound.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from test_checksums import SCHEMA, as_v1, build_file

from repro.storage import BlockFileSystem, OrcReader, OrcWriter
from repro.storage.orc import CorruptStripeError, OrcError, OrcFileReader, _decode_footer


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
    # Version 1 has no stripe CRC, so two files whose rows differ but whose
    # statistics and chunk lengths agree carry the very same footer bytes.
    first, second = [0, 1, 2, 3, 4, 5, 6, 7], [0, 2, 1, 3, 4, 6, 5, 7]
    a, b = OrcFileReader(as_v1(file_of(first))), OrcFileReader(as_v1(file_of(second)))
    assert a.stripes is b.stripes and a.schema is b.schema
    assert a.read_rows() == [(i, f"n{i}") for i in first]
    assert b.read_rows() == [(i, f"n{i}") for i in second]
    # Version 2: the same content at two paths is one entry, two readers.
    blob = file_of(first)
    c, d = OrcFileReader(blob), OrcFileReader(bytes(bytearray(blob)))
    assert c.stripes is d.stripes and c.stripes is not a.stripes
    assert c.read_rows() == d.read_rows() == a.read_rows()


def test_a_v1_and_a_v2_file_with_equal_footer_bytes_do_not_share_an_entry():
    # With no stripes the two versions' footers are byte-identical.
    v2 = OrcWriter(SCHEMA).finish()
    v1 = v2[:4] + b"\x01" + v2[5:-12] + v2[-8:]  # drop the footer CRC
    _decode_footer.cache_clear()
    readers = [OrcFileReader(v2), OrcFileReader(v1)]
    assert [r.version for r in readers] == [2, 1]
    assert [r.read_rows() for r in readers] == [[], []]
    info = _decode_footer.cache_info()
    assert (info.hits, info.misses) == (0, 2)


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
