"""Unit tests for the simulated block file system."""

import pytest

from repro.storage import BlockFileSystem, FsError


class TestCreateReadDelete:
    def test_create_and_read(self, fs: BlockFileSystem):
        fs.create("/a/b.txt", b"hello")
        assert fs.read("/a/b.txt") == b"hello"

    def test_create_existing_fails(self, fs: BlockFileSystem):
        fs.create("/a", b"x")
        with pytest.raises(FsError):
            fs.create("/a", b"y")

    def test_read_missing_fails(self, fs: BlockFileSystem):
        with pytest.raises(FsError):
            fs.read("/nope")

    def test_ranged_read(self, fs: BlockFileSystem):
        fs.create("/f", b"0123456789")
        assert fs.read("/f", offset=2, length=3) == b"234"
        assert fs.read("/f", offset=8) == b"89"

    def test_append_only(self, fs: BlockFileSystem):
        fs.create("/f", b"ab")
        fs.append("/f", b"cd")
        assert fs.read("/f") == b"abcd"

    def test_append_missing_fails(self, fs: BlockFileSystem):
        with pytest.raises(FsError):
            fs.append("/ghost", b"x")

    def test_delete_file(self, fs: BlockFileSystem):
        fs.create("/f", b"x")
        fs.delete("/f")
        assert not fs.exists("/f")

    def test_delete_directory_recursive(self, fs: BlockFileSystem):
        fs.create("/d/a", b"1")
        fs.create("/d/sub/b", b"2")
        fs.delete("/d")
        assert not fs.exists("/d/a")
        assert not fs.exists("/d/sub/b")

    def test_delete_missing_is_idempotent(self, fs: BlockFileSystem):
        # Retry/recovery paths re-issue deletes they may have completed;
        # a missing path reports False instead of raising.
        assert fs.delete("/ghost") is False
        fs.create("/f", b"x")
        assert fs.delete("/f") is True
        assert fs.delete("/f") is False
        fs.create("/d/a", b"1")
        assert fs.delete("/d") is True
        assert fs.delete("/d") is False

    def test_path_normalisation(self, fs: BlockFileSystem):
        fs.create("a/b", b"x")
        assert fs.read("/a/b") == b"x"

    def test_double_slash_rejected(self, fs: BlockFileSystem):
        with pytest.raises(FsError):
            fs.create("/a//b", b"x")


class TestBlocks:
    def test_block_count(self):
        fs = BlockFileSystem(block_size=4)
        fs.create("/f", b"123456789")  # 9 bytes -> 3 blocks of 4
        assert fs.status("/f").block_count == 3
        assert fs.blocks_of("/f") == [(0, 4), (4, 4), (8, 1)]

    def test_empty_file_zero_blocks(self, fs: BlockFileSystem):
        fs.create("/f", b"")
        assert fs.status("/f").block_count == 0
        assert fs.blocks_of("/f") == []


class TestDirectories:
    def test_listing_sorted(self, fs: BlockFileSystem):
        fs.create("/t/part-00002", b"2")
        fs.create("/t/part-00000", b"0")
        fs.create("/t/part-00001", b"1")
        names = [s.path for s in fs.list_directory("/t")]
        assert names == ["/t/part-00000", "/t/part-00001", "/t/part-00002"]

    def test_listing_excludes_nested(self, fs: BlockFileSystem):
        fs.create("/t/a", b"1")
        fs.create("/t/sub/b", b"2")
        assert [s.path for s in fs.list_directory("/t")] == ["/t/a"]

    def test_file_splits_order(self, fs: BlockFileSystem):
        fs.create("/t/b", b"")
        fs.create("/t/a", b"")
        assert fs.file_splits("/t") == ["/t/a", "/t/b"]

    def test_directory_size(self, fs: BlockFileSystem):
        fs.create("/t/a", b"12345")
        fs.create("/t/b", b"1")
        assert fs.directory_size("/t") == 6
        assert fs.directory_size("/missing") == 0

    def test_directory_mtime_is_latest(self):
        ticks = iter(range(100))
        fs = BlockFileSystem(clock=lambda: float(next(ticks)))
        fs.create("/t/a", b"")
        fs.create("/t/b", b"")
        assert fs.directory_mtime("/t") == 1.0

    def test_directory_mtime_missing_raises(self, fs: BlockFileSystem):
        with pytest.raises(FsError):
            fs.directory_mtime("/missing")


class TestClockAndStats:
    def test_injected_clock_controls_mtime(self):
        fs = BlockFileSystem(clock=lambda: 42.0)
        fs.create("/f", b"x")
        assert fs.status("/f").modification_time == 42.0

    def test_append_advances_mtime(self):
        ticks = iter([1.0, 2.0])
        fs = BlockFileSystem(clock=lambda: next(ticks))
        fs.create("/f", b"x")
        fs.append("/f", b"y")
        assert fs.status("/f").modification_time == 2.0

    def test_io_stats(self, fs: BlockFileSystem):
        fs.create("/f", b"12345")
        fs.read("/f")
        fs.read("/f", offset=0, length=2)
        assert fs.stats.bytes_written == 5
        assert fs.stats.bytes_read == 7
        assert fs.stats.reads == 2
        assert fs.stats.writes == 1
        fs.stats.reset()
        assert fs.stats.bytes_read == 0


class TestListingMemo:
    """``list_directory`` keeps its answer per directory; every write
    clears it, so no listing outlives the file system it describes."""

    @staticmethod
    def listed(fs: BlockFileSystem, path: str = "/t") -> list[tuple[str, int]]:
        return [(s.path, s.length) for s in fs.list_directory(path)]

    def test_create_append_and_delete_each_refresh_the_listing(self, fs: BlockFileSystem):
        assert self.listed(fs) == []
        fs.create("/t/a", b"1")
        assert self.listed(fs) == [("/t/a", 1)]
        fs.append("/t/a", b"23")
        assert self.listed(fs) == [("/t/a", 3)]
        fs.create("/t/sub/b", b"4")
        assert self.listed(fs) == [("/t/a", 3)] and self.listed(fs, "/t/sub") == [("/t/sub/b", 1)]
        fs.delete("/t/sub")
        assert self.listed(fs, "/t/sub") == []
        fs.delete("/t/a")
        assert self.listed(fs) == []

    def test_a_torn_append_refreshes_the_listing(self):
        from repro.faults import FaultPolicy, FaultyFileSystem
        from repro.faults.policy import TornWriteError

        fs = FaultyFileSystem()
        fs.create("/t/a", b"1")
        assert self.listed(fs) == [("/t/a", 1)]
        fs.policy = FaultPolicy(torn_append_rate=1.0, error_path_prefix="/")
        with pytest.raises(TornWriteError):
            fs.append("/t/a", b"2345")
        torn = self.listed(fs)
        assert torn[0][0] == "/t/a" and 1 < torn[0][1] < 5
        assert torn == [(s.path, s.length) for s in [fs.status("/t/a")]]

    def test_a_returned_listing_is_the_callers_own(self, fs: BlockFileSystem):
        fs.create("/t/a", b"1")
        fs.list_directory("/t").clear()
        assert self.listed(fs) == [("/t/a", 1)]

    def test_a_process_worker_lists_the_files_it_was_shipped(self):
        from repro.engine import Session
        from repro.engine.procpool import _WorkerEnv, build_snapshot
        from repro.storage import DataType, Schema

        session = Session()
        session.catalog.create_table("db", "t", Schema.of(("id", DataType.INT64)))
        session.catalog.append_rows("db", "t", [(1,)])
        snapshot = build_snapshot(session)
        session.catalog.append_rows("db", "t", [(2,)])
        now = session.catalog.table_files("db", "t")  # a listing kept
        assert len(now) == 2
        env = _WorkerEnv(snapshot)
        assert env.catalog.table_files("db", "t") == now[:1]
