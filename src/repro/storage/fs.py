"""A simulated append-only, block-based distributed file system.

Plays HDFS's role in the paper: tables are directories of immutable files,
each file is divided into fixed-size *blocks* (a block never spans files),
and the query engine reads files split-by-split where — as in Maxson's
cacher — one *file* equals one input split so that raw-table files and
cache-table files align by index (paper §IV-C, Fig 7).

All data lives in memory as ``bytes``. The file system tracks every byte
moved through :meth:`BlockFileSystem.read` so the engine can report input
sizes (paper Fig 12b/12d).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["FsError", "TransientFsError", "FileStatus", "BlockFileSystem"]

#: Default simulated block size. The real deployment uses 128-256MB; tests
#: use small files, so a small default keeps block maths observable.
DEFAULT_BLOCK_SIZE = 4 * 1024 * 1024


class FsError(Exception):
    """File system operation failure (missing path, overwrite, etc.)."""


class TransientFsError(FsError):
    """A failure that may succeed on retry (injected or environmental).

    Retry loops key on this type: a plain :class:`FsError` (missing path,
    double create) is permanent and retrying it is pointless, while a
    transient error models the blips a distributed file system shows
    under load — the :mod:`repro.faults` layer injects exactly these.
    """


@dataclass(frozen=True)
class FileStatus:
    """Metadata for one file: path, length, block count, mtime."""

    path: str
    length: int
    block_count: int
    modification_time: float


@dataclass
class _File:
    data: bytes
    modification_time: float


@dataclass
class IoStats:
    """Bytes and operations moved through the file system."""

    bytes_read: int = 0
    bytes_written: int = 0
    reads: int = 0
    writes: int = 0
    seconds_read: float = 0.0

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.reads = 0
        self.writes = 0
        self.seconds_read = 0.0


def _normalise(path: str) -> str:
    path = "/" + path.strip("/")
    if "//" in path:
        raise FsError(f"invalid path {path!r}")
    return path


@dataclass
class BlockFileSystem:
    """An in-memory append-only file system with HDFS-like semantics.

    Files are write-once (append allowed, in-place modification not).
    Directories are implicit but listable. A logical *clock* can be
    injected so the workload simulator controls modification times — cache
    validity in Maxson compares cache time against table modification time,
    so deterministic clocks make those tests exact.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    clock: object = None  # callable () -> float; defaults to time.time
    #: Simulated device latency charged per :meth:`read` call. The sleep
    #: happens *outside* the lock so concurrent readers overlap their
    #: waits — the property morsel-parallel scans exploit.
    read_latency_seconds: float = 0.0
    _files: dict[str, _File] = field(default_factory=dict)
    #: :meth:`list_directory`'s answers by directory prefix; every write
    #: clears it under the lock it holds.
    _listings: dict[str, list[FileStatus]] = field(
        default_factory=dict, repr=False, compare=False
    )
    stats: IoStats = field(default_factory=IoStats)
    # Server mode reads and writes from many threads; the lock keeps
    # directory listings consistent with concurrent creates/deletes and
    # the io counters exact.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock()  # type: ignore[operator]
        return time.time()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def create(self, path: str, data: bytes) -> FileStatus:
        """Create a new file. Fails if the path already exists."""
        path = _normalise(path)
        with self._lock:
            if path in self._files:
                raise FsError(f"file exists: {path}")
            self._files[path] = _File(data=data, modification_time=self._now())
            self._listings.clear()
            self.stats.bytes_written += len(data)
            self.stats.writes += 1
            return self.status(path)

    def append(self, path: str, data: bytes) -> FileStatus:
        """Append to an existing file (the only permitted mutation)."""
        path = _normalise(path)
        with self._lock:
            if path not in self._files:
                raise FsError(f"no such file: {path}")
            existing = self._files[path]
            self._files[path] = _File(
                data=existing.data + data, modification_time=self._now()
            )
            self._listings.clear()
            self.stats.bytes_written += len(data)
            self.stats.writes += 1
            return self.status(path)

    def delete(self, path: str) -> bool:
        """Delete a file, or a directory recursively.

        Idempotent: deleting a path that does not exist returns ``False``
        instead of raising, because retry and crash-recovery paths
        re-issue deletes they may have already completed.
        """
        path = _normalise(path)
        with self._lock:
            self._listings.clear()
            if path in self._files:
                del self._files[path]
                return True
            prefix = path.rstrip("/") + "/"
            doomed = [p for p in self._files if p.startswith(prefix)]
            for p in doomed:
                del self._files[p]
            return bool(doomed)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes (default: to EOF) starting at ``offset``."""
        path = _normalise(path)
        started = time.perf_counter()
        with self._lock:
            if path not in self._files:
                raise FsError(f"no such file: {path}")
            data = self._files[path].data
            if length is None:
                chunk = data[offset:]
            else:
                chunk = data[offset : offset + length]
            self.stats.bytes_read += len(chunk)
            self.stats.reads += 1
        if self.read_latency_seconds > 0.0:
            time.sleep(self.read_latency_seconds)
        with self._lock:
            self.stats.seconds_read += time.perf_counter() - started
        return chunk

    def exists(self, path: str) -> bool:
        path = _normalise(path)
        with self._lock:
            if path in self._files:
                return True
            prefix = path.rstrip("/") + "/"
            return any(p.startswith(prefix) for p in self._files)

    def status(self, path: str) -> FileStatus:
        path = _normalise(path)
        with self._lock:
            if path not in self._files:
                raise FsError(f"no such file: {path}")
            f = self._files[path]
            blocks = max(1, -(-len(f.data) // self.block_size)) if f.data else 0
            return FileStatus(
                path=path,
                length=len(f.data),
                block_count=blocks,
                modification_time=f.modification_time,
            )

    def list_directory(self, path: str) -> list[FileStatus]:
        """Statuses of the files directly inside directory ``path``, sorted.

        Sorted lexicographically by name — the ordering guarantee Maxson's
        cacher relies on so file index *i* of the cache table corresponds
        to file index *i* of the raw table. Kept per directory until the
        next write, so a query's listings do not scan the file system.
        """
        prefix = _normalise(path).rstrip("/") + "/"
        with self._lock:
            listing = self._listings.get(prefix)
            if listing is None:
                names = [
                    p
                    for p in self._files
                    if p.startswith(prefix) and "/" not in p[len(prefix) :]
                ]
                listing = self._listings[prefix] = [self.status(p) for p in sorted(names)]
            return list(listing)

    def directory_mtime(self, path: str) -> float:
        """Latest modification time across a directory's files."""
        statuses = self.list_directory(path)
        if not statuses:
            raise FsError(f"empty or missing directory: {path}")
        return max(s.modification_time for s in statuses)

    def directory_size(self, path: str) -> int:
        """Total bytes across a directory's files (0 if missing)."""
        return sum(s.length for s in self.list_directory(path))

    # ------------------------------------------------------------------
    # splits
    # ------------------------------------------------------------------
    def blocks_of(self, path: str) -> list[tuple[int, int]]:
        """(offset, length) of each block of the file."""
        status = self.status(path)
        out: list[tuple[int, int]] = []
        offset = 0
        while offset < status.length:
            length = min(self.block_size, status.length - offset)
            out.append((offset, length))
            offset += length
        return out

    def file_splits(self, directory: str) -> list[str]:
        """One split per file, in index order (the Maxson alignment rule)."""
        return [s.path for s in self.list_directory(directory)]
