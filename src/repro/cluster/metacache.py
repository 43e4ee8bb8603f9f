"""Router-side schema cache with per-shard version-vector invalidation.

Modeled on "Metadata Caching in Presto" (PAPERS.md): the coordinator
keeps what its hot path reads — each routed table's **schema** — in its
own memory, so routing a query never pays a metadata round trip to the
shard once the entry is warm.

Invalidation is by **version vector**, not TTL. Every shard maintains a
small vector — ``{"catalog": N, "generation": M}`` — where the catalog
component bumps on any DDL or data append and the generation component
on every cache-generation swap. Shards piggyback their current vector
on *every* RPC response; the moment the router observes a shard's
vector move, that shard's entries (and only that shard's) are dropped.
A quiet shard therefore serves metadata from the coordinator forever,
while DDL/append/swap invalidates exactly the shard it happened on —
the per-shard analogue of Presto's catalog-versioned cache, and the
property the replay hit-rate gate (≥ 0.9 after warmup) measures.
"""

from __future__ import annotations

import threading

__all__ = ["MetadataCache", "version_equal", "version_advances"]


def version_equal(a, b) -> bool:
    """Vector equality (dicts compare by component)."""
    return a == b


def version_advances(known, candidate) -> bool:
    """True when ``candidate`` moves past ``known``.

    Components (catalog version, cache generation) are monotonic
    counters, so a candidate that is equal — or componentwise behind —
    is an old response arriving late, not news; observing it must not
    roll the shard's vector backwards (a respawned shard starts over,
    but the crash path forgets the shard first, so its fresh vector
    lands on a blank slate)."""
    if candidate == known:
        return False
    return any(
        candidate.get(key, 0) > known.get(key, 0) for key in candidate
    )


class MetadataCache:
    """Versioned ``(shard, table) -> schema payload`` cache; ``table`` is
    the qualified table name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (shard, table) -> {"version": vec, "value": payload}
        self._entries: dict[tuple[int, str], dict] = {}
        #: Last vector observed per shard (from RPC piggybacks).
        self._versions: dict[int, dict] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def observe_version(self, shard: int, version: dict) -> bool:
        """Record a shard's current vector; drop its entries when it
        moved. Returns True when an invalidation happened."""
        with self._lock:
            known = self._versions.get(shard)
            if known is not None and not version_advances(known, version):
                return False
            self._versions[shard] = dict(version)
            if known is None:
                return False
            stale = [k for k in self._entries if k[0] == shard]
            for key in stale:
                del self._entries[key]
            if stale:
                self.invalidations += 1
            return bool(stale)

    def lookup(self, shard: int, table: str, loader):
        """Serve ``(shard, table)`` from cache, or load it.

        ``loader()`` must return ``(payload, version_vector)`` — in the
        cluster it is one shard RPC. A hit requires the entry's vector
        to equal the shard's last-observed vector, so an entry cached
        before an append/DDL/swap can never be served after it.
        """
        with self._lock:
            entry = self._entries.get((shard, table))
            known = self._versions.get(shard)
            if (
                entry is not None
                and known is not None
                and version_equal(entry["version"], known)
            ):
                self.hits += 1
                return entry["value"]
            self.misses += 1
        value, version = loader()
        self.observe_version(shard, version)
        with self._lock:
            # Store against the vector the payload was read at; if the
            # shard moved on *while* we loaded, the next lookup misses
            # again rather than serving possibly-stale metadata.
            self._entries[(shard, table)] = {
                "version": dict(version),
                "value": value,
            }
        return value

    def forget_shard(self, shard: int) -> None:
        """Drop a shard's entries and version (crash/respawn path)."""
        with self._lock:
            for key in [k for k in self._entries if k[0] == shard]:
                del self._entries[key]
            self._versions.pop(shard, None)

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the hit/miss counters (bench warmup boundary); cached
        payloads and versions are kept."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "invalidations": self.invalidations,
                "shards_tracked": len(self._versions),
            }
