"""The result cache's admission before its victim heap: the test oracle.

:class:`MinScanResultCache` picks each victim by the ``min`` scan over all
entries that the heap replaced (lowest score, first in LRU order among
equals); :func:`walk_estimate_bytes` is the per-value size walk that
``_estimate_bytes`` replaced. Production code never imports this module.
"""

from repro.engine import ResultCache


class MinScanResultCache(ResultCache):
    def _victim_locked(self):
        return min(self._entries.items(), key=lambda item: self._score_of(item[1]))


def walk_estimate_bytes(batch) -> int:
    total = 80 * batch.length
    for name in dict.fromkeys(batch.names):
        for value in batch.columns[name]:
            if value is None:
                total += 8
            elif isinstance(value, (bool, int, float)):
                total += 32
            elif isinstance(value, str):
                total += 56 + len(value)
            else:
                total += 56 + len(repr(value))
    return total
