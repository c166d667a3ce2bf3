"""Thread-safe LRU cache.

The retweeter predictor keeps its per-cascade contexts (root-tweet block,
tweet and news embeddings) in one, keyed by cascade id.  A plain
``OrderedDict`` with a lock is sufficient: entries are small ndarrays and
the hot path is a single dict lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    maxsize:
        Entry cap; inserting beyond it evicts the least recently used key.
        ``0`` disables caching entirely (every ``get`` misses).
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key, default=None):
        """Value for ``key`` (marking it recently used) or ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def evict_if(self, predicate) -> int:
        """Drop every entry whose key matches ``predicate``; returns count.

        The surgical counterpart of :meth:`clear` for live ingest: an
        event invalidates only the keys it touches (e.g. one cascade's
        feature rows), and the rest of the cache keeps its heat.
        """
        with self._lock:
            stale = [k for k in self._data if predicate(k)]
            for k in stale:
                del self._data[k]
            return len(stale)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Atomic counters snapshot for the ``/metrics`` endpoint.

        Size, hits and misses are read under one lock acquisition, so the
        snapshot is internally consistent (``hit_rate`` is computed from
        the very counters reported) even while other threads hit the cache.
        """
        with self._lock:
            size = len(self._data)
            hits = self.hits
            misses = self.misses
        total = hits + misses
        return {
            "size": size,
            "maxsize": self.maxsize,
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }
