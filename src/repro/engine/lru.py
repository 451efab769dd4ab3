"""A small LRU cache with an eviction callback.

Shared by the engine's parsed-query and prepared-plan caches.  Kept
deliberately dependency-free (an :class:`collections.OrderedDict` with
move-to-end on read) so other layers can reuse it without dragging
the engine in.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded mapping evicting the least-recently-used entry.

    Parameters
    ----------
    max_size:
        Maximum number of entries; must be >= 1.
    on_evict:
        Optional ``(key, value)`` callback fired for every eviction
        (used by :class:`~repro.engine.stats.EngineStats` counters).
    """

    __slots__ = ("max_size", "_data", "_on_evict")

    def __init__(
        self,
        max_size: int,
        *,
        on_evict: Callable[[Hashable, Any], None] | None = None,
    ):
        if max_size < 1:
            raise ValueError(f"LRU cache needs max_size >= 1, got {max_size}")
        self.max_size = max_size
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._on_evict = on_evict

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, marking it most-recently-used on a hit."""
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.max_size:
            old_key, old_value = self._data.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict(old_key, old_value)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key`` (no eviction callback)."""
        return self._data.pop(key, default)

    def clear(self) -> None:
        """Drop every entry (no eviction callbacks)."""
        self._data.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def values(self):
        """A view of the cached values, LRU first."""
        return self._data.values()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LRUCache({len(self._data)}/{self.max_size})"
