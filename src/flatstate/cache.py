"""Least-recently-used key cache placed in front of each indexer."""

from __future__ import annotations

from collections import OrderedDict


class LruCache:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
