"""Balanced binary hash tree over the pages of a store.

Nodes live in one bytearray of 32-byte records per level, leaves first,
so growing the tree only appends to each level and adds levels on top.
The node file is the levels concatenated root first, which is the heap
array of FORMATS.md (children of node i at 2i+1 and 2i+2). Leaf i is the
digest of page i. Writes only mark leaves dirty; ``root`` recomputes
bottom-up, level by level, touching each node at most once per call no
matter how many dirty leaves share ancestors.

Leaf counts that are not a power of two are padded on the right with the
empty-string digest; entire padding subtrees collapse to precomputed
constants, so growing the tree never rehashes existing content beyond
the altered root path.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from . import files
from .digest import EMPTY_HASH, HASH_SIZE, add_calls, digest
from .errors import BoundsError, CorruptionError

# _PAD[h] is the hash of a height-h subtree whose leaves are all padding.
_PAD = [EMPTY_HASH]
for _ in range(63):
    _PAD.append(digest(_PAD[-1] + _PAD[-1]))


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


class HashTree:
    def __init__(self, node_path: Path | None = None, leaf_count: int = 0):
        self.node_path = Path(node_path) if node_path is not None else None
        self._leaf_count = 0
        # _levels[h] holds the nodes of height h; _levels[-1] is the root.
        self._levels: list[bytearray] = []
        self._dirty_leaves: set[int] = set()
        self.saved = False  # the node file holds exactly _levels; its owner sets this once it has written them
        if leaf_count > 0:
            if self.node_path is not None and self.node_path.exists():
                self._load(leaf_count)
            else:
                # No persisted nodes: rebuild everything on the next root().
                self.grow(leaf_count)

    @property
    def inner_node_count(self) -> int:
        """Nodes above the leaf level; capacity - 1 for the current shape."""
        return max(self._capacity - 1, 0)

    @property
    def _capacity(self) -> int:
        return len(self._levels[0]) // HASH_SIZE if self._levels else 0

    def mark_dirty(self, leaf: int) -> None:
        """Queue leaf for rehash; grows the tree when leaf is the next new one."""
        if leaf < 0:
            raise BoundsError(f"negative leaf index {leaf}")
        if leaf >= self._leaf_count:
            self.grow(leaf + 1)
        else:
            self._dirty_leaves.add(leaf)

    def grow(self, new_leaf_count: int) -> None:
        """Extend to ``new_leaf_count`` leaves; new leaves start dirty.

        The leftmost node of every added level is an ancestor of the first
        new leaf, so marking the new leaves dirty also rehashes the old
        root's new ancestors.
        """
        if new_leaf_count < self._leaf_count:
            raise BoundsError(f"cannot shrink tree from {self._leaf_count} to {new_leaf_count}")
        if new_leaf_count == self._leaf_count:
            return
        levels = self._levels
        capacity = _next_pow2(new_leaf_count)
        old_capacity = self._capacity
        if capacity > old_capacity:
            for height, nodes in enumerate(levels):
                nodes += _PAD[height] * ((capacity - old_capacity) >> height)
            for height in range(len(levels), capacity.bit_length()):
                levels.append(bytearray(_PAD[height] * (capacity >> height)))
        self._dirty_leaves.update(range(self._leaf_count, new_leaf_count))
        self._leaf_count = new_leaf_count
        self.saved = False

    def root(self, page_reader) -> bytes:
        """Current root hash; recomputes only dirty leaves and their ancestors.

        ``page_reader(leaf)`` must return the current bytes of page ``leaf``.
        A clean tree returns the cached root without any digest work.
        """
        if not self._levels:
            return EMPTY_HASH
        if not self._dirty_leaves:
            return bytes(self._levels[-1])
        sha = hashlib.sha256  # hot loop; invocations are tallied in bulk below
        # Memoryview slices neither allocate nor copy a buffer. The views are
        # released before returning, since a live view blocks grow().
        views = [memoryview(level) for level in self._levels]
        try:
            nodes = views[0]
            # current holds the byte offsets of the dirty nodes of one level,
            # sorted, so siblings are adjacent and one compare dedupes them.
            current: list[int] = []
            append = current.append
            for leaf in sorted(self._dirty_leaves):
                offset = leaf << 5
                append(offset)
                nodes[offset : offset + 32] = sha(page_reader(leaf)).digest()
            calls = len(current)
            for height in range(1, len(views)):
                children = nodes
                nodes = views[height]
                parents: list[int] = []
                append = parents.append
                last = -1
                for child in current:
                    start = child & -64  # the sibling pair of child
                    if start != last:
                        last = start
                        offset = start >> 1
                        append(offset)
                        nodes[offset : offset + 32] = sha(children[start : start + 64]).digest()
                calls += len(parents)
                current = parents
            root = nodes.tobytes()
        finally:
            for view in views:
                view.release()
        add_calls(calls)
        self._dirty_leaves = set()
        self.saved = False
        return root

    def node_file(self) -> list[bytearray]:
        """The node file as of the last ``root``, for the owner's commit to write whole: the levels, by reference, root first."""
        return self._levels[::-1]

    def _load(self, leaf_count: int) -> None:
        capacity = _next_pow2(leaf_count)
        expected = (2 * capacity - 1) * HASH_SIZE
        data = memoryview(files.read_file(self.node_path))
        if len(data) != expected:
            raise CorruptionError(
                f"tree file {self.node_path} holds {len(data)} bytes, expected {expected} for {leaf_count} leaves"
            )
        # The file is the heap array: level widths 1, 2, 4, ... from the root down.
        for depth in range(capacity.bit_length()):
            start = ((1 << depth) - 1) * HASH_SIZE
            self._levels.append(bytearray(data[start : start + (HASH_SIZE << depth)]))
        self._levels.reverse()
        self._leaf_count = leaf_count
        self.saved = True
