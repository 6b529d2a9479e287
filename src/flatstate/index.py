"""Linear-hash table mapping sparse fixed-width keys to dense ordinals.

The table grows one bucket at a time by splitting, widening the address
bits as it passes each power of two, so growth never rebuilds the whole
table. Collisions within a bucket are resolved by scanning its slots in
order; a full bucket chains an overflow page in the same file.

Ordinals are handed out densely in insertion order, and every assigned
key is appended to a reverse lookup table (record i holds the key with
ordinal i). The table's commitment is the hash-tree root over the
reverse table's pages only: bucket layout is an implementation detail
and stays outside the commitment.

Lookups remember what they learn. A key that is found or added keeps its
ordinal in a least-recently-used memo (up to ``KEYS_REMEMBERED`` keys), so
asking again costs no digest and no chain walk; keys are never removed
and ordinals never change, so the memo needs no invalidation. A validator
reads every key before it writes it, so a lookup that misses remembers
the key's bucket hash (up to ``MISSES_REMEMBERED`` keys): the insert that
follows skips the digest and the key search.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from .digest import add_calls, digest
from .errors import FormatError
from .pagepool import PagePool
from .store import RecordStore

_HEADER_SIZE = 10  # u16 entry count, u64 overflow pointer (page id + 1; 0 = none)
_INITIAL_BUCKETS = 4
_INITIAL_LEVEL = 2
_LOAD_FACTOR = 0.75
KEYS_REMEMBERED = 1 << 16  # found or added keys whose ordinal is kept; least recently used go first
MISSES_REMEMBERED = 4096  # absent keys whose bucket hash get() keeps; cleared when full


def bucket_hash(key: bytes) -> int:
    """Placement hash: the last 8 bytes of the key's digest, big-endian."""
    return int.from_bytes(digest(key)[-8:], "big")


class LinearHashIndex:
    def __init__(self, pool: PagePool, reverse: RecordStore, key_width: int, state: dict | None = None):
        self.pool = pool
        self.reverse = reverse
        self.key_width = key_width
        self.entry_size = key_width + 8
        self.slots_per_page = (pool.page_size - _HEADER_SIZE) // self.entry_size
        if self.slots_per_page < 1:
            raise FormatError(f"page size {pool.page_size} too small for {key_width}-byte keys")
        if state is None:
            self.count = 0
            self.level = _INITIAL_LEVEL
            self.split_ptr = 0
            self.bucket_pages = []
            for _ in range(_INITIAL_BUCKETS):
                self._alloc_page()
                self.bucket_pages.append(self.pool.page_count - 1)
        else:
            self.count = state["count"]
            self.level = state["level"]
            self.split_ptr = state["split"]
            self.bucket_pages = list(state["bucket_pages"])
        self._known: OrderedDict[bytes, int] = OrderedDict()  # present key -> ordinal, oldest use first
        self._known_limit = KEYS_REMEMBERED
        self._misses: dict[bytes, int] = {}  # absent key -> bucket_hash(key)

    def state(self) -> dict:
        return {
            "count": self.count,
            "level": self.level,
            "split": self.split_ptr,
            "bucket_pages": list(self.bucket_pages),
        }

    def get(self, key: bytes) -> int | None:
        """Read-only lookup; never mutates the table or the reverse table.

        A hit remembers the key's ordinal and a miss its bucket hash, so
        asking again costs no walk, and a ``get_or_add`` that follows a
        miss walks page headers only.
        """
        ordinal = self._known.get(key)
        if ordinal is not None:  # remembered keys have passed _check_key
            self._known.move_to_end(key)
            return ordinal
        self._check_key(key)
        if key in self._misses:
            return None
        h = bucket_hash(key)
        found = self._walk(key, self._primary_page(h))[0]
        if found is None:
            if len(self._misses) >= MISSES_REMEMBERED:
                self._misses.clear()
            self._misses[key] = h
        else:
            self._remember(key, found)
        return found

    def get_or_add(self, key: bytes) -> tuple[int, bool]:
        """Return (ordinal, was_new); new keys get ordinal == previous count."""
        ordinal = self._known.get(key)
        if ordinal is not None:
            self._known.move_to_end(key)
            return ordinal, False
        self._check_key(key)
        # A remembered miss is still absent: only this method adds keys, and it
        # forgets the miss first. The bucket is recomputed from h at the current
        # level, so splits since the miss change nothing.
        h = self._misses.pop(key, None)
        if h is None:
            found, insert_page, tail = self._walk(key, self._primary_page(bucket_hash(key)))
            if found is not None:
                self._remember(key, found)
                return found, False
        else:
            insert_page, tail = self._free_and_tail(self._primary_page(h))
        ordinal = self.count
        if insert_page is None:
            insert_page = self._alloc_page()
            self.pool.get_page(tail).data[2:10] = (insert_page + 1).to_bytes(8, "big")
            self.pool.mark_dirty(tail)
        self._append_entry(insert_page, key, ordinal)
        self.reverse.set(ordinal, key)
        self.count += 1
        if self.count > _LOAD_FACTOR * len(self.bucket_pages) * self.slots_per_page:
            self._split()
        self._remember(key, ordinal)
        return ordinal, True

    def key_at(self, ordinal: int) -> bytes:
        return self.reverse.get(ordinal)

    def root_hash(self) -> bytes:
        """Commitment over the assigned key sequence (reverse table pages)."""
        return self.reverse.root()

    def flush(self) -> None:
        self.reverse.flush()
        self.pool.flush()

    def close(self) -> None:
        self.reverse.close()
        self.pool.close()

    def _remember(self, key: bytes, ordinal: int) -> None:
        known = self._known
        known[key] = ordinal
        if len(known) > self._known_limit:
            known.popitem(last=False)

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_width:
            raise FormatError(f"key must be {self.key_width} bytes, got {len(key)}")

    def _primary_page(self, h: int) -> int:
        """Page id of the primary page of the bucket that bucket hash h maps to now."""
        bucket = h & ((1 << (self.level + 1)) - 1)
        if bucket >= len(self.bucket_pages):
            bucket &= (1 << self.level) - 1
        return self.bucket_pages[bucket]

    def _walk(self, key: bytes, page_id: int) -> tuple[int | None, int | None, int]:
        """(ordinal or None, first page with a free slot or None, last page) of the chain at page_id.

        A hit counts only at an entry boundary, never inside a stored entry.
        """
        size = self.entry_size
        free = None
        while True:
            data = self.pool.get_page(page_id).data
            n = int.from_bytes(data[0:2], "big")
            end = _HEADER_SIZE + n * size
            at = data.find(key, _HEADER_SIZE, end)
            while at >= 0:
                if (at - _HEADER_SIZE) % size == 0:
                    return int.from_bytes(data[at + self.key_width : at + size], "big"), None, page_id
                at = data.find(key, at + 1, end)
            if free is None and n < self.slots_per_page:
                free = page_id
            nxt = int.from_bytes(data[2:10], "big")
            if nxt == 0:
                return None, free, page_id
            page_id = nxt - 1

    def _free_and_tail(self, page_id: int) -> tuple[int | None, int]:
        """(first page with a free slot or None, last page) of the chain at page_id, from headers only."""
        free = None
        while True:
            data = self.pool.get_page(page_id).data
            if free is None and int.from_bytes(data[0:2], "big") < self.slots_per_page:
                free = page_id
            nxt = int.from_bytes(data[2:10], "big")
            if nxt == 0:
                return free, page_id
            page_id = nxt - 1

    def _alloc_page(self) -> int:
        page_id = self.pool.page_count
        self.pool.get_page(page_id)
        return page_id

    def _append_entry(self, page_id: int, key: bytes, ordinal: int) -> None:
        page = self.pool.get_page(page_id)
        n = int.from_bytes(page.data[0:2], "big")
        offset = _HEADER_SIZE + n * self.entry_size
        page.data[offset : offset + self.entry_size] = key + ordinal.to_bytes(8, "big")
        page.data[0:2] = (n + 1).to_bytes(2, "big")
        self.pool.mark_dirty(page_id)

    def _split(self) -> None:
        source = self.split_ptr
        size, width = self.entry_size, self.key_width
        entries: list[bytearray] = []  # stored key ++ ordinal entries, in chain order
        chain = [self.bucket_pages[source]]
        while True:
            data = self.pool.get_page(chain[-1]).data
            end = _HEADER_SIZE + int.from_bytes(data[0:2], "big") * size
            entries.extend(data[at : at + size] for at in range(_HEADER_SIZE, end, size))
            nxt = int.from_bytes(data[2:10], "big")
            if nxt == 0:
                break
            chain.append(nxt - 1)
        wide_mask = (1 << (self.level + 1)) - 1
        sha = hashlib.sha256  # hot loop; invocations are tallied in bulk below
        stay = []
        move = []
        for entry in entries:
            h = int.from_bytes(sha(entry[:width]).digest()[-8:], "big")
            (stay if h & wide_mask == source else move).append(entry)
        add_calls(len(entries))
        self._rewrite_chain(chain, stay)
        new_primary = self._alloc_page()
        self.bucket_pages.append(new_primary)
        new_chain = [new_primary]
        while len(new_chain) * self.slots_per_page < len(move):
            new_chain.append(self._alloc_page())
        self._rewrite_chain(new_chain, move)
        self.split_ptr += 1
        if len(self.bucket_pages) == 1 << (self.level + 1):
            self.level += 1
            self.split_ptr = 0

    def _rewrite_chain(self, chain: list[int], entries: list[bytearray]) -> None:
        """Repack stored entries into the chain in order; unused trailing pages are zeroed."""
        per_page = self.slots_per_page
        page_size = self.pool.page_size
        for idx, page_id in enumerate(chain):
            batch = entries[idx * per_page : (idx + 1) * per_page]
            nxt = chain[idx + 1] + 1 if (idx + 1) * per_page < len(entries) else 0
            used = _HEADER_SIZE + len(batch) * self.entry_size
            page = self.pool.get_page(page_id)
            page.data[:] = b"".join(
                (len(batch).to_bytes(2, "big"), nxt.to_bytes(8, "big"), *batch, bytes(page_size - used))
            )
            self.pool.mark_dirty(page_id)
