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
"""

from __future__ import annotations

from .digest import digest
from .errors import FormatError
from .pagepool import PagePool
from .store import RecordStore

_HEADER_SIZE = 10  # u16 entry count, u64 overflow pointer (page id + 1; 0 = none)
_INITIAL_BUCKETS = 4
_INITIAL_LEVEL = 2
_LOAD_FACTOR = 0.75


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

    def state(self) -> dict:
        return {
            "count": self.count,
            "level": self.level,
            "split": self.split_ptr,
            "bucket_pages": list(self.bucket_pages),
        }

    def get(self, key: bytes) -> int | None:
        """Read-only lookup; never mutates the table or the reverse table."""
        return self._walk(key)[0]

    def get_or_add(self, key: bytes) -> tuple[int, bool]:
        """Return (ordinal, was_new); new keys get ordinal == previous count."""
        found, insert_page, tail = self._walk(key)
        if found is not None:
            return found, False
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

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_width:
            raise FormatError(f"key must be {self.key_width} bytes, got {len(key)}")

    def _bucket_of(self, key: bytes) -> int:
        h = int.from_bytes(digest(key)[-8:], "big")
        bucket = h & ((1 << (self.level + 1)) - 1)
        if bucket >= len(self.bucket_pages):
            bucket &= (1 << self.level) - 1
        return bucket

    def _walk(self, key: bytes) -> tuple[int | None, int | None, int]:
        """(ordinal or None, first page with a free slot or None, last page) of key's chain.

        A hit counts only at an entry boundary, never inside a stored entry.
        """
        self._check_key(key)
        size = self.entry_size
        page_id = self.bucket_pages[self._bucket_of(key)]
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
        entries: list[tuple[bytes, int]] = []
        chain = [self.bucket_pages[source]]
        while True:
            page = self.pool.get_page(chain[-1])
            n = int.from_bytes(page.data[0:2], "big")
            offset = _HEADER_SIZE
            for _ in range(n):
                key = bytes(page.data[offset : offset + self.key_width])
                ordinal = int.from_bytes(page.data[offset + self.key_width : offset + self.entry_size], "big")
                entries.append((key, ordinal))
                offset += self.entry_size
            nxt = int.from_bytes(page.data[2:10], "big")
            if nxt == 0:
                break
            chain.append(nxt - 1)
        wide_mask = (1 << (self.level + 1)) - 1
        stay = []
        move = []
        for key, ordinal in entries:
            h = int.from_bytes(digest(key)[-8:], "big")
            (stay if h & wide_mask == source else move).append((key, ordinal))
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

    def _rewrite_chain(self, chain: list[int], entries: list[tuple[bytes, int]]) -> None:
        """Repack entries into the chain; unused trailing pages are zeroed."""
        per_page = self.slots_per_page
        for idx, page_id in enumerate(chain):
            fresh = bytearray(self.pool.page_size)
            batch = entries[idx * per_page : (idx + 1) * per_page]
            if batch:
                fresh[0:2] = len(batch).to_bytes(2, "big")
                offset = _HEADER_SIZE
                for key, ordinal in batch:
                    fresh[offset : offset + self.entry_size] = key + ordinal.to_bytes(8, "big")
                    offset += self.entry_size
            if (idx + 1) * per_page < len(entries):
                fresh[2:10] = (chain[idx + 1] + 1).to_bytes(8, "big")
            page = self.pool.get_page(page_id)
            page.data[:] = fresh
            self.pool.mark_dirty(page_id)
