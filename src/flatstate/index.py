"""Linear-hash table mapping sparse fixed-width keys to dense ordinals.

The table grows one bucket at a time by splitting, widening the address
bits as it passes each power of two, so growth never rebuilds the whole
table. Collisions within a bucket are resolved by scanning its slots in
order; a full bucket chains an overflow page in the same file.

Ordinals are handed out densely in insertion order, and ``write_keys``
appends the keys added since its last call to a reverse lookup table
(record i holds the key with ordinal i). The table's commitment is the
hash-tree root over the reverse table's pages only: bucket layout is an
implementation detail and stays outside the commitment.

Lookups remember what they learn in a memo of up to ``KEYS_REMEMBERED``
keys: a present key maps to its ordinal (>= 0), an absent key to
``~bucket_hash(key)`` (< 0). Asking again for a present key costs no
digest and no chain walk, and since a validator reads every key before
it writes it, the insert that follows a miss walks page headers only.
The memo is two generations of plain dicts (the 2Q idea, Johnson and
Shasha, VLDB 1994): new entries go to the young one, a lookup checks
young then old and copies an old hit into young, and once young holds
half the keys it becomes old and the old one is forgotten. So a hit
reorders nothing, and a key looked up once per generation stays
remembered. Ordinals never change and only ``get_or_add`` adds keys, writing young
as it does, which shadows the key's miss entry in either generation, so
the memo needs no invalidation.
"""

from __future__ import annotations

import hashlib

from .digest import add_calls, digest
from .errors import CorruptionError, FormatError
from .pagepool import PagePool
from .store import RecordStore

_HEADER_SIZE = 10  # u16 entry count, u64 overflow pointer (page id + 1; 0 = none)
_INITIAL_BUCKETS = 4
_INITIAL_LEVEL = 2
_LOAD_FACTOR = 0.75
KEYS_REMEMBERED = 1 << 16  # found, added or missed keys the memo keeps, half of them in each generation


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
            self.bucket_pages = [self.pool.append_page() for _ in range(_INITIAL_BUCKETS)]
        else:
            self.count = state["count"]
            self.level = state["level"]
            self.split_ptr = state["split"]
            self.bucket_pages = list(state["bucket_pages"])
            if max(self.bucket_pages) >= pool.page_count:  # a file cut short
                raise CorruptionError(f"{pool.file_path} holds {pool.page_count} pages, fewer than its bucket pages")
        # Memo generations: present key -> ordinal, absent key -> ~bucket_hash(key).
        self._young: dict[bytes, int] = {}
        self._old: dict[bytes, int] = {}
        self._generation_size = KEYS_REMEMBERED // 2
        self._new_keys: dict[int, bytes] = {}  # keys added since the last write_keys, by ordinal

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
        known = self._young.get(key)
        if known is None:
            known = self._recall_old(key)
        if known is not None:  # remembered keys have passed _check_key
            return known if known >= 0 else None
        self._check_key(key)
        h = bucket_hash(key)
        found = self._walk(key, self._primary_page(h))[0]
        self._remember(key, ~h if found is None else found)
        return found

    def get_or_add(self, key: bytes) -> tuple[int, bool]:
        """Return (ordinal, was_new); new keys get ordinal == previous count."""
        known = self._young.get(key)
        if known is None:
            known = self._recall_old(key)
        if known is None:
            self._check_key(key)
            found, insert_page, tail = self._walk(key, self._primary_page(bucket_hash(key)))
            if found is not None:
                self._remember(key, found)
                return found, False
        elif known >= 0:
            return known, False
        else:
            # A remembered miss is still absent: only this method adds keys, and its
            # young entry below shadows the miss. The bucket is recomputed from the
            # hash at the current level, so splits since the miss change nothing.
            _, insert_page, tail = self._walk(None, self._primary_page(~known))
        ordinal = self.count
        if insert_page is None:
            insert_page = self.pool.append_page()
            self.pool.write_page(tail)[2:10] = (insert_page + 1).to_bytes(8, "big")
        self._append_entry(insert_page, key, ordinal)
        self._new_keys[ordinal] = key
        self.count += 1
        if self.count > _LOAD_FACTOR * len(self.bucket_pages) * self.slots_per_page:
            self._split()
        self._remember(key, ordinal)
        return ordinal, True

    def forget(self) -> None:
        """Empty the memo, so every later lookup reads the pages."""
        self._young, self._old = {}, {}

    def write_keys(self) -> None:
        """Append the keys added since the last call to the reverse table in one batch; reads of it call this first."""
        self.reverse.set_many(self._new_keys)
        self._new_keys = {}

    def key_at(self, ordinal: int) -> bytes:
        self.write_keys()
        return self.reverse.get(ordinal)

    def root(self) -> bytes:
        """Commitment over the assigned key sequence (reverse table pages)."""
        self.write_keys()
        return self.reverse.root()

    def _recall_old(self, key: bytes) -> int | None:
        """The old generation's entry for ``key``, copied into the young one; None if it has none."""
        known = self._old.get(key)
        if known is not None:
            self._remember(key, known)
        return known

    def _remember(self, key: bytes, ordinal: int) -> None:
        young = self._young
        young[key] = ordinal
        if len(young) >= self._generation_size:  # young is full: it becomes old, and old is forgotten
            self._old = young if self._generation_size else {}  # a memo of 0 or 1 keys remembers none
            self._young = {}

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_width:
            raise FormatError(f"key must be {self.key_width} bytes, got {len(key)}")

    def _primary_page(self, h: int) -> int:
        """Page id of the primary page of the bucket that bucket hash h maps to now."""
        bucket = h & ((1 << (self.level + 1)) - 1)
        if bucket >= len(self.bucket_pages):
            bucket &= (1 << self.level) - 1
        return self.bucket_pages[bucket]

    def _walk(self, key: bytes | None, page_id: int) -> tuple[int | None, int | None, int]:
        """(ordinal or None, first page with a free slot or None, last page) of the chain at page_id.

        A hit counts only at an entry boundary, never inside a stored entry.
        With ``key`` None only the page headers are read, to place an insert.
        """
        size = self.entry_size
        free = None
        while True:
            data = self.pool.get_page(page_id)
            n = int.from_bytes(data[0:2], "big")
            if key is not None:
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

    def _append_entry(self, page_id: int, key: bytes, ordinal: int) -> None:
        data = self.pool.write_page(page_id)
        n = int.from_bytes(data[0:2], "big")
        offset = _HEADER_SIZE + n * self.entry_size
        data[offset : offset + self.entry_size] = key + ordinal.to_bytes(8, "big")
        data[0:2] = (n + 1).to_bytes(2, "big")

    def _split(self) -> None:
        source = self.split_ptr
        size, width = self.entry_size, self.key_width
        entries: list[bytearray] = []  # stored key ++ ordinal entries, in chain order
        chain = [self.bucket_pages[source]]
        while True:
            data = self.pool.get_page(chain[-1])
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
        new_primary = self.pool.append_page()
        self.bucket_pages.append(new_primary)
        new_chain = [new_primary]
        while len(new_chain) * self.slots_per_page < len(move):
            new_chain.append(self.pool.append_page())
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
            self.pool.write_page(page_id)[:] = b"".join(
                (len(batch).to_bytes(2, "big"), nxt.to_bytes(8, "big"), *batch, bytes(page_size - used))
            )
