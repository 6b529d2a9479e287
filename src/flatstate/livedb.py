"""Mutable latest-worldstate database with intrinsic pruning.

Account attributes and storage values live in normalized fixed-record
stores addressed by dense ordinals; two linear-hash indexers translate
sparse addresses and (address, reincarnation, storage key) composites
into those ordinals. Updates overwrite records in place, so stale state
never accumulates. Deleting an account just bumps its reincarnation
counter: all its storage slots become unreachable in O(1) because the
composite index keys no longer match.

The worldstate commitment is the digest of eight component roots in a
fixed order (balance, nonce, exists, reincarnation, code, values,
address index, slot index), each maintained lazily by the hash trees.

Whether the database is new is decided once, by the absence of
``meta.json``: a new one creates (or truncates) its eleven data files, an
existing one requires each of them (``files.open_data``), so a first flush
cut short before ``meta.json`` leaves a directory that opens as new.

The eleven data files (six stores, two bucket files, two key files and
the code blob) are opened and closed by one page cache of
``CACHE_BYTES``. ``flush`` is the one commit site and the only time any
of them is written: it lists the commit's writes (``commit_writes``)
and applies the list with the one writer, ``files.commit``. Dirty pages
and code bodies stay in memory until then, so every file holds the last
commit; a block that leaves them filling the cache commits, so RAM stays
within the budget plus one block's pages and bodies (replay-cold's
window dirties up to ≈6,000 of 6,144 pages).

One thread uses an instance at a time, readers included: every read
may load or evict pages in the page cache and remember keys in the
index memos, so two threads must not share an instance without a lock
of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .digest import digest
from .errors import CorruptionError, SequenceError, StorageError
from .files import commit, read_meta, require
from .index import LinearHashIndex
from .pagepool import PageCache, PagePool
from .store import Depot, RecordStore, DEPOT_META_SIZE
from .types import (
    ADDRESS_SIZE,
    BALANCE_SIZE,
    BlockDiff,
    KEY_SIZE,
    NONCE_SIZE,
    REINC_SIZE,
    VALUE_SIZE,
    ZERO_VALUE,
)

FORMAT_VERSION = 1
CACHE_BYTES = 24 << 20  # resident pages of all ten page files and the pending code bodies together
ROOT_ORDER = ("balance", "nonce", "exists", "reinc", "code", "values", "a_index", "ak_index")

AK_KEY_SIZE = ADDRESS_SIZE + REINC_SIZE + KEY_SIZE
_ZERO_BALANCE = bytes(BALANCE_SIZE)
_ZERO_NONCE = bytes(NONCE_SIZE)
_ZERO_REINC = bytes(REINC_SIZE)


@dataclass(frozen=True)
class WorldstateRoot:
    root: bytes
    block: int


class LiveDb:
    def __init__(self, data_dir: Path, *, page_size: int = 4096):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.page_size = page_size  # fixed when the database is created; recorded in meta.json
        self._meta_path = self.data_dir / "meta.json"
        new = not self._meta_path.exists()  # the one new-or-existing decision
        meta = {"block": 0, "accounts": 0, "slots": 0} if new else self._read_meta()
        self.block = meta["block"]
        accounts = meta["accounts"]
        slots = meta["slots"]
        self._cache = PageCache(page_size=page_size, budget_bytes=CACHE_BYTES, create=new)
        try:
            self.balances = self._store("balances", BALANCE_SIZE, accounts)
            self.nonces = self._store("nonces", NONCE_SIZE, accounts)
            self.exists_flags = self._store("exists", 1, accounts)
            self.reincarnations = self._store("reincs", REINC_SIZE, accounts)
            code_meta = self._store("codes", DEPOT_META_SIZE, accounts)
            self.values = self._store("values", VALUE_SIZE, slots)
            self.a_index = self._index("addr", ADDRESS_SIZE, meta.get("a_index"))
            self.ak_index = self._index("slots", AK_KEY_SIZE, meta.get("ak_index"))
            self.codes = Depot(code_meta, self.data_dir / "codes.blob")
        except BaseException:
            self._cache.close()  # writes nothing, so a new database's appended bucket pages leave no bytes behind
            raise
        # The eight committed stores in ROOT_ORDER; the indexes commit to their reverse tables.
        self._stores = (self.balances, self.nonces, self.exists_flags, self.reincarnations, code_meta, self.values,
                        self.a_index.reverse, self.ak_index.reverse)
        self._committed_meta = None if new else meta  # a commit that would not change meta.json leaves it out
        self._closed = False

    # -- reads ---------------------------------------------------------------

    def get_balance(self, address: bytes) -> int:
        ordinal = self.a_index.get(address)
        return 0 if ordinal is None else int.from_bytes(self.balances.get(ordinal), "big")

    def get_nonce(self, address: bytes) -> int:
        ordinal = self.a_index.get(address)
        return 0 if ordinal is None else int.from_bytes(self.nonces.get(ordinal), "big")

    def get_code(self, address: bytes) -> bytes:
        ordinal = self.a_index.get(address)
        return b"" if ordinal is None else self.codes.get(ordinal)

    def account_exists(self, address: bytes) -> bool:
        ordinal = self.a_index.get(address)
        return ordinal is not None and self.exists_flags.get(ordinal) == b"\x01"

    def get_storage(self, address: bytes, key: bytes) -> bytes:
        ordinal = self.a_index.get(address)
        if ordinal is None:
            return ZERO_VALUE
        slot = self.ak_index.get(address + self.reincarnations.get(ordinal) + key)
        return ZERO_VALUE if slot is None else self.values.get(slot)

    # -- writes --------------------------------------------------------------

    def apply_block(self, diff: BlockDiff) -> None:
        """Apply one block's updates; each plain store then takes the block's writes in one pass.

        The writes collect per store as ``{record: bytes}`` (a later write to
        a record wins), code bodies included, and each index's new keys until
        ``write_keys``, so each page is taken to write once per block. A block
        whose dirty pages and pending code bodies fill the page cache ends in
        ``flush()``, whose failure raises with the block applied in memory.
        """
        if diff.block != self.block + 1:
            raise SequenceError(f"expected block {self.block + 1}, got {diff.block}")
        balances: dict[int, bytes] = {}
        nonces: dict[int, bytes] = {}
        exists: dict[int, bytes] = {}
        reincs: dict[int, bytes] = {}
        values: dict[int, bytes] = {}
        codes: dict[int, bytes] = {}  # in the order set, which is the order the depot appends the bodies
        add_address = self.a_index.get_or_add
        add_slot = self.ak_index.get_or_add
        for update in diff.updates:
            ordinal, was_new = add_address(update.address)
            if was_new:
                balances[ordinal] = _ZERO_BALANCE
                nonces[ordinal] = _ZERO_NONCE
                exists[ordinal] = b"\x00"
                reincs[ordinal] = _ZERO_REINC
                codes[ordinal] = b""
            if update.deleted:
                reinc = int.from_bytes(self._reinc(reincs, ordinal), "big") + 1
                reincs[ordinal] = reinc.to_bytes(REINC_SIZE, "big")
                exists[ordinal] = b"\x00"
                balances[ordinal] = _ZERO_BALANCE
                nonces[ordinal] = _ZERO_NONCE
                codes[ordinal] = b""
            if update.created:
                exists[ordinal] = b"\x01"
            if update.balance is not None:
                balances[ordinal] = update.balance.to_bytes(BALANCE_SIZE, "big")
            if update.nonce is not None:
                nonces[ordinal] = update.nonce.to_bytes(NONCE_SIZE, "big")
            if update.code is not None:
                codes[ordinal] = update.code
            if update.slots:
                prefix = update.address + self._reinc(reincs, ordinal)
                for key, value in update.slots:
                    values[add_slot(prefix + key)[0]] = value
        self.balances.set_many(balances)
        self.nonces.set_many(nonces)
        self.exists_flags.set_many(exists)
        self.reincarnations.set_many(reincs)
        self.values.set_many(values)
        self.codes.set_many(codes)
        self.a_index.write_keys()
        self.ak_index.write_keys()
        self.block = diff.block
        if self._cache.full(len(self.codes.pending)):
            self.flush()

    def _reinc(self, pending: dict[int, bytes], ordinal: int) -> bytes:
        """The account's reincarnation counter, as written earlier in this block or else as stored."""
        reinc = pending.get(ordinal)
        return self.reincarnations.get(ordinal) if reinc is None else reinc

    # -- commitment ----------------------------------------------------------

    def component_roots(self) -> dict[str, bytes]:
        if self._closed:  # a clean tree would answer from memory
            raise StorageError("database is closed", path=self.data_dir)
        return dict(zip(ROOT_ORDER, (store.root() for store in self._stores)))

    def state_root(self) -> WorldstateRoot:
        """Composite commitment: one digest over the component roots, which clean trees answer from memory."""
        return WorldstateRoot(root=digest(b"".join(self.component_roots().values())), block=self.block)  # in ROOT_ORDER

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Apply ``commit_writes()``, then mark it written; a failed commit marks nothing, so a retry writes it all,
        and an empty one calls no writer."""
        writes = self.commit_writes()
        if writes:
            commit(writes)
        for store in self._stores:
            store.tree.saved = True
        self.codes.mark_written()
        self._cache.mark_written()
        if writes and writes[-1][0] == self._meta_path:
            self._committed_meta = writes[-1][2]

    def commit_writes(self) -> list[tuple]:
        """The next commit's ``files.commit`` writes in order, tree levels, bodies and pages by reference: each changed
        ``.tree`` file whole in ROOT_ORDER, the pending code bodies' append, each dirty page in key order, ``meta.json``
        unless it would be unchanged.

        Hash trees are brought up to date first, so two replicas that applied the same diffs flush byte-identical
        directories.
        """
        self.component_roots()  # raises once the database is closed
        writes = [(store.tree.node_path, None, store.tree.node_file()) for store in self._stores if not store.tree.saved]
        writes += self.codes.blob_writes() + self._cache.page_writes()
        meta = {
            "format": FORMAT_VERSION,
            "page_size": self.page_size,
            "block": self.block,
            "accounts": self.a_index.count,
            "slots": self.ak_index.count,
            "a_index": self.a_index.state(),
            "ak_index": self.ak_index.state(),
        }
        return writes if meta == self._committed_meta else writes + [(self._meta_path, None, meta)]

    def close(self) -> None:
        """Flush, then close the cache (all eleven files) and forget the memos, even if the flush fails; once only."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            self._cache.close()
            self.a_index.forget()
            self.ak_index.forget()

    # -- internals -----------------------------------------------------------

    def _store(self, name: str, record_size: int, count: int, file: str = "dat") -> RecordStore:
        path = self.data_dir / f"{name}.{file}"
        return RecordStore(self._cache, path, record_size, count=count, tree_path=self.data_dir / f"{name}.tree")

    def _index(self, name: str, key_width: int, state: dict | None) -> LinearHashIndex:
        pool = PagePool(self._cache, self.data_dir / f"{name}.buckets")
        reverse = self._store(name, key_width, state["count"] if state else 0, file="keys")
        return LinearHashIndex(pool, reverse, key_width, state=state)

    def _read_meta(self) -> dict:
        meta = read_meta(self._meta_path, FORMAT_VERSION, ("page_size", "block", "accounts", "slots", "a_index", "ak_index"))
        for name, count in (("a_index", "accounts"), ("ak_index", "slots")):
            require(meta[name], self._meta_path, ("count", "level", "split", "bucket_pages"))
            if meta[count] != meta[name]["count"]:
                raise CorruptionError(f"{self._meta_path} counts {meta[count]} {count}, {name} {meta[name]['count']}")
        if meta["page_size"] != self.page_size:
            raise CorruptionError(f"database was created with page_size {meta['page_size']}, opened with {self.page_size}")
        return meta
