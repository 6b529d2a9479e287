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

One writer owns the instance during apply_block; concurrent readers are
allowed only between block applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .digest import digest
from .errors import CorruptionError, SequenceError
from .index import LinearHashIndex
from .metafile import read_meta, require, write_meta
from .pagepool import PagePool
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
POOL_CAPACITY = 1024  # pages each store, index and key file keeps in memory
ROOT_ORDER = ("balance", "nonce", "exists", "reinc", "code", "values", "a_index", "ak_index")

AK_KEY_SIZE = ADDRESS_SIZE + REINC_SIZE + KEY_SIZE


@dataclass(frozen=True)
class WorldstateRoot:
    root: bytes
    block: int


class LiveDb:
    def __init__(self, data_dir: Path, *, page_size: int = 4096):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.page_size = page_size  # fixed when the database is created; recorded in meta.json
        meta = self._read_meta()
        self.block = meta["block"]
        accounts = meta["accounts"]
        slots = meta["slots"]
        self.balances = self._store("balances", BALANCE_SIZE, accounts)
        self.nonces = self._store("nonces", NONCE_SIZE, accounts)
        self.exists_flags = self._store("exists", 1, accounts)
        self.reincarnations = self._store("reincs", REINC_SIZE, accounts)
        self.codes = Depot(self._store("codes", DEPOT_META_SIZE, accounts), self.data_dir / "codes.blob")
        self.values = self._store("values", VALUE_SIZE, slots)
        self.a_index = self._index("addr", ADDRESS_SIZE, meta.get("a_index"))
        self.ak_index = self._index("slots", AK_KEY_SIZE, meta.get("ak_index"))
        self._root_cache: bytes | None = None

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
        if diff.block != self.block + 1:
            raise SequenceError(f"expected block {self.block + 1}, got {diff.block}")
        for update in diff.updates:
            self._apply_update(update)
        self.block = diff.block
        self._root_cache = None

    def _apply_update(self, update) -> None:
        ordinal, was_new = self.a_index.get_or_add(update.address)
        if was_new:
            self.balances.set(ordinal, b"\x00" * BALANCE_SIZE)
            self.nonces.set(ordinal, b"\x00" * NONCE_SIZE)
            self.exists_flags.set(ordinal, b"\x00")
            self.reincarnations.set(ordinal, b"\x00" * REINC_SIZE)
            self.codes.set(ordinal, b"")
        if update.deleted:
            reinc = int.from_bytes(self.reincarnations.get(ordinal), "big") + 1
            self.reincarnations.set(ordinal, reinc.to_bytes(REINC_SIZE, "big"))
            self.exists_flags.set(ordinal, b"\x00")
            self.balances.set(ordinal, b"\x00" * BALANCE_SIZE)
            self.nonces.set(ordinal, b"\x00" * NONCE_SIZE)
            self.codes.set(ordinal, b"")
        if update.created:
            self.exists_flags.set(ordinal, b"\x01")
        if update.balance is not None:
            self.balances.set(ordinal, update.balance.to_bytes(BALANCE_SIZE, "big"))
        if update.nonce is not None:
            self.nonces.set(ordinal, update.nonce.to_bytes(NONCE_SIZE, "big"))
        if update.code is not None:
            self.codes.set(ordinal, update.code)
        if update.slots:
            prefix = update.address + self.reincarnations.get(ordinal)
            for key, value in update.slots:
                self.values.set(self.ak_index.get_or_add(prefix + key)[0], value)

    # -- commitment ----------------------------------------------------------

    def component_roots(self) -> dict[str, bytes]:
        return {
            "balance": self.balances.root(),
            "nonce": self.nonces.root(),
            "exists": self.exists_flags.root(),
            "reinc": self.reincarnations.root(),
            "code": self.codes.root(),
            "values": self.values.root(),
            "a_index": self.a_index.root_hash(),
            "ak_index": self.ak_index.root_hash(),
        }

    def state_root(self) -> WorldstateRoot:
        """Composite commitment; cached until the next write."""
        if self._root_cache is None:
            roots = self.component_roots()
            self._root_cache = digest(b"".join(roots[name] for name in ROOT_ORDER))
        return WorldstateRoot(root=self._root_cache, block=self.block)

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Persist every component and the metadata file.

        Hash trees are brought fully up to date first, so two replicas
        that applied the same diffs flush byte-identical directories.
        """
        for store in (self.balances, self.nonces, self.exists_flags, self.reincarnations, self.values):
            store.flush()
        self.codes.flush()
        self.a_index.flush()
        self.ak_index.flush()
        self._write_meta()

    def close(self) -> None:
        """Persist and close every component once, in flush order, then write the metadata file."""
        for store in (self.balances, self.nonces, self.exists_flags, self.reincarnations, self.values):
            store.close()
        self.codes.close()
        self.a_index.close()
        self.ak_index.close()
        self._write_meta()

    # -- internals -----------------------------------------------------------

    def _store(self, name: str, record_size: int, count: int) -> RecordStore:
        return RecordStore.open(
            self.data_dir / f"{name}.dat",
            record_size,
            count=count,
            page_size=self.page_size,
            capacity=POOL_CAPACITY,
            tree_path=self.data_dir / f"{name}.tree",
        )

    def _index(self, name: str, key_width: int, state: dict | None) -> LinearHashIndex:
        pool = PagePool(self.data_dir / f"{name}.buckets", page_size=self.page_size, capacity=POOL_CAPACITY)
        count = state["count"] if state else 0
        reverse = RecordStore.open(
            self.data_dir / f"{name}.keys",
            key_width,
            count=count,
            page_size=self.page_size,
            capacity=POOL_CAPACITY,
            tree_path=self.data_dir / f"{name}.tree",
        )
        return LinearHashIndex(pool, reverse, key_width, state=state)

    def _meta_path(self) -> Path:
        return self.data_dir / "meta.json"

    def _read_meta(self) -> dict:
        path = self._meta_path()
        if not path.exists():
            return {"format": FORMAT_VERSION, "block": 0, "accounts": 0, "slots": 0}
        meta = read_meta(path, FORMAT_VERSION, ("block", "accounts", "slots", "a_index", "ak_index"))
        for name in ("a_index", "ak_index"):
            require(meta[name], path, ("count", "level", "split", "bucket_pages"))
        if meta.get("page_size", self.page_size) != self.page_size:
            raise CorruptionError(
                f"database was created with page_size {meta.get('page_size')}, opened with {self.page_size}"
            )
        return meta

    def _write_meta(self) -> None:
        meta = {
            "format": FORMAT_VERSION,
            "page_size": self.page_size,
            "block": self.block,
            "accounts": self.a_index.count,
            "slots": self.ak_index.count,
            "a_index": self.a_index.state(),
            "ak_index": self.ak_index.state(),
        }
        write_meta(self._meta_path(), meta)
