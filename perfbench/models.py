"""Reference models the benchmark checks the program's answers against.

``HistoryModel`` is built from the decoded diff stream alone and
``live_root_from_files`` from a flushed LiveDb directory alone; neither
shares code with flatstate's stores, indexes, trees or archive. They
follow the byte formats in FORMATS.md and the semantics of
``ReferenceOracle`` (deleting an account resets its fields and hides
every older slot; fields written in the same update as a deletion or
creation apply after it). The benchmark's own tests tie them to the
oracle, to ``ArchiveDb`` and to ``LiveDb``.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from pathlib import Path

ZERO_VALUE = bytes(32)
ZERO_HASH = bytes(32)
_FIELD_RESET = {"balance": 0, "nonce": 0, "code": b"", "exists": False}


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def serialize_update(update) -> bytes:
    """The canonical account-update encoding of FORMATS.md (hash input)."""
    parts = [update.address, b"\x01" if update.deleted else b"\x00", b"\x01" if update.created else b"\x00"]
    parts.append(b"\x00" if update.balance is None else b"\x01" + update.balance.to_bytes(16, "big"))
    parts.append(b"\x00" if update.nonce is None else b"\x01" + update.nonce.to_bytes(8, "big"))
    parts.append(b"\x00" if update.code is None else b"\x01" + sha256(update.code))
    slots = sorted(update.slots)
    parts.append(len(slots).to_bytes(4, "big"))
    for key, value in slots:
        parts.append(key + value)
    return b"".join(parts)


def _floor(history: list | None, block: int):
    """The (block, value) entry with the greatest block <= ``block``, or None."""
    if not history:
        return None
    at = bisect_right(history, block, key=lambda entry: entry[0])
    return history[at - 1] if at else None


def _record(history: list, block: int, value) -> None:
    if history and history[-1][0] == block:
        history[-1] = (block, value)
    else:
        history.append((block, value))


class HistoryModel:
    """Per-key ``(block, value)`` histories plus the archive's block-hash chain.

    ``*_at(..., block)`` answers the state after ``block`` was applied, so
    the head read a validator makes before applying block ``b`` is the
    answer at ``b - 1``.
    """

    def __init__(self):
        self.block = 0
        self.fields: dict[tuple[str, bytes], list] = {}
        self.slots: dict[tuple[bytes, bytes], list] = {}
        self.deletions: dict[bytes, list[int]] = {}
        self.block_hashes = [ZERO_HASH]
        self._account_hash: dict[bytes, bytes] = {}
        self.diff_bytes = 0

    def apply(self, diff) -> None:
        if diff.block != self.block + 1:
            raise ValueError(f"model expected block {self.block + 1}, got {diff.block}")
        block = diff.block
        account_hashes = []
        for update in sorted(diff.updates, key=lambda u: u.address):
            address = update.address
            if update.deleted:
                self.deletions.setdefault(address, []).append(block)
                for field, reset in _FIELD_RESET.items():
                    _record(self.fields.setdefault((field, address), []), block, reset)
            if update.created:
                _record(self.fields.setdefault(("exists", address), []), block, True)
            for field in ("balance", "nonce", "code"):
                value = getattr(update, field)
                if value is not None:
                    _record(self.fields.setdefault((field, address), []), block, value)
            for key, value in update.slots:
                _record(self.slots.setdefault((address, key), []), block, value)
            update_hash = sha256(serialize_update(update))
            account_hash = sha256(self._account_hash.get(address, ZERO_HASH) + update_hash)
            self._account_hash[address] = account_hash
            account_hashes.append(account_hash)
        self.block_hashes.append(sha256(self.block_hashes[-1] + b"".join(account_hashes)))
        self.block = block

    def _field_at(self, field: str, address: bytes, block: int):
        entry = _floor(self.fields.get((field, address)), block)
        return _FIELD_RESET[field] if entry is None else entry[1]

    def balance_at(self, address: bytes, block: int) -> int:
        return self._field_at("balance", address, block)

    def nonce_at(self, address: bytes, block: int) -> int:
        return self._field_at("nonce", address, block)

    def code_at(self, address: bytes, block: int) -> bytes:
        return self._field_at("code", address, block)

    def exists_at(self, address: bytes, block: int) -> bool:
        return self._field_at("exists", address, block)

    def storage_at(self, address: bytes, key: bytes, block: int) -> bytes:
        entry = _floor(self.slots.get((address, key)), block)
        if entry is None:
            return ZERO_VALUE
        deletions = self.deletions.get(address, ())
        at = bisect_right(deletions, block)
        # A write in the deleting update itself lands after the reset.
        if at and entry[0] < deletions[at - 1]:
            return ZERO_VALUE
        return entry[1]

    def block_hash(self, block: int) -> bytes:
        return self.block_hashes[block]

    def state_bytes(self) -> int:
        """Logical size of the latest state.

        Each existing account counts its address, balance, nonce and code
        bytes; each non-zero slot of a live account counts its key and
        value.
        """
        head = self.block
        total = 0
        live = set()
        for (field, address), history in self.fields.items():
            if field == "exists" and history[-1][1]:
                live.add(address)
                total += 20 + 16 + 8 + len(self.code_at(address, head))
        for (address, key), history in self.slots.items():
            if address in live and self.storage_at(address, key, head) != ZERO_VALUE:
                total += 64
        return total


# -- commitments recomputed from the data files ---------------------------

_LIVE_COMPONENTS = (  # root order of FORMATS.md: file, record size, count field
    ("balances.dat", 16, "accounts"),
    ("nonces.dat", 8, "accounts"),
    ("exists.dat", 1, "accounts"),
    ("reincs.dat", 4, "accounts"),
    ("codes.dat", 8 + 4 + 32, "accounts"),
    ("values.dat", 32, "slots"),
    ("addr.keys", 20, "accounts"),
    ("slots.keys", 20 + 4 + 32, "slots"),
)


def tree_root(data: bytes, record_size: int, count: int, page_size: int) -> bytes:
    """Root of the balanced page hash tree of FORMATS.md over one store file."""
    per_page = page_size // record_size
    leaves = (count + per_page - 1) // per_page
    if leaves == 0:
        return sha256(b"")
    data = data.ljust(leaves * page_size, b"\x00")
    level = [sha256(data[i * page_size : (i + 1) * page_size]) for i in range(leaves)]
    capacity = 1 << (leaves - 1).bit_length()
    level += [sha256(b"")] * (capacity - leaves)
    while len(level) > 1:
        level = [sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def live_root_from_files(live_dir: Path) -> bytes:
    """Worldstate root of a flushed LiveDb directory, recomputed from its files."""
    live_dir = Path(live_dir)
    meta = json.loads((live_dir / "meta.json").read_text())
    page_size = meta["page_size"]
    roots = [
        tree_root((live_dir / name).read_bytes(), size, meta[count], page_size)
        for name, size, count in _LIVE_COMPONENTS
    ]
    return sha256(b"".join(roots))
