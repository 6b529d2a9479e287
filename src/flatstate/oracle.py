"""Naive full-history worldstate used as the ground truth in tests.

Keeps one immutable snapshot per block, built by copy-and-apply of each
block diff. Obviously correct and obviously slow; every equivalence
property of the real stores is phrased against this implementation.
Snapshots share unchanged account objects between blocks, which is
invisible to queries.
"""

from __future__ import annotations

from .errors import BoundsError, SequenceError
from .types import BlockDiff, ZERO_VALUE


class OracleAccount:
    __slots__ = ("exists", "balance", "nonce", "code", "storage")

    def __init__(self):
        self.exists = False
        self.balance = 0
        self.nonce = 0
        self.code = b""
        self.storage: dict[bytes, bytes] = {}

    def copy(self) -> "OracleAccount":
        dup = OracleAccount()
        dup.exists = self.exists
        dup.balance = self.balance
        dup.nonce = self.nonce
        dup.code = self.code
        dup.storage = dict(self.storage)
        return dup


class ReferenceOracle:
    def __init__(self):
        self._snapshots: list[dict[bytes, OracleAccount]] = [{}]

    @property
    def block(self) -> int:
        return len(self._snapshots) - 1

    def apply_block(self, diff: BlockDiff) -> None:
        if diff.block != self.block + 1:
            raise SequenceError(f"expected block {self.block + 1}, got {diff.block}")
        snapshot = dict(self._snapshots[-1])
        for update in diff.updates:
            if update.deleted:
                account = OracleAccount()
            else:
                prior = snapshot.get(update.address)
                account = prior.copy() if prior is not None else OracleAccount()
            if update.created:
                account.exists = True
            if update.balance is not None:
                account.balance = update.balance
            if update.nonce is not None:
                account.nonce = update.nonce
            if update.code is not None:
                account.code = update.code
            for key, value in update.slots:
                account.storage[key] = value
            snapshot[update.address] = account
        self._snapshots.append(snapshot)

    def _account_at(self, address: bytes, block: int) -> OracleAccount | None:
        if block < 0 or block > self.block:
            raise BoundsError(f"block {block} outside recorded history 0..{self.block}")
        return self._snapshots[block].get(address)

    def balance_at(self, address: bytes, block: int) -> int:
        account = self._account_at(address, block)
        return account.balance if account else 0

    def nonce_at(self, address: bytes, block: int) -> int:
        account = self._account_at(address, block)
        return account.nonce if account else 0

    def code_at(self, address: bytes, block: int) -> bytes:
        account = self._account_at(address, block)
        return account.code if account else b""

    def exists_at(self, address: bytes, block: int) -> bool:
        account = self._account_at(address, block)
        return account.exists if account else False

    def storage_at(self, address: bytes, key: bytes, block: int) -> bytes:
        account = self._account_at(address, block)
        if account is None:
            return ZERO_VALUE
        return account.storage.get(key, ZERO_VALUE)

    # Head queries mirror the live database's read surface.

    def balance(self, address: bytes) -> int:
        return self.balance_at(address, self.block)

    def nonce(self, address: bytes) -> int:
        return self.nonce_at(address, self.block)

    def code(self, address: bytes) -> bytes:
        return self.code_at(address, self.block)

    def exists(self, address: bytes) -> bool:
        return self.exists_at(address, self.block)

    def storage(self, address: bytes, key: bytes) -> bytes:
        return self.storage_at(address, key, self.block)
