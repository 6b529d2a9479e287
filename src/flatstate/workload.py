"""Deterministic synthetic workloads and the block-diff stream file format.

The generator stands in for recorded chain traffic: account popularity
follows a Zipf-like curve so a small hot set dominates, most slot writes
revisit existing keys, and a configurable fraction of transactions
deletes (and later recreates) accounts. The same spec always produces a
byte-identical diff stream, so workload files replay identically across
machines.
"""

from __future__ import annotations

import itertools
import random
import struct
from dataclasses import dataclass
from pathlib import Path

from .digest import digest
from .errors import FormatError
from .types import (
    ADDRESS_SIZE,
    BALANCE_SIZE,
    KEY_SIZE,
    NONCE_SIZE,
    VALUE_SIZE,
    AccountUpdate,
    BlockDiff,
)

MAGIC = b"FSWL"
VERSION = 1
_HEADER = struct.Struct(">4sHQQIIIdd")
_HOT_KEYS = 64
_ZIPF_EXPONENT = 1.1
_CODE_RATIO = 0.02
_ZERO_VALUE_RATIO = 0.05
_FLAG_BITS = 0b11  # bit0 deleted, bit1 created
_PRESENCE_BITS = 0b111  # bit0 balance, bit1 nonce, bit2 code
_SLOT_SIZE = KEY_SIZE + VALUE_SIZE


@dataclass(frozen=True)
class WorkloadSpec:
    seed: int
    blocks: int
    accounts: int
    txs_per_block: int
    slot_writes_per_tx: int
    new_key_ratio: float
    delete_ratio: float

    def __post_init__(self):
        if self.blocks < 0 or self.accounts < 1 or self.txs_per_block < 0 or self.slot_writes_per_tx < 0:
            raise FormatError(f"invalid workload spec {self}")
        for ratio in (self.new_key_ratio, self.delete_ratio):
            if not 0.0 <= ratio <= 1.0:
                raise FormatError(f"ratios must lie in [0, 1], got {ratio}")


def account_address(index: int) -> bytes:
    return digest(b"addr" + index.to_bytes(8, "big"))[:ADDRESS_SIZE]


def slot_key(address: bytes, index: int) -> bytes:
    return digest(b"slot" + address + index.to_bytes(8, "big"))[:KEY_SIZE]


def generate(spec: WorkloadSpec):
    """Yield the canonical BlockDiff stream for ``spec``."""
    rng = random.Random(spec.seed)
    addresses = [account_address(i) for i in range(spec.accounts)]
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** _ZIPF_EXPONENT for rank in range(spec.accounts)))
    alive: set[bytes] = set()
    nonces: dict[bytes, int] = {}
    key_counts: dict[bytes, int] = {}

    def pick_account() -> bytes:
        return addresses[rng.choices(range(spec.accounts), cum_weights=weights, k=1)[0]]

    for block in range(1, spec.blocks + 1):
        builders: dict[bytes, dict] = {}
        deleted: set[bytes] = set()
        for _ in range(spec.txs_per_block):
            address = pick_account()
            if address in deleted:
                continue
            if address in alive and address not in builders and rng.random() < spec.delete_ratio:
                builders[address] = {"deleted": True}
                deleted.add(address)
                alive.discard(address)
                nonces[address] = 0
                key_counts[address] = 0
                continue
            builder = builders.setdefault(address, {"slots": {}})
            if address not in alive:
                builder["created"] = True
                alive.add(address)
            nonces[address] = nonces.get(address, 0) + 1
            builder["nonce"] = nonces[address]
            builder["balance"] = rng.getrandbits(BALANCE_SIZE * 4)
            if rng.random() < _CODE_RATIO:
                builder["code"] = rng.randbytes(rng.randint(1, 512))
            for _ in range(spec.slot_writes_per_tx):
                known = key_counts.get(address, 0)
                if known == 0 or rng.random() < spec.new_key_ratio:
                    key_index = known
                    key_counts[address] = known + 1
                else:
                    key_index = rng.randrange(min(known, _HOT_KEYS))
                if rng.random() < _ZERO_VALUE_RATIO:
                    value = b"\x00" * VALUE_SIZE
                else:
                    value = rng.getrandbits(VALUE_SIZE * 8 - 1).to_bytes(VALUE_SIZE, "big")
                builder["slots"][slot_key(address, key_index)] = value
        updates = tuple(
            AccountUpdate(
                address=address,
                created=builder.get("created", False),
                deleted=builder.get("deleted", False),
                balance=builder.get("balance"),
                nonce=builder.get("nonce"),
                code=builder.get("code"),
                slots=tuple(builder.get("slots", {}).items()),
            )
            for address, builder in builders.items()
        )
        yield BlockDiff(block=block, updates=updates)


# -- diff stream codec -----------------------------------------------------
#
# Unlike the canonical hash encoding, the stream codec keeps full code
# bodies so a workload file can be replayed.


def encode_diff(diff: BlockDiff) -> bytes:
    parts = [diff.block.to_bytes(8, "big"), len(diff.updates).to_bytes(4, "big")]
    for update in diff.updates:
        flags = (1 if update.deleted else 0) | (2 if update.created else 0)
        presence = (
            (1 if update.balance is not None else 0)
            | (2 if update.nonce is not None else 0)
            | (4 if update.code is not None else 0)
        )
        parts.append(update.address + bytes([flags, presence]))
        if update.balance is not None:
            parts.append(update.balance.to_bytes(BALANCE_SIZE, "big"))
        if update.nonce is not None:
            parts.append(update.nonce.to_bytes(NONCE_SIZE, "big"))
        if update.code is not None:
            parts.append(len(update.code).to_bytes(4, "big") + update.code)
        parts.append(len(update.slots).to_bytes(4, "big"))
        for key, value in update.slots:
            parts.append(key + value)
    return b"".join(parts)


def decode_diff(data: bytes) -> BlockDiff:
    if type(data) is not bytes:
        data = bytes(data)
    size = len(data)
    if size < 12:
        raise FormatError("truncated diff record")
    block = int.from_bytes(data[0:8], "big")
    count = int.from_bytes(data[8:12], "big")
    offset = 12
    updates = []
    for _ in range(count):
        head = offset + ADDRESS_SIZE + 2
        if head > size:
            raise FormatError("truncated diff record")
        flags = data[head - 2]
        presence = data[head - 1]
        if flags & ~_FLAG_BITS or presence & ~_PRESENCE_BITS:
            raise FormatError(f"unknown flag bits {flags:#04x}/{presence:#04x} in diff record")
        address = data[offset : head - 2]
        offset = head
        balance = nonce = code = None
        if presence & 1:
            end = offset + BALANCE_SIZE
            if end > size:
                raise FormatError("truncated diff record")
            balance = int.from_bytes(data[offset:end], "big")
            offset = end
        if presence & 2:
            end = offset + NONCE_SIZE
            if end > size:
                raise FormatError("truncated diff record")
            nonce = int.from_bytes(data[offset:end], "big")
            offset = end
        if presence & 4:
            if offset + 4 > size:
                raise FormatError("truncated diff record")
            end = offset + 4 + int.from_bytes(data[offset : offset + 4], "big")
            if end > size:
                raise FormatError("truncated diff record")
            code = data[offset + 4 : end]
            offset = end
        if offset + 4 > size:
            raise FormatError("truncated diff record")
        end = offset + 4 + int.from_bytes(data[offset : offset + 4], "big") * _SLOT_SIZE
        if end > size:
            raise FormatError("truncated diff record")
        slots = tuple(
            [(data[at : at + KEY_SIZE], data[at + KEY_SIZE : at + _SLOT_SIZE]) for at in range(offset + 4, end, _SLOT_SIZE)]
        )
        offset = end
        updates.append(
            AccountUpdate(
                address=address,
                deleted=bool(flags & 1),
                created=bool(flags & 2),
                balance=balance,
                nonce=nonce,
                code=code,
                slots=slots,
            )
        )
    if offset != size:
        raise FormatError(f"{size - offset} trailing bytes after diff record")
    return BlockDiff(block=block, updates=tuple(updates))


def write_workload(path: Path, spec: WorkloadSpec, diffs=None) -> int:
    """Write the length-prefixed diff stream; returns the block count."""
    if diffs is None:
        diffs = generate(spec)
    blocks = 0
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC,
                VERSION,
                spec.seed,
                spec.blocks,
                spec.accounts,
                spec.txs_per_block,
                spec.slot_writes_per_tx,
                spec.new_key_ratio,
                spec.delete_ratio,
            )
        )
        for diff in diffs:
            record = encode_diff(diff)
            fh.write(len(record).to_bytes(4, "big"))
            fh.write(record)
            blocks += 1
    return blocks


def read_spec(path: Path) -> WorkloadSpec:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
    return _parse_header(header, path)


def read_workload(path: Path):
    """Yield the BlockDiff stream stored in ``path``."""
    with open(path, "rb") as fh:
        _parse_header(fh.read(_HEADER.size), path)
        while True:
            prefix = fh.read(4)
            if not prefix:
                return
            if len(prefix) != 4:
                raise FormatError(f"truncated length prefix in {path}")
            length = int.from_bytes(prefix, "big")
            record = fh.read(length)
            if len(record) != length:
                raise FormatError(f"truncated diff record in {path}")
            yield decode_diff(record)


def _parse_header(header: bytes, path: Path) -> WorkloadSpec:
    if len(header) != _HEADER.size:
        raise FormatError(f"{path} is too short to be a workload file")
    magic, version, seed, blocks, accounts, txs, writes, new_ratio, delete_ratio = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FormatError(f"{path} is not a workload file (bad magic {magic!r})")
    if version != VERSION:
        raise FormatError(f"unsupported workload version {version} in {path}")
    return WorkloadSpec(
        seed=seed,
        blocks=blocks,
        accounts=accounts,
        txs_per_block=txs,
        slot_writes_per_tx=writes,
        new_key_ratio=new_ratio,
        delete_ratio=delete_ratio,
    )
