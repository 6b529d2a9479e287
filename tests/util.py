"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import flatstate
from flatstate import files
from flatstate.types import (
    ADDRESS_SIZE,
    KEY_SIZE,
    MAX_CODE_SIZE,
    VALUE_SIZE,
    AccountUpdate,
    BlockDiff,
    serialize_update,
)

SRC = Path(flatstate.__file__).resolve().parent.parent


def run_fresh(script, *args):
    """``script`` run in a fresh interpreter, so no module another test imported is loaded yet."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60)


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def addr(n: int) -> bytes:
    return n.to_bytes(ADDRESS_SIZE, "big")


def key(n: int) -> bytes:
    return n.to_bytes(KEY_SIZE, "big")


def val(n: int) -> bytes:
    return n.to_bytes(VALUE_SIZE, "big")


def random_update(rng: random.Random, address: bytes | None = None, max_slots: int = 4) -> AccountUpdate:
    if address is None:
        address = rng.randbytes(ADDRESS_SIZE)
    created = rng.random() < 0.2
    deleted = not created and rng.random() < 0.1
    slot_count = rng.randint(0, max_slots)
    slots = {}
    for _ in range(slot_count):
        slots[rng.randbytes(KEY_SIZE)] = rng.randbytes(VALUE_SIZE)
    return AccountUpdate(
        address=address,
        created=created,
        deleted=deleted,
        balance=rng.getrandbits(100) if rng.random() < 0.6 else None,
        nonce=rng.getrandbits(40) if rng.random() < 0.6 else None,
        code=rng.randbytes(rng.randint(0, min(MAX_CODE_SIZE, 300))) if rng.random() < 0.2 else None,
        slots=tuple(sorted(slots.items())),
    )


def random_diff(rng: random.Random, block: int, max_updates: int = 6) -> BlockDiff:
    seen = set()
    updates = []
    for _ in range(rng.randint(0, max_updates)):
        update = random_update(rng)
        if update.address in seen:
            continue
        seen.add(update.address)
        updates.append(update)
    return BlockDiff(block=block, updates=tuple(sorted(updates, key=lambda u: u.address)))


def remembered_keys(index) -> int:
    """Entries in a ``LinearHashIndex``'s key memo, both generations counted."""
    return len(index._young) + len(index._old)


def scratch_block_hashes(diffs):
    """Independent recomputation of the per-block hash chain."""
    account_hash = {}
    hashes = {0: b"\x00" * 32}
    prev = b"\x00" * 32
    for block_diff in diffs:
        parts = []
        for update in block_diff.updates:
            update_hash = sha(serialize_update(update))
            combined = sha(account_hash.get(update.address, b"\x00" * 32) + update_hash)
            account_hash[update.address] = combined
            parts.append(combined)
        prev = sha(prev + b"".join(parts))
        hashes[block_diff.block] = prev
    return hashes


def commit(cache, depot=None) -> None:
    """Commit as ``LiveDb.flush`` does, less trees and metadata: ``depot``'s pending bodies, then every dirty page of
    ``cache``, through ``files.commit``; only then are they marked written."""
    files.commit((depot.blob_writes() if depot else []) + cache.page_writes())
    if depot:
        depot.mark_written()
    cache.mark_written()
