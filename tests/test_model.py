"""LiveDb and ArchiveDb driven together through random schedules against the reference oracle.

Every size constant sits at an extreme at once: a page cache of two
pages (two schedules: 64, more than a block dirties, so LiveDb commits
only every few blocks), a key memo of 0, 2 or 8 keys, commit batches of
1 or 3 blocks, a merge of every 2 runs that writes 1 or 3 entries of
each victim at a time, a fence at every run entry (one schedule), and
pages of 256 or 4096 bytes. Each step, drawn with stdlib ``random`` from
a fixed seed, applies the next block to both databases, reads at the
head, reads history, flushes, closes both cleanly and reopens them, or
closes LiveDb uncleanly (no flush, as a killed process would) and
reopens it. Every read must equal the oracle's, and every reopen must
reproduce the root and the block hash recorded at its block. An unclean
reopen must land on a committed block B, no older than the last flush,
whose reads all equal the oracle's at B; the blocks after B are then fed
again, each to the root it had at its first feed.
"""

import random

import pytest

from flatstate.archive import ArchiveDb
from flatstate.livedb import LiveDb
from flatstate.oracle import ReferenceOracle
from flatstate.types import VALUE_SIZE, ZERO_VALUE, AccountUpdate, BlockDiff

from util import addr, key, scratch_block_hashes

ADDRESSES = [addr(n) for n in range(1, 13)]  # few, so accounts are deleted, re-created and overwritten
KEYS = [key(n) for n in range(1, 9)]
STEPS = 50
STEP_WEIGHTS = {"apply": 5, "head": 2, "history": 2, "flush": 1, "reopen": 1, "unclean": 1}
# The constants every schedule sets, unless it names a value of its own.
SHARED = {"archive.MERGE_FANOUT": 2, "archive.MERGE_CHUNK": 1}
# (seed, page size, page-cache pages, the flatstate constants it sets); an id names the cache if not 2 pages,
# then any constant beyond the memo and the batch
SCHEDULES = [
    pytest.param(1, 256, 2, {"index.KEYS_REMEMBERED": 0, "archive.BATCH_BLOCKS": 1}, id="1-256-0-1"),
    pytest.param(2, 4096, 2, {"index.KEYS_REMEMBERED": 8, "archive.BATCH_BLOCKS": 3}, id="2-4096-8-3"),
    pytest.param(3, 256, 64, {"index.KEYS_REMEMBERED": 2, "archive.BATCH_BLOCKS": 1}, id="3-256-2-1-64"),
    pytest.param(
        4,
        4096,
        64,
        {"index.KEYS_REMEMBERED": 2, "archive.BATCH_BLOCKS": 3, "archive.MERGE_CHUNK": 3, "archive.FENCE_STRIDE": 1},
        id="4-4096-2-3-64-chunk3-fence1",
    ),
]


def random_block(rng: random.Random, block: int) -> BlockDiff:
    updates = []
    for address in rng.sample(ADDRESSES, rng.randint(0, 4)):
        deleted = rng.random() < 0.15
        slots = {slot_key: ZERO_VALUE if rng.random() < 0.2 else rng.randbytes(VALUE_SIZE) for slot_key in rng.sample(KEYS, rng.randint(0, 3))}
        updates.append(
            AccountUpdate(
                address=address,
                created=not deleted and rng.random() < 0.3,
                deleted=deleted,
                balance=rng.getrandbits(64) if rng.random() < 0.6 else None,
                nonce=rng.getrandbits(32) if rng.random() < 0.4 else None,
                code=rng.randbytes(rng.randint(0, 40)) if rng.random() < 0.15 else None,
                slots=tuple(slots.items()),
            )
        )
    return BlockDiff(block=block, updates=tuple(updates))


def check_reads(rng: random.Random, read, oracle: ReferenceOracle, block: int, addresses: int = 3, keys: int = 2) -> None:
    """``read(kind, *args)`` answers like the oracle at ``block`` for a few random accounts and slots."""
    for address in rng.sample(ADDRESSES, addresses):
        assert read("balance", address) == oracle.balance_at(address, block)
        assert read("nonce", address) == oracle.nonce_at(address, block)
        assert read("code", address) == oracle.code_at(address, block)
        assert read("exists", address) == oracle.exists_at(address, block)
        for slot_key in rng.sample(KEYS, keys):
            assert read("storage", address, slot_key) == oracle.storage_at(address, slot_key, block)


def live_reader(live: LiveDb):
    reads = {"balance": live.get_balance, "nonce": live.get_nonce, "code": live.get_code, "exists": live.account_exists, "storage": live.get_storage}
    return lambda kind, *args: reads[kind](*args)


def archive_reader(archive: ArchiveDb, block: int):
    reads = {
        "balance": archive.get_balance_at,
        "nonce": archive.get_nonce_at,
        "code": archive.get_code_at,
        "exists": archive.account_exists_at,
        "storage": archive.get_storage_at,
    }
    return lambda kind, *args: reads[kind](*args, block)


@pytest.mark.parametrize("seed, page_size, cache_pages, constants", SCHEDULES)
def test_both_databases_match_the_oracle_through_a_random_schedule(tmp_path, monkeypatch, seed, page_size, cache_pages, constants):
    monkeypatch.setattr("flatstate.livedb.CACHE_BYTES", cache_pages * page_size)
    for name, value in {**SHARED, **constants}.items():
        monkeypatch.setattr(f"flatstate.{name}", value)
    rng = random.Random(seed)
    oracle = ReferenceOracle()
    diffs: list[BlockDiff] = []
    live = LiveDb(tmp_path / "live", page_size=page_size)
    archive = ArchiveDb(tmp_path / "archive")
    roots = {0: live.state_root().root}  # block -> root, recorded when the block is applied
    flushed = 0  # the block of the last flush
    behind = 0  # unclean reopens that landed before the current block
    try:
        for _ in range(STEPS):
            step = rng.choices(list(STEP_WEIGHTS), weights=list(STEP_WEIGHTS.values()))[0]
            if step == "apply":
                block_diff = random_block(rng, oracle.block + 1)
                live.apply_block(block_diff)
                archive.append_block(block_diff)
                oracle.apply_block(block_diff)
                diffs.append(block_diff)
                roots[block_diff.block] = live.state_root().root
            elif step == "head":
                check_reads(rng, live_reader(live), oracle, oracle.block)
            elif step == "history":
                block = rng.randint(0, archive.watermark)  # the appender may have published more since
                check_reads(rng, archive_reader(archive, block), oracle, block)
            elif step == "flush":
                live.flush()
                archive.flush()
                assert archive.watermark == oracle.block
                flushed = oracle.block
            elif step == "unclean":
                live._cache.close()  # every file holds the last commit
                live = LiveDb(tmp_path / "live", page_size=page_size)
                committed = live.block
                assert flushed <= committed <= oracle.block
                behind += committed < oracle.block
                assert live.state_root().root == roots[committed]
                check_reads(rng, live_reader(live), oracle, committed, len(ADDRESSES), len(KEYS))
                for block_diff in diffs[committed:]:
                    live.apply_block(block_diff)
                    assert live.state_root().root == roots[block_diff.block]
                check_reads(rng, live_reader(live), oracle, oracle.block, len(ADDRESSES), len(KEYS))
            else:
                live.close()
                archive.close()
                live = LiveDb(tmp_path / "live", page_size=page_size)
                archive = ArchiveDb(tmp_path / "archive")
                flushed = oracle.block
                assert live.block == archive.watermark == oracle.block
                assert live.state_root().root == roots[oracle.block]
                hashes = scratch_block_hashes(diffs)
                assert [archive.block_hash(block) for block in range(oracle.block + 1)] == [hashes[block] for block in range(oracle.block + 1)]
        archive.flush()
        for block in range(oracle.block + 1):
            check_reads(rng, archive_reader(archive, block), oracle, block)
        assert behind or cache_pages == 2  # a roomy cache leaves blocks uncommitted
    finally:
        live.close()
        archive.close()
