"""Archive database: floor queries, incremental hashes, concurrency, merging."""

import dataclasses
import errno
import gc
import hashlib
import json
import mmap
import os
import pathlib
import random
import shutil
import sys
import threading
import time
import tracemalloc

import pytest

from flatstate import archive as archive_module
from flatstate import files as files_module
from flatstate.archive import FENCE_STRIDE, FILTER_BITS_PER_KEY, TABLES, ArchiveDb, RunRef, filter_bits
from flatstate.digest import HASH_SIZE
from flatstate.errors import BoundsError, CorruptionError, SequenceError, StorageError, UnavailableError
from flatstate.oracle import ReferenceOracle
from flatstate.server import handle_request
from flatstate.types import REINC_SIZE, AccountUpdate, BlockDiff, ZERO_VALUE
from flatstate.workload import WorkloadSpec, generate

from util import addr, key, scratch_block_hashes, sha, val

NO_MERGE = 1 << 30  # a merge fanout no test reaches


def diff(block, *updates):
    return BlockDiff(block=block, updates=tuple(updates))


class ReleaseSpy(mmap.mmap):
    """A run mapping that records each (start, length) it hands back to the OS."""

    def __init__(self, *args, **kwargs):
        self.released = []

    def madvise(self, option, start=0, length=None):
        assert option == mmap.MADV_DONTNEED
        length = len(self) - start if length is None else length
        self.released.append((start, length))
        super().madvise(option, start, length)


def patch_appender(monkeypatch, batch_blocks, merge_fanout):
    """Blocks per commit batch and runs per merge for archives this test opens."""
    monkeypatch.setattr(archive_module, "BATCH_BLOCKS", batch_blocks)
    monkeypatch.setattr(archive_module, "MERGE_FANOUT", merge_fanout)


def feed(archive, diffs):
    for block_diff in diffs:
        archive.append_block(block_diff)
    archive.flush()


def example_table_diffs():
    """Blocks 1..17 reproducing the storage change-log example."""
    a123, a140 = addr(0x123), addr(0x140)
    diffs = []
    for block in range(1, 18):
        if block == 8:
            updates = (AccountUpdate(address=a140, created=True, slots=((key(1), val(100)),)),)
        elif block == 14:
            updates = (
                AccountUpdate(address=a123, created=True, slots=((key(1), val(100)), (key(4), val(80)))),
            )
        elif block == 16:
            updates = (AccountUpdate(address=a123, slots=((key(1), val(110)),)),)
        elif block == 17:
            updates = (AccountUpdate(address=a123, slots=((key(4), val(90)),)),)
        else:
            updates = ()
        diffs.append(diff(block, *updates))
    return diffs


def test_change_log_example_queries(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, example_table_diffs())
    a123, a140 = addr(0x123), addr(0x140)
    # Query between two changes floors to the older entry.
    assert archive.get_storage_at(a123, key(1), 15) == val(100)
    assert archive.get_storage_at(a123, key(1), 16) == val(110)
    assert archive.get_storage_at(a123, key(4), 17) == val(90)
    assert archive.get_storage_at(a123, key(4), 16) == val(80)
    assert archive.get_storage_at(a140, key(1), 8) == val(100)
    assert archive.get_storage_at(a140, key(1), 17) == val(100)
    # Before the first change there is nothing to see.
    assert archive.get_storage_at(a123, key(1), 13) == ZERO_VALUE
    assert archive.get_storage_at(addr(0x999), key(1), 17) == ZERO_VALUE
    archive.close()


def test_attribute_floor_semantics_are_inclusive(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    feed(
        archive,
        [
            diff(1, AccountUpdate(address=addr(1), created=True, balance=10, nonce=1, code=b"aa")),
            diff(2),
            diff(3, AccountUpdate(address=addr(1), balance=20)),
        ],
    )
    assert archive.get_balance_at(addr(1), 0) == 0
    assert archive.get_balance_at(addr(1), 1) == 10  # visible from its own block
    assert archive.get_balance_at(addr(1), 2) == 10
    assert archive.get_balance_at(addr(1), 3) == 20
    assert archive.get_nonce_at(addr(1), 2) == 1
    assert archive.get_code_at(addr(1), 3) == b"aa"
    assert archive.account_exists_at(addr(1), 0) is False
    assert archive.account_exists_at(addr(1), 1) is True
    archive.close()


def test_deletion_masks_history_and_recreation_starts_clean(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    feed(
        archive,
        [
            diff(1, AccountUpdate(address=addr(1), created=True, balance=7, slots=((key(1), val(5)),))),
            diff(2, AccountUpdate(address=addr(1), deleted=True)),
            diff(3, AccountUpdate(address=addr(1), created=True)),
            diff(4, AccountUpdate(address=addr(1), slots=((key(2), val(9)),))),
        ],
    )
    assert archive.get_storage_at(addr(1), key(1), 1) == val(5)
    assert archive.get_storage_at(addr(1), key(1), 2) == ZERO_VALUE
    assert archive.get_storage_at(addr(1), key(1), 4) == ZERO_VALUE  # masked by reincarnation
    assert archive.get_storage_at(addr(1), key(2), 4) == val(9)
    assert archive.get_balance_at(addr(1), 2) == 0
    assert archive.get_balance_at(addr(1), 4) == 0
    assert archive.account_exists_at(addr(1), 2) is False
    assert archive.account_exists_at(addr(1), 3) is True
    archive.close()


def test_block_hashes_match_scratch_recomputation(tmp_path):
    diffs = example_table_diffs()
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs)
    expected = scratch_block_hashes(diffs)
    for block in range(0, 18):
        assert archive.block_hash(block) == expected[block]
    archive.close()


def test_empty_block_chains_previous_hash(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=addr(1), balance=1)), diff(2)])
    assert archive.block_hash(2) == hashlib.sha256(archive.block_hash(1)).digest()
    assert archive.watermark == 2
    archive.close()


def test_perturbed_update_changes_block_hash(tmp_path):
    one = ArchiveDb(tmp_path / "one")
    two = ArchiveDb(tmp_path / "two")
    feed(one, [diff(1, AccountUpdate(address=addr(1), balance=5))])
    feed(two, [diff(1, AccountUpdate(address=addr(1), balance=6))])
    assert one.block_hash(1) != two.block_hash(1)
    one.close()
    two.close()


def test_hash_determinism_across_instances(tmp_path, monkeypatch):
    spec = WorkloadSpec(seed=5, blocks=30, accounts=40, txs_per_block=4, slot_writes_per_tx=2, new_key_ratio=0.5, delete_ratio=0.05)
    one = ArchiveDb(tmp_path / "one")
    feed(one, generate(spec))
    # Merges run only while appending, so the second archive merges at fanout 2 alone.
    monkeypatch.setattr(archive_module, "MERGE_FANOUT", 2)
    two = ArchiveDb(tmp_path / "two")
    feed(two, generate(spec))
    for block in range(spec.blocks + 1):
        assert one.block_hash(block) == two.block_hash(block)
    one.close()
    two.close()


def test_sequencing_and_watermark_errors(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    with pytest.raises(SequenceError):
        archive.append_block(diff(2))
    feed(archive, [diff(1, AccountUpdate(address=addr(1), code=b"aa"))])
    with pytest.raises(UnavailableError):
        archive.get_storage_at(addr(1), key(1), 2)
    with pytest.raises(UnavailableError):
        archive.block_hash(2)
    with pytest.raises(BoundsError, match="negative block -1"):
        archive.get_balance_at(addr(1), -1)
    archive.close()
    with pytest.raises(StorageError, match="closed"):
        archive.block_hash(1)
    with pytest.raises(StorageError, match="closed"):
        archive.get_code_at(addr(1), 1)


def test_runs_are_immutable_and_grow_without_merging(tmp_path, monkeypatch):
    monkeypatch.setattr(archive_module, "MERGE_FANOUT", NO_MERGE)
    archive = ArchiveDb(tmp_path / "archive")
    spec = WorkloadSpec(seed=2, blocks=20, accounts=20, txs_per_block=3, slot_writes_per_tx=2, new_key_ratio=0.5, delete_ratio=0.0)
    snapshots = {}
    seen_files = set()
    for block_diff in generate(spec):
        archive.append_block(block_diff)
        archive.flush()
        for name, files in archive.run_files().items():
            for file in files:
                data = (tmp_path / "archive" / file).read_bytes()
                if file in snapshots:
                    assert snapshots[file] == data, f"run {file} was modified in place"
                snapshots[file] = data
                seen_files.add(file)
    assert set().union(*archive.run_files().values()) == seen_files  # nothing dropped
    archive.close()


def run_entries(table, run):
    """Every entry of ``run``, in file order."""
    size = table.entry_size
    return [run.data[at : at + size] for at in range(0, len(run.data), size)]


def test_merging_preserves_entries_and_answers(tmp_path, monkeypatch):
    spec = WorkloadSpec(seed=3, blocks=40, accounts=30, txs_per_block=4, slot_writes_per_tx=3, new_key_ratio=0.4, delete_ratio=0.04)
    diffs = list(generate(spec))
    oracle = ReferenceOracle()
    changes = {"storage": 0, "balance": 0, "nonce": 0, "code": 0, "state": 0, "accthash": 0}
    touched = set()
    for block_diff in diffs:
        oracle.apply_block(block_diff)
        for update in block_diff.updates:
            changes["storage"] += len(update.slots)
            changes["balance"] += update.balance is not None or update.deleted
            changes["nonce"] += update.nonce is not None or update.deleted
            changes["code"] += update.code is not None or update.deleted
            changes["state"] += update.created or update.deleted
            changes["accthash"] += 1
            for slot_key, _ in update.slots:
                touched.add((update.address, slot_key))
    # Ten batches of four blocks: merges on three levels under fanout 2.
    monkeypatch.setattr(archive_module, "BATCH_BLOCKS", 4)
    # Merges run only while appending, so each archive is fed under its own fanout and chunk.
    monkeypatch.setattr(archive_module, "MERGE_FANOUT", NO_MERGE)
    plain = ArchiveDb(tmp_path / "plain")
    feed(plain, diffs)
    plain_entries = {
        name: sorted(entry for run in table.runs for entry in run_entries(table, run)) for name, table in plain._tables.items()
    }
    pairs = sorted(touched)
    monkeypatch.setattr(archive_module, "MERGE_FANOUT", 2)
    for chunk in (1, 3, NO_MERGE):  # the last is larger than every victim: one chunk per merge
        monkeypatch.setattr(archive_module, "MERGE_CHUNK", chunk)
        merged = ArchiveDb(tmp_path / f"merged-{chunk}")
        feed(merged, diffs)
        # Entry counts equal change counts exactly: history grows with change
        # volume, never with live-state size, and merging drops nothing.
        for table, expected in changes.items():
            assert merged.entry_count(table) == plain.entry_count(table) == expected, table
        assert len(merged.run_files()["storage"]) < len(plain.run_files()["storage"])
        assert max(run.level for run in merged._tables["storage"].runs) == 3
        for name, table in merged._tables.items():
            entries = []
            for run in table.runs:
                rows = run_entries(table, run)
                run_keys = [entry[: table.key_size] for entry in rows]
                assert all(a < b for a, b in zip(run_keys, run_keys[1:])), (chunk, run.file)
                entries += rows
            assert sorted(entries) == plain_entries[name], (chunk, name)
        rng = random.Random(0)
        for _ in range(1_500):
            address, slot_key = rng.choice(pairs)
            block = rng.randint(0, spec.blocks)
            expected = oracle.storage_at(address, slot_key, block)
            assert merged.get_storage_at(address, slot_key, block) == expected
            assert plain.get_storage_at(address, slot_key, block) == expected
        merged.close()
    plain.close()


@pytest.mark.parametrize("chunk", [7, 50])
def test_merge_releases_only_whole_pages_of_consumed_entries(tmp_path, monkeypatch, chunk):
    """After each chunk, a victim's pages up to its cursor are released, never the page of its next entry."""
    monkeypatch.setattr(archive_module, "MERGE_CHUNK", chunk)
    table = archive_module._SortedTable(TABLES["storage"])
    size, key_size = table.entry_size, table.key_size
    rng = random.Random(5)
    victims, owner = [], {}
    for block, count in ((1, 300), (2, 170), (3, 410)):
        rows = sorted(
            rng.randbytes(key_size - 8) + block.to_bytes(8, "big") + rng.randbytes(size - key_size) for _ in range(count)
        )
        owner.update((row, len(victims)) for row in rows)
        path = tmp_path / f"storage-{block}.run"
        path.write_bytes(b"".join(rows))
        with open(path, "rb") as fh:
            data = ReleaseSpy(fh.fileno(), 0, access=mmap.ACCESS_READ)
        assert len(data) > 3 * mmap.PAGESIZE
        victims.append(RunRef(path.name, 0, count, block, block, data))
    cursors = [0] * len(victims)

    def check_released():
        for run, cursor in zip(victims, cursors):
            # Page-aligned, back to back from 0 up to the page that holds the victim's next entry.
            expected_end = cursor * size // mmap.PAGESIZE * mmap.PAGESIZE
            at = 0
            for start, length in run.data.released:
                assert start == at and length > 0 and length % mmap.PAGESIZE == 0
                at += length
            assert at == expected_end

    merged = []
    for piece in table.merged_chunks(victims):  # each step releases the previous chunk's pages first
        check_released()
        rows = [piece[at : at + size] for at in range(0, len(piece), size)]
        for row in rows:
            cursors[owner[row]] += 1
        merged += rows
    check_released()
    assert cursors == [run.count for run in victims]
    assert merged == sorted(owner)
    assert sum(len(run.data.released) for run in victims) > len(victims)
    for run in victims:
        run.data.close()


@pytest.mark.parametrize("layout", ["interleaved", "disjoint"])
def test_merge_memory_is_bounded_by_the_chunk(tmp_path, monkeypatch, layout):
    """Merging four runs of 5,000 storage entries holds a few chunks in memory, never the victims.

    Interleaved runs write the same accounts; disjoint ones each write their
    own, so every key of a later run sorts after every key of an earlier one.
    """
    chunk, fanout = 64, 4
    patch_appender(monkeypatch, batch_blocks=1, merge_fanout=fanout)
    monkeypatch.setattr(archive_module, "MERGE_CHUNK", chunk)
    rng = random.Random(17)
    diffs = []
    for block in range(1, fanout + 1):
        first = 1000 * block if layout == "disjoint" else 0
        updates = (
            AccountUpdate(
                address=addr(first + account),
                created=layout == "disjoint" or block == 1,
                slots=tuple(sorted((key(rng.getrandbits(64)), val(block)) for _ in range(50))),
            )
            for account in range(100)
        )
        diffs.append(diff(block, *updates))
    peaks = []
    maybe_merge = ArchiveDb._maybe_merge

    def measured_merge(self, table):
        if table != "storage":
            return maybe_merge(self, table)
        tracemalloc.start()
        try:
            maybe_merge(self, table)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(ArchiveDb, "_maybe_merge", measured_merge)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs)
    storage = archive._tables["storage"]
    assert [(run.level, run.count) for run in storage.runs] == [(1, fanout * 5_000)]
    victim_bytes = fanout * 5_000 * storage.entry_size
    # A chunk holds at most `chunk` entries of each victim. The merge keeps
    # their slices, the list of them, the sort's scratch space, their joined
    # copy and the previous chunk's joined copy, each at most about that size.
    bound = 6 * fanout * chunk * storage.entry_size
    assert bound < victim_bytes / 8
    assert len(peaks) == fanout and peaks[-1] < bound, (peaks, bound)
    archive.close()


def test_matches_oracle_on_random_history(tmp_path):
    spec = WorkloadSpec(seed=8, blocks=50, accounts=60, txs_per_block=5, slot_writes_per_tx=3, new_key_ratio=0.35, delete_ratio=0.06)
    archive = ArchiveDb(tmp_path / "archive")
    oracle = ReferenceOracle()
    touched_addresses = set()
    touched_pairs = set()
    for block_diff in generate(spec):
        archive.append_block(block_diff)
        oracle.apply_block(block_diff)
        for update in block_diff.updates:
            touched_addresses.add(update.address)
            for slot_key, _ in update.slots:
                touched_pairs.add((update.address, slot_key))
    archive.flush()
    rng = random.Random(1)
    addresses = sorted(touched_addresses)
    pairs = sorted(touched_pairs)
    for _ in range(1_000):
        block = rng.randint(0, spec.blocks)
        address = rng.choice(addresses)
        assert archive.get_balance_at(address, block) == oracle.balance_at(address, block)
        assert archive.get_nonce_at(address, block) == oracle.nonce_at(address, block)
        assert archive.get_code_at(address, block) == oracle.code_at(address, block)
        assert archive.account_exists_at(address, block) == oracle.exists_at(address, block)
        address, slot_key = rng.choice(pairs)
        assert archive.get_storage_at(address, slot_key, block) == oracle.storage_at(address, slot_key, block)
    archive.close()


def test_reopen_preserves_history_and_hash_chain(tmp_path):
    spec = WorkloadSpec(seed=4, blocks=24, accounts=20, txs_per_block=3, slot_writes_per_tx=2, new_key_ratio=0.5, delete_ratio=0.08)
    diffs = list(generate(spec))
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs[:12])
    half_hash = archive.block_hash(12)
    archive.close()
    reopened = ArchiveDb(tmp_path / "archive")
    assert reopened.watermark == 12
    assert reopened.block_hash(12) == half_hash
    feed(reopened, diffs[12:])
    expected = scratch_block_hashes(diffs)
    for block in range(spec.blocks + 1):
        assert reopened.block_hash(block) == expected[block]
    oracle = ReferenceOracle()
    for block_diff in diffs:
        oracle.apply_block(block_diff)
    rng = random.Random(6)
    for _ in range(300):
        address = addr(rng.randint(0, 50))
        block = rng.randint(0, spec.blocks)
        assert reopened.get_balance_at(address, block) == oracle.balance_at(address, block)
    reopened.close()


def test_account_maps_are_built_by_the_first_append_only(tmp_path, monkeypatch):
    """Opening, querying and closing never scans the tables; the first batch after a reopen scans them once."""
    spec = WorkloadSpec(seed=4, blocks=24, accounts=20, txs_per_block=3, slot_writes_per_tx=2, new_key_ratio=0.5, delete_ratio=0.08)
    diffs = list(generate(spec))
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs[:12])
    archive.close()
    calls = []
    rebuild = ArchiveDb._rebuild_account_maps

    def counting_rebuild(self):
        calls.append(self)
        rebuild(self)

    monkeypatch.setattr(ArchiveDb, "_rebuild_account_maps", counting_rebuild)
    monkeypatch.setattr(mmap, "mmap", ReleaseSpy)
    address, (slot_key, _) = next((u.address, u.slots[0]) for d in diffs[:12] for u in d.updates if u.slots)
    reader = ArchiveDb(tmp_path / "archive")
    for line in (
        f"STORAGE 0x{address.hex()} 0x{slot_key.hex()} 12",
        f"BALANCE 0x{address.hex()} 12",
        f"NONCE 0x{address.hex()} 7",
        f"CODE 0x{address.hex()} 12",
        f"EXISTS 0x{address.hex()} 3",
        "BLOCKHASH 12",
        "WATERMARK",
    ):
        assert handle_request(reader, line).startswith("OK "), line
    reader.account_hash(address, 12)
    reader.entry_count("state")
    reader.run_files()
    reader.close()
    assert calls == []
    assert not [run.file for table in reader._tables.values() for run in table.runs if run.data.released]

    writer = ArchiveDb(tmp_path / "archive")
    opened = {name: list(table.runs) for name, table in writer._tables.items()}
    feed(writer, diffs[12:13])
    assert calls == [writer]
    for name, runs in opened.items():  # the scan released each run it read, whole; no merge ran
        expected = [[(0, len(run.data))] if name in ("state", "accthash") else [] for run in runs]
        assert [run.data.released for run in runs] == expected, name
    feed(writer, diffs[13:])
    assert calls == [writer]
    expected = scratch_block_hashes(diffs)
    assert {block: writer.block_hash(block) for block in range(spec.blocks + 1)} == expected
    writer.close()


def test_torn_meta_is_reported_as_corruption(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, example_table_diffs())
    archive.close()
    meta = tmp_path / "archive" / "meta.json"
    meta.write_bytes(meta.read_bytes()[:20])
    with pytest.raises(CorruptionError, match="meta.json"):
        ArchiveDb(tmp_path / "archive")


def balance_history(directory, monkeypatch):
    """Blocks 1..4 set addr(1)'s balance to the block number, two blocks per run."""
    patch_appender(monkeypatch, batch_blocks=2, merge_fanout=NO_MERGE)
    archive = ArchiveDb(directory)
    feed(archive, [diff(block, AccountUpdate(address=addr(1), balance=block)) for block in range(1, 5)])
    return archive


@pytest.mark.parametrize("damage", ["truncated", "missing", "empty"])
def test_damaged_run_file_is_reported_on_open(tmp_path, monkeypatch, damage):
    balance_history(tmp_path / "archive", monkeypatch).close()
    meta_path = tmp_path / "archive" / "meta.json"
    meta = json.loads(meta_path.read_text())
    run = meta["tables"]["balance"][-1]
    run_path = tmp_path / "archive" / run["file"]
    if damage == "truncated":
        run_path.write_bytes(run_path.read_bytes()[:-5])
    elif damage == "missing":
        run_path.unlink()
    else:  # an empty file listed with no entries
        run_path.write_bytes(b"")
        run["count"] = 0
        meta_path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(CorruptionError, match=run["file"]):
        ArchiveDb(tmp_path / "archive")


def cut_blockhash_file(directory):
    hashes = directory / "blockhash.dat"
    hashes.write_bytes(hashes.read_bytes()[:-HASH_SIZE])
    return "watermark 12"


def cut_last_run(directory):
    """Cut a byte off the last run an open maps, so it fails with every other run mapped."""
    meta = json.loads((directory / "meta.json").read_text())
    run = [runs for runs in meta["tables"].values() if runs][-1][-1]
    (directory / run["file"]).write_bytes((directory / run["file"]).read_bytes()[:-1])
    return run["file"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc")
@pytest.mark.parametrize("damage", [cut_blockhash_file, cut_last_run], ids=["short-blockhash-file", "run-one-byte-short"])
def test_failed_open_releases_what_it_mapped(tmp_path, monkeypatch, damage):
    """An open that fails after mapping runs unmaps them, even while its error, and so its frames, stay referenced."""
    patch_appender(monkeypatch, batch_blocks=2, merge_fanout=NO_MERGE)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(block, AccountUpdate(address=addr(block), created=True, balance=block)) for block in range(1, 13)])
    archive.close()
    message = damage(tmp_path / "archive")
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(CorruptionError, match=message) as raised:
        ArchiveDb(tmp_path / "archive")
    assert raised.value.__traceback__ is not None
    assert len(os.listdir("/proc/self/fd")) == before


def test_short_block_hash_file_is_reported_as_corruption(tmp_path, monkeypatch):
    archive = balance_history(tmp_path / "archive", monkeypatch)
    hashes = tmp_path / "archive" / "blockhash.dat"
    hashes.write_bytes(hashes.read_bytes()[:-1])  # the record of block 4 loses a byte
    assert len(archive.block_hash(3)) == 32
    with pytest.raises(CorruptionError, match="block 4"):
        archive.block_hash(4)
    archive.close()
    with pytest.raises(CorruptionError, match="watermark 4"):
        ArchiveDb(tmp_path / "archive")
    hashes.unlink()
    with pytest.raises(CorruptionError, match="blockhash.dat is missing"):
        ArchiveDb(tmp_path / "archive")
    assert not hashes.exists()  # an existing archive never recreates it


@pytest.mark.parametrize("name", ["blockhash.dat", "codeblob.dat"])
def test_missing_flat_file_is_reported_and_never_created(tmp_path, name):
    directory = tmp_path / "archive"
    archive = ArchiveDb(directory)
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, code=b"\x60\x00"))])
    archive.close()
    (directory / name).unlink()
    before = sorted(path.name for path in directory.iterdir())
    with pytest.raises(CorruptionError, match=f"{name} is missing"):
        ArchiveDb(directory)
    assert sorted(path.name for path in directory.iterdir()) == before


def test_first_batch_cut_short_before_meta_reopens_as_new(tmp_path, monkeypatch):
    diffs = list(generate(SEARCH_SPEC))[:5]
    clean = ArchiveDb(tmp_path / "clean")
    feed(clean, diffs)
    clean.close()

    def killed(path, meta):  # the batch's files are written; the process dies before meta.json
        raise StorageError("killed")

    monkeypatch.setattr(files_module, "write_meta", killed)
    cut = ArchiveDb(tmp_path / "cut")
    for block_diff in diffs:
        cut.append_block(block_diff)
    with pytest.raises(StorageError, match="killed"):
        cut.flush()
    with pytest.raises(StorageError, match="killed"):
        cut.close()
    monkeypatch.undo()
    assert not (tmp_path / "cut" / "meta.json").exists() and list((tmp_path / "cut").glob("*.run"))
    assert (tmp_path / "cut" / "codeblob.dat").stat().st_size > 0
    reopened = ArchiveDb(tmp_path / "cut")
    assert reopened.watermark == 0
    feed(reopened, diffs)
    expected = scratch_block_hashes(diffs)
    assert [reopened.block_hash(block) for block in range(6)] == [expected[block] for block in range(6)]
    reopened.close()
    for name in ("blockhash.dat", "codeblob.dat", "meta.json"):
        assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_code_bodies_are_deduplicated(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    body = b"\xfe" * 200
    feed(
        archive,
        [
            diff(1, AccountUpdate(address=addr(1), code=body)),
            diff(2, AccountUpdate(address=addr(2), code=body)),
        ],
    )
    assert archive.get_code_at(addr(1), 1) == body
    assert archive.get_code_at(addr(2), 2) == body
    blob = (tmp_path / "archive" / "codeblob.dat").read_bytes()
    assert blob.count(body) == 1
    archive.close()


def test_torn_code_record_is_dropped_on_open(tmp_path):
    kept, body = b"\x01" * 50, bytes(range(256)) * 4
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=addr(2), code=kept))])
    archive.close()
    blob = tmp_path / "archive" / "codeblob.dat"
    complete = blob.read_bytes()
    record = sha(body) + len(body).to_bytes(4, "big") + body
    torn = record[: 32 + 4 + 100]  # a crash while appending block 2's code: header and 100 of 1,024 body bytes
    with blob.open("ab") as fh:
        fh.write(torn)
    reopened = ArchiveDb(tmp_path / "archive")
    assert blob.read_bytes() == complete + torn  # opening leaves the file as it is
    # The appender drops the torn record before its first batch, whose record is shorter than the tail.
    short = b"\x02" * 10
    feed(reopened, [diff(2, AccountUpdate(address=addr(3), code=short))])
    complete += sha(short) + len(short).to_bytes(4, "big") + short
    assert blob.read_bytes() == complete
    feed(reopened, [diff(3, AccountUpdate(address=addr(1), code=body))])
    assert blob.read_bytes() == complete + record  # the body is appended again in full
    assert reopened.get_code_at(addr(1), 3) == body
    assert reopened.get_code_at(addr(2), 3) == kept
    assert reopened.get_code_at(addr(3), 3) == short
    blob.write_bytes(blob.read_bytes()[:-1])  # the body loses its last byte under the open archive
    with pytest.raises(CorruptionError, match="cut short"):
        reopened.get_code_at(addr(1), 3)
    reopened.close()


def test_damaged_code_body_is_reported_as_corruption(tmp_path):
    body = bytes.fromhex("600060ff")
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, code=body))])
    blob = tmp_path / "archive" / "codeblob.dat"
    assert blob.read_bytes().endswith(body)
    blob.write_bytes(blob.read_bytes()[:-1] + b"\xfe")  # the body's last byte flips in place
    with pytest.raises(CorruptionError, match="damaged"):
        archive.get_code_at(addr(1), 1)
    assert handle_request(archive, f"CODE 0x{addr(1).hex()} 1").startswith("ERR internal code body")
    archive.close()
    reopened = ArchiveDb(tmp_path / "archive")
    with pytest.raises(CorruptionError, match="damaged"):
        reopened.get_code_at(addr(1), 1)
    reopened.close()


def test_code_body_missing_from_the_blob_is_reported_as_corruption(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, code=bytes.fromhex("600060ff")))])
    archive.close()
    (tmp_path / "archive" / "codeblob.dat").write_bytes(b"")  # the code entry names a body the blob lost
    reopened = ArchiveDb(tmp_path / "archive")
    with pytest.raises(CorruptionError, match="missing from the blob"):
        reopened.get_code_at(addr(1), 1)
    assert reopened.get_code_at(addr(1), 0) == b""
    reopened.close()


def code_history(directory, bodies):
    """A closed archive whose block i + 1 gives addr(i + 1) the code ``bodies[i]``."""
    archive = ArchiveDb(directory)
    feed(archive, [diff(i + 1, AccountUpdate(address=addr(i + 1), code=body)) for i, body in enumerate(bodies)])
    archive.close()


def count_scans(monkeypatch, pause=0.0):
    """The archives whose code blob is scanned from now on, one entry per scan; each scan first sleeps ``pause`` s."""
    scans, scan = [], ArchiveDb._scan_code_blob

    def counting_scan(self):
        scans.append(self)
        time.sleep(pause)  # lets a racing caller reach the index while the scan runs
        return scan(self)

    monkeypatch.setattr(ArchiveDb, "_scan_code_blob", counting_scan)
    return scans


def test_open_reads_one_block_hash_and_no_code_record(tmp_path, monkeypatch):
    bodies = [bytes([i]) * (10 + i) for i in range(1, 6)]
    code_history(tmp_path / "archive", bodies)
    scans = count_scans(monkeypatch)
    reads, real_pread = [], os.pread

    def counting_pread(fd, length, offset):
        reads.append((length, offset))
        return real_pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", counting_pread)
    archive = ArchiveDb(tmp_path / "archive")
    assert reads == [(32, 5 * 32)]  # the hash of block 5, the last one
    assert archive._code_index is None and scans == []
    assert archive.get_balance_at(addr(1), 5) == 0 and archive.get_code_at(addr(9), 5) == b""
    assert scans == []  # no query that needs no body scans the blob
    assert archive.get_code_at(addr(2), 5) == bodies[1]
    assert scans == [archive]
    assert [archive.get_code_at(addr(i + 1), 5) for i in range(5)] == bodies
    assert scans == [archive]
    archive.close()


def test_racing_first_code_reads_scan_the_blob_once(tmp_path, monkeypatch):
    bodies = [bytes([i]) * (40 + i) for i in range(1, 9)]
    code_history(tmp_path / "archive", bodies)
    scans = count_scans(monkeypatch, pause=0.05)
    archive = ArchiveDb(tmp_path / "archive")
    start = threading.Barrier(2)
    answers = [[], []]

    def reader(n):
        start.wait(timeout=10)
        for i in range(len(bodies)):
            answers[n].append(archive.get_code_at(addr((i + 4 * n) % len(bodies) + 1), len(bodies)))

    threads = [threading.Thread(target=reader, args=(n,)) for n in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [bodies, bodies[4:] + bodies[:4]]
    assert scans == [archive]
    archive.close()


def test_torn_tail_is_cut_by_the_first_batch_after_a_reader_indexed_the_blob(tmp_path, monkeypatch):
    kept, lost = b"\x01" * 50, b"\x07" * 300
    code_history(tmp_path / "archive", [kept])
    blob = tmp_path / "archive" / "codeblob.dat"
    complete = blob.read_bytes()
    with blob.open("ab") as fh:
        fh.write((sha(lost) + len(lost).to_bytes(4, "big") + lost)[:100])  # a crash mid-append
    scans = count_scans(monkeypatch)
    archive = ArchiveDb(tmp_path / "archive")
    assert archive.get_code_at(addr(1), 1) == kept  # a reader indexes the blob first
    assert scans == [archive] and len(blob.read_bytes()) == len(complete) + 100
    short = b"\x02" * 10
    feed(archive, [diff(2, AccountUpdate(address=addr(2), code=short))])
    assert scans == [archive]  # the appender reuses the reader's index
    assert blob.read_bytes() == complete + sha(short) + len(short).to_bytes(4, "big") + short
    assert archive.get_code_at(addr(2), 2) == short
    archive.close()


def test_code_read_after_close_scans_nothing(tmp_path, monkeypatch):
    code_history(tmp_path / "archive", [b"\x05" * 20])
    scans = count_scans(monkeypatch)
    archive = ArchiveDb(tmp_path / "archive")
    archive.close()
    with pytest.raises(StorageError, match="archive is closed"):
        archive.get_code_at(addr(1), 1)
    with pytest.raises(StorageError, match="archive is closed"):
        archive._read_code(sha(b"\x05" * 20))  # past the floor search, which also refuses a closed archive
    assert scans == []


def test_close_right_after_an_append_indexes_the_blob_and_keeps_the_block(tmp_path, monkeypatch):
    """The batch that close() cuts scans the blob although the archive already refuses queries."""
    first, second = b"\x03" * 30, b"\x04" * 40
    code_history(tmp_path / "archive", [first])
    scans = count_scans(monkeypatch)
    archive = ArchiveDb(tmp_path / "archive")
    archive.append_block(diff(2, AccountUpdate(address=addr(2), code=second)))
    archive.close()  # the block filling a batch is the appender's first batch
    assert scans == [archive]
    reopened = ArchiveDb(tmp_path / "archive")
    assert reopened.watermark == 2
    assert [reopened.get_code_at(addr(1), 2), reopened.get_code_at(addr(2), 2)] == [first, second]
    reopened.close()


def test_archive_io_failures_raise_storage_errors(tmp_path, monkeypatch):
    directory = tmp_path / "archive"
    archive = ArchiveDb(directory)
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, balance=5))])
    real_pread = os.pread

    def failing(*args):
        raise OSError(errno.EIO, "injected")

    monkeypatch.setattr(os, "pread", failing)
    with pytest.raises(StorageError, match="injected") as read_failure:
        archive.block_hash(1)
    assert pathlib.Path(read_failure.value.path) == directory / "blockhash.dat"
    assert read_failure.value.offset == 32
    assert handle_request(archive, "BLOCKHASH 1").startswith("ERR internal read failed")
    monkeypatch.setattr(os, "pread", real_pread)
    monkeypatch.setattr(os, "pwrite", lambda *args: failing())
    monkeypatch.setattr(files_module, "open", lambda *args: failing(), raising=False)  # write_file's, which writes runs
    archive.append_block(diff(2, AccountUpdate(address=addr(1), balance=6)))
    with pytest.raises(StorageError, match="write failed") as write_failure:
        archive.flush()
    written = pathlib.Path(write_failure.value.path)  # the first file the batch writes: its first run
    assert written.parent == directory and written.suffix == ".run"
    with pytest.raises(StorageError, match="write failed"):
        archive.close()
    assert archive.watermark == 1


def test_reading_an_archive_changes_no_file(tmp_path):
    directory = tmp_path / "archive"
    a123, a2, code = addr(0x123), addr(2), b"\x01" * 50
    writer = ArchiveDb(directory)
    created = AccountUpdate(address=a2, created=True, balance=5, nonce=1, code=code)
    feed(writer, example_table_diffs() + [diff(18, created)])
    block_hash, account_hash = writer.block_hash(18), writer.account_hash(a2, 18)
    writer.close()
    with (directory / "codeblob.dat").open("ab") as fh:
        fh.write(sha(b"lost") + (4).to_bytes(4, "big") + b"lo")  # a record torn by a crash
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    reader = ArchiveDb(directory)
    assert reader.watermark == 18
    assert reader.block_hash(18) == block_hash
    assert reader.get_storage_at(a123, key(1), 16) == val(110)
    assert reader.get_balance_at(a2, 18) == 5
    assert reader.get_nonce_at(a2, 18) == 1
    assert reader.get_code_at(a2, 18) == code
    assert reader.account_exists_at(a2, 18)
    assert reader.account_hash(a2, 18) == account_hash
    reader.flush()
    reader.close()
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before


def test_concurrent_reader_sees_only_published_blocks(tmp_path, monkeypatch):
    spec = WorkloadSpec(seed=13, blocks=60, accounts=50, txs_per_block=4, slot_writes_per_tx=3, new_key_ratio=0.4, delete_ratio=0.05)
    diffs = list(generate(spec))
    oracle = ReferenceOracle()
    pairs = set()
    for block_diff in diffs:
        oracle.apply_block(block_diff)
        for update in block_diff.updates:
            for slot_key, _ in update.slots:
                pairs.add((update.address, slot_key))
    pairs = sorted(pairs)
    monkeypatch.setattr(archive_module, "MERGE_FANOUT", 2)
    archive = ArchiveDb(tmp_path / "archive")
    failures = []
    stop = threading.Event()

    def reader():
        rng = random.Random(99)
        queries = 0
        while queries < 2_000 and not stop.is_set():
            watermark = archive.watermark
            block = rng.randint(0, watermark)
            address, slot_key = rng.choice(pairs)
            got = archive.get_storage_at(address, slot_key, block)
            expected = oracle.storage_at(address, slot_key, block)
            if got != expected:
                failures.append((address, slot_key, block, got, expected))
                return
            queries += 1

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        feed(archive, diffs)
    finally:
        stop.set()
        thread.join()
    assert not failures
    archive.close()


SEARCH_SPEC = WorkloadSpec(seed=21, blocks=30, accounts=25, txs_per_block=4, slot_writes_per_tx=2, new_key_ratio=0.4, delete_ratio=0.15)


def history_facts(diffs):
    """Oracle, addresses, (address, key) pairs, first write per address, deleted-then-recreated addresses."""
    oracle = ReferenceOracle()
    pairs, first_write, deleted, recreated = set(), {}, set(), set()
    for block_diff in diffs:
        oracle.apply_block(block_diff)
        for update in block_diff.updates:
            first_write.setdefault(update.address, block_diff.block)
            if update.deleted:
                deleted.add(update.address)
            if update.created and update.address in deleted:
                recreated.add(update.address)
            for slot_key, _ in update.slots:
                pairs.add((update.address, slot_key))
    return oracle, sorted(first_write), sorted(pairs), first_write, recreated


def run_ranges(archive_dir):
    meta = json.loads((archive_dir / "meta.json").read_text())
    return {table: [(run["first"], run["last"]) for run in runs] for table, runs in meta["tables"].items()}


def assert_answers_match(archive, oracle, addresses, pairs, blocks):
    never_written = addr(0xFEED)
    for block in blocks:
        for address in addresses + [never_written]:
            assert archive.get_balance_at(address, block) == oracle.balance_at(address, block)
            assert archive.get_nonce_at(address, block) == oracle.nonce_at(address, block)
            assert archive.get_code_at(address, block) == oracle.code_at(address, block)
            assert archive.account_exists_at(address, block) == oracle.exists_at(address, block)
            assert archive.get_storage_at(address, key(0xBAD), block) == ZERO_VALUE  # key never written
        for address, slot_key in pairs:
            assert archive.get_storage_at(address, slot_key, block) == oracle.storage_at(address, slot_key, block)


def assert_filters_admit_stored_prefixes(archive):
    """Every prefix stored in every run passes that run's filter, and its fences are every FENCE_STRIDE-th key."""
    for table in archive._tables.values():
        for run in table.runs:
            search = run.search or table._build_search(run)
            assert len(search.words) == search.mask + 1 and search.mask & (search.mask + 1) == 0
            assert len(search.words) * 64 >= run.count * FILTER_BITS_PER_KEY
            entries = run_entries(table, run)
            assert search.fences == [entry[: table.key_size] for entry in entries[::FENCE_STRIDE]]
            for entry in entries:
                prefix_hash = hash(entry[: table.spec.prefix_size])
                bits = filter_bits(prefix_hash)
                assert search.words[prefix_hash & search.mask] & bits == bits, (run.file, entry.hex())


@pytest.mark.parametrize("fanout", [2, 0])
def test_newest_first_search_matches_oracle(tmp_path, monkeypatch, fanout):
    diffs = list(generate(SEARCH_SPEC))
    oracle, addresses, pairs, first_write, recreated = history_facts(diffs)
    assert recreated, "workload must delete and recreate an account"
    assert max(first_write.values()) > 3, "some account must be first written after the first batch"
    patch_appender(monkeypatch, batch_blocks=3, merge_fanout=fanout or NO_MERGE)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs)
    ranges = run_ranges(tmp_path / "archive")
    for table, spans in ranges.items():
        assert all(1 <= first <= last <= SEARCH_SPEC.blocks for first, last in spans), table
        ordered = sorted(spans)
        assert all(a[1] < b[0] for a, b in zip(ordered, ordered[1:])), f"{table} ranges overlap"
    bounds = {block for spans in ranges.values() for span in spans for block in span}
    if fanout:
        assert any(last - first > 2 for spans in ranges.values() for first, last in spans)  # merged runs
    # Run bounds, the blocks just around them, and every block before an account's first write.
    blocks = sorted(bounds | {b - 1 for b in bounds} | set(range(0, max(first_write.values()))))
    assert_answers_match(archive, oracle, addresses, pairs, blocks)
    recreated_pairs = [(address, slot_key) for address, slot_key in pairs if address in recreated]
    assert_answers_match(archive, oracle, sorted(recreated), recreated_pairs, range(SEARCH_SPEC.blocks + 1))
    assert any(run.level > 0 for run in archive._tables["storage"].runs) == bool(fanout)
    assert_filters_admit_stored_prefixes(archive)
    archive.close()
    reopened = ArchiveDb(tmp_path / "archive")
    assert {name: [(run.first, run.last) for run in table.runs] for name, table in reopened._tables.items()} == ranges
    assert_answers_match(reopened, oracle, addresses, pairs, range(SEARCH_SPEC.blocks + 1))
    assert_filters_admit_stored_prefixes(reopened)
    reopened.close()


def test_runs_listed_newest_first_answer_and_append_like_an_unbroken_archive(tmp_path, monkeypatch):
    """The listing order in meta.json says nothing about blocks: runs listed newest first answer the same, and the
    account maps the appender rebuilds from them give the hashes of an archive that was never closed."""
    diffs = list(generate(SEARCH_SPEC))
    oracle, addresses, pairs, _, _ = history_facts(diffs)
    patch_appender(monkeypatch, batch_blocks=3, merge_fanout=2)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs[:15])  # five batches: one merged run plus one unmerged run per table
    archive.close()
    meta_path = tmp_path / "archive" / "meta.json"
    meta = json.loads(meta_path.read_text())
    for name in ("state", "accthash"):  # the tables the account maps are rebuilt from
        assert [run["last"] for run in meta["tables"][name]] == [12, 15], name
    for runs in meta["tables"].values():
        runs.reverse()
    meta_path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")

    reversed_listing = ArchiveDb(tmp_path / "archive")
    assert_answers_match(reversed_listing, oracle, addresses, pairs, range(16))
    feed(reversed_listing, diffs[15:])
    assert_answers_match(reversed_listing, oracle, addresses, pairs, range(SEARCH_SPEC.blocks + 1))
    assert_filters_admit_stored_prefixes(reversed_listing)
    unbroken = ArchiveDb(tmp_path / "unbroken")
    feed(unbroken, diffs)
    for block in range(SEARCH_SPEC.blocks + 1):
        assert reversed_listing.block_hash(block) == unbroken.block_hash(block)
        for address in addresses:
            assert reversed_listing.account_hash(address, block) == unbroken.account_hash(address, block)
    unbroken.close()
    reversed_listing.close()


def written_slot_history(spec, monkeypatch, directory):
    """Writes ``spec`` as a closed archive of unmerged six-block runs; returns oracle, addresses, first writes."""
    diffs = list(generate(spec))
    oracle, addresses, _, _, _ = history_facts(diffs)
    first_write = {}
    for block_diff in diffs:
        for update in block_diff.updates:
            for slot_key, _ in update.slots:
                first_write.setdefault((update.address, slot_key), block_diff.block)
    patch_appender(monkeypatch, batch_blocks=6, merge_fanout=NO_MERGE)
    archive = ArchiveDb(directory)
    feed(archive, diffs)
    archive.close()
    return oracle, addresses, first_write


FILTER_SPEC = WorkloadSpec(seed=41, blocks=48, accounts=60, txs_per_block=4, slot_writes_per_tx=2, new_key_ratio=0.5, delete_ratio=0.0)


def test_storage_floor_searches_about_one_run(tmp_path, monkeypatch):
    """Runs whose filter rules the prefix out are skipped: about one run search per storage floor call."""
    oracle, _, first_write = written_slot_history(FILTER_SPEC, monkeypatch, tmp_path / "archive")
    archive = ArchiveDb(tmp_path / "archive")
    assert len(archive.run_files()["storage"]) == 8
    calls = {"floor": 0, "search": 0}
    floor, floor_entry = archive_module._SortedTable.floor, archive_module._SortedTable._floor_entry

    def counting_floor(table, *args):
        calls["floor"] += table.spec.name == "storage"
        return floor(table, *args)

    def counting_floor_entry(table, *args):
        calls["search"] += table.spec.name == "storage"
        return floor_entry(table, *args)

    monkeypatch.setattr(archive_module._SortedTable, "floor", counting_floor)
    monkeypatch.setattr(archive_module._SortedTable, "_floor_entry", counting_floor_entry)
    for (address, slot_key), written in sorted(first_write.items()):
        for block in range(written, FILTER_SPEC.blocks + 1, 3):
            assert archive.get_storage_at(address, slot_key, block) == oracle.storage_at(address, slot_key, block)
    assert calls["floor"] > 1_000
    # Searching every run that covers the block, as without filters, makes about 3 per call here.
    assert calls["search"] / calls["floor"] <= 1.3
    archive.close()


def test_concurrent_first_searches_build_whole_filters(tmp_path, monkeypatch):
    oracle, addresses, first_write = written_slot_history(FILTER_SPEC, monkeypatch, tmp_path / "archive")
    pairs = sorted(first_write)
    reopened = ArchiveDb(tmp_path / "archive")
    runs = [run for table in reopened._tables.values() for run in table.runs]
    assert not any(run.search for run in runs)
    built, build_search = [], archive_module._SortedTable._build_search

    def counting_build_search(table, run):
        built.append(run.file)
        time.sleep(0.002)  # widen the window in which another reader could start the same build
        return build_search(table, run)

    monkeypatch.setattr(archive_module._SortedTable, "_build_search", counting_build_search)
    start = threading.Barrier(4)
    wrong = []

    def reader(seed):
        rng = random.Random(seed)
        start.wait(timeout=10)
        for query in range(300):
            block = rng.randint(0, FILTER_SPEC.blocks) if query else FILTER_SPEC.blocks  # all race on the newest runs first
            address, slot_key = rng.choice(pairs) if query else pairs[0]
            if reopened.get_storage_at(address, slot_key, block) != oracle.storage_at(address, slot_key, block):
                wrong.append(("storage", address, slot_key, block))
            address = rng.choice(addresses)
            if reopened.get_balance_at(address, block) != oracle.balance_at(address, block):
                wrong.append(("balance", address, block))

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert all(run.search for run in reopened._tables["storage"].runs)
    assert len(built) == len(set(built))  # racing first searches build each run's aids once
    assert_filters_admit_stored_prefixes(reopened)  # the published aids are whole
    reopened.close()
    assert not any(run.search for run in runs)
    with pytest.raises(StorageError, match="archive is closed"):
        reopened.get_storage_at(*pairs[0], FILTER_SPEC.blocks)


def test_query_at_watermark_reads_only_the_newest_run(tmp_path, monkeypatch):
    """A key written in the last batch is answered without reading any older storage run."""
    a1 = addr(1)
    diffs = [diff(block, AccountUpdate(address=a1, slots=((key(1), val(block)),))) for block in range(1, 11)]
    patch_appender(monkeypatch, batch_blocks=2, merge_fanout=NO_MERGE)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs)
    archive.close()
    reopened = ArchiveDb(tmp_path / "archive")
    runs = reopened._tables["storage"].runs
    assert len(runs) == 5
    assert reopened.get_storage_at(a1, key(1), 10) == val(10)
    assert [run.search is not None for run in runs] == [False, False, False, False, True]
    # A query inside history reads only the run that covers its block.
    assert reopened.get_storage_at(a1, key(1), 5) == val(5)
    assert [run.search is not None for run in runs] == [False, False, True, False, True]
    reopened.close()


def test_open_maps_each_listed_run_once(tmp_path, monkeypatch):
    a1 = addr(1)
    diffs = [diff(block, AccountUpdate(address=a1, balance=block, slots=((key(1), val(block)),))) for block in range(1, 9)]
    oracle = ReferenceOracle()
    for block_diff in diffs:
        oracle.apply_block(block_diff)
    patch_appender(monkeypatch, batch_blocks=2, merge_fanout=NO_MERGE)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs)
    listed = sorted(file for files in archive.run_files().values() for file in files)
    archive.close()
    mapped, read = [], []
    map_run, read_bytes = archive_module.map_run, pathlib.Path.read_bytes

    def counting_map_run(path, count, entry_size):
        mapped.append(os.path.basename(path))
        return map_run(path, count, entry_size)

    def counting_read_bytes(path):
        read.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(archive_module, "map_run", counting_map_run)
    monkeypatch.setattr(pathlib.Path, "read_bytes", counting_read_bytes)
    reopened = ArchiveDb(tmp_path / "archive")
    assert sorted(mapped) == listed
    start = threading.Barrier(4)
    answers = []

    def reader():
        start.wait(timeout=10)
        for block in range(9):
            answers.append(
                (reopened.get_storage_at(a1, key(1), block), oracle.storage_at(a1, key(1), block))
            )
            answers.append((reopened.get_balance_at(a1, block), oracle.balance_at(a1, block)))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == 4 * 9 * 2
    assert all(got == expected for got, expected in answers)
    assert sorted(mapped) == listed  # reads map nothing more
    assert not [name for name in read if name.endswith(".run")]
    reopened.close()


def test_snapshot_from_before_a_merge_still_answers(tmp_path, monkeypatch):
    spec = WorkloadSpec(seed=31, blocks=4, accounts=60, txs_per_block=40, slot_writes_per_tx=4, new_key_ratio=0.5, delete_ratio=0.0)
    diffs = list(generate(spec))
    oracle, addresses, pairs, _, _ = history_facts(diffs)
    patch_appender(monkeypatch, batch_blocks=2, merge_fanout=2)
    monkeypatch.setattr(archive_module, "MERGE_CHUNK", 16)
    monkeypatch.setattr(mmap, "mmap", ReleaseSpy)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs[:2])
    storage, balance = archive._tables["storage"], archive._tables["balance"]
    snapshots = {"storage": storage.newest_first, "balance": balance.newest_first}
    victims = [run.file for runs in snapshots.values() for run in runs]
    assert len(victims) == 2
    (storage_victim,) = snapshots["storage"]
    assert storage_victim.count * storage.entry_size > 4 * mmap.PAGESIZE
    feed(archive, diffs[2:])  # the second batch run merges with the first, whose file is unlinked
    assert storage_victim.data.released  # the merge released pages of the run the snapshot reads
    assert not any((tmp_path / "archive" / file).exists() for file in victims)
    assert not set(victims) & {file for files in archive.run_files().values() for file in files}
    reinc = (0).to_bytes(REINC_SIZE, "big")  # no deletions: every account keeps reincarnation 0
    for block in range(3):
        for address in addresses:
            found = balance.floor(snapshots["balance"], address, block)
            assert int.from_bytes(found or b"", "big") == oracle.balance_at(address, block)
        for address, slot_key in pairs:
            found = storage.floor(snapshots["storage"], address + reinc + slot_key, block)
            assert (found or ZERO_VALUE) == oracle.storage_at(address, slot_key, block)
    archive.close()


def test_failed_batch_stops_the_appender_for_good(tmp_path, monkeypatch):
    account = addr(1)
    diffs = [
        diff(1, AccountUpdate(address=account, created=True, balance=10)),
        diff(2, AccountUpdate(address=account, balance=20)),
        diff(3, AccountUpdate(address=account, balance=30)),
    ]
    oracle = ReferenceOracle()
    for block_diff in diffs:
        oracle.apply_block(block_diff)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs[:1])
    write_file, failed = files_module.write_file, []

    def write_file_failing_once(path, chunks):  # the batch's first run
        if not failed:
            failed.append(path)
            raise OSError("injected write failure")
        return write_file(path, chunks)

    monkeypatch.setattr(files_module, "write_file", write_file_failing_once)
    archive.append_block(diffs[1])
    with pytest.raises(OSError, match="injected"):
        archive.flush()
    with pytest.raises(OSError, match="injected"):
        archive.append_block(diffs[2])
    with pytest.raises(OSError, match="injected"):
        archive.flush()
    assert archive.watermark == 1
    assert archive.get_balance_at(account, 1) == 10
    with pytest.raises(UnavailableError):
        archive.get_balance_at(account, 2)
    with pytest.raises(OSError, match="injected"):
        archive.close()

    reopened = ArchiveDb(tmp_path / "archive")
    assert reopened.watermark == 1
    feed(reopened, diffs[1:])
    clean = ArchiveDb(tmp_path / "clean")
    feed(clean, diffs)
    for block in range(len(diffs) + 1):
        assert reopened.get_balance_at(account, block) == oracle.balance_at(account, block)
        assert reopened.account_exists_at(account, block) == oracle.exists_at(account, block)
        assert reopened.block_hash(block) == clean.block_hash(block)
    reopened.close()
    clean.close()


def test_merge_whose_second_chunk_write_fails_keeps_its_victims(tmp_path, monkeypatch):
    """The failure is sticky, the manifest still lists the victims, and a reopened archive reuses the orphan's name."""
    directory = tmp_path / "archive"
    diffs = list(generate(SEARCH_SPEC))
    oracle, addresses, pairs, _, _ = history_facts(diffs)
    patch_appender(monkeypatch, batch_blocks=2, merge_fanout=2)
    monkeypatch.setattr(archive_module, "MERGE_CHUNK", 1)
    archive = ArchiveDb(directory)
    feed(archive, diffs[:2])
    merging = []
    real_write_file, maybe_merge = files_module.write_file, ArchiveDb._maybe_merge

    def write_file_failing_in_merge(path, chunks):
        def failing_second():
            for i, chunk in enumerate(chunks):
                if merging and i > 0:  # the merged run's second chunk
                    raise OSError(errno.EIO, "injected")
                yield chunk

        return real_write_file(path, failing_second())

    def flagged_merge(self, table):
        merging.append(table)
        try:
            maybe_merge(self, table)
        finally:
            merging.pop()

    monkeypatch.setattr(files_module, "write_file", write_file_failing_in_merge)
    monkeypatch.setattr(ArchiveDb, "_maybe_merge", flagged_merge)
    for block_diff in diffs[2:4]:
        archive.append_block(block_diff)
    with pytest.raises(StorageError, match="injected"):
        archive.flush()
    with pytest.raises(StorageError, match="injected"):
        archive.append_block(diffs[4])
    with pytest.raises(StorageError, match="injected"):
        archive.flush()
    assert archive.watermark == 4  # the batch was published before its runs merged
    listed = run_ranges(directory)
    assert listed["storage"] == [(1, 2), (3, 4)]  # both victims, still unmerged
    with pytest.raises(StorageError, match="injected"):
        archive.close()
    monkeypatch.setattr(files_module, "write_file", real_write_file)
    monkeypatch.setattr(ArchiveDb, "_maybe_merge", maybe_merge)

    meta_files = {run["file"] for runs in json.loads((directory / "meta.json").read_text())["tables"].values() for run in runs}
    orphans = {path.name for path in directory.glob("*.run")} - meta_files
    assert len(orphans) == 1
    orphan = orphans.pop()
    assert orphan.startswith("storage-")
    reopened = ArchiveDb(directory)
    assert reopened.watermark == 4
    assert_answers_match(reopened, oracle, addresses, pairs, range(5))
    written = []

    def recording_write_file(path, chunks):
        written.append(path.name)
        return real_write_file(path, chunks)

    monkeypatch.setattr(files_module, "write_file", recording_write_file)
    feed(reopened, diffs[4:])
    assert written[0] == orphan  # the first run written after the reopen overwrites the orphan
    assert {path.name for path in directory.glob("*.run")} == set().union(*reopened.run_files().values())
    assert_answers_match(reopened, oracle, addresses, pairs, range(SEARCH_SPEC.blocks + 1))
    reopened.close()


def recorded_commits(directory, monkeypatch):
    """A list that gets, for each commit of the archive in ``directory``, a copy of the directory taken just before
    it and the writes ``files.commit`` applied for it (``meta.json`` ends a commit), each run as one chunk."""
    commits, real_commit = [], files_module.commit

    def recording_commit(writes):
        writes = [(target, at, [b"".join(data)] if at is None and not isinstance(data, dict) else data) for target, at, data in writes]
        if not commits or isinstance(commits[-1][1][-1][2], dict):
            commits.append((shutil.copytree(directory, directory.with_name(f"before-{len(commits)}")), []))
        commits[-1][1].extend(writes)
        real_commit(writes)

    monkeypatch.setattr(files_module, "commit", recording_commit)
    return commits


def apply_cut(source, directory, writes, k, torn):
    """A copy of ``source`` in ``directory`` with ``writes[:k]`` applied by ``files.commit``, as a process killed there
    leaves it; ``torn`` adds half the bytes of the k-th write (of ``meta.json``, half of its temporary file)."""
    shutil.copytree(source, directory)
    opened = {}

    def moved(target, at, data):
        if at is None:
            return directory / target.name, at, data
        name = pathlib.Path(target.name).name
        if name not in opened:
            opened[name] = files_module.open_data(directory / name, create=False)
        return opened[name], at, data

    cut = [moved(*write) for write in writes[:k]]
    if torn:
        target, at, data = moved(*writes[k])
        if isinstance(data, dict):
            target, data = target.with_suffix(".tmp"), [json.dumps(data, sort_keys=True, separators=(",", ":")).encode() + b"\n"]
        cut.append((target, at, data[: len(data) // 2] if at is not None else [data[0][: len(data[0]) // 2]]))
    try:
        files_module.commit(cut)
    finally:
        for fh in opened.values():
            fh.close()


def test_every_cut_of_a_batch_and_a_merge_commit_reopens_at_a_watermark_and_refeeds(tmp_path, monkeypatch):
    """Each prefix of one batch commit's writes and of one merge commit's, whole or with one more write torn in half,
    reopens at the old or the new watermark with the oracle's answers up to it, and re-feeding the later blocks
    reaches an uninterrupted archive's block hashes and answers and leaves exactly the run files meta.json lists."""
    diffs = list(generate(SEARCH_SPEC))[:12]
    for block, codes in ((6, [b"\x60\x06"]), (7, [b"\x60\x06", b"\x60\x07" * 40])):  # two new bodies in batch 2
        updates = diffs[block - 1].updates
        coded = [dataclasses.replace(update, code=code) for update, code in zip(updates, codes)]
        diffs[block - 1] = diff(block, *coded, *updates[len(codes) :])
    oracle, addresses, pairs, _, _ = history_facts(diffs)
    patch_appender(monkeypatch, batch_blocks=4, merge_fanout=2)
    clean = ArchiveDb(tmp_path / "clean")
    feed(clean, diffs)
    expected = [clean.block_hash(block) for block in range(len(diffs) + 1)]
    clean.close()
    directory, real_commit = tmp_path / "archive", files_module.commit
    archive = ArchiveDb(directory)
    commits = recorded_commits(directory, monkeypatch)
    feed(archive, diffs[:8])  # two batches, then a merge of each table's two runs
    archive.close()
    monkeypatch.setattr(files_module, "commit", real_commit)
    (batch_copy, batch), (merge_copy, merge) = commits[1], commits[2]
    names = [pathlib.Path(getattr(target, "name", target)).name for target, _, _ in batch + merge]
    assert (names[0], len(batch[0][2])) == ("codeblob.dat", 2 * 36 + 2 + 80)  # one append of both records
    assert names[len(batch) - 2 :] == ["blockhash.dat", "meta.json", names[-2], "meta.json"] and names[-2].endswith(".run")
    assert batch[-1][2]["watermark"] == merge[-1][2]["watermark"] == 8
    for before, writes, old in ((batch_copy, batch, 4), (merge_copy, merge, 8)):
        for k in range(len(writes) + 1):
            for torn in (False, True) if k < len(writes) else (False,):
                where = f"{before.name}, {k} writes, torn {torn}"
                cut = tmp_path / f"cut-{before.name}-{k}-{torn}"
                apply_cut(before, cut, writes, k, torn)
                reopened = ArchiveDb(cut)
                watermark = reopened.watermark
                assert watermark in (old, 8), where
                assert [reopened.block_hash(block) for block in range(watermark + 1)] == expected[: watermark + 1], where
                assert_answers_match(reopened, oracle, addresses, pairs, range(watermark + 1))
                feed(reopened, diffs[watermark:])
                assert [reopened.block_hash(block) for block in range(len(diffs) + 1)] == expected, where
                listed = {run["file"] for runs in json.loads((cut / "meta.json").read_text())["tables"].values() for run in runs}
                assert {path.name for path in cut.glob("*.run")} == listed, where
                assert_answers_match(reopened, oracle, addresses, pairs, range(len(diffs) + 1))
                reopened.close()


def test_batch_whose_meta_replace_fails_publishes_nothing(tmp_path):
    """Readers see a block only once meta.json lists it, so the instance and a reopen agree."""
    account = addr(1)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=account, created=True, balance=10))])
    (tmp_path / "archive" / "meta.tmp").mkdir()  # the meta.json replace of the next commit fails
    archive.append_block(diff(2, AccountUpdate(address=account, balance=20)))
    with pytest.raises(StorageError, match="meta.tmp"):
        archive.flush()
    assert archive.watermark == 1
    assert archive.get_balance_at(account, 1) == 10
    with pytest.raises(UnavailableError):
        archive.get_balance_at(account, 2)
    with pytest.raises(StorageError, match="meta.tmp"):
        archive.close()
    reopened = ArchiveDb(tmp_path / "archive")
    assert reopened.watermark == 1
    assert reopened.get_balance_at(account, 1) == 10
    reopened.close()


def fail_meta_replace(monkeypatch, when):
    """The archive's meta.json replace raises StorageError("injected") for each metadata ``when`` accepts."""
    real_write_meta = files_module.write_meta

    def write_meta(path, meta):
        if when(meta):
            raise StorageError("injected", path=path)
        real_write_meta(path, meta)

    monkeypatch.setattr(files_module, "write_meta", write_meta)


# With one block per batch and a merge of every 2 runs: the second batch's commit, and the merge it triggers.
FAILING_COMMIT = {
    "batch": lambda meta: meta["watermark"] == 2,
    "merge": lambda meta: any(run["level"] > 0 for runs in meta["tables"].values() for run in runs),
}


def test_merge_whose_meta_replace_fails_keeps_its_victims_published(tmp_path, monkeypatch):
    """The batch stays published, readers answer from the victims, and a reopen lists the same runs."""
    directory = tmp_path / "archive"
    diffs = list(generate(SEARCH_SPEC))[:2]
    oracle, addresses, pairs, _, _ = history_facts(diffs)
    patch_appender(monkeypatch, batch_blocks=1, merge_fanout=2)
    fail_meta_replace(monkeypatch, FAILING_COMMIT["merge"])
    archive = ArchiveDb(directory)
    for block_diff in diffs:
        archive.append_block(block_diff)
    with pytest.raises(StorageError, match="injected"):
        archive.flush()
    assert archive.watermark == 2  # the batch was published before its runs merged
    listed = archive.run_files()
    assert run_ranges(directory)["storage"] == [(1, 1), (2, 2)]  # the first merge's victims, unmerged
    assert listed == {name: [run["file"] for run in runs] for name, runs in json.loads((directory / "meta.json").read_text())["tables"].items()}
    assert_answers_match(archive, oracle, addresses, pairs, range(3))
    with pytest.raises(StorageError, match="injected"):
        archive.close()
    monkeypatch.undo()
    reopened = ArchiveDb(directory)
    assert reopened.watermark == 2
    assert reopened.run_files() == listed
    assert_answers_match(reopened, oracle, addresses, pairs, range(3))
    reopened.close()


def test_merge_whose_victim_cannot_be_deleted_commits_and_reports_the_file(tmp_path, monkeypatch):
    """Victims are deleted after the commit that drops them, so a failed delete leaves the merge committed."""
    directory = tmp_path / "archive"
    patch_appender(monkeypatch, batch_blocks=1, merge_fanout=2)
    archive = ArchiveDb(directory)
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, balance=5))])
    victim = directory / archive.run_files()["balance"][0]
    victim.unlink()  # the run stays readable through its mapping
    (victim / "entry").mkdir(parents=True)  # a non-empty directory cannot be deleted as a file
    archive.append_block(diff(2, AccountUpdate(address=addr(1), balance=6)))
    with pytest.raises(StorageError, match="cannot delete") as failure:
        archive.flush()
    assert pathlib.Path(failure.value.path) == victim
    listed = json.loads((directory / "meta.json").read_text())
    assert listed["watermark"] == archive.watermark == 2
    assert [run["level"] for run in listed["tables"]["balance"]] == [1]  # the merge committed
    assert [archive.get_balance_at(addr(1), block) for block in range(3)] == [0, 5, 6]
    with pytest.raises(StorageError, match="cannot delete"):
        archive.close()
    reopened = ArchiveDb(directory)
    assert [reopened.get_balance_at(addr(1), block) for block in range(3)] == [0, 5, 6]
    reopened.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc")
def test_merge_whose_victim_cannot_be_deleted_releases_every_descriptor_without_the_collector(tmp_path, monkeypatch):
    """The kept appender error holds no frame locals, so the victims' mappings close once unreferenced."""
    directory = tmp_path / "archive"
    patch_appender(monkeypatch, batch_blocks=1, merge_fanout=2)
    gc.collect()
    gc.disable()
    try:
        before = len(os.listdir("/proc/self/fd"))
        archive = ArchiveDb(directory)
        feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, balance=5))])
        victim = directory / archive.run_files()["balance"][0]
        victim.unlink()
        (victim / "entry").mkdir(parents=True)  # a non-empty directory cannot be deleted as a file
        archive.append_block(diff(2, AccountUpdate(address=addr(1), balance=6)))
        with pytest.raises(StorageError, match="cannot delete"):
            archive.close()
        del archive
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        gc.enable()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc")
@pytest.mark.parametrize("commit", ["batch", "merge"])
def test_failed_commit_leaves_no_run_mapped_after_close(tmp_path, monkeypatch, commit):
    patch_appender(monkeypatch, batch_blocks=1, merge_fanout=2)
    fail_meta_replace(monkeypatch, FAILING_COMMIT[commit])
    before = len(os.listdir("/proc/self/fd"))
    archive = ArchiveDb(tmp_path / "archive")
    archive.append_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5)))
    archive.append_block(diff(2, AccountUpdate(address=addr(1), balance=6)))
    with pytest.raises(StorageError, match="injected"):
        archive.close()
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc")
def test_batch_whose_third_run_write_fails_leaves_no_descriptor_after_close(tmp_path, monkeypatch):
    """Runs are mapped only by the commit that lists them, so the two runs written first hold nothing."""
    before = len(os.listdir("/proc/self/fd"))
    archive = ArchiveDb(tmp_path / "archive")
    write_file, written = files_module.write_file, []

    def write_file_failing_third(path, chunks):
        written.append(path.name.split("-")[0])  # the run's table
        if len(written) == 3:
            raise OSError("injected write failure")
        return write_file(path, chunks)

    monkeypatch.setattr(files_module, "write_file", write_file_failing_third)
    update = AccountUpdate(address=addr(1), created=True, balance=5, slots=((key(1), val(1)),))
    archive.append_block(diff(1, update))  # storage, balance, state and accthash runs, in that order
    with pytest.raises(OSError, match="injected"):
        archive.flush()
    with pytest.raises(OSError, match="injected"):
        archive.close()
    assert written == ["storage", "balance", "state"]
    assert len(list((tmp_path / "archive").glob("*.run"))) == 2  # unlisted orphans
    assert len(os.listdir("/proc/self/fd")) == before


def test_flush_after_close_raises(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, balance=5))])
    archive.close()
    outcome = run_with_timeout(archive.flush)
    assert isinstance(outcome, StorageError) and "archive is closed" in str(outcome)


def test_flush_racing_close_returns(tmp_path):
    """close() arriving between flush's check that the archive is open and its hand-over of the batch filling."""
    archive = ArchiveDb(tmp_path / "archive")
    archive.append_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5)))
    hand_over, closer = archive._hand_over, []

    def hand_over_after_close_started():
        if not closer:
            closer.append(threading.Thread(target=archive.close))
            closer[0].start()
            closer[0].join(0.2)  # close runs on as far as it can before the batch is handed over
        return hand_over()

    archive._hand_over = hand_over_after_close_started
    assert run_with_timeout(archive.flush) is None
    closer[0].join(10)
    assert not closer[0].is_alive()
    assert archive.watermark == 1


def test_appender_holds_at_most_two_batches(tmp_path, monkeypatch):
    """Backpressure: with the first batch paused, appends return until two batches are handed over and a third
    fills; the append that fills it waits until one batch ends."""
    patch_appender(monkeypatch, batch_blocks=2, merge_fanout=NO_MERGE)
    process_batch, started, resume = ArchiveDb._process_batch, [], threading.Event()

    def paused(self, diffs):
        started.append([d.block for d in diffs])
        resume.wait(10)
        process_batch(self, diffs)

    monkeypatch.setattr(ArchiveDb, "_process_batch", paused)
    archive = ArchiveDb(tmp_path / "archive")
    diffs = [diff(block, AccountUpdate(address=addr(1), balance=block)) for block in range(1, 8)]
    filling = threading.Thread(target=archive.append_block, args=(diffs[5],))
    try:
        for block_diff in diffs[:5]:
            assert run_with_timeout(lambda: archive.append_block(block_diff), seconds=5) is None
        filling.start()
        filling.join(0.3)
        assert filling.is_alive()  # blocks 1-2 running, 3-4 handed over behind them, 5-6 full and waiting
        assert started == [[1, 2]] and archive.watermark == 0
    finally:
        resume.set()
    filling.join(10)
    assert not filling.is_alive()
    archive.append_block(diffs[6])
    archive.flush()
    assert started == [[1, 2], [3, 4], [5, 6], [7]]
    assert archive.watermark == 7 and archive.get_balance_at(addr(1), 6) == 6
    archive.close()


def test_flushes_racing_appends_return_only_after_every_earlier_block_is_published(tmp_path, monkeypatch):
    """Three threads flush in a loop, cutting batches at random points, while one appends and flushes; every one of
    its flushes returns with its last block published, and the history equals that of an archive fed alone."""
    patch_appender(monkeypatch, batch_blocks=3, merge_fanout=2)
    spec = WorkloadSpec(seed=17, blocks=90, accounts=30, txs_per_block=3, slot_writes_per_tx=2, new_key_ratio=0.4, delete_ratio=0.05)
    diffs = list(generate(spec))
    archive, alone = ArchiveDb(tmp_path / "archive"), ArchiveDb(tmp_path / "alone")
    feed(alone, diffs)
    stop, errors, lagging = threading.Event(), [], []

    def flush_in_a_loop():
        try:
            while not stop.is_set():
                archive.flush()
        except Exception as exc:
            errors.append(exc)

    flushers = [threading.Thread(target=flush_in_a_loop) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in flushers:
            thread.start()
        for block_diff in diffs:
            archive.append_block(block_diff)
            if block_diff.block % 5 == 0:
                archive.flush()
                if archive.watermark != block_diff.block:
                    lagging.append((block_diff.block, archive.watermark))
    finally:
        stop.set()
        for thread in flushers:
            thread.join(10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in flushers)
    assert not errors and not lagging
    archive.flush()
    assert [archive.block_hash(block) for block in range(91)] == [alone.block_hash(block) for block in range(91)]
    archive.close()
    alone.close()


def run_with_timeout(call, seconds=10):
    """What ``call()`` returned or raised, run on a daemon thread that must finish within ``seconds``."""
    outcome = []

    def target():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{call.__name__} still blocked after {seconds} s"
    return outcome[0]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc")
def test_close_releases_every_run_and_refuses_queries(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, balance=5, code=b"aa"))])
    assert sum(len(files) for files in archive.run_files().values()) == 4
    assert len(os.listdir("/proc/self/fd")) > before
    archive.close()
    assert len(os.listdir("/proc/self/fd")) == before
    assert archive.close() is None  # a second close does nothing
    queries = [
        lambda: archive.get_balance_at(addr(1), 1),
        lambda: archive.get_nonce_at(addr(1), 1),
        lambda: archive.get_storage_at(addr(1), key(1), 1),
        lambda: archive.get_code_at(addr(1), 1),
        lambda: archive.account_exists_at(addr(1), 1),
        lambda: archive.block_hash(1),
        lambda: archive.account_hash(addr(1), 1),
    ]
    for query in queries:
        with pytest.raises(StorageError, match="archive is closed"):
            query()


def test_query_racing_close_reports_closed_archive(tmp_path):
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, balance=5))])
    published = archive._published

    def snapshot_then_close(table, block):
        runs = published(table, block)
        archive.close()
        return runs

    archive._published = snapshot_then_close
    with pytest.raises(StorageError, match="archive is closed"):
        archive.get_balance_at(addr(1), 1)


def with_run(index, **fields):
    """Damage that changes ``fields`` of the storage table's ``index``-th listed run."""

    def damage(meta):
        meta["tables"]["storage"][index].update(fields)
        return meta

    return damage


def without(*steps):
    """Damage that deletes the field at ``steps`` from the parsed metadata."""

    def damage(meta):
        holder = meta
        for step in steps[:-1]:
            holder = holder[step]
        del holder[steps[-1]]
        return meta

    return damage


ARCHIVE_META_DAMAGE = {
    "not-an-object": (lambda meta: [meta], "meta.json holds"),
    "no-format": (without("format"), "meta.json lacks field 'format'"),
    "format-2": (lambda meta: {**meta, "format": 2}, "unsupported metadata format in .*meta.json: 2"),
    "no-watermark": (without("watermark"), "meta.json lacks field 'watermark'"),
    "no-next_seq": (without("next_seq"), "meta.json lacks field 'next_seq'"),
    "no-tables": (without("tables"), "meta.json lacks field 'tables'"),
    "unknown-table": (lambda meta: {**meta, "tables": {**meta["tables"], "bogus": []}}, "meta.json names unknown table 'bogus'"),
    "run-without-count": (without("tables", "storage", 0, "count"), "meta.json lacks field 'count'"),
    "run-without-first": (without("tables", "storage", 0, "first"), "meta.json lacks field 'first'"),
    "run-without-last": (without("tables", "storage", 1, "last"), "meta.json lacks field 'last'"),
    # The storage runs cover blocks 1..16 and 17..17, and the watermark is 17.
    "overlapping-runs": (with_run(1, first=16), r"meta.json lists run storage-\d+\.run for blocks 16\.\.17, not after block 16"),
    "last-above-watermark": (with_run(1, last=18), r"meta.json lists run storage-\d+\.run for blocks 17\.\.18, .* within 1\.\.17"),
}


@pytest.mark.parametrize("damage", sorted(ARCHIVE_META_DAMAGE))
def test_damaged_meta_fields_are_reported_as_corruption(tmp_path, damage):
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, example_table_diffs())
    archive.close()
    path = tmp_path / "archive" / "meta.json"
    damaged, message = ARCHIVE_META_DAMAGE[damage]
    path.write_text(json.dumps(damaged(json.loads(path.read_text()))))
    with pytest.raises(CorruptionError, match=message):
        ArchiveDb(tmp_path / "archive")
