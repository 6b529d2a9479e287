"""Archive database: floor queries, incremental hashes, concurrency, merging."""

import hashlib
import json
import os
import pathlib
import random
import sys
import threading
import time

import pytest

from flatstate import archive as archive_module
from flatstate.archive import FENCE_STRIDE, FILTER_BITS_PER_KEY, MAX_BLOCK, ArchiveDb, filter_bits
from flatstate.errors import CorruptionError, SequenceError, StorageError, UnavailableError
from flatstate.oracle import ReferenceOracle
from flatstate.types import REINC_SIZE, AccountUpdate, BlockDiff, ZERO_VALUE, serialize_update
from flatstate.workload import WorkloadSpec, generate

from util import addr, key, sha, val

NO_MERGE = 1 << 30  # a merge fanout no test reaches


def diff(block, *updates):
    return BlockDiff(block=block, updates=tuple(updates))


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
    # Merges run only while appending, so each archive is fed under its own fanout.
    monkeypatch.setattr(archive_module, "MERGE_FANOUT", 2)
    merged = ArchiveDb(tmp_path / "merged")
    feed(merged, diffs)
    monkeypatch.setattr(archive_module, "MERGE_FANOUT", NO_MERGE)
    plain = ArchiveDb(tmp_path / "plain")
    feed(plain, diffs)
    # Entry counts equal change counts exactly: history grows with change
    # volume, never with live-state size, and merging drops nothing.
    for table, expected in changes.items():
        assert merged.entry_count(table) == plain.entry_count(table) == expected, table
    assert len(merged.run_files()["storage"]) < len(plain.run_files()["storage"])
    rng = random.Random(0)
    pairs = sorted(touched)
    for _ in range(1_500):
        address, slot_key = rng.choice(pairs)
        block = rng.randint(0, spec.blocks)
        expected = oracle.storage_at(address, slot_key, block)
        assert merged.get_storage_at(address, slot_key, block) == expected
        assert plain.get_storage_at(address, slot_key, block) == expected
    merged.close()
    plain.close()


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
    with pytest.raises(CorruptionError, match="watermark 4"):
        ArchiveDb(tmp_path / "archive")


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
    # A crash while appending the body of block 2's code: header and 100 of 1,024 bytes reached the file.
    with blob.open("ab") as fh:
        fh.write(sha(body) + len(body).to_bytes(4, "big") + body[:100])
    reopened = ArchiveDb(tmp_path / "archive")
    assert blob.read_bytes() == complete
    feed(reopened, [diff(2, AccountUpdate(address=addr(1), code=body))])
    assert reopened.get_code_at(addr(1), 2) == body
    assert reopened.get_code_at(addr(2), 2) == kept
    blob.write_bytes(blob.read_bytes()[:-1])  # the body loses its last byte under the open archive
    with pytest.raises(CorruptionError, match="cut short"):
        reopened.get_code_at(addr(1), 2)
    reopened.close()


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
            entries = table.entries(run)
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


def test_runs_without_block_ranges_still_answer(tmp_path, monkeypatch):
    diffs = list(generate(SEARCH_SPEC))
    oracle, addresses, pairs, _, _ = history_facts(diffs)
    patch_appender(monkeypatch, batch_blocks=3, merge_fanout=2)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs[:15])  # five batches: one merged run plus one unmerged run per table
    archive.close()
    meta_path = tmp_path / "archive" / "meta.json"
    meta = json.loads(meta_path.read_text())
    legacy_seq = meta["next_seq"]
    for runs in meta["tables"].values():
        for run in runs:
            del run["first"], run["last"]
    meta_path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")

    legacy = ArchiveDb(tmp_path / "archive")
    assert_answers_match(legacy, oracle, addresses, pairs, range(16))
    feed(legacy, diffs[15:])
    # The next batch merged with the bound-less run: its range is unknown.
    runs = json.loads(meta_path.read_text())["tables"]["storage"]
    new_runs = [run for run in runs if int(run["file"].split("-")[1].split(".")[0]) >= legacy_seq]
    assert any((run["first"], run["last"]) == (0, MAX_BLOCK) for run in new_runs)
    assert any(run["last"] == SEARCH_SPEC.blocks for run in new_runs)
    assert_answers_match(legacy, oracle, addresses, pairs, range(SEARCH_SPEC.blocks + 1))
    assert_filters_admit_stored_prefixes(legacy)
    legacy.close()


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
        mapped.append(path.name)
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
    spec = WorkloadSpec(seed=31, blocks=4, accounts=12, txs_per_block=4, slot_writes_per_tx=2, new_key_ratio=0.5, delete_ratio=0.0)
    diffs = list(generate(spec))
    oracle, addresses, pairs, _, _ = history_facts(diffs)
    patch_appender(monkeypatch, batch_blocks=2, merge_fanout=2)
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, diffs[:2])
    storage, balance = archive._tables["storage"], archive._tables["balance"]
    snapshots = {"storage": storage.newest_first, "balance": balance.newest_first}
    victims = [run.file for runs in snapshots.values() for run in runs]
    assert len(victims) == 2
    feed(archive, diffs[2:])  # the second batch run merges with the first, whose file is unlinked
    assert not any((tmp_path / "archive" / file).exists() for file in victims)
    assert not set(victims) & {file for files in archive.run_files().values() for file in files}
    reinc = (0).to_bytes(REINC_SIZE, "big")  # no deletions: every account keeps reincarnation 0
    for block in range(3):
        for address in addresses:
            best = balance.floor(snapshots["balance"], address, block)
            assert (int.from_bytes(best[1], "big") if best else 0) == oracle.balance_at(address, block)
        for address, slot_key in pairs:
            best = storage.floor(snapshots["storage"], address + reinc + slot_key, block)
            assert (best[1] if best else ZERO_VALUE) == oracle.storage_at(address, slot_key, block)
    archive.close()


def test_failed_batch_stops_the_appender_for_good(tmp_path):
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
    write_run, failed = archive._write_run, []

    def write_run_failing_once(*args):
        if not failed:
            failed.append(args)
            raise OSError("injected write failure")
        return write_run(*args)

    archive._write_run = write_run_failing_once
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


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc")
def test_close_releases_every_run_and_refuses_queries(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    archive = ArchiveDb(tmp_path / "archive")
    feed(archive, [diff(1, AccountUpdate(address=addr(1), created=True, balance=5, code=b"aa"))])
    assert sum(len(files) for files in archive.run_files().values()) == 4
    assert len(os.listdir("/proc/self/fd")) > before
    archive.close()
    assert len(os.listdir("/proc/self/fd")) == before
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
    "no-watermark": (without("watermark"), "meta.json lacks field 'watermark'"),
    "no-next_seq": (without("next_seq"), "meta.json lacks field 'next_seq'"),
    "no-tables": (without("tables"), "meta.json lacks field 'tables'"),
    "unknown-table": (lambda meta: {**meta, "tables": {**meta["tables"], "bogus": []}}, "meta.json names unknown table 'bogus'"),
    "run-without-count": (without("tables", "storage", 0, "count"), "meta.json lacks field 'count'"),
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
