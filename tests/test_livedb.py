"""Live database: reads, block application, commitments, determinism."""

import errno
import filecmp
import hashlib
import json
import os
import random
import sys
from pathlib import Path

import pytest

from flatstate import files as files_module
from flatstate import index as index_module
from flatstate import livedb as livedb_module
from flatstate.digest import EMPTY_HASH, digest, digest_count
from flatstate.errors import CorruptionError, SequenceError, StorageError, ValidationError
from flatstate.livedb import LiveDb, ROOT_ORDER
from flatstate.oracle import ReferenceOracle
from flatstate.pagepool import PageCache, PagePool
from flatstate.types import MAX_CODE_SIZE, AccountUpdate, BlockDiff, ZERO_VALUE
from flatstate.workload import WorkloadSpec, generate

from test_golden import SPEC as GOLDEN_SPEC
from util import addr, key, remembered_keys, val


def diff(block, *updates):
    return BlockDiff(block=block, updates=tuple(updates))


@pytest.fixture
def open_db(tmp_path):
    """Opens LiveDb directories under tmp_path and closes each one after the test."""
    opened = []

    def open_(name):
        db = LiveDb(tmp_path / name)
        opened.append(db)
        return db

    yield open_
    for db in opened:
        db.close()


def test_unknown_address_reads_default(open_db):
    db = open_db("db")
    assert db.get_balance(addr(1)) == 0
    assert db.get_nonce(addr(1)) == 0
    assert db.get_code(addr(1)) == b""
    assert db.account_exists(addr(1)) is False
    assert db.get_storage(addr(1), key(1)) == ZERO_VALUE


def test_reads_never_allocate_ordinals(open_db):
    db = open_db("db")
    db.get_balance(addr(1))
    db.get_storage(addr(1), key(1))
    assert db.a_index.count == 0
    assert db.ak_index.count == 0
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True)))
    db.get_storage(addr(1), key(2))
    assert db.ak_index.count == 0


def test_write_read_roundtrip(open_db):
    db = open_db("db")
    db.apply_block(
        diff(
            1,
            AccountUpdate(
                address=addr(1),
                created=True,
                balance=1000,
                nonce=3,
                code=b"\x60\x00",
                slots=((key(1), val(42)),),
            ),
        )
    )
    assert db.get_balance(addr(1)) == 1000
    assert db.get_nonce(addr(1)) == 3
    assert db.get_code(addr(1)) == b"\x60\x00"
    assert db.account_exists(addr(1)) is True
    assert db.get_storage(addr(1), key(1)) == val(42)


def test_zero_value_write_clears_slot(open_db):
    db = open_db("db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, slots=((key(1), val(9)),))))
    db.apply_block(diff(2, AccountUpdate(address=addr(1), slots=((key(1), ZERO_VALUE),))))
    assert db.get_storage(addr(1), key(1)) == ZERO_VALUE


def test_reincarnation_masks_old_slots(open_db):
    db = open_db("db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, slots=((key(1), val(7)),))))
    db.apply_block(diff(2, AccountUpdate(address=addr(1), deleted=True)))
    assert db.get_storage(addr(1), key(1)) == ZERO_VALUE
    db.apply_block(diff(3, AccountUpdate(address=addr(1), created=True)))
    assert db.get_storage(addr(1), key(1)) == ZERO_VALUE  # old slot stays invisible
    db.apply_block(diff(4, AccountUpdate(address=addr(1), slots=((key(1), val(8)),))))
    assert db.get_storage(addr(1), key(1)) == val(8)


def test_deletion_resets_attributes_in_constant_slot_work(open_db):
    db = open_db("db")
    slots = tuple((key(i), val(i + 1)) for i in range(50))
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, nonce=2, code=b"c", slots=slots)))
    values_root_before = db.values.root()
    db.apply_block(diff(2, AccountUpdate(address=addr(1), deleted=True)))
    assert db.get_balance(addr(1)) == 0
    assert db.get_nonce(addr(1)) == 0
    assert db.get_code(addr(1)) == b""
    assert db.account_exists(addr(1)) is False
    # O(1) delete: the values store is untouched, only the reincarnation moved.
    assert db.values.root() == values_root_before
    assert int.from_bytes(db.reincarnations.get(0), "big") == 1


def test_sequencing_and_validation_errors(open_db):
    db = open_db("db")
    with pytest.raises(SequenceError):
        db.apply_block(diff(5))
    update = AccountUpdate(address=addr(1), balance=1)
    with pytest.raises(ValidationError):
        db.apply_block(diff(1, update, update))
    assert db.block == 0


def test_empty_diff_advances_block_only(open_db):
    db = open_db("db")
    before = db.state_root()
    db.apply_block(diff(1))
    after = db.state_root()
    assert after.block == 1
    assert before.root == after.root


def test_genesis_root_is_digest_of_empty_components(open_db):
    db = open_db("db")
    expected = hashlib.sha256(EMPTY_HASH * len(ROOT_ORDER)).digest()
    assert db.state_root() == type(db.state_root())(root=expected, block=0)


def test_repeated_state_root_hashes_only_the_composite(open_db):
    """Clean trees answer their roots from memory, so each repeat costs the one composite digest and no tree work."""
    db = open_db("db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=4)))
    first = db.state_root()
    for _ in range(3):
        before = digest_count()
        assert db.state_root() == first
        assert digest_count() == before + 1


def test_single_balance_update_touches_only_balance_component(open_db):
    db = open_db("db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=1, nonce=1)))
    before = db.component_roots()
    db.apply_block(diff(2, AccountUpdate(address=addr(1), balance=2)))
    after = db.component_roots()
    assert after["balance"] != before["balance"]
    for name in ROOT_ORDER:
        if name != "balance":
            assert after[name] == before[name]


def replay_workload_into(db, oracle, spec):
    for block_diff in generate(spec):
        db.apply_block(block_diff)
        oracle.apply_block(block_diff)


def collect_touched(spec):
    addresses = set()
    slot_pairs = set()
    for block_diff in generate(spec):
        for update in block_diff.updates:
            addresses.add(update.address)
            for slot_key, _ in update.slots:
                slot_pairs.add((update.address, slot_key))
    return addresses, slot_pairs


SMALL_SPEC = WorkloadSpec(
    seed=11,
    blocks=60,
    accounts=150,
    txs_per_block=8,
    slot_writes_per_tx=3,
    new_key_ratio=0.4,
    delete_ratio=0.05,
)


def test_random_replay_matches_oracle(open_db):
    db = open_db("db")
    oracle = ReferenceOracle()
    replay_workload_into(db, oracle, SMALL_SPEC)
    addresses, slot_pairs = collect_touched(SMALL_SPEC)
    assert addresses
    for address in addresses:
        assert db.get_balance(address) == oracle.balance(address)
        assert db.get_nonce(address) == oracle.nonce(address)
        assert db.get_code(address) == oracle.code(address)
        assert db.account_exists(address) == oracle.exists(address)
    for address, slot_key in slot_pairs:
        assert db.get_storage(address, slot_key) == oracle.storage(address, slot_key)


def test_replay_survives_reopen(tmp_path):
    db = LiveDb(tmp_path / "db")
    oracle = ReferenceOracle()
    replay_workload_into(db, oracle, SMALL_SPEC)
    root = db.state_root()
    db.close()
    reopened = LiveDb(tmp_path / "db")
    assert reopened.block == SMALL_SPEC.blocks
    assert reopened.state_root() == root
    addresses, slot_pairs = collect_touched(SMALL_SPEC)
    rng = random.Random(0)
    for address in rng.sample(sorted(addresses), 50):
        assert reopened.get_balance(address) == oracle.balance(address)
    for address, slot_key in rng.sample(sorted(slot_pairs), 100):
        assert reopened.get_storage(address, slot_key) == oracle.storage(address, slot_key)
    reopened.close()


def test_torn_meta_is_reported_as_corruption(tmp_path):
    db = LiveDb(tmp_path / "db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5)))
    db.close()
    meta = tmp_path / "db" / "meta.json"
    assert sorted(p.name for p in meta.parent.glob("meta*")) == ["meta.json"]
    meta.write_bytes(meta.read_bytes()[:20])
    with pytest.raises(CorruptionError, match="meta.json"):
        LiveDb(tmp_path / "db")


@pytest.mark.parametrize(
    "field",
    [
        "format", "page_size", "block", "accounts", "slots", "a_index", "ak_index.count", "not-an-object", "accounts=2",
        "slots=1", "page_size=256",
    ],
)
def test_damaged_meta_fields_are_reported_as_corruption(tmp_path, field):
    db = LiveDb(tmp_path / "db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5)))
    db.close()
    path = tmp_path / "db" / "meta.json"
    meta = json.loads(path.read_text())
    page_size = 4096
    if field == "not-an-object":
        meta, message = [meta], "meta.json holds"
    elif field == "page_size=256":  # the meta is whole; the database is opened with another page size
        page_size, message = 256, "created with page_size 4096, opened with 256"
    elif "=" in field:  # a count that disagrees with its index's, though the files hold that many records
        name, value = field.split("=")
        meta[name] = int(value)
        message = "meta.json counts"
    else:
        *outer, name = field.split(".")
        holder = meta
        for step in outer:
            holder = holder[step]
        del holder[name]
        message = f"meta.json lacks field '{name}'"
    path.write_text(json.dumps(meta))
    with pytest.raises(CorruptionError, match=message):
        LiveDb(tmp_path / "db", page_size=page_size)


DATA_FILES = (
    "balances.dat", "nonces.dat", "exists.dat", "reincs.dat", "codes.dat", "codes.blob", "values.dat",
    "addr.buckets", "addr.keys", "slots.buckets", "slots.keys",
)


@pytest.mark.parametrize("name", DATA_FILES)
def test_missing_data_file_is_reported_and_never_created(tmp_path, name):
    db = LiveDb(tmp_path / "db")
    replay_workload_into(db, ReferenceOracle(), SMALL_SPEC)
    db.close()
    names = {path.name for path in (tmp_path / "db").iterdir() if path.suffix != ".tree"}
    assert names == {*DATA_FILES, "meta.json"}  # so every data file has its case
    (tmp_path / "db" / name).unlink()
    before = sorted(path.name for path in (tmp_path / "db").iterdir())
    with pytest.raises(CorruptionError, match=f"{name} is missing"):
        LiveDb(tmp_path / "db")
    assert sorted(path.name for path in (tmp_path / "db").iterdir()) == before


def test_first_flush_cut_short_before_meta_reopens_as_new(tmp_path):
    diffs = list(generate(SMALL_SPEC))[:5]
    clean = LiveDb(tmp_path / "clean")
    for block_diff in diffs:
        clean.apply_block(block_diff)
    expected = clean.state_root().root
    clean.close()
    cut = LiveDb(tmp_path / "cut")
    for block_diff in diffs:
        cut.apply_block(block_diff)
    writes = cut.commit_writes()
    assert writes[-1][0] == tmp_path / "cut" / "meta.json"
    files_module.commit(writes[:-1])  # LiveDb.flush up to meta.json, where a killed process stops
    cut._cache.close()
    assert not (tmp_path / "cut" / "meta.json").exists() and (tmp_path / "cut" / "balances.dat").stat().st_size > 0
    reopened = LiveDb(tmp_path / "cut")
    assert reopened.block == 0 and reopened.get_balance(diffs[0].updates[0].address) == 0
    for block_diff in diffs:
        reopened.apply_block(block_diff)
    assert reopened.state_root().root == expected
    reopened.close()
    assert tree_bytes(tmp_path / "cut") == tree_bytes(tmp_path / "clean")


def test_a_failed_commit_that_is_retried_matches_an_uninterrupted_run(tmp_path, monkeypatch):
    """The k-th write of one commit fails with ENOSPC, for every k; flush() again, close and reopen: the root and every
    file equal a clean run's. A tree, body or page marked written before its write returned would be skipped."""
    diffs = list(generate(GOLDEN_SPEC))[:5]
    clean = LiveDb(tmp_path / "clean")
    for block_diff in diffs:
        clean.apply_block(block_diff)
    expected = clean.state_root().root
    writes = []  # the file name of each write, in order
    fail_at = [None]

    def writer(real, name_of):
        def write(target, *args):
            writes.append(Path(name_of(target)).name)
            if len(writes) - 1 == fail_at[0]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(target, *args)

        return write

    monkeypatch.setattr(files_module, "pwrite", writer(files_module.pwrite, lambda fh: fh.name))
    monkeypatch.setattr(files_module, "write_file", writer(files_module.write_file, str))
    monkeypatch.setattr(os, "replace", writer(os.replace, str))  # write_meta's rename of meta.tmp
    clean.close()
    suffixes = [Path(name).suffix for name in writes]  # 8 trees, 1 blob append, 17 pages, meta.tmp written and renamed
    assert (suffixes.count(".tree"), suffixes.count(".blob"), writes[-2:]) == (8, 1, ["meta.tmp", "meta.tmp"])
    assert {".dat", ".keys", ".buckets"} <= set(suffixes) and len(writes) == 28
    for k in range(len(writes)):
        cut = LiveDb(tmp_path / f"cut{k}")
        for block_diff in diffs:
            cut.apply_block(block_diff)
        writes.clear()
        fail_at[0] = k
        with pytest.raises((OSError, StorageError), match=os.strerror(errno.ENOSPC)):  # write_meta wraps the rename's
            cut.flush()
        fail_at[0] = None
        cut.flush()
        cut.close()
        assert tree_bytes(tmp_path / f"cut{k}") == tree_bytes(tmp_path / "clean"), f"write {k}"  # before open rebuilds a tree
        reopened = LiveDb(tmp_path / f"cut{k}")
        assert (reopened.block, reopened.state_root().root) == (5, expected), f"write {k}"
        reopened.close()


CUT_SPEC = WorkloadSpec(seed=7, blocks=40, accounts=300, txs_per_block=20, slot_writes_per_tx=3, new_key_ratio=0.3, delete_ratio=0.02)


@pytest.mark.parametrize(
    "name, change",
    [
        ("balances.dat", -256),
        ("values.dat", -256),
        ("slots.keys", -256),
        ("slots.buckets", None),
        ("balances.dat", 256),
        ("values.dat", -1),
        ("balances.tree", 1),
    ],
    ids=[
        "balances-cut", "values-cut", "slot-keys-cut", "slot-buckets-cut", "balances-grown", "values-cut-by-one-byte",
        "balances-tree-grown-by-one-byte",
    ],
)
def test_page_file_of_the_wrong_length_is_reported_and_left_unchanged(tmp_path, name, change):
    db = LiveDb(tmp_path / "db", page_size=256)
    for block_diff in generate(CUT_SPEC):
        db.apply_block(block_diff)
    last_bucket_page = max(db.ak_index.bucket_pages)
    db.close()
    path = tmp_path / "db" / name
    # change None cuts the bucket file just before its last listed bucket page; else it is in bytes.
    os.truncate(path, last_bucket_page * 256 if change is None else path.stat().st_size + change)
    before = path.read_bytes()
    with pytest.raises(CorruptionError, match=name):
        LiveDb(tmp_path / "db", page_size=256)
    assert path.read_bytes() == before


def test_missing_tree_file_is_rebuilt_from_the_data(tmp_path):
    db = LiveDb(tmp_path / "db")
    replay_workload_into(db, ReferenceOracle(), SMALL_SPEC)
    root = db.state_root().root
    db.close()
    (tmp_path / "db" / "balances.tree").unlink()
    reopened = LiveDb(tmp_path / "db")
    assert reopened.state_root().root == root
    reopened.close()
    assert (tmp_path / "db" / "balances.tree").exists()


def tree_bytes(root_dir):
    files = {}
    for path in sorted(root_dir.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(root_dir))] = path.read_bytes()
    return files


def page_pools(db):
    stores = (db.balances, db.nonces, db.exists_flags, db.reincarnations, db.codes.meta, db.values)
    indexes = (db.a_index, db.ak_index)
    return [store.pool for store in stores] + [pool for index in indexes for pool in (index.pool, index.reverse.pool)]


def test_a_cache_that_holds_the_dirty_set_writes_no_page_before_flush(tmp_path, monkeypatch):
    """A budget above the dirty set leaves every page write to flush(); a tight one commits at the ends of blocks."""
    written = []
    real_pwrite = files_module.pwrite  # pages and the code blob; no page is written elsewhere
    monkeypatch.setattr(files_module, "pwrite", lambda fh, data, offset: written.append((fh.name, offset)) or real_pwrite(fh, data, offset))
    for name, budget in (("roomy", 1 << 30), ("tight", 4 * 4096)):
        monkeypatch.setattr(livedb_module, "CACHE_BYTES", budget)
        db = LiveDb(tmp_path / name)
        for block_diff in generate(SMALL_SPEC):
            for update in block_diff.updates:  # a validator reads what a block writes first
                db.get_balance(update.address)
                for slot_key, _ in update.slots:
                    db.get_storage(update.address, slot_key)
            db.apply_block(block_diff)
            db.state_root()
        before_flush = len(written)
        db.flush()
        if name == "roomy":
            assert before_flush == 0 < len(written) == len(set(written))  # each dirty page written once, by flush
        else:
            assert before_flush > 0  # blocks that filled the cache with dirty pages committed
        written.clear()
        db.close()
    assert tree_bytes(tmp_path / "roomy") == tree_bytes(tmp_path / "tight")


def balance_blocks(db, first, last):
    """Blocks ``first``..``last``, each setting a new balance on every account ``db`` has indexed."""
    known = [db.a_index.key_at(ordinal) for ordinal in range(db.a_index.count)]
    for block in range(first, last + 1):
        yield diff(block, *(AccountUpdate(address=address, balance=block * 1000 + n) for n, address in enumerate(known)))


@pytest.mark.parametrize("cache_bytes, reopened_at", [(2 * 256, 35), (1 << 20, 30)], ids=["small-cache", "roomy-cache"])
def test_unclean_close_reopens_at_the_last_commit_with_its_data(tmp_path, monkeypatch, cache_bytes, reopened_at):
    """A process killed between commits leaves the files of the last commit: its block, its root and its balances.

    The small cache fills with dirty pages in each block, so each block
    commits; the roomy one holds blocks 31..35, so the files stay at block 30.
    """
    monkeypatch.setattr(livedb_module, "CACHE_BYTES", cache_bytes)
    db = LiveDb(tmp_path / "db", page_size=256)
    oracle = ReferenceOracle()
    roots = {}
    for block_diff in generate(CUT_SPEC):
        if block_diff.block > 30:
            break
        db.apply_block(block_diff)
        oracle.apply_block(block_diff)
        roots[block_diff.block] = db.state_root().root
    db.flush()
    addresses = [db.a_index.key_at(ordinal) for ordinal in range(db.a_index.count)]
    assert len(addresses) == 148
    for block_diff in balance_blocks(db, 31, 35):
        db.apply_block(block_diff)
        oracle.apply_block(block_diff)
        roots[block_diff.block] = db.state_root().root
    db._cache.close()  # as a killed process would: no flush
    reopened = LiveDb(tmp_path / "db", page_size=256)
    try:
        committed = reopened.block
        wrong = [address for address in addresses if reopened.get_balance(address) != oracle.balance_at(address, committed)]
        assert len(wrong) == 0
        assert reopened.state_root().root == roots[committed]
        assert committed == reopened_at
    finally:
        reopened.close()


def touched_pages(monkeypatch) -> set:
    """The (file path, page id) pairs taken to write or appended since the caller last cleared the set."""
    touched = set()
    real_write_page, real_append = PagePool.write_page, PagePool.append_page

    def write_page(pool, page_id):
        touched.add((pool.file_path, page_id))
        return real_write_page(pool, page_id)

    def append_page(pool):
        page_id = real_append(pool)
        touched.add((pool.file_path, page_id))
        return page_id

    monkeypatch.setattr(PagePool, "write_page", write_page)
    monkeypatch.setattr(PagePool, "append_page", append_page)
    return touched


def test_a_small_cache_commits_at_block_ends_and_bounds_resident_pages(tmp_path, monkeypatch):
    """Without a flush() call, a full cache commits at the end of a block, and only a commit writes a page.

    Resident pages never exceed the budget plus the pages the current
    block dirtied, and meta.json follows the commits.
    """
    monkeypatch.setattr(livedb_module, "CACHE_BYTES", 64 * 256)  # a few blocks of dirty pages
    touched = touched_pages(monkeypatch)
    peak = [0]
    real_pwrite, real_evict = files_module.pwrite, PageCache.evict_over_capacity

    def pwrite(fh, data, offset):  # the one writer, applying LiveDb.flush's list
        assert sys._getframe(1).f_code is files_module.commit.__code__
        assert sys._getframe(2).f_code is LiveDb.flush.__code__
        real_pwrite(fh, data, offset)

    def evict(cache):  # every load and append ends here
        real_evict(cache)
        peak[0] = max(peak[0], cache.resident_count)

    monkeypatch.setattr(files_module, "pwrite", pwrite)
    monkeypatch.setattr(PageCache, "evict_over_capacity", evict)
    db = LiveDb(tmp_path / "db", page_size=256)
    meta_path = tmp_path / "db" / "meta.json"
    oracle = ReferenceOracle()
    commits = 0
    committed = 0  # the block meta.json names
    for block_diff in generate(SMALL_SPEC):
        touched.clear()
        peak[0] = 0
        db.apply_block(block_diff)
        oracle.apply_block(block_diff)
        assert peak[0] <= db._cache.capacity + len(touched)
        assert db._cache.resident_count <= db._cache.capacity
        if meta_path.exists() and json.loads(meta_path.read_text())["block"] != committed:
            committed = json.loads(meta_path.read_text())["block"]
            assert committed == block_diff.block  # a commit is of the block just applied
            commits += 1
    assert 10 < commits < db.block  # blocks commit, and not every one
    db._cache.close()
    reopened = LiveDb(tmp_path / "db", page_size=256)
    try:
        assert reopened.block == committed
        for address in {update.address for block_diff in generate(SMALL_SPEC) for update in block_diff.updates}:
            assert reopened.get_balance(address) == oracle.balance_at(address, reopened.block)
    finally:
        reopened.close()


def code_blocks(first, last, accounts=1, size=MAX_CODE_SIZE):
    """Blocks ``first``..``last``, each creating ``accounts`` new accounts that each deploy a distinct ``size``-byte body."""
    for block in range(first, last + 1):
        yield diff(block, *(
            AccountUpdate(address=addr(block * 1000 + n), created=True, balance=n + 1, code=bytes([block % 256, n]) * (size // 2))
            for n in range(accounts)
        ))


def test_unclean_close_leaves_the_blob_at_the_last_commit_and_a_refeed_matches(tmp_path):
    """Code bodies reach codes.blob only at a commit, so a killed process leaves the blob at its committed size,
    and re-feeding the blocks after the commit gives the bytes and the root of an uninterrupted feed."""
    blocks = list(code_blocks(1, 10, accounts=3, size=300))
    clean = LiveDb(tmp_path / "clean")
    for block_diff in blocks:
        clean.apply_block(block_diff)
    expected = clean.state_root().root
    clean.close()
    cut = LiveDb(tmp_path / "cut")
    for block_diff in blocks[:5]:
        cut.apply_block(block_diff)
    cut.flush()
    blob = tmp_path / "cut" / "codes.blob"
    assert blob.stat().st_size == 5 * 3 * 300
    for block_diff in blocks[5:]:
        cut.apply_block(block_diff)
    assert cut.get_code(addr(10_002)) == bytes([10, 2]) * 150  # served from the pending bodies
    cut._cache.close()  # as a killed process would: no flush
    assert blob.stat().st_size == 5 * 3 * 300
    reopened = LiveDb(tmp_path / "cut")
    try:
        assert reopened.block == 5
        for block_diff in blocks[5:]:
            reopened.apply_block(block_diff)
        assert reopened.state_root().root == expected
    finally:
        reopened.close()
    assert tree_bytes(tmp_path / "cut") == tree_bytes(tmp_path / "clean")


def test_pending_code_bodies_count_against_the_cache_budget(tmp_path, monkeypatch):
    """Bodies wait for the commit inside the page budget: after each block, dirty pages and pending bodies stay
    within CACHE_BYTES plus that block's own pages and bodies, so code-heavy blocks commit by themselves."""
    budget = 32 * 4096
    monkeypatch.setattr(livedb_module, "CACHE_BYTES", budget)
    touched = touched_pages(monkeypatch)
    db = LiveDb(tmp_path / "db")
    meta_path = tmp_path / "db" / "meta.json"
    commits = []
    for block_diff in code_blocks(1, 30):
        touched.clear()
        db.apply_block(block_diff)
        bodies = sum(len(update.code) for update in block_diff.updates)
        assert len(db._cache._dirty) * 4096 + len(db.codes.pending) <= budget + len(touched) * 4096 + bodies
        if meta_path.exists() and json.loads(meta_path.read_text())["block"] not in commits:
            commits.append(json.loads(meta_path.read_text())["block"])
            assert commits[-1] == block_diff.block and not db.codes.pending
    assert len(commits) >= 5  # about one commit per five 25,600-byte bodies
    db.close()


def test_two_replicas_produce_identical_roots_and_files(tmp_path, monkeypatch):
    # A replica whose first open failed (on slots.keys, after addr.buckets got its initial pages) must match too.
    (tmp_path / "reborn" / "slots.keys").mkdir(parents=True)
    with pytest.raises(StorageError, match="slots.keys"):
        LiveDb(tmp_path / "reborn")
    (tmp_path / "reborn" / "slots.keys").rmdir()
    reborn = LiveDb(tmp_path / "reborn")
    left = LiveDb(tmp_path / "left")
    monkeypatch.setattr(index_module, "KEYS_REMEMBERED", 16)  # memo size must not matter
    monkeypatch.setattr(livedb_module, "CACHE_BYTES", 4 * 4096)  # nor the page budget
    right = LiveDb(tmp_path / "right")
    replicas = (left, right, reborn)
    for block_diff in generate(SMALL_SPEC):
        for db in replicas:
            db.apply_block(block_diff)
        assert left.state_root() == right.state_root() == reborn.state_root()
        for db in replicas:
            pools = page_pools(db)
            cache = pools[0].cache
            assert len({id(pool) for pool in pools}) == 10 and all(pool.cache is cache for pool in pools)
            assert sum(pool.resident_count for pool in pools) == cache.resident_count
        assert right.balances.pool.cache.resident_count <= 4 < left.balances.pool.cache.resident_count
    assert len(right.ak_index._old) == 8 and remembered_keys(right.ak_index) <= 16 < remembered_keys(left.ak_index)
    for db in replicas:
        db.close()
    left_files = tree_bytes(tmp_path / "left")
    for other in ("right", "reborn"):
        other_files = tree_bytes(tmp_path / other)
        assert left_files.keys() == other_files.keys()
        for name in left_files:
            assert left_files[name] == other_files[name], f"{other}: file {name} differs"
        assert not filecmp.dircmp(tmp_path / "left", tmp_path / other).diff_files


def test_root_invariant_under_within_block_input_order(open_db):
    base = [
        AccountUpdate(address=addr(1), created=True, balance=1),
        AccountUpdate(address=addr(2), created=True, balance=2),
    ]
    one = open_db("one")
    two = open_db("two")
    one.apply_block(BlockDiff(block=1, updates=tuple(base)))
    two.apply_block(BlockDiff(block=1, updates=tuple(reversed(base))))
    assert one.state_root() == two.state_root()


def test_roots_differ_when_first_insertion_order_differs(open_db):
    # Same final key set, inserted across blocks in different orders.
    one = open_db("one")
    two = open_db("two")
    one.apply_block(diff(1, AccountUpdate(address=addr(1), created=True)))
    one.apply_block(diff(2, AccountUpdate(address=addr(2), created=True)))
    two.apply_block(diff(1, AccountUpdate(address=addr(2), created=True)))
    two.apply_block(diff(2, AccountUpdate(address=addr(1), created=True)))
    assert one.state_root().root != two.state_root().root


def test_roots_equal_when_only_overwrites_are_permuted_across_blocks(open_db):
    setup = diff(
        1,
        AccountUpdate(address=addr(1), created=True, balance=1),
        AccountUpdate(address=addr(2), created=True, balance=2),
    )
    one = open_db("one")
    two = open_db("two")
    one.apply_block(setup)
    two.apply_block(setup)
    one.apply_block(diff(2, AccountUpdate(address=addr(1), balance=10)))
    one.apply_block(diff(3, AccountUpdate(address=addr(2), balance=20)))
    two.apply_block(diff(2, AccountUpdate(address=addr(2), balance=20)))
    two.apply_block(diff(3, AccountUpdate(address=addr(1), balance=10)))
    assert one.state_root().root == two.state_root().root


def test_close_after_flush_writes_each_tree_file_once(tmp_path, monkeypatch):
    db = LiveDb(tmp_path / "db")
    slots = tuple((key(i), val(i + 1)) for i in range(8))
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, code=b"\x60", slots=slots)))
    written = []
    real_commit = livedb_module.commit

    def counting_commit(writes):  # the .tree entries of each commit's list
        written.extend(target.name for target, _, _ in writes if isinstance(target, Path) and target.suffix == ".tree")
        real_commit(writes)

    monkeypatch.setattr(livedb_module, "commit", counting_commit)
    db.flush()
    meta_before = (tmp_path / "db" / "meta.json").read_bytes()
    db.close()  # every tree is saved: its commit lists no tree file
    assert sorted(written) == sorted(path.name for path in (tmp_path / "db").glob("*.tree"))
    assert len(written) == 8
    assert (tmp_path / "db" / "meta.json").read_bytes() == meta_before
    reopened = LiveDb(tmp_path / "db")
    assert reopened.get_storage(addr(1), key(3)) == val(4)
    assert reopened.get_code(addr(1)) == b"\x60"
    reopened.close()


def test_close_whose_flush_fails_still_closes_every_file(tmp_path, monkeypatch):
    db = LiveDb(tmp_path / "db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, code=b"\x60")))
    db.flush()
    meta_before = (tmp_path / "db" / "meta.json").read_bytes()
    db.apply_block(diff(2, AccountUpdate(address=addr(1), balance=6)))

    def no_space(fd, data, offset):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "pwrite", no_space)  # every page write fails
    with pytest.raises(StorageError):
        db.close()
    assert len(db._cache._files) == 11 and all(fh.closed for fh in db._cache._files)  # the blob among them
    assert (tmp_path / "db" / "meta.json").read_bytes() == meta_before


def closed_db(directory):
    db = LiveDb(directory)
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, slots=((key(1), val(2)),))))
    db.close()
    return db


def test_read_after_close_raises_storage_error(tmp_path):
    db = closed_db(tmp_path / "db")
    with pytest.raises(StorageError, match="file is closed"):
        db.get_balance(addr(1))


def test_apply_block_after_close_raises_storage_error(tmp_path):
    db = closed_db(tmp_path / "db")
    with pytest.raises(StorageError, match="file is closed"):
        db.apply_block(diff(2, AccountUpdate(address=addr(1), balance=6)))


def test_nothing_answers_from_memory_after_close(tmp_path):
    """A remembered miss, a remembered hit, a storage read and the root all raise once the files are closed."""
    db = LiveDb(tmp_path / "db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, slots=((key(1), val(2)),))))
    assert db.get_balance(addr(9)) == 0 and not db.account_exists(addr(9))  # the index memo remembers the miss
    assert db.get_storage(addr(1), key(1)) == val(2)
    db.state_root()
    db.close()
    for read in (
        lambda: db.get_balance(addr(9)),
        lambda: db.account_exists(addr(9)),
        lambda: db.get_nonce(addr(1)),
        lambda: db.get_storage(addr(1), key(1)),
    ):
        with pytest.raises(StorageError, match="file is closed"):
            read()
    with pytest.raises(StorageError, match="database is closed"):
        db.state_root()


def test_flush_after_close_raises_and_writes_nothing(tmp_path):
    db = closed_db(tmp_path / "db")
    (tmp_path / "db" / "meta.json").unlink()
    with pytest.raises(StorageError, match="database is closed"):
        db.flush()
    assert not (tmp_path / "db" / "meta.json").exists()


def test_second_close_does_nothing(tmp_path):
    db = closed_db(tmp_path / "db")
    (tmp_path / "db" / "meta.json").unlink()
    db.close()
    assert not (tmp_path / "db" / "meta.json").exists()


def test_close_after_flush_opens_no_tree_file(tmp_path, monkeypatch):
    db = LiveDb(tmp_path / "db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, slots=((key(1), val(2)),))))
    db.flush()
    trees = {path.name: path.read_bytes() for path in (tmp_path / "db").glob("*.tree")}
    opened = []

    def counting_open(file, mode="r", *args, **kwargs):
        if Path(file).suffix == ".tree":  # files.open also opens the data files and meta.tmp
            opened.append((Path(file).name, mode))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(files_module, "open", counting_open, raising=False)
    db.close()
    assert opened == []
    reopened = LiveDb(tmp_path / "db")
    reopened.flush()
    assert opened == []  # trees loaded from their files are already saved
    reopened.apply_block(diff(2, AccountUpdate(address=addr(1), balance=6)))
    reopened.close()
    assert opened == [("balances.tree", "wb")]
    monkeypatch.undo()
    for name, data in trees.items():
        assert ((tmp_path / "db" / name).read_bytes() == data) == (name != "balances.tree")


def test_a_commit_that_would_change_nothing_lists_no_write_and_calls_no_writer(tmp_path, monkeypatch):
    """Right after a flush, and right after an existing database is opened, ``meta.json`` would not change, so the
    commit lists nothing and ``close()`` calls no ``files.py`` writer."""
    db = LiveDb(tmp_path / "db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, code=b"\x60", slots=((key(1), val(2)),))))
    db.flush()
    assert db.commit_writes() == []
    called = []

    def recording(name):
        return lambda *args: called.append(name)

    for name in ("pwrite", "write_file", "write_meta", "truncate", "remove", "commit"):  # every files.py writer
        monkeypatch.setattr(files_module, name, recording(name))
    monkeypatch.setattr(livedb_module, "commit", recording("commit"))  # livedb imports it by name
    db.close()
    reopened = LiveDb(tmp_path / "db")
    assert reopened.commit_writes() == []
    reopened.close()
    assert called == []
    monkeypatch.undo()
    reopened = LiveDb(tmp_path / "db")
    assert (reopened.block, reopened.get_storage(addr(1), key(1)), reopened.get_code(addr(1))) == (1, val(2), b"\x60")
    reopened.close()


def test_a_block_with_an_empty_diff_still_lists_meta_json(tmp_path):
    """An empty diff changes no record, but ``block`` moves, so the commit still replaces ``meta.json``."""
    db = LiveDb(tmp_path / "db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5)))
    db.flush()
    db.apply_block(diff(2))
    writes = db.commit_writes()
    assert writes[-1][0] == tmp_path / "db" / "meta.json" and writes[-1][2]["block"] == 2
    db.close()
    reopened = LiveDb(tmp_path / "db")
    assert (reopened.block, reopened.get_balance(addr(1))) == (2, 5)
    reopened.close()


def test_overwrites_do_not_grow_files(tmp_path, open_db):
    db = open_db("db")
    slots = tuple((key(i), val(1)) for i in range(64))
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, slots=slots)))
    db.flush()
    sizes_before = {p.name: p.stat().st_size for p in (tmp_path / "db").iterdir()}
    for block in range(2, 30):
        rewritten = tuple((key(i), val(block)) for i in range(64))
        db.apply_block(diff(block, AccountUpdate(address=addr(1), slots=rewritten)))
    db.flush()
    sizes_after = {p.name: p.stat().st_size for p in (tmp_path / "db").iterdir()}
    for name, size in sizes_before.items():
        if name == "meta.json":  # block counter width may drift by a few digits
            assert abs(sizes_after[name] - size) <= 16
        else:
            assert sizes_after[name] == size, f"{name} grew"


def test_cache_transparency(open_db, monkeypatch):
    cached = open_db("cached")
    monkeypatch.setattr(index_module, "KEYS_REMEMBERED", 0)
    uncached = open_db("uncached")
    for block_diff in generate(SMALL_SPEC):
        cached.apply_block(block_diff)
        uncached.apply_block(block_diff)
    assert cached.state_root() == uncached.state_root()
    addresses, slot_pairs = collect_touched(SMALL_SPEC)
    for address in addresses:
        assert cached.get_balance(address) == uncached.get_balance(address)
    for address, slot_key in slot_pairs:
        assert cached.get_storage(address, slot_key) == uncached.get_storage(address, slot_key)
    assert remembered_keys(uncached.a_index) == remembered_keys(uncached.ak_index) == 0 < remembered_keys(cached.ak_index)


def test_bytearray_address_applies_like_bytes(open_db):
    one = AccountUpdate(address=addr(1), created=True, balance=4, slots=((key(1), val(1)),))
    two = dict(created=True, balance=5, code=b"\x60\x00", slots=((key(2), val(2)),))
    mixed = open_db("mixed")
    mixed.apply_block(diff(1, one, AccountUpdate(address=bytearray(addr(2)), **two)))
    plain = open_db("plain")
    plain.apply_block(diff(1, one, AccountUpdate(address=addr(2), **two)))
    assert mixed.state_root() == plain.state_root()
    assert [mixed.get_balance(addr(n)) for n in (1, 2)] == [4, 5]
    assert mixed.get_storage(addr(2), key(2)) == val(2)
    assert mixed.get_code(addr(2)) == b"\x60\x00"


def apply_record_by_record(db, block_diff):
    """Apply ``block_diff`` with one store write per record, in update order."""
    for update in block_diff.updates:
        ordinal, was_new = db.a_index.get_or_add(update.address)
        if was_new:
            db.balances.set(ordinal, bytes(16))
            db.nonces.set(ordinal, bytes(8))
            db.exists_flags.set(ordinal, b"\x00")
            db.reincarnations.set(ordinal, bytes(4))
            db.codes.set_many({ordinal: b""})
        if update.deleted:
            reinc = int.from_bytes(db.reincarnations.get(ordinal), "big") + 1
            db.reincarnations.set(ordinal, reinc.to_bytes(4, "big"))
            db.exists_flags.set(ordinal, b"\x00")
            db.balances.set(ordinal, bytes(16))
            db.nonces.set(ordinal, bytes(8))
            db.codes.set_many({ordinal: b""})
        if update.created:
            db.exists_flags.set(ordinal, b"\x01")
        if update.balance is not None:
            db.balances.set(ordinal, update.balance.to_bytes(16, "big"))
        if update.nonce is not None:
            db.nonces.set(ordinal, update.nonce.to_bytes(8, "big"))
        if update.code is not None:
            db.codes.set_many({ordinal: update.code})
        prefix = update.address + db.reincarnations.get(ordinal)
        for slot_key, value in update.slots:
            db.values.set(db.ak_index.get_or_add(prefix + slot_key)[0], value)
    db.a_index.write_keys()  # as apply_block ends: LiveDb's roots are its stores' roots
    db.ak_index.write_keys()
    db.block = block_diff.block


def batched_write_blocks():
    """Blocks aimed at the batched write path: page-crossing appends, delete-and-write updates, one hot value page."""
    hot = addr(900)
    yield [
        AccountUpdate(address=addr(n), created=True, balance=n, nonce=1, slots=((key(n), val(n)),)) for n in range(1, 41)
    ] + [AccountUpdate(address=hot, created=True, code=b"\x60" * 40, slots=tuple((key(i), val(i)) for i in range(16)))]
    yield [
        # Deleted and written in one update: the slots belong to the new reincarnation.
        AccountUpdate(address=addr(3), deleted=True, slots=((key(3), val(33)), (key(99), val(99)))),
        # Never seen before, deleted and written in one update.
        AccountUpdate(address=addr(500), deleted=True, balance=7, slots=((key(1), val(5)),)),
        AccountUpdate(address=hot, slots=tuple((key(i), val(100 + i)) for i in range(16))),
    ] + [AccountUpdate(address=addr(n), created=True, balance=n) for n in range(41, 60)]
    yield [
        AccountUpdate(address=addr(3), created=True, balance=3, slots=((key(3), val(0)), (key(4), val(4)))),
        AccountUpdate(address=addr(500), deleted=True, slots=((key(1), val(6)),)),
        AccountUpdate(address=hot, deleted=True, slots=tuple((key(i), val(200 + i)) for i in range(0, 16, 2))),
    ]
    spec = WorkloadSpec(seed=5, blocks=25, accounts=60, txs_per_block=8, slot_writes_per_tx=3, new_key_ratio=0.4, delete_ratio=0.1)
    for generated in generate(spec):
        yield generated.updates


def test_batched_writes_match_record_by_record_writes_and_the_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(livedb_module, "CACHE_BYTES", 2 * 256)
    batched = LiveDb(tmp_path / "batched", page_size=256)
    single = LiveDb(tmp_path / "single", page_size=256)
    oracle = ReferenceOracle()
    addresses, slot_pairs = set(), set()
    for block, updates in enumerate(batched_write_blocks(), start=1):
        block_diff = BlockDiff(block=block, updates=tuple(updates))
        batched.apply_block(block_diff)
        apply_record_by_record(single, block_diff)
        oracle.apply_block(block_diff)
        roots = single.component_roots()
        assert batched.component_roots() == roots
        assert batched.state_root().root == digest(b"".join(roots[name] for name in ROOT_ORDER))
        for update in updates:
            addresses.add(update.address)
            slot_pairs.update((update.address, slot_key) for slot_key, _ in update.slots)
        for address in addresses:
            for read in ("get_balance", "get_nonce", "get_code", "account_exists"):
                assert getattr(batched, read)(address) == getattr(single, read)(address)
            assert batched.get_balance(address) == oracle.balance(address)
            assert batched.get_nonce(address) == oracle.nonce(address)
            assert batched.get_code(address) == oracle.code(address)
            assert batched.account_exists(address) == oracle.exists(address)
        for address, slot_key in slot_pairs:
            value = batched.get_storage(address, slot_key)
            assert value == single.get_storage(address, slot_key) == oracle.storage(address, slot_key)
    assert batched.get_storage(addr(3), key(99)) == val(99)
    assert batched.get_storage(addr(900), key(1)) == ZERO_VALUE
    batched.close()
    single.close()
    assert tree_bytes(tmp_path / "batched") == tree_bytes(tmp_path / "single")
