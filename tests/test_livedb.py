"""Live database: reads, block application, commitments, determinism."""

import filecmp
import hashlib
import json
import random

import pytest

from flatstate import index as index_module
from flatstate.digest import EMPTY_HASH, digest_count
from flatstate.errors import CorruptionError, SequenceError, ValidationError
from flatstate.hashtree import HashTree
from flatstate.livedb import LiveDb, ROOT_ORDER
from flatstate.oracle import ReferenceOracle
from flatstate.types import AccountUpdate, BlockDiff, ZERO_VALUE
from flatstate.workload import WorkloadSpec, generate

from util import addr, key, val


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


def test_repeated_state_root_does_no_hash_work(open_db):
    db = open_db("db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=4)))
    first = db.state_root()
    before = digest_count()
    for _ in range(3):
        assert db.state_root() == first
    assert digest_count() == before


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


@pytest.mark.parametrize("field", ["format", "block", "accounts", "slots", "a_index", "ak_index.count", "not-an-object"])
def test_damaged_meta_fields_are_reported_as_corruption(tmp_path, field):
    db = LiveDb(tmp_path / "db")
    db.apply_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5)))
    db.close()
    path = tmp_path / "db" / "meta.json"
    meta = json.loads(path.read_text())
    if field == "not-an-object":
        meta, message = [meta], "meta.json holds"
    else:
        *outer, name = field.split(".")
        holder = meta
        for step in outer:
            holder = holder[step]
        del holder[name]
        message = f"meta.json lacks field '{name}'"
    path.write_text(json.dumps(meta))
    with pytest.raises(CorruptionError, match=message):
        LiveDb(tmp_path / "db")


def tree_bytes(root_dir):
    files = {}
    for path in sorted(root_dir.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(root_dir))] = path.read_bytes()
    return files


def test_two_replicas_produce_identical_roots_and_files(tmp_path, monkeypatch):
    left = LiveDb(tmp_path / "left")
    monkeypatch.setattr(index_module, "KEYS_REMEMBERED", 16)  # memo size must not matter
    right = LiveDb(tmp_path / "right")
    for block_diff in generate(SMALL_SPEC):
        left.apply_block(block_diff)
        right.apply_block(block_diff)
        assert left.state_root() == right.state_root()
    assert len(right.ak_index._known) == 16 < len(left.ak_index._known)
    left.close()
    right.close()
    left_files = tree_bytes(tmp_path / "left")
    right_files = tree_bytes(tmp_path / "right")
    assert left_files.keys() == right_files.keys()
    for name in left_files:
        assert left_files[name] == right_files[name], f"file {name} differs"
    assert not filecmp.dircmp(tmp_path / "left", tmp_path / "right").diff_files


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
    db.flush()
    written = []
    real_flush = HashTree.flush

    def counting_flush(tree, page_reader):
        written.append(tree.node_path.name)
        real_flush(tree, page_reader)

    monkeypatch.setattr(HashTree, "flush", counting_flush)
    meta_before = (tmp_path / "db" / "meta.json").read_bytes()
    db.close()
    assert sorted(written) == sorted(path.name for path in (tmp_path / "db").glob("*.tree"))
    assert len(written) == 8
    assert (tmp_path / "db" / "meta.json").read_bytes() == meta_before
    reopened = LiveDb(tmp_path / "db")
    assert reopened.get_storage(addr(1), key(3)) == val(4)
    assert reopened.get_code(addr(1)) == b"\x60"
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
    assert len(uncached.a_index._known) == len(uncached.ak_index._known) == 0 < len(cached.ak_index._known)
