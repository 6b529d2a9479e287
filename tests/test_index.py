"""Linear-hash indexer: dense ordinals, split safety, reverse-table commitment."""

import random

import pytest

from flatstate import index as index_module
from flatstate.digest import digest_count
from flatstate.errors import BoundsError
from flatstate.index import LinearHashIndex, bucket_hash
from flatstate.pagepool import PagePool
from flatstate.store import RecordStore


@pytest.fixture
def open_index(tmp_path):
    """Opens indexes under tmp_path and closes each one after the test."""
    opened = []

    def open_(key_width=20, page_size=256, name="idx", state=None, count=0):
        pool = PagePool(tmp_path / f"{name}.buckets", page_size=page_size, capacity=64)
        reverse = RecordStore.open(
            tmp_path / f"{name}.keys",
            key_width,
            count=count,
            page_size=page_size,
            capacity=64,
            tree_path=tmp_path / f"{name}.tree",
        )
        opened.append(LinearHashIndex(pool, reverse, key_width, state=state))
        return opened[-1]

    yield open_
    for index in opened:
        index.close()


def k20(n: int) -> bytes:
    return n.to_bytes(20, "big")


def test_first_key_gets_ordinal_zero(open_index):
    index = open_index()
    assert index.get_or_add(k20(7)) == (0, True)


def test_repeated_insert_is_idempotent(open_index):
    index = open_index()
    ordinal, was_new = index.get_or_add(k20(1))
    again, still_new = index.get_or_add(k20(1))
    assert (ordinal, was_new) == (0, True)
    assert (again, still_new) == (0, False)
    assert index.count == 1


def test_get_is_read_only(open_index):
    index = open_index()
    assert index.get(k20(5)) is None
    assert index.count == 0
    root = index.root_hash()
    index.get_or_add(k20(5))
    assert index.get(k20(5)) == 0
    assert index.root_hash() != root


def test_unaligned_match_in_bucket_is_not_a_hit(open_index):
    index = open_index()
    # The entry of `stored` (ordinal 0) is 8 bytes ++ tail ++ 8 zero bytes, so
    # `probe` = tail ++ 8 zero bytes occurs in the bucket page 8 bytes into it.
    pairs = ((b"\xaa" * 8 + n.to_bytes(12, "big"), n.to_bytes(12, "big") + bytes(8)) for n in range(1, 1000))

    def bucket_of(key):
        return index._primary_page(bucket_hash(key))

    stored, probe = next((s, p) for s, p in pairs if bucket_of(s) == bucket_of(p))
    assert index.get_or_add(stored) == (0, True)
    bucket = index.pool.get_page(bucket_of(stored)).data
    assert bucket.find(probe) == 10 + 8
    assert index.get(probe) is None
    assert index.get_or_add(probe) == (1, True)
    assert index.get(probe) == 1
    assert index.get(stored) == 0
    index.close()


def test_dense_ordinals_across_many_splits(open_index):
    # Small pages force frequent splits: (256-10)//28 = 8 slots per bucket.
    index = open_index()
    rng = random.Random(77)
    keys = [rng.randbytes(20) for _ in range(10_000)]
    buckets_seen = {len(index.bucket_pages)}
    ordinals = []
    for key in keys:
        ordinal, was_new = index.get_or_add(key)
        assert was_new
        ordinals.append(ordinal)
        buckets_seen.add(len(index.bucket_pages))
    assert sorted(ordinals) == list(range(10_000))
    assert len(buckets_seen) > 8  # at least 8 splits happened
    for key, expected in zip(keys, ordinals):
        assert index.get(key) == expected
        assert index.key_at(expected) == key


def test_key_at_bounds(open_index):
    index = open_index()
    index.get_or_add(k20(3))
    assert index.key_at(0) == k20(3)
    with pytest.raises(BoundsError):
        index.key_at(1)


def test_random_workload_matches_dict_oracle(open_index):
    rng = random.Random(404)
    index = open_index()
    oracle: dict[bytes, int] = {}
    universe = [rng.randbytes(20) for _ in range(600)]
    for _ in range(5_000):
        key = rng.choice(universe)
        if rng.random() < 0.5:
            ordinal, was_new = index.get_or_add(key)
            if key in oracle:
                assert (ordinal, was_new) == (oracle[key], False)
            else:
                assert was_new and ordinal == len(oracle)
                oracle[key] = ordinal
        else:
            assert index.get(key) == oracle.get(key)
    for key, ordinal in oracle.items():
        assert index.key_at(ordinal) == key


def test_commitment_ignores_duplicate_inserts(open_index):
    index = open_index()
    index.get_or_add(k20(1))
    index.get_or_add(k20(2))
    root = index.root_hash()
    index.get_or_add(k20(1))
    assert index.root_hash() == root


def test_same_sequence_same_root_and_permuted_sequence_differs(open_index):
    keys = [k20(i) for i in range(40)]
    left = open_index(name="left")
    right = open_index(name="right")
    for key in keys:
        left.get_or_add(key)
        right.get_or_add(key)
    assert left.root_hash() == right.root_hash()
    permuted = open_index(name="perm")
    for key in reversed(keys):
        permuted.get_or_add(key)
    assert permuted.root_hash() != left.root_hash()


def test_rebuild_from_key_sequence_reproduces_root(open_index):
    rng = random.Random(11)
    index = open_index(name="orig")
    for _ in range(500):
        index.get_or_add(rng.randbytes(20))
    rebuilt = open_index(name="rebuilt")
    for ordinal in range(index.count):
        rebuilt.get_or_add(index.key_at(ordinal))
    assert rebuilt.root_hash() == index.root_hash()


def test_empty_index_root_is_empty_tree_root(open_index):
    from flatstate.digest import EMPTY_HASH

    index = open_index()
    assert index.root_hash() == EMPTY_HASH


def test_persistence_roundtrip(open_index):
    rng = random.Random(55)
    index = open_index(name="persist")
    keys = [rng.randbytes(20) for _ in range(3_000)]
    for key in keys:
        index.get_or_add(key)
    root = index.root_hash()
    state = index.state()
    index.flush()
    index.close()
    reopened = open_index(name="persist", state=state, count=state["count"])
    assert reopened.root_hash() == root
    for ordinal, key in enumerate(keys):
        assert reopened.get(key) == ordinal
    assert reopened.get_or_add(rng.randbytes(20)) == (3_000, True)


@pytest.mark.parametrize("remembered", [0, 16, index_module.KEYS_REMEMBERED], ids=["none", "16", "default"])
def test_remembered_misses_place_keys_as_a_plain_insert_does(open_index, tmp_path, monkeypatch, remembered):
    # Each batch is looked up (all misses) before it is inserted, so splits
    # fall between a key's get() and its get_or_add(); then it is looked up
    # and inserted again, which a memo of 16 keys serves while evicting.
    rng = random.Random(2024)
    keys = [rng.randbytes(20) for _ in range(10_000)]
    monkeypatch.setattr(index_module, "KEYS_REMEMBERED", 0)
    plain = open_index(name="plain")
    monkeypatch.setattr(index_module, "KEYS_REMEMBERED", remembered)
    probed = open_index(name="probed")
    for start in range(0, len(keys), 50):
        batch = keys[start : start + 50]
        ordinals = list(range(start, start + len(batch)))
        for key in batch:
            plain.get_or_add(key)
        assert [probed.get(key) for key in batch] == [None] * len(batch)
        for key in batch:
            assert probed.get_or_add(key) == (plain.get(key), True)
        assert [probed.get(key) for key in batch] == ordinals
        assert [probed.get_or_add(key) for key in batch] == [(n, False) for n in ordinals]
    assert probed.state() == plain.state()
    assert len(plain.bucket_pages) > 1000
    assert (len(plain._known), len(probed._known)) == (0, min(remembered, len(keys)))
    plain.close()
    probed.close()
    for suffix in ("buckets", "keys"):
        assert (tmp_path / f"probed.{suffix}").read_bytes() == (tmp_path / f"plain.{suffix}").read_bytes()


def test_repeated_hit_walks_no_page_and_computes_no_digest(open_index):
    index = open_index(name="hits")
    for n in range(100):
        index.get_or_add(k20(n))
    state = index.state()
    index.close()
    reopened = open_index(name="hits", state=state, count=state["count"])
    pages = []
    real_get_page = reopened.pool.get_page
    reopened.pool.get_page = lambda page_id: pages.append(page_id) or real_get_page(page_id)
    assert reopened.get(k20(7)) == 7  # found by a walk, then remembered
    assert pages
    pages.clear()
    before = digest_count()
    assert reopened.get(k20(7)) == 7
    assert reopened.get_or_add(k20(7)) == (7, False)
    assert (pages, digest_count()) == ([], before)
    assert reopened.get_or_add(k20(100)) == (100, True)  # added, then remembered
    pages.clear()
    before = digest_count()
    assert reopened.get(k20(100)) == 100
    assert reopened.get_or_add(k20(100)) == (100, False)
    assert (pages, digest_count()) == ([], before)
    reopened.pool.get_page = real_get_page


def test_repeated_miss_walks_no_page_and_computes_no_digest(open_index):
    index = open_index()
    for n in range(100):
        index.get_or_add(k20(n))
    assert index.get(k20(1_000)) is None
    pages = []
    real_get_page = index.pool.get_page
    index.pool.get_page = lambda page_id: pages.append(page_id) or real_get_page(page_id)
    before = digest_count()
    assert index.get(k20(1_000)) is None
    assert (pages, digest_count()) == ([], before)
    index.pool.get_page = real_get_page
    index.close()


def test_remembered_miss_is_found_after_insertion(open_index):
    index = open_index()
    assert index.get(k20(9)) is None
    assert index.get_or_add(k20(9)) == (0, True)
    assert index.get(k20(9)) == 0
    assert index.get_or_add(k20(9)) == (0, False)
    assert index.count == 1
    index.close()


def test_remembered_misses_stay_bounded(open_index, monkeypatch):
    monkeypatch.setattr(index_module, "MISSES_REMEMBERED", 8)
    index = open_index()
    sizes = set()
    for n in range(100):
        assert index.get(k20(n)) is None
        sizes.add(len(index._misses))
    assert max(sizes) == 8
    for n in range(100):
        assert index.get_or_add(k20(n)) == (n, True)
        assert index.get(k20(n)) == n
    index.close()
