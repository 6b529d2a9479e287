"""Record store and depot: seek arithmetic, oracle equivalence, hashing."""

import hashlib
import os
import random

import pytest

from flatstate.errors import BoundsError, CorruptionError, FormatError
from flatstate.pagepool import PageCache
from flatstate.store import Depot, RecordStore

from util import commit


@pytest.fixture
def opened():
    """Page caches a test opens, closed after it with every file they opened."""
    held = []
    yield held
    for item in held:
        item.close()


@pytest.fixture
def open_store(tmp_path, opened):
    def open_(record_size, page_size=4096, capacity=8, name="store.dat"):
        cache = PageCache(page_size=page_size, budget_bytes=capacity * page_size, create=True)
        opened.append(cache)
        return RecordStore(cache, tmp_path / name, record_size)

    return open_


def test_slot_arithmetic_golden_case(open_store, tmp_path):
    store = open_store(record_size=32, page_size=4096)
    for r in range(129):
        store.set(r, r.to_bytes(32, "big"))
    commit(store.pool.cache)
    data = (tmp_path / "store.dat").read_bytes()
    # 4096 / 32 = 128 slots per page: record 128 sits at page 1, slot 0.
    assert data[4096:4128] == (128).to_bytes(32, "big")


@pytest.mark.parametrize("record_size,page_size", [(1, 256), (7, 256), (32, 4096), (44, 512), (56, 512)])
def test_record_placement_exhaustive(open_store, tmp_path, record_size, page_size):
    count = 10_000 if record_size <= 8 else 2_000
    store = open_store(record_size, page_size=page_size, name=f"s{record_size}.dat")
    for r in range(count):
        store.set(r, (r % 251).to_bytes(1, "big") * record_size)
    commit(store.pool.cache)
    data = (tmp_path / f"s{record_size}.dat").read_bytes()
    slots = page_size // record_size
    for r in range(count):
        offset = (r // slots) * page_size + (r % slots) * record_size
        assert data[offset : offset + record_size] == (r % 251).to_bytes(1, "big") * record_size


def test_set_get_roundtrip_and_overwrite(open_store):
    store = open_store(record_size=16)
    store.set(0, b"a" * 16)
    assert store.get(0) == b"a" * 16
    store.set(0, b"b" * 16)
    assert store.get(0) == b"b" * 16


def test_get_returns_bytes_from_dirty_clean_and_cut_off_pages(open_store, tmp_path):
    store = open_store(record_size=16, page_size=256, capacity=2)
    store.set_many({r: bytes([r]) * 16 for r in range(48)})  # pages 0..2
    commit(store.pool.cache)  # page 0, the first loaded, leaves
    store.set(0, b"\xff" * 16)  # page 0 comes back dirty, and page 1 leaves
    cache = store.pool.cache
    assert [key >> 4 for key in cache._dirty] == [0] and [key >> 4 for key in cache._pages] == [2]
    os.truncate(tmp_path / "store.dat", 256)  # page 1 is no longer in the file
    for record, expected in ((0, b"\xff" * 16), (32, bytes([32]) * 16), (16, bytes(16))):
        got = store.get(record)
        assert type(got) is bytes and got == expected


def test_bounds_and_format_errors(open_store):
    store = open_store(record_size=16)
    with pytest.raises(BoundsError):
        store.get(0)
    with pytest.raises(BoundsError):
        store.set(1, b"x" * 16)  # count is 0, only record 0 may be appended
    with pytest.raises(FormatError):
        store.set(0, b"short")
    for record_size in (0, 4097):
        with pytest.raises(FormatError, match=f"record_size {record_size} must be in 1..4096"):
            open_store(record_size=record_size)


def test_random_schedule_matches_flat_array_oracle(open_store):
    rng = random.Random(2024)
    store = open_store(record_size=8, page_size=256, capacity=3)
    oracle: list[bytes] = []
    for _ in range(5_000):
        if rng.random() < 0.55 or not oracle:
            r = rng.randint(0, len(oracle))
            data = rng.randbytes(8)
            store.set(r, data)
            if r == len(oracle):
                oracle.append(data)
            else:
                oracle[r] = data
        else:
            r = rng.randrange(len(oracle))
            assert store.get(r) == oracle[r]
    assert store.count == len(oracle)
    for r, expected in enumerate(oracle):
        assert store.get(r) == expected


def test_store_root_tracks_content(open_store):
    store = open_store(record_size=32)
    empty = store.root()
    store.set(0, b"\x11" * 32)
    first = store.root()
    assert first != empty
    store.set(0, b"\x11" * 32)  # identical rewrite: leaf re-hashed, same root
    assert store.root() == first


def test_set_many_matches_record_by_record_writes(open_store, tmp_path):
    rng = random.Random(77)
    batched = open_store(record_size=8, page_size=256, capacity=2, name="batched.dat")
    single = open_store(record_size=8, page_size=256, capacity=2, name="single.dat")
    for _ in range(200):
        writes = {}
        for _ in range(rng.randint(0, 40)):
            writes[rng.randint(0, single.count + len(writes))] = rng.randbytes(8)
        # Appends must follow on without a gap: keep only the unbroken run past count.
        end = single.count
        while end in writes:
            end += 1
        writes = {r: data for r, data in writes.items() if r < end}
        batched.set_many(writes)
        for r in sorted(writes):
            single.set(r, writes[r])
        assert batched.count == single.count
        assert batched.root() == single.root()
    commit(batched.pool.cache)
    commit(single.pool.cache)
    assert (tmp_path / "batched.dat").read_bytes() == (tmp_path / "single.dat").read_bytes()


def test_set_many_fetches_each_page_once(open_store, monkeypatch):
    store = open_store(record_size=8, page_size=256)  # 32 records per page
    fetched = []
    get_page = store.pool.get_page
    monkeypatch.setattr(store.pool, "get_page", lambda page_id: fetched.append(page_id) or get_page(page_id))
    store.set_many({r: r.to_bytes(8, "big") for r in reversed(range(70))})
    assert fetched == [0, 1, 2]
    assert [store.get(r) for r in range(70)] == [r.to_bytes(8, "big") for r in range(70)]


def test_set_many_checks_each_write_like_set(open_store):
    store = open_store(record_size=16)
    with pytest.raises(BoundsError):
        store.set_many({0: b"x" * 16, 2: b"x" * 16})  # record 1 missing
    assert store.count == 1
    with pytest.raises(FormatError):
        store.set_many({0: b"short"})
    with pytest.raises(BoundsError):
        store.set_many({-1: b"x" * 16})
    store.set_many({})
    assert store.count == 1


@pytest.fixture
def open_depot(tmp_path, opened):
    def open_():
        cache = PageCache(page_size=4096, budget_bytes=8 * 4096, create=True)
        opened.append(cache)
        return Depot(RecordStore(cache, tmp_path / "codes.meta", 44), tmp_path / "codes.blob")

    return open_


def test_depot_empty_code(open_depot):
    depot = open_depot()
    depot.set_many({0: b""})
    assert depot.get(0) == b""
    meta = depot.meta.get(0)
    assert int.from_bytes(meta[8:12], "big") == 0
    assert meta[12:44] == hashlib.sha256(b"").digest()


def test_depot_roundtrip_and_oracle(open_depot):
    rng = random.Random(9)
    depot = open_depot()
    oracle: list[bytes] = []
    for step in range(800):
        if step % 100 == 99:
            commit(depot.meta.pool.cache, depot)  # later reads mix committed bodies with pending ones
        if rng.random() < 0.6 or not oracle:
            r = rng.randint(0, len(oracle))
            code = rng.randbytes(rng.randint(0, 600))
            depot.set_many({r: code})
            if r == len(oracle):
                oracle.append(code)
            else:
                oracle[r] = code
        else:
            r = rng.randrange(len(oracle))
            assert depot.get(r) == oracle[r]
    for r, expected in enumerate(oracle):
        assert depot.get(r) == expected


def test_depot_appends_bodies_in_the_order_they_were_set(open_depot):
    depot = open_depot()
    depot.set_many({0: b"a"})
    depot.set_many({2: b"ccc", 1: b"dd"})  # record 2 first: its body goes first, though records are written in order
    assert depot.pending == b"acccdd"
    commit(depot.meta.pool.cache, depot)
    depot.set_many({0: b"ee"})  # after the commit, at the blob's committed end
    assert depot.pending == b"ee" and depot.blob_writes() == [(depot._blob, 6, depot.pending)]
    assert [int.from_bytes(depot.meta.get(r)[0:8], "big") for r in range(3)] == [6, 4, 1]
    assert [depot.get(r) for r in range(3)] == [b"ee", b"dd", b"ccc"]


def test_depot_rejects_oversized_code(open_depot):
    depot = open_depot()
    with pytest.raises(FormatError):
        depot.set_many({0: b"\x00" * 25601})


def test_depot_detects_blob_corruption(open_depot, opened, tmp_path):
    depot = open_depot()
    depot.set_many({0: b"\xaa" * 100})
    commit(depot.meta.pool.cache, depot)  # the body reaches the blob only at a commit
    blob = tmp_path / "codes.blob"
    raw = bytearray(blob.read_bytes())
    raw[10] ^= 0xFF
    blob.write_bytes(raw)
    cache = PageCache(page_size=4096, budget_bytes=8 * 4096, create=False)
    opened.append(cache)
    tampered = Depot(RecordStore(cache, tmp_path / "codes.meta", 44, count=1), blob)
    with pytest.raises(CorruptionError):
        tampered.get(0)


def test_depot_root_changes_with_code_content(open_depot):
    depot = open_depot()
    depot.set_many({0: b"one"})
    first = depot.meta.root()
    depot.set_many({0: b"two"})
    assert depot.meta.root() != first
