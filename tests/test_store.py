"""Record store and depot: seek arithmetic, oracle equivalence, hashing."""

import hashlib
import random

import pytest

from flatstate.errors import BoundsError, CorruptionError, FormatError
from flatstate.pagepool import PagePool, PoolConfig
from flatstate.store import Depot, RecordStore


def make_store(tmp_path, record_size, page_size=4096, capacity=8, name="store.dat"):
    pool = PagePool(PoolConfig(file_path=tmp_path / name, page_size=page_size, capacity=capacity))
    return RecordStore(pool, record_size)


def test_slot_arithmetic_golden_case(tmp_path):
    store = make_store(tmp_path, record_size=32, page_size=4096)
    for r in range(129):
        store.set(r, r.to_bytes(32, "big"))
    store.flush()
    data = (tmp_path / "store.dat").read_bytes()
    # 4096 / 32 = 128 slots per page: record 128 sits at page 1, slot 0.
    assert data[4096:4128] == (128).to_bytes(32, "big")


@pytest.mark.parametrize("record_size,page_size", [(1, 256), (7, 256), (32, 4096), (44, 512), (56, 512)])
def test_record_placement_exhaustive(tmp_path, record_size, page_size):
    count = 10_000 if record_size <= 8 else 2_000
    store = make_store(tmp_path, record_size, page_size=page_size, name=f"s{record_size}.dat")
    for r in range(count):
        store.set(r, (r % 251).to_bytes(1, "big") * record_size)
    store.flush()
    data = (tmp_path / f"s{record_size}.dat").read_bytes()
    slots = page_size // record_size
    for r in range(count):
        offset = (r // slots) * page_size + (r % slots) * record_size
        assert data[offset : offset + record_size] == (r % 251).to_bytes(1, "big") * record_size


def test_set_get_roundtrip_and_overwrite(tmp_path):
    store = make_store(tmp_path, record_size=16)
    store.set(0, b"a" * 16)
    assert store.get(0) == b"a" * 16
    store.set(0, b"b" * 16)
    assert store.get(0) == b"b" * 16


def test_bounds_and_format_errors(tmp_path):
    store = make_store(tmp_path, record_size=16)
    with pytest.raises(BoundsError):
        store.get(0)
    with pytest.raises(BoundsError):
        store.set(1, b"x" * 16)  # count is 0, only record 0 may be appended
    with pytest.raises(FormatError):
        store.set(0, b"short")


def test_random_schedule_matches_flat_array_oracle(tmp_path):
    rng = random.Random(2024)
    store = make_store(tmp_path, record_size=8, page_size=256, capacity=3)
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


def test_store_root_tracks_content(tmp_path):
    store = make_store(tmp_path, record_size=32)
    empty = store.root()
    store.set(0, b"\x11" * 32)
    first = store.root()
    assert first != empty
    store.set(0, b"\x11" * 32)  # identical rewrite: leaf re-hashed, same root
    assert store.root() == first


def make_depot(tmp_path):
    meta = make_store(tmp_path, record_size=44, name="codes.meta")
    return Depot(meta, tmp_path / "codes.blob")


def test_depot_empty_code(tmp_path):
    depot = make_depot(tmp_path)
    depot.set(0, b"")
    assert depot.get(0) == b""
    meta = depot.meta.get(0)
    assert int.from_bytes(meta[8:12], "big") == 0
    assert meta[12:44] == hashlib.sha256(b"").digest()


def test_depot_roundtrip_and_oracle(tmp_path):
    rng = random.Random(9)
    depot = make_depot(tmp_path)
    oracle: list[bytes] = []
    for _ in range(800):
        if rng.random() < 0.6 or not oracle:
            r = rng.randint(0, len(oracle))
            code = rng.randbytes(rng.randint(0, 600))
            depot.set(r, code)
            if r == len(oracle):
                oracle.append(code)
            else:
                oracle[r] = code
        else:
            r = rng.randrange(len(oracle))
            assert depot.get(r) == oracle[r]
    for r, expected in enumerate(oracle):
        assert depot.get(r) == expected


def test_depot_rejects_oversized_code(tmp_path):
    depot = make_depot(tmp_path)
    with pytest.raises(FormatError):
        depot.set(0, b"\x00" * 25601)


def test_depot_detects_blob_corruption(tmp_path):
    depot = make_depot(tmp_path)
    depot.set(0, b"\xaa" * 100)
    depot.flush()
    blob = tmp_path / "codes.blob"
    raw = bytearray(blob.read_bytes())
    raw[10] ^= 0xFF
    blob.write_bytes(raw)
    fresh_meta = RecordStore(
        PagePool(PoolConfig(file_path=tmp_path / "codes.meta", page_size=4096, capacity=8)), 44, count=1
    )
    tampered = Depot(fresh_meta, blob)
    with pytest.raises(CorruptionError):
        tampered.get(0)


def test_depot_root_changes_with_code_content(tmp_path):
    depot = make_depot(tmp_path)
    depot.set(0, b"one")
    first = depot.root()
    depot.set(0, b"two")
    assert depot.root() != first
