"""Page cache and pool behavior: transparency of eviction, durability of flush, a close that writes nothing."""

import os
import random

import pytest

from flatstate.errors import BoundsError, FormatError, StorageError
from flatstate.pagepool import PageCache, PagePool


@pytest.fixture
def open_pool(tmp_path):
    """Opens pools under tmp_path, each in a cache of its own, and closes each cache after the test."""
    opened = []

    def open_(page_size=256, capacity=4, name="pool.dat", create=True):
        cache = PageCache(page_size=page_size, budget_bytes=capacity * page_size, create=create)
        opened.append(cache)
        return PagePool(cache, tmp_path / name)

    yield open_
    for cache in opened:
        cache.close()


def write_page(pool, page_id, data):
    if page_id == pool.page_count:
        pool.append_page()
    pool.get_page(page_id)[:] = data
    pool.mark_dirty(page_id)


def test_fresh_pool_first_page_is_zero(open_pool):
    pool = open_pool(page_size=4096)
    assert pool.append_page() == 0
    assert bytes(pool.get_page(0)) == b"\x00" * 4096


def test_eviction_roundtrip(open_pool):
    pool = open_pool(page_size=256, capacity=2)
    payload = bytes(range(256))
    for i in range(8):
        write_page(pool, i, payload if i == 7 else bytes([i]) * 256)
    # Touch other pages until page 7 must have been evicted.
    pool.get_page(0)
    pool.get_page(1)
    assert pool.resident_count <= 2
    assert bytes(pool.get_page(7)) == payload


def test_config_validation(tmp_path):
    with pytest.raises(FormatError):
        PageCache(page_size=100, budget_bytes=4 * 256, create=True)
    with pytest.raises(FormatError):
        PageCache(page_size=32, budget_bytes=4 * 256, create=True)
    assert PageCache(page_size=256, budget_bytes=256, create=True).capacity == 2  # the page in use and the one it loads
    cache = PageCache(page_size=256, budget_bytes=4 * 256, create=True)
    for n in range(16):
        PagePool(cache, tmp_path / f"f{n}")
    with pytest.raises(FormatError):
        PagePool(cache, tmp_path / "x")
    cache.close()
    assert not (tmp_path / "x").exists()  # rejected before the file is opened


def test_page_id_gap_rejected(open_pool):
    pool = open_pool()
    with pytest.raises(BoundsError):
        pool.get_page(0)  # a read never extends the pool
    assert pool.append_page() == 0
    with pytest.raises(BoundsError):
        pool.get_page(1)
    assert pool.append_page() == 1
    pool.get_page(1)
    assert pool.page_count == 2


def test_flush_is_idempotent_and_materializes_all_pages(open_pool, tmp_path):
    pool = open_pool(page_size=256, capacity=4)
    pool.cache.flush()  # empty pool: no-op
    assert (tmp_path / "pool.dat").stat().st_size == 0
    for i in range(6):
        pool.append_page()  # written by flush even though its bytes never changed
    pool.cache.flush()
    first = (tmp_path / "pool.dat").read_bytes()
    assert len(first) == 6 * 256
    pool.cache.flush()
    assert (tmp_path / "pool.dat").read_bytes() == first


def test_mark_dirty_requires_residency(open_pool):
    pool = open_pool(capacity=2)
    for _ in range(4):
        pool.append_page()
    assert pool.resident_count == 2  # pages 0 and 1, the least recently used, were evicted
    with pytest.raises(BoundsError):
        pool.mark_dirty(0)


def test_random_schedule_matches_mirror_oracle(open_pool, tmp_path):
    """10^4 random write/read/evict/flush/reopen steps against a dict mirror."""
    rng = random.Random(1234)
    page_size = 128
    pool = open_pool(page_size=page_size, capacity=3)
    mirror = {}
    for step in range(10_000):
        action = rng.random()
        max_page = pool.page_count
        if action < 0.45:
            page_id = rng.randint(0, max_page)  # may append one
            data = rng.randbytes(page_size)
            write_page(pool, page_id, data)
            mirror[page_id] = data
        elif action < 0.9 and max_page:
            page_id = rng.randrange(max_page)
            expected = mirror.get(page_id, b"\x00" * page_size)
            assert bytes(pool.get_page(page_id)) == expected
        elif action < 0.97:
            pool.cache.flush()
        else:
            pool.cache.flush()
            pool.cache.close()
            pool = open_pool(page_size=page_size, capacity=3, create=False)
        assert pool.resident_count <= 3
    pool.cache.flush()
    for page_id, expected in mirror.items():
        assert bytes(pool.get_page(page_id)) == expected
    stored = (tmp_path / "pool.dat").read_bytes()
    assert len(stored) == pool.page_count * page_size
    for page_id in range(pool.page_count):
        expected = mirror.get(page_id, b"\x00" * page_size)
        assert stored[page_id * page_size : (page_id + 1) * page_size] == expected


def test_reopen_preserves_contents(open_pool):
    pool = open_pool(page_size=256, capacity=4)
    payloads = {i: bytes([i + 1]) * 256 for i in range(5)}
    for i, data in payloads.items():
        write_page(pool, i, data)
    pool.cache.flush()
    pool.cache.close()
    reopened = open_pool(page_size=256, capacity=4, create=False)
    for i, data in payloads.items():
        assert bytes(reopened.get_page(i)) == data


def test_page_past_end_of_file_reads_as_zeros(open_pool, tmp_path):
    pool = open_pool(capacity=2)
    for i in range(3):
        write_page(pool, i, bytes([i + 1]) * 256)
    pool.cache.flush()
    pool.cache.close()
    pool = open_pool(capacity=2, create=False)
    os.truncate(tmp_path / "pool.dat", 256 + 100)  # page 1 torn, page 2 gone
    assert bytes(pool.get_page(0)) == b"\x01" * 256
    assert bytes(pool.get_page(1)) == b"\x02" * 100 + bytes(156)
    assert bytes(pool.get_page(2)) == bytes(256)


def test_short_write_raises_storage_error(open_pool, tmp_path, monkeypatch):
    pool = open_pool()
    write_page(pool, 0, b"\x07" * 256)
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: real_pwrite(fd, data[:100], offset))
    with pytest.raises(StorageError, match="short write"):
        pool.cache.flush()
    monkeypatch.undo()
    pool.cache.flush()  # the page stayed dirty, so this writes it whole
    assert (tmp_path / "pool.dat").read_bytes() == b"\x07" * 256


def test_only_dirty_pages_are_written_and_each_once(open_pool, monkeypatch):
    pool = open_pool(page_size=256, capacity=2)
    for i in range(4):
        write_page(pool, i, bytes([i + 1]) * 256)
    pool.cache.flush()
    written = []
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: written.append(offset // 256) or real_pwrite(fd, data, offset))
    for i in range(4):
        assert bytes(pool.get_page(i)) == bytes([i + 1]) * 256  # read only, evicting as it goes
    pool.cache.flush()
    assert written == []  # a page that was only read is written neither on eviction nor on flush
    write_page(pool, 0, b"\x09" * 256)
    pool.get_page(1)
    pool.get_page(2)  # evicts dirty page 0
    assert written == [0]
    pool.cache.flush()
    assert written == [0]  # the evicted page was written once, not again by flush
    assert bytes(pool.get_page(0)) == b"\x09" * 256


def test_dirty_page_evicted_by_another_file_is_written_to_its_own_file(tmp_path, monkeypatch):
    cache = PageCache(page_size=256, budget_bytes=2 * 256, create=True)
    a = PagePool(cache, tmp_path / "a.dat")
    b = PagePool(cache, tmp_path / "b.dat")
    for pool, fill in ((a, 1), (a, 2), (b, 3), (b, 4)):
        write_page(pool, pool.page_count, bytes([fill]) * 256)
    cache.flush()
    write_page(a, 1, b"\x09" * 256)
    written = []
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: written.append((fd, offset)) or real_pwrite(fd, data, offset))
    b.get_page(0)
    b.get_page(1)  # evicts a's dirty page 1
    assert written == [(a._fh.fileno(), 256)]
    assert a.resident_count == 0 and b.resident_count == cache.resident_count == 2
    assert (tmp_path / "a.dat").read_bytes() == b"\x01" * 256 + b"\x09" * 256
    cache.flush()
    assert written == [(a._fh.fileno(), 256)]  # b's pages were only read, so b.dat is never written
    assert (tmp_path / "b.dat").read_bytes() == b"\x03" * 256 + b"\x04" * 256
    cache.close()


def test_close_closes_every_file_and_writes_no_page_dirtied_after_the_last_flush(tmp_path, monkeypatch):
    cache = PageCache(page_size=256, budget_bytes=4 * 256, create=True)
    a = PagePool(cache, tmp_path / "a.dat")
    b = PagePool(cache, tmp_path / "b.dat")
    write_page(a, 0, b"\x01" * 256)
    cache.flush()
    write_page(a, 0, b"\x02" * 256)  # a flushed page changed again
    write_page(b, 0, b"\x03" * 256)  # a new page, dirty since it was appended
    written = []
    monkeypatch.setattr(os, "pwrite", lambda *args: written.append(args))
    cache.close()
    assert written == []
    assert [fh.closed for fh in cache._files] == [True, True]
    assert cache.resident_count == 0
    assert (tmp_path / "a.dat").read_bytes() == b"\x01" * 256
    assert (tmp_path / "b.dat").read_bytes() == b""
