"""Page cache and pool behavior: eviction drops clean pages only, a commit alone writes, a close that writes nothing."""

import os
import random

import pytest

from flatstate import files
from flatstate.errors import BoundsError, FormatError, StorageError
from flatstate.pagepool import PageCache, PagePool

from util import commit


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
    pool.write_page(page_id)[:] = data


def test_fresh_pool_first_page_is_zero(open_pool):
    pool = open_pool(page_size=4096)
    assert pool.append_page() == 0
    assert bytes(pool.get_page(0)) == b"\x00" * 4096


def test_eviction_roundtrip(open_pool, tmp_path):
    """Dirty pages outlast the budget until a commit; then clean pages are evicted unwritten and read back from the file."""
    pool = open_pool(page_size=256, capacity=2)
    payload = bytes(range(256))
    for i in range(8):
        write_page(pool, i, payload if i == 7 else bytes([i]) * 256)
    assert pool.resident_count == 8  # dirty pages are never evicted
    assert (tmp_path / "pool.dat").read_bytes() == b""  # nor written before a commit
    commit(pool.cache)
    assert pool.resident_count == 2  # the committed pages became clean, and the oldest were evicted
    for i in range(7):  # touch other pages until page 7 must have been evicted
        assert bytes(pool.get_page(i)) == bytes([i]) * 256
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
    for take in (pool.get_page, pool.write_page):
        with pytest.raises(BoundsError):
            take(-1)  # not the last page, as a list index would have it
    with pytest.raises(BoundsError):
        pool.get_page(1)
    assert pool.append_page() == 1
    pool.get_page(1)
    assert pool.page_count == 2


def test_flush_is_idempotent_and_materializes_all_pages(open_pool, tmp_path):
    pool = open_pool(page_size=256, capacity=4)
    commit(pool.cache)  # empty pool: no-op
    assert (tmp_path / "pool.dat").stat().st_size == 0
    for i in range(6):
        pool.append_page()  # written by the commit even though its bytes never changed
    commit(pool.cache)
    first = (tmp_path / "pool.dat").read_bytes()
    assert len(first) == 6 * 256
    commit(pool.cache)
    assert (tmp_path / "pool.dat").read_bytes() == first


def test_dirty_pages_leave_clean_pages_only_the_room_they_leave(open_pool):
    """Clean pages never exceed the budget left by the dirty pages, and a dirty page is never evicted."""
    pool = open_pool(capacity=4)
    for i in range(4):
        write_page(pool, i, bytes([i + 1]) * 256)
    commit(pool.cache)
    assert (pool.resident_count, len(pool.cache._dirty)) == (4, 0)
    write_page(pool, 0, b"\x09" * 256)
    write_page(pool, 1, b"\x0a" * 256)
    assert (len(pool.cache._pages), len(pool.cache._dirty)) == (2, 2)
    assert not pool.cache.full(0)
    assert not pool.cache.full(511) and pool.cache.full(512)  # the owner's pending bytes count in whole pages
    assert bytes(pool.get_page(2)) == b"\x03" * 256  # a hit reorders nothing
    pool.append_page()  # a third dirty page leaves room for one clean page: page 2, loaded before page 3, goes
    assert sorted(key >> 4 for key in pool.cache._pages) == [3]
    pool.append_page()
    assert pool.cache.full(0) and len(pool.cache._pages) == 0
    assert bytes(pool.get_page(2)) == b"\x03" * 256  # loaded, returned and dropped at once
    assert pool.resident_count == 4
    assert bytes(pool.write_page(3)) == b"\x04" * 256  # a page loaded to be written stays, dirty
    assert pool.resident_count == 5 and sorted(key >> 4 for key in pool.cache._dirty) == [0, 1, 3, 4, 5]


def test_random_schedule_matches_mirror_oracle(open_pool, tmp_path, monkeypatch):
    """10^4 random write/read/commit/reopen steps against two dict mirrors: the pages, and the file as last committed.

    Clean pages never take more than the room the dirty pages leave, the
    file changes only at a commit, and a commit writes each dirty page once.
    """
    rng = random.Random(1234)
    page_size = 128
    pool = open_pool(page_size=page_size, capacity=3)
    mirror = {}  # page id -> bytes as last written
    flushed = b""  # the file as the last flush left it
    dirty = set()
    written = []
    real_pwrite = files.pwrite
    monkeypatch.setattr(files, "pwrite", lambda fh, data, offset: written.append(offset // page_size) or real_pwrite(fh, data, offset))

    def flush():
        nonlocal flushed
        assert (tmp_path / "pool.dat").read_bytes() == flushed and written == []
        commit(pool.cache)
        assert sorted(written) == sorted(dirty)
        written.clear()
        dirty.clear()
        flushed = b"".join(mirror.get(page_id, bytes(page_size)) for page_id in range(pool.page_count))

    for step in range(10_000):
        action = rng.random()
        max_page = pool.page_count
        if action < 0.45:
            page_id = rng.randint(0, max_page)  # may append one
            data = rng.randbytes(page_size)
            write_page(pool, page_id, data)
            mirror[page_id] = data
            dirty.add(page_id)
        elif action < 0.9 and max_page:
            page_id = rng.randrange(max_page)
            expected = mirror.get(page_id, b"\x00" * page_size)
            assert bytes(pool.get_page(page_id)) == expected
        elif action < 0.97:
            flush()
        else:
            flush()
            pool.cache.close()
            pool = open_pool(page_size=page_size, capacity=3, create=False)
        cache = pool.cache
        assert len(cache._dirty) == len(dirty) and len(cache._pages) <= max(0, 3 - len(dirty))
        held = {**cache._pages, **cache._dirty}  # the page table holds exactly the resident pages
        assert all(data is None or held.get(page_id << 4) is data for page_id, data in enumerate(pool._table))
        assert pool.resident_count == cache.resident_count
    flush()
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
    commit(pool.cache)
    pool.cache.close()
    reopened = open_pool(page_size=256, capacity=4, create=False)
    for i, data in payloads.items():
        assert bytes(reopened.get_page(i)) == data


def test_page_past_end_of_file_reads_as_zeros(open_pool, tmp_path):
    pool = open_pool(capacity=2)
    for i in range(3):
        write_page(pool, i, bytes([i + 1]) * 256)
    commit(pool.cache)
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
        commit(pool.cache)
    monkeypatch.undo()
    commit(pool.cache)  # the page stayed dirty, so this writes it whole
    assert (tmp_path / "pool.dat").read_bytes() == b"\x07" * 256


def test_only_dirty_pages_are_written_and_each_once(open_pool, monkeypatch):
    pool = open_pool(page_size=256, capacity=2)
    written = []
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: written.append(offset // 256) or real_pwrite(fd, data, offset))
    for i in range(4):
        write_page(pool, i, bytes([i + 1]) * 256)
    assert written == []  # four dirty pages in a budget of two: none is written before a commit
    commit(pool.cache)
    assert written == [0, 1, 2, 3]
    written.clear()
    for i in range(4):
        assert bytes(pool.get_page(i)) == bytes([i + 1]) * 256  # read only, evicting as it goes
    commit(pool.cache)
    assert written == []  # a page that was only read is written neither on eviction nor at a commit
    write_page(pool, 0, b"\x09" * 256)
    pool.get_page(1)
    pool.get_page(2)  # evicts clean page 1, never dirty page 0
    assert written == []
    commit(pool.cache)
    commit(pool.cache)
    assert written == [0]  # written once, by the first commit
    assert bytes(pool.get_page(0)) == b"\x09" * 256


def test_flush_writes_each_dirty_page_to_its_own_file_once(tmp_path, monkeypatch):
    cache = PageCache(page_size=256, budget_bytes=2 * 256, create=True)
    a = PagePool(cache, tmp_path / "a.dat")
    b = PagePool(cache, tmp_path / "b.dat")
    for pool, fill in ((a, 1), (a, 2), (b, 3), (b, 4)):
        write_page(pool, pool.page_count, bytes([fill]) * 256)
    commit(cache)
    write_page(a, 1, b"\x09" * 256)
    written = []
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: written.append((fd, offset)) or real_pwrite(fd, data, offset))
    b.get_page(0)
    b.get_page(1)  # evicts b's clean page 0, not a's dirty page 1
    assert written == []
    assert a.resident_count == b.resident_count == 1 and cache.resident_count == 2
    assert (tmp_path / "a.dat").read_bytes() == b"\x01" * 256 + b"\x02" * 256
    commit(cache)
    commit(cache)
    assert written == [(a._fh.fileno(), 256)]  # b's pages were only read, so b.dat is never written
    assert (tmp_path / "a.dat").read_bytes() == b"\x01" * 256 + b"\x09" * 256
    assert (tmp_path / "b.dat").read_bytes() == b"\x03" * 256 + b"\x04" * 256
    cache.close()


def test_close_closes_every_file_and_writes_no_page_dirtied_after_the_last_flush(tmp_path, monkeypatch):
    cache = PageCache(page_size=256, budget_bytes=4 * 256, create=True)
    a = PagePool(cache, tmp_path / "a.dat")
    b = PagePool(cache, tmp_path / "b.dat")
    write_page(a, 0, b"\x01" * 256)
    commit(cache)
    write_page(a, 0, b"\x02" * 256)  # a committed page changed again
    write_page(b, 0, b"\x03" * 256)  # a new page, dirty since it was appended
    written = []
    monkeypatch.setattr(os, "pwrite", lambda *args: written.append(args))
    cache.close()
    assert written == []
    assert [fh.closed for fh in cache._files] == [True, True]
    assert cache.resident_count == 0
    with pytest.raises(StorageError):
        a.get_page(0)  # the page table keeps its length, so a read after close reaches the closed file
    assert (tmp_path / "a.dat").read_bytes() == b"\x01" * 256
    assert (tmp_path / "b.dat").read_bytes() == b""
