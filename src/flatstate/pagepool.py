"""Fixed-size binary pages over backing files, with one bounded resident set.

A ``PageCache`` holds the resident pages of every file opened through it,
up to ``budget_bytes`` of them in one least-recently-used map; the least
recently used page is evicted, written back to its own file first when
dirty, once the cache is full. The cache owns write-back and file
lifetime: ``evict_over_capacity`` and ``flush`` are the only places a
page is written, and ``close`` closes every file. A ``PagePool`` is one
file's view of the cache. Pages of a file are addressed by a dense id
starting at 0, and page i lives at file offset ``i * page_size``. Only
``append_page`` adds a page; reading a page never extends the file. A
page the file was cut short of after it was opened reads as zeros.
A cache belongs to one database, whose ``create`` decides for each of its
files whether it is created new or must exist (``files.open_data``).
"""

from __future__ import annotations

import io
from collections import OrderedDict
from pathlib import Path

from . import files
from .errors import BoundsError, CorruptionError, FormatError

MIN_PAGE_SIZE = 64
_FILE_BITS = 4  # a resident page's key is page_id << _FILE_BITS | file number
_FILE_MASK = (1 << _FILE_BITS) - 1


class PageCache:
    """The resident pages of up to 16 files, bounded together by one byte budget."""

    def __init__(self, *, page_size: int, budget_bytes: int, create: bool):
        if page_size < MIN_PAGE_SIZE or page_size & (page_size - 1):
            raise FormatError(f"page_size must be a power of two >= {MIN_PAGE_SIZE}, got {page_size}")
        self.page_size = page_size
        self.create = create  # a new database: its files are created, else each must exist
        self.capacity = max(2, budget_bytes // page_size)  # pages resident at most
        self._pages: OrderedDict[int, bytearray] = OrderedDict()  # resident pages by key, oldest use first
        self._dirty: set[int] = set()  # keys of resident pages that differ from their file
        self._files: list[io.FileIO] = []  # by file number; files, not pools: a cycle would keep pages alive

    @property
    def resident_count(self) -> int:
        return len(self._pages)

    def evict_over_capacity(self) -> None:
        pages = self._pages
        while len(pages) > self.capacity:
            key, data = pages.popitem(last=False)
            if key in self._dirty:
                self._dirty.remove(key)
                self._write(key, data)

    def flush(self) -> None:
        """Persist all dirty pages; afterwards each file covers all its pages (a new page is dirty until written)."""
        for key in sorted(self._dirty):
            self._write(key, self._pages[key])
        self._dirty.clear()

    def close(self) -> None:
        """Close every file and drop the resident pages, writing none: callers ``flush()`` first."""
        for fh in self._files:
            fh.close()
        self._pages.clear()
        self._dirty.clear()

    def _write(self, key: int, data: bytearray) -> None:
        files.pwrite(self._files[key & _FILE_MASK], data, (key >> _FILE_BITS) * self.page_size)


class PagePool:
    """One file's pages in a shared ``PageCache``."""

    def __init__(self, cache: PageCache, file_path: Path):
        self.cache = cache
        self.file_path = Path(file_path)
        self.page_size = page_size = cache.page_size
        self._file_no = len(cache._files)
        if self._file_no > _FILE_MASK:
            raise FormatError(f"a page cache holds at most {_FILE_MASK + 1} files")
        self._pages = cache._pages
        self._dirty = cache._dirty
        self._fh = files.open_data(self.file_path, create=cache.create)
        cache._files.append(self._fh)  # closed with the cache, also when the checks below fail
        size = files.size(self._fh)
        if size % page_size:
            raise CorruptionError(f"{self.file_path} size {size} is not a multiple of page_size {page_size}")
        self._page_count = size // page_size

    @property
    def page_count(self) -> int:
        return self._page_count

    @property
    def resident_count(self) -> int:
        return sum(1 for key in self._pages if key & _FILE_MASK == self._file_no)

    def get_page(self, page_id: int) -> bytearray:
        """Return the bytes of page ``page_id``, loading it as needed.

        A page at or beyond ``page_count`` is a bounds error. A caller that
        changes the bytes must call ``mark_dirty`` before the next cache
        operation on any file, or the change may be lost on eviction.
        """
        key = page_id << _FILE_BITS | self._file_no
        data = self._pages.get(key)
        if data is not None:
            self._pages.move_to_end(key)
            return data
        if page_id >= self._page_count or page_id < 0:
            raise BoundsError(f"page {page_id} beyond pool end {self._page_count}")
        data = self._pages[key] = self._load(page_id)
        self.cache.evict_over_capacity()
        return data

    def append_page(self) -> int:
        """Add a zeroed page at the end of the file and return its id; it stays dirty until written."""
        page_id = self._page_count
        self._page_count += 1
        key = page_id << _FILE_BITS | self._file_no
        self._pages[key] = bytearray(self.page_size)
        self._dirty.add(key)
        self.cache.evict_over_capacity()
        return page_id

    def mark_dirty(self, page_id: int) -> None:
        key = page_id << _FILE_BITS | self._file_no
        if key not in self._pages:
            raise BoundsError(f"page {page_id} is not resident")
        self._dirty.add(key)

    def _load(self, page_id: int) -> bytearray:
        data = bytearray(self.page_size)  # a read past the end of the file leaves zeros
        files.pread_into(self._fh, data, page_id * self.page_size)
        return data
