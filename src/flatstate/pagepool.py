"""Fixed-size binary pages over backing files, with one bounded resident set.

A ``PageCache`` holds the resident pages of every file opened through it
under one budget of ``budget_bytes``. A dirty page stays resident until
``flush``, the only place a page is written, writes it to its own file;
clean pages fill the room the dirty ones leave, in one least-recently-used
map whose eviction writes nothing. The owner commits once its dirty pages
and the bytes it keeps for the commit fill the budget (``full``). A
``PagePool`` is one file's view of the cache; its pages are addressed by
a dense id from 0, page i at offset ``i * page_size``. Only ``append_page``
adds a page; reading never extends the file, and a page the file was cut
short of after it was opened reads as zeros. A cache belongs to one
database: ``open`` opens each of its data files, page files or not, new or
existing as its ``create`` decided (``files.open_data``); ``close`` closes all.
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
        self._create = create  # a new database: its files are created, else each must exist
        self.capacity = max(2, budget_bytes // page_size)  # the page budget; clean pages fill what dirty ones leave
        self._pages: OrderedDict[int, bytearray] = OrderedDict()  # clean pages by key, oldest use first
        self._dirty: dict[int, bytearray] = {}  # pages that differ from their file, resident until flush
        self._files: list[io.FileIO] = []  # by file number; files, not pools: a cycle would keep pages alive

    @property
    def resident_count(self) -> int:
        return len(self._pages) + len(self._dirty)

    def full(self, pending_bytes: int) -> bool:  # dirty pages and the owner's pending bytes leave no room for a clean page
        return len(self._dirty) + pending_bytes // self.page_size >= self.capacity

    def open(self, path: Path) -> io.FileIO:
        """The database's data file ``path``, created new or required to exist; ``close`` closes it."""
        self._files.append(files.open_data(path, create=self._create))
        return self._files[-1]

    def evict_over_capacity(self) -> None:
        while self._pages and len(self._pages) + len(self._dirty) > self.capacity:  # oldest clean pages go, unwritten
            self._pages.popitem(last=False)

    def flush(self) -> None:
        """Write each dirty page to its own file once, then keep it as clean; a new page is dirty until written."""
        for key in sorted(self._dirty):
            self._write(key, self._dirty[key])
        self._pages.update(self._dirty)
        self._dirty.clear()
        self.evict_over_capacity()

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
        self._fh = cache.open(self.file_path)  # closed with the cache, also when the checks below fail
        size = files.size(self._fh)
        if size % page_size:
            raise CorruptionError(f"{self.file_path} size {size} is not a multiple of page_size {page_size}")
        self._page_count = size // page_size

    @property
    def page_count(self) -> int:
        return self._page_count

    @property
    def resident_count(self) -> int:
        return sum(1 for pages in (self._pages, self._dirty) for key in pages if key & _FILE_MASK == self._file_no)

    def get_page(self, page_id: int) -> bytearray:
        """Return the bytes of page ``page_id`` to read, loading it as needed; a write goes through ``write_page``.

        A page at or beyond ``page_count`` is a bounds error.
        """
        key = page_id << _FILE_BITS | self._file_no
        data = self._dirty.get(key)
        if data is not None:
            return data
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
        self._dirty[key] = bytearray(self.page_size)
        self.cache.evict_over_capacity()
        return page_id

    def write_page(self, page_id: int) -> bytearray:
        """Return the bytes of page ``page_id`` to change; the page stays resident, dirty, until the next flush."""
        key = page_id << _FILE_BITS | self._file_no
        self._dirty[key] = data = self.get_page(page_id)
        self._pages.pop(key, None)  # a clean page moves; one dropped as soon as it was loaded is not there
        return data

    def _load(self, page_id: int) -> bytearray:
        data = bytearray(self.page_size)  # a read past the end of the file leaves zeros
        files.pread_into(self._fh, data, page_id * self.page_size)
        return data
