"""Fixed-size binary pages over backing files, with one bounded resident set.

A ``PageCache`` holds the resident pages of every file opened through it
under one budget of ``budget_bytes``. A dirty page stays resident until
its owner's commit writes it: the cache writes nothing itself but lists
the commit's page writes (``page_writes``), and ``mark_written`` then
keeps the pages as clean. Clean pages fill the room the dirty ones leave
and leave, unwritten, in load order. The owner commits once its dirty
pages and the bytes it keeps for the commit fill the budget (``full``).
A ``PagePool`` is one file's view of the cache, page i at offset
``i * page_size``; its page table, a list by page id of each resident
page (clean or dirty) or ``None``, makes a hit one list index that
reorders nothing. Only ``append_page`` adds a page; reading never extends the
file, and a page the file was cut short of after it was opened reads as
zeros. A cache belongs to one database: ``open`` opens each of its data
files, page files or not, new or existing as its ``create`` decided
(``files.open_data``); ``close`` closes all.
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
        self._pages: OrderedDict[int, bytearray] = OrderedDict()  # clean pages by key, first loaded first
        self._dirty: dict[int, bytearray] = {}  # pages that differ from their file, resident until written
        self._files: list[io.FileIO] = []  # by file number; files, not pools: a cycle would keep pages alive
        self._tables: list[list[bytearray | None]] = []  # by file number, each pool's page table

    @property
    def resident_count(self) -> int:
        return len(self._pages) + len(self._dirty)

    def full(self, pending_bytes: int) -> bool:  # dirty pages and the owner's pending bytes leave no room for a clean page
        return len(self._dirty) + pending_bytes // self.page_size >= self.capacity

    def open(self, path: Path) -> io.FileIO:
        """The database's data file ``path``, created new or required to exist; ``close`` closes it."""
        self._files.append(files.open_data(path, create=self._create))
        self._tables.append([])  # a page file's pool fills it; the code blob's stays empty
        return self._files[-1]

    def evict_over_capacity(self) -> None:
        while self._pages and len(self._pages) + len(self._dirty) > self.capacity:  # first-loaded clean pages go, unwritten
            key = self._pages.popitem(last=False)[0]
            self._tables[key & _FILE_MASK][key >> _FILE_BITS] = None

    def page_writes(self) -> list[tuple]:
        """The commit's write of each dirty page, by reference, at its place in its own file, in key order."""
        fhs, size = self._files, self.page_size
        return [(fhs[key & _FILE_MASK], (key >> _FILE_BITS) * size, self._dirty[key]) for key in sorted(self._dirty)]

    def mark_written(self) -> None:
        """The commit wrote every dirty page: each stays resident as clean; a new page is dirty until then."""
        self._pages.update(self._dirty)
        self._dirty.clear()
        self.evict_over_capacity()

    def close(self) -> None:
        """Close every file and drop the resident pages, writing none: callers commit first."""
        for fh in self._files:
            fh.close()
        for table in self._tables:  # as long as before, so a later read still reaches the closed file
            table[:] = [None] * len(table)
        self._pages.clear()
        self._dirty.clear()


class PagePool:
    """One file's pages in a shared ``PageCache``, reached through its page table."""

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
        self._table = cache._tables[self._file_no]  # page id -> resident page or None; its length is page_count
        size = files.size(self._fh)
        if size % page_size:
            raise CorruptionError(f"{self.file_path} size {size} is not a multiple of page_size {page_size}")
        self._table += [None] * (size // page_size)

    @property
    def page_count(self) -> int:
        return len(self._table)

    @property
    def resident_count(self) -> int:
        return len(self._table) - self._table.count(None)

    def get_page(self, page_id: int) -> bytearray:
        """Return the bytes of page ``page_id`` to read, loading it as needed; a write goes through ``write_page``.

        A page at or beyond ``page_count``, or below 0, is a bounds error.
        """
        table = self._table
        if not 0 <= page_id < len(table):  # before the index: a list takes -1 as its last item
            raise BoundsError(f"page {page_id} beyond pool end {len(table)}")
        data = table[page_id]
        if data is None:  # loaded clean; with the cache full of dirty pages it leaves the table at once
            data = table[page_id] = self._pages[page_id << _FILE_BITS | self._file_no] = self._load(page_id)
            self.cache.evict_over_capacity()
        return data

    def append_page(self) -> int:
        """Add a zeroed page at the end of the file and return its id; it stays dirty until written."""
        page_id = len(self._table)
        self._dirty[page_id << _FILE_BITS | self._file_no] = data = bytearray(self.page_size)
        self._table.append(data)
        self.cache.evict_over_capacity()
        return page_id

    def write_page(self, page_id: int) -> bytearray:
        """Return the bytes of page ``page_id`` to change; the page stays resident, dirty, until the next commit."""
        key = page_id << _FILE_BITS | self._file_no
        self._dirty[key] = self._table[page_id] = data = self.get_page(page_id)  # back in the table if it left at once
        self._pages.pop(key, None)  # a clean page moves; one dropped as soon as it was loaded is not there
        return data

    def _load(self, page_id: int) -> bytearray:
        data = bytearray(self.page_size)  # a read past the end of the file leaves zeros
        files.pread_into(self._fh, data, page_id * self.page_size)
        return data
