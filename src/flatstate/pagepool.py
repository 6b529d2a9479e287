"""Fixed-size binary pages over one backing file with a bounded resident set.

Pages are addressed by a dense id starting at 0. Page i lives at file
offset ``i * page_size``. Up to ``capacity`` pages stay in memory;
the least recently used page is evicted (written back first when dirty)
when the pool is full. Only ``append_page`` adds a page; reading a page
never extends the file. A page the file was cut short of after it was
opened reads as zeros.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path

from .errors import BoundsError, FormatError, StorageError

MIN_PAGE_SIZE = 64


class PagePool:
    def __init__(self, file_path: Path, *, page_size: int, capacity: int):
        if page_size < MIN_PAGE_SIZE or page_size & (page_size - 1):
            raise FormatError(f"page_size must be a power of two >= {MIN_PAGE_SIZE}, got {page_size}")
        if capacity < 2:
            raise FormatError(f"capacity must be >= 2, got {capacity}")
        self.file_path = Path(file_path)
        self.page_size = page_size
        self.capacity = capacity
        self._pages: OrderedDict[int, bytearray] = OrderedDict()  # resident pages, oldest use first
        self._dirty: set[int] = set()  # resident pages that differ from the file
        try:
            # Unbuffered: pages move by positional reads and writes only.
            self._fh = open(self.file_path, "r+b" if self.file_path.exists() else "w+b", buffering=0)
            size = os.fstat(self._fh.fileno()).st_size
        except OSError as exc:
            raise StorageError(f"cannot open pool file: {exc}", path=self.file_path) from exc
        if size % page_size:
            raise FormatError(f"{self.file_path} size {size} is not a multiple of page_size {page_size}")
        self._page_count = size // page_size

    @property
    def page_count(self) -> int:
        return self._page_count

    @property
    def resident_count(self) -> int:
        return len(self._pages)

    def get_page(self, page_id: int) -> bytearray:
        """Return the bytes of page ``page_id``, loading it as needed.

        A page at or beyond ``page_count`` is a bounds error. A caller that
        changes the bytes must call ``mark_dirty`` before the next pool
        operation, or the change may be lost on eviction.
        """
        data = self._pages.get(page_id)
        if data is not None:
            self._pages.move_to_end(page_id)
            return data
        if page_id >= self._page_count or page_id < 0:
            raise BoundsError(f"page {page_id} beyond pool end {self._page_count}")
        data = self._pages[page_id] = self._load(page_id)
        self._evict_over_capacity()
        return data

    def append_page(self) -> int:
        """Add a zeroed page at the end of the pool and return its id; it stays dirty until written."""
        page_id = self._page_count
        self._page_count += 1
        self._pages[page_id] = bytearray(self.page_size)
        self._dirty.add(page_id)
        self._evict_over_capacity()
        return page_id

    def mark_dirty(self, page_id: int) -> None:
        if page_id not in self._pages:
            raise BoundsError(f"page {page_id} is not resident")
        self._dirty.add(page_id)

    def flush(self) -> None:
        """Persist all dirty pages; afterwards the file covers every page (a new page is dirty until written)."""
        for page_id in sorted(self._dirty):
            self._write(page_id, self._pages[page_id])
        self._dirty.clear()

    def close(self) -> None:
        self.flush()
        self._fh.close()
        self._pages.clear()

    def _evict_over_capacity(self) -> None:
        while len(self._pages) > self.capacity:
            page_id, data = self._pages.popitem(last=False)
            if page_id in self._dirty:
                self._dirty.remove(page_id)
                self._write(page_id, data)

    def _load(self, page_id: int) -> bytearray:
        offset = page_id * self.page_size
        data = bytearray(self.page_size)  # a read past the end of the file leaves zeros
        try:
            os.preadv(self._fh.fileno(), [data], offset)
        except OSError as exc:
            raise StorageError(f"read failed: {exc}", path=self.file_path, offset=offset) from exc
        return data

    def _write(self, page_id: int, data: bytearray) -> None:
        offset = page_id * self.page_size
        try:
            written = os.pwrite(self._fh.fileno(), data, offset)
        except OSError as exc:
            raise StorageError(f"write failed: {exc}", path=self.file_path, offset=offset) from exc
        if written != self.page_size:
            raise StorageError(f"short write: {written} of {self.page_size} bytes", path=self.file_path, offset=offset)
