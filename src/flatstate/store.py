"""Constant-time record access over the page pool.

A RecordStore keeps fixed-length records addressed by a dense record
number: record r lives in page ``r // slots_per_page`` at slot
``r % slots_per_page``, so one seek reaches any record. Records never
straddle pages; trailing page bytes stay zero. Every store carries a
hash tree over its pages for the component commitment.

A Depot extends the scheme to variable-length payloads (contract code):
fixed-length meta records (offset, length, digest) point into an
append-only blob file, and the digest inside the meta record is what the
hash tree commits to.
"""

from __future__ import annotations

import os
from pathlib import Path

from .digest import digest
from .errors import BoundsError, CorruptionError, FormatError, StorageError
from .hashtree import HashTree
from .pagepool import PagePool
from .types import MAX_CODE_SIZE

DEPOT_META_SIZE = 8 + 4 + 32  # blob offset, length, code digest


class RecordStore:
    def __init__(self, pool: PagePool, record_size: int, count: int = 0, tree: HashTree | None = None):
        if record_size <= 0 or record_size > pool.page_size:
            raise FormatError(f"record_size {record_size} must be in 1..{pool.page_size}")
        self.pool = pool
        self.record_size = record_size
        self.slots_per_page = pool.page_size // record_size
        self.count = count
        self.tree = tree if tree is not None else HashTree()
        if self.tree.leaf_count < self.page_count:
            self.tree.grow(self.page_count)

    @classmethod
    def open(
        cls,
        data_path: Path,
        record_size: int,
        count: int = 0,
        page_size: int = 4096,
        capacity: int = 256,
        tree_path: Path | None = None,
    ) -> "RecordStore":
        pool = PagePool(data_path, page_size=page_size, capacity=capacity)
        tree = HashTree(tree_path, leaf_count=_pages_for(count, page_size // record_size))
        return cls(pool, record_size, count=count, tree=tree)

    @property
    def page_count(self) -> int:
        return _pages_for(self.count, self.slots_per_page)

    def get(self, record: int) -> bytes:
        if record < 0 or record >= self.count:
            raise BoundsError(f"record {record} out of range 0..{self.count - 1}")
        page_id, offset = self._locate(record)
        page = self.pool.get_page(page_id)
        return bytes(page.data[offset : offset + self.record_size])

    def set(self, record: int, data: bytes) -> None:
        """Write record ``record``; ``record == count`` appends."""
        if len(data) != self.record_size:
            raise FormatError(f"record must be {self.record_size} bytes, got {len(data)}")
        if record < 0 or record > self.count:
            raise BoundsError(f"record {record} beyond append position {self.count}")
        if record == self.count:
            self.count += 1
        page_id, offset = self._locate(record)
        page = self.pool.get_page(page_id)
        page.data[offset : offset + self.record_size] = data
        self.pool.mark_dirty(page_id)
        self.tree.mark_dirty(page_id)

    def root(self) -> bytes:
        return self.tree.root(self._page_bytes)

    def flush(self) -> None:
        self.tree.flush(self._page_bytes)
        self.pool.flush()

    def close(self) -> None:
        self.flush()
        self.pool.close()

    def _locate(self, record: int) -> tuple[int, int]:
        return record // self.slots_per_page, (record % self.slots_per_page) * self.record_size

    def _page_bytes(self, page_id: int) -> bytearray:
        return self.pool.get_page(page_id).data


class Depot:
    """Variable-length payloads behind a fixed-record meta store."""

    def __init__(self, meta: RecordStore, blob_path: Path):
        self.meta = meta
        self.blob_path = Path(blob_path)
        try:
            self._blob = open(self.blob_path, "r+b" if self.blob_path.exists() else "w+b")
            self._blob_size = os.fstat(self._blob.fileno()).st_size
        except OSError as exc:
            raise StorageError(f"cannot open blob file: {exc}", path=blob_path) from exc

    @property
    def count(self) -> int:
        return self.meta.count

    def set(self, record: int, code: bytes) -> None:
        """Store ``code`` under ``record``; old blob bytes become garbage."""
        if len(code) > MAX_CODE_SIZE:
            raise FormatError(f"code length {len(code)} exceeds {MAX_CODE_SIZE}")
        offset = self._blob_size
        if code:
            try:
                self._blob.seek(offset)
                self._blob.write(code)
            except OSError as exc:
                raise StorageError(f"blob write failed: {exc}", path=self.blob_path, offset=offset) from exc
            self._blob_size += len(code)
        meta = offset.to_bytes(8, "big") + len(code).to_bytes(4, "big") + digest(code)
        self.meta.set(record, meta)

    def get(self, record: int) -> bytes:
        meta = self.meta.get(record)
        offset = int.from_bytes(meta[0:8], "big")
        length = int.from_bytes(meta[8:12], "big")
        stored_hash = meta[12:44]
        if length == 0:
            code = b""
        else:
            try:
                self._blob.seek(offset)
                code = self._blob.read(length)
            except OSError as exc:
                raise StorageError(f"blob read failed: {exc}", path=self.blob_path, offset=offset) from exc
        if digest(code) != stored_hash:
            raise CorruptionError(f"code record {record} does not match its stored digest")
        return code

    def root(self) -> bytes:
        return self.meta.root()

    def flush(self) -> None:
        self._flush_blob()
        self.meta.flush()

    def close(self) -> None:
        self._flush_blob()
        self._blob.close()
        self.meta.close()

    def _flush_blob(self) -> None:
        try:
            self._blob.flush()
        except OSError as exc:
            raise StorageError(f"blob flush failed: {exc}", path=self.blob_path) from exc


def _pages_for(count: int, slots_per_page: int) -> int:
    return (count + slots_per_page - 1) // slots_per_page
