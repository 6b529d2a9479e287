"""Constant-time record access over a page file in the page cache.

A RecordStore keeps fixed-length records addressed by a dense record
number: record r lives in page ``r // slots_per_page`` at slot
``r % slots_per_page``, so one seek reaches any record. Records never
straddle pages; trailing page bytes stay zero. Every store carries a
hash tree over its pages for the component commitment. The one
constructor opens the page file in a page cache, checks its page count
against the record count and loads or rebuilds the tree. ``get`` copies a
record out of its page once, with one ``struct`` unpack. ``set_many``
writes every record (``set`` is a batch of one) into pages it takes with
``write_page``. A store writes no file: its owner's commit lists the dirty
pages (``PageCache.page_writes``) and the tree's node file
(``HashTree.node_file``) for ``files.commit``.

A Depot extends the scheme to variable-length payloads (contract code):
fixed-length meta records (offset, length, digest) point into an
append-only blob file, and the digest inside the meta record is what the
hash tree commits to. Bodies wait in memory at the offsets they will take
until the commit appends them (``blob_writes``), so the blob, opened and
closed by the page cache like the page files, changes only at a commit.
"""

from __future__ import annotations

import struct
from pathlib import Path

from . import files
from .digest import digest
from .errors import BoundsError, CorruptionError, FormatError
from .hashtree import HashTree
from .pagepool import PageCache, PagePool
from .types import MAX_CODE_SIZE

DEPOT_META_SIZE = 8 + 4 + 32  # blob offset, length, code digest


class RecordStore:
    def __init__(
        self, cache: PageCache, data_path: Path, record_size: int, count: int = 0, tree_path: Path | None = None
    ):
        """``count`` records in ``data_path``; the tree is loaded from ``tree_path`` if it exists, else rebuilt."""
        if record_size <= 0 or record_size > cache.page_size:
            raise FormatError(f"record_size {record_size} must be in 1..{cache.page_size}")
        self.pool = pool = PagePool(cache, data_path)  # on failure below, closing the cache closes its file
        self.record_size = record_size
        self._unpack = struct.Struct(f"{record_size}s").unpack_from  # one record's bytes, copied once
        self.slots_per_page = cache.page_size // record_size
        self.count = count
        if pool.page_count != self.page_count:  # a file cut short, or one holding pages no record owns
            raise CorruptionError(f"{pool.file_path} holds {pool.page_count} pages, {count} records take {self.page_count}")
        self.tree = HashTree(tree_path, leaf_count=self.page_count)

    @property
    def page_count(self) -> int:
        return -(-self.count // self.slots_per_page)

    def get(self, record: int) -> bytes:
        if record < 0 or record >= self.count:
            raise BoundsError(f"record {record} out of range 0..{self.count - 1}")
        page_id, slot = divmod(record, self.slots_per_page)
        return self._unpack(self.pool.get_page(page_id), slot * self.record_size)[0]

    def set(self, record: int, data: bytes) -> None:
        """Write record ``record``; ``record == count`` appends."""
        self.set_many({record: data})

    def set_many(self, writes: dict[int, bytes]) -> None:
        """Write every ``{record: data}`` pair in record order, touching each page once.

        Records from ``count`` on append, so they must follow on without a gap.
        """
        size, per_page, pool = self.record_size, self.slots_per_page, self.pool
        current = -1
        for record in sorted(writes):
            data = writes[record]
            if len(data) != size:
                raise FormatError(f"record must be {size} bytes, got {len(data)}")
            if record < 0 or record > self.count:
                raise BoundsError(f"record {record} beyond append position {self.count}")
            page_id, slot = divmod(record, per_page)
            if record == self.count:
                self.count += 1
                if page_id == pool.page_count:
                    pool.append_page()
            if page_id != current:
                current = page_id
                page = pool.write_page(page_id)
                self.tree.mark_dirty(page_id)
            page[slot * size : slot * size + size] = data

    def root(self) -> bytes:
        return self.tree.root(self.pool.get_page)


class Depot:
    """Variable-length payloads behind a fixed-record meta store; ``pending`` holds the bodies set since the last commit."""

    def __init__(self, meta: RecordStore, blob_path: Path):
        self.meta = meta
        self._blob = meta.pool.cache.open(blob_path)
        self._committed = files.size(self._blob)  # the blob's end; pending bodies follow it
        self.pending = bytearray()

    def set_many(self, codes: dict[int, bytes]) -> None:
        """Store each ``{record: code}``, its body appended to ``pending`` in dict order; old blob bytes become garbage."""
        metas = {}
        for record, code in codes.items():
            if len(code) > MAX_CODE_SIZE:
                raise FormatError(f"code length {len(code)} exceeds {MAX_CODE_SIZE}")
            offset = self._committed + len(self.pending)
            self.pending += code
            metas[record] = offset.to_bytes(8, "big") + len(code).to_bytes(4, "big") + digest(code)
        self.meta.set_many(metas)

    def get(self, record: int) -> bytes:
        meta = self.meta.get(record)
        offset = int.from_bytes(meta[0:8], "big")
        length = int.from_bytes(meta[8:12], "big")
        stored_hash = meta[12:44]
        start = offset - self._committed  # from 0 on, a body set since the last commit, still pending; empty reads nothing
        code = files.pread(self._blob, length, offset) if start < 0 < length else bytes(self.pending[start : start + length])
        if digest(code) != stored_hash:
            raise CorruptionError(f"code record {record} does not match its stored digest")
        return code

    def blob_writes(self) -> list[tuple]:
        """The commit's append of the pending bodies, by reference, at the blob's committed end; none without bodies."""
        return [(self._blob, self._committed, self.pending)] if self.pending else []

    def mark_written(self) -> None:
        """The commit appended the pending bodies: the blob's committed end moves past them."""
        self._committed += len(self.pending)
        self.pending = bytearray()
