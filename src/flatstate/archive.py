"""Append-only historical state database built from sorted change logs.

Every attribute or storage mutation becomes one immutable log entry
tagged with its block number. Entries live in sorted run files, one run
per commit batch, periodically merged into larger runs (the usual
log-structured organization, which a forkless chain makes safe because
each block has at most one successor state). A point-in-time query is a
floor search: the entry with the greatest block less than or equal to
the requested one. Because history is linear, the runs of a table cover
disjoint block ranges, which an open checks; the search visits runs
newest first, skips runs that start above the requested block and
answers with the first match it finds.

Ingestion is asynchronous: callers add a block diff to the batch filling
and return. A full batch goes to the appender, a one-worker executor
that the first batch starts (an archive only read runs no thread) and
that holds at most two batches. Its worker is no daemon: a process
exiting without ``close()`` still publishes the batches handed over.
Each batch, then each merge it triggers, is one list of writes that
``_commit`` applies through ``files.commit``: one code-blob append, each
new run, the block hashes, then ``meta.json``, which lists the new runs
(mapped just before it) and the watermark before readers see them; run
files it does not list, a merge's victims among them, are deleted last.
A failed batch or merge stops the appender for good: every later append
or flush raises that failure, readers keep the last published watermark,
and the runs it wrote stay unlisted, unmapped orphans until a later
appender's first commit deletes them.

Whether the archive is new is decided once, by the absence of
``meta.json``: a new one creates (or truncates) its two flat files and
writes block 0's hash, an existing one requires both
(``files.open_data``). Opening reads the run manifest, maps the runs and
reads one block hash; it scans no entry, reads no code-blob record and
writes nothing in an existing archive. The code blob's record headers
are scanned once, by the first code read that needs a body or by the
appender before its first batch, whichever comes first. That first batch
also cuts a torn code-blob tail and builds the appender's per-account
state (newest hash, existence and reincarnation) from the tables, so an
archive that is only read, as by the query server, never pays for that
scan.

A query reaches the runs through one guarded floor search per table and
the flat files through one locked positional read; a code body is served
only after it matches its digest.
"""

from __future__ import annotations

import mmap
import struct
import threading
import traceback
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import files
from .digest import EMPTY_HASH, HASH_SIZE, ZERO_HASH, digest
from .errors import BoundsError, CorruptionError, SequenceError, StorageError, UnavailableError
from .files import read_meta, require
from .widths import (
    ADDRESS_SIZE,
    BALANCE_SIZE,
    BLOCK_SIZE,
    KEY_SIZE,
    NONCE_SIZE,
    REINC_SIZE,
    VALUE_SIZE,
    ZERO_VALUE,
)

if TYPE_CHECKING:  # these load only in a process that appends (see _hand_over and _process_batch)
    from concurrent.futures import Future, ThreadPoolExecutor

    from .types import BlockDiff

FORMAT_VERSION = 1
BATCH_BLOCKS = 16  # blocks persisted per commit batch; flush cuts a batch early
MERGE_FANOUT = 4  # runs on one level that trigger their merge into the next
# A merge sorts and writes at most this many entries of each victim at a
# time, and then hands the victims' pages it has read back to the OS, so
# its memory, mapped pages included, is bounded by the chunk, not by the
# victims.
MERGE_CHUNK = 4096
# Every FENCE_STRIDE-th entry key of a run is kept in memory as a fence
# pointer, so a search bisects the fences in C and then at most this many
# entries in Python.
FENCE_STRIDE = 16
# Each run also gets an in-memory blocked Bloom filter over its entry
# prefixes with at least this many bits per entry, so a search skips
# nearly every run that cannot hold the queried prefix.
FILTER_BITS_PER_KEY = 10


class TableSpec(NamedTuple):
    name: str
    prefix_size: int
    payload_size: int

    @property
    def entry_size(self) -> int:
        return self.prefix_size + BLOCK_SIZE + self.payload_size


TABLES = {
    "storage": TableSpec("storage", ADDRESS_SIZE + REINC_SIZE + KEY_SIZE, VALUE_SIZE),
    "balance": TableSpec("balance", ADDRESS_SIZE, BALANCE_SIZE),
    "nonce": TableSpec("nonce", ADDRESS_SIZE, NONCE_SIZE),
    "code": TableSpec("code", ADDRESS_SIZE, HASH_SIZE),
    "state": TableSpec("state", ADDRESS_SIZE, 1 + REINC_SIZE),
    "accthash": TableSpec("accthash", ADDRESS_SIZE, HASH_SIZE),
}


class RunSearch(NamedTuple):
    """In-memory search aids of one run, built together on its first search and never persisted."""

    fences: list[bytes]  # key of every FENCE_STRIDE-th entry
    words: array  # blocked Bloom filter: a power of two of 64-bit words, each prefix sets bits in one
    mask: int  # len(words) - 1


class RunRef:
    __slots__ = ("file", "level", "count", "first", "last", "data", "search")

    def __init__(self, file: str, level: int, count: int, first: int, last: int, data: mmap.mmap):
        self.file = file
        self.level = level
        self.count = count
        self.first = first  # lowest block the run may hold; the runs of a table cover disjoint ranges
        self.last = last  # highest block the run may hold
        self.data = data  # read-only mapping; stays readable after the commit that drops the run unlinks its file
        self.search: RunSearch | None = None  # published whole, so a racing reader sees all of it or none


_BIT = tuple(1 << i for i in range(64))


def filter_bits(h: int) -> int:
    """The filter bits of a prefix hash: five positions from disjoint 6-bit fields of its top 30 bits.

    The word is picked by the hash's low bits, which stay clear of these
    fields for any filter below 2**34 words.
    """
    top = h >> 34 & 0x3FFFFFFF  # a small int, so the field arithmetic below stays cheap
    return _BIT[top & 63] | _BIT[top >> 6 & 63] | _BIT[top >> 12 & 63] | _BIT[top >> 18 & 63] | _BIT[top >> 24]


def map_run(path: str | Path, count: int, entry_size: int) -> mmap.mmap:
    """Map a run file read-only after checking it holds exactly ``count`` entries."""
    data = files.map_file(path)
    size = len(data)
    if count < 1 or size != count * entry_size:
        data.close()
        raise CorruptionError(f"run file {path} has {size} bytes, expected {count} entries of {entry_size}")
    return data


class _SortedTable:
    """Run bookkeeping and floor search for one log table."""

    def __init__(self, spec: TableSpec):
        self.spec = spec
        self.entry_size = spec.entry_size
        self.key_size = spec.prefix_size + BLOCK_SIZE
        self.runs: list[RunRef] = []  # in meta.json order
        self.newest_first: tuple[RunRef, ...] = ()  # the snapshot readers search
        # One reader builds a run's search aids while others needing them wait,
        # so racing first searches neither repeat the work nor hold two copies.
        self.build_lock = threading.Lock()

    def publish(self, runs: list[RunRef]) -> None:
        """Replace the run list and its newest-first snapshot (archive lock held)."""
        self.runs = runs
        self.newest_first = tuple(sorted(runs, key=lambda run: run.last, reverse=True))

    def entry_count(self) -> int:
        return sum(run.count for run in self.runs)

    def floor(self, runs: tuple[RunRef, ...], prefix: bytes, block: int) -> bytes | None:
        """Payload of the entry with matching prefix and the greatest block' <= block, or None.

        ``runs`` is a newest-first snapshot of runs with disjoint block
        ranges, so the first run that holds a match holds the newest one.
        """
        target = prefix + block.to_bytes(BLOCK_SIZE, "big")
        # Python's hash() of bytes is keyed per process, which is harmless
        # for filters that are never persisted.
        prefix_hash = hash(prefix)
        bits = filter_bits(prefix_hash)
        try:
            for run in runs:
                if run.first > block:
                    continue
                search = run.search or self._search_of(run)
                if search.words[prefix_hash & search.mask] & bits != bits:
                    continue  # the run holds no entry with this prefix
                entry = self._floor_entry(run, search.fences, target)
                if entry is not None and entry[: self.spec.prefix_size] == prefix:
                    return entry[self.key_size :]
        except ValueError as exc:  # close() released a mapping of this snapshot
            raise StorageError("archive is closed") from exc
        return None

    def _search_of(self, run: RunRef) -> RunSearch:
        """The search aids of ``run``, built unless a reader that held the lock first built them."""
        with self.build_lock:
            return run.search or self._build_search(run)

    def _build_search(self, run: RunRef) -> RunSearch:
        """Fences and filter of ``run`` in one pass over its entries, published as one object."""
        data, size, key_size, prefix_size = run.data, self.entry_size, self.key_size, self.spec.prefix_size
        word_count = 1 << max(0, (run.count * FILTER_BITS_PER_KEY - 1).bit_length() - 6)
        words = array("Q", [0]) * word_count
        mask = word_count - 1
        fences = []
        previous = None
        for i in range(run.count):
            at = i * size
            if i % FENCE_STRIDE == 0:
                fences.append(data[at : at + key_size])
            prefix = data[at : at + prefix_size]
            if prefix != previous:  # a sorted run keeps a prefix's entries adjacent
                previous = prefix
                prefix_hash = hash(prefix)
                words[prefix_hash & mask] |= filter_bits(prefix_hash)
        search = run.search = RunSearch(fences, words, mask)
        return search

    def _floor_entry(self, run: RunRef, fences: list[bytes], target: bytes) -> bytes | None:
        """The last entry of ``run`` whose key (prefix ++ block) is <= ``target``."""
        data, size, key_size = run.data, self.entry_size, self.key_size
        fence = bisect_right(fences, target)
        if fence == 0:
            return None
        # Entry (fence - 1) * FENCE_STRIDE is <= target; the next fence is not.
        lo = (fence - 1) * FENCE_STRIDE + 1
        hi = min(fence * FENCE_STRIDE, run.count)
        while lo < hi:
            mid = (lo + hi) // 2
            if data[mid * size : mid * size + key_size] <= target:
                lo = mid + 1
            else:
                hi = mid
        return data[(lo - 1) * size : lo * size]

    def merged_chunks(self, victims: list[RunRef]) -> Iterator[bytes]:
        """The entries of ``victims`` in key order, cut into sorted byte strings.

        Each chunk ends just below the lowest key that lies ``MERGE_CHUNK``
        entries past some victim's cursor, so it holds at most that many
        entries of each victim, and that victim's cursor moves by exactly
        that many. Keys are unique across victims (each holds its own blocks).

        Once the caller has taken a chunk, the whole mapped pages of each
        victim's entries up to its cursor are released (``MADV_DONTNEED``),
        never the page holding its next entry. A reader of a pre-merge
        snapshot refaults them from the file.
        """
        size, key_size, page = self.entry_size, self.key_size, mmap.PAGESIZE

        def key_at(run: RunRef, i: int) -> bytes:
            return run.data[i * size : i * size + key_size]

        starts = [0] * len(victims)
        while True:
            ahead = [
                key_at(run, start + MERGE_CHUNK) for run, start in zip(victims, starts) if start + MERGE_CHUNK < run.count
            ]
            bound = min(ahead, default=None)
            ends = [
                run.count if bound is None else bisect_left(range(run.count), bound, start, key=partial(key_at, run))
                for run, start in zip(victims, starts)
            ]
            rows: list[bytes] = []
            for run, start, end in zip(victims, starts, ends):
                data = run.data
                rows += [data[at : at + size] for at in range(start * size, end * size, size)]
            rows.sort()  # finds the victims' sorted stretches and merges them
            yield b"".join(rows)
            for run, start, end in zip(victims, starts, ends):
                begin, stop = start * size // page * page, end * size // page * page
                if stop > begin:
                    run.data.madvise(mmap.MADV_DONTNEED, begin, stop - begin)
            if bound is None:
                return
            starts = ends


class ArchiveDb:
    def __init__(self, data_dir: Path):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._tables = {name: _SortedTable(spec) for name, spec in TABLES.items()}
        self._next_seq = 0
        self.watermark = 0
        self._meta_path = self.data_dir / "meta.json"
        new = not self._meta_path.exists()  # the one new-or-existing decision
        self._blockhash_fh = self._blob_fh = None
        try:
            if not new:
                self._load_meta()  # maps the listed runs; searching them builds their aids later
            self._blockhash_fh = files.open_data(self.data_dir / "blockhash.dat", create=new)
            if new:  # a new archive: block 0 hashes to zero
                files.pwrite(self._blockhash_fh, ZERO_HASH, 0)
            if files.size(self._blockhash_fh) < (self.watermark + 1) * HASH_SIZE:
                raise CorruptionError(f"block hash file shorter than watermark {self.watermark}")
            # The appender chains each new block hash to the last published one: the one read an open makes.
            self._last_block_hash = files.pread(self._blockhash_fh, HASH_SIZE, self.watermark * HASH_SIZE)
            self._blob_fh = files.open_data(self.data_dir / "codeblob.dat", create=new)  # read on first need
        except BaseException:
            self._release()
            raise
        # Digest -> (body offset, length) of each whole record, and the end of
        # the last one; an existing blob is indexed on first need.
        self._code_index: dict[bytes, tuple[int, int]] | None = {} if new else None
        self._blob_size = 0
        # Appender-private running state: the payload of each account's newest
        # accthash and state entry (exists byte ++ reincarnation). The appender
        # builds both from the tables before its first batch, so an archive
        # that is only read never does.
        self._account_hash: dict[bytes, bytes] | None = None
        self._account_state: dict[bytes, bytes] | None = None
        self._next_block = self.watermark
        self._batch: list[BlockDiff] = []  # the batch filling, handed over whole
        self._executor: ThreadPoolExecutor | None = None  # the appender, started by the first hand-over
        self._handed: Future | None = None  # the last batch handed over
        self._slots = threading.Semaphore(2)  # backpressure: a slot per batch handed over and not yet ended
        self._error: Exception | None = None
        self._closed = False
        self._intake = threading.Lock()  # close() hands over its batch under it, so none is handed over after close

    # -- ingestion -------------------------------------------------------

    def append_block(self, diff: BlockDiff) -> None:
        """Add one block to the batch filling, and hand a full batch to the background appender.

        Returns at once unless the appender already holds two batches; then
        the append that fills a third waits until one of them ends
        (backpressure). Batches hold ``BATCH_BLOCKS`` blocks, or fewer when
        flush/close cuts one, and readers see the new watermark only after
        the whole batch is on disk.
        """
        self._raise_pending_error()
        with self._intake:
            self._check_open()
            if diff.block != self._next_block + 1:
                raise SequenceError(f"expected block {self._next_block + 1}, got {diff.block}")
            self._next_block = diff.block
            self._batch.append(diff)
            if len(self._batch) >= BATCH_BLOCKS:
                self._hand_over()

    def flush(self) -> None:
        """Cut the current commit batch and wait until it is published; a closed archive raises ``StorageError``."""
        with self._intake:
            self._check_open()
            handed = self._hand_over()
        if handed is not None:
            handed.result()  # one worker: every batch handed over earlier has ended too
        self._raise_pending_error()

    def close(self) -> None:
        """Publish the blocks appended, stop the appender and release every file; later queries raise ``StorageError``."""
        with self._intake:
            if self._closed:
                return  # a second close does nothing
            self._closed = True
            self._hand_over()
        if self._executor is not None:
            self._executor.shutdown()
        self._release()
        self._raise_pending_error()

    def _release(self) -> None:
        """Close the open flat files and unmap every listed run (``_load_meta`` lists each run as it maps it)."""
        with self._lock:  # readers take descriptors and run snapshots under this lock
            for fh in filter(None, (self._blockhash_fh, self._blob_fh)):
                fh.close()
            for table in self._tables.values():
                with table.build_lock:  # a build still running cannot publish after this
                    for run in table.runs:
                        run.data.close()
                        run.search = None

    # -- queries ---------------------------------------------------------

    def get_storage_at(self, address: bytes, key: bytes, block: int) -> bytes:
        state = self._floor("state", address, block)  # exists byte ++ reincarnation
        reinc = state[1:] if state else bytes(REINC_SIZE)
        return self._floor("storage", address + reinc + key, block) or ZERO_VALUE

    def get_balance_at(self, address: bytes, block: int) -> int:
        return int.from_bytes(self._floor("balance", address, block) or b"", "big")

    def get_nonce_at(self, address: bytes, block: int) -> int:
        return int.from_bytes(self._floor("nonce", address, block) or b"", "big")

    def get_code_at(self, address: bytes, block: int) -> bytes:
        code_hash = self._floor("code", address, block)
        return self._read_code(code_hash) if code_hash else b""

    def account_exists_at(self, address: bytes, block: int) -> bool:
        state = self._floor("state", address, block)
        return state is not None and state[0] == 1

    def block_hash(self, block: int) -> bytes:
        record = self._locked_pread(self._blockhash_fh, HASH_SIZE, block * HASH_SIZE, block)
        if len(record) != HASH_SIZE:
            raise CorruptionError(f"block hash file ends before block {block}")
        return record

    def account_hash(self, address: bytes, block: int) -> bytes:
        """Stored per-account composite hash as of ``block`` (zero if untouched)."""
        return self._floor("accthash", address, block) or ZERO_HASH

    def entry_count(self, table: str) -> int:
        with self._lock:
            return self._tables[table].entry_count()

    def run_files(self) -> dict[str, list[str]]:
        with self._lock:
            return {name: [run.file for run in table.runs] for name, table in self._tables.items()}

    def _floor(self, table: str, prefix: bytes, block: int) -> bytes | None:
        """Payload of the newest ``table`` entry with ``prefix`` at or below ``block``, or None."""
        return self._tables[table].floor(self._published(table, block), prefix, block)

    def _published(self, table: str, block: int) -> tuple[RunRef, ...]:
        """The newest-first run snapshot of ``table``, once ``block`` is known to be published."""
        with self._lock:
            self._check_open(block)
            return self._tables[table].newest_first

    def _locked_pread(self, fh, length: int, offset: int, block: int = 0) -> bytes:
        """Up to ``length`` bytes at ``offset`` of a flat file, once ``block`` is known to be published."""
        with self._lock:  # close() releases the descriptors under this lock
            self._check_open(block)
            return files.pread(fh, length, offset)

    def _check_open(self, block: int = 0) -> None:
        """Raise unless the archive is open and ``block`` is published (block 0 always is)."""
        if self._closed:
            raise StorageError("archive is closed")
        if block < 0:
            raise BoundsError(f"negative block {block}")
        if block > self.watermark:
            raise UnavailableError(f"block {block} beyond watermark {self.watermark}")

    # -- appender --------------------------------------------------------

    def _hand_over(self) -> Future | None:
        """Hand the batch filling, if any, to the appender (``_intake`` held); return the last batch's future."""
        if self._batch:
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor  # loaded by the first batch, as is serialize_update
                self._executor = ThreadPoolExecutor(1, thread_name_prefix="archive-appender")
            self._slots.acquire()
            self._handed = self._executor.submit(self._run_batch, self._batch)
            self._batch = []
        return self._handed

    def _run_batch(self, diffs: list[BlockDiff]) -> None:
        """Process one batch on the appender unless an earlier one failed; keep a failure for every later call to raise."""
        try:
            if self._error is None:
                self._process_batch(diffs)
        except Exception as exc:
            # The kept traceback must not pin the batch's locals: its frames
            # reference the archive, and through that cycle a merge's victim
            # mappings would stay open until the garbage collector runs.
            traceback.clear_frames(exc.__traceback__)
            self._error = exc
        finally:
            self._slots.release()

    def _process_batch(self, diffs: list[BlockDiff]) -> None:
        from .types import serialize_update  # loaded by the first batch, so a reading process never loads it

        code_index = self._code_locations(reader=False)
        if self._account_state is None:  # the first batch
            # A code record cut short by a crash belongs to a batch that was
            # never published; drop it so its body is appended again in full.
            files.truncate(self._blob_fh, self._blob_size)
            self._rebuild_account_maps()
        never_created = bytes(1 + REINC_SIZE)  # state payload of an address no state entry names
        entries: dict[str, list[bytes]] = {name: [] for name in TABLES}
        block_hashes: list[bytes] = []
        blob = bytearray()  # a record of each code the blob lacks, for one append at its end
        previous = self._last_block_hash
        for diff in diffs:
            block_field = diff.block.to_bytes(BLOCK_SIZE, "big")
            account_hashes: list[bytes] = []
            for update in diff.updates:
                addr = update.address
                state = self._account_state.get(addr, never_created)
                if update.created or update.deleted:  # never both
                    reinc = int.from_bytes(state[1:], "big") + (1 if update.deleted else 0)
                    state = (b"\x01" if update.created else b"\x00") + reinc.to_bytes(REINC_SIZE, "big")
                    self._account_state[addr] = state
                    entries["state"].append(addr + block_field + state)
                balance = update.balance if update.balance is not None else (0 if update.deleted else None)
                if balance is not None:
                    entries["balance"].append(addr + block_field + balance.to_bytes(BALANCE_SIZE, "big"))
                nonce = update.nonce if update.nonce is not None else (0 if update.deleted else None)
                if nonce is not None:
                    entries["nonce"].append(addr + block_field + nonce.to_bytes(NONCE_SIZE, "big"))
                code = update.code if update.code is not None else (b"" if update.deleted else None)
                if code is not None:
                    code_hash = digest(code)
                    entries["code"].append(addr + block_field + code_hash)
                    if code and code_hash not in code_index:
                        blob += code_hash + len(code).to_bytes(4, "big")
                        code_index[code_hash] = (self._blob_size + len(blob), len(code))
                        blob += code
                reinc_field = state[1:]
                for key, value in update.slots:
                    entries["storage"].append(addr + reinc_field + key + block_field + value)
                update_hash = digest(serialize_update(update))
                account_hash = digest(self._account_hash.get(addr, ZERO_HASH) + update_hash)
                self._account_hash[addr] = account_hash
                account_hashes.append(account_hash)
                entries["accthash"].append(addr + block_field + account_hash)
            previous = digest(previous + b"".join(account_hashes))
            block_hashes.append(previous)

        writes = [(self._blob_fh, self._blob_size, blob)] if blob else []
        self._blob_size += len(blob)
        new_runs: dict[str, dict] = {}
        for name, rows in entries.items():
            if rows:
                new_runs[name] = self._new_run(name, 0, len(rows), diffs[0].block, diffs[-1].block)
                writes.append((self.data_dir / new_runs[name]["file"], None, [b"".join(sorted(rows))]))
        writes.append((self._blockhash_fh, diffs[0].block * HASH_SIZE, b"".join(block_hashes)))
        self._commit(writes, new_runs, diffs[-1].block)
        self._last_block_hash = previous
        for name in new_runs:
            self._maybe_merge(name)

    def _new_run(self, table: str, level: int, count: int, first: int, last: int) -> dict:
        """The meta record of a new run of ``table``, named by the next sequence number. A run is reachable only once
        the metadata lists it, so a partial file from a crash is just an ignored orphan; no rename dance needed."""
        self._next_seq += 1
        return {"file": f"{table}-{self._next_seq - 1:08d}.run", "level": level, "count": count, "first": first, "last": last}

    def _maybe_merge(self, table: str) -> None:
        sorted_table = self._tables[table]
        while True:
            runs = sorted_table.runs  # only the appender changes run lists, so it reads them unlocked
            by_level: dict[int, list[RunRef]] = {}
            for run in runs:
                by_level.setdefault(run.level, []).append(run)
            target = next((level for level in sorted(by_level) if len(by_level[level]) >= MERGE_FANOUT), None)
            if target is None:
                return
            victims = by_level[target]
            first = min(run.first for run in victims)
            last = max(run.last for run in victims)
            new_run = self._new_run(table, target + 1, sum(run.count for run in victims), first, last)
            writes = [(self.data_dir / new_run["file"], None, sorted_table.merged_chunks(victims))]  # streamed chunk by chunk
            self._commit(writes, {table: new_run}, self.watermark, victims)

    def _read_code(self, code_hash: bytes) -> bytes:
        if code_hash == EMPTY_HASH:
            return b""
        located = self._code_locations(reader=True).get(code_hash)
        if located is None:
            raise CorruptionError(f"code body for digest {code_hash.hex()} is missing from the blob")
        offset, length = located
        body = self._locked_pread(self._blob_fh, length, offset)
        if digest(body) != code_hash:  # a body the blob lost bytes of, or one damaged in place
            raise CorruptionError(f"code body for digest {code_hash.hex()} is cut short or damaged in the blob")
        return body

    # -- persistence -----------------------------------------------------

    def _commit(self, writes: list[tuple], new_runs: dict[str, dict], watermark: int, victims: Sequence[RunRef] = ()) -> None:
        """The one commit site: apply ``writes`` (a batch's blob append, runs and block hashes, or a merge's run), map the
        new run recorded for each table, then apply the commit's last write, ``meta.json``, which lists it and ``watermark``
        in place of ``victims``; publish, and only then delete every run file it does not list."""
        lists: dict[str, list[RunRef]] = {}
        try:
            files.commit(writes)
            for name, new in new_runs.items():
                data = map_run(self.data_dir / new["file"], new["count"], TABLES[name].entry_size)
                lists[name] = [run for run in self._tables[name].runs if run not in victims] + [RunRef(**new, data=data)]
            meta = {
                "format": FORMAT_VERSION,
                "watermark": watermark,
                "next_seq": self._next_seq,
                "tables": {
                    name: [
                        {"file": run.file, "level": run.level, "count": run.count, "first": run.first, "last": run.last}
                        for run in lists.get(name, table.runs)  # only the appender commits, so no lock
                    ]
                    for name, table in self._tables.items()
                },
            }
            files.commit([(self._meta_path, None, meta)])
        except BaseException:
            for runs in lists.values():
                runs[-1].data.close()  # close() releases only published runs
            raise
        with self._lock:
            for name, runs in lists.items():
                self._tables[name].publish(runs)
            self.watermark = watermark
        # Unlisted runs are a merge's victims, whose mappings outlive the files
        # for readers of a pre-merge snapshot, and at an appender's first commit
        # what an earlier process left: the runs of a batch or merge that never
        # committed, and victims that a stop kept from being deleted.
        listed = {run.file for table in self._tables.values() for run in table.runs}
        for name in files.names(self.data_dir, ".run"):
            if name not in listed:
                files.remove(self.data_dir / name)

    def _load_meta(self) -> None:
        path = self._meta_path
        meta = read_meta(path, FORMAT_VERSION, ("watermark", "next_seq", "tables"))
        self.watermark = meta["watermark"]
        self._next_seq = meta["next_seq"]
        require(meta["tables"], path, ())
        directory = str(self.data_dir)
        for name, runs in meta["tables"].items():
            if name not in TABLES:
                raise CorruptionError(f"metadata in {path} names unknown table {name!r}")
            table = self._tables[name]
            for r in runs:
                require(r, path, ("file", "level", "count", "first", "last"))
                data = map_run(f"{directory}/{r['file']}", r["count"], table.entry_size)
                table.runs.append(RunRef(r["file"], r["level"], r["count"], r["first"], r["last"], data))
            table.publish(table.runs)
            end = 0  # forkless history: oldest first, the ranges lie one after another inside 1..watermark
            for run in reversed(table.newest_first):
                if not end < run.first <= run.last <= self.watermark:
                    raise CorruptionError(
                        f"metadata in {path} lists run {run.file} for blocks {run.first}..{run.last}, "
                        f"not after block {end} or not within 1..{self.watermark}"
                    )
                end = run.last

    def _code_locations(self, *, reader: bool) -> dict[bytes, tuple[int, int]]:
        """The code index, built by the first caller that needs it.

        The build runs under the archive lock, so racing readers and the
        appender scan the blob once and see the finished index or none.
        A reader scans only an open archive; the appender scans before
        ``close()`` releases the blob, since close waits for it.
        """
        index = self._code_index
        if index is None:
            with self._lock:  # close() releases the blob under this lock
                if reader:
                    self._check_open()
                index = self._code_index
                if index is None:
                    index = self._code_index = self._scan_code_blob()
        return index

    def _scan_code_blob(self) -> dict[bytes, tuple[int, int]]:
        """Index every whole record of the blob from its headers alone; bodies are read on demand."""
        index = {}
        size = files.size(self._blob_fh)
        offset = 0
        while offset + HASH_SIZE + 4 <= size:
            header = files.pread(self._blob_fh, HASH_SIZE + 4, offset)
            body_at = offset + HASH_SIZE + 4
            length = int.from_bytes(header[HASH_SIZE:], "big")
            if body_at + length > size:
                break
            index[header[:HASH_SIZE]] = (body_at, length)
            offset = body_at + length
        self._blob_size = offset  # a torn tail after this is cut by the appender's first batch
        return index

    def _rebuild_account_maps(self) -> None:
        self._account_state = self._newest_payloads("state")
        self._account_hash = self._newest_payloads("accthash")

    def _newest_payloads(self, name: str) -> dict[bytes, bytes]:
        """The payload of each address's newest entry in a table keyed by address."""
        table = self._tables[name]
        # Entries read as (address, payload), the pad skipping the block: a run sorts an address's entries by
        # block and the runs' ranges are disjoint, so updating from the oldest run on leaves the newest payload.
        entry = struct.Struct(f"{ADDRESS_SIZE}s{BLOCK_SIZE}x{table.spec.payload_size}s")
        newest: dict[bytes, bytes] = {}
        for run in reversed(table.newest_first):
            newest.update(entry.iter_unpack(run.data))
            run.data.madvise(mmap.MADV_DONTNEED)  # read once; a later search refaults what it needs
        return newest

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            raise self._error
