"""Append-only historical state database built from sorted change logs.

Every attribute or storage mutation becomes one immutable log entry
tagged with its block number. Entries live in sorted run files, one run
per commit batch, periodically merged into larger runs (the usual
log-structured organization, which a forkless chain makes safe because
each block has at most one successor state). A point-in-time query is a
floor search: the entry with the greatest block less than or equal to
the requested one. Because history is linear, every run covers a known
block range; the search visits runs newest first, skips runs that start
above the requested block and stops at the first run that cannot hold
anything newer than the best match so far.

Ingestion is asynchronous: callers enqueue a block diff and return; a
background appender converts it to entries, computes the per-account
and per-block hashes, persists everything, and only then publishes the
new watermark. Readers never see a partially written block. A failed
batch stops the appender for good: every later append or flush raises
that failure, and readers keep the last published watermark.
"""

from __future__ import annotations

import mmap
import os
import queue
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .digest import HASH_SIZE, ZERO_HASH, digest
from .errors import BoundsError, CorruptionError, SequenceError, StorageError, UnavailableError
from .metafile import read_meta, require, write_meta
from .types import (
    ADDRESS_SIZE,
    BALANCE_SIZE,
    BLOCK_SIZE,
    MAX_BLOCK,
    BlockDiff,
    KEY_SIZE,
    NONCE_SIZE,
    REINC_SIZE,
    VALUE_SIZE,
    ZERO_VALUE,
    serialize_update,
)

FORMAT_VERSION = 1
QUEUE_DEPTH = 256  # blocks queued before append_block blocks (backpressure)
BATCH_BLOCKS = 16  # blocks persisted per commit batch; flush cuts a batch early
MERGE_FANOUT = 4  # runs on one level that trigger their merge into the next
# Every FENCE_STRIDE-th entry key of a run is kept in memory as a fence
# pointer, so a search bisects the fences in C and then at most this many
# entries in Python.
FENCE_STRIDE = 16
# Each run also gets an in-memory blocked Bloom filter over its entry
# prefixes with at least this many bits per entry, so a search skips
# nearly every run that cannot hold the queried prefix.
FILTER_BITS_PER_KEY = 10
EMPTY_CODE_HASH = digest(b"")

# Queue sentinels: cut the current commit batch (and stop, for _CLOSE).
_FLUSH = object()
_CLOSE = object()


@dataclass(frozen=True)
class TableSpec:
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


@dataclass
class RunRef:
    file: str
    level: int
    count: int
    first: int  # lowest block the run may hold
    last: int  # highest block the run may hold
    data: mmap.mmap  # read-only mapping; stays readable after a merge unlinks the file
    search: RunSearch | None = None  # published whole, so a racing reader sees all of it or none


_BIT = tuple(1 << i for i in range(64))


def filter_bits(h: int) -> int:
    """The filter bits of a prefix hash: five positions from disjoint 6-bit fields of its top 30 bits.

    The word is picked by the hash's low bits, which stay clear of these
    fields for any filter below 2**34 words.
    """
    top = h >> 34 & 0x3FFFFFFF  # a small int, so the field arithmetic below stays cheap
    return _BIT[top & 63] | _BIT[top >> 6 & 63] | _BIT[top >> 12 & 63] | _BIT[top >> 18 & 63] | _BIT[top >> 24]


def map_run(path: Path, count: int, entry_size: int) -> mmap.mmap:
    """Map a run file read-only after checking it holds exactly ``count`` entries."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise CorruptionError(f"run file {path} is missing") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if count < 1 or size != count * entry_size:
            raise CorruptionError(f"run file {path} has {size} bytes, expected {count} entries of {entry_size}")
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


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

    def floor(self, runs: tuple[RunRef, ...], prefix: bytes, block: int) -> tuple[int, bytes] | None:
        """Best (block', payload) with matching prefix and block' <= block.

        ``runs`` is a newest-first snapshot: once the best match is at least
        as new as a run's ``last``, no remaining run can hold a better one.
        """
        prefix_size, key_size = self.spec.prefix_size, self.key_size
        target = prefix + block.to_bytes(BLOCK_SIZE, "big")
        # Python's hash() of bytes is keyed per process, which is harmless
        # for filters that are never persisted.
        prefix_hash = hash(prefix)
        bits = filter_bits(prefix_hash)
        best: tuple[int, bytes] | None = None
        try:
            for run in runs:
                if best is not None and best[0] >= run.last:
                    break
                if run.first > block:
                    continue
                search = run.search or self._search_of(run)
                if search.words[prefix_hash & search.mask] & bits != bits:
                    continue  # the run holds no entry with this prefix
                entry = self._floor_entry(run, search.fences, target)
                if entry is None or entry[:prefix_size] != prefix:
                    continue
                found = int.from_bytes(entry[prefix_size:key_size], "big")
                if best is None or found > best[0]:
                    best = (found, entry[key_size:])
        except ValueError as exc:  # close() released a mapping of this snapshot
            raise StorageError("archive is closed") from exc
        return best

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

    def entries(self, run: RunRef) -> list[bytes]:
        data, size = run.data, self.entry_size
        return [data[at : at + size] for at in range(0, run.count * size, size)]


class ArchiveDb:
    def __init__(self, data_dir: Path):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._tables = {name: _SortedTable(spec) for name, spec in TABLES.items()}
        self._next_seq = 0
        self.watermark = 0
        self._load_meta()
        self._open_blockhash_file()
        self._open_code_blob()
        # Appender-private running state, rebuilt from the tables on open.
        self._account_hash: dict[bytes, bytes] = {}
        self._account_state: dict[bytes, tuple[bool, int]] = {}
        self._rebuild_account_maps()
        self._queue: queue.Queue = queue.Queue(maxsize=QUEUE_DEPTH)
        self._next_block = self.watermark
        self._error: Exception | None = None
        self._closed = False
        self._appender = threading.Thread(target=self._appender_loop, name="archive-appender", daemon=True)
        self._appender.start()

    # -- ingestion -------------------------------------------------------

    def append_block(self, diff: BlockDiff) -> None:
        """Enqueue one block for the background appender.

        Returns as soon as the diff is queued; blocks only while the queue
        is full (backpressure). The appender persists blocks in commit
        batches (``BATCH_BLOCKS`` at a time, or earlier when flush/close
        cuts a batch) and readers see the new watermark only after the
        whole batch is on disk.
        """
        self._raise_pending_error()
        if self._closed:
            raise StorageError("archive is closed")
        if diff.block != self._next_block + 1:
            raise SequenceError(f"expected block {self._next_block + 1}, got {diff.block}")
        self._next_block = diff.block
        self._queue.put(diff)

    def flush(self) -> None:
        """Cut the current commit batch and wait until it is published."""
        self._queue.put(_FLUSH)
        self._queue.join()
        self._raise_pending_error()

    def close(self) -> None:
        """Stop the appender after the queued blocks and release every file.

        Afterwards each query raises ``StorageError``.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(_CLOSE)
        self._appender.join()
        with self._lock:  # readers take descriptors and run snapshots under this lock
            self._blockhash_fh.close()
            self._blob_fh.close()
            for table in self._tables.values():
                with table.build_lock:  # a build still running cannot publish after this
                    for run in table.runs:
                        run.data.close()
                        run.search = None
        self._raise_pending_error()

    # -- queries ---------------------------------------------------------

    def get_storage_at(self, address: bytes, key: bytes, block: int) -> bytes:
        runs = self._published("storage", block)
        _, reinc = self._state_at(address, block)
        prefix = address + reinc.to_bytes(REINC_SIZE, "big") + key
        best = self._tables["storage"].floor(runs, prefix, block)
        return best[1] if best else ZERO_VALUE

    def get_balance_at(self, address: bytes, block: int) -> int:
        runs = self._published("balance", block)
        best = self._tables["balance"].floor(runs, address, block)
        return int.from_bytes(best[1], "big") if best else 0

    def get_nonce_at(self, address: bytes, block: int) -> int:
        runs = self._published("nonce", block)
        best = self._tables["nonce"].floor(runs, address, block)
        return int.from_bytes(best[1], "big") if best else 0

    def get_code_at(self, address: bytes, block: int) -> bytes:
        runs = self._published("code", block)
        best = self._tables["code"].floor(runs, address, block)
        if best is None:
            return b""
        return self._read_code(best[1])

    def account_exists_at(self, address: bytes, block: int) -> bool:
        exists, _ = self._state_at(address, block)
        return exists

    def block_hash(self, block: int) -> bytes:
        with self._lock:
            if self._closed:
                raise StorageError("archive is closed")
            self._check_published(block)
            record = os.pread(self._blockhash_fh.fileno(), HASH_SIZE, block * HASH_SIZE)
        if len(record) != HASH_SIZE:
            raise CorruptionError(f"block hash file ends before block {block}")
        return record

    def account_hash(self, address: bytes, block: int) -> bytes:
        """Stored per-account composite hash as of ``block`` (zero if untouched)."""
        runs = self._published("accthash", block)
        best = self._tables["accthash"].floor(runs, address, block)
        return best[1] if best else ZERO_HASH

    def entry_count(self, table: str) -> int:
        with self._lock:
            return self._tables[table].entry_count()

    def run_files(self) -> dict[str, list[str]]:
        with self._lock:
            return {name: [run.file for run in table.runs] for name, table in self._tables.items()}

    def _state_at(self, address: bytes, block: int) -> tuple[bool, int]:
        runs = self._published("state", block)
        best = self._tables["state"].floor(runs, address, block)
        if best is None:
            return False, 0
        return best[1][0] == 1, int.from_bytes(best[1][1:], "big")

    def _published(self, table: str, block: int) -> tuple[RunRef, ...]:
        with self._lock:
            if self._closed:
                raise StorageError("archive is closed")
            self._check_published(block)
            return self._tables[table].newest_first

    def _check_published(self, block: int) -> None:  # archive lock held
        if block < 0:
            raise BoundsError(f"negative block {block}")
        if block > self.watermark:
            raise UnavailableError(f"block {block} beyond watermark {self.watermark}")

    # -- appender --------------------------------------------------------

    def _appender_loop(self) -> None:
        batch: list[BlockDiff] = []

        def commit() -> None:
            if batch and self._error is None:
                try:
                    self._process_batch(batch)
                except Exception as exc:  # raised by every later call; no later batch runs
                    self._error = exc
            for _ in batch:
                self._queue.task_done()
            batch.clear()

        while True:
            item = self._queue.get()
            if item is _FLUSH or item is _CLOSE:
                commit()
                self._queue.task_done()
                if item is _CLOSE:
                    return
                continue
            batch.append(item)
            if len(batch) >= BATCH_BLOCKS:
                commit()

    def _process_batch(self, diffs: list[BlockDiff]) -> None:
        entries: dict[str, list[bytes]] = {name: [] for name in TABLES}
        block_hashes: list[bytes] = []
        new_codes: dict[bytes, bytes] = {}  # digest -> body of each code the blob lacks
        previous = self._last_block_hash
        for diff in diffs:
            block_field = diff.block.to_bytes(BLOCK_SIZE, "big")
            account_hashes: list[bytes] = []
            for update in diff.updates:
                addr = update.address
                exists, reinc = self._account_state.get(addr, (False, 0))
                state_changed = update.created or update.deleted
                if update.deleted:
                    exists, reinc = False, reinc + 1
                if update.created:
                    exists = True
                if state_changed:
                    self._account_state[addr] = (exists, reinc)
                    payload = (b"\x01" if exists else b"\x00") + reinc.to_bytes(REINC_SIZE, "big")
                    entries["state"].append(addr + block_field + payload)
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
                    if code and code_hash not in self._code_offsets:
                        new_codes.setdefault(code_hash, code)
                reinc_field = reinc.to_bytes(REINC_SIZE, "big")
                for key, value in update.slots:
                    entries["storage"].append(addr + reinc_field + key + block_field + value)
                update_hash = digest(serialize_update(update))
                account_hash = digest(self._account_hash.get(addr, ZERO_HASH) + update_hash)
                self._account_hash[addr] = account_hash
                account_hashes.append(account_hash)
                entries["accthash"].append(addr + block_field + account_hash)
            previous = digest(previous + b"".join(account_hashes))
            block_hashes.append(previous)

        for code_hash, code in new_codes.items():
            self._append_code(code_hash, code)
        new_runs: dict[str, RunRef] = {}
        for name, rows in entries.items():
            if rows:
                new_runs[name] = self._write_run(name, sorted(rows), 0, diffs[0].block, diffs[-1].block)
        self._blockhash_fh.seek(diffs[0].block * HASH_SIZE)
        self._blockhash_fh.write(b"".join(block_hashes))
        self._blockhash_fh.flush()
        self._last_block_hash = previous
        with self._lock:
            for name, run in new_runs.items():
                table = self._tables[name]
                table.publish(table.runs + [run])
            self.watermark = diffs[-1].block
            self._write_meta()
        for name in new_runs:
            self._maybe_merge(name)

    def _write_run(self, table: str, rows: list[bytes], level: int, first: int, last: int) -> RunRef:
        # A run is reachable only once the metadata lists it, so a partial
        # file from a crash is just an ignored orphan; no rename dance needed.
        seq = self._next_seq
        self._next_seq += 1
        path = self.data_dir / f"{table}-{seq:08d}.run"
        with open(path, "wb") as fh:
            fh.write(b"".join(rows))
        return RunRef(path.name, level, len(rows), first, last, map_run(path, len(rows), TABLES[table].entry_size))

    def _maybe_merge(self, table: str) -> None:
        while True:
            with self._lock:
                runs = list(self._tables[table].runs)
            by_level: dict[int, list[RunRef]] = {}
            for run in runs:
                by_level.setdefault(run.level, []).append(run)
            target = None
            for level in sorted(by_level):
                if len(by_level[level]) >= MERGE_FANOUT:
                    target = level
                    break
            if target is None:
                return
            victims = by_level[target]
            sorted_table = self._tables[table]
            merged: list[bytes] = []
            for run in victims:
                merged += sorted_table.entries(run)
            merged.sort()  # finds the victims' sorted stretches and merges them
            first = min(run.first for run in victims)
            last = max(run.last for run in victims)
            new_run = self._write_run(table, merged, target + 1, first, last)
            victim_files = {run.file for run in victims}
            with self._lock:
                kept = [run for run in sorted_table.runs if run.file not in victim_files]
                sorted_table.publish(kept + [new_run])
                self._write_meta()
            # Readers holding a pre-merge snapshot keep reading the victims'
            # mappings, which outlive the unlinked files.
            for file in victim_files:
                (self.data_dir / file).unlink(missing_ok=True)

    def _append_code(self, code_hash: bytes, code: bytes) -> None:
        offset = self._blob_size
        record = code_hash + len(code).to_bytes(4, "big") + code
        self._blob_fh.seek(offset)
        self._blob_fh.write(record)
        self._blob_fh.flush()
        self._blob_size += len(record)
        self._code_offsets[code_hash] = (offset + HASH_SIZE + 4, len(code))

    def _read_code(self, code_hash: bytes) -> bytes:
        if code_hash == EMPTY_CODE_HASH:
            return b""
        located = self._code_offsets.get(code_hash)
        if located is None:
            raise CorruptionError(f"code body for digest {code_hash.hex()} is missing from the blob")
        offset, length = located
        with self._lock:
            if self._closed:
                raise StorageError("archive is closed")
            body = os.pread(self._blob_fh.fileno(), length, offset)
        if len(body) != length:
            raise CorruptionError(f"code body for digest {code_hash.hex()} is cut short in the blob")
        return body

    # -- persistence -----------------------------------------------------

    def _meta_path(self) -> Path:
        return self.data_dir / "meta.json"

    def _write_meta(self) -> None:
        meta = {
            "format": FORMAT_VERSION,
            "watermark": self.watermark,
            "next_seq": self._next_seq,
            "tables": {
                name: [
                    {"file": run.file, "level": run.level, "count": run.count, "first": run.first, "last": run.last}
                    for run in table.runs
                ]
                for name, table in self._tables.items()
            },
        }
        write_meta(self._meta_path(), meta)

    def _load_meta(self) -> None:
        path = self._meta_path()
        if not path.exists():
            return
        meta = read_meta(path, FORMAT_VERSION, ("watermark", "next_seq", "tables"))
        self.watermark = meta["watermark"]
        self._next_seq = meta["next_seq"]
        require(meta["tables"], path, ())
        for name, runs in meta["tables"].items():
            if name not in TABLES:
                raise CorruptionError(f"metadata in {path} names unknown table {name!r}")
            loaded = []
            for r in runs:
                require(r, path, ("file", "level", "count"))
                data = map_run(self.data_dir / r["file"], r["count"], TABLES[name].entry_size)
                # A run listed without a block range may hold any block.
                first, last = r.get("first", 0), r.get("last", MAX_BLOCK)
                loaded.append(RunRef(r["file"], r["level"], r["count"], first, last, data))
            self._tables[name].publish(loaded)

    def _open_blockhash_file(self) -> None:
        path = self.data_dir / "blockhash.dat"
        if not path.exists():
            path.write_bytes(ZERO_HASH)
        self._blockhash_fh = open(path, "r+b")
        if os.fstat(self._blockhash_fh.fileno()).st_size < (self.watermark + 1) * HASH_SIZE:
            self._blockhash_fh.close()
            raise CorruptionError(f"block hash file shorter than watermark {self.watermark}")
        # The appender chains each new block hash to the last published one.
        self._last_block_hash = os.pread(self._blockhash_fh.fileno(), HASH_SIZE, self.watermark * HASH_SIZE)

    def _open_code_blob(self) -> None:
        path = self.data_dir / "codeblob.dat"
        self._blob_fh = open(path, "r+b" if path.exists() else "w+b")
        self._code_offsets: dict[bytes, tuple[int, int]] = {}
        size = os.fstat(self._blob_fh.fileno()).st_size
        offset = 0
        while offset + HASH_SIZE + 4 <= size:
            # Only the record headers are read; bodies are read on demand.
            header = os.pread(self._blob_fh.fileno(), HASH_SIZE + 4, offset)
            body_at = offset + HASH_SIZE + 4
            length = int.from_bytes(header[HASH_SIZE:], "big")
            if body_at + length > size:
                break
            self._code_offsets[header[:HASH_SIZE]] = (body_at, length)
            offset = body_at + length
        if offset < size:
            # A record cut short by a crash belongs to a batch that was never
            # published; drop it so its body is appended again in full.
            self._blob_fh.truncate(offset)
        self._blob_size = offset

    def _rebuild_account_maps(self) -> None:
        for addr, (_, payload) in self._newest_entries("state").items():
            self._account_state[addr] = (payload[0] == 1, int.from_bytes(payload[1:], "big"))
        for addr, (_, payload) in self._newest_entries("accthash").items():
            self._account_hash[addr] = payload

    def _newest_entries(self, name: str) -> dict[bytes, tuple[int, bytes]]:
        """(block, payload) of each address's newest entry in a table keyed by address."""
        table = self._tables[name]
        size = table.entry_size
        payload_at = ADDRESS_SIZE + BLOCK_SIZE
        newest: dict[bytes, tuple[int, bytes]] = {}
        for run in table.runs:
            data = run.data  # read in place: one run's entries are never all held at once
            for at in range(0, run.count * size, size):
                addr = data[at : at + ADDRESS_SIZE]
                block = int.from_bytes(data[at + ADDRESS_SIZE : at + payload_at], "big")
                if addr not in newest or block > newest[addr][0]:
                    newest[addr] = (block, data[at + payload_at : at + size])
        return newest

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            raise self._error
