"""Replay harness, disk accounting, and the page-size microbenchmark."""

from __future__ import annotations

import csv
import gc
import random
import time
from dataclasses import dataclass
from pathlib import Path

from .archive import ArchiveDb
from .errors import FlatStateError
from .hashtree import HashTree
from .livedb import LiveDb
from .store import RecordStore
from .workload import read_spec, read_workload

SAMPLE_FIELDS = ("block_height", "elapsed", "tx_count", "tx_per_second", "live_bytes", "archive_bytes")


@dataclass
class BenchSample:
    block_height: int
    elapsed: float
    tx_count: int
    tx_per_second: float
    live_bytes: int
    archive_bytes: int


@dataclass
class ReplaySummary:
    blocks: int
    final_root: bytes
    elapsed: float
    samples: list[BenchSample]
    live_dir: Path
    archive_dir: Path | None


def replay_workload(
    workload: Path,
    db_dir: Path,
    archive_mode: str = "none",
    page_size: int = 4096,
    sample_every: int = 0,
) -> ReplaySummary:
    """Apply every diff in ``workload`` to a fresh LiveDb under ``db_dir``.

    With ``archive_mode == "custom"`` each applied diff is also fed to an
    ArchiveDb in ``db_dir/archive``. The worldstate root is recomputed at
    every block, which keeps the lazy hashing honest during the replay.
    """
    if archive_mode not in ("none", "custom"):
        raise FlatStateError(f"unknown archive mode {archive_mode!r}")
    spec = read_spec(workload)
    db_dir = Path(db_dir)
    live_dir = db_dir / "live"
    archive_dir = db_dir / "archive" if archive_mode == "custom" else None
    live = LiveDb(live_dir, page_size=page_size)
    archive = ArchiveDb(archive_dir) if archive_dir is not None else None
    samples: list[BenchSample] = []
    blocks = 0
    started = time.perf_counter()
    try:
        for diff in read_workload(workload):
            live.apply_block(diff)
            root = live.state_root()
            if root.block != diff.block:
                raise FlatStateError(f"root reported block {root.block} while applying {diff.block}")
            if archive is not None:
                archive.append_block(live.diff_of_block())
            blocks += 1
            if sample_every and blocks % sample_every == 0:
                live.flush()
                if archive is not None:
                    archive.flush()
                elapsed = time.perf_counter() - started
                txs = blocks * spec.txs_per_block
                samples.append(
                    BenchSample(
                        block_height=diff.block,
                        elapsed=elapsed,
                        tx_count=txs,
                        tx_per_second=txs / elapsed if elapsed > 0 else 0.0,
                        live_bytes=du_bytes(live_dir),
                        archive_bytes=du_bytes(archive_dir) if archive_dir else 0,
                    )
                )
        final_root = live.state_root().root
        live.flush()
    finally:
        live.close()
        if archive is not None:
            archive.close()
    return ReplaySummary(
        blocks=blocks,
        final_root=final_root,
        elapsed=time.perf_counter() - started,
        samples=samples,
        live_dir=live_dir,
        archive_dir=archive_dir,
    )


def write_samples_csv(out, samples: list[BenchSample]) -> None:
    writer = csv.writer(out)
    writer.writerow(SAMPLE_FIELDS)
    for sample in samples:
        writer.writerow(
            [
                sample.block_height,
                f"{sample.elapsed:.6f}",
                sample.tx_count,
                f"{sample.tx_per_second:.2f}",
                sample.live_bytes,
                sample.archive_bytes,
            ]
        )


# -- disk accounting ---------------------------------------------------------


def directory_sizes(root: Path) -> list[tuple[str, int]]:
    """(relative path, byte size) for every file under ``root``, sorted."""
    root = Path(root)
    if not root.exists():
        return []
    return sorted(
        (str(path.relative_to(root)), path.stat().st_size) for path in root.rglob("*") if path.is_file()
    )


def du_bytes(root: Path) -> int:
    return sum(size for _, size in directory_sizes(root))


# -- page-size sweep ---------------------------------------------------------
#
# Shape of the experiment: load a key population into value pages, then
# repeatedly rewrite a small fixed hot set and time how long it takes to
# bring the hash tree root up to date again.

VALUE_RECORD = 32


@dataclass
class SweepRow:
    page_size: int
    mode: str
    ns_per_hash: float
    hashes_per_second: float


class _MemorySetup:
    """One key population packed into pages of a single size, plus its tree."""

    def __init__(self, page_size: int, keys: int, hot_set: int, seed: int):
        self.page_size = page_size
        self.slots = page_size // VALUE_RECORD
        page_count = -(-keys // self.slots)
        self.pages = [bytearray(page_size) for _ in range(page_count)]
        for i in range(keys):
            offset = (i % self.slots) * VALUE_RECORD
            self.pages[i // self.slots][offset : offset + VALUE_RECORD] = i.to_bytes(VALUE_RECORD, "big")
        self.tree = HashTree()
        self.tree.grow(page_count)
        self.tree.root(self.read)
        self.hot = random.Random(seed).sample(range(keys), min(hot_set, keys))
        self.fresh = keys
        self.best_ns: int | None = None

    def read(self, leaf: int) -> bytearray:
        return self.pages[leaf]

    def run_round(self) -> None:
        for index in self.hot:
            offset = (index % self.slots) * VALUE_RECORD
            self.pages[index // self.slots][offset : offset + VALUE_RECORD] = self.fresh.to_bytes(
                VALUE_RECORD, "big"
            )
            self.tree.mark_dirty(index // self.slots)
            self.fresh += 1
        begin = time.perf_counter_ns()
        self.tree.root(self.read)
        spent = time.perf_counter_ns() - begin
        if self.best_ns is None or spent < self.best_ns:
            self.best_ns = spent


def sweep_memory(
    page_sizes: list[int],
    keys: int = 160_000,
    hot_set: int = 100,
    rounds: int = 7,
    seed: int = 0,
    passes: int = 3,
) -> list[SweepRow]:
    """Time the root recomputation after rewriting the hot set, per page size.

    Page sizes are measured in interleaved passes and the per-size minimum
    is kept, so slow machine-wide drift cannot skew the comparison.
    """
    setups = [_MemorySetup(page_size, keys, hot_set, seed) for page_size in page_sizes]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, passes)):
            for setup in setups:
                for _ in range(max(1, rounds)):
                    setup.run_round()
    finally:
        if was_enabled:
            gc.enable()
    return [
        SweepRow(
            page_size=setup.page_size,
            mode="memory",
            ns_per_hash=float(setup.best_ns),
            hashes_per_second=1e9 / setup.best_ns if setup.best_ns else 0.0,
        )
        for setup in setups
    ]


def sweep_io(
    page_sizes: list[int],
    data_dir: Path,
    keys: int = 160_000,
    hot_set: int = 100,
    rounds: int = 5,
    cache_budget: int = 1 << 22,
    seed: int = 0,
) -> list[SweepRow]:
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for page_size in page_sizes:
        capacity = max(2, cache_budget // page_size)
        store = RecordStore.open(
            data_dir / f"sweep-{page_size}.dat",
            VALUE_RECORD,
            page_size=page_size,
            capacity=capacity,
        )
        for i in range(keys):
            store.set(i, i.to_bytes(VALUE_RECORD, "big"))
        store.root()
        hot = random.Random(seed).sample(range(keys), min(hot_set, keys))
        fresh = keys
        best_ns = None
        for _ in range(rounds):
            begin = time.perf_counter_ns()
            for index in hot:
                store.set(index, fresh.to_bytes(VALUE_RECORD, "big"))
                fresh += 1
            store.root()
            store.flush()
            spent = time.perf_counter_ns() - begin
            if best_ns is None or spent < best_ns:
                best_ns = spent
        store.close()
        rows.append(
            SweepRow(
                page_size=page_size,
                mode="io",
                ns_per_hash=float(best_ns),
                hashes_per_second=1e9 / best_ns if best_ns else 0.0,
            )
        )
    return rows


def write_sweep_csv(out, rows: list[SweepRow]) -> None:
    writer = csv.writer(out)
    writer.writerow(("page_size", "mode", "ns_per_hash", "hashes_per_second"))
    for row in rows:
        writer.writerow((row.page_size, row.mode, f"{row.ns_per_hash:.0f}", f"{row.hashes_per_second:.2f}"))
