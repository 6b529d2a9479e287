"""Acceptance suite: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import threading
import time

import pytest

from flatstate import bench
from flatstate import index as index_module
from flatstate.archive import ArchiveDb
from flatstate.digest import digest_count
from flatstate.hashtree import HashTree
from flatstate.index import LinearHashIndex
from flatstate.livedb import LiveDb
from flatstate.oracle import ReferenceOracle
from flatstate.pagepool import PagePool
from flatstate.store import RecordStore
from flatstate.types import AccountUpdate, BlockDiff
from flatstate.workload import WorkloadSpec, account_address, generate, slot_key, write_workload

from test_archive import example_table_diffs
from test_hashtree import Pages, eager_root
from util import addr, key, val

BIG_SPEC = WorkloadSpec(
    seed=1001,
    blocks=220,
    accounts=5200,
    txs_per_block=30,
    slot_writes_per_tx=14,
    new_key_ratio=0.35,
    delete_ratio=0.06,
)

MEDIUM_SPEC = WorkloadSpec(
    seed=2002,
    blocks=100,
    accounts=1500,
    txs_per_block=15,
    slot_writes_per_tx=6,
    new_key_ratio=0.35,
    delete_ratio=0.04,
)


def report(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion:02d}: {message}")


@pytest.fixture(scope="module")
def big_history():
    diffs = list(generate(BIG_SPEC))
    oracle = ReferenceOracle()
    stats = {"slot_writes": 0, "deletions": 0, "recreations": 0}
    touched, pairs = set(), set()
    ever_deleted = set()
    for diff in diffs:
        oracle.apply_block(diff)
        for update in diff.updates:
            touched.add(update.address)
            stats["slot_writes"] += len(update.slots)
            for slot, _ in update.slots:
                pairs.add((update.address, slot))
            if update.deleted:
                stats["deletions"] += 1
                ever_deleted.add(update.address)
            elif update.created and update.address in ever_deleted:
                stats["recreations"] += 1
    return diffs, oracle, sorted(touched), sorted(pairs), stats


def test_criterion_01_oracle_equivalence(tmp_path, big_history):
    """Full replay equals the reference oracle on every sampled read."""
    started = time.perf_counter()
    diffs, oracle, touched, pairs, stats = big_history
    assert BIG_SPEC.blocks >= 200 and BIG_SPEC.accounts >= 5000
    assert stats["slot_writes"] >= 50_000
    assert stats["deletions"] >= 100 and stats["recreations"] >= 100
    live = LiveDb(tmp_path / "live")
    archive = ArchiveDb(tmp_path / "archive")
    for diff in diffs:
        live.apply_block(diff)
        archive.append_block(diff)
    archive.flush()
    mismatches = 0
    for address in touched:
        mismatches += live.get_balance(address) != oracle.balance(address)
        mismatches += live.get_nonce(address) != oracle.nonce(address)
        mismatches += live.get_code(address) != oracle.code(address)
        mismatches += live.account_exists(address) != oracle.exists(address)
    for address, slot in pairs:
        mismatches += live.get_storage(address, slot) != oracle.storage(address, slot)
    rng = random.Random(0)
    for _ in range(10_000):
        address, slot = rng.choice(pairs)
        block = rng.randint(0, BIG_SPEC.blocks)
        mismatches += archive.get_storage_at(address, slot, block) != oracle.storage_at(address, slot, block)
    live.close()
    archive.close()
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 120.0
    report(
        1,
        f"{BIG_SPEC.blocks} blocks, {stats['slot_writes']} slot writes, "
        f"{stats['deletions']} deletions, {stats['recreations']} recreations, "
        f"{4 * len(touched) + len(pairs)} head reads and 10000 archive queries, "
        f"0 mismatches in {elapsed:.1f}s",
    )


def test_criterion_02_change_log_example(tmp_path):
    """The published storage change-log example answers exactly."""
    archive = ArchiveDb(tmp_path / "archive")
    for diff in example_table_diffs():
        archive.append_block(diff)
    archive.flush()
    assert archive.get_storage_at(addr(0x123), key(1), 15) == val(100)
    assert archive.get_storage_at(addr(0x123), key(1), 16) == val(110)
    assert archive.get_storage_at(addr(0x123), key(4), 17) == val(90)
    archive.close()
    report(2, "storage at (0x123, key 1, block 15) = 100, (.., 16) = 110, (key 4, 17) = 90")


def test_criterion_03_lazy_eager_hash_equivalence():
    """1000 random write/root interleavings match eager recomputation."""
    rng = random.Random(30303)
    roots_checked = 0
    for _ in range(1_000):
        store = Pages()
        tree = HashTree()
        for _ in range(rng.randint(1, 14)):
            if rng.random() < 0.65 or not store.pages:
                store.write(rng.randint(0, len(store.pages)), tree, rng)
            else:
                assert tree.root(store.read) == eager_root(store.pages)
                roots_checked += 1
        assert tree.root(store.read) == eager_root(store.pages)
        roots_checked += 1
        before = digest_count()
        tree.root(store.read)
        assert digest_count() == before  # clean repeat does zero digest work
    report(3, f"{roots_checked} lazy roots equal eager recomputation; clean repeats hash nothing")


def test_criterion_04_replication_determinism(tmp_path, monkeypatch):
    """Identical diff streams produce identical roots and identical bytes."""
    replicas = []
    for name in ("one", "two"):
        if name == "two":
            monkeypatch.setattr(index_module, "KEYS_REMEMBERED", 0)  # the second replica remembers no key
        replicas.append((LiveDb(tmp_path / name / "live"), ArchiveDb(tmp_path / name / "archive")))
    blocks = 0
    for diff in generate(MEDIUM_SPEC):
        roots = []
        for live, archive in replicas:
            live.apply_block(diff)
            archive.append_block(diff)
            roots.append(live.state_root())
        assert roots[0] == roots[1]
        blocks += 1
    (remembering, _), (forgetful, _) = replicas
    assert len(forgetful.a_index._known) == len(forgetful.ak_index._known) == 0 < len(remembering.ak_index._known)
    for live, archive in replicas:
        live.close()
        archive.close()
    compared = 0
    for side in ("live", "archive"):
        one = {p.relative_to(tmp_path / "one"): p for p in (tmp_path / "one" / side).rglob("*") if p.is_file()}
        two = {p.relative_to(tmp_path / "two"): p for p in (tmp_path / "two" / side).rglob("*") if p.is_file()}
        assert one.keys() == two.keys()
        for rel, path in one.items():
            assert path.read_bytes() == two[rel].read_bytes(), f"{rel} differs between replicas"
            compared += 1
    report(4, f"identical roots at {blocks} blocks; {compared} files byte-identical across replicas")


def test_criterion_05_insertion_order_property(tmp_path):
    """Equal sequences agree; permuted first insertions of new keys differ."""
    first_wave = [AccountUpdate(address=addr(i), created=True) for i in range(1, 6)]
    second_wave = [AccountUpdate(address=addr(i), created=True) for i in range(6, 11)]
    layouts = {
        "a": [first_wave, second_wave],
        "b": [first_wave, second_wave],  # same sequence as "a"
        "c": [second_wave, first_wave],  # same keys, different first-insertion order
    }
    roots = {}
    for name, waves in layouts.items():
        db = LiveDb(tmp_path / name)
        for block, updates in enumerate(waves, start=1):
            db.apply_block(BlockDiff(block=block, updates=tuple(updates)))
        roots[name] = db.state_root().root
        db.close()
    assert roots["a"] == roots["b"]
    assert roots["a"] != roots["c"]
    report(5, "equal diff sequences -> equal roots; permuted new-key order -> different roots")


def prune_round_diff(block: int, round_index: int) -> BlockDiff:
    address = account_address(round_index % 100)
    slots = tuple(sorted((slot_key(address, i), val(round_index * 1000 + i + 1)) for i in range(100)))
    return BlockDiff(block=block, updates=(AccountUpdate(address=address, slots=slots),))


def test_criterion_06_intrinsic_pruning(tmp_path):
    """Overwrites leave the live footprint flat; the archive grows with changes."""
    page = 4096
    sizes_by_w = {}
    archive_entries = {}
    for w in (10, 100, 1000):
        base = tmp_path / f"w{w}"
        live = LiveDb(base / "live")
        archive = ArchiveDb(base / "archive")
        setup = []
        for a in range(100):
            address = account_address(a)
            slots = tuple(sorted((slot_key(address, i), val(i + 1)) for i in range(100)))
            setup.append(AccountUpdate(address=address, created=True, slots=slots))
        setup_diff = BlockDiff(block=1, updates=tuple(setup))
        live.apply_block(setup_diff)
        archive.append_block(setup_diff)
        for round_index in range(w):
            round_diff = prune_round_diff(round_index + 2, round_index)
            live.apply_block(round_diff)
            archive.append_block(round_diff)
        live.flush()
        archive.flush()
        sizes_by_w[w] = dict(bench.directory_sizes(base / "live"))
        archive_entries[w] = archive.entry_count("storage")
        live.close()
        archive.close()
    baseline = sizes_by_w[10]
    for w in (100, 1000):
        assert sizes_by_w[w].keys() == baseline.keys()
        for name, size in sizes_by_w[w].items():
            assert abs(size - baseline[name]) <= page, f"{name}: {baseline[name]} -> {size} at w={w}"
    for w in (10, 100, 1000):
        assert archive_entries[w] == 10_000 + 100 * w  # entry count == change count, linear in w
    report(
        6,
        "live footprint flat within one page per file for w in {10,100,1000}; "
        f"archive entries exactly 10000+100w: {archive_entries[10]}, {archive_entries[100]}, {archive_entries[1000]}",
    )


def test_criterion_07_hash_tree_work_bound():
    """Two dirty sibling leaves in a 1024-leaf tree cost depth + 2 digests."""
    rng = random.Random(7)
    store = Pages()
    tree = HashTree()
    for i in range(1024):
        store.write(i, tree, rng)
    tree.root(store.read)
    store.write(512, tree, rng)
    store.write(513, tree, rng)
    before = digest_count()
    tree.root(store.read)
    spent = digest_count() - before
    assert spent == 10 + 2
    report(7, f"sibling update in a 1024-leaf tree took exactly {spent} digests (depth 10 + 2 leaves)")


def test_criterion_08_linear_hash_density(tmp_path):
    """100k random keys: dense ordinals, many splits, full retrievability."""
    pool = PagePool(tmp_path / "buckets", page_size=4096, capacity=4096)
    reverse = RecordStore.open(tmp_path / "keys", 20, page_size=4096, capacity=4096)
    index = LinearHashIndex(pool, reverse, 20)
    try:
        rng = random.Random(808)
        keys = [rng.randbytes(20) for _ in range(100_000)]
        initial_buckets = len(index.bucket_pages)
        ordinals = [index.get_or_add(k)[0] for k in keys]
        splits = len(index.bucket_pages) - initial_buckets
        assert sorted(ordinals) == list(range(100_000))
        assert splits >= 8
        retrievable = sum(index.get(k) == o for k, o in zip(keys, ordinals))
        assert retrievable == 100_000
    finally:
        index.close()
    report(8, f"100000 keys, {splits} splits, ordinals dense 0..99999, 100% retrievable")


def test_criterion_09_concurrent_archive_consistency(tmp_path, big_history):
    """A reader racing the appender only ever sees fully published blocks."""
    diffs, oracle, _, pairs, _ = big_history
    archive = ArchiveDb(tmp_path / "archive")
    failures = []
    done = threading.Event()
    queries = 0

    def reader():
        nonlocal queries
        rng = random.Random(909)
        while queries < 10_000:
            watermark = archive.watermark
            block = rng.randint(0, watermark)
            address, slot = rng.choice(pairs)
            got = archive.get_storage_at(address, slot, block)
            expected = oracle.storage_at(address, slot, block)
            if got != expected:
                failures.append((address.hex(), slot.hex(), block, got.hex(), expected.hex()))
                return
            queries += 1
            if done.is_set() and queries >= 10_000:
                return

    thread = threading.Thread(target=reader)
    thread.start()
    for diff in diffs:
        archive.append_block(diff)
    archive.flush()
    done.set()
    thread.join()
    archive.close()
    assert not failures, failures[:3]
    assert queries >= 10_000
    report(9, f"{queries} concurrent queries during replay all matched the oracle")


SWEEP_SIZES = [65536, 32768, 16384, 8192, 4096, 2048, 1024, 512, 256]


def test_criterion_10_page_size_sweep():
    """Smaller pages hash faster in memory, within a 10% noise band per step."""
    started = time.perf_counter()
    rows = bench.sweep_memory(SWEEP_SIZES, keys=160_000, hot_set=100, rounds=5, passes=4)
    costs = [row.ns_per_hash for row in rows]
    if any(costs[i + 1] > costs[i] * 1.10 for i in range(len(costs) - 1)):
        # One remeasure to suppress scheduler spikes; keep per-size minima.
        again = bench.sweep_memory(SWEEP_SIZES, keys=160_000, hot_set=100, rounds=5, passes=6)
        costs = [min(a, b.ns_per_hash) for a, b in zip(costs, again)]
    for i in range(len(costs) - 1):
        larger, smaller = SWEEP_SIZES[i], SWEEP_SIZES[i + 1]
        assert costs[i + 1] <= costs[i] * 1.10, (
            f"page {smaller} cost {costs[i + 1]:.0f}ns exceeds page {larger} cost {costs[i]:.0f}ns by >10%"
        )
    assert costs[-1] < costs[0]  # the qualitative claim, far outside noise
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    trend = " ".join(f"{size}:{cost / 1e6:.2f}ms" for size, cost in zip(SWEEP_SIZES, costs))
    report(10, f"memory-mode cost non-increasing toward small pages ({trend}) in {elapsed:.0f}s")


def test_criterion_10_io_sweep_reports_4096(tmp_path):
    """The io sweep includes the 4096-byte point; results are hardware-facts."""
    rows = bench.sweep_io([1024, 2048, 4096, 8192], data_dir=tmp_path, keys=20_000, rounds=2, cache_budget=1 << 18)
    assert [row.page_size for row in rows] == [1024, 2048, 4096, 8192]
    best = min(rows, key=lambda row: row.ns_per_hash)
    report(10, f"io-mode sweep reported; fastest page size on this hardware: {best.page_size} (not asserted)")


def test_criterion_11_archive_overhead(tmp_path):
    """Enabling the archive changes nothing observable and costs < 2x wall time."""
    workload = tmp_path / "medium.wl"
    write_workload(workload, MEDIUM_SPEC)
    plain = bench.replay_workload(workload, tmp_path / "plain", archive_mode="none")
    archived = bench.replay_workload(workload, tmp_path / "archived", archive_mode="custom")
    assert archived.final_root == plain.final_root
    ratio = archived.elapsed / plain.elapsed
    if ratio >= 2.0:
        # One retry to shield the timing bound from scheduler noise.
        plain = bench.replay_workload(workload, tmp_path / "plain2", archive_mode="none")
        archived = bench.replay_workload(workload, tmp_path / "archived2", archive_mode="custom")
        assert archived.final_root == plain.final_root
        ratio = archived.elapsed / plain.elapsed
    assert ratio < 2.0
    report(11, f"identical final root with archive enabled; wall-time ratio {ratio:.2f} < 2.0")
