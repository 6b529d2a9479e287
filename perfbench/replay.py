"""The ``replay-hot`` and ``replay-cold`` workloads: the block execution loop.

Set-up (untimed input preparation) generates the workload with
``flatstate gen`` and replays its first ``BASE_BLOCKS`` blocks into a base
LiveDb (and, in ``replay-cold``, ArchiveDb), which is then closed. The
remaining blocks form the window every round replays.

A round copies the base directories, opens them (one ``setup_s``
sample), and replays the window block by block as a validator would:
decode the diff with ``read_workload``, read the current balance, nonce
and every written slot of each touched account, then ``apply_block`` and
``state_root`` (and ``ArchiveDb.append_block``). The round ends when both
databases are flushed and the archive watermark covers the last block;
that is the only flush (the same policy on both sides). Rounds repeat
until ``--seconds`` have passed.

Every round replays the same blocks and makes the same reads. After
each block the loop runs ``PROBES_PER_BLOCK`` host-pace probes (see
``pace``), and every block and read time is scaled by the probes of its
window. The run reports the throughput over the scaled time of all
rounds, less the probes' own time, and percentiles over the scaled
blocks and reads of the windows least touched by steal
(``pace.quiet_samples``).

Answers are recorded during the rounds and checked after them: the head
reads against ``HistoryModel``, the final root against a recomputation
from the flushed files, every round against the first, and (with the
archive) every block hash and a sample of archive reads.
"""

from __future__ import annotations

import itertools
import random
import shutil
import statistics
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from flatstate import ArchiveDb, LiveDb, WorkloadSpec, read_workload, write_workload
from flatstate.digest import digest_count

import history
from host import dir_bytes, peak_rss_mib, percentile, proc_io
from models import HistoryModel, live_root_from_files, sha256
from pace import LocalProbe, Scale, Steal, quiet_samples
from spans import Tracer

# Blocks replayed in set-up; the rest of the workload is the timed window.
BASE_BLOCKS = {"replay-hot": 1000, "replay-cold": 875}
TINY_BASE_BLOCKS = 10
MIN_ROUNDS = 5  # so that every run pools several rounds
EXTRA_OPENS = 5  # open cycles besides the rounds' own, for the setup_s median
ARCHIVE_SAMPLE = 3000
PROBES_PER_BLOCK = 8
WINDOW_NS = 50_000_000  # pace windows


@dataclass
class Round:
    traced: bool
    first_block: int
    wall_ns: int = 0
    scaled_wall_ns: float = 0.0  # without the probes' time
    probe_ns: int = 0
    blocks: int = 0
    root: bytes = b""
    root_chain: bytes = b""
    answers: bytearray = field(default_factory=bytearray)
    block_ns: array = field(default_factory=lambda: array("q"))
    read_ns: array = field(default_factory=lambda: array("q"))
    block_ends: array = field(default_factory=lambda: array("q"))
    read_marks: array = field(default_factory=lambda: array("q"))  # reads made by the end of each block
    scale: Scale | None = None
    flush_ms: float = 0.0
    drain_ms: float = 0.0
    publish_lag_ms: list = field(default_factory=list)
    io: dict = field(default_factory=dict)
    digests: int = 0
    merged_runs: int = 0
    live_bytes: int = 0
    archive_bytes: int = 0
    end_state: dict = field(default_factory=dict)


def _stores(live: LiveDb) -> list:
    return [
        live.balances,
        live.nonces,
        live.exists_flags,
        live.reincarnations,
        live.codes.meta,
        live.values,
        live.a_index.reverse,
        live.ak_index.reverse,
    ]


def _attach(tracer: Tracer, live: LiveDb, archive) -> None:
    """Wrap the public methods the loop reaches, on these objects only."""
    for method in ("get_balance", "get_nonce", "get_storage"):
        tracer.wrap(live, method, "livedb.read")
    tracer.wrap(live, "apply_block", "livedb.apply_block")
    tracer.wrap(live, "state_root", "livedb.state_root")
    for store in _stores(live):
        tracer.wrap(store, "set", "store.set")
        tracer.wrap(store, "get", "store.get")
        tracer.wrap(store.tree, "root", "hashtree.root")
        tracer.wrap(store.pool, "get_page", "pagepool.get_page")
    for index in (live.a_index, live.ak_index):
        tracer.wrap(index, "get_or_add", "index.get_or_add")
        tracer.wrap(index, "get", "index.get")
        tracer.wrap(index.pool, "get_page", "pagepool.get_page")
    if archive is not None:
        tracer.wrap(archive, "append_block", "archive.append_block")


def _build_base(full: Path, window: Path, base: Path, base_blocks: int, spec: WorkloadSpec, with_archive: bool):
    """Replay the first ``base_blocks`` blocks into ``base``; write the rest to ``window``.

    Returns the base state's size: key counts and page counts.
    """
    diffs = read_workload(full)
    live = LiveDb(base / "live")
    archive = ArchiveDb(base / "archive") if with_archive else None
    try:
        for diff in itertools.islice(diffs, base_blocks):
            live.apply_block(diff)
            if archive is not None:
                archive.append_block(diff)
        sizes = _sizes(live)
    finally:
        live.close()
        if archive is not None:
            archive.close()
    write_workload(window, spec, diffs)
    return sizes


def _sizes(live: LiveDb) -> dict:
    return {
        "accounts": live.a_index.count,
        "slot_keys": live.ak_index.count,
        "values_pages": live.values.page_count,
        "slot_index_pages": live.ak_index.pool.page_count,
    }


def _open_copy(base: Path, dest: Path, with_archive: bool, probe: LocalProbe):
    """Copy the base databases to ``dest`` and open them; times the open only, scaled to the host's pace."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(base, dest)
    before = probe.now()
    start = perf_counter_ns()
    live = LiveDb(dest / "live")
    archive = ArchiveDb(dest / "archive") if with_archive else None
    opened = perf_counter_ns() - start
    return live, archive, opened / 1e9 * (before + probe.now()) / 2


def _play(
    window: Path, live: LiveDb, archive, tracer: Tracer | None, rnd: Round, probe: LocalProbe, steal: Steal
) -> None:
    """The timed part of one round."""
    get_balance, get_nonce, get_storage = live.get_balance, live.get_nonce, live.get_storage
    apply_block, state_root = live.apply_block, live.state_root
    append_block = archive.append_block if archive is not None else None
    clock = perf_counter_ns
    answers, read_ns, block_ns = rnd.answers, rnd.read_ns, rnd.block_ns
    block_ends, read_marks = rnd.block_ends, rnd.read_marks
    appended_at = array("q")
    seen_at: list[tuple[int, int]] = []  # (time, watermark) at block boundaries
    runs_seen: set[str] = set()
    chain = bytes(32)
    diffs = read_workload(window)
    io_before, digests_before = proc_io(), digest_count()
    steal.sample()
    start = clock()
    while True:
        b0 = clock()
        if tracer is not None:
            tracer.begin_op(rnd.blocks + 1)
            tracer.enter("bench.block")
            tracer.enter("workload.decode")
        diff = next(diffs, None)
        if tracer is not None:
            tracer.leave()
        if diff is None:
            if tracer is not None:
                tracer.leave()
            break
        for update in diff.updates:
            address = update.address
            r0 = clock()
            balance = get_balance(address)
            r1 = clock()
            nonce = get_nonce(address)
            r2 = clock()
            read_ns.append(r1 - r0)
            read_ns.append(r2 - r1)
            answers += balance.to_bytes(32, "big")
            answers += nonce.to_bytes(32, "big")
            for key, _ in update.slots:
                r0 = clock()
                value = get_storage(address, key)
                read_ns.append(clock() - r0)
                answers += value
        apply_block(diff)
        chain = sha256(chain + state_root().root)
        if append_block is not None:
            append_block(diff)
            now = clock()
            appended_at.append(now)
            seen_at.append((now, archive.watermark))
            if tracer is not None:
                for files in archive.run_files().values():
                    runs_seen.update(files)
        rnd.blocks += 1
        if tracer is not None:
            tracer.leave()
        b1 = clock()
        block_ns.append(b1 - b0)
        block_ends.append(b1)
        read_marks.append(len(read_ns))
        for _ in range(PROBES_PER_BLOCK):
            probe()
        steal.tick()
    f0 = clock()
    if tracer is not None:
        with tracer.span("livedb.flush"):
            live.flush()
    else:
        live.flush()
    f1 = clock()
    last_block = rnd.first_block + rnd.blocks - 1
    if archive is not None:
        if tracer is not None:
            with tracer.span("archive.flush"):
                archive.flush()
        else:
            archive.flush()
        if archive.watermark != last_block:
            raise RuntimeError(f"archive watermark {archive.watermark} after flush, expected {last_block}")
    end = clock()
    steal.sample()
    rnd.wall_ns = end - start
    rnd.scale = Scale(probe, steal, start, end, WINDOW_NS)
    rnd.scaled_wall_ns = rnd.scale.duration(without_probes=True)
    rnd.probe_ns = sum(rnd.scale.probe_ns)
    io_after, digests_after = proc_io(), digest_count()
    rnd.io = {name: io_after[name] - io_before[name] for name in io_before}
    rnd.digests = digests_after - digests_before
    rnd.flush_ms = (f1 - f0) / 1e6
    rnd.drain_ms = (end - f1) / 1e6
    rnd.root = live.state_root().root
    rnd.root_chain = chain
    if archive is not None:
        # Lag of a block: from its append until the first later block boundary
        # (or the end of the final flush) that saw the watermark cover it.
        seen_at.append((end, archive.watermark))
        lags, cursor = [], 0
        for i, appended in enumerate(appended_at):
            cursor = max(cursor, i)
            while seen_at[cursor][1] < rnd.first_block + i:
                cursor += 1
            lags.append((seen_at[cursor][0] - appended) / 1e6)
        rnd.publish_lag_ms = sorted(lags)
        if tracer is not None:
            final = archive.run_files()
            runs_seen.update(f for files in final.values() for f in files)
            rnd.merged_runs = len(runs_seen) - sum(len(files) for files in final.values())
            rnd.end_state["archive"] = {
                table: {"runs": len(final[table]), "entries": archive.entry_count(table)} for table in final
            }
    pools = [store.pool for store in _stores(live)] + [live.a_index.pool, live.ak_index.pool]
    rnd.end_state.update(
        _sizes(live),
        overflow_pages=sum(index.pool.page_count - len(index.bucket_pages) for index in (live.a_index, live.ak_index)),
        resident_pages=sum(pool.resident_count for pool in pools),
    )


def _read_ends(rnd: Round) -> list[int]:
    """For each read of the round, the end time of its block."""
    ends, first = [], 0
    for block_end, last in zip(rnd.block_ends, rnd.read_marks):
        ends.extend([block_end] * (last - first))
        first = last
    return ends


def _check_reads(full: Path, first_block: int, answers: bytearray) -> tuple[HistoryModel, int, int, int]:
    """Check the window's head reads against the model built from the whole workload.

    Returns (model, checked, failed, LiveDb key lookups in the window).
    """
    model = HistoryModel()
    checked = failed = pos = lookups = 0
    seen: set[bytes] = set()
    for diff in read_workload(full):
        head = model.block
        for update in diff.updates:
            address = update.address
            if diff.block >= first_block:
                wanted = [
                    model.balance_at(address, head).to_bytes(32, "big"),
                    model.nonce_at(address, head).to_bytes(32, "big"),
                ]
                wanted += [model.storage_at(address, key, head) for key, _ in update.slots]
                for want in wanted:
                    checked += 1
                    failed += answers[pos : pos + 32] != want
                    pos += 32
                # Key-cache consultations: one per account read and per update,
                # one per slot write, and one more per slot read of a known account.
                slots = len(update.slots)
                lookups += 2 + slots + (slots if address in seen else 0) + 1 + slots
            seen.add(address)
        model.apply(diff)
    failed += abs(len(answers) - pos) // 32
    model.diff_bytes = full.stat().st_size
    return model, checked, failed, lookups


def _mismatches(answers: bytearray, reference: bytearray) -> int:
    if answers == reference:
        return 0
    width = max(len(answers), len(reference))
    return sum(answers[i : i + 32] != reference[i : i + 32] for i in range(0, width, 32))


def _check_archive(archive_dir: Path, model: HistoryModel, ctx) -> tuple[int, int]:
    """Reopen the last round's archive: every block hash and a sample of reads."""
    archive = ArchiveDb(archive_dir)
    try:
        checked = failed = 0
        for block in range(model.block + 1):
            checked += 1
            failed += archive.block_hash(block) != model.block_hash(block)
        queries = history.make_queries(model, random.Random(ctx.seed), ctx.scaled(ARCHIVE_SAMPLE, 200))
        done, bad = history.check_in_process(archive, model, queries)
    finally:
        archive.close()
    return checked + done, failed + bad


def run(ctx) -> dict:
    name = ctx.workload
    with_archive = name == "replay-cold"
    spec = ctx.spec()
    base_blocks = ctx.scaled(BASE_BLOCKS[name], TINY_BASE_BLOCKS)
    full, window, base, here = (ctx.work / part for part in ("full.wl", "window.wl", "base", "round"))
    ctx.generate(spec, full)
    base_sizes = _build_base(full, window, base, base_blocks, WorkloadSpec(seed=ctx.seed, **spec), with_archive)

    setups = []
    probe, steal = LocalProbe(), Steal()
    for _ in range(ctx.scaled(EXTRA_OPENS, 1)):
        live, archive, opened = _open_copy(base, here, with_archive, probe)
        setups.append(opened)
        live.close()
        if archive is not None:
            archive.close()

    rounds: list[Round] = []
    tracer = Tracer(per_call=("archive.append_block",)) if ctx.trace else None
    budget_ns = int(ctx.seconds * 1e9)
    spent = attempted = failed = 0
    peak_rss = 0.0
    while len(rounds) < (2 if ctx.trace else MIN_ROUNDS) or spent < budget_ns:
        traced = ctx.trace and len(rounds) % 2 == 1  # a traced run alternates, starting untraced
        live, archive, opened = _open_copy(base, here, with_archive, probe)
        setups.append(opened)
        rnd = Round(traced=traced, first_block=base_blocks + 1)
        try:
            if traced:
                _attach(tracer, live, archive)
            _play(window, live, archive, tracer if traced else None, rnd, probe, steal)
        finally:
            live.close()
            if archive is not None:
                archive.close()
        spent += rnd.wall_ns
        if not rounds:
            # Later rounds only add the benchmark's own records; the probe's table is not the program's.
            peak_rss = peak_rss_mib() - probe.table_mib
        # Outside the timed part: the root must match a recomputation from the
        # files, and every round must repeat the first one's answers and roots.
        rnd.live_bytes = dir_bytes(here / "live")
        rnd.archive_bytes = dir_bytes(here / "archive") if with_archive else 0
        attempted += 1
        failed += live_root_from_files(here / "live") != rnd.root
        if rounds:
            attempted += len(rnd.answers) // 32 + 1
            failed += _mismatches(rnd.answers, rounds[0].answers)
            failed += (rnd.root, rnd.root_chain) != (rounds[0].root, rounds[0].root_chain)
            rnd.answers = bytearray()
        rounds.append(rnd)

    model, checked, bad, lookups = _check_reads(full, base_blocks + 1, rounds[0].answers)
    attempted, failed = attempted + checked, failed + bad
    expected = ctx.recorded()
    recorded = None
    if expected is not None:
        recorded = expected["root"] == rounds[0].root.hex() and expected["root_chain"] == rounds[0].root_chain.hex()
        attempted += 1
        failed += not recorded
    if with_archive:
        checked, bad = _check_archive(here / "archive", model, ctx)
        attempted, failed = attempted + checked, failed + bad

    state_bytes = model.state_bytes()
    last = rounds[-1]
    window_blocks = spec["blocks"] - base_blocks
    txs = spec["txs_per_block"] * window_blocks
    untraced = [r for r in rounds if not r.traced]
    blocks_ns = quiet_samples([(r.scale, r.block_ends, r.block_ns) for r in untraced])
    reads_ns = quiet_samples([(r.scale, _read_ends(r), r.read_ns) for r in untraced])
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": txs * len(untraced) / (sum(r.scaled_wall_ns for r in untraced) / 1e9),
        "op_ms_p50": percentile(blocks_ns, 50) / 1e6,
        "op_ms_p99": percentile(blocks_ns, 99) / 1e6,
        "read_us_p50": percentile(reads_ns, 50) / 1e3,
        "read_us_p99": percentile(reads_ns, 99) / 1e3,
        "peak_rss_mb": peak_rss,
        "disk_bytes_per_user_byte": (last.live_bytes + last.archive_bytes)
        / (state_bytes + (model.diff_bytes if with_archive else 0)),
    }
    layers = {}
    if ctx.trace:
        traced = [r for r in rounds if r.traced]
        layers = _layer_metrics(tracer, traced, untraced, lookups, window.stat().st_size, model.diff_bytes, state_bytes)
    detail = {
        "base_blocks": base_blocks,
        "window_blocks": window_blocks,
        "rounds": len(rounds),
        "traced_rounds": sum(r.traced for r in rounds),
        "round_tx_per_s": [txs / (r.scaled_wall_ns / 1e9) for r in rounds],
        "round_raw_tx_per_s": [txs / (r.wall_ns / 1e9) for r in rounds],
        "pace_factor": probe.factor(),
        "steal_ticks": steal.ticks[-1] - steal.ticks[0],
        "quiet_share_blocks": len(blocks_ns) / sum(len(r.block_ns) for r in untraced),
        "quiet_share_reads": len(reads_ns) / sum(len(r.read_ns) for r in untraced),
        "final_root": rounds[0].root.hex(),
        "root_chain": rounds[0].root_chain.hex(),
        "recorded_root_matched": recorded,
        "setup_opens_s": setups,
        "reads_per_round": len(rounds[0].read_ns),
        "key_lookups_per_round": lookups,
        "live_bytes": last.live_bytes,
        "archive_bytes": last.archive_bytes,
        "state_bytes": state_bytes,
        "diff_bytes": model.diff_bytes,
        "base_state": base_sizes,
        "end_state": {k: v for k, v in last.end_state.items() if k != "archive"},
    }
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
        "tracer": tracer,
        "traced_wall_ns": sum(r.wall_ns - r.probe_ns for r in rounds if r.traced),
    }


def _layer_metrics(tracer, traced, untraced, lookups, window_bytes, diff_bytes, state_bytes) -> dict:
    blocks = sum(r.blocks for r in traced)
    calls = tracer.calls
    index_calls = calls.get("index.get", 0) + calls.get("index.get_or_add", 0)
    index_pages = tracer.under.get(("index.get", "pagepool.get_page"), 0) + tracer.under.get(
        ("index.get_or_add", "pagepool.get_page"), 0
    )
    io = {key: sum(r.io[key] for r in traced) for key in traced[0].io}
    last = traced[-1]
    untraced_wall = statistics.median(r.scaled_wall_ns for r in untraced)
    traced_wall = statistics.median(r.scaled_wall_ns for r in traced)
    layers = {
        # Throughput lost to tracing: traced rounds against untraced ones of the same run.
        "trace.overhead_pct": (1 - untraced_wall / traced_wall) * 100,
        "workload.decode_us": tracer.total_ns.get("workload.decode", 0) / blocks / 1e3,
        "livedb.read_us": tracer.per_call_us("livedb.read"),
        "livedb.apply_block_us": tracer.per_call_us("livedb.apply_block"),
        "livedb.state_root_us": tracer.per_call_us("livedb.state_root"),
        "cache.hit_ratio": 1 - index_calls / (lookups * len(traced)),
        "index.get_or_add.calls": calls.get("index.get_or_add", 0) / blocks,
        "index.get_or_add.us": tracer.per_call_us("index.get_or_add"),
        "index.get.calls": calls.get("index.get", 0) / blocks,
        "index.get.us": tracer.per_call_us("index.get"),
        "index.pages_per_lookup": index_pages / index_calls if index_calls else 0.0,
        "index.overflow_pages": last.end_state["overflow_pages"],
        "pagepool.get_page.calls": calls.get("pagepool.get_page", 0) / blocks,
        "pagepool.get_page.us": tracer.per_call_us("pagepool.get_page"),
        "pagepool.resident_pages": last.end_state["resident_pages"],
        "io.read_bytes": io["rchar"] / blocks,
        "io.write_bytes": io["wchar"] / blocks,
        "io.read_syscalls": io["syscr"] / blocks,
        "io.write_syscalls": io["syscw"] / blocks,
        "io.write_bytes_per_user_byte": io["wchar"] / (window_bytes * len(traced)),
        "store.set.calls": calls.get("store.set", 0) / blocks,
        "store.set.us": tracer.per_call_us("store.set"),
        "store.get.us": tracer.per_call_us("store.get"),
        "store.flush_ms": statistics.median(r.flush_ms for r in traced),
        "hashtree.root.calls": calls.get("hashtree.root", 0) / blocks,
        "hashtree.root.us": tracer.per_call_us("hashtree.root"),
        "digest.calls_per_block": sum(r.digests for r in traced) / blocks,
        "space.live_bytes_per_state_byte": last.live_bytes / state_bytes,
    }
    if last.archive_bytes:
        append_us = sorted(ns / 1e3 for ns in tracer.durations["archive.append_block"])
        lags = sorted(lag for r in traced for lag in r.publish_lag_ms)
        layers.update(
            {
                "archive.append_us_p50": percentile(append_us, 50),
                "archive.append_us_p99": percentile(append_us, 99),
                "archive.publish_lag_ms_p50": percentile(lags, 50),
                "archive.publish_lag_ms_p99": percentile(lags, 99),
                "archive.drain_ms": statistics.median(r.drain_ms for r in traced),
                "archive.merged_runs": last.merged_runs,
                "space.archive_bytes_per_diff_byte": last.archive_bytes / diff_bytes,
            }
        )
        for table, counts in last.end_state["archive"].items():
            layers[f"archive.{table}.runs"] = counts["runs"]
            layers[f"archive.{table}.entries"] = counts["entries"]
    return layers
