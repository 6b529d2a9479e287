"""The ``history-query`` workload and the historical query mix.

Set-up (untimed input preparation) builds an archive through
``ArchiveDb.append_block`` and closes it. The timed part alternates, in
``SEGMENTS`` rounds, between reading that archive in process through the
library API and driving ``python -m flatstate serve`` (a child process)
as a closed loop with one ``QueryClient`` connection per CPU. No LiveDb,
index, page pool or hash-tree code runs while it is timed.

Both loops interleave host-pace probes with the queries (see ``pace``):
a local probe after every ``PROBE_EVERY`` in-process reads, and on each
connection a round trip to the reference server after every
``PROBE_EVERY`` served queries. Every latency is scaled by the probes of
its window; the run reports the throughput over the scaled time and
percentiles over the scaled latencies of the windows least touched by
steal (``pace.quiet_samples``).
"""

from __future__ import annotations

import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
from array import array
from time import perf_counter, perf_counter_ns

from flatstate import ArchiveDb, read_workload
from flatstate.server import QueryClient, handle_request

from host import dir_bytes, peak_rss_mib, percentile
from models import HistoryModel
from pace import STEAL_SAMPLE_NS, LocalProbe, ReferenceServer, Scale, ServedProbe, Steal, quiet_samples
from spans import Tracer

MIX = (("storage", 50), ("balance", 25), ("nonce", 10), ("code", 5), ("exists", 5), ("blockhash", 5))
METHODS = {
    "storage": "get_storage_at",
    "balance": "get_balance_at",
    "nonce": "get_nonce_at",
    "code": "get_code_at",
    "exists": "account_exists_at",
    "blockhash": "block_hash",
}
MISS_RATIO = 0.1
RECENT_SHARE = 0.05  # half the queries ask for a block in the newest 5% of history
CONNECTIONS = 2
SERVER_STARTS = 9
START_TIMEOUT_S = 60
SEGMENTS = 5
IN_PROCESS_SHARE = 0.25  # of --seconds spent reading through the library in process
PROBE_EVERY = 4  # queries between two pace probes, in process and on each connection
IN_PROCESS_WINDOW_NS = 50_000_000
SERVER_WINDOW_NS = 100_000_000


def make_queries(model: HistoryModel, rng: random.Random, count: int) -> list[tuple]:
    """``count`` (kind, address, key, block) queries drawn like real traffic.

    Addresses and keys are picked in proportion to how often they were
    written, so they follow the generator's skew; about 10% ask for a key
    or account that was never written.
    """
    storage = [pair for pair, history in model.slots.items() for _ in history]
    accounts = [address for (field, address), history in model.fields.items() if field == "balance" for _ in history]
    kinds, weights = zip(*MIX)
    head = model.block
    queries = []
    for _ in range(count):
        kind = rng.choices(kinds, weights)[0]
        if rng.random() < 0.5:
            block = rng.randint(max(1, head - int(head * RECENT_SHARE)), head)
        else:
            block = rng.randint(1, head)
        miss = rng.random() < MISS_RATIO
        address = key = None
        if kind == "storage":
            address, key = rng.choice(storage)
            if miss:
                key = rng.randbytes(32)
        elif kind != "blockhash":
            address = rng.randbytes(20) if miss else rng.choice(accounts)
        queries.append((kind, address, key, block))
    return queries


def expected_value(model: HistoryModel, query: tuple):
    kind, address, key, block = query
    if kind == "storage":
        return model.storage_at(address, key, block)
    if kind == "blockhash":
        return model.block_hash(block)
    return getattr(model, f"{kind}_at")(address, block)


def call_args(query: tuple) -> tuple:
    kind, address, key, block = query
    if kind == "storage":
        return address, key, block
    if kind == "blockhash":
        return (block,)
    return address, block


def request_line(query: tuple) -> str:
    kind, address, key, block = query
    if kind == "storage":
        return f"STORAGE 0x{address.hex()} 0x{key.hex()} {block}"
    if kind == "blockhash":
        return f"BLOCKHASH {block}"
    return f"{kind.upper()} 0x{address.hex()} {block}"


def response_line(kind: str, value) -> str:
    if kind in ("balance", "nonce"):
        return f"OK {value}"
    if kind == "exists":
        return "OK true" if value else "OK false"
    return f"OK 0x{value.hex()}"


def check_in_process(archive, model: HistoryModel, queries: list[tuple]) -> tuple[int, int]:
    """(checked, failed) for ``queries`` asked of an open archive."""
    failed = 0
    for query in queries:
        if getattr(archive, METHODS[query[0]])(*call_args(query)) != expected_value(model, query):
            failed += 1
    return len(queries), failed


def _read_loop(archive, queries, expected, seconds: float, probe: LocalProbe, steal: Steal) -> dict:
    """Ask ``queries`` of ``archive`` in turn for ``seconds``, with a pace probe after every ``PROBE_EVERY``."""
    calls = [(getattr(archive, METHODS[q[0]]), call_args(q)) for q in queries]
    clock = perf_counter_ns
    ends, latencies = array("q"), array("q")
    failed = 0
    steal.sample()
    start = clock()
    deadline = start + int(seconds * 1e9)
    now = start
    while now < deadline:
        for i, ((method, args), want) in enumerate(zip(calls, expected)):
            t0 = clock()
            got = method(*args)
            now = clock()
            ends.append(now)
            latencies.append(now - t0)
            if got != want:
                failed += 1
            if i % PROBE_EVERY == PROBE_EVERY - 1:
                probe()
                steal.tick()
                now = clock()
            if now >= deadline:
                break
    steal.sample()
    return {"start": start, "end": now, "ends": ends, "latencies": latencies, "failed": failed, "probes": probe}


class _Server:
    """One ``flatstate serve`` child process on an ephemeral port.

    ``setup_s`` is the time from the start until the first answer, scaled
    by pace probes that this process runs while it waits for the server.
    """

    def __init__(self, ctx, db_dir, probe: LocalProbe):
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "flatstate", "serve", "--db-dir", str(db_dir), "--listen", "127.0.0.1:0"],
            env=ctx.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            # A parent started in the background may ignore SIGINT; the server
            # must not inherit that, since SIGINT is how it is stopped cleanly.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            first_probe = len(probe.ns)
            deadline = started + START_TIMEOUT_S
            probe()
            while not select.select([self.proc.stderr], [], [], 0)[0]:
                if perf_counter() > deadline:
                    raise RuntimeError(f"server did not start within {START_TIMEOUT_S} s")
                probe()
            line = self.proc.stderr.readline()
            if not line.startswith("serving archive queries on "):
                raise RuntimeError(f"server did not start: {line!r}")
            host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
            self.address = (host, int(port))
            with QueryClient(*self.address) as client:
                self.first_answer = client.request("WATERMARK")
            self.setup_s = (perf_counter() - started) * probe.factor(first_probe)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


def _client_loop(address, lines, wants, deadline_ns, probe: ServedProbe, out: dict) -> None:
    ends, latencies = array("q"), array("q")
    failed = 0
    clock = perf_counter_ns
    try:
        with QueryClient(*address) as client:
            request = client.request
            now = clock()
            while now < deadline_ns:
                for i, (line, want) in enumerate(zip(lines, wants)):
                    t0 = clock()
                    got = request(line)
                    now = clock()
                    ends.append(now)
                    latencies.append(now - t0)
                    if got != want:
                        failed += 1
                    if i % PROBE_EVERY == PROBE_EVERY - 1:
                        probe()
                        now = clock()
                    if now >= deadline_ns:
                        break
    except OSError as exc:
        out["error"] = repr(exc)
    out.update(ends=ends, latencies=latencies, failed=failed)


def _serve_loop(address, lines, wants, seconds: float, reference: ReferenceServer, steal: Steal) -> dict:
    """Closed loop of ``CONNECTIONS`` clients for ``seconds``, each with its own reference-server probe.

    This thread samples the steal counter while the clients run.
    """
    results = [{} for _ in range(CONNECTIONS)]
    probes: list[ServedProbe] = []
    try:
        for _ in range(CONNECTIONS):
            probes.append(ServedProbe(reference))
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        threads = []
        for i in range(CONNECTIONS):
            # Each connection starts at its own offset into the shared pool.
            offset = i * len(lines) // CONNECTIONS
            mine = lines[offset:] + lines[:offset]
            theirs = wants[offset:] + wants[:offset]
            threads.append(
                threading.Thread(target=_client_loop, args=(address, mine, theirs, deadline, probes[i], results[i]))
            )
        steal.sample()
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(STEAL_SAMPLE_NS / 1e9)
                steal.sample()
        end = perf_counter_ns()
    finally:
        for probe in probes:
            probe.close()
    return {
        "start": start,
        "end": end,
        "ends": [e for r in results for e in r["ends"]],
        "latencies": [x for r in results for x in r["latencies"]],
        "failed": sum(r["failed"] for r in results) + sum(1 for r in results if "error" in r),
        "errors": [r["error"] for r in results if "error" in r],
        "probes": probes[0].merged(probes[1:]),
    }


def scaled(segments: list[dict], steal: Steal, window_ns: int, without_probes: bool) -> tuple[float, ...]:
    """Of ``segments``: operations per scaled second, p50 and p99 ns of the quiet scaled latencies, and their share.

    ``without_probes`` leaves the probes' own time out of the duration; it
    is only meaningful where one thread ran both the queries and the probes.
    """
    parts, seconds, count = [], 0.0, 0
    for seg in segments:
        scale = Scale(seg["probes"], steal, seg["start"], seg["end"], window_ns)
        seconds += scale.duration(without_probes) / 1e9
        count += len(seg["latencies"])
        parts.append((scale, seg["ends"], seg["latencies"]))
    latencies = quiet_samples(parts)
    return count / seconds, percentile(latencies, 50), percentile(latencies, 99), len(latencies) / count


def run(ctx) -> dict:
    spec = ctx.spec()
    workload = ctx.work / "history.wl"
    ctx.generate(spec, workload)
    db_dir = ctx.work / "db"
    archive = ArchiveDb(db_dir / "archive")
    model = HistoryModel()
    runs_seen: set[str] = set()
    try:
        for diff in read_workload(workload):
            archive.append_block(diff)
            model.apply(diff)
            for files in archive.run_files().values():
                runs_seen.update(files)
    finally:
        archive.close()
    model.diff_bytes = workload.stat().st_size
    queries = make_queries(model, random.Random(ctx.seed), ctx.scaled(20000, 2000))
    expected = [expected_value(model, q) for q in queries]
    lines = [request_line(q) for q in queries]
    wants = [response_line(q[0], value) for q, value in zip(queries, expected)]
    attempted = failed = 0
    layers: dict = {}

    opened = perf_counter()
    archive = ArchiveDb(db_dir / "archive")
    open_ms = (perf_counter() - opened) * 1e3
    traced_archive = tracer = reference = None
    setups, servers = [], []
    probe, steal = LocalProbe(), Steal()
    try:
        expected_hash = ctx.recorded()
        if expected_hash is not None:
            attempted += 1
            failed += archive.block_hash(model.block).hex() != expected_hash["block_hash"]
        if ctx.trace:
            tracer = Tracer(keep_every=0, per_call=tuple(f"archive.{kind}" for kind in METHODS))
            traced_archive = ArchiveDb(db_dir / "archive")
            for kind, method in METHODS.items():
                tracer.wrap(traced_archive, method, f"archive.{kind}")
        # Several cold starts of the server; the last one serves the loop.
        for _ in range(SERVER_STARTS):
            if servers:
                servers.pop().stop()
            servers.append(_Server(ctx, db_dir, probe))
            setups.append(servers[-1].setup_s)
            attempted += 1
            failed += servers[-1].first_answer != f"OK {model.block}"
        reference = ReferenceServer(ctx.env)
        local, traced_local, served = [], [], []
        for segment in range(SEGMENTS):
            # With --trace 1, every other in-process segment reads through the traced instance.
            use_traced = ctx.trace and segment % 2 == 1
            target = traced_archive if use_traced else archive
            seg = _read_loop(target, queries, expected, ctx.seconds * IN_PROCESS_SHARE / SEGMENTS, probe, steal)
            (traced_local if use_traced else local).append(seg)
            seg = _serve_loop(
                servers[-1].address, lines, wants, ctx.seconds * (1 - IN_PROCESS_SHARE) / SEGMENTS, reference, steal
            )
            served.append(seg)
        server_rss = peak_rss_mib(str(servers[-1].proc.pid))
        if ctx.trace:
            handle_ns = array("q")
            for line, want in zip(lines[: ctx.scaled(5000, 500)], wants):
                t0 = perf_counter_ns()
                got = handle_request(archive, line)
                handle_ns.append(perf_counter_ns() - t0)
                attempted += 1
                failed += got != want
            final = archive.run_files()
            entries = {table: archive.entry_count(table) for table in final}
    finally:
        for server in servers:
            server.stop()
        if reference is not None:
            reference.stop()
        archive.close()
        if traced_archive is not None:
            traced_archive.close()
    for seg in local + traced_local + served:
        attempted += len(seg["latencies"])
        failed += seg["failed"]

    local_rate, read_p50, read_p99, local_quiet = scaled(local, steal, IN_PROCESS_WINDOW_NS, without_probes=True)
    served_rate, rtt_p50, rtt_p99, served_quiet = scaled(served, steal, SERVER_WINDOW_NS, without_probes=False)
    archive_bytes = dir_bytes(db_dir / "archive")
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": served_rate,
        "op_ms_p50": rtt_p50 / 1e6,
        "op_ms_p99": rtt_p99 / 1e6,
        "read_us_p50": read_p50 / 1e3,
        "read_us_p99": read_p99 / 1e3,
        "peak_rss_mb": server_rss,
        "disk_bytes_per_user_byte": archive_bytes / model.diff_bytes,
    }
    if ctx.trace:
        traced_rate = scaled(traced_local, steal, IN_PROCESS_WINDOW_NS, without_probes=True)[0]
        handle_us = statistics.median(handle_ns) / 1e3
        layers.update(
            {
                "trace.overhead_pct": (1 - traced_rate / local_rate) * 100,
                "archive.open_ms": open_ms,
                "archive.merged_runs": len(runs_seen | {f for files in final.values() for f in files})
                - sum(len(files) for files in final.values()),
                "server.handle_us": handle_us,
                "server.transport_us": e2e["op_ms_p50"] * 1e3 - handle_us,
                "space.archive_bytes_per_diff_byte": archive_bytes / model.diff_bytes,
            }
        )
        for kind in METHODS:
            durations = sorted(tracer.durations[f"archive.{kind}"])
            layers[f"archive.{kind}_us_p50"] = percentile(durations, 50) / 1e3
            layers[f"archive.{kind}_us_p99"] = percentile(durations, 99) / 1e3
        for table, files in final.items():
            layers[f"archive.{table}.runs"] = len(files)
            layers[f"archive.{table}.entries"] = entries[table]
    detail = {
        "blocks": model.block,
        "queries_in_pool": len(queries),
        "in_process_reads": sum(len(seg["latencies"]) for seg in local),
        "served_queries": sum(len(seg["latencies"]) for seg in served),
        "client_errors": [e for seg in served for e in seg["errors"]],
        "server_setups_s": setups,
        "pace_factor_local": local[0]["probes"].factor(),
        "steal_ticks": steal.ticks[-1] - steal.ticks[0],
        "quiet_share_reads": local_quiet,
        "quiet_share_served": served_quiet,
        "pace_factor_served": served[0]["probes"].merged([seg["probes"] for seg in served[1:]]).factor(),
        "archive_bytes": archive_bytes,
        "diff_bytes": model.diff_bytes,
        "final_block_hash": model.block_hash(model.block).hex(),
    }
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
        "tracer": tracer,
        "traced_wall_ns": sum(
            seg["end"]
            - seg["start"]
            - sum(Scale(probe, steal, seg["start"], seg["end"], IN_PROCESS_WINDOW_NS).probe_ns)
            for seg in traced_local
        ),
    }
