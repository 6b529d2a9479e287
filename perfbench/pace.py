"""Host pace: timings scaled by probes of fixed reference work run beside them.

The shared host the benchmark was tuned on runs the same code up to about
1.75 times slower at some moments than at others. The slow stretches last
from milliseconds to minutes, and it is not stolen time (thread CPU time
slows with wall time), so no counter shows it and two runs of the same
code can read 1.7x apart. So every timed loop interleaves short probes of
fixed reference work with the program's operations, and each timing is
scaled by ``reference / probe``, the probe's mean cost in a 50-100 ms
window around it: it reads as if the host had run at the pace at which
the reference was taken. The probes run none of the program's code, so a
change to the program moves a scaled timing as it moves the raw one at a
fixed pace. Means, not medians, of the probes are used, because within a
window the host flips between its paces and a mean follows the share of
slow moments where a median jumps.

There are two probes because the two kinds of path slow by different
amounts when the host slows:

* ``LocalProbe`` is one pure-Python binary search over a 14 MB table in
  this process, the kind of work the in-process paths do (floor searches,
  record slicing, dict lookups). Between stretches of the tuning host it
  slowed 1.72x where in-process ArchiveDb reads slowed 1.77x and replay
  blocks 1.63x.
* ``ServedProbe`` is one round trip to a reference line server in a child
  process: the same kind of socket, thread and Python handler work as a
  ``flatstate serve`` query, which slowed only 1.32x there, so the local
  probe would overcorrect it.

Scaling cannot undo stolen time: at times the hypervisor takes the
host's CPUs away for milliseconds (the steal column of ``/proc/stat``
counts it), and on the tuning host such windows held nearly all of the
served round trips above the p99 (p99 1.1-2.9 ms in them against
0.7-0.8 ms in windows without steal, with the same p50). So the loops
sample the steal counter every ``STEAL_SAMPLE_NS``, and latency
percentiles are taken only over the windows without steal
(``quiet_samples``), or, when those hold less than ``QUIET_SHARE`` of
the samples, over the windows with the least.

Run ``python3 perfbench/pace.py serve`` to start the reference server by
hand; it prints ``port <n>`` and answers each ``<i>`` line with ``OK <j>``.
"""

from __future__ import annotations

import random
import signal
import socket
import socketserver
import subprocess
import sys
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter_ns

ENTRY = 72  # bytes per table entry, like an archive storage entry
ENTRIES = 200_000
KEYS = 1024
SERVER_SEARCHES = 10  # searches per reference server request
TRIM = 0.1  # share of the slowest probes of a window left out of its mean (preemptions)
STEAL_SAMPLE_NS = 25_000_000
QUIET_SHARE = 0.25  # least share of a run's samples that its percentiles are taken over

# Probe costs of the order seen on the tuning host (Intel Xeon, 2 vCPUs,
# Python 3.11) beside the workloads; they only set the unit of a scaled time.
LOCAL_REFERENCE_NS = 5_000
SERVED_REFERENCE_NS = 150_000


def _table(seed: int) -> tuple[bytearray, list[bytes]]:
    """A table of random entries, filled in pieces so that building it needs no second copy."""
    rng = random.Random(seed)
    table = bytearray(ENTRY * ENTRIES)
    piece = ENTRY * 1000
    for at in range(0, len(table), piece):
        table[at : at + piece] = rng.randbytes(piece)
    return table, [rng.randbytes(40) for _ in range(KEYS)]


def _search(table: bytearray, key: bytes) -> int:
    """Index of the first entry of ``table`` above ``key``, by binary search."""
    lo, hi = 0, ENTRIES
    while lo < hi:
        mid = (lo + hi) // 2
        if table[mid * ENTRY : (mid + 1) * ENTRY] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class Probes:
    """Probe samples of one kind: end time and cost, in ns."""

    def __init__(self, reference_ns: int):
        self.reference_ns = reference_ns
        self.ends = array("q")
        self.ns = array("q")

    def merged(self, others: list[Probes]) -> Probes:
        """These samples and those of ``others`` in one time-ordered set."""
        merged = Probes(self.reference_ns)
        for end, ns in sorted(pair for p in [self, *others] for pair in zip(p.ends, p.ns)):
            merged.ends.append(end)
            merged.ns.append(ns)
        return merged

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """``reference / probe`` over samples ``lo:hi``, from their mean without the slowest ``TRIM``."""
        samples = sorted(self.ns[lo:hi])
        kept = samples[: len(samples) - int(len(samples) * TRIM)]
        return self.reference_ns * len(kept) / sum(kept)


class LocalProbe(Probes):
    """One search of a fixed table in this process per call."""

    def __init__(self):
        super().__init__(LOCAL_REFERENCE_NS)
        self._table, self._keys = _table(1)
        self._next = 0
        self.table_mib = len(self._table) / 2**20  # resident in this process while it lives

    def __call__(self) -> None:
        key = self._keys[self._next % KEYS]
        self._next += 1
        t0 = perf_counter_ns()
        _search(self._table, key)
        end = perf_counter_ns()
        self.ends.append(end)
        self.ns.append(end - t0)

    def now(self, count: int = 64) -> float:
        """Scale factor of this moment, from ``count`` probes run now."""
        first = len(self.ns)
        for _ in range(count):
            self()
        return self.factor(first)


class ReferenceServer:
    """The reference line server, run as a child process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "serve"],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            # A parent started in the background may ignore SIGINT; the server
            # must not inherit that, since SIGINT is how it is stopped.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError(f"reference server did not start: {line!r}")
            self.port = int(line.split()[1])
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
        self.proc.stdout.close()


class ServedProbe(Probes):
    """One round trip to the reference server per call, on a connection of its own."""

    def __init__(self, server: ReferenceServer):
        super().__init__(SERVED_REFERENCE_NS)
        self._sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        self._file = self._sock.makefile("rwb")
        self._next = 0

    def __call__(self) -> None:
        t0 = perf_counter_ns()
        self._file.write(b"%d\n" % self._next)
        self._file.flush()
        answer = self._file.readline()
        end = perf_counter_ns()
        if not answer.startswith(b"OK "):
            raise ConnectionError(f"reference server answered {answer!r}")
        self._next += 1
        self.ends.append(end)
        self.ns.append(end - t0)

    def close(self) -> None:
        self._file.close()
        self._sock.close()


def steal_ticks() -> int:
    """CPU time the hypervisor has taken from this machine since boot, in clock ticks."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8])


class Steal:
    """The machine's steal counter, sampled over time."""

    def __init__(self):
        self.times = array("q")
        self.ticks = array("q")
        self.sample()

    def sample(self) -> None:
        self.ticks.append(steal_ticks())
        self.times.append(perf_counter_ns())

    def tick(self) -> None:
        """Sample if the last sample is ``STEAL_SAMPLE_NS`` old; cheap enough to call after every operation."""
        if perf_counter_ns() - self.times[-1] >= STEAL_SAMPLE_NS:
            self.sample()

    def between(self, start: int, end: int) -> int:
        """Ticks counted from the last sample at or before ``start`` to the first at or after ``end``."""
        lo = max(bisect_right(self.times, start) - 1, 0)
        hi = min(bisect_left(self.times, end), len(self.times) - 1)
        return self.ticks[hi] - self.ticks[lo]


class Scale:
    """Scale factors and steal over one timed stretch ``[start, end)``, per window of ``window_ns``.

    A window's factor comes from the probes that ended in it; a window
    without probes (such as a final flush) takes the factor of the last
    window before it that had some, or of the first one after it.
    """

    def __init__(self, probes: Probes, steal: Steal, start: int, end: int, window_ns: int):
        self.start, self.end, self.window_ns = start, end, window_ns
        count = max(1, -(-(end - start) // window_ns))
        factors: list[float | None] = [None] * count
        self.probe_ns = [0] * count
        self.stolen = [
            steal.between(start + w * window_ns, min(end, start + (w + 1) * window_ns)) for w in range(count)
        ]
        lo = bisect_left(probes.ends, start)
        for w in range(count):
            hi = bisect_right(probes.ends, min(end, start + (w + 1) * window_ns))
            if hi > lo:
                factors[w] = probes.factor(lo, hi)
                self.probe_ns[w] = sum(probes.ns[lo:hi])
            lo = hi
        known = [f for f in factors if f is not None]
        if not known:
            raise RuntimeError("no probe ran in a timed stretch")
        last = known[0]
        for w, f in enumerate(factors):
            last = factors[w] = f if f is not None else last
        self.factors: list[float] = factors

    def window(self, t: int) -> int:
        """Index of the window holding time ``t``."""
        return min(max((t - self.start) // self.window_ns, 0), len(self.factors) - 1)

    def duration(self, without_probes: bool) -> float:
        """Scaled length of the stretch in ns, less the probes' own time if ``without_probes``."""
        total = 0.0
        for w, f in enumerate(self.factors):
            lo = self.start + w * self.window_ns
            length = min(self.end, lo + self.window_ns) - lo
            total += (length - (self.probe_ns[w] if without_probes else 0)) * f
        return total


def quiet_samples(parts: list[tuple[Scale, list[int], list[int]]]) -> list[float]:
    """Ascending scaled samples from the windows least touched by steal.

    ``parts`` holds one ``(scale, end times, raw ns)`` per timed stretch.
    Every window without steal is kept; if those hold less than
    ``QUIET_SHARE`` of the samples, the windows with the least steal are
    added, earliest first, until they do.
    """
    windows: dict[tuple[int, int], list[float]] = {}
    for i, (scale, ends, values) in enumerate(parts):
        for end, ns in zip(ends, values):
            w = scale.window(end)
            windows.setdefault((i, w), []).append(ns * scale.factors[w])
    total = sum(len(samples) for samples in windows.values())
    kept: list[float] = []
    for i, w in sorted(windows, key=lambda key: (parts[key[0]][0].stolen[key[1]], key)):
        if parts[i][0].stolen[w] and len(kept) >= QUIET_SHARE * total:
            break
        kept.extend(windows[i, w])
    kept.sort()
    return kept


def _serve() -> None:
    table, keys = _table(2)

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            while True:
                line = self.rfile.readline()
                if not line:
                    return
                i = int(line)
                found = 0
                for k in range(SERVER_SEARCHES):
                    found = _search(table, keys[(i + k) % KEYS])
                self.wfile.write(b"OK %d\n" % found)
                self.wfile.flush()

    class Server(socketserver.ThreadingTCPServer):
        daemon_threads = True

    with Server(("127.0.0.1", 0), Handler) as server:
        print(f"port {server.server_address[1]}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass


if __name__ == "__main__":
    if sys.argv[1:] != ["serve"]:
        sys.exit("usage: pace.py serve")
    _serve()
