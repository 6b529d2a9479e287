"""Host facts and process counters read from outside the program."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import ssl
import statistics
from pathlib import Path
from time import perf_counter_ns


def sha256_ns(size: int, calls: int) -> float:
    """Median cost of one ``hashlib.sha256(...).digest()`` call at ``size`` bytes."""
    data = os.urandom(size)
    sha = hashlib.sha256
    samples = []
    for _ in range(5):
        start = perf_counter_ns()
        for _ in range(calls):
            sha(data).digest()
        samples.append((perf_counter_ns() - start) / calls)
    return statistics.median(samples)


def host_facts() -> dict:
    major, minor, patch = map(int, re.search(r"(\d+)\.(\d+)\.(\d+)", ssl.OPENSSL_VERSION).groups())
    return {
        "sha256_64B_ns": sha256_ns(64, 20000),
        "sha256_4KiB_ns": sha256_ns(4096, 2000),
        "python": platform.python_version(),
        "openssl": ssl.OPENSSL_VERSION,
        "nproc": os.cpu_count() or 1,
        # Numeric forms for the metric line: 3.11.7 -> 311, 3.0.19 -> 30019.
        "python_code": int(platform.python_version_tuple()[0]) * 100 + int(platform.python_version_tuple()[1]),
        "openssl_code": major * 10000 + minor * 100 + patch,
    }


def proc_io() -> dict[str, int]:
    """This process's I/O counters: rchar, wchar, syscr, syscw, read_bytes, write_bytes, ..."""
    fields = {}
    for line in Path("/proc/self/io").read_text().splitlines():
        name, _, value = line.partition(":")
        fields[name] = int(value)
    return fields


def peak_rss_mib(pid: str = "self") -> float:
    """VmHWM, the peak resident set size of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q / 100 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]
