"""The flatstate benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload replay-hot --seed 2002 --seconds 12 --trace 0

It builds inputs from ``--seed``, measures for about ``--seconds``, checks
every answer against the models in ``models.py``, prints one line per
metric (name, value, unit), writes the full result to
``.perfbench_out/``, and prints as its last line a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run. See README.md in this
directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Traffic of each workload. Every workload runs the library's default
# configuration (4 KiB pages, 1,024-page pools, 65,536-entry key caches,
# ArchiveConfig()); they differ only here.
SPECS = {
    "replay-hot": dict(
        blocks=1500, accounts=3000, txs_per_block=30, slot_writes_per_tx=8, new_key_ratio=0.05, delete_ratio=0.04
    ),
    "replay-cold": dict(
        blocks=1000, accounts=100000, txs_per_block=30, slot_writes_per_tx=8, new_key_ratio=0.8, delete_ratio=0.04
    ),
    "history-query": dict(
        blocks=1000, accounts=3000, txs_per_block=30, slot_writes_per_tx=8, new_key_ratio=0.35, delete_ratio=0.04
    ),
}
TINY_BLOCKS = 30

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("read_us_p50", "us"),
    ("read_us_p99", "us"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_user_byte", "ratio"),
)

TABLES = ("storage", "balance", "nonce", "code", "state", "accthash")
QUERY_KINDS = ("storage", "balance", "nonce", "code", "exists", "blockhash")
SHARE_LAYERS = ("bench", "workload", "livedb", "index", "pagepool", "store", "hashtree", "archive")

PER_LAYER = (
    ("host.sha256_64B_ns", "ns/call"),
    ("host.sha256_4KiB_ns", "ns/call"),
    ("host.python", "version"),
    ("host.openssl", "version"),
    ("host.nproc", "count"),
    ("trace.overhead_pct", "%"),
    *((f"{layer}.self_pct", "%") for layer in SHARE_LAYERS),
    ("workload.decode_us", "us/block"),
    ("livedb.read_us", "us/call"),
    ("livedb.apply_block_us", "us/call"),
    ("livedb.state_root_us", "us/call"),
    ("cache.hit_ratio", "ratio"),
    ("index.get_or_add.calls", "1/block"),
    ("index.get_or_add.us", "us/call"),
    ("index.get.calls", "1/block"),
    ("index.get.us", "us/call"),
    ("index.pages_per_lookup", "pages/call"),
    ("index.overflow_pages", "pages"),
    ("pagepool.get_page.calls", "1/block"),
    ("pagepool.get_page.us", "us/call"),
    ("pagepool.resident_pages", "pages"),
    ("io.read_bytes", "B/block"),
    ("io.write_bytes", "B/block"),
    ("io.read_syscalls", "1/block"),
    ("io.write_syscalls", "1/block"),
    ("io.write_bytes_per_user_byte", "ratio"),
    ("store.set.calls", "1/block"),
    ("store.set.us", "us/call"),
    ("store.get.us", "us/call"),
    ("store.flush_ms", "ms/round"),
    ("hashtree.root.calls", "1/block"),
    ("hashtree.root.us", "us/call"),
    ("digest.calls_per_block", "1/block"),
    ("archive.append_us_p50", "us/call"),
    ("archive.append_us_p99", "us/call"),
    ("archive.publish_lag_ms_p50", "ms/block"),
    ("archive.publish_lag_ms_p99", "ms/block"),
    ("archive.drain_ms", "ms/round"),
    *((f"archive.{table}.{what}", "count") for table in TABLES for what in ("runs", "entries")),
    ("archive.merged_runs", "count"),
    ("archive.open_ms", "ms/open"),
    *((f"archive.{kind}_us_{q}", "us/call") for kind in QUERY_KINDS for q in ("p50", "p99")),
    ("server.handle_us", "us/call"),
    ("server.transport_us", "us/call"),
    ("space.live_bytes_per_state_byte", "ratio"),
    ("space.archive_bytes_per_diff_byte", "ratio"),
)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    work: Path
    env: dict = field(default_factory=dict)

    def spec(self) -> dict:
        spec = dict(SPECS[self.workload])
        if self.tiny:
            spec["blocks"] = TINY_BLOCKS
        return spec

    def recorded(self) -> dict | None:
        """The result recorded in expected.json for this workload, if it ran at this seed and size."""
        entry = json.loads((HERE / "expected.json").read_text()).get(self.workload)
        if entry and not self.tiny and entry["seed"] == self.seed and entry["blocks"] == SPECS[self.workload]["blocks"]:
            return entry
        return None

    def scaled(self, full: int, tiny: int) -> int:
        return tiny if self.tiny else full

    def generate(self, spec: dict, path: Path) -> None:
        """Write the workload file with the program's own ``gen`` command."""
        args = [sys.executable, "-m", "flatstate", "gen", str(path), "--seed", str(self.seed)]
        for key, value in spec.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        subprocess.run(args, env=self.env, check=True, stdout=subprocess.DEVNULL, timeout=170)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist the package comes from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import flatstate

    if Path(flatstate.__file__).resolve().parent != (src / "flatstate").resolve():
        raise ImportError(f"flatstate imported from {flatstate.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="run at a tiny size (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from this checkout: {exc}", file=sys.stderr)
        return 2

    import host
    import history
    import replay

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, work, env)
    try:
        facts = host.host_facts()
        runner = history.run if args.workload == "history-query" else replay.run
        result = runner(ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update(
        {
            "host.sha256_64B_ns": facts["sha256_64B_ns"],
            "host.sha256_4KiB_ns": facts["sha256_4KiB_ns"],
            "host.python": facts["python_code"],
            "host.openssl": facts["openssl_code"],
            "host.nproc": facts["nproc"],
        }
    )
    unknown = set(result["layers"]) - set(layers)
    if unknown:
        raise KeyError(f"workload reported undeclared per-layer metrics {sorted(unknown)}")
    layers.update(result["layers"])
    tracer = result["tracer"]
    if tracer is not None:
        for layer in SHARE_LAYERS:
            layers[f"{layer}.self_pct"] = tracer.layer_self_ns(layer) / result["traced_wall_ns"] * 100
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else result["e2e"]
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in chosen}

    attempted, failed = result["attempted"], result["failed"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec": ctx.spec(),
        "host": facts,
        "end_to_end": result["e2e"],
        "per_layer": layers if args.trace else None,
        "attempted": attempted,
        "failed": failed,
        "failed_op_ratio": failed / attempted,
        "detail": result["detail"],
    }
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None and tracer.spans:
        tracer.write_spans(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")

    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_op_ratio':36s} {failed / attempted:>16.6g} ratio  ({failed} of {attempted})")
    print(f"python {facts['python']}, {facts['openssl']}, nproc {facts['nproc']}; full result in {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
