"""Command line harness: generate, replay, measure, sweep, serve."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, workload
from .archive import ArchiveDb
from .errors import FlatStateError
from .server import QueryServer


def cmd_gen(args) -> int:
    spec = workload.WorkloadSpec(
        seed=args.seed,
        blocks=args.blocks,
        accounts=args.accounts,
        txs_per_block=args.txs_per_block,
        slot_writes_per_tx=args.slot_writes_per_tx,
        new_key_ratio=args.new_key_ratio,
        delete_ratio=args.delete_ratio,
    )
    blocks = workload.write_workload(Path(args.out), spec)
    print(f"wrote {blocks} blocks to {args.out}")
    return 0


def cmd_replay(args) -> int:
    summary = bench.replay_workload(
        Path(args.workload),
        Path(args.db_dir),
        archive_mode=args.archive,
        page_size=args.page_size,
        sample_every=args.sample_every,
    )
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    bench.write_samples_csv(out, summary.samples)
    if args.out:
        out.close()
    print(f"replayed {summary.blocks} blocks in {summary.elapsed:.2f}s", file=sys.stderr)
    print(f"final root 0x{summary.final_root.hex()}", file=sys.stderr)
    return 0


def cmd_du(args) -> int:
    db_dir = Path(args.db_dir)
    total = 0
    for section in ("live", "archive"):
        section_dir = db_dir / section
        section_total = 0
        for name, size in bench.directory_sizes(section_dir):
            print(f"{section},{name},{size}")
            section_total += size
        print(f"{section},total,{section_total}")
        total += section_total
    print(f"all,total,{total}")
    return 0


def cmd_sweep(args) -> int:
    page_sizes = [int(size) for size in args.page_sizes.split(",")]
    keys = args.keys
    if keys is None and args.workload:
        spec = workload.read_spec(Path(args.workload))
        keys = max(1, spec.accounts * spec.txs_per_block * spec.slot_writes_per_tx)
    if keys is None:
        keys = 160_000
    if args.mode == "memory":
        rows = bench.sweep_memory(page_sizes, keys=keys, hot_set=args.hot_set, rounds=args.rounds)
    else:
        rows = bench.sweep_io(
            page_sizes,
            data_dir=Path(args.db_dir),
            keys=keys,
            hot_set=args.hot_set,
            rounds=args.rounds,
            cache_budget=args.cache_budget,
        )
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    bench.write_sweep_csv(out, rows)
    if args.out:
        out.close()
    return 0


def cmd_serve(args) -> int:
    host, _, port = args.listen.rpartition(":")
    archive = ArchiveDb(Path(args.db_dir) / "archive")
    server = QueryServer(archive, (host or "127.0.0.1", int(port)))
    print(f"serving archive queries on {server.address[0]}:{server.address[1]}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        archive.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flatstate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic synthetic workload file")
    gen.add_argument("out", help="output workload file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--blocks", type=int, default=100)
    gen.add_argument("--accounts", type=int, default=1000)
    gen.add_argument("--txs-per-block", type=int, default=10)
    gen.add_argument("--slot-writes-per-tx", type=int, default=5)
    gen.add_argument("--new-key-ratio", type=float, default=0.3)
    gen.add_argument("--delete-ratio", type=float, default=0.02)
    gen.set_defaults(func=cmd_gen)

    replay = sub.add_parser("replay", help="replay a workload through the live database")
    replay.add_argument("workload", help="workload file from gen")
    replay.add_argument("--db-dir", required=True)
    replay.add_argument("--archive", choices=("none", "custom"), default="none")
    replay.add_argument("--page-size", type=int, default=4096)
    replay.add_argument("--sample-every", type=int, default=0, metavar="N")
    replay.add_argument("--out", help="write the sample CSV here instead of stdout")
    replay.set_defaults(func=cmd_replay)

    du = sub.add_parser("du", help="report per-file and total sizes of a database directory")
    du.add_argument("--db-dir", required=True)
    du.set_defaults(func=cmd_du)

    sweep = sub.add_parser("sweep", help="page-size sweep microbenchmark")
    sweep.add_argument("workload", nargs="?", help="optional workload file used as a scale hint")
    sweep.add_argument("--page-sizes", default="256,512,1024,2048,4096,8192,16384,32768,65536")
    sweep.add_argument("--mode", choices=("memory", "io"), default="memory")
    sweep.add_argument("--keys", type=int, default=None)
    sweep.add_argument("--hot-set", type=int, default=100)
    sweep.add_argument("--rounds", type=int, default=5)
    sweep.add_argument("--cache-budget", type=int, default=1 << 22, help="io mode page cache budget in bytes")
    sweep.add_argument("--db-dir", default="sweep-io-data", help="io mode scratch directory")
    sweep.add_argument("--out", help="write the CSV here instead of stdout")
    sweep.set_defaults(func=cmd_sweep)

    serve = sub.add_parser("serve", help="serve read-only historical queries from an archive")
    serve.add_argument("--db-dir", required=True)
    serve.add_argument("--listen", default="127.0.0.1:7788", metavar="HOST:PORT")
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FlatStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
