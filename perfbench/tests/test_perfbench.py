"""Tests of the benchmark itself: its models against the oracle, and its output.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from flatstate import ArchiveDb, LiveDb, ReferenceOracle, WorkloadSpec, generate  # noqa: E402

import history  # noqa: E402
import pace  # noqa: E402
from models import HistoryModel, live_root_from_files  # noqa: E402

# Small, with many deletions so that reincarnation is exercised.
SMALL = WorkloadSpec(
    seed=11, blocks=60, accounts=40, txs_per_block=10, slot_writes_per_tx=4, new_key_ratio=0.3, delete_ratio=0.15
)
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def diffs():
    return list(generate(SMALL))


@pytest.fixture(scope="module")
def model(diffs):
    model = HistoryModel()
    for diff in diffs:
        model.apply(diff)
    return model


def test_history_model_matches_oracle_at_every_block(diffs, model):
    oracle = ReferenceOracle()
    for diff in diffs:
        oracle.apply_block(diff)
    addresses = {address for _, address in model.fields}
    slots = list(model.slots)
    assert model.deletions, "the spec must delete accounts"
    for block in range(len(diffs) + 1):
        for address in addresses:
            assert model.balance_at(address, block) == oracle.balance_at(address, block)
            assert model.nonce_at(address, block) == oracle.nonce_at(address, block)
            assert model.code_at(address, block) == oracle.code_at(address, block)
            assert model.exists_at(address, block) == oracle.exists_at(address, block)
        for address, key in slots:
            assert model.storage_at(address, key, block) == oracle.storage_at(address, key, block)


def test_head_reads_of_the_model_match_the_oracle_head(diffs, model):
    oracle = ReferenceOracle()
    for diff in diffs:
        oracle.apply_block(diff)
    for address, key in model.slots:
        assert model.storage_at(address, key, model.block) == oracle.storage(address, key)


def test_block_hash_chain_and_archive_reads_match_the_archive(tmp_path, diffs, model):
    archive = ArchiveDb(tmp_path / "archive")
    try:
        for diff in diffs:
            archive.append_block(diff)
        archive.flush()
        assert [archive.block_hash(b) for b in range(len(diffs) + 1)] == model.block_hashes
        queries = history.make_queries(model, random.Random(5), 2000)
        assert {q[0] for q in queries} == set(history.METHODS)
        assert history.check_in_process(archive, model, queries) == (2000, 0)
    finally:
        archive.close()


def test_root_recomputed_from_files_matches_livedb(tmp_path, diffs):
    live = LiveDb(tmp_path / "live")
    for diff in diffs:
        live.apply_block(diff)
    root = live.state_root().root
    live.close()
    assert live_root_from_files(tmp_path / "live") == root


def _pace_fixture() -> tuple[pace.Probes, pace.Steal]:
    """Three 1,000 ns windows: probes at the reference cost, then at twice it, then none; steal in the middle one."""
    probes = pace.Probes(reference_ns=100)
    for end, ns in ((200, 100), (800, 100), (1200, 200), (1800, 200)):
        probes.ends.append(end)
        probes.ns.append(ns)
    steal = pace.Steal()
    steal.times[:] = array("q", [0, 1000, 2000, 3000])
    steal.ticks[:] = array("q", [5, 5, 7, 7])
    return probes, steal


def test_pace_scale_follows_the_probes_and_carries_into_windows_without_them():
    scale = pace.Scale(*_pace_fixture(), start=0, end=3000, window_ns=1000)
    assert scale.factors == [1.0, 0.5, 0.5]
    assert scale.stolen == [0, 2, 0]
    # Windows less the probes' own time, each at its factor.
    assert scale.duration(without_probes=True) == 800 * 1.0 + 600 * 0.5 + 1000 * 0.5
    assert scale.duration(without_probes=False) == 1000 * 1.0 + 1000 * 0.5 + 1000 * 0.5


def test_quiet_samples_leave_out_windows_with_steal_unless_too_few_remain():
    scale = pace.Scale(*_pace_fixture(), start=0, end=3000, window_ns=1000)
    ends, values = [500, 1500, 2500], [10, 10, 10]
    assert pace.quiet_samples([(scale, ends, values)]) == [5.0, 10.0]
    scale.stolen = [3, 2, 1]  # steal everywhere: the least-stolen windows, up to a quarter of the samples
    assert pace.quiet_samples([(scale, ends, values)]) == [5.0]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) == 3}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert "failed_op_ratio" in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("replay-hot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
