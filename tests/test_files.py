"""The one disk seam: only ``files.py`` reads, writes and replaces files, and every OSError becomes a StorageError;
and one write path per database: one commit site each, and one record writer in the stores."""

import ast
import json
from pathlib import Path

import pytest

import flatstate
from flatstate import bench
from flatstate.cli import main
from flatstate.errors import StorageError
from flatstate.store import RecordStore
from flatstate.workload import WorkloadSpec, write_workload

DATABASE_MODULES = ("pagepool", "store", "hashtree", "index", "livedb", "archive")
OS_CALLS = {"pread", "preadv", "pwrite", "pwritev", "ftruncate", "truncate", "replace", "rename", "open", "fstat", "unlink"}
PATH_CALLS = {"read_bytes", "read_text", "write_bytes", "write_text", "unlink"}


def disk_calls(module: str) -> set[tuple[str, str, str]]:
    """(module, enclosing function, call) of every file access ``module`` makes itself."""
    tree = ast.parse((Path(flatstate.__file__).parent / f"{module}.py").read_text())
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.add((module, function, "open"))
            elif isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name) and func.value.id == "os" and func.attr in OS_CALLS:
                    found.add((module, function, f"os.{func.attr}"))
                elif func.attr in PATH_CALLS:
                    found.add((module, function, f".{func.attr}"))
        if isinstance(node, ast.ImportFrom) and node.module == "os":  # a renamed os.pwrite would pass unseen
            found.add((module, function, "from os import"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_files_py_touches_the_disk():
    found = set().union(*(disk_calls(module) for module in DATABASE_MODULES))
    assert found == set()
    seam = {call for _, _, call in disk_calls("files")}
    assert {"open", "os.open", "os.fstat", "os.pread", "os.preadv", "os.pwrite", "os.ftruncate", "os.replace", ".unlink", ".read_bytes"} <= seam


def test_each_database_decides_new_or_existing_once():
    """The only existence checks: meta.json of each database and HashTree's rebuild of a missing node file."""
    counts = {}
    for module in DATABASE_MODULES:
        tree = ast.parse((Path(flatstate.__file__).parent / f"{module}.py").read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
        counts[module] = sum(call.func.attr in ("exists", "is_file", "listdir") for call in calls)
    assert counts == {"pagepool": 0, "store": 0, "hashtree": 1, "index": 0, "livedb": 1, "archive": 1}


def functions_that(module: str, does) -> set[str]:
    """Names of the functions of ``module`` holding a node for which ``does(node)`` is true."""
    tree = ast.parse((Path(flatstate.__file__).parent / f"{module}.py").read_text())
    return {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(does(node) for node in ast.walk(function))
    }


def calls(*names):
    """A test for calls of any of ``names``, plain (``write_meta(``) or as an attribute (``.publish(``)."""

    def does(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names

    return does


def places_a_record(node) -> bool:
    """A call that adds a page or takes one to write, a write into a page slice, or a change of the record count."""
    if calls("append_page", "write_page")(node):
        return True
    if isinstance(node, ast.Assign):
        return any(isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Slice) for target in node.targets)
    return isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute) and node.target.attr == "count"


LIVE_MODULES = ("pagepool", "store", "index", "hashtree", "livedb")
WRITERS = ("pwrite", "write_file", "write_meta", "truncate", "remove", "commit")  # every files.py function that writes


def test_one_commit_site_and_one_record_writer():
    """A second commit site, record writer or store constructor cannot return unseen.

    One writer per archive commit: only ``ArchiveDb._commit`` calls a
    ``files.py`` writer (``files.commit`` for the batch's or merge's list,
    ``meta.json`` last, then ``remove`` for a merge's victims), but for a
    new archive's block-0 hash in ``__init__``, which alone opens a data
    file, and the first batch's cut of a torn code-blob tail. ``_commit``
    alone maps and publishes a run besides the open; only ``set_many``
    places records, and a RecordStore is built only by its constructor. One
    writer per LiveDb commit: of the LiveDb modules only ``LiveDb.flush``
    calls a ``files.py`` writer (``files.commit``, which applies the
    commit's list), so no read, eviction, store, index or tree writes a
    LiveDb file; outside them only ``bench.sweep_io`` does, through the same
    ``files.commit``.
    """
    archive_writers = {writer: functions_that("archive", calls(writer)) for writer in WRITERS}
    assert archive_writers == {
        **{writer: set() for writer in WRITERS},
        "commit": {"_commit"},
        "remove": {"_commit"},
        "pwrite": {"__init__"},
        "truncate": {"_process_batch"},
    }
    assert functions_that("archive", calls("open_data")) == {"__init__"}
    assert functions_that("archive", calls("publish")) == {"_commit", "_load_meta"}
    assert functions_that("archive", calls("map_run")) == {"_commit", "_load_meta"}
    assert not hasattr(RecordStore, "open")
    assert functions_that("store", places_a_record) == {"set_many"}
    writers = {module: functions_that(module, calls(*WRITERS)) for module in (*LIVE_MODULES, "bench")}
    assert writers == {**{module: set() for module in LIVE_MODULES}, "livedb": {"flush"}, "bench": {"sweep_io"}}


def test_the_page_cache_opens_every_livedb_file_and_only_a_commit_appends_code():
    """Only ``PageCache.open`` opens a LiveDb data file, so its ``close`` closes all eleven; code bodies reach
    ``codes.blob`` only at a commit, since the stores write no file (``test_one_commit_site_and_one_record_writer``)."""
    openers = {module: functions_that(module, calls("open_data")) for module in LIVE_MODULES}
    assert openers == {module: {"open"} if module == "pagepool" else set() for module in LIVE_MODULES}


def test_only_pagepool_names_the_resident_pages_and_page_tables():
    """The page tables stay in step with the resident pages in one module: of the modules that import a page cache,
    directly or not, only ``pagepool`` names ``_pages``, ``_dirty``, ``_table`` or ``_tables`` (the archive, which
    imports none, keeps its run tables in a ``_tables`` of its own)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(flatstate.__file__).parent.glob("*.py")}
    imports = {
        name: {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}
        for name, tree in trees.items()
    }
    reach = {"pagepool"}
    while grown := {name for name, used in imports.items() if used & reach} - reach:
        reach |= grown
    internals = {"_pages", "_dirty", "_table", "_tables"}
    named = {name for name, tree in trees.items() if any(getattr(node, "attr", None) in internals for node in ast.walk(tree))}
    assert reach >= {"store", "index", "livedb", "bench"}
    assert named & reach == {"pagepool"}


SPEC = WorkloadSpec(seed=5, blocks=20, accounts=40, txs_per_block=4, slot_writes_per_tx=2, new_key_ratio=0.4, delete_ratio=0.05)


RUN = "first balance run"
# (database, file, whether the database exists first). A directory takes the file's place;
# the run file becomes a symlink loop instead, since a directory there opens and fails the size check.
CASES = {
    "tree-file": ("live", "balances.tree", True),
    "live-meta": ("live", "meta.json", True),
    "live-meta-tmp": ("live", "meta.tmp", False),
    "archive-meta-tmp": ("archive", "meta.tmp", False),
    "run-file": ("archive", RUN, True),
}


@pytest.mark.parametrize("case", CASES)
def test_os_errors_are_storage_errors_and_replay_reports_them(tmp_path, capsys, case):
    section, name, existing = CASES[case]
    workload = tmp_path / "w.wl"
    write_workload(workload, SPEC)

    def broken(db_dir: Path) -> Path:
        if existing:
            bench.replay_workload(workload, db_dir, archive_mode="custom")
        if name == RUN:
            path = db_dir / section / json.loads((db_dir / section / "meta.json").read_text())["tables"]["balance"][0]["file"]
            path.unlink()
            path.symlink_to(path.name)  # opening it fails with ELOOP, not with a missing file
        else:
            path = db_dir / section / name
            path.unlink(missing_ok=True)
            path.mkdir(parents=True)
        return path

    path = broken(tmp_path / "library")
    with pytest.raises(StorageError) as failure:
        bench.replay_workload(workload, tmp_path / "library", archive_mode="custom")
    assert Path(failure.value.path) == path
    path = broken(tmp_path / "cli")
    assert main(["replay", str(workload), "--db-dir", str(tmp_path / "cli"), "--archive", "custom"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
