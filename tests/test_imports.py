"""Package imports: lazy exports, a serving process that loads only the archive side, no socketserver and no
dataclasses, and an archive that is only read, which starts no thread and loads no executor. Also one source scan:
only the workload decoder builds updates through the constructor that skips the layout-proven checks."""

import re

from flatstate.archive import ArchiveDb
from flatstate.types import AccountUpdate, BlockDiff

from util import SRC, run_fresh
LIVE_SIDE = ("livedb", "index", "store", "hashtree", "pagepool", "oracle", "workload", "bench")

CHECK = """
import sys

import flatstate.cli, flatstate.server

live_side = sys.argv[1:]
loaded = [name for name in live_side if "flatstate." + name in sys.modules]
assert not loaded, f"the serving side loaded {loaded}"
assert "socketserver" not in sys.modules, "the serving side loaded socketserver"
assert "dataclasses" not in sys.modules, "the serving side loaded dataclasses"

import flatstate

namespace = {}
exec("from flatstate import *", namespace)
unbound = [name for name in flatstate.__all__ if name not in namespace]
assert not unbound, f"star import left {unbound} unbound"
unlisted = sorted(set(flatstate.__all__) - set(dir(flatstate)))
assert not unlisted, f"dir() does not list {unlisted}"
try:
    flatstate.NoSuchName
except AttributeError as exc:
    assert "NoSuchName" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


# Open the archive at argv[1], ask one query of each kind and close it, checking the thread count at each step.
READ_ONLY = """
import sys
import threading

from flatstate.archive import ArchiveDb

assert threading.active_count() == 1
archive = ArchiveDb(sys.argv[1])
address = bytes.fromhex(sys.argv[2])
answers = [
    archive.get_storage_at(address, bytes(32), 1),
    archive.get_balance_at(address, 1),
    archive.get_nonce_at(address, 1),
    archive.get_code_at(address, 1),
    archive.account_exists_at(address, 1),
    archive.block_hash(1),
    archive.account_hash(address, 1),
]
assert threading.active_count() == 1, threading.enumerate()
archive.close()
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules, "reading the archive loaded concurrent.futures"
print(answers[1], answers[3].hex())
"""


def test_serving_side_imports_no_livedb_module_and_exports_resolve_lazily():
    result = run_fresh(CHECK, *LIVE_SIDE)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_an_archive_only_read_runs_no_thread_and_loads_no_executor(tmp_path):
    address = bytes(range(20))
    archive = ArchiveDb(tmp_path / "archive")
    archive.append_block(BlockDiff(1, (AccountUpdate(address, created=True, balance=7, code=b"\x60\x00"),)))
    archive.close()
    result = run_fresh(READ_ONLY, str(tmp_path / "archive"), address.hex())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "7 6000\n"


def test_only_the_workload_decoder_calls_the_narrow_update_constructor():
    # AccountUpdate._decoded trusts widths, types and ranges that only the stream layout proves.
    users = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if re.search(r"\b_decoded\b", path.read_text().replace("def _decoded(", ""))
    )
    assert users == ["flatstate/workload.py"]
