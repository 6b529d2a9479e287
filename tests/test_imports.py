"""Package imports: lazy exports, and a serving process that loads only the archive side, no socketserver and no dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import flatstate

SRC = Path(flatstate.__file__).resolve().parent.parent
LIVE_SIDE = ("livedb", "index", "store", "hashtree", "pagepool", "oracle", "workload", "bench")

# Run in a fresh interpreter, so no module another test imported is loaded yet.
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


def test_serving_side_imports_no_livedb_module_and_exports_resolve_lazily():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", CHECK, *LIVE_SIDE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"

