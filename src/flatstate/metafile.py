"""``meta.json`` of both databases: canonical JSON (FORMATS.md), replaced
through a temporary file and a rename, so a crash leaves the old or the
new metadata, never a torn mix.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import CorruptionError


def write_meta(path: Path, meta: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    os.replace(tmp, path)


def read_meta(path: Path) -> dict:
    try:
        return json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise CorruptionError(f"unreadable metadata in {path}: {exc}") from exc
