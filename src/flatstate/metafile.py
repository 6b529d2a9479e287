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


def read_meta(path: Path, version: int, fields: tuple[str, ...]) -> dict:
    """The metadata in ``path``; CorruptionError unless it is a JSON object
    of format ``version`` that holds every one of ``fields``."""
    try:
        meta = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise CorruptionError(f"unreadable metadata in {path}: {exc}") from exc
    require(meta, path, ("format",))
    if meta["format"] != version:
        raise CorruptionError(f"unsupported metadata format in {path}: {meta['format']!r}")
    require(meta, path, fields)
    return meta


def require(record, path: Path, fields: tuple[str, ...]) -> None:
    """Raise CorruptionError naming ``path`` and the first of ``fields`` that
    the JSON object ``record`` lacks."""
    if not isinstance(record, dict):
        raise CorruptionError(f"metadata in {path} holds {record!r} where an object belongs")
    for name in fields:
        if name not in record:
            raise CorruptionError(f"metadata in {path} lacks field {name!r}")
