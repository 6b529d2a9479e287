"""Every disk access of both databases.

Data files are opened unbuffered and moved by positional reads and
writes only. A database decides once, from its ``meta.json``, whether it
is new: a new one creates its data files, truncating whatever an
uncommitted first attempt left behind; an existing one opens them as
they are, and a missing file is corruption. ``meta.json`` is canonical
JSON (FORMATS.md), replaced through a temporary file and a rename, so a
crash leaves the old or the new metadata, never a torn mix. Every
``OSError`` becomes a ``StorageError`` that names the file and offset,
as does a positional access to a file its database has closed.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path

from .errors import CorruptionError, StorageError


def open_data(path: Path, *, create: bool):
    """``path`` opened for positional I/O: created empty when ``create``, else required to exist."""
    try:
        return open(path, "w+b" if create else "r+b", buffering=0)
    except OSError as exc:
        if not create and isinstance(exc, FileNotFoundError):
            raise CorruptionError(f"{path} is missing from an existing database") from exc
        raise StorageError(f"cannot open: {exc}", path=path) from exc


def map_file(path: Path) -> mmap.mmap:
    """All of ``path`` mapped read-only through a bare descriptor; a missing or empty file is corruption."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            if os.fstat(fd).st_size == 0:  # which mmap refuses
                raise CorruptionError(f"{path} is empty")
            return mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
    except FileNotFoundError as exc:
        raise CorruptionError(f"{path} is missing from an existing database") from exc
    except OSError as exc:
        raise StorageError(f"cannot map: {exc}", path=path) from exc


def _fd(fh) -> int:
    """The descriptor of ``fh``; a file its database closed raises StorageError, not ValueError."""
    try:
        return fh.fileno()
    except ValueError as exc:
        raise StorageError("file is closed", path=fh.name) from exc


def pread(fh, length: int, offset: int) -> bytes:
    """Up to ``length`` bytes at ``offset``; fewer at the end of the file."""
    try:
        return os.pread(_fd(fh), length, offset)
    except OSError as exc:
        raise StorageError(f"read failed: {exc}", path=fh.name, offset=offset) from exc


def pread_into(fh, buffer: bytearray, offset: int) -> None:
    """Fill ``buffer`` from ``offset``; bytes past the end of the file keep their value."""
    try:
        os.preadv(_fd(fh), [buffer], offset)
    except OSError as exc:
        raise StorageError(f"read failed: {exc}", path=fh.name, offset=offset) from exc


def pwrite(fh, data, offset: int) -> None:
    """Write all of ``data`` at ``offset``."""
    try:
        written = os.pwrite(_fd(fh), data, offset)
    except OSError as exc:
        raise StorageError(f"write failed: {exc}", path=fh.name, offset=offset) from exc
    if written != len(data):
        raise StorageError(f"short write: {written} of {len(data)} bytes", path=fh.name, offset=offset)


def truncate(fh, size: int) -> None:
    try:
        os.ftruncate(_fd(fh), size)
    except OSError as exc:
        raise StorageError(f"truncate failed: {exc}", path=fh.name, offset=size) from exc


def size(fh) -> int:
    try:
        return os.fstat(_fd(fh)).st_size
    except OSError as exc:
        raise StorageError(f"cannot stat: {exc}", path=fh.name) from exc


def read_file(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise StorageError(f"read failed: {exc}", path=path, offset=0) from exc


def write_file(path: Path, chunks) -> None:
    """Replace the contents of ``path`` with ``chunks`` back to back."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise StorageError(f"write failed: {exc}", path=path, offset=0) from exc


def remove(path: Path) -> None:
    """Delete ``path``; one already gone is fine."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot delete: {exc}", path=path) from exc


def names(directory: Path, suffix: str) -> list[str]:
    try:
        return [name for name in os.listdir(directory) if name.endswith(suffix)]
    except OSError as exc:
        raise StorageError(f"cannot list: {exc}", path=directory) from exc


def write_meta(path: Path, meta: dict) -> None:
    tmp = path.with_suffix(".tmp")
    write_file(tmp, [json.dumps(meta, sort_keys=True, separators=(",", ":")).encode() + b"\n"])
    try:
        os.replace(tmp, path)
    except OSError as exc:
        raise StorageError(f"cannot replace metadata: {exc}", path=path) from exc


def commit(writes) -> None:
    """Apply one commit's ``(file, offset, data)`` writes in order: ``data`` at ``offset`` of an open file or, with
    offset ``None``, the path ``file`` replaced by the chunks ``data`` or, for a dict, by that metadata."""
    for target, offset, data in writes:
        if offset is not None:
            pwrite(target, data, offset)
        elif isinstance(data, dict):
            write_meta(target, data)
        else:
            write_file(target, data)


def read_meta(path: Path, version: int, fields: tuple[str, ...]) -> dict:
    """The metadata in ``path``; CorruptionError unless it is a JSON object
    of format ``version`` that holds every one of ``fields``."""
    try:
        meta = json.loads(read_file(path))
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
