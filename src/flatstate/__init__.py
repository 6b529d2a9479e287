"""Forkless blockchain state storage.

Two specialized databases share one value domain: LiveDb keeps only the
latest worldstate in mutable, densely packed files (updates overwrite in
place, so pruning is free), while ArchiveDb keeps the full linear
history as sorted change logs served by floor searches. A deterministic
workload generator, a replay harness, and a reference oracle round out
the package.
"""

from .archive import ArchiveDb
from .errors import (
    BoundsError,
    CorruptionError,
    FlatStateError,
    FormatError,
    SequenceError,
    StorageError,
    UnavailableError,
    ValidationError,
)
from .livedb import LiveDb, WorldstateRoot
from .oracle import ReferenceOracle
from .types import AccountUpdate, BlockDiff, serialize_update
from .workload import WorkloadSpec, generate, read_workload, write_workload

__all__ = [
    "AccountUpdate",
    "ArchiveDb",
    "BlockDiff",
    "BoundsError",
    "CorruptionError",
    "FlatStateError",
    "FormatError",
    "LiveDb",
    "ReferenceOracle",
    "SequenceError",
    "StorageError",
    "UnavailableError",
    "ValidationError",
    "WorkloadSpec",
    "WorldstateRoot",
    "generate",
    "read_workload",
    "serialize_update",
    "write_workload",
]
