"""Forkless blockchain state storage.

Two specialized databases share one value domain: LiveDb keeps only the
latest worldstate in mutable, densely packed files (updates overwrite in
place, so pruning is free), while ArchiveDb keeps the full linear
history as sorted change logs served by floor searches. A deterministic
workload generator, a replay harness, and a reference oracle round out
the package.

Each exported name is imported from its module on first use (PEP 562),
so a process that only reads an archive, such as ``flatstate serve``,
never loads the LiveDb side.
"""

from importlib import import_module

# Exported name -> the module that defines it.
_EXPORTS = {
    "AccountUpdate": "types",
    "ArchiveDb": "archive",
    "BlockDiff": "types",
    "BoundsError": "errors",
    "CorruptionError": "errors",
    "FlatStateError": "errors",
    "FormatError": "errors",
    "LiveDb": "livedb",
    "ReferenceOracle": "oracle",
    "SequenceError": "errors",
    "StorageError": "errors",
    "UnavailableError": "errors",
    "ValidationError": "errors",
    "WorkloadSpec": "workload",
    "WorldstateRoot": "livedb",
    "generate": "workload",
    "read_workload": "workload",
    "serialize_update": "types",
    "write_workload": "workload",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
