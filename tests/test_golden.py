"""Golden roots and bytes: a fixed replay must reproduce recorded constants.

The constants pin the FORMATS.md contract end to end: the worldstate
root, the block-hash chain and every byte both databases leave on disk.
A change that moves any of them changes the format and has to say so.
"""

import hashlib
from pathlib import Path

from flatstate import ArchiveDb, LiveDb, WorkloadSpec
from flatstate.workload import generate

SPEC = WorkloadSpec(
    seed=606,
    blocks=60,
    accounts=80,
    txs_per_block=12,
    slot_writes_per_tx=4,
    new_key_ratio=0.4,
    delete_ratio=0.1,
)

ROOT_4096 = "533c99419fb1eb0c4c9de2bef93eda42c4619071fcf8814de585b8cedea31cfc"
ROOT_256 = "38099086aca259479be9c174686b302b9ef7727dec6fac7f42eed16c1810ce2d"
LAST_BLOCK_HASH = "e5cf8674b31c915d3cf91d53a7ca7f2464dcce78e386305f1cc8a4a48a5bc14e"
LIVE_FILES_4096 = "4e83379eed072a4bf5073042d8f071ffd28ebadbd1b823552703b8104e547ee0"
ARCHIVE_FILES = "6e3a5198105fbb2b43f9abb0160c93d4fdd773c364de3081509e2d0a98aa7fb1"
LIVE_FILES_256 = "5c58e5053546e12f8fb0860b1b49ffd342f93b22c9a0477b8f9ae7b792d99fab"


def files_digest(directory: Path) -> str:
    """sha256 over the sorted (relative path, bytes) pairs under ``directory``."""
    h = hashlib.sha256()
    files = sorted((path.relative_to(directory).as_posix(), path) for path in directory.rglob("*") if path.is_file())
    for name, path in files:
        data = path.read_bytes()
        h.update(len(name).to_bytes(4, "big") + name.encode())
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def test_live_and_archive_bytes_match_golden(tmp_path):
    updates = [update for diff in generate(SPEC) for update in diff.updates]
    assert any(update.deleted for update in updates) and any(update.code for update in updates)
    live = LiveDb(tmp_path / "live")
    archive = ArchiveDb(tmp_path / "archive")
    for diff in generate(SPEC):
        live.apply_block(diff)
        live.state_root()
        archive.append_block(diff)
    root = live.state_root()
    live.close()
    archive.close()
    live_files = files_digest(tmp_path / "live")
    archive_files = files_digest(tmp_path / "archive")

    reopened = ArchiveDb(tmp_path / "archive")
    last_hash = reopened.block_hash(SPEC.blocks)
    reopened.close()

    assert (root.block, root.root.hex()) == (SPEC.blocks, ROOT_4096)
    assert last_hash.hex() == LAST_BLOCK_HASH
    assert live_files == LIVE_FILES_4096
    assert archive_files == ARCHIVE_FILES


def test_small_page_live_bytes_match_golden(tmp_path):
    live = LiveDb(tmp_path / "live", page_size=256)
    for diff in generate(SPEC):
        live.apply_block(diff)
    root = live.state_root()
    live.close()
    assert (root.block, root.root.hex()) == (SPEC.blocks, ROOT_256)
    assert files_digest(tmp_path / "live") == LIVE_FILES_256
