"""Lazy hash tree: equivalence with eager recomputation, work bounds, growth."""

import hashlib
import random

from flatstate import files
from flatstate.digest import EMPTY_HASH, digest_count
from flatstate.hashtree import HashTree


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def eager_levels(pages: list[bytes]) -> list[list[bytes]]:
    """Full recomputation oracle: pad leaf hashes to a power of two and fold.

    Returns every level of node hashes, leaves first, root last.
    """
    level = [sha(bytes(p)) for p in pages]
    width = 1
    while width < len(level):
        width *= 2
    levels = [level + [sha(b"")] * (width - len(level))]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append([sha(below[i] + below[i + 1]) for i in range(0, len(below), 2)])
    return levels


def eager_root(pages: list[bytes]) -> bytes:
    return eager_levels(pages)[-1][0]


class Pages:
    def __init__(self, page_size=64):
        self.page_size = page_size
        self.pages: list[bytes] = []

    def write(self, index: int, tree: HashTree, rng: random.Random):
        while len(self.pages) <= index:
            self.pages.append(b"\x00" * self.page_size)
        self.pages[index] = rng.randbytes(self.page_size)
        tree.mark_dirty(index)

    def read(self, index: int) -> bytes:
        return self.pages[index]


def test_empty_tree_root_is_empty_string_digest():
    assert HashTree().root(lambda i: b"") == sha(b"") == EMPTY_HASH


def test_single_leaf_root_is_page_digest():
    tree = HashTree()
    page = b"\xab" * 64
    tree.mark_dirty(0)
    assert tree.root(lambda i: page) == sha(page)


def test_four_leaf_root_matches_hand_rolled_oracle():
    rng = random.Random(5)
    pages = [rng.randbytes(64) for _ in range(4)]
    tree = HashTree()
    for i in range(4):
        tree.mark_dirty(i)
    hashes = [sha(p) for p in pages]
    expected = sha(sha(hashes[0] + hashes[1]) + sha(hashes[2] + hashes[3]))
    assert tree.root(lambda i: pages[i]) == expected


def test_lazy_equals_eager_over_random_interleavings():
    rng = random.Random(99)
    for _ in range(300):
        store = Pages()
        tree = HashTree()
        for _ in range(rng.randint(1, 25)):
            if rng.random() < 0.7 or not store.pages:
                store.write(rng.randint(0, len(store.pages)), tree, rng)
            else:
                assert tree.root(store.read) == eager_root(store.pages)
        assert tree.root(store.read) == eager_root(store.pages)


def test_repeated_root_without_writes_hashes_nothing():
    rng = random.Random(3)
    store = Pages()
    tree = HashTree()
    for i in range(9):
        store.write(i, tree, rng)
    first = tree.root(store.read)
    before = digest_count()
    for _ in range(5):
        assert tree.root(store.read) == first
    assert digest_count() == before


def test_double_mark_is_one_queue_entry():
    rng = random.Random(4)
    store = Pages()
    tree = HashTree()
    for i in range(4):
        store.write(i, tree, rng)
    tree.root(store.read)
    store.write(0, tree, rng)
    tree.mark_dirty(0)
    before = digest_count()
    tree.root(store.read)
    assert digest_count() - before == 3  # leaf + two ancestors


def test_sibling_leaves_share_ancestor_work():
    """Two dirty sibling leaves in a 1024-leaf tree: depth + 2 digests."""
    rng = random.Random(8)
    store = Pages()
    tree = HashTree()
    for i in range(1024):
        store.write(i, tree, rng)
    tree.root(store.read)
    store.write(4, tree, rng)
    store.write(5, tree, rng)
    before = digest_count()
    assert tree.root(store.read) == eager_root(store.pages)
    assert digest_count() - before == 10 + 2


def test_batch_work_never_exceeds_path_union():
    rng = random.Random(12)
    store = Pages()
    tree = HashTree()
    leaves = 64
    for i in range(leaves):
        store.write(i, tree, rng)
    tree.root(store.read)
    dirty = rng.sample(range(leaves), 17)
    for i in dirty:
        store.write(i, tree, rng)
    union = set()
    for leaf in dirty:
        node = leaf + 63  # heap index at the leaf level of a 64-leaf tree
        while True:
            union.add(node)
            if node == 0:
                break
            node = (node - 1) // 2
    before = digest_count()
    tree.root(store.read)
    assert digest_count() - before == len(union)
    assert len(union) < len(dirty) * 7  # shared ancestors hashed once


def test_grow_by_zero_changes_nothing():
    rng = random.Random(21)
    store = Pages()
    tree = HashTree()
    for i in range(5):
        store.write(i, tree, rng)
    root = tree.root(store.read)
    tree.grow(5)
    before = digest_count()
    assert tree.root(store.read) == root
    assert digest_count() == before


def test_incremental_growth_matches_rebuilt_tree():
    rng = random.Random(31)
    store = Pages()
    tree = HashTree()
    for count in (1, 2, 3, 4, 5, 8, 9, 16, 17, 33):
        while len(store.pages) < count:
            store.write(len(store.pages), tree, rng)
        grown = tree.root(store.read)
        rebuilt = HashTree()
        rebuilt.grow(count)
        assert rebuilt.root(store.read) == grown == eager_root(store.pages)


def test_growth_across_power_of_two_boundary():
    rng = random.Random(32)
    store = Pages()
    tree = HashTree()
    for i in range(4):
        store.write(i, tree, rng)
    tree.root(store.read)
    store.write(4, tree, rng)  # capacity 4 -> 8
    assert tree.root(store.read) == eager_root(store.pages)


def test_failed_page_read_keeps_tree_growable():
    rng = random.Random(33)
    store = Pages()
    tree = HashTree()
    for i in range(4):
        store.write(i, tree, rng)

    def broken(index):
        raise OSError("page unreadable")

    try:
        tree.root(broken)
    except OSError as exc:
        caught = exc  # its traceback keeps the frames of root() alive
    assert caught.__traceback__ is not None
    store.write(4, tree, rng)  # capacity 4 -> 8 resizes every level
    assert tree.root(store.read) == eager_root(store.pages)


def test_paging_size_law_inner_node_count():
    # n = 2^k values at p = 2^l slots per page: the tree keeps n/p - 1 inner nodes.
    for k, l in ((10, 3), (12, 5), (8, 2), (14, 7)):
        n, p = 1 << k, 1 << l
        tree = HashTree()
        tree.grow(n // p)
        assert tree.inner_node_count == n // p - 1


def test_persistence_roundtrip(tmp_path):
    rng = random.Random(77)
    store = Pages()
    path = tmp_path / "nodes.tree"
    tree = HashTree(path)
    for i in range(11):
        store.write(i, tree, rng)
    root = tree.root(store.read)
    files.commit([(path, None, tree.node_file())])
    reopened = HashTree(path, leaf_count=11)
    before = digest_count()
    assert reopened.root(store.read) == root
    assert digest_count() == before


def test_node_file_is_heap_array_after_multi_level_growth(tmp_path):
    """grow(4) then grow(40) adds four levels in one call; the file stays a heap array."""
    rng = random.Random(78)
    pages = [rng.randbytes(64) for _ in range(40)]
    path = tmp_path / "nodes.tree"
    tree = HashTree(path)
    tree.grow(4)
    tree.root(lambda i: pages[i])
    tree.grow(40)
    tree.root(lambda i: pages[i])
    files.commit([(path, None, tree.node_file())])
    # Heap order: level d (root = 0) starts at array index 2^d - 1.
    heap = b"".join(b"".join(level) for level in reversed(eager_levels(pages)))
    assert len(heap) == (2 * 64 - 1) * 32
    assert path.read_bytes() == heap
    reopened = HashTree(path, leaf_count=40)
    before = digest_count()
    assert reopened.root(lambda i: pages[i]) == eager_root(pages)
    assert digest_count() == before
