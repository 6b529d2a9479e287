"""Workload generation determinism and the diff stream codec."""

import hashlib
import random

import pytest

from flatstate.errors import FormatError, ValidationError
from flatstate.types import AccountUpdate, BlockDiff
from flatstate.workload import (
    WorkloadSpec,
    decode_diff,
    encode_diff,
    generate,
    read_spec,
    read_workload,
    write_workload,
)

from util import addr, random_diff

SPEC = WorkloadSpec(seed=42, blocks=30, accounts=50, txs_per_block=5, slot_writes_per_tx=3, new_key_ratio=0.3, delete_ratio=0.1)


def test_same_seed_same_file_digest(tmp_path):
    write_workload(tmp_path / "a.wl", SPEC)
    write_workload(tmp_path / "b.wl", SPEC)
    a = hashlib.sha256((tmp_path / "a.wl").read_bytes()).digest()
    b = hashlib.sha256((tmp_path / "b.wl").read_bytes()).digest()
    assert a == b
    other = WorkloadSpec(seed=43, blocks=30, accounts=50, txs_per_block=5, slot_writes_per_tx=3, new_key_ratio=0.3, delete_ratio=0.1)
    write_workload(tmp_path / "c.wl", other)
    assert hashlib.sha256((tmp_path / "c.wl").read_bytes()).digest() != a


def test_zero_blocks_writes_header_only(tmp_path):
    empty = WorkloadSpec(seed=1, blocks=0, accounts=10, txs_per_block=1, slot_writes_per_tx=1, new_key_ratio=0.5, delete_ratio=0.0)
    write_workload(tmp_path / "empty.wl", empty)
    assert (tmp_path / "empty.wl").stat().st_size == 50  # header struct only
    assert read_spec(tmp_path / "empty.wl") == empty
    assert list(read_workload(tmp_path / "empty.wl")) == []


def test_stream_roundtrip(tmp_path):
    write_workload(tmp_path / "w.wl", SPEC)
    assert read_spec(tmp_path / "w.wl") == SPEC
    assert list(read_workload(tmp_path / "w.wl")) == list(generate(SPEC))


def test_diff_codec_roundtrip_on_random_diffs():
    rng = random.Random(0)
    for block in range(1, 400):
        diff = random_diff(rng, block)
        assert decode_diff(encode_diff(diff)) == diff


def test_codec_rejects_garbage():
    with pytest.raises(FormatError):
        decode_diff(b"\x00" * 3)
    good = encode_diff(random_diff(random.Random(1), 1))
    with pytest.raises(FormatError):
        decode_diff(good + b"\x00")


def test_decoding_a_record_builds_a_canonical_diff():
    one, two = AccountUpdate(address=addr(1), balance=1), AccountUpdate(address=addr(2), balance=2)

    def record(*updates):
        """A block-1 record holding ``updates`` in the order given, as another encoder may write it."""
        body = b"".join(encode_diff(BlockDiff(block=1, updates=(update,)))[12:] for update in updates)
        return (1).to_bytes(8, "big") + len(updates).to_bytes(4, "big") + body

    assert decode_diff(record(two, one)) == BlockDiff(block=1, updates=(one, two))
    with pytest.raises(ValidationError):
        decode_diff(record(one, one))


def test_generated_diffs_are_canonical_for_many_random_specs():
    rng = random.Random(314)
    for _ in range(10_000):
        spec = WorkloadSpec(
            seed=rng.getrandbits(32),
            blocks=rng.randint(1, 2),
            accounts=rng.randint(1, 12),
            txs_per_block=rng.randint(0, 4),
            slot_writes_per_tx=rng.randint(0, 3),
            new_key_ratio=rng.random(),
            delete_ratio=rng.random() * 0.5,
        )
        for diff in generate(spec):  # building a diff checks widths, flags and duplicates
            addresses = [update.address for update in diff.updates]
            assert addresses == sorted(set(addresses))


def test_nonces_monotone_per_account_life():
    # Nonces never decrease while an account is alive; deletion resets them.
    spec = WorkloadSpec(seed=5, blocks=80, accounts=25, txs_per_block=6, slot_writes_per_tx=1, new_key_ratio=0.2, delete_ratio=0.1)
    last_nonce: dict[bytes, int] = {}
    for diff in generate(spec):
        for update in diff.updates:
            if update.deleted:
                last_nonce.pop(update.address, None)
                continue
            if update.nonce is not None:
                assert update.nonce >= last_nonce.get(update.address, 0)
                last_nonce[update.address] = update.nonce


def test_deletions_and_recreations_occur():
    spec = WorkloadSpec(seed=9, blocks=120, accounts=30, txs_per_block=6, slot_writes_per_tx=2, new_key_ratio=0.3, delete_ratio=0.15)
    deletions = recreations = 0
    ever_deleted = set()
    for diff in generate(spec):
        for update in diff.updates:
            if update.deleted:
                deletions += 1
                ever_deleted.add(update.address)
            elif update.created and update.address in ever_deleted:
                recreations += 1
    assert deletions >= 20
    assert recreations >= 10


# A workload file spoilt one way each: (its bytes, made from a good file's, and what the FormatError says).
# A bad header fails read_spec and read_workload alike; a cut in the stream fails read_workload only.
SPOILT = {
    "bad-magic": (lambda good: b"JUNKJUNKJUNK" + b"\x00" * 64, "bad magic"),
    "short-header": (lambda good: good[:49], "too short to be a workload file"),
    "version-9": (lambda good: good[:4] + (9).to_bytes(2, "big") + good[6:], "unsupported workload version 9"),
    "record-cut-short": (lambda good: good[:-1], "truncated diff record"),
    "prefix-cut-short": (lambda good: good[: 54 + int.from_bytes(good[50:54], "big") + 2], "truncated length prefix"),
}


@pytest.mark.parametrize("case", SPOILT)
def test_bad_magic_rejected(tmp_path, case):
    write_workload(tmp_path / "good.wl", SPEC)
    spoil, message = SPOILT[case]
    (tmp_path / "junk.wl").write_bytes(spoil((tmp_path / "good.wl").read_bytes()))
    if "cut" in case:
        assert read_spec(tmp_path / "junk.wl") == SPEC
    else:
        with pytest.raises(FormatError, match=message):
            read_spec(tmp_path / "junk.wl")
    with pytest.raises(FormatError, match=message):
        list(read_workload(tmp_path / "junk.wl"))


def sample_records(count=40, seed=3):
    """Encoded records of random diffs with codes, slots and flags, plus the empty block."""
    rng = random.Random(seed)
    records = [encode_diff(BlockDiff(block=1))]
    records += [encode_diff(random_diff(rng, block, max_updates=4)) for block in range(1, count)]
    return records


def test_unknown_flag_and_presence_bits_rejected():
    record = bytearray(encode_diff(BlockDiff(block=1, updates=(AccountUpdate(address=addr(1), created=True, balance=5),))))
    flags, presence = 12 + 20, 12 + 21
    assert decode_diff(bytes(record)).updates[0].balance == 5
    for at, bit in [(flags, bit) for bit in range(2, 8)] + [(presence, bit) for bit in range(3, 8)]:
        bad = bytearray(record)
        bad[at] |= 1 << bit
        with pytest.raises(FormatError, match="flag bits"):
            decode_diff(bytes(bad))


def test_every_proper_prefix_is_truncated():
    for record in sample_records(count=12):
        for cut in range(len(record)):
            with pytest.raises(FormatError):
                decode_diff(record[:cut])


def test_single_byte_flips_decode_or_raise_library_errors():
    rng = random.Random(11)
    records = sample_records()
    outcomes = {"decoded": 0, "rejected": 0}
    for _ in range(20_000):
        record = bytearray(rng.choice(records))
        record[rng.randrange(len(record))] ^= rng.randrange(1, 256)
        try:
            decode_diff(bytes(record))
        except (FormatError, ValidationError):
            outcomes["rejected"] += 1
        else:
            outcomes["decoded"] += 1
    assert min(outcomes.values()) > 1_000  # both outcomes are exercised


def test_canonical_records_roundtrip_byte_for_byte(tmp_path):
    for record in sample_records():
        assert encode_diff(decode_diff(record)) == record
    write_workload(tmp_path / "w.wl", SPEC)
    data = (tmp_path / "w.wl").read_bytes()
    offset = 50
    while offset < len(data):
        length = int.from_bytes(data[offset : offset + 4], "big")
        record = data[offset + 4 : offset + 4 + length]
        assert encode_diff(decode_diff(record)) == record
        offset += 4 + length


def test_decoder_accepts_any_bytes_like_record():
    record = sample_records(count=5)[-1]
    assert decode_diff(bytearray(record)) == decode_diff(memoryview(record)) == decode_diff(record)
