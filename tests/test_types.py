"""Canonical encoding and validation of the shared value types."""

import hashlib
import random

import pytest

from flatstate.errors import FormatError, ValidationError
from flatstate.types import KEY_SIZE, VALUE_SIZE, AccountUpdate, BlockDiff, serialize_update

from util import addr, key, random_update, val


def parse_update(data: bytes) -> dict:
    """Independent decoder for the canonical encoding, per the FORMATS doc.

    Written from the documented layout, not from the encoder, so the two
    can disagree. Code appears as its 32-byte digest.
    """
    pos = 0

    def take(n):
        nonlocal pos
        assert pos + n <= len(data), "unexpected end of encoding"
        out = data[pos : pos + n]
        pos += n
        return out

    fields = {}
    fields["address"] = take(20)
    fields["deleted"] = take(1) == b"\x01"
    fields["created"] = take(1) == b"\x01"
    fields["balance"] = int.from_bytes(take(16), "big") if take(1) == b"\x01" else None
    fields["nonce"] = int.from_bytes(take(8), "big") if take(1) == b"\x01" else None
    fields["code_hash"] = take(32) if take(1) == b"\x01" else None
    count = int.from_bytes(take(4), "big")
    fields["slots"] = tuple((take(32), take(32)) for _ in range(count))
    assert pos == len(data), "trailing bytes"
    return fields


def test_balance_only_zero_layout():
    update = AccountUpdate(address=addr(1), balance=0)
    encoded = serialize_update(update)
    assert encoded == addr(1) + b"\x00\x00" + b"\x01" + b"\x00" * 16 + b"\x00\x00" + b"\x00" * 4


def test_slot_input_order_is_canonicalized():
    a = AccountUpdate(address=addr(1), slots=((key(2), val(9)), (key(1), val(8))))
    b = AccountUpdate(address=addr(1), slots=((key(1), val(8)), (key(2), val(9))))
    assert a == b
    assert a.slots == ((key(1), val(8)), (key(2), val(9)))
    assert serialize_update(a) == serialize_update(b)


def test_big_endian_fixed_width_fields():
    update = AccountUpdate(address=addr(1), balance=1, nonce=1)
    encoded = serialize_update(update)
    assert encoded[22:39] == b"\x01" + b"\x00" * 15 + b"\x01"  # balance presence + 16 bytes
    assert encoded[39:48] == b"\x01" + b"\x00" * 7 + b"\x01"  # nonce presence + 8 bytes


def test_roundtrip_against_independent_parser():
    rng = random.Random(42)
    for _ in range(500):
        update = random_update(rng)
        fields = parse_update(serialize_update(update))
        assert fields["address"] == update.address
        assert fields["deleted"] == update.deleted
        assert fields["created"] == update.created
        assert fields["balance"] == update.balance
        assert fields["nonce"] == update.nonce
        if update.code is None:
            assert fields["code_hash"] is None
        else:
            assert fields["code_hash"] == hashlib.sha256(update.code).digest()
        assert fields["slots"] == update.slots
        assert [k for k, _ in update.slots] == sorted({k for k, _ in update.slots})


def test_injective_over_random_updates():
    # Random 20-byte addresses make all 10^5 updates distinct, so their
    # encodings (and the digests of those encodings) must be distinct too.
    rng = random.Random(7)
    seen = set()
    for _ in range(100_000):
        update = random_update(rng, max_slots=2)
        seen.add(hashlib.sha256(serialize_update(update)).digest())
    assert len(seen) == 100_000


def test_created_and_deleted_rejected():
    with pytest.raises(ValidationError):
        AccountUpdate(address=addr(1), created=True, deleted=True)


def test_field_width_validation():
    with pytest.raises(FormatError):
        AccountUpdate(address=b"\x00" * 19)
    with pytest.raises(FormatError):
        AccountUpdate(address=addr(1), slots=((b"\x00" * 31, val(0)),))
    with pytest.raises(FormatError):
        AccountUpdate(address=addr(1), balance=1 << 128)
    with pytest.raises(FormatError):
        AccountUpdate(address=addr(1), code=b"\x00" * 25601)


def test_duplicate_slot_key_rejected():
    with pytest.raises(ValidationError):
        AccountUpdate(address=addr(1), slots=((key(1), val(1)), (key(1), val(2))))
    with pytest.raises(ValidationError):
        AccountUpdate(address=addr(1), slots=((key(1), val(1)), (key(2), val(2)), (key(1), val(1))))


def test_diff_canonicalization_and_validation():
    diff = BlockDiff(
        block=1,
        updates=(
            AccountUpdate(address=addr(2), balance=1),
            AccountUpdate(address=addr(1), balance=2),
        ),
    )
    assert [u.address for u in diff.updates] == [addr(1), addr(2)]
    assert diff == BlockDiff(block=1, updates=tuple(reversed(diff.updates)))
    with pytest.raises(ValidationError):
        BlockDiff(block=1, updates=(diff.updates[0], diff.updates[0]))
    with pytest.raises(ValidationError):
        BlockDiff(block=1, updates=(AccountUpdate(address=addr(1)), AccountUpdate(address=addr(1), balance=3)))


def canonical_slots(slots):
    """The slots every update holds: pairs converted to bytes, sorted by key."""
    return tuple(sorted((bytes(k), bytes(v)) for k, v in slots))


class Bytes(bytes):
    pass


@pytest.mark.parametrize(
    "given",
    [
        pytest.param(((key(1), val(8)), (key(2), val(9)), (key(3), val(7))), id="in-order"),
        pytest.param(((key(3), val(7)), (key(1), val(8)), (key(2), val(9))), id="unsorted"),
        pytest.param([(key(1), val(8)), (key(2), val(9))], id="list"),
        pytest.param(((key(1), val(8)), [key(2), val(9)]), id="list-pair"),
        pytest.param(((bytearray(key(1)), val(8)), (key(2), bytearray(val(9)))), id="bytearray"),
        pytest.param(((Bytes(key(1)), val(8)), (key(2), Bytes(val(9)))), id="bytes-subclass"),
        pytest.param((), id="empty"),
    ],
)
def test_slots_of_every_accepted_form_are_canonical(given):
    slots = AccountUpdate(address=addr(1), slots=given).slots
    assert slots == canonical_slots(given)
    assert type(slots) is tuple
    assert all(type(pair) is tuple and all(type(part) is bytes for part in pair) for pair in slots)


@pytest.mark.parametrize(
    "given",
    [
        ((key(1), val(8)), (b"\x00" * 31, val(9))),
        ((key(1), val(8)), (key(2), b"\x00" * 33)),
        ((key(2), val(8)), (bytearray(31), val(9))),
        # An int is not taken as that many zero bytes.
        pytest.param(((KEY_SIZE, val(8)),), id="int-key"),
        pytest.param(((key(1), VALUE_SIZE),), id="int-value"),
    ],
)
def test_slot_width_errors_in_either_path(given):
    with pytest.raises(FormatError):
        AccountUpdate(address=addr(1), slots=given)


@pytest.mark.parametrize(
    "given",
    [
        ((key(1), val(1)), (key(1), val(2))),
        ((key(2), val(1)), (key(1), val(2)), (key(2), val(1))),
        [(key(1), val(1)), (bytearray(key(1)), val(1))],
    ],
)
def test_duplicate_slot_key_rejected_in_any_order(given):
    with pytest.raises(ValidationError):
        AccountUpdate(address=addr(1), slots=given)


def test_bytearray_address_and_code_are_stored_as_bytes():
    update = AccountUpdate(address=bytearray(addr(1)), code=bytearray(b"\x60\x00"))
    assert type(update.address) is bytes and type(update.code) is bytes
    assert update == AccountUpdate(address=addr(1), code=b"\x60\x00")
    assert hash(update.address) == hash(addr(1))


def test_diff_keeps_ordered_updates_and_sorts_others():
    ordered = (AccountUpdate(address=addr(1)), AccountUpdate(address=addr(2)), AccountUpdate(address=addr(3)))
    assert BlockDiff(block=1, updates=ordered).updates is ordered
    assert BlockDiff(block=1, updates=list(reversed(ordered))).updates == ordered
    with pytest.raises(ValidationError):
        BlockDiff(block=1, updates=(ordered[1], ordered[0], ordered[1]))
