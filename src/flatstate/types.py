"""Value domain shared by the live store, the history store, and the tooling.

Addresses, storage keys/values, and hashes are plain ``bytes`` of a fixed
width; balances, nonces, block numbers, and reincarnation counters are
``int`` with an enforced range. All fixed-width integers serialize
big-endian everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .digest import digest
from .errors import FormatError, ValidationError
from .widths import (  # re-exported, so `from flatstate.types import KEY_SIZE` keeps working
    ADDRESS_SIZE,
    BALANCE_SIZE,
    BLOCK_SIZE,
    KEY_SIZE,
    MAX_BALANCE,
    MAX_BLOCK,
    MAX_CODE_SIZE,
    MAX_NONCE,
    MAX_REINC,
    NONCE_SIZE,
    REINC_SIZE,
    VALUE_SIZE,
    ZERO_VALUE,
)

Address = bytes
StorageKey = bytes
StorageValue = bytes


def _check_width(name: str, value: bytes, width: int) -> None:
    if not isinstance(value, (bytes, bytearray)) or len(value) != width:
        raise FormatError(f"{name} must be exactly {width} bytes, got {value!r}")


def _check_range(name: str, value: int, maximum: int) -> None:
    if not isinstance(value, int) or value < 0 or value > maximum:
        raise FormatError(f"{name} out of range: {value!r}")


@dataclass(frozen=True)
class AccountUpdate:
    """All changes one block makes to one account.

    ``balance``/``nonce``/``code`` are ``None`` when the block does not touch
    them. ``slots`` holds (key, value) pairs, sorted by key when the update
    is built; a repeated key is rejected. Writing the all-zero value clears
    a slot. An update may not set both ``created`` and ``deleted``.

    ``address``, ``code`` and every slot key and value are held as
    ``bytes``: a ``bytearray`` given for any of them is converted, and a
    slot key or value of any other type is rejected. Slots given already
    canonical (a tuple of ``bytes`` pairs, keys strictly increasing) are
    kept as they are, after one checking pass.
    """

    address: Address
    created: bool = False
    deleted: bool = False
    balance: int | None = None
    nonce: int | None = None
    code: bytes | None = None
    slots: tuple[tuple[StorageKey, StorageValue], ...] = ()

    def __post_init__(self):
        _check_width("address", self.address, ADDRESS_SIZE)
        if type(self.address) is not bytes:
            object.__setattr__(self, "address", bytes(self.address))
        if self.created and self.deleted:
            raise ValidationError(f"update for {self.address.hex()} is both created and deleted")
        if self.balance is not None:
            _check_range("balance", self.balance, MAX_BALANCE)
        if self.nonce is not None:
            _check_range("nonce", self.nonce, MAX_NONCE)
        if self.code is not None:
            if len(self.code) > MAX_CODE_SIZE:
                raise FormatError(f"code length {len(self.code)} exceeds {MAX_CODE_SIZE}")
            if type(self.code) is not bytes:
                object.__setattr__(self, "code", bytes(self.code))
        if not _canonical_slots(self.slots):
            object.__setattr__(self, "slots", self._sorted_slots())

    @classmethod
    def _decoded(
        cls,
        address: Address,
        created: bool,
        deleted: bool,
        balance: int | None,
        nonce: int | None,
        code: bytes | None,
        slots: list[tuple[StorageKey, StorageValue]],
    ) -> AccountUpdate:
        """The update the workload decoder read, checked only where the stream layout proves nothing.

        The decoder cuts ``address``, ``code`` and every slot key and value as ``bytes`` from fixed-width
        fields, and ``balance`` and ``nonce`` as ``int`` from 16- and 8-byte fields, so their widths, types
        and ranges need no check. ``slots`` is the list of (key, value) pairs in stream order; it is sorted
        here, and a repeated key is rejected as the public constructor rejects it.
        """
        self = object.__new__(cls)
        init = object.__setattr__  # as the frozen dataclass's __init__ sets each field
        init(self, "address", address)
        init(self, "created", created)
        init(self, "deleted", deleted)
        init(self, "balance", balance)
        init(self, "nonce", nonce)
        init(self, "code", code)
        if created and deleted:
            raise ValidationError(f"update for {address.hex()} is both created and deleted")
        if code is not None and len(code) > MAX_CODE_SIZE:
            raise FormatError(f"code length {len(code)} exceeds {MAX_CODE_SIZE}")
        slots.sort()
        init(self, "slots", tuple(slots))
        if len(slots) > 1 and len(dict(slots)) < len(slots):
            self._sorted_slots()  # raises for the repeated key
        return self

    def _sorted_slots(self) -> tuple[tuple[StorageKey, StorageValue], ...]:
        """Convert, sort and check slots given in any other form than the canonical one."""
        pairs = []
        for key, value in self.slots:
            # Checked before converting: bytes() of an int would make that many zero bytes.
            _check_width("storage key", key, KEY_SIZE)
            _check_width("storage value", value, VALUE_SIZE)
            pairs.append((bytes(key), bytes(value)))
        slots = tuple(sorted(pairs))
        previous = None
        for key, _ in slots:
            if key == previous:
                raise ValidationError(f"duplicate storage key {key.hex()} for {self.address.hex()}")
            previous = key
        return slots


def _canonical_slots(slots) -> bool:
    """True when ``slots`` is already a tuple of (bytes key, bytes value) pairs of full width, keys strictly increasing."""
    if type(slots) is not tuple:
        return False
    previous = b""
    for slot in slots:
        if type(slot) is not tuple:
            return False
        key, value = slot
        if (
            type(key) is not bytes
            or type(value) is not bytes
            or len(key) != KEY_SIZE
            or len(value) != VALUE_SIZE
            or key <= previous
        ):
            return False
        previous = key
    return True


@dataclass(frozen=True)
class BlockDiff:
    """The change set of one block: per-account updates.

    The updates are sorted by address when the diff is built and a repeated
    address is rejected, so every diff is in the canonical form that fixes
    index insertion order and block hashes.
    """

    block: int
    updates: tuple[AccountUpdate, ...] = ()

    def __post_init__(self):
        _check_range("block", self.block, MAX_BLOCK)
        updates = tuple(self.updates)
        if any(a.address >= b.address for a, b in zip(updates, updates[1:])):
            updates = tuple(sorted(updates, key=attrgetter("address")))
            for a, b in zip(updates, updates[1:]):
                if a.address == b.address:
                    raise ValidationError(f"duplicate update for address {a.address.hex()} in block {self.block}")
        object.__setattr__(self, "updates", updates)


def serialize_update(update: AccountUpdate) -> bytes:
    """Canonical, injective byte encoding used as hash input.

    Layout: address, deleted flag, created flag, then each optional field
    (balance, nonce, code) as a presence byte followed by the payload. Code
    contributes its 32-byte digest, not its body. Slots follow as a 4-byte
    big-endian count and the (key, value) pairs in the update's own order,
    which is sorted by key since the update was built.
    """
    parts = [
        update.address,
        b"\x01" if update.deleted else b"\x00",
        b"\x01" if update.created else b"\x00",
    ]
    if update.balance is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01" + update.balance.to_bytes(BALANCE_SIZE, "big"))
    if update.nonce is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01" + update.nonce.to_bytes(NONCE_SIZE, "big"))
    if update.code is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01" + digest(update.code))
    parts.append(len(update.slots).to_bytes(4, "big"))
    for key, value in update.slots:
        parts.append(key)
        parts.append(value)
    return b"".join(parts)
