"""Fixed widths and ranges of the value domain (see ``types``).

This module imports nothing, so the archive side and the query server can
use these constants without loading the update and diff classes.
"""

ADDRESS_SIZE = 20
KEY_SIZE = 32
VALUE_SIZE = 32
BALANCE_SIZE = 16
NONCE_SIZE = 8
BLOCK_SIZE = 8
REINC_SIZE = 4
MAX_CODE_SIZE = 25600

ZERO_VALUE = b"\x00" * VALUE_SIZE

MAX_BALANCE = (1 << (BALANCE_SIZE * 8)) - 1
MAX_NONCE = (1 << (NONCE_SIZE * 8)) - 1
MAX_BLOCK = (1 << (BLOCK_SIZE * 8)) - 1
MAX_REINC = (1 << (REINC_SIZE * 8)) - 1
