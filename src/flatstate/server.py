"""Line-delimited TCP endpoint for historical queries against an archive.

One request per line, one response per line. Requests:

    STORAGE <address-hex> <key-hex> <block>
    BALANCE <address-hex> <block>
    NONCE <address-hex> <block>
    CODE <address-hex> <block>
    EXISTS <address-hex> <block>
    BLOCKHASH <block>
    WATERMARK

Responses are ``OK <payload>`` or ``ERR <code> <message>``. Byte payloads
are 0x-prefixed hex, integers are decimal, existence is true/false. A
malformed request produces an error response and leaves the connection
usable. A line longer than ``MAX_REQUEST_BYTES`` (newline included)
gets ``ERR badrequest request too long`` and the connection is closed,
so one client cannot grow server memory without bound. Each connection
holds a thread, so at most ``MAX_CONNECTIONS`` are served at once; one
more gets ``ERR unavailable too many connections`` and is closed. The
server only reads from the archive.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from .archive import ArchiveDb
from .errors import BoundsError, UnavailableError
from .types import ADDRESS_SIZE, KEY_SIZE

# The longest valid request (STORAGE with 0x-prefixed arguments and a
# 20-digit block) is about 140 bytes.
MAX_REQUEST_BYTES = 1024
MAX_CONNECTIONS = 64


def _parse_bytes(token: str, width: int) -> bytes:
    raw = bytes.fromhex(token[2:] if token.startswith("0x") else token)
    if len(raw) != width:
        raise ValueError(f"expected {width} bytes, got {len(raw)}")
    return raw


def _parse_block(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"block must be decimal digits, got {token!r}")
    return int(token)


def handle_request(archive: ArchiveDb, line: str) -> str:
    try:
        fields = line.split()
        if not fields:
            return "ERR badrequest empty request"
        command, args = fields[0].upper(), fields[1:]
        if command == "WATERMARK" and len(args) == 0:
            return f"OK {archive.watermark}"
        if command == "BLOCKHASH" and len(args) == 1:
            return f"OK 0x{archive.block_hash(_parse_block(args[0])).hex()}"
        if command == "STORAGE" and len(args) == 3:
            address = _parse_bytes(args[0], ADDRESS_SIZE)
            key = _parse_bytes(args[1], KEY_SIZE)
            value = archive.get_storage_at(address, key, _parse_block(args[2]))
            return f"OK 0x{value.hex()}"
        if command in ("BALANCE", "NONCE", "CODE", "EXISTS") and len(args) == 2:
            address = _parse_bytes(args[0], ADDRESS_SIZE)
            block = _parse_block(args[1])
            if command == "BALANCE":
                return f"OK {archive.get_balance_at(address, block)}"
            if command == "NONCE":
                return f"OK {archive.get_nonce_at(address, block)}"
            if command == "CODE":
                return f"OK 0x{archive.get_code_at(address, block).hex()}"
            return f"OK {'true' if archive.account_exists_at(address, block) else 'false'}"
        return f"ERR badrequest unknown command or arity: {line.strip()}"
    except UnavailableError as exc:
        return f"ERR unavailable {exc}"
    except (ValueError, BoundsError) as exc:  # malformed input, FormatError included
        return f"ERR badrequest {exc}"
    except Exception as exc:  # corruption, a failed read or a bug; the connection stays usable
        return f"ERR internal {exc}"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        while True:
            line = self.rfile.readline(MAX_REQUEST_BYTES)
            if not line:
                return
            if len(line) == MAX_REQUEST_BYTES and not line.endswith(b"\n"):
                self.wfile.write(b"ERR badrequest request too long\n")
                return
            response = handle_request(self.server.archive, line.decode("utf-8", "replace"))
            self.wfile.write(response.encode() + b"\n")
            self.wfile.flush()


class QueryServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, archive: ArchiveDb, listen: tuple[str, int] = ("127.0.0.1", 0)):
        super().__init__(listen, _Handler)
        self.archive = archive
        self._thread: threading.Thread | None = None
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            try:
                request.sendall(b"ERR unavailable too many connections\n")
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, name="query-server", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join()
        self.server_close()


class QueryClient:
    """Minimal blocking client for the line protocol."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, line: str) -> str:
        self._file.write(line.encode() + b"\n")
        self._file.flush()
        response = self._file.readline()
        if not response:
            raise ConnectionError("server closed the connection")
        return response.decode().rstrip("\n")

    def close(self) -> None:
        self._file.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
