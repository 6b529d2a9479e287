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
so one client cannot grow server memory without bound. At most
``MAX_CONNECTIONS`` are served at once; one more gets ``ERR unavailable
too many connections`` and is closed. The server only reads from the
archive.

One thread serves every connection: a selector loop accepts, reads,
answers and writes over non-blocking sockets. Requests sent back to back
on one connection (pipelined) are answered in order. A query runs to its
end before the loop turns to any other connection, so a slow one, such
as the first search of a large run, which builds that run's search aids,
delays every connection.
"""

from __future__ import annotations

import io
import selectors
import socket
import threading

from .archive import ArchiveDb
from .errors import BoundsError, UnavailableError
from .widths import ADDRESS_SIZE, KEY_SIZE

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


class _Connection:
    """One client socket with its unanswered input and its unsent output."""

    __slots__ = ("sock", "inbox", "outbox", "closing", "events")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbox = bytearray()  # received bytes not yet answered
        self.outbox = b""  # the unsent rest of one answer
        self.closing = False  # no more input is read; close once every buffered line is answered and sent
        self.events = selectors.EVENT_READ

    def next_line(self) -> bytes | None:
        """Take the next request line from ``inbox``, or None until one is complete.

        A line of more than ``MAX_REQUEST_BYTES`` (newline included) gets the
        too-long answer and closes the connection. Input that ends without a
        newline is answered as a last line.
        """
        inbox = self.inbox
        end = inbox.find(b"\n", 0, MAX_REQUEST_BYTES)
        if end >= 0:
            line = inbox[: end + 1]
            del inbox[: end + 1]
            return line
        if len(inbox) >= MAX_REQUEST_BYTES:
            inbox.clear()
            self.closing = True
            self.outbox = b"ERR badrequest request too long\n"
            return None
        if self.closing and inbox:
            line = bytes(inbox)
            inbox.clear()
            return line
        return None


class QueryServer:
    """Serves every connection from one thread: a selector loop over non-blocking sockets.

    A connection's next buffered line is answered only after its previous
    answer is fully sent, and the loop reads no more from a connection
    while it has unsent output, so each connection buffers at most about
    ``2 * MAX_REQUEST_BYTES`` of input plus one answer.
    """

    def __init__(self, archive: ArchiveDb, listen: tuple[str, int] = ("127.0.0.1", 0)):
        self.archive = archive
        self.socket = socket.create_server(listen)
        self.socket.setblocking(False)
        self.address: tuple[str, int] = self.socket.getsockname()[:2]
        # stop() writes one byte to _wake_w, which ends a select() that waits in another thread.
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._thread: threading.Thread | None = None

    def serve_forever(self) -> None:
        """Serve until ``stop()`` is called from another thread (or an exception such as KeyboardInterrupt)."""
        select = self._selector.select
        while True:
            for key, _ in select():
                if key.data is not None:
                    self._serve(key.data)
                elif key.fileobj is self.socket:
                    self._accept()
                else:  # the wake socket
                    return

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, name="query-server", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._wake_w.send(b"\0")
        if self._thread is not None:
            self._thread.join()
        self.server_close()

    def server_close(self) -> None:
        """Close the listening socket and every connection."""
        for key in list((self._selector.get_map() or {}).values()):
            if key.data is not None:
                self._close(key.data)
        self.socket.close()
        self._wake_r.close()
        self._wake_w.close()
        self._selector.close()

    def _accept(self) -> None:
        try:
            sock, _ = self.socket.accept()
        except OSError:  # the client gave up before it was accepted
            return
        if len(self._selector.get_map()) - 2 >= MAX_CONNECTIONS:  # the listener and the wake socket are registered too
            try:
                sock.send(b"ERR unavailable too many connections\n")
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            sock.close()
            return
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _serve(self, conn: _Connection) -> None:
        """Read or write what the socket is ready for, then answer buffered lines while each answer goes out whole."""
        sock = conn.sock
        try:
            if conn.outbox:
                conn.outbox = _send(sock, conn.outbox)
            else:
                try:
                    chunk = sock.recv(MAX_REQUEST_BYTES)
                except BlockingIOError:  # select reported readable, yet there is nothing to read
                    chunk = None
                if chunk:
                    conn.inbox += chunk
                elif chunk is not None:
                    conn.closing = True
            while not conn.outbox:
                line = conn.next_line()
                if line is None:
                    break
                answer = handle_request(self.archive, line.decode("utf-8", "replace"))
                conn.outbox = _send(sock, answer.encode() + b"\n")
        except OSError:  # the client reset the connection
            self._close(conn)
            return
        if conn.outbox:
            events = selectors.EVENT_WRITE  # read nothing more until this answer is sent
        elif conn.closing:
            self._close(conn)
            return
        else:
            events = selectors.EVENT_READ
        if events != conn.events:
            conn.events = events
            self._selector.modify(sock, events, conn)

    def _close(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        try:
            # A FIN before the close, so the client reads every answer and then
            # the end of the stream even if its unread requests reset the connection.
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        conn.sock.close()


def _send(sock: socket.socket, data: bytes) -> bytes:
    """Send what the socket takes now and return the rest."""
    try:
        return data[sock.send(data) :]
    except BlockingIOError:
        return data


class QueryClient:
    """Minimal blocking client for the line protocol."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._pending = b""  # received bytes after the last answer

    def request(self, line: str) -> str:
        self._sock.sendall(line.encode() + b"\n")
        pending = self._pending
        while (end := pending.find(b"\n")) < 0:
            chunk = self._sock.recv(io.DEFAULT_BUFFER_SIZE)
            if not chunk:
                raise ConnectionError("server closed the connection")
            pending += chunk
        self._pending = pending[end + 1 :]
        return pending[:end].decode()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
