"""End-to-end checks of the command line surface and the query endpoint."""

import contextlib
import csv
import errno
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import time

import pytest

from flatstate import bench, cli
from flatstate import server as server_module
from flatstate.archive import ArchiveDb
from flatstate.cli import main
from flatstate.errors import StorageError
from flatstate.livedb import LiveDb
from flatstate.oracle import ReferenceOracle
from flatstate.server import MAX_CONNECTIONS, MAX_REQUEST_BYTES, QueryClient, QueryServer
from flatstate.types import AccountUpdate
from flatstate.workload import WorkloadSpec, generate, write_workload

from util import addr, key, val

SPEC = WorkloadSpec(seed=21, blocks=40, accounts=60, txs_per_block=5, slot_writes_per_tx=3, new_key_ratio=0.35, delete_ratio=0.05)


def gen_args(out, spec=SPEC):
    return [
        "gen",
        str(out),
        "--seed",
        str(spec.seed),
        "--blocks",
        str(spec.blocks),
        "--accounts",
        str(spec.accounts),
        "--txs-per-block",
        str(spec.txs_per_block),
        "--slot-writes-per-tx",
        str(spec.slot_writes_per_tx),
        "--new-key-ratio",
        str(spec.new_key_ratio),
        "--delete-ratio",
        str(spec.delete_ratio),
    ]


def test_gen_is_deterministic(tmp_path):
    assert main(gen_args(tmp_path / "a.wl")) == 0
    assert main(gen_args(tmp_path / "b.wl")) == 0
    assert (tmp_path / "a.wl").read_bytes() == (tmp_path / "b.wl").read_bytes()
    direct = tmp_path / "direct.wl"
    write_workload(direct, SPEC)
    assert direct.read_bytes() == (tmp_path / "a.wl").read_bytes()


# (arguments, what the error line says); run in a directory that holds a valid small.wl
BAD_INPUTS = {
    "negative-blocks": (["gen", "w.wl", "--blocks", "-1"], "invalid workload spec"),
    "ratio-above-one": (["gen", "w.wl", "--delete-ratio", "1.5"], "ratios must lie in [0, 1], got 1.5"),
    "page-too-small": (["replay", "small.wl", "--db-dir", "db", "--page-size", "64"], "page size 64 too small for 56-byte keys"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_is_one_error_line_and_exit_1(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    write_workload(tmp_path / "small.wl", WorkloadSpec(seed=1, blocks=3, accounts=10, txs_per_block=2, slot_writes_per_tx=1, new_key_ratio=0.5, delete_ratio=0.0))
    args, message = BAD_INPUTS[case]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not (tmp_path / "w.wl").exists()  # gen checks its spec before it writes


def test_replay_with_and_without_archive(tmp_path):
    workload = tmp_path / "w.wl"
    write_workload(workload, SPEC)
    plain = bench.replay_workload(workload, tmp_path / "plain", archive_mode="none")
    archived = bench.replay_workload(workload, tmp_path / "arch", archive_mode="custom")
    assert plain.final_root == archived.final_root  # archive is a write-only side channel
    assert (tmp_path / "arch" / "archive").exists()
    assert not (tmp_path / "plain" / "archive").exists()


def test_replay_cli_emits_expected_csv(tmp_path):
    workload = tmp_path / "w.wl"
    write_workload(workload, SPEC)
    out = tmp_path / "samples.csv"
    code = main(
        [
            "replay",
            str(workload),
            "--db-dir",
            str(tmp_path / "db"),
            "--archive",
            "custom",
            "--sample-every",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == SPEC.blocks // 10
    assert [int(r["block_height"]) for r in rows] == [10, 20, 30, 40]
    for row in rows:
        assert int(row["live_bytes"]) > 0
        assert int(row["archive_bytes"]) > 0
        assert float(row["tx_per_second"]) > 0


def test_replayed_database_reopens_with_oracle_content(tmp_path):
    workload = tmp_path / "w.wl"
    write_workload(workload, SPEC)
    bench.replay_workload(workload, tmp_path / "db", archive_mode="custom")
    oracle = ReferenceOracle()
    touched = set()
    pairs = set()
    for diff in generate(SPEC):
        oracle.apply_block(diff)
        for update in diff.updates:
            touched.add(update.address)
            for slot_key, _ in update.slots:
                pairs.add((update.address, slot_key))
    live = LiveDb(tmp_path / "db" / "live")
    rng = random.Random(3)
    for address in rng.sample(sorted(touched), min(50, len(touched))):
        assert live.get_balance(address) == oracle.balance(address)
        assert live.account_exists(address) == oracle.exists(address)
    for address, slot_key in rng.sample(sorted(pairs), min(100, len(pairs))):
        assert live.get_storage(address, slot_key) == oracle.storage(address, slot_key)
    live.close()


def test_du_matches_filesystem(tmp_path, capsys):
    workload = tmp_path / "w.wl"
    write_workload(workload, SPEC)
    bench.replay_workload(workload, tmp_path / "db", archive_mode="custom")
    assert main(["du", "--db-dir", str(tmp_path / "db")]) == 0
    lines = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    reported = {(section, name): int(size) for section, name, size in lines}
    live_total = sum(size for (section, name), size in reported.items() if section == "live" and name != "total")
    archive_total = sum(size for (section, name), size in reported.items() if section == "archive" and name != "total")
    assert reported[("live", "total")] == live_total == bench.du_bytes(tmp_path / "db" / "live")
    assert reported[("archive", "total")] == archive_total == bench.du_bytes(tmp_path / "db" / "archive")
    assert reported[("all", "total")] == live_total + archive_total


def test_du_empty_directory_reports_zero(tmp_path, capsys):
    assert main(["du", "--db-dir", str(tmp_path / "none")]) == 0
    lines = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    assert ["live", "total", "0"] in lines
    assert ["archive", "total", "0"] in lines
    assert ["all", "total", "0"] in lines


def test_sweep_cli_memory_mode(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--mode",
            "memory",
            "--page-sizes",
            "256,1024",
            "--keys",
            "2000",
            "--rounds",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["page_size"]) for r in rows] == [256, 1024]
    for row in rows:
        assert float(row["ns_per_hash"]) > 0
    assert cli.build_parser().parse_args(["sweep"]).keys == 160_000  # --keys alone sets the scale
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["sweep", "scale.wl"])


def test_sweep_cli_io_mode(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep",
        "--mode",
        "io",
        "--page-sizes",
        "1024,4096",
        "--keys",
        "4000",
        "--rounds",
        "2",
        "--db-dir",
        str(tmp_path / "scratch"),
        "--cache-budget",
        str(1 << 16),
        "--out",
        str(out),
    ]
    for _ in range(2):  # the second run finds the first run's files in its directory
        assert main(argv) == 0
        with out.open() as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["page_size", "mode", "ns_per_hash", "hashes_per_second"]
        assert [int(r["page_size"]) for r in rows] == [1024, 4096]  # paper's io optimum is reported
        for row in rows:
            assert row["mode"] == "io"
            assert float(row["ns_per_hash"]) > 0
        # The sweep flushes and closes its own page cache: each file holds exactly its 4,000 records' pages.
        for page_size in (1024, 4096):
            records_per_page = page_size // bench.VALUE_RECORD
            pages = -(-4000 // records_per_page)
            assert (tmp_path / "scratch" / f"sweep-{page_size}.dat").stat().st_size == pages * page_size


def test_serve_refuses_a_missing_archive_and_creates_nothing(tmp_path, capsys, monkeypatch):
    def serve_nothing(*args):
        raise AssertionError("served a missing archive")

    monkeypatch.setattr(cli, "QueryServer", serve_nothing)
    empty = tmp_path / "empty"
    (empty / "archive").mkdir(parents=True)  # an archive directory that holds no archive
    for db_dir in (tmp_path / "missing", tmp_path, empty):
        code = main(["serve", "--db-dir", str(db_dir), "--listen", "127.0.0.1:0"])
        assert code == 1
        assert capsys.readouterr().err == f"error: no archive at {db_dir / 'archive'}\n"
    assert sorted(tmp_path.rglob("*")) == [empty, empty / "archive"]


def serve_example_archive(tmp_path):
    from test_archive import example_table_diffs

    archive = ArchiveDb(tmp_path / "db" / "archive")
    for diff in example_table_diffs():
        archive.append_block(diff)
    archive.flush()
    return archive


def test_serve_answers_change_log_example(tmp_path):
    archive = serve_example_archive(tmp_path)
    server = QueryServer(archive)
    server.start()
    host, port = server.address
    try:
        with QueryClient(host, port) as client:
            assert client.request("WATERMARK") == "OK 17"
            value = client.request(f"STORAGE 0x{addr(0x123).hex()} 0x{key(1).hex()} 15")
            assert value == f"OK 0x{val(100).hex()}"
            value = client.request(f"STORAGE 0x{addr(0x123).hex()} 0x{key(1).hex()} 16")
            assert value == f"OK 0x{val(110).hex()}"
            beyond = client.request(f"BALANCE 0x{addr(0x123).hex()} 99")
            assert beyond.startswith("ERR unavailable")
            bad = client.request("STORAGE nonsense")
            assert bad.startswith("ERR badrequest")
            # Blocks are ASCII decimal digits only: no sign, no underscore, no Arabic-Indic three.
            for block in ("+7", "-1", "1_0", "\u0663"):
                assert client.request(f"BLOCKHASH {block}").startswith("ERR badrequest"), block
                assert client.request(f"BALANCE 0x{addr(0x123).hex()} {block}").startswith("ERR badrequest"), block
            # The connection survives malformed requests.
            assert client.request("WATERMARK") == "OK 17"
            block_hash = client.request("BLOCKHASH 17")
            assert block_hash == f"OK 0x{archive.block_hash(17).hex()}"
    finally:
        server.stop()
        archive.close()


def test_serve_reports_corruption_as_internal_error(tmp_path):
    from test_archive import diff

    archive = ArchiveDb(tmp_path / "db" / "archive")
    archive.append_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, code=bytes.fromhex("600060ff"))))
    archive.flush()
    blob = tmp_path / "db" / "archive" / "codeblob.dat"
    blob.write_bytes(blob.read_bytes()[:-1] + b"\xfe")  # one byte of the body flips
    server = QueryServer(archive)
    server.start()
    try:
        with QueryClient(*server.address) as client:
            assert client.request(f"CODE 0x{addr(1).hex()} 1").startswith("ERR internal code body")
            assert client.request(f"BALANCE 0x{addr(1).hex()} 1") == "OK 5"  # the connection stays usable
            assert client.request(f"CODE 0x{addr(1).hex()}").startswith("ERR badrequest")
    finally:
        server.stop()
        archive.close()


def test_serve_closes_connection_on_oversize_request(tmp_path):
    archive = serve_example_archive(tmp_path)
    server = QueryServer(archive)
    server.start()
    host, port = server.address
    try:
        with QueryClient(host, port) as other:
            with socket.create_connection((host, port), timeout=10) as sock:
                reader = sock.makefile("rb")
                # The longest line still served: MAX_REQUEST_BYTES with its newline.
                sock.sendall(b"WATERMARK".ljust(MAX_REQUEST_BYTES - 1) + b"\n")
                assert reader.readline() == b"OK 17\n"
                sock.sendall(b"WATERMARK".ljust(16 * MAX_REQUEST_BYTES) + b"\n")
                assert reader.readline() == b"ERR badrequest request too long\n"
                assert reader.readline() == b""
                reader.close()
            assert other.request("WATERMARK") == "OK 17"
    finally:
        server.stop()
        archive.close()


def test_serve_refuses_connections_beyond_the_limit(tmp_path):
    archive = serve_example_archive(tmp_path)
    server = QueryServer(archive)
    server.start()
    host, port = server.address
    clients = []

    def refused_line():
        with socket.create_connection((host, port), timeout=10) as sock, sock.makefile("rb") as reader:
            return reader.readline(), reader.readline()

    try:
        for _ in range(MAX_CONNECTIONS):
            clients.append(QueryClient(host, port))
            assert clients[-1].request("WATERMARK") == "OK 17"  # the server has accepted it
        assert refused_line() == (b"ERR unavailable too many connections\n", b"")
        for client in clients:
            assert client.request("WATERMARK") == "OK 17"
        # A closed connection frees its slot once the server reads its end.
        clients.pop().close()
        deadline = time.monotonic() + 10
        while True:
            with QueryClient(host, port) as client:
                try:
                    answer = client.request("WATERMARK")
                except ConnectionError:  # refused and closed before the request went out
                    answer = None
            if answer == "OK 17":
                break
            assert answer in (None, "ERR unavailable too many connections")
            assert time.monotonic() < deadline, "no slot freed after a client closed its connection"
            time.sleep(0.01)
    finally:
        for client in clients:
            client.close()
        server.stop()
        archive.close()


def test_serve_random_queries_match_oracle(tmp_path):
    spec = WorkloadSpec(seed=31, blocks=30, accounts=40, txs_per_block=4, slot_writes_per_tx=2, new_key_ratio=0.4, delete_ratio=0.05)
    archive = ArchiveDb(tmp_path / "db" / "archive")
    oracle = ReferenceOracle()
    pairs = set()
    addresses = set()
    for diff in generate(spec):
        archive.append_block(diff)
        oracle.apply_block(diff)
        for update in diff.updates:
            addresses.add(update.address)
            for slot_key, _ in update.slots:
                pairs.add((update.address, slot_key))
    archive.flush()
    server = QueryServer(archive)
    server.start()
    host, port = server.address
    rng = random.Random(17)
    addresses, pairs = sorted(addresses), sorted(pairs)
    try:
        with QueryClient(host, port) as client:
            for _ in range(1_000):
                block = rng.randint(0, spec.blocks)
                roll = rng.random()
                if roll < 0.4:
                    address, slot_key = rng.choice(pairs)
                    got = client.request(f"STORAGE 0x{address.hex()} 0x{slot_key.hex()} {block}")
                    assert got == f"OK 0x{oracle.storage_at(address, slot_key, block).hex()}"
                elif roll < 0.6:
                    address = rng.choice(addresses)
                    got = client.request(f"BALANCE 0x{address.hex()} {block}")
                    assert got == f"OK {oracle.balance_at(address, block)}"
                elif roll < 0.8:
                    address = rng.choice(addresses)
                    got = client.request(f"NONCE 0x{address.hex()} {block}")
                    assert got == f"OK {oracle.nonce_at(address, block)}"
                else:
                    address = rng.choice(addresses)
                    got = client.request(f"EXISTS 0x{address.hex()} {block}")
                    assert got == f"OK {'true' if oracle.exists_at(address, block) else 'false'}"
    finally:
        server.stop()
        archive.close()


# Opening reads one block hash and no code-blob record, so the open has one read to fail.
@pytest.mark.parametrize("failing_read", [1], ids=["block-hash"])
def test_archive_read_failure_on_open_is_a_storage_error(tmp_path, capsys, monkeypatch, failing_read):
    from test_archive import diff

    archive = ArchiveDb(tmp_path / "db" / "archive")
    archive.append_block(diff(1, AccountUpdate(address=addr(1), created=True, code=b"\x60\x00")))
    archive.close()
    real_pread = os.pread
    reads = []

    def pread(*args):
        reads.append(args)
        if len(reads) == failing_read:
            raise OSError(errno.EIO, "injected")
        return real_pread(*args)

    monkeypatch.setattr(os, "pread", pread)
    with pytest.raises(StorageError, match="injected"):
        ArchiveDb(tmp_path / "db" / "archive")
    reads.clear()
    assert main(["serve", "--db-dir", str(tmp_path / "db"), "--listen", "127.0.0.1:0"]) == 1
    assert capsys.readouterr().err.startswith("error: read failed: [Errno 5] injected")


def test_code_blob_read_failure_fails_the_first_code_query_only(tmp_path, monkeypatch):
    """A failed read of the blob's record headers reaches the first code query, not the open, nor other queries."""
    from test_archive import diff

    body = b"\x60\x00"
    writer = ArchiveDb(tmp_path / "db" / "archive")
    writer.append_block(diff(1, AccountUpdate(address=addr(1), created=True, balance=5, code=body)))
    writer.close()
    archive = ArchiveDb(tmp_path / "db" / "archive")
    blob = archive._blob_fh.fileno()
    real_pread = os.pread

    def pread(fd, length, offset):
        if fd == blob:
            raise OSError(errno.EIO, "injected")
        return real_pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", pread)
    with pytest.raises(StorageError, match="injected") as failure:
        archive.get_code_at(addr(1), 1)
    assert (os.path.basename(failure.value.path), failure.value.offset) == ("codeblob.dat", 0)  # the first record header
    server = QueryServer(archive)
    server.start()
    host, port = server.address
    try:
        with QueryClient(host, port) as client:
            assert client.request(f"CODE 0x{addr(1).hex()} 1").startswith("ERR internal read failed: [Errno 5] injected")
            assert client.request(f"BALANCE 0x{addr(1).hex()} 1") == "OK 5"
            assert client.request(f"EXISTS 0x{addr(1).hex()} 1") == "OK true"
            assert client.request(f"NONCE 0x{addr(1).hex()} 1") == "OK 0"
            assert client.request(f"STORAGE 0x{addr(1).hex()} 0x{key(1).hex()} 1") == f"OK 0x{bytes(32).hex()}"
            assert client.request("BLOCKHASH 1").startswith("OK 0x")
            monkeypatch.setattr(os, "pread", real_pread)  # the next code query scans the blob again
            assert client.request(f"CODE 0x{addr(1).hex()} 1") == f"OK 0x{body.hex()}"
    finally:
        server.stop()
        archive.close()


def read_lines(sock, count):
    """``count`` newline-terminated lines from a blocking socket."""
    data = b""
    while data.count(b"\n") < count:
        chunk = sock.recv(4096)
        assert chunk, f"connection closed after {data!r}"
        data += chunk
    return data.decode().splitlines()


def test_serve_answers_pipelined_requests_in_order(tmp_path):
    archive = serve_example_archive(tmp_path)
    server = QueryServer(archive)
    server.start()
    balance = f"BALANCE 0x{addr(0x123).hex()} 17"
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(f"WATERMARK\nBLOCKHASH 17\nnonsense\n{balance}\nWATERMARK\n".encode())
            assert read_lines(sock, 5) == [
                "OK 17",
                f"OK 0x{archive.block_hash(17).hex()}",
                "ERR badrequest unknown command or arity: nonsense",
                f"OK {archive.get_balance_at(addr(0x123), 17)}",
                "OK 17",
            ]
    finally:
        server.stop()
        archive.close()


def test_serve_answers_an_empty_line_a_short_address_and_an_unterminated_last_line(tmp_path):
    archive = serve_example_archive(tmp_path)
    server = QueryServer(archive)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(f"\nBALANCE 0x{bytes(19).hex()} 17\nWATERMARK".encode())
            sock.shutdown(socket.SHUT_WR)  # the last request has no newline when the input ends
            assert read_lines(sock, 3) == ["ERR badrequest empty request", "ERR badrequest expected 20 bytes, got 19", "OK 17"]
            assert sock.recv(4096) == b""
    finally:
        server.stop()
        archive.close()


def test_serve_answers_a_request_sent_byte_by_byte_once(tmp_path):
    archive = serve_example_archive(tmp_path)
    server = QueryServer(archive)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            for byte in b"WATERMARK\n":
                sock.sendall(bytes([byte]))
                time.sleep(0.002)
            sock.sendall(b"BLOCKHASH 17\n")
            # Had the server answered a fragment, or the line twice, the second answer would differ.
            assert read_lines(sock, 2) == ["OK 17", f"OK 0x{archive.block_hash(17).hex()}"]
    finally:
        server.stop()
        archive.close()


def test_serve_keeps_a_connection_that_was_reported_readable_with_nothing_to_read(tmp_path):
    archive = serve_example_archive(tmp_path)
    server = QueryServer(archive)  # not started: the test turns the loop's handler by hand
    ours, theirs = socket.socketpair()
    try:
        ours.setblocking(False)
        conn = server_module._Connection(ours)
        server._selector.register(ours, selectors.EVENT_READ, conn)
        server._serve(conn)  # select may report a socket readable whose recv then would block
        assert ours.fileno() != -1 and not conn.closing
        theirs.sendall(b"WATERMARK\n")
        server._serve(conn)
        theirs.settimeout(10)
        assert read_lines(theirs, 1) == ["OK 17"]
    finally:
        server.server_close()
        theirs.close()
        archive.close()


def test_serve_a_client_that_never_reads_delays_no_other_and_is_not_read(tmp_path, monkeypatch):
    from test_archive import diff

    archive = ArchiveDb(tmp_path / "db" / "archive")
    code = bytes(range(256)) * 64  # each answer is 32 KiB of hex, so unread answers soon fill the socket buffers
    archive.append_block(diff(1, AccountUpdate(address=addr(1), created=True, code=code)))
    archive.flush()
    handled = []
    real_handle = server_module.handle_request
    monkeypatch.setattr(server_module, "handle_request", lambda db, line: handled.append(line) or real_handle(db, line))
    server = QueryServer(archive)
    server.start()
    flood = f"CODE 0x{addr(1).hex()} 1\n".encode() * 10_000
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.setblocking(False)
            sent = 0
            with contextlib.suppress(BlockingIOError):
                while sent < len(flood):
                    sent += sock.send(flood[sent:])
            deadline = time.monotonic() + 10
            while True:  # until the server stops answering: its output to this client is stuck
                answered = len(handled)
                time.sleep(0.2)
                if len(handled) == answered:
                    break
                assert time.monotonic() < deadline, "the server kept answering a client that reads nothing"
            assert 0 < answered < 10_000
            (stuck,) = [key for key in list(server._selector.get_map().values()) if key.data is not None]
            assert stuck.events == selectors.EVENT_WRITE  # not polled for input while its answer is unsent
            assert stuck.data.outbox
            assert len(stuck.data.inbox) < 2 * MAX_REQUEST_BYTES
            with QueryClient(*server.address) as other:
                started = time.monotonic()
                assert other.request("WATERMARK") == "OK 1"
                assert time.monotonic() - started < 1
            assert len(handled) == answered + 1  # the other client's request only
    finally:
        server.stop()
        archive.close()


def test_stop_closes_open_connections_promptly(tmp_path):
    archive = serve_example_archive(tmp_path)
    server = QueryServer(archive)
    server.start()
    try:
        with QueryClient(*server.address) as idle, socket.create_connection(server.address, timeout=10) as partial:
            assert idle.request("WATERMARK") == "OK 17"
            partial.sendall(b"WATER")  # half a request
            time.sleep(0.05)
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 1
            assert partial.recv(100) == b""  # the server closed it
            with pytest.raises(ConnectionError):
                idle.request("WATERMARK")
    finally:
        archive.close()


def test_serve_command_stops_on_sigint(tmp_path):
    archive = serve_example_archive(tmp_path)
    archive.close()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-m", "flatstate", "serve", "--db-dir", str(tmp_path / "db"), "--listen", "127.0.0.1:0"],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        # A test run started in the background may ignore SIGINT; the child must not inherit that.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        line = child.stderr.readline()
        assert line.startswith("serving archive queries on "), line
        host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
        with QueryClient(host, int(port)) as client:
            assert client.request("WATERMARK") == "OK 17"
            child.send_signal(signal.SIGINT)
            assert child.wait(timeout=5) == 0
        assert child.stderr.read() == ""  # no traceback
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stderr.close()
    assert child.poll() == 0
