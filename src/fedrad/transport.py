"""Pluggable transports carrying wire frames between server and sites.

Two implementations: real TCP sockets, and an in-process pair of queues for
single-process experiments and tests. Both expose blocking ``send``/``recv``
of decoded messages; framing happens here so the protocol code never touches
bytes.
"""

from __future__ import annotations

import queue
import socket
import threading

from . import wire


class TransportClosed(Exception):
    """The peer went away (clean close or broken connection)."""


class RecvTimeout(Exception):
    """No message arrived within the requested timeout."""


class Connection:
    def send(self, msg: wire.Message) -> None:
        raise NotImplementedError

    def recv(self, timeout: float | None = None) -> wire.Message:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class TcpConnection(Connection):
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = b""
        self._send_lock = threading.Lock()

    def send(self, msg: wire.Message) -> None:
        data = wire.encode_frame(msg)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc

    def _read_exact(self, n: int, timeout: float | None) -> bytes:
        # settimeout fails too on a socket that another thread has closed
        try:
            self._sock.settimeout(timeout)
            while len(self._buf) < n:
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise TransportClosed("connection closed by peer")
                self._buf += chunk
        except socket.timeout as exc:
            raise RecvTimeout() from exc
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def recv(self, timeout: float | None = None) -> wire.Message:
        header = self._read_exact(wire.FRAME_HEADER_SIZE, timeout)
        magic, _version, _type, payload_len = wire._FRAME_HEADER.unpack(header)
        if magic != wire.MAGIC:
            raise wire.BadMagic(f"bad magic {magic!r}")
        if payload_len > wire.MAX_PAYLOAD:
            raise wire.Oversized(f"declared payload of {payload_len} bytes")
        payload = self._read_exact(payload_len, timeout)
        return wire.decode_frame(header + payload)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpServerTransport:
    """Listening socket accepting site connections."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def accept(self, timeout: float | None = None) -> TcpConnection:
        try:
            self._sock.settimeout(timeout)
            conn, _ = self._sock.accept()
        except socket.timeout as exc:
            raise RecvTimeout() from exc
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return TcpConnection(conn)

    def close(self) -> None:
        self._sock.close()


def connect_tcp(host: str, port: int, timeout: float = 10.0) -> TcpConnection:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpConnection(sock)


class _QueueConnection(Connection):
    """One half of an in-process connection; messages round-trip the codec
    so the in-process transport exercises the same byte format as TCP."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = threading.Event()

    def send(self, msg: wire.Message) -> None:
        if self._closed.is_set():
            raise TransportClosed("connection closed")
        self._outbox.put(wire.encode_frame(msg))

    def recv(self, timeout: float | None = None) -> wire.Message:
        if self._closed.is_set():
            raise TransportClosed("connection closed")
        try:
            data = self._inbox.get(timeout=timeout)
        except queue.Empty as exc:
            raise RecvTimeout() from exc
        if data is None:
            raise TransportClosed("connection closed by peer")
        return wire.decode_frame(data)

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            self._outbox.put(None)


class InProcessHub:
    """In-process 'network': clients connect, the server accepts pairs."""

    def __init__(self):
        self._pending: queue.Queue = queue.Queue()

    def connect(self) -> _QueueConnection:
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        client = _QueueConnection(inbox=b_to_a, outbox=a_to_b)
        server = _QueueConnection(inbox=a_to_b, outbox=b_to_a)
        self._pending.put(server)
        return client

    def accept(self, timeout: float | None = None) -> _QueueConnection:
        try:
            conn = self._pending.get(timeout=timeout)
        except queue.Empty as exc:
            raise RecvTimeout() from exc
        if conn is None:
            raise TransportClosed("hub closed")
        return conn

    def close(self) -> None:
        self._pending.put(None)
