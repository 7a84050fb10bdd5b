"""Framed message connections carrying wire frames between server and sites.

Every connection is a stream socket wrapped in :class:`TcpConnection`: a
real TCP socket, or one end of a ``socket.socketpair`` handed out by
:class:`InProcessHub` for single-process experiments and tests. Both go
through the same framing and buffering, and expose blocking ``send``/``recv``
of decoded messages, so the protocol code never touches bytes.
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


class TcpConnection:
    """Blocking ``send``/``recv`` of whole messages over a stream socket."""

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
        payload = self._read_exact(wire.frame_payload_length(header), timeout)
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


class InProcessHub:
    """In-process 'network': each ``connect`` makes a socket pair, returns
    the client end and queues the server end for ``accept``."""

    def __init__(self):
        self._pending: queue.Queue = queue.Queue()

    def connect(self) -> TcpConnection:
        client, server = socket.socketpair()
        self._pending.put(TcpConnection(server))
        return TcpConnection(client)

    def accept(self, timeout: float | None = None) -> TcpConnection:
        try:
            conn = self._pending.get(timeout=timeout)
        except queue.Empty as exc:
            raise RecvTimeout() from exc
        if conn is None:
            raise TransportClosed("hub closed")
        return conn

    def close(self) -> None:
        self._pending.put(None)
