import threading
import time

import numpy as np
import pytest

from fedrad import wire
from fedrad.transport import (InProcessHub, TcpServerTransport, TransportClosed,
                              connect_tcp)


@pytest.fixture(params=[TcpServerTransport, InProcessHub], ids=["tcp", "in-process"])
def tcp_pair(request):
    listener = request.param()
    client = (connect_tcp(*listener.address) if isinstance(listener, TcpServerTransport)
              else listener.connect())
    server = listener.accept(timeout=10)
    yield client, server
    client.close()
    server.close()
    listener.close()


def _round_start() -> wire.RoundStart:
    return wire.RoundStart(round_index=3, weights=np.linspace(-1.0, 1.0, 16))


def _same(a: wire.RoundStart, b: wire.Message) -> bool:
    return (isinstance(b, wire.RoundStart) and b.round_index == a.round_index
            and np.array_equal(b.weights, a.weights))


def test_frame_written_one_byte_at_a_time_decodes(tcp_pair):
    client, server = tcp_pair
    msg = _round_start()
    out = {}
    reader = threading.Thread(target=lambda: out.update(msg=server.recv(timeout=10)))
    reader.start()
    for byte in wire.encode_frame(msg):
        client._sock.sendall(bytes([byte]))
        time.sleep(0.001)  # the blocked reader wakes on every partial header and payload
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert _same(msg, out["msg"])


def test_two_frames_in_one_sendall_decode_as_two_messages(tcp_pair):
    client, server = tcp_pair
    first, second = _round_start(), wire.CheckpointNotice(round_index=3)
    client._sock.sendall(wire.encode_frame(first) + wire.encode_frame(second))
    assert _same(first, server.recv(timeout=10))
    got = server.recv(timeout=10)
    assert isinstance(got, wire.CheckpointNotice) and got.round_index == 3


def test_recv_on_closed_connection_is_transport_closed(tcp_pair):
    _client, server = tcp_pair
    server.close()
    with pytest.raises(TransportClosed):
        server.recv(timeout=1.0)


def test_close_from_another_thread_ends_a_blocked_recv(tcp_pair):
    _client, server = tcp_pair
    out = {}

    def pump():
        try:
            server.recv(timeout=None)
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            out["exc"] = exc

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    reader.join(timeout=0.2)  # let it block in recv
    server.close()
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert isinstance(out.get("exc"), TransportClosed)


def test_accept_on_closed_listener_is_transport_closed():
    listener = TcpServerTransport()
    listener.close()
    with pytest.raises(TransportClosed):
        listener.accept(timeout=1.0)
