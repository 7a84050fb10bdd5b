import threading

import pytest

from fedrad.transport import TcpServerTransport, TransportClosed, connect_tcp


@pytest.fixture
def tcp_pair():
    listener = TcpServerTransport()
    client = connect_tcp(*listener.address)
    server = listener.accept(timeout=10)
    yield client, server
    client.close()
    server.close()
    listener.close()


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
