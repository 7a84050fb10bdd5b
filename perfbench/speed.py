"""Machine-speed references: fixed kernels timed right before and after every
timed operation of a run.

The kernels use no fedrad code, so their times move only with the machine.
Every timed end-to-end metric is built from operation wall times scaled by
``NOMINAL_S / mean(reference before, reference after)``: it reads as
seconds on a machine whose reference takes NOMINAL_S.

* ``reference_s`` mixes what the single-threaded workloads spend their time
  on: small numpy matrix products and softmax as in SGD and forward passes,
  the distance transform, dict and JSON work in pure Python.
* ``loopback_s`` mirrors one federation round: a server thread and two
  client threads in one process exchange length-prefixed frames over
  loopback TCP, each client takes one small softmax SGD step, and the server
  averages the uploads and writes a small file per round.
* ``federation_reference_s``, the reference of the TCP workload, is the
  geometric mean of the two: a federation is part computation, part
  thread hand-offs over sockets, and the machine's drift moves the two
  parts differently.
"""

from __future__ import annotations

import json
import math
import os
import socket
import struct
import tempfile
import threading
import time

NOMINAL_S = 0.05
LOOPBACK_ROUNDS = 60

_FRAME = struct.Struct("<4sI")


def reference_s() -> float:
    """Wall time of one pass of the fixed CPU kernel."""
    import numpy as np
    from scipy import ndimage
    rng = np.random.default_rng(0)
    feats, w = rng.random((2048, 4)), rng.random((4, 4))
    grid = rng.random((16, 16, 16)) > 0.6
    t0 = time.perf_counter()
    for _ in range(300):
        y = feats[rng.integers(0, 2048, 256)] @ w
        y -= y.max(axis=1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=1, keepdims=True)
    for _ in range(18):
        ndimage.distance_transform_edt(~grid, sampling=(2.0, 1.0, 1.0))
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 101] = counts.get(i % 101, 0) + i
    json.dumps([{"k": i, "v": str(i)} for i in range(4500)])
    return time.perf_counter() - t0


class _Peer:
    """One end of a framed loopback connection."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buf = b""

    def send(self, payload: bytes) -> None:
        self.sock.sendall(_FRAME.pack(b"PBK1", len(payload)) + payload)

    def _fill(self, n: int) -> None:
        while len(self.buf) < n:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("loopback peer closed")
            self.buf += chunk

    def recv(self) -> bytes:
        self._fill(_FRAME.size)
        _, n = _FRAME.unpack(self.buf[:_FRAME.size])
        self._fill(_FRAME.size + n)
        out, self.buf = self.buf[_FRAME.size:_FRAME.size + n], self.buf[_FRAME.size + n:]
        return out


def loopback_s(scratch_dir: str) -> float:
    """Wall time of LOOPBACK_ROUNDS rounds of the fixed loopback kernel."""
    import numpy as np
    feats = np.random.default_rng(0).random((2048, 16))
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def client(seed: int) -> None:
        peer = _Peer(socket.create_connection(("127.0.0.1", port)))
        rng = np.random.default_rng(seed)
        with peer.sock:
            while payload := peer.recv():
                w = np.frombuffer(payload, dtype="<f8").reshape(16, 4)
                x = feats[rng.integers(0, 2048, 256)]
                y = x @ w
                y -= y.max(axis=1, keepdims=True)
                np.exp(y, out=y)
                y /= y.sum(axis=1, keepdims=True)
                peer.send((w - 0.1 * (x.T @ y) / 256).astype("<f8").tobytes())

    threads = [threading.Thread(target=client, args=(s,), daemon=True) for s in (1, 2)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    with listener, tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        peers = [_Peer(listener.accept()[0]) for _ in threads]
        try:
            w = np.zeros(64)
            for i in range(LOOPBACK_ROUNDS):
                for peer in peers:
                    peer.send(w.astype("<f8").tobytes())
                w = sum(np.frombuffer(p.recv(), dtype="<f8") for p in peers) / len(peers)
                with open(os.path.join(tmp, f"round{i}"), "wb") as f:
                    f.write(json.dumps({"round": i, "sites": len(peers)}).encode("ascii"))
                    f.write(w.tobytes())
            for peer in peers:
                peer.send(b"")
        finally:
            for peer in peers:
                peer.sock.close()
            for t in threads:
                t.join()
    return time.perf_counter() - t0


def federation_reference_s(scratch_dir: str) -> float:
    """Geometric mean of the CPU and the loopback kernel."""
    return math.sqrt(reference_s() * loopback_s(scratch_dir))


class Scaler:
    """Scales the wall time of each operation by the kernel timed around it.

    The kernel runs once to warm up, once at the start, and once after every
    operation; the sample after one operation is the sample before the next.
    """

    def __init__(self, kernel=reference_s):
        self.kernel = kernel
        kernel()
        self.samples = [kernel()]

    def scale(self) -> float:
        """The factor for the operation that just ended."""
        before = self.samples[-1]
        self.samples.append(self.kernel())
        return NOMINAL_S / ((before + self.samples[-1]) / 2)
