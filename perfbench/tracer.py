"""In-memory span tracer that wraps fedrad's public functions from outside.

Nothing in ``src/`` is modified: :func:`install` replaces each traced
function at every module attribute it is bound under (``train_epochs``, for
example, is imported into ``experiment``, ``simnet`` and ``fedproto``), so
calls through any of those names are recorded. Transport and wire are timed
at their interface by handing ``run_server``/``run_client`` the proxies
below.

A span is ``(id, name index, start ns, end ns, parent id, op)``. ``op`` is
the operation the span belongs to (a setup, or a stage/pass/round of the
timed loop), set by child.py through :meth:`Tracer.set_op`. Spans stay in
memory and are written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (metric prefix, module, attribute path) of every traced function.
FUNCTIONS = (
    ("learner.loss_and_grad", "fedrad.learner", "loss_and_grad"),
    ("learner.train_epochs", "fedrad.learner", "train_epochs"),
    ("learner.forward", "fedrad.learner", "forward"),
    ("learner.extract_features", "fedrad.learner", "extract_features"),
    ("learner.ensemble_predict", "fedrad.learner", "ensemble_predict"),
    ("simnet.run_simulated", "fedrad.simnet", "run_simulated"),
    ("experiment.train_local_models", "fedrad.experiment", "train_local_models"),
    ("metrics.score_pair", "fedrad.metrics", "score_pair"),
    ("evalrank.run_scenario", "fedrad.evalrank", "run_scenario"),
    ("fedproto.checkpoint_save", "fedrad.fedproto", "Checkpoint.save"),
    ("fedproto.aggregate", "fedrad.fedproto", "aggregate"),
    ("wire.encode_frame", "fedrad.wire", "encode_frame"),
    ("wire.decode_frame", "fedrad.wire", "decode_frame"),
    ("siteio.load_site_dataset", "fedrad.siteio", "load_site_dataset"),
    ("siteio.save_site_dataset", "fedrad.siteio", "save_site_dataset"),
    ("dataset.generate_site_dataset", "fedrad.dataset", "generate_site_dataset"),
    ("fingerprint.compute_fingerprint", "fedrad.fingerprint", "compute_fingerprint"),
    ("validation.validate_site_dir", "fedrad.validation", "validate_site_dir"),
)

# The distance transform is scipy's; it is counted where fedrad.metrics
# calls it, whether through ``ndimage.distance_transform_edt`` or a direct
# import of the function.
EDT = "metrics.edt"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.wire_bytes: list[tuple[int, str, int]] = []  # (op, message class, bytes)
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def name_index(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def set_op(self, op: int) -> None:
        """Tag the calling thread's following spans with operation ``op``."""
        self._local.op = op

    def current_op(self) -> int:
        return getattr(self._local, "op", -1)

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, ix: int, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        me = next(self._ids)
        stack.append(me)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((me, ix, start, end, parent, self.current_op()))

    def wrap(self, name: str, fn):
        ix = self.name_index(name)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(ix, fn, args, kwargs)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        return self.call(self.name_index(name), fn, args, kwargs)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": self.spans,
                       "wire_bytes": self.wire_bytes, "missing": self.missing}, f,
                      separators=(",", ":"))


def _rebind_everywhere(original, replacement) -> int:
    """Replace ``original`` at every fedrad module attribute bound to it."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fedrad" or mod_name.startswith("fedrad.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


class _ModuleView:
    """Stands in for a module object, overriding some of its attributes."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


def install(tracer: Tracer, functions=FUNCTIONS) -> None:
    """Wrap every function in ``functions`` and the EDT; record the missing ones.

    Call after ``fedrad.cli`` (which imports every module) has been imported.
    """
    for name, mod_name, path in functions:
        try:
            mod = importlib.import_module(mod_name)
        except ImportError:
            tracer.missing.append(name)
            continue
        owner, _, attr = path.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        fn = getattr(holder, attr, None) if holder is not None else None
        if not callable(fn):
            tracer.missing.append(name)
            continue
        traced = tracer.wrap(name, fn)
        if name == "wire.encode_frame":
            traced = _count_wire_bytes(tracer, traced)
        if owner:
            setattr(holder, attr, traced)
        elif _rebind_everywhere(fn, traced) == 0:
            tracer.missing.append(name)

    _install_edt(tracer)


def _count_wire_bytes(tracer: Tracer, traced_encode):
    @functools.wraps(traced_encode)
    def encode(msg):
        frame = traced_encode(msg)
        tracer.wire_bytes.append((tracer.current_op(), type(msg).__name__, len(frame)))
        return frame
    return encode


def _install_edt(tracer: Tracer) -> None:
    try:
        metrics = importlib.import_module("fedrad.metrics")
        from scipy import ndimage
    except ImportError:
        tracer.missing.append(EDT)
        return
    edt = ndimage.distance_transform_edt
    traced = tracer.wrap(EDT, edt)
    found = False
    for attr, value in list(vars(metrics).items()):
        if value is edt:
            setattr(metrics, attr, traced)
            found = True
        elif value is ndimage:
            setattr(metrics, attr, _ModuleView(ndimage, {"distance_transform_edt": traced}))
            found = True
    if not found:
        tracer.missing.append(EDT)


class TracedConnection:
    """Connection proxy timing ``send`` and the wait inside ``recv``.

    Spans on it are tagged with the round of the message they carry, or with
    ``base_op`` (the federation) for messages outside any round; this also
    tags the server's reader threads, which the benchmark does not start.
    """

    def __init__(self, tracer: Tracer, conn, base_op: int):
        self._tracer = tracer
        self._conn = conn
        self._base_op = base_op
        self._send_ix = tracer.name_index("transport.send")
        self._recv_ix = tracer.name_index("transport.recv")

    def _tag(self, msg) -> None:
        self._tracer.set_op(self._base_op + getattr(msg, "round_index", 0))

    def send(self, msg) -> None:
        self._tag(msg)
        self._tracer.call(self._send_ix, self._conn.send, (msg,), {})

    def recv(self, timeout=None):
        self._tracer.set_op(self._base_op)
        return self._tracer.call(self._recv_ix, self._recv_tagged, (timeout,), {})

    def _recv_tagged(self, timeout):
        msg = self._conn.recv(timeout)
        self._tag(msg)
        return msg

    def close(self) -> None:
        self._conn.close()


class TracedListener:
    """Listener proxy handing out traced connections."""

    def __init__(self, tracer: Tracer, listener, base_op: int):
        self._tracer = tracer
        self._listener = listener
        self._base_op = base_op

    def accept(self, timeout=None):
        return TracedConnection(self._tracer, self._listener.accept(timeout), self._base_op)

    def close(self) -> None:
        self._listener.close()
