"""Federated round protocol: the round core, and the server and client that run it.

One communication round t: the server broadcasts the global weights, every
site trains exactly one local epoch and uploads its delta, and the server
applies the non-weighted update

    w(t+1) = w(t) + sum_i delta_i(t) / n_sites

with deltas summed in ascending site-id order so the result is bit-identical
regardless of arrival order. A checkpoint is written after every
aggregation; strict mode aborts (resumably) when any expected site misses
the round deadline, tolerant mode aggregates over the responders with
n = responder count. A closing exchange pushes the finished model to every
site, which persists it locally so evaluation never needs the server.

:class:`Federation` owns every server-side protocol decision; ``run_server``
drives it over a transport and ``simnet.run_simulated`` drives it on a
virtual clock, so the two cannot drift apart.
"""

from __future__ import annotations

import json
import logging
import queue
import struct
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import transport as tp
from . import wire
from .dataset import SiteDataset
from .fingerprint import DatasetFingerprint, average_fingerprints, compute_fingerprint, derive_config
from .learner import (TrainConfig, WEIGHT_LEN, build_training_matrix, save_weights,
                      site_train_seed, train_epochs)

logger = logging.getLogger(__name__)

AGG_STRICT = "strict"
AGG_TOLERANT = "tolerant"

# how long a site waits for the server's next message before giving up
CLIENT_RECV_TIMEOUT_S = 600.0

CHECKPOINT_MAGIC = b"FRCK"
CHECKPOINT_VERSION = 3
_CKPT_HEADER = struct.Struct("<4sH32sI")


class CheckpointMismatch(ValueError):
    """Checkpoint does not belong to this experiment."""


class ExperimentAborted(RuntimeError):
    """A run ended before the final model; carries resume information."""

    def __init__(self, reason: str, round_index: int | None = None,
                 checkpoint_path: Path | None = None):
        super().__init__(reason)
        self.reason = reason
        self.round_index = round_index
        self.checkpoint_path = checkpoint_path


def aggregate(w: np.ndarray, deltas: Mapping[str, np.ndarray]) -> np.ndarray:
    """Apply one non-weighted averaging update to the global weights.

    ``deltas`` maps site id to that site's weight delta; they are summed in
    ascending site-id order and the sum divided by their count.
    """
    w = np.asarray(w, dtype=np.float64)
    if not deltas:
        raise ValueError("no deltas to aggregate")
    acc = np.zeros_like(w)
    for site in sorted(deltas):
        delta = np.asarray(deltas[site], dtype=np.float64)
        if delta.shape != w.shape:
            raise ValueError(f"delta of {site} has shape {delta.shape}, expected {w.shape}")
        acc = acc + delta
    return w + acc / len(deltas)


@dataclass
class Checkpoint:
    """Resumable server state committed after every aggregation."""

    round_index: int
    weights: np.ndarray
    fp_avg: DatasetFingerprint
    experiment_seed: int
    experiment_digest: str

    def save(self, path: Path) -> Path:
        meta = {
            "round_index": self.round_index,
            "fp_avg": self.fp_avg.to_dict(),
            "experiment_seed": self.experiment_seed,
        }
        body = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("ascii")
        digest_raw = bytes.fromhex(self.experiment_digest)
        with open(path, "wb") as f:
            f.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                      digest_raw, len(body)))
            f.write(body)
            f.write(np.asarray(self.weights, dtype="<f8").tobytes())
        return Path(path)


def load_checkpoint(path: Path, expected_digest: str | None = None) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < _CKPT_HEADER.size:
        raise CheckpointMismatch(f"{path}: truncated header")
    magic, version, digest_raw, body_len = _CKPT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMismatch(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatch(f"{path}: unsupported version {version}")
    digest = digest_raw.hex()
    if expected_digest is not None and digest != expected_digest:
        raise CheckpointMismatch(
            f"{path}: checkpoint belongs to experiment {digest[:12]}..., "
            f"expected {expected_digest[:12]}...")
    body_end = _CKPT_HEADER.size + body_len
    if len(raw) < body_end:
        raise CheckpointMismatch(f"{path}: truncated metadata")
    n_weight_bytes = len(raw) - body_end
    if n_weight_bytes != 8 * WEIGHT_LEN:
        raise CheckpointMismatch(f"{path}: expected {8 * WEIGHT_LEN} weight bytes, "
                                 f"got {n_weight_bytes}")
    weights = np.frombuffer(raw[body_end:], dtype="<f8").copy()
    try:
        meta = json.loads(raw[_CKPT_HEADER.size:body_end].decode("ascii"))
        return Checkpoint(
            round_index=int(meta["round_index"]),
            weights=weights,
            fp_avg=DatasetFingerprint.from_dict(meta["fp_avg"]),
            experiment_seed=int(meta["experiment_seed"]),
            experiment_digest=digest,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointMismatch(f"{path}: bad metadata: {exc!r}") from exc


@dataclass
class ServerParams:
    """Everything the server side of an experiment needs."""

    expected_sites: tuple[str, ...]
    rounds: int
    train: TrainConfig
    experiment_seed: int
    experiment_digest: str
    aggregation: str = AGG_STRICT
    round_timeout_s: float = 60.0
    setup_timeout_s: float = 120.0
    checkpoint_dir: Path | None = None

    def __post_init__(self):
        if not self.expected_sites:
            raise ValueError("at least one expected site is required")
        if self.aggregation not in (AGG_STRICT, AGG_TOLERANT):
            raise ValueError(f"unknown aggregation mode {self.aggregation!r}")
        if len(self.experiment_digest) != 64 or bytes.fromhex(self.experiment_digest) is None:
            raise ValueError("experiment_digest must be 64 hex characters")
        self.expected_sites = tuple(sorted(self.expected_sites))


def checkpoint_path(checkpoint_dir: Path, round_index: int) -> Path:
    return Path(checkpoint_dir) / f"checkpoint-{round_index:04d}.frck"


def load_resume(path: Path | None, params: ServerParams) -> Checkpoint | None:
    """Load the checkpoint to resume from, refusing one of another experiment.

    Called before any site is contacted; the fingerprint digest is checked
    later, by :class:`Federation`, once the fingerprints are known.
    """
    if path is None:
        return None
    ckpt = load_checkpoint(path, expected_digest=params.experiment_digest)
    if ckpt.experiment_seed != params.experiment_seed:
        raise CheckpointMismatch("checkpoint was written with a different experiment seed")
    return ckpt


class Federation:
    """The server's round protocol, free of transport and clock.

    It averages the site fingerprints, derives the experiment configuration,
    commits a checkpoint at the start and after every round, and decides
    each round: which deltas are usable, whether a missing or failed site
    aborts the run (strict) or is excluded (tolerant), and the aggregate.
    Every abort is an :class:`ExperimentAborted` that points at the last
    committed checkpoint.
    """

    def __init__(self, params: ServerParams, fingerprints: Mapping[str, DatasetFingerprint],
                 resumed: Checkpoint | None = None):
        self.params = params
        self.fp_avg = average_fingerprints([fingerprints[s] for s in params.expected_sites])
        self.derived = derive_config(self.fp_avg, params.experiment_seed, params.train)
        self._ckpt_dir = Path(params.checkpoint_dir) if params.checkpoint_dir else None
        if self._ckpt_dir:
            self._ckpt_dir.mkdir(parents=True, exist_ok=True)
        if resumed is not None:
            if resumed.fp_avg.digest != self.fp_avg.digest:
                raise CheckpointMismatch(
                    "checkpoint fingerprint digest does not match the site data")
            self.weights = resumed.weights.copy()
            self.round_index = resumed.round_index
            logger.info("resumed at round %d", self.round_index)
        else:
            self.weights = self.derived.init_weights.copy()
            self.round_index = 0
        self.last_checkpoint = self._commit()
        self.config = wire.ConfigBroadcast(
            fp_avg=self.fp_avg, experiment_seed=params.experiment_seed,
            rounds=params.rounds, train=params.train,
            experiment_digest=params.experiment_digest)

    def rounds(self) -> range:
        """The rounds still to run."""
        return range(self.round_index + 1, self.params.rounds + 1)

    def _commit(self) -> Path | None:
        if self._ckpt_dir is None:
            return None
        ckpt = Checkpoint(
            round_index=self.round_index, weights=self.weights,
            fp_avg=self.fp_avg,
            experiment_seed=self.params.experiment_seed,
            experiment_digest=self.params.experiment_digest)
        return ckpt.save(checkpoint_path(self._ckpt_dir, self.round_index))

    def _abort(self, t: int, reason: str) -> ExperimentAborted:
        return ExperimentAborted(reason, round_index=t, checkpoint_path=self.last_checkpoint)

    def exclude(self, t: int, sites: Iterable[str], why: str) -> None:
        """Leave ``sites`` out of round ``t``: an abort in strict mode, a
        logged exclusion in tolerant mode."""
        if self.params.aggregation == AGG_STRICT:
            raise self._abort(t, f"round {t}: {why} from {sorted(sites)}")
        logger.warning("round %d: excluding %s (%s, tolerant mode)", t, sorted(sites), why)

    def close_round(self, t: int, received: Mapping[str, np.ndarray]) -> None:
        """Aggregate the deltas received for round ``t`` and commit it.

        A site that sent nothing, or a delta that is not ``WEIGHT_LEN``
        finite numbers, is excluded; with no usable delta at all the round
        aborts in either mode.
        """
        missing = set(self.params.expected_sites) - set(received)
        if missing:
            self.exclude(t, missing, "no delta")
        usable = {}
        for site in sorted(received):
            delta = np.asarray(received[site])
            if delta.shape == (WEIGHT_LEN,) and np.isfinite(delta).all():
                usable[site] = delta
            else:
                self.exclude(t, [site], "malformed or non-finite delta")
        if not usable:
            raise self._abort(t, f"round {t}: no usable delta")
        # n is the responder count: the full site count unless tolerant mode
        # excluded some.
        self.weights = aggregate(self.weights, usable)
        self.round_index = t
        self.last_checkpoint = self._commit()
        logger.info("round %d/%d aggregated over %d sites", t, self.params.rounds,
                    len(usable))


class _Inbox:
    """Tagged message stream from all connections to the coordinator."""

    def __init__(self):
        self.queue: queue.Queue = queue.Queue()

    def attach(self, conn: tp.Connection) -> None:
        threading.Thread(target=self._pump, args=(conn,), daemon=True).start()

    def _pump(self, conn: tp.Connection) -> None:
        while True:
            try:
                msg = conn.recv(timeout=None)
            except (tp.TransportClosed, tp.RecvTimeout, wire.ProtocolError) as exc:
                self.queue.put((conn, None, exc))
                return
            self.queue.put((conn, msg, None))

    def get(self, timeout: float | None):
        return self.queue.get(timeout=timeout)


class _Acceptor:
    def __init__(self, listener, inbox: _Inbox):
        self._listener = listener
        self._inbox = inbox
        self._stop = threading.Event()
        self._conns: list[tp.Connection] = []
        self._lock = threading.Lock()
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                conn = self._listener.accept(timeout=0.2)
            except tp.RecvTimeout:
                continue
            except tp.TransportClosed:
                return
            with self._lock:
                self._conns.append(conn)
            self._inbox.attach(conn)

    def close_all(self) -> None:
        self._stop.set()
        with self._lock:
            for conn in self._conns:
                conn.close()


def run_server(params: ServerParams, listener, *, resume: Path | None = None) -> np.ndarray:
    """Drive a federated experiment to its final model over a transport.

    ``listener`` is anything with ``accept(timeout)`` (TcpServerTransport or
    InProcessHub). ``resume`` continues from a checkpoint written by an
    earlier, interrupted run of the same experiment.

    An upload counts for the site registered on its connection; one that
    names another site is dropped. An ``Abort`` from a connection that never
    registered is ignored. In tolerant mode a round closes before its
    deadline once every site has uploaded or has no open connection.
    """
    expected = set(params.expected_sites)
    resumed = load_resume(resume, params)

    inbox = _Inbox()
    acceptor = _Acceptor(listener, inbox)
    site_conn: dict[str, tp.Connection] = {}
    conn_site: dict[int, str] = {}
    dead_conns: set[int] = set()

    def bind(conn: tp.Connection, site_id: str) -> bool:
        if site_id not in expected:
            try:
                conn.send(wire.Abort(f"unexpected site {site_id!r}"))
            except tp.TransportClosed:
                pass
            conn.close()
            return False
        site_conn[site_id] = conn
        conn_site[id(conn)] = site_id
        return True

    def awaited(received: Mapping[str, np.ndarray]) -> set[str]:
        """Sites the round still waits for. Tolerant mode gives up on a site
        whose connection has closed; one that re-registers is waited for."""
        pending = expected - set(received)
        if params.aggregation == AGG_TOLERANT:
            pending = {s for s in pending if id(site_conn[s]) not in dead_conns}
        return pending

    def broadcast(msg: wire.Message) -> None:
        for site in sorted(site_conn):
            try:
                site_conn[site].send(msg)
            except tp.TransportClosed:
                logger.warning("broadcast to %s failed (disconnected)", site)

    try:
        # Phase 1: registration and fingerprint collection from every site.
        fingerprints: dict[str, DatasetFingerprint] = {}
        deadline = time.monotonic() + params.setup_timeout_s
        while set(fingerprints) != expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExperimentAborted("setup timeout: missing fingerprints from "
                                        f"{sorted(expected - set(fingerprints))}", 0)
            try:
                conn, msg, _exc = inbox.get(timeout=remaining)
            except queue.Empty:
                continue
            if msg is None:
                dead_conns.add(id(conn))
            elif isinstance(msg, wire.Register):
                bind(conn, msg.site_id)
            elif isinstance(msg, wire.FingerprintSubmit):
                site = conn_site.get(id(conn))
                if site is not None:
                    fingerprints[site] = msg.fingerprint
            elif isinstance(msg, wire.Abort) and id(conn) in conn_site:
                raise ExperimentAborted(f"client abort during setup: {msg.reason}", 0)

        fed = Federation(params, fingerprints, resumed)
        broadcast(fed.config)

        # Phase 2: the round loop.
        for t in fed.rounds():
            broadcast(wire.RoundStart(round_index=t, weights=fed.weights))
            received: dict[str, np.ndarray] = {}
            deadline = time.monotonic() + params.round_timeout_s
            while awaited(received):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    conn, msg, _exc = inbox.get(timeout=remaining)
                except queue.Empty:
                    continue
                site = conn_site.get(id(conn))
                if msg is None:
                    dead_conns.add(id(conn))
                    if site is not None:
                        logger.warning("round %d: lost connection to %s", t, site)
                elif isinstance(msg, wire.Register):
                    # A restarted client re-registers mid-experiment: rebind it
                    # and replay the current configuration and round.
                    if bind(conn, msg.site_id):
                        try:
                            conn.send(fed.config)
                            conn.send(wire.RoundStart(round_index=t, weights=fed.weights))
                        except tp.TransportClosed:
                            logger.warning("round %d: replay to %s failed", t, msg.site_id)
                elif isinstance(msg, wire.DeltaUpload):
                    if msg.site_id != site:
                        logger.warning("round %d: dropping a delta labelled %r from the "
                                       "connection of %r", t, msg.site_id, site)
                    elif msg.round_index != t:
                        logger.debug("ignoring stale delta for round %d from %s",
                                     msg.round_index, site)
                    else:
                        received[site] = msg.delta
                elif isinstance(msg, wire.Abort) and site is not None:
                    fed.exclude(t, [site], f"site aborted: {msg.reason}")
            fed.close_round(t, received)
            broadcast(wire.CheckpointNotice(round_index=t))

        # Phase 3: final-model distribution round. Wait briefly for clients
        # to hang up so the broadcast is never cut off by our own close.
        broadcast(wire.FinalModel(weights=fed.weights))
        open_conns = {id(c) for c in site_conn.values()} - dead_conns
        deadline = time.monotonic() + 5.0
        while open_conns and time.monotonic() < deadline:
            try:
                conn, msg, _exc = inbox.get(timeout=deadline - time.monotonic())
            except (queue.Empty, ValueError):
                break
            if msg is None:
                open_conns.discard(id(conn))
        return fed.weights
    except ExperimentAborted as abort:
        logger.error("experiment aborted at round %s: %s", abort.round_index, abort.reason)
        broadcast(wire.Abort(abort.reason))
        raise
    finally:
        acceptor.close_all()


def _client_abort(conn: tp.Connection, reason: str) -> ExperimentAborted:
    """Tell the server why this site gives up, hang up, and build the abort."""
    try:
        conn.send(wire.Abort(reason))
    except tp.TransportClosed:
        pass
    conn.close()
    return ExperimentAborted(reason)


def run_client(dataset: SiteDataset, conn: tp.Connection, *,
               expected_digest: str | None = None,
               model_out: Path | None = None) -> np.ndarray:
    """Join an experiment as one site; returns the final global weights.

    The client registers, submits its training-data fingerprint, then for
    every round trains exactly one local epoch on the received weights and
    uploads the delta. The received final model is persisted to
    ``model_out`` so evaluation needs no server afterwards. Every failure,
    of the connection or of the server's messages, ends as
    :class:`ExperimentAborted`.
    """
    site_id = dataset.site_id
    if not dataset.train:
        raise ValueError(f"site {site_id} has no training samples")
    try:
        conn.send(wire.Register(site_id=site_id))
        conn.send(wire.FingerprintSubmit(fingerprint=compute_fingerprint(dataset.train)))
    except tp.TransportClosed as exc:
        raise ExperimentAborted(f"server connection lost: {exc}") from exc

    features = labels = None
    local_cfg: TrainConfig | None = None

    while True:
        try:
            msg = conn.recv(timeout=CLIENT_RECV_TIMEOUT_S)
        except (tp.TransportClosed, tp.RecvTimeout) as exc:
            raise ExperimentAborted(f"server connection lost: {exc}") from exc
        except wire.ProtocolError as exc:
            conn.close()
            raise ExperimentAborted(f"undecodable message from server: {exc}") from exc

        if (isinstance(msg, (wire.RoundStart, wire.FinalModel))
                and msg.weights.shape != (WEIGHT_LEN,)):
            raise _client_abort(conn, f"server sent {msg.weights.shape[0]} weights in "
                                      f"{type(msg).__name__}, expected {WEIGHT_LEN}")
        if isinstance(msg, wire.ConfigBroadcast):
            if expected_digest is not None and msg.experiment_digest != expected_digest:
                raise _client_abort(conn, f"config digest mismatch: server has "
                                          f"{msg.experiment_digest[:12]}..., site expects "
                                          f"{expected_digest[:12]}...")
            derived = derive_config(msg.fp_avg, msg.experiment_seed, msg.train)
            features, labels = build_training_matrix(dataset.train, derived.feature_config)
            local_cfg = replace(msg.train, epochs=1,
                                seed=site_train_seed(msg.train.seed, site_id))
        elif isinstance(msg, wire.RoundStart):
            if features is None or local_cfg is None:
                raise _client_abort(conn, "round started before configuration was received")
            trained = train_epochs(msg.weights, features, labels, local_cfg,
                                   start_epoch=msg.round_index)
            try:
                conn.send(wire.DeltaUpload(round_index=msg.round_index, site_id=site_id,
                                           delta=trained - msg.weights))
            except tp.TransportClosed as exc:
                raise ExperimentAborted(f"server connection lost: {exc}") from exc
        elif isinstance(msg, wire.CheckpointNotice):
            logger.debug("%s: round %d committed", site_id, msg.round_index)
        elif isinstance(msg, wire.FinalModel):
            if model_out is not None:
                save_weights(model_out, msg.weights)
            conn.close()
            return msg.weights
        elif isinstance(msg, wire.Abort):
            conn.close()
            raise ExperimentAborted(f"server aborted: {msg.reason}")
        else:
            logger.debug("%s: ignoring unexpected %s", site_id, type(msg).__name__)
