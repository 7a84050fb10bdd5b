"""Federated round protocol: the round core, and the server and client that run it.

One communication round t: the server broadcasts the global weights, every
site trains exactly one local epoch and uploads its delta, and the server
applies the non-weighted update

    w(t+1) = w(t) + sum_i delta_i(t) / n_sites

with deltas summed in ascending site-id order so the result is bit-identical
regardless of arrival order. A checkpoint is committed after every
aggregation; strict mode aborts (resumably) when any expected site misses
the round deadline, tolerant mode aggregates over the responders with
n = responder count. A closing exchange pushes the finished model to every
site, which persists it locally so evaluation never needs the server.

A run keeps its checkpoints in one append-only log, ``checkpoints.frck``:
one FRCK version 4 record per commit (header, JSON metadata, weights, then
the sha256 of those bytes). A crash mid-append tears only the last record,
which reading skips, so a resumed run continues from the last committed
round. The reader tells the two apart by the record's own metadata: a torn
append's metadata is incomplete or has the declared length, so a record the
log ends inside whose metadata is whole with another length had its length
field corrupted, and is refused.

:class:`Federation` owns every server-side protocol decision and
:class:`Site` the local epoch a site trains each round. ``run_server`` and
``run_client`` drive them over a transport and ``simnet.run_simulated``
drives both on a virtual clock, so the two cannot drift apart. Every abort
is a :class:`fedrad.config.ExperimentAborted`, which this module re-exports.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import queue
import struct
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import transport as tp
from . import wire
from .config import AGG_STRICT, AGG_TOLERANT, ExperimentAborted, ServerParams
from .dataset import Sample, SiteDataset
from .fingerprint import DatasetFingerprint, average_fingerprints, derive_config, site_fingerprint
from .learner import WEIGHT_LEN, build_training_matrix, save_weights, site_train_seed, train_epochs
from .seeding import from_dict, parse_json, to_dict

logger = logging.getLogger(__name__)


# how long a site waits for the server's next message before giving up
CLIENT_RECV_TIMEOUT_S = 600.0

CHECKPOINT_MAGIC = b"FRCK"
CHECKPOINT_VERSION = 4
CHECKPOINT_LOG = "checkpoints.frck"
_CKPT_HEADER = struct.Struct("<4sH32sI")
_WEIGHT_BYTES = 8 * WEIGHT_LEN
_SHA_BYTES = 32


class CheckpointMismatch(ValueError):
    """Checkpoint does not belong to this experiment."""


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
        """Append this checkpoint as one record to the log at ``path``,
        creating the file when it is missing."""
        meta = {
            "round_index": self.round_index,
            "fp_avg": to_dict(self.fp_avg),
            "experiment_seed": self.experiment_seed,
        }
        body = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("ascii")
        record = b"".join((
            _CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              bytes.fromhex(self.experiment_digest), len(body)),
            body, np.asarray(self.weights, dtype="<f8").tobytes()))
        # one write per record, so a crash can tear only the record being appended
        with open(path, "ab") as f:
            f.write(record + hashlib.sha256(record).digest())
        return Path(path)


def _read_record(raw: bytes, start: int, where: str,
                 expected_digest: str | None) -> tuple[Checkpoint, int] | None:
    """The record at ``raw[start:]`` and the offset after it; ``None`` when
    the bytes end inside the record."""
    head_end = start + _CKPT_HEADER.size
    if len(raw) < head_end:
        return None
    magic, version, digest_raw, body_len = _CKPT_HEADER.unpack_from(raw, start)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMismatch(f"{where}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatch(f"{where}: unsupported version {version}")
    digest = digest_raw.hex()
    if expected_digest is not None and digest != expected_digest:
        raise CheckpointMismatch(
            f"{where}: checkpoint belongs to experiment {digest[:12]}..., "
            f"expected {expected_digest[:12]}...")
    body_end = head_end + body_len
    weights_end = body_end + _WEIGHT_BYTES
    end = weights_end + _SHA_BYTES
    if len(raw) < end:
        # a torn append is a prefix of its record: its metadata is either
        # incomplete or whole with the declared length
        try:
            _, meta_len = json.JSONDecoder().raw_decode(raw[head_end:].decode("latin-1"))
        except (ValueError, RecursionError):  # deep nesting raises RecursionError
            return None
        if meta_len == body_len:
            return None
        raise CheckpointMismatch(
            f"{where}: metadata length {body_len} runs past the end of the log, "
            f"but the metadata is whole with length {meta_len}")
    if hashlib.sha256(raw[start:weights_end]).digest() != raw[weights_end:end]:
        raise CheckpointMismatch(f"{where}: sha256 mismatch")
    weights = np.frombuffer(raw, dtype="<f8", count=WEIGHT_LEN, offset=body_end).copy()
    if not np.isfinite(weights).all():
        raise CheckpointMismatch(f"{where}: non-finite weights")
    try:
        meta = parse_json(raw[head_end:body_end], "metadata")
        ckpt = Checkpoint(
            round_index=from_dict(int, meta["round_index"], "round_index"),
            weights=weights,
            fp_avg=from_dict(DatasetFingerprint, meta["fp_avg"], "fp_avg"),
            experiment_seed=from_dict(int, meta["experiment_seed"], "experiment_seed"),
            experiment_digest=digest,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointMismatch(f"{where}: bad metadata: {exc!r}") from exc
    return ckpt, end


def read_checkpoints(path: Path, expected_digest: str | None = None) -> list[Checkpoint]:
    """Every complete record of the checkpoint log at ``path``, in order.

    Each record must be an FRCK version 4 record of one experiment
    (``expected_digest`` when given) whose sha256 trailer matches it. A
    final record the file ends inside is the append of a process that died
    mid-write: it is skipped with a warning, unless its JSON metadata is
    whole with another length than the header declares; then the length
    field is wrong and the record is a mismatch, not a torn append. A log
    without a complete record is refused.
    """
    raw = Path(path).read_bytes()
    records: list[Checkpoint] = []
    start = 0
    while start < len(raw):
        read = _read_record(raw, start, f"{path}: record {len(records)}", expected_digest)
        if read is None:
            logger.warning("%s: skipping an incomplete final record (%d bytes)",
                           path, len(raw) - start)
            break
        ckpt, start = read
        records.append(ckpt)
        expected_digest = ckpt.experiment_digest
    if not records:
        raise CheckpointMismatch(f"{path}: no complete checkpoint record")
    return records


def load_checkpoint(path: Path, expected_digest: str | None = None) -> Checkpoint:
    """The last complete record of the checkpoint log at ``path``."""
    return read_checkpoints(path, expected_digest)[-1]


def checkpoint_log(checkpoint_dir: Path) -> Path:
    return Path(checkpoint_dir) / CHECKPOINT_LOG


def load_resume(path: Path | None, params: ServerParams) -> Checkpoint | None:
    """Load the last committed checkpoint of the log to resume from,
    refusing one of another experiment.

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
    Every abort is an :class:`ExperimentAborted` that points at the
    checkpoint log, whose last record is the last committed round.

    The log is ``checkpoints.frck`` in ``params.checkpoint_dir``. The start
    record replaces any earlier log whole, through a temp file, so a run
    never appends after another run's torn tail; each round then appends
    one record.
    """

    def __init__(self, params: ServerParams, fingerprints: Mapping[str, DatasetFingerprint],
                 resumed: Checkpoint | None = None):
        self.params = params
        self.fp_avg = average_fingerprints([fingerprints[s] for s in params.expected_sites])
        self.derived = derive_config(self.fp_avg, params.experiment_seed)
        self.checkpoint_log = None
        if params.checkpoint_dir:
            Path(params.checkpoint_dir).mkdir(parents=True, exist_ok=True)
            self.checkpoint_log = checkpoint_log(params.checkpoint_dir)
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
        self._excluded: dict[int, set[str]] = {}  # round -> sites already left out of it
        if self.checkpoint_log is not None:
            tmp = self.checkpoint_log.with_name(CHECKPOINT_LOG + ".tmp")
            tmp.unlink(missing_ok=True)
            self._commit(tmp)
            os.replace(tmp, self.checkpoint_log)
        self.config = wire.ConfigBroadcast(
            fp_avg=self.fp_avg, experiment_seed=params.experiment_seed,
            rounds=params.rounds, train=params.train,
            experiment_digest=params.experiment_digest)

    def rounds(self) -> range:
        """The rounds still to run."""
        return range(self.round_index + 1, self.params.rounds + 1)

    def _commit(self, path: Path) -> None:
        Checkpoint(round_index=self.round_index, weights=self.weights, fp_avg=self.fp_avg,
                   experiment_seed=self.params.experiment_seed,
                   experiment_digest=self.params.experiment_digest).save(path)

    def _abort(self, t: int, reason: str) -> ExperimentAborted:
        return ExperimentAborted(reason, round_index=t, checkpoint_path=self.checkpoint_log)

    def exclude(self, t: int, sites: Iterable[str], why: str) -> None:
        """Leave ``sites`` out of round ``t``: an abort in strict mode, a
        logged exclusion in tolerant mode."""
        sites = sorted(sites)
        if self.params.aggregation == AGG_STRICT:
            raise self._abort(t, f"round {t}: {why} from {sites}")
        logger.warning("round %d: excluding %s (%s, tolerant mode)", t, sites, why)
        self._excluded.setdefault(t, set()).update(sites)

    def close_round(self, t: int, received: Mapping[str, np.ndarray]) -> None:
        """Aggregate the deltas received for round ``t`` and commit it.

        A site that sent nothing, or a delta that is not ``WEIGHT_LEN``
        finite numbers, is excluded, unless it already was in round ``t``;
        with no usable delta at all the round aborts in either mode.
        """
        missing = set(self.params.expected_sites) - set(received) - self._excluded.get(t, set())
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
        if self.checkpoint_log is not None:
            self._commit(self.checkpoint_log)
        logger.info("round %d/%d aggregated over %d sites", t, self.params.rounds,
                    len(usable))


class _Inbox:
    """Accepts every connection the listener offers and pumps all of them
    into one stream of ``(conn, msg)`` pairs; ``msg`` is None once ``conn``
    has closed or sent an undecodable frame."""

    def __init__(self, listener):
        self._listener = listener
        self._queue: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._conns: list[tp.TcpConnection] = []
        self._lock = threading.Lock()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                conn = self._listener.accept(timeout=0.2)
            except tp.RecvTimeout:
                continue
            except tp.TransportClosed:
                return
            with self._lock:
                self._conns.append(conn)
            threading.Thread(target=self._pump, args=(conn,), daemon=True).start()

    def _pump(self, conn: tp.TcpConnection) -> None:
        while True:
            try:
                msg = conn.recv(timeout=None)
            except (tp.TransportClosed, tp.RecvTimeout, wire.ProtocolError):
                self._queue.put((conn, None))
                return
            self._queue.put((conn, msg))

    def messages(self, timeout_s: float, wanted: Callable[[], object]
                 ) -> Iterator[tuple[tp.TcpConnection, wire.Message | None]]:
        """Yield ``(conn, msg)`` pairs while ``wanted()`` is true, for at
        most ``timeout_s`` seconds."""
        deadline = time.monotonic() + timeout_s
        while wanted():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            try:
                yield self._queue.get(timeout=remaining)
            except queue.Empty:
                pass

    def close(self) -> None:
        self._stop.set()
        with self._lock:
            for conn in self._conns:
                conn.close()


def run_server(params: ServerParams, listener, *, resume: Path | None = None) -> np.ndarray:
    """Drive a federated experiment to its final model over a transport.

    ``listener`` is anything with ``accept(timeout)`` (TcpServerTransport or
    InProcessHub). ``resume`` is the checkpoint log of an earlier,
    interrupted run of the same experiment; the run continues from its last
    committed round.

    An upload counts for the site registered on its connection; one that
    names another site is dropped. An ``Abort`` from a connection that never
    registered is ignored. In tolerant mode a round closes before its
    deadline once every site has uploaded or has no open connection.
    """
    expected = set(params.expected_sites)
    resumed = load_resume(resume, params)

    inbox = _Inbox(listener)
    site_conn: dict[str, tp.TcpConnection] = {}
    conn_site: dict[int, str] = {}
    dead_conns: set[int] = set()

    def bind(conn: tp.TcpConnection, site_id: str) -> bool:
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
        for conn, msg in inbox.messages(params.setup_timeout_s,
                                        lambda: set(fingerprints) != expected):
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
        if set(fingerprints) != expected:
            raise ExperimentAborted("setup timeout: missing fingerprints from "
                                    f"{sorted(expected - set(fingerprints))}", 0)

        fed = Federation(params, fingerprints, resumed)
        broadcast(fed.config)

        # Phase 2: the round loop.
        for t in fed.rounds():
            broadcast(wire.RoundStart(round_index=t, weights=fed.weights))
            received: dict[str, np.ndarray] = {}
            for conn, msg in inbox.messages(params.round_timeout_s,
                                            lambda: awaited(received)):
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
        for conn, msg in inbox.messages(5.0, lambda: open_conns):
            if msg is None:
                open_conns.discard(id(conn))
        return fed.weights
    except ExperimentAborted as abort:
        logger.error("experiment aborted at round %s: %s", abort.round_index, abort.reason)
        broadcast(wire.Abort(abort.reason))
        raise
    finally:
        inbox.close()


class Site:
    """A site's half of the round protocol, configured by the server's
    ``ConfigBroadcast``; ``run_client`` and ``simnet.run_simulated`` both
    train through it."""

    def __init__(self, site_id: str, train_samples: Sequence[Sample],
                 config: wire.ConfigBroadcast):
        derived = derive_config(config.fp_avg, config.experiment_seed)
        self.features, self.labels = build_training_matrix(train_samples,
                                                           derived.feature_config)
        self.train = replace(config.train, epochs=1,
                             seed=site_train_seed(config.train.seed, site_id))

    def delta(self, w: np.ndarray, t: int) -> np.ndarray:
        """Round ``t``'s delta from global weights ``w``: one local epoch,
        minus ``w``. Raises ``ValueError`` when the epoch fails."""
        return train_epochs(w, self.features, self.labels, self.train, start_epoch=t) - w


def _client_abort(conn: tp.TcpConnection, reason: str) -> ExperimentAborted:
    """Tell the server why this site gives up, and build the abort."""
    try:
        conn.send(wire.Abort(reason))
    except tp.TransportClosed:
        pass
    return ExperimentAborted(reason)


def run_client(dataset: SiteDataset, conn: tp.TcpConnection, *,
               expected_digest: str | None = None,
               model_out: Path | None = None) -> np.ndarray:
    """Join an experiment as one site; returns the final global weights.

    The client registers, submits its training-data fingerprint, then for
    every round trains exactly one local epoch on the received weights and
    uploads the delta. The received final model is persisted to
    ``model_out`` so evaluation needs no server afterwards. Every failure,
    of the connection, of the server's messages or of a local epoch, ends
    as :class:`ExperimentAborted`.
    """
    site_id = dataset.site_id
    fingerprint = site_fingerprint(site_id, dataset.train)
    site: Site | None = None
    try:
        conn.send(wire.Register(site_id=site_id))
        conn.send(wire.FingerprintSubmit(fingerprint=fingerprint))
        while True:
            msg = conn.recv(timeout=CLIENT_RECV_TIMEOUT_S)
            if (isinstance(msg, (wire.RoundStart, wire.FinalModel))
                    and not (msg.weights.shape == (WEIGHT_LEN,)
                             and np.isfinite(msg.weights).all())):
                raise _client_abort(conn, f"server sent {type(msg).__name__} weights that "
                                          f"are not {WEIGHT_LEN} finite numbers")
            if isinstance(msg, wire.ConfigBroadcast):
                if expected_digest is not None and msg.experiment_digest != expected_digest:
                    raise _client_abort(conn, f"config digest mismatch: server has "
                                              f"{msg.experiment_digest[:12]}..., site expects "
                                              f"{expected_digest[:12]}...")
                try:
                    site = Site(site_id, dataset.train, msg)
                except ValueError as exc:
                    raise _client_abort(conn, f"local training data unusable: {exc}") from exc
            elif isinstance(msg, wire.RoundStart):
                if site is None:
                    raise _client_abort(conn, "round started before configuration was received")
                try:
                    delta = site.delta(msg.weights, msg.round_index)
                except ValueError as exc:
                    raise _client_abort(conn, f"local training failed: {exc}") from exc
                conn.send(wire.DeltaUpload(round_index=msg.round_index, site_id=site_id,
                                           delta=delta))
            elif isinstance(msg, wire.CheckpointNotice):
                logger.debug("%s: round %d committed", site_id, msg.round_index)
            elif isinstance(msg, wire.FinalModel):
                if model_out is not None:
                    save_weights(model_out, msg.weights)
                return msg.weights
            elif isinstance(msg, wire.Abort):
                raise ExperimentAborted(f"server aborted: {msg.reason}")
            else:
                logger.debug("%s: ignoring unexpected %s", site_id, type(msg).__name__)
    except (tp.TransportClosed, tp.RecvTimeout) as exc:
        raise ExperimentAborted(f"server connection lost: {exc}") from exc
    except wire.ProtocolError as exc:
        raise ExperimentAborted(f"undecodable message from server: {exc}") from exc
    finally:
        conn.close()
