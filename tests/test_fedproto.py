import dataclasses
import hashlib
import json
import re
import struct
import threading
import time

import numpy as np
import pytest

from conftest import ServerCrash, crash_after_round, make_profile
from oracles import sequential_federated_reference

from fedrad.config import AGG_TOLERANT, ExperimentConfig, ServerParams, SiteLink, TrainConfig
from fedrad.dataset import generate_site_dataset
from fedrad.fingerprint import DatasetFingerprint
from fedrad.fedproto import (Checkpoint, ExperimentAborted, Site, aggregate, checkpoint_log,
                             load_checkpoint, read_checkpoints, run_client, run_server)
from fedrad.learner import WEIGHT_LEN
from fedrad.seeding import canonical_json, to_dict
from fedrad.simnet import run_simulated
from fedrad.transport import InProcessHub, TcpServerTransport, connect_tcp

TRAIN = TrainConfig(epochs=1, batches_per_epoch=5, batch_size=32, learning_rate=0.3, seed=77)


def make_datasets(site_ids, n_samples=6, dims=(10, 10, 10)):
    out = {}
    for i, sid in enumerate(site_ids):
        profile = make_profile(site_id=sid, n_samples=n_samples, seed=100 + i, dims=dims)
        out[sid] = generate_site_dataset(profile)
    return out


def make_params(site_ids, rounds=3, ckpt_dir=None, *, train=TRAIN, round_timeout_s=30.0, **kw):
    """A server of the experiment of ``site_ids``; ``kw`` sets other
    :class:`ExperimentConfig` fields."""
    config = ExperimentConfig(name="test", seed=12345, rounds=rounds,
                              sites=tuple(make_profile(site_id=s) for s in site_ids),
                              train=train, round_timeout_s=round_timeout_s, **kw)
    return ServerParams(config, ckpt_dir)


def run_experiment(params, datasets, listener=None, client_kw=None,
                   server_kw=None, joining=None):
    """Run server + clients on threads; returns (server result/exc, client results)."""
    listener = listener or InProcessHub()
    client_kw = client_kw or {}
    joining = joining if joining is not None else sorted(datasets)
    server_out = {}

    def serve():
        try:
            server_out["w"] = run_server(params, listener, **(server_kw or {}))
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            server_out["exc"] = exc

    threads = [threading.Thread(target=serve, daemon=True)]
    client_out = {}

    def join_site(sid):
        conn = (connect_tcp(*listener.address) if isinstance(listener, TcpServerTransport)
                else listener.connect())
        try:
            client_out[sid] = run_client(datasets[sid], conn, **client_kw.get(sid, {}))
        except Exception as exc:  # noqa: BLE001
            client_out[sid] = exc

    threads += [threading.Thread(target=join_site, args=(sid,), daemon=True)
                for sid in joining]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "experiment thread hung"
    return server_out, client_out


# ---------------------------------------------------------------------------
# aggregate

def test_aggregate_basic():
    w = np.array([1.0, 1.0])
    out = aggregate(w, {"a": np.array([2.0, 0.0]), "b": np.array([0.0, 2.0])})
    assert np.array_equal(out, np.array([2.0, 2.0]))


def test_aggregate_zero_deltas_identity(rng):
    w = rng.normal(size=8)
    zero = {s: np.zeros(8) for s in "abc"}
    assert np.array_equal(aggregate(w, zero), w)


def test_aggregate_single_site(rng):
    w = rng.normal(size=4)
    d = rng.normal(size=4)
    assert np.array_equal(aggregate(w, {"a": d}), w + d)


def test_aggregate_order_invariant(rng):
    w = rng.normal(size=16)
    deltas = {f"s{i}": rng.normal(size=16) for i in range(6)}
    a = aggregate(w, deltas)
    b = aggregate(w, dict(reversed(list(deltas.items()))))
    assert np.array_equal(a, b)


def test_aggregate_validation(rng):
    w = rng.normal(size=4)
    with pytest.raises(ValueError):
        aggregate(w, {"a": np.zeros(3)})  # length mismatch
    with pytest.raises(ValueError):
        aggregate(w, {})


# ---------------------------------------------------------------------------
# checkpoints

FP = DatasetFingerprint(n_samples=12, intensity_mean=-512.25, intensity_std=61.5,
                        intensity_p005=-701.0, intensity_p995=-330.125,
                        spacing_mean=(2.0, 0.9, 0.9),
                        class_voxel_freqs=(0.91, 0.05, 0.03, 0.01))
HEADER_LEN = 42  # magic, version u16, experiment digest, metadata length u32
RECORD_LEN = 164  # round index u32, 16 weights f64, sha256


def _ckpt(rng, t=4):
    return Checkpoint(
        round_index=t, weights=rng.normal(size=WEIGHT_LEN),
        fp_avg=FP, experiment_digest="a" * 64)


def _log(path, rng, n=3):
    """Write a checkpoint log of rounds 0 to ``n - 1`` and return its bytes."""
    for t in range(n):
        _ckpt(rng, t).save(path)
    return path.read_bytes()


def _header_end(raw):
    """The offset of a checkpoint log's first round record."""
    (meta_len,) = struct.unpack_from("<I", raw, HEADER_LEN - 4)
    return HEADER_LEN + meta_len + 32


def _write_raw_checkpoint(path, meta: bytes, version=5):
    """A log whose header has the given version and metadata bytes and a
    matching sha256, then one record of round 1 with zero weights."""
    digest = bytes.fromhex("a" * 64)
    header = struct.pack("<4sH32sI", b"FRCK", version, digest, len(meta)) + meta
    body = struct.pack("<I", 1) + np.zeros(WEIGHT_LEN, dtype="<f8").tobytes()
    path.write_bytes(header + hashlib.sha256(header).digest()
                     + body + hashlib.sha256(digest + body).digest())


def _refused(path, what):
    """``pytest.raises`` of the ValueError that refuses the log at ``path``:
    its message names the log, then matches ``what``."""
    return pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + what)


def _rounds(records):
    return [(c.round_index, c.weights.tobytes()) for c in records]


def test_checkpoint_roundtrip(tmp_path, rng):
    ckpt = _ckpt(rng)
    path = tmp_path / "c.frck"
    ckpt.save(path)
    raw = path.read_bytes()
    assert struct.unpack_from("<4sH", raw) == (b"FRCK", 5)
    assert len(raw) == _header_end(raw) + RECORD_LEN
    back = load_checkpoint(path)
    assert back.round_index == ckpt.round_index
    assert np.array_equal(back.weights, ckpt.weights)
    assert back.fp_avg == ckpt.fp_avg
    assert back.fp_avg.digest == FP.digest
    assert back.experiment_digest == ckpt.experiment_digest
    # the header's metadata is the fingerprint average alone: the digest fixes the rest
    (meta_len,) = struct.unpack_from("<I", raw, HEADER_LEN - 4)
    assert json.loads(raw[HEADER_LEN:HEADER_LEN + meta_len]) == {"fp_avg": to_dict(FP)}


def test_checkpoint_digest_refusal(tmp_path, rng):
    path = tmp_path / "c.frck"
    _ckpt(rng).save(path)
    with _refused(path, f"header: checkpoint belongs to experiment {'a' * 64}, "
                        f"expected {'b' * 64}"):
        load_checkpoint(path, expected_digest="b" * 64)
    load_checkpoint(path, expected_digest="a" * 64)  # matching digest loads
    # each record's sha256 binds the digest, so another experiment's append is refused
    dataclasses.replace(_ckpt(rng, 5), experiment_digest="b" * 64).save(path)
    with _refused(path, "record 1: sha256 mismatch"):
        load_checkpoint(path)


def test_checkpoint_corruption_refused(tmp_path, rng):
    path = tmp_path / "c.frck"
    _ckpt(rng).save(path)
    raw = bytearray(path.read_bytes())
    raw[0] = 0x58
    path.write_bytes(bytes(raw))
    with _refused(path, "header: bad magic b'XRCK'"):
        load_checkpoint(path)


def test_non_finite_checkpoint_refused(tmp_path, rng):
    path = tmp_path / "c.frck"
    ckpt = _ckpt(rng)
    ckpt.weights[-1] = np.nan
    ckpt.save(path)  # a well-formed record, sha256 included
    with _refused(path, "record 0: non-finite weights"):
        load_checkpoint(path)


def test_version_2_checkpoint_refused(tmp_path):
    # format 2 stored only the fingerprint digest, from which no feature
    # config can be derived
    path = tmp_path / "v2.frck"
    meta = {"round_index": 1, "fp_avg_digest": FP.digest, "experiment_seed": 42}
    _write_raw_checkpoint(path, json.dumps(meta).encode("ascii"), version=2)
    with _refused(path, "header: unsupported version 2"):
        load_checkpoint(path)


def test_version_3_checkpoint_refused(tmp_path):
    # format 3 had no sha256 trailer, so a torn or flipped file could load
    path = tmp_path / "v3.frck"
    _write_raw_checkpoint(path, _meta(), version=3)
    with _refused(path, "header: unsupported version 3"):
        load_checkpoint(path)


def test_version_4_checkpoint_refused(tmp_path):
    # format 4 repeated the metadata in every record behind a length field,
    # so a corrupted length could pass for a torn append
    path = tmp_path / "v4.frck"
    _write_raw_checkpoint(path, _meta(), version=4)
    with _refused(path, "header: unsupported version 4"):
        load_checkpoint(path)


def _meta(**fp_fields):
    """Header metadata whose fingerprint has ``fp_fields`` replaced."""
    return json.dumps({"fp_avg": dict(to_dict(FP), **fp_fields)}).encode("ascii")


@pytest.mark.parametrize("meta", [
    b"{not json",
    b"\xff\xfe",
    b"[1, 2, 3]",
    b'{}',
    b'{"fp_avg": "abc"}',
    b'{"fp_avg": {"n_samples": 3}}',
    _meta(intensity_mean="abc"),
    _meta(spacing_mean=2.0),
    _meta(class_voxel_freqs=None),
    _meta(n_samples=[3]),
    _meta(n_samples=float("inf")),
    _meta(spacing_mean=[2.0, 1.0]),
], ids=["bad-json", "not-ascii", "not-an-object", "fp-avg-missing", "fp-avg-string",
        "fp-avg-incomplete", "mean-string", "spacing-scalar", "freqs-null", "count-list",
        "count-infinite", "spacing-short"])
def test_bad_checkpoint_metadata_is_a_mismatch(tmp_path, meta):
    path = tmp_path / "bad.frck"
    _write_raw_checkpoint(path, _meta())
    assert load_checkpoint(path).fp_avg == FP
    _write_raw_checkpoint(path, meta)
    with _refused(path, "header: bad metadata"):
        load_checkpoint(path)


def test_mutated_checkpoints_raise_only_mismatch(tmp_path, rng):
    """Seeded truncations, bit flips, appends and deletions of a good
    three-record log either load a prefix of its records or raise a
    ValueError naming the log, nothing else."""
    path = tmp_path / "c.frck"
    good = _log(path, rng)
    want = _rounds(read_checkpoints(path))
    fuzz = np.random.default_rng(20240117)
    outcomes = {"loaded": 0, "refused": 0}
    for _ in range(10_000):
        raw = bytearray(good)
        op = fuzz.integers(4)
        if op == 0:
            del raw[fuzz.integers(len(raw)):]
        elif op == 1:
            for _ in range(fuzz.integers(1, 4)):
                raw[fuzz.integers(len(raw))] ^= 1 << int(fuzz.integers(8))
        elif op == 2:
            raw += fuzz.bytes(int(fuzz.integers(1, 17)))
        else:
            start = fuzz.integers(len(raw))
            del raw[start:start + fuzz.integers(1, 17)]
        path.write_bytes(bytes(raw))
        try:
            got = _rounds(read_checkpoints(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            outcomes["refused"] += 1
            continue
        assert got == want[:len(got)]
        outcomes["loaded"] += 1
    assert outcomes["loaded"] > 0 and outcomes["refused"] > 0, outcomes


# ---------------------------------------------------------------------------
# the checkpoint log

def test_every_prefix_loads_its_whole_records_or_is_refused(tmp_path, rng, caplog):
    # a crash can tear only an append, so a prefix of a log loads the records
    # that end by the cut, warning when bytes follow them, and a prefix that
    # ends before its first record ends is refused
    path = tmp_path / "log.frck"
    good = _log(path, rng)
    want = _rounds(read_checkpoints(path))
    ends = [_header_end(good) + RECORD_LEN * (i + 1) for i in range(3)]
    assert ends[-1] == len(good)
    caplog.set_level("WARNING", logger="fedrad.fedproto")
    for cut in range(len(good) + 1):
        path.write_bytes(good[:cut])
        whole = sum(end <= cut for end in ends)
        caplog.clear()
        if not whole:
            with _refused(path, "no complete checkpoint record"):
                read_checkpoints(path)
            continue
        assert _rounds(read_checkpoints(path)) == want[:whole], cut
        assert ("incomplete final record" in caplog.text) == (cut > ends[whole - 1]), cut


def test_log_cut_inside_its_last_record_resumes_from_the_round_before(tmp_path, caplog):
    # a crash mid-append leaves a prefix of the last record: every such cut
    # reads as the log without that record, and a run resumed from it ends
    # as the uninterrupted run, on the simulator and over the in-process hub
    sites = ["s1", "s2"]
    datasets = make_datasets(sites)
    links = [SiteLink(site_id=s) for s in sites]
    params = make_params(sites, rounds=3, ckpt_dir=tmp_path / "full")
    full = run_simulated(params, datasets, links)
    raw = full.checkpoint_file.read_bytes()
    assert len(raw) == _header_end(raw) + 4 * RECORD_LEN  # rounds 0 to 3
    last = len(raw) - RECORD_LEN
    before = read_checkpoints(full.checkpoint_file)[-2]
    torn = tmp_path / "torn.frck"
    caplog.set_level("WARNING", logger="fedrad.fedproto")
    for cut in range(last, len(raw)):
        torn.write_bytes(raw[:cut])
        caplog.clear()
        got = load_checkpoint(torn, expected_digest=params.config.digest)
        assert (got.round_index, got.weights.tobytes()) == (2, before.weights.tobytes()), cut
        assert ("incomplete final record" in caplog.text) == (cut > last), cut

    cuts = {"index": last + 2, "weights": last + 4 + 8 * 5, "trailer": len(raw) - 1}
    for field, cut in cuts.items():
        torn.write_bytes(raw[:cut])
        sim = run_simulated(make_params(sites, rounds=3, ckpt_dir=tmp_path / f"sim-{field}"),
                            datasets, links, resume=torn)
        live_dir = tmp_path / f"live-{field}"
        live_out, clients = run_experiment(make_params(sites, rounds=3, ckpt_dir=live_dir),
                                           datasets, server_kw={"resume": torn})
        assert sim.final_weights.tobytes() == full.final_weights.tobytes(), field
        assert live_out["w"].tobytes() == full.final_weights.tobytes(), field
        assert all(w.tobytes() == full.final_weights.tobytes() for w in clients.values())
        assert checkpoint_log(live_dir).read_bytes() == sim.checkpoint_file.read_bytes()
        assert [r.round_index for r in read_checkpoints(sim.checkpoint_file)] == [2, 3]


@pytest.mark.parametrize("cut", [0, 1, HEADER_LEN, -1, "nested"])
def test_log_without_a_complete_record_refused(tmp_path, rng, cut):
    path = tmp_path / "c.frck"
    _ckpt(rng).save(path)
    raw = path.read_bytes()
    if cut == "nested":
        # a header whose metadata runs past the log is refused unparsed, however
        # deep its JSON nests
        raw = raw[:HEADER_LEN - 4] + struct.pack("<I", 200_000) + b"[" * 100_000
        cut = len(raw)
    path.write_bytes(raw[:cut])
    with _refused(path, "no complete checkpoint record"):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["magic", "version", "digest", "metadata-length", "metadata",
                                   "header-sha", "index", "weights", "trailer"])
def test_flipped_byte_is_a_mismatch_naming_its_record(tmp_path, rng, field):
    # the header is written whole, so a flip anywhere in it refuses the log;
    # a flip in a round record refuses that record instead of skipping it
    path = tmp_path / "log.frck"
    good = _log(path, rng)
    first = _header_end(good)
    header = {"magic": [0], "version": [4], "digest": [6, 37],
              "metadata-length": [HEADER_LEN - 4, HEADER_LEN - 1],
              "metadata": [HEADER_LEN + 2], "header-sha": [first - 32, first - 1]}
    record = {"index": [0, 3], "weights": [4, 4 + 8 * 5], "trailer": [RECORD_LEN - 1]}
    targets = ([(offset, "header") for offset in header[field]] if field in header else
               [(first + RECORD_LEN * i + offset, f"record {i}")
                for i in range(3) for offset in record[field]])
    for offset, name in targets:
        for bit in range(8):
            bad = bytearray(good)
            bad[offset] ^= 1 << bit
            path.write_bytes(bytes(bad))
            with _refused(path, f": {name}: "):
                read_checkpoints(path)
    path.write_bytes(good)
    assert [c.round_index for c in read_checkpoints(path)] == [0, 1, 2]


# ---------------------------------------------------------------------------
# full runs over the in-process transport

def test_run_matches_sequential_reference():
    datasets = make_datasets(["s1", "s2", "s3"])
    params = make_params(["s1", "s2", "s3"], rounds=3)
    server_out, client_out = run_experiment(params, datasets)
    want, _ = sequential_federated_reference(datasets, TRAIN, params.config.seed, 3)
    assert np.array_equal(server_out["w"], want)
    for sid, got in client_out.items():
        assert np.array_equal(got, want), f"{sid} final model differs"


def test_single_site_equals_local_training():
    # a one-site federation is its sequential reference bit for bit, and local
    # training only to rounding: each round aggregates to w + (w' - w), which
    # need not be w' in floating point
    datasets = make_datasets(["solo"])
    params = make_params(["solo"], rounds=4)
    server_out, _ = run_experiment(params, datasets)
    want, _ = sequential_federated_reference(datasets, TRAIN, params.config.seed, 4)
    assert np.array_equal(server_out["w"], want)

    from dataclasses import replace
    from fedrad.fingerprint import compute_fingerprint, derive_config
    from fedrad.learner import build_training_matrix, site_train_seed, train_epochs
    fp = compute_fingerprint(datasets["solo"].train)
    derived = derive_config(fp, params.config.seed)
    X, y = build_training_matrix(datasets["solo"].train, derived.feature_config)
    cfg = replace(TRAIN, epochs=4, seed=site_train_seed(TRAIN.seed, "solo"))
    local = train_epochs(derived.init_weights, X, y, cfg)
    np.testing.assert_allclose(server_out["w"], local, rtol=0, atol=1e-12)


def test_client_delta_is_definitional(tmp_path):
    # the server's round-1 model is the average of the sites' Site deltas from
    # the initial weights that every site derives from the broadcast config
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=1)
    server_out, _ = run_experiment(params, datasets)

    from fedrad import wire
    from fedrad.fingerprint import average_fingerprints, compute_fingerprint, derive_config
    fps = [compute_fingerprint(datasets[s].train) for s in ("s1", "s2")]
    config = wire.ConfigBroadcast(fp_avg=average_fingerprints(fps),
                                  experiment_seed=params.config.seed, train=TRAIN,
                                  experiment_digest=params.config.digest)
    w0 = derive_config(config.fp_avg, config.experiment_seed).init_weights
    deltas = {sid: Site(sid, datasets[sid].train, config).delta(w0, 1) for sid in ("s1", "s2")}
    assert np.array_equal(server_out["w"], aggregate(w0, deltas))


def test_checkpoints_written_every_round(tmp_path):
    datasets = make_datasets(["s1", "s2"])
    ckpt_dir = tmp_path / "ck"
    params = make_params(["s1", "s2"], rounds=3, ckpt_dir=ckpt_dir)
    server_out, _ = run_experiment(params, datasets)
    assert [p.name for p in ckpt_dir.iterdir()] == ["checkpoints.frck"]
    records = read_checkpoints(checkpoint_log(ckpt_dir), params.config.digest)
    assert [r.round_index for r in records] == [0, 1, 2, 3]
    assert records[-1].weights.tobytes() == server_out["w"].tobytes()
    assert load_checkpoint(checkpoint_log(ckpt_dir)).round_index == 3


def _partial_client(datasets, sid, hub, last_round):
    """A hand-rolled client that participates through ``last_round`` uploads
    and then drops off the network."""
    from fedrad import wire
    from fedrad.fingerprint import compute_fingerprint

    conn = hub.connect()
    conn.send(wire.Register(site_id=sid))
    conn.send(wire.FingerprintSubmit(fingerprint=compute_fingerprint(datasets[sid].train)))
    site = None
    while True:
        msg = conn.recv(timeout=30)
        if isinstance(msg, wire.ConfigBroadcast):
            site = Site(sid, datasets[sid].train, msg)
        elif isinstance(msg, wire.RoundStart):
            conn.send(wire.DeltaUpload(round_index=msg.round_index, site_id=sid,
                                       delta=site.delta(msg.weights, msg.round_index)))
            if msg.round_index >= last_round:
                conn.close()
                return


def test_site_offline_at_round_two_strict(tmp_path):
    # strict mode: a site that completes round 1 and then vanishes makes the
    # server abort round 2, leaving the round-1 checkpoint behind
    datasets = make_datasets(["s1", "s2"])
    ckpt_dir = tmp_path / "ck"
    params = make_params(["s1", "s2"], rounds=3, ckpt_dir=ckpt_dir,
                         round_timeout_s=1.5)
    hub = InProcessHub()
    server_out = {}
    client_out = {}

    def serve():
        try:
            server_out["w"] = run_server(params, hub)
        except Exception as exc:  # noqa: BLE001
            server_out["exc"] = exc

    def stable():
        try:
            client_out["s1"] = run_client(datasets["s1"], hub.connect())
        except Exception as exc:  # noqa: BLE001
            client_out["s1"] = exc

    threads = [threading.Thread(target=serve, daemon=True),
               threading.Thread(target=stable, daemon=True),
               threading.Thread(target=_partial_client,
                                args=(datasets, "s2", hub, 1), daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    exc = server_out.get("exc")
    assert isinstance(exc, ExperimentAborted)
    assert exc.round_index == 2
    assert exc.checkpoint_path is not None
    assert load_checkpoint(exc.checkpoint_path).round_index == 1
    assert isinstance(client_out["s1"], ExperimentAborted)


def test_setup_timeout_when_site_never_registers():
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=2, setup_timeout_s=1.0)
    server_out, _ = run_experiment(params, datasets, joining=["s1"])
    assert isinstance(server_out.get("exc"), ExperimentAborted)


def test_ill_formed_fingerprint_is_a_setup_abort():
    # a fingerprint with two spacings is refused on decode, so the site never
    # counts as submitted and the setup deadline aborts the run
    from dataclasses import replace
    from fedrad import wire
    hub = InProcessHub()
    site = hub.connect()
    site.send(wire.Register(site_id="s1"))
    site.send(wire.FingerprintSubmit(fingerprint=replace(FP, spacing_mean=(2.0, 0.9))))
    with pytest.raises(ExperimentAborted, match="setup timeout"):
        run_server(make_params(["s1"], rounds=1, setup_timeout_s=0.5), hub)
    site.close()


def test_tolerant_aggregates_over_responders():
    # tolerant mode: a site dropping out after round 1 shrinks the divisor to
    # the responder count and the experiment still completes
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=3, aggregation=AGG_TOLERANT,
                         round_timeout_s=1.5)
    hub = InProcessHub()
    server_out = {}
    results = {}

    def serve():
        try:
            server_out["w"] = run_server(params, hub)
        except Exception as exc:  # noqa: BLE001
            server_out["exc"] = exc

    def client1():
        results["s1"] = run_client(datasets["s1"], hub.connect())

    threads = [threading.Thread(target=serve, daemon=True),
               threading.Thread(target=client1, daemon=True),
               threading.Thread(target=_partial_client,
                                args=(datasets, "s2", hub, 1), daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert "w" in server_out, server_out.get("exc")
    assert np.array_equal(results["s1"], server_out["w"])


def test_tolerant_stops_waiting_for_a_closed_site():
    # s2 hangs up after round 1: rounds 2 and 3 close as soon as s1 uploads,
    # not at the 20 s deadline
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=3, aggregation=AGG_TOLERANT,
                         round_timeout_s=20.0)
    hub = InProcessHub()
    server_out = {}
    results = {}

    def serve():
        try:
            server_out["w"] = run_server(params, hub)
        except Exception as exc:  # noqa: BLE001
            server_out["exc"] = exc

    def client1():
        results["s1"] = run_client(datasets["s1"], hub.connect())

    threads = [threading.Thread(target=serve, daemon=True),
               threading.Thread(target=client1, daemon=True),
               threading.Thread(target=_partial_client,
                                args=(datasets, "s2", hub, 1), daemon=True)]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert time.monotonic() - start < 10.0
    assert "w" in server_out, server_out.get("exc")
    assert np.array_equal(results["s1"], server_out["w"])


def test_setup_ignores_abort_from_unregistered_connection():
    from fedrad import wire
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=2)
    reference, _ = run_experiment(params, datasets)

    hub = InProcessHub()
    stray = hub.connect()  # accepted first, never registers
    stray.send(wire.Abort("stop the experiment"))
    server_out, client_out = run_experiment(params, datasets, listener=hub)
    stray.close()
    assert "w" in server_out, server_out.get("exc")
    assert np.array_equal(server_out["w"], reference["w"])
    for got in client_out.values():
        assert np.array_equal(got, reference["w"])


def test_client_digest_mismatch_aborts():
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=2, round_timeout_s=2.0)
    server_out, client_out = run_experiment(
        params, datasets,
        client_kw={"s2": {"expected_digest": "f" * 64}})
    assert isinstance(client_out["s2"], ExperimentAborted)
    assert "digest mismatch" in str(client_out["s2"])
    assert isinstance(server_out.get("exc"), ExperimentAborted)


def test_client_with_a_mask_of_another_shape_aborts():
    # s2's first training mask is one slice short of its volume: the site
    # sends its Abort on the configuration, and the strict server aborts
    from dataclasses import replace
    datasets = make_datasets(["s1", "s2"])
    sample = datasets["s2"].train[0]
    datasets["s2"].train[0] = replace(sample, labels=sample.labels[:-1])
    params = make_params(["s1", "s2"], rounds=2)
    server_out, client_out = run_experiment(params, datasets)
    site_abort = client_out["s2"]
    assert isinstance(site_abort, ExperimentAborted)
    assert site_abort.reason.startswith(
        f"local training data unusable: sample {sample.sample_id}: mask shape")
    server_abort = server_out.get("exc")
    assert isinstance(server_abort, ExperimentAborted)
    assert server_abort.round_index == 1
    assert f"site aborted: {site_abort.reason} from ['s2']" in server_abort.reason
    assert isinstance(client_out["s1"], ExperimentAborted)


@pytest.mark.parametrize("kind", ["RoundStart", "FinalModel"])
def test_client_refuses_non_finite_weights(tmp_path, kind):
    # a server that sends NaN weights gets the site's Abort, and the site
    # ends resumably without training on them or saving them
    from fedrad import wire
    datasets = make_datasets(["s1"])
    model_path = tmp_path / "final.frwt"
    hub = InProcessHub()
    out = {}

    def join():
        try:
            out["s1"] = run_client(datasets["s1"], hub.connect(), model_out=model_path)
        except Exception as exc:  # noqa: BLE001
            out["s1"] = exc

    client = threading.Thread(target=join, daemon=True)
    client.start()
    server = hub.accept(timeout=30)
    assert isinstance(server.recv(timeout=30), wire.Register)
    fp = server.recv(timeout=30).fingerprint
    nan = np.full(WEIGHT_LEN, np.nan)
    server.send(wire.ConfigBroadcast(fp_avg=fp, experiment_seed=1, train=TRAIN,
                                     experiment_digest="0" * 64))
    server.send(wire.RoundStart(round_index=1, weights=nan) if kind == "RoundStart"
                else wire.FinalModel(weights=nan))
    reply = server.recv(timeout=30)
    client.join(timeout=30)
    server.close()
    assert not client.is_alive()
    assert isinstance(reply, wire.Abort)
    assert f"{kind} weights that are not {WEIGHT_LEN} finite numbers" in reply.reason
    assert isinstance(out["s1"], ExperimentAborted)
    assert not model_path.exists()


def test_server_crash_after_round_then_resume(tmp_path, monkeypatch):
    datasets = make_datasets(["s1", "s2"])
    rounds = 4
    uninterrupted = make_params(["s1", "s2"], rounds=rounds)
    full_out, _ = run_experiment(uninterrupted, datasets)

    for k in (1, rounds - 1):
        kdir = tmp_path / f"ck{k}"
        params = make_params(["s1", "s2"], rounds=rounds, ckpt_dir=kdir)
        crash_after_round(monkeypatch, k)
        out1, clients1 = run_experiment(params, datasets)
        crash = out1.get("exc")
        assert isinstance(crash, ServerCrash)
        assert load_checkpoint(crash.checkpoint).round_index == k
        # every client lost its connection and exited resumably
        assert all(isinstance(c, ExperimentAborted) for c in clients1.values())

        # the resumed run starts at round k + 1, past the crash
        out2, clients2 = run_experiment(params, datasets,
                                        server_kw={"resume": crash.checkpoint})
        assert np.array_equal(out2["w"], full_out["w"])
        for got in clients2.values():
            assert np.array_equal(got, full_out["w"])


def test_resume_refuses_other_experiment(tmp_path, rng):
    ckpt = Checkpoint(round_index=1, weights=rng.normal(size=WEIGHT_LEN),
                      fp_avg=FP, experiment_digest="c" * 64)
    path = tmp_path / "other.frck"
    ckpt.save(path)
    datasets = make_datasets(["s1"])
    params = make_params(["s1"], rounds=2)  # its digest is not c*64
    # the server refuses before accepting any connection, so no client joins
    server_out, _ = run_experiment(params, datasets, joining=[],
                                   server_kw={"resume": path})
    refusal = server_out.get("exc")
    assert isinstance(refusal, ValueError)
    assert str(refusal) == (f"{path}: header: checkpoint belongs to experiment {'c' * 64}, "
                            f"expected {params.config.digest}")


def test_log_whose_header_holds_the_experiment_seed_still_resumes(tmp_path):
    # a log written while the header still kept a copy of the seed, which the
    # digest hashes anyway, has the metadata {"experiment_seed", "fp_avg"};
    # the reader reads fp_avg alone, so it loads and resumes as before
    sites = ["s1", "s2"]
    datasets = make_datasets(sites)
    links = [SiteLink(site_id=s) for s in sites]
    full = run_simulated(make_params(sites, rounds=3, ckpt_dir=tmp_path / "full"),
                         datasets, links)
    raw = full.checkpoint_file.read_bytes()
    params = make_params(sites, rounds=3, ckpt_dir=tmp_path / "resumed")
    fp_avg = load_checkpoint(full.checkpoint_file).fp_avg
    meta = canonical_json({"experiment_seed": params.config.seed,
                           "fp_avg": to_dict(fp_avg)}).encode("ascii")
    header = struct.pack("<4sH32sI", b"FRCK", 5, bytes.fromhex(params.config.digest),
                         len(meta)) + meta
    old = tmp_path / "old.frck"
    # the records of rounds 0 to 2: each one's sha256 binds the digest, not the header
    old.write_bytes(header + hashlib.sha256(header).digest()
                    + raw[_header_end(raw):-RECORD_LEN])
    last = load_checkpoint(old, expected_digest=params.config.digest)
    assert (last.round_index, last.fp_avg) == (2, fp_avg)
    resumed = run_simulated(params, datasets, links, resume=old)
    assert resumed.final_weights.tobytes() == full.final_weights.tobytes()
    assert [r.round_index for r in read_checkpoints(resumed.checkpoint_file)] == [2, 3]


@pytest.mark.parametrize("network", ["sim", "live"])
def test_resume_refuses_a_log_of_other_site_data(tmp_path, network):
    # a log's fingerprint average must be the one the sites submit on resume
    sites = ["s1", "s2"]
    links = [SiteLink(site_id=s) for s in sites]
    first = run_simulated(make_params(sites, rounds=2, ckpt_dir=tmp_path / "first"),
                          make_datasets(sites), links)
    params = make_params(sites, rounds=2, ckpt_dir=tmp_path / "resumed")
    other = make_datasets(sites, n_samples=7)
    refusal = (f"{first.checkpoint_file}: checkpoint fingerprint digest does not match "
               "the site data")
    if network == "sim":
        with pytest.raises(ValueError) as refused:
            run_simulated(params, other, links, resume=first.checkpoint_file)
        assert str(refused.value) == refusal
    else:
        server_out, client_out = run_experiment(params, other,
                                                server_kw={"resume": first.checkpoint_file})
        assert isinstance(server_out.get("exc"), ValueError)
        assert str(server_out["exc"]) == refusal
        assert all(isinstance(c, ExperimentAborted) for c in client_out.values())
    assert not checkpoint_log(tmp_path / "resumed").exists()


def test_register_of_an_unexpected_site_is_refused():
    # the server answers an unknown site id with an Abort and hangs up; the
    # expected sites run to the end as if the stray had never called
    from fedrad import wire
    from fedrad.transport import TransportClosed
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=2)
    reference, _ = run_experiment(params, datasets)

    hub = InProcessHub()
    stray = hub.connect()  # accepted first
    stray.send(wire.Register(site_id="intruder"))
    server_out, client_out = run_experiment(params, datasets, listener=hub)
    reply = stray.recv(timeout=10)
    assert isinstance(reply, wire.Abort)
    assert reply.reason == "unexpected site 'intruder'"
    with pytest.raises(TransportClosed):
        stray.recv(timeout=10)
    stray.close()
    assert "w" in server_out, server_out.get("exc")
    assert np.array_equal(server_out["w"], reference["w"])
    for got in client_out.values():
        assert np.array_equal(got, reference["w"])


def test_client_abort_during_setup_aborts_the_run():
    # a registered site that gives up before every fingerprint is in ends
    # the run at once, not at the setup deadline
    from fedrad import wire
    hub = InProcessHub()
    site = hub.connect()
    site.send(wire.Register(site_id="s1"))
    site.send(wire.Abort("local data unreadable"))
    started = time.monotonic()
    with pytest.raises(ExperimentAborted) as aborted:
        run_server(make_params(["s1", "s2"], rounds=1, setup_timeout_s=5.0), hub)
    assert time.monotonic() - started < 5.0
    assert aborted.value.reason == "client abort during setup: local data unreadable"
    assert aborted.value.round_index == 0
    reply = site.recv(timeout=10)
    assert isinstance(reply, wire.Abort) and reply.reason == aborted.value.reason
    site.close()


def test_client_reconnect_mid_experiment():
    # a client that dies after its round-1 upload and rejoins finishes the
    # run with weights identical to the uninterrupted experiment
    datasets = make_datasets(["s1", "s2"])
    rounds = 3
    params = make_params(["s1", "s2"], rounds=rounds, round_timeout_s=30.0)
    reference, _ = run_experiment(params, datasets)

    hub = InProcessHub()
    server_out = {}

    def serve():
        server_out["w"] = run_server(params, hub)

    final = {}

    def stable_client():
        final["s1"] = run_client(datasets["s1"], hub.connect())

    def flaky_client():
        _partial_client(datasets, "s2", hub, last_round=1)  # crash after round 1
        # restart: a fresh stateless client resumes from the current round
        final["s2"] = run_client(datasets["s2"], hub.connect())

    threads = [threading.Thread(target=f, daemon=True)
               for f in (serve, stable_client, flaky_client)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert np.array_equal(server_out["w"], reference["w"])
    assert np.array_equal(final["s2"], reference["w"])


# ---------------------------------------------------------------------------
# the same protocol over real TCP sockets

def test_tcp_run_matches_in_process(tmp_path):
    datasets = make_datasets(["s1", "s2", "s3"])
    params = make_params(["s1", "s2", "s3"], rounds=2)
    hub_out, _ = run_experiment(params, datasets)

    listener = TcpServerTransport()
    try:
        tcp_out, tcp_clients = run_experiment(params, datasets, listener=listener)
    finally:
        listener.close()
    assert np.array_equal(tcp_out["w"], hub_out["w"])
    for got in tcp_clients.values():
        assert np.array_equal(got, hub_out["w"])


def test_tcp_client_persists_final_model(tmp_path):
    datasets = make_datasets(["s1"])
    params = make_params(["s1"], rounds=1)
    listener = TcpServerTransport()
    model_path = tmp_path / "final.frwt"
    try:
        out, clients = run_experiment(params, datasets, listener=listener,
                                      client_kw={"s1": {"model_out": model_path}})
    finally:
        listener.close()
    from fedrad.learner import load_weights
    assert np.array_equal(load_weights(model_path), out["w"])


# ---------------------------------------------------------------------------
# misbehaving sites

def _scripted_site(hub, datasets, sid):
    """A bare connection that has registered as ``sid`` and sent its fingerprint."""
    from fedrad import wire
    from fedrad.fingerprint import compute_fingerprint
    conn = hub.connect()
    conn.send(wire.Register(site_id=sid))
    conn.send(wire.FingerprintSubmit(fingerprint=compute_fingerprint(datasets[sid].train)))
    return conn


def _recv_until(conn, kind):
    while True:
        msg = conn.recv(timeout=30)
        if isinstance(msg, kind):
            return msg


def test_upload_counts_for_the_registered_site():
    # s2's connection uploads a junk delta labelled s1, then its own; s1 stays
    # silent, so tolerant round 1 must aggregate the honest s2 delta alone
    from fedrad import wire
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=1, aggregation=AGG_TOLERANT,
                         round_timeout_s=1.0)
    hub = InProcessHub()
    silent = _scripted_site(hub, datasets, "s1")
    spoofer = _scripted_site(hub, datasets, "s2")
    server_out = {}

    def serve():
        try:
            server_out["w"] = run_server(params, hub)
        except Exception as exc:  # noqa: BLE001
            server_out["exc"] = exc

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    w0 = _recv_until(spoofer, wire.RoundStart).weights
    honest = np.full(WEIGHT_LEN, 0.25)
    spoofer.send(wire.DeltaUpload(round_index=1, site_id="s1",
                                  delta=np.full(WEIGHT_LEN, 1e6)))
    spoofer.send(wire.DeltaUpload(round_index=1, site_id="s2", delta=honest))
    final = _recv_until(spoofer, wire.FinalModel).weights
    silent.close()
    spoofer.close()
    server.join(timeout=30)
    assert not server.is_alive()
    assert "w" in server_out, server_out.get("exc")
    assert np.array_equal(server_out["w"], aggregate(w0, {"s2": honest}))
    assert np.array_equal(final, server_out["w"])


def _bad_delta_site(hub, datasets, sid, delta):
    """A site that answers every round with ``delta``."""
    from fedrad import wire
    from fedrad.transport import TransportClosed
    conn = _scripted_site(hub, datasets, sid)
    try:
        while True:
            msg = conn.recv(timeout=30)
            if isinstance(msg, wire.RoundStart):
                conn.send(wire.DeltaUpload(round_index=msg.round_index, site_id=sid,
                                           delta=delta))
            elif isinstance(msg, (wire.FinalModel, wire.Abort)):
                break
    except TransportClosed:
        pass
    conn.close()


NAN_DELTA = np.full(WEIGHT_LEN, np.nan)
SHORT_DELTA = np.full(WEIGHT_LEN - 1, 0.25)


@pytest.mark.parametrize("aggregation, delta", [
    ("strict", NAN_DELTA), (AGG_TOLERANT, NAN_DELTA),
    ("strict", SHORT_DELTA), (AGG_TOLERANT, SHORT_DELTA),
], ids=["strict", "tolerant", "strict-short", "tolerant-short"])
def test_non_finite_delta_never_checkpointed(tmp_path, aggregation, delta):
    # a NaN delta or one of WEIGHT_LEN - 1 finite values is unusable: strict
    # mode aborts round 1, tolerant mode excludes the site
    datasets = make_datasets(["s1", "s2"])
    ckpt_dir = tmp_path / "ck"
    params = make_params(["s1", "s2"], rounds=2, ckpt_dir=ckpt_dir,
                         aggregation=aggregation)
    hub = InProcessHub()
    server_out, client_out = {}, {}

    def serve():
        try:
            server_out["w"] = run_server(params, hub)
        except Exception as exc:  # noqa: BLE001
            server_out["exc"] = exc

    def honest():
        try:
            client_out["s1"] = run_client(datasets["s1"], hub.connect())
        except Exception as exc:  # noqa: BLE001
            client_out["s1"] = exc

    threads = [threading.Thread(target=serve, daemon=True),
               threading.Thread(target=honest, daemon=True),
               threading.Thread(target=_bad_delta_site, args=(hub, datasets, "s2", delta),
                                daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()

    assert [p.name for p in ckpt_dir.iterdir()] == ["checkpoints.frck"]
    records = read_checkpoints(checkpoint_log(ckpt_dir))
    for ckpt in records:
        assert np.isfinite(ckpt.weights).all(), ckpt.round_index
    if aggregation == "strict":
        exc = server_out.get("exc")
        assert isinstance(exc, ExperimentAborted)
        assert exc.round_index == 1
        assert exc.checkpoint_path == checkpoint_log(ckpt_dir)
        assert [r.round_index for r in records] == [0]
        assert isinstance(client_out["s1"], ExperimentAborted)
    else:
        assert "w" in server_out, server_out.get("exc")
        assert [r.round_index for r in records] == [0, 1, 2]
        assert np.array_equal(client_out["s1"], server_out["w"])


class _ResendsLastDelta:
    """Client connection that re-sends its previous round's delta before each
    new upload, so the server sees a stale round-(t-1) delta during round t."""

    def __init__(self, conn):
        self._conn = conn
        self._last = None
        self.stale_sent = 0

    def send(self, msg):
        from fedrad import wire
        if isinstance(msg, wire.DeltaUpload):
            if self._last is not None:
                self._conn.send(self._last)
                self.stale_sent += 1
            self._last = msg
        self._conn.send(msg)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_stale_delta_ignored_until_the_real_upload():
    datasets = make_datasets(["s1", "s2"])
    params = make_params(["s1", "s2"], rounds=3)
    hub = InProcessHub()
    resender = _ResendsLastDelta(hub.connect())
    server_out, client_out = {}, {}

    def serve():
        try:
            server_out["w"] = run_server(params, hub)
        except Exception as exc:  # noqa: BLE001
            server_out["exc"] = exc

    def join(sid, conn):
        try:
            client_out[sid] = run_client(datasets[sid], conn)
        except Exception as exc:  # noqa: BLE001
            client_out[sid] = exc

    threads = [threading.Thread(target=serve, daemon=True),
               threading.Thread(target=join, args=("s1", resender), daemon=True),
               threading.Thread(target=join, args=("s2", hub.connect()), daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert resender.stale_sent == 2  # in rounds 2 and 3
    assert "w" in server_out, server_out.get("exc")
    want, _ = sequential_federated_reference(datasets, TRAIN, params.config.seed, 3)
    assert np.array_equal(server_out["w"], want)
    assert np.array_equal(client_out["s1"], want)
    assert np.array_equal(client_out["s2"], want)



def test_checkpoint_metadata_nested_too_deep_is_a_mismatch(tmp_path):
    path = tmp_path / "deep.frck"
    _write_raw_checkpoint(path, b"[" * 100_000)
    with _refused(path, "header: bad metadata") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and "not valid JSON" in str(err.value)
