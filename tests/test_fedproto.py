import json
import struct
import threading
import time

import numpy as np
import pytest

from conftest import ServerCrash, crash_after_round, make_profile
from oracles import sequential_federated_reference

from fedrad.config import AGG_TOLERANT, ServerParams, TrainConfig
from fedrad.dataset import generate_site_dataset
from fedrad.fingerprint import DatasetFingerprint
from fedrad.fedproto import (Checkpoint, CheckpointMismatch, ExperimentAborted, Site, aggregate,
                             checkpoint_path, load_checkpoint, run_client, run_server)
from fedrad.learner import WEIGHT_LEN
from fedrad.seeding import to_dict
from fedrad.transport import InProcessHub, TcpServerTransport, connect_tcp

TRAIN = TrainConfig(epochs=1, batches_per_epoch=5, batch_size=32, learning_rate=0.3, seed=77)


def make_datasets(site_ids, n_samples=6, dims=(10, 10, 10)):
    out = {}
    for i, sid in enumerate(site_ids):
        profile = make_profile(site_id=sid, n_samples=n_samples, seed=100 + i, dims=dims)
        out[sid] = generate_site_dataset(profile)
    return out


def make_params(site_ids, rounds=3, ckpt_dir=None, **kw):
    return ServerParams(
        expected_sites=tuple(site_ids), rounds=rounds, train=TRAIN,
        experiment_seed=12345, experiment_digest="0" * 64,
        checkpoint_dir=ckpt_dir, round_timeout_s=kw.pop("round_timeout_s", 30.0),
        **kw)


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


def _ckpt(rng, t=4):
    return Checkpoint(
        round_index=t, weights=rng.normal(size=WEIGHT_LEN),
        fp_avg=FP, experiment_seed=42, experiment_digest="a" * 64)


def _write_raw_checkpoint(path, meta: bytes, version=3):
    """An FRCK file with the given version and metadata bytes, zero weights."""
    header = struct.pack("<4sH32sI", b"FRCK", version, bytes.fromhex("a" * 64), len(meta))
    path.write_bytes(header + meta + np.zeros(WEIGHT_LEN, dtype="<f8").tobytes())


def test_checkpoint_roundtrip(tmp_path, rng):
    ckpt = _ckpt(rng)
    path = tmp_path / "c.frck"
    ckpt.save(path)
    assert struct.unpack_from("<4sH", path.read_bytes()) == (b"FRCK", 3)
    back = load_checkpoint(path)
    assert back.round_index == ckpt.round_index
    assert np.array_equal(back.weights, ckpt.weights)
    assert back.fp_avg == ckpt.fp_avg
    assert back.fp_avg.digest == FP.digest
    assert back.experiment_seed == ckpt.experiment_seed
    assert back.experiment_digest == ckpt.experiment_digest


def test_checkpoint_digest_refusal(tmp_path, rng):
    path = tmp_path / "c.frck"
    _ckpt(rng).save(path)
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path, expected_digest="b" * 64)
    load_checkpoint(path, expected_digest="a" * 64)  # matching digest loads


def test_checkpoint_corruption_refused(tmp_path, rng):
    path = tmp_path / "c.frck"
    _ckpt(rng).save(path)
    raw = bytearray(path.read_bytes())
    raw[0] = 0x58
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path)


def test_non_finite_checkpoint_refused(tmp_path, rng):
    path = tmp_path / "c.frck"
    _ckpt(rng).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + struct.pack("<d", float("nan")))
    with pytest.raises(CheckpointMismatch, match="non-finite"):
        load_checkpoint(path)


def test_version_2_checkpoint_refused(tmp_path):
    # format 2 stored only the fingerprint digest, from which no feature
    # config can be derived
    path = tmp_path / "v2.frck"
    meta = {"round_index": 1, "fp_avg_digest": FP.digest, "experiment_seed": 42}
    _write_raw_checkpoint(path, json.dumps(meta).encode("ascii"), version=2)
    with pytest.raises(CheckpointMismatch, match="version 2"):
        load_checkpoint(path)


def _meta(**fp_fields):
    """Checkpoint metadata whose fingerprint has ``fp_fields`` replaced."""
    return json.dumps({"round_index": 1, "experiment_seed": 42,
                       "fp_avg": dict(to_dict(FP), **fp_fields)}).encode("ascii")


@pytest.mark.parametrize("meta", [
    b"{not json",
    b"\xff\xfe",
    b"[1, 2, 3]",
    b'{"round_index": 1, "experiment_seed": 42}',
    b'{"round_index": 1, "experiment_seed": 42, "fp_avg": "abc"}',
    b'{"round_index": 1, "experiment_seed": 42, "fp_avg": {"n_samples": 3}}',
    b'{"round_index": "x", "experiment_seed": 42, "fp_avg": null}',
    _meta(intensity_mean="abc"),
    _meta(spacing_mean=2.0),
    _meta(class_voxel_freqs=None),
    _meta(n_samples=[3]),
    b'{"round_index": 1e999, "experiment_seed": 42, "fp_avg": null}',
    _meta(n_samples=float("inf")),
    _meta(spacing_mean=[2.0, 1.0]),
], ids=["bad-json", "not-ascii", "not-an-object", "fp-avg-missing", "fp-avg-string",
        "fp-avg-incomplete", "round-index-string", "mean-string", "spacing-scalar",
        "freqs-null", "count-list", "round-index-overflow", "count-infinite", "spacing-short"])
def test_bad_checkpoint_metadata_is_a_mismatch(tmp_path, meta):
    path = tmp_path / "bad.frck"
    _write_raw_checkpoint(path, _meta())
    assert load_checkpoint(path).fp_avg == FP
    _write_raw_checkpoint(path, meta)
    with pytest.raises(CheckpointMismatch, match="bad metadata"):
        load_checkpoint(path)


def test_mutated_checkpoints_raise_only_mismatch(tmp_path, rng):
    """Seeded truncations, bit flips, appends and deletions of a good
    checkpoint either load or raise CheckpointMismatch, nothing else."""
    path = tmp_path / "c.frck"
    _ckpt(rng).save(path)
    good = path.read_bytes()
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
            load_checkpoint(path)
            outcomes["loaded"] += 1
        except CheckpointMismatch:
            outcomes["refused"] += 1
    assert outcomes["loaded"] > 0 and outcomes["refused"] > 0, outcomes


# ---------------------------------------------------------------------------
# full runs over the in-process transport

def test_run_matches_sequential_reference():
    datasets = make_datasets(["s1", "s2", "s3"])
    params = make_params(["s1", "s2", "s3"], rounds=3)
    server_out, client_out = run_experiment(params, datasets)
    want, _ = sequential_federated_reference(datasets, TRAIN, params.experiment_seed, 3)
    assert np.array_equal(server_out["w"], want)
    for sid, got in client_out.items():
        assert np.array_equal(got, want), f"{sid} final model differs"


def test_single_site_equals_local_training():
    datasets = make_datasets(["solo"])
    params = make_params(["solo"], rounds=4)
    server_out, _ = run_experiment(params, datasets)

    from dataclasses import replace
    from fedrad.fingerprint import compute_fingerprint, derive_config
    from fedrad.learner import build_training_matrix, site_train_seed, train_epochs
    fp = compute_fingerprint(datasets["solo"].train)
    derived = derive_config(fp, params.experiment_seed)
    X, y = build_training_matrix(datasets["solo"].train, derived.feature_config)
    cfg = replace(TRAIN, epochs=4, seed=site_train_seed(TRAIN.seed, "solo"))
    local = train_epochs(derived.init_weights, X, y, cfg)
    assert np.array_equal(server_out["w"], local)


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
                                  experiment_seed=params.experiment_seed, rounds=1,
                                  train=TRAIN, experiment_digest=params.experiment_digest)
    w0 = derive_config(config.fp_avg, config.experiment_seed).init_weights
    deltas = {sid: Site(sid, datasets[sid].train, config).delta(w0, 1) for sid in ("s1", "s2")}
    assert np.array_equal(server_out["w"], aggregate(w0, deltas))


def test_checkpoints_written_every_round(tmp_path):
    datasets = make_datasets(["s1", "s2"])
    ckpt_dir = tmp_path / "ck"
    params = make_params(["s1", "s2"], rounds=3, ckpt_dir=ckpt_dir)
    run_experiment(params, datasets)
    for t in range(0, 4):
        assert checkpoint_path(ckpt_dir, t).exists()
    final = load_checkpoint(checkpoint_path(ckpt_dir, 3))
    assert final.round_index == 3


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
    server.send(wire.ConfigBroadcast(fp_avg=fp, experiment_seed=1, rounds=1, train=TRAIN,
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
                      fp_avg=FP, experiment_seed=999,
                      experiment_digest="c" * 64)
    path = tmp_path / "other.frck"
    ckpt.save(path)
    datasets = make_datasets(["s1"])
    params = make_params(["s1"], rounds=2)  # digest 0*64 != c*64
    # the server refuses before accepting any connection, so no client joins
    server_out, _ = run_experiment(params, datasets, joining=[],
                                   server_kw={"resume": path})
    assert isinstance(server_out.get("exc"), CheckpointMismatch)


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


def _nan_site(hub, datasets, sid):
    """A site that answers every round with a NaN delta."""
    from fedrad import wire
    from fedrad.transport import TransportClosed
    conn = _scripted_site(hub, datasets, sid)
    try:
        while True:
            msg = conn.recv(timeout=30)
            if isinstance(msg, wire.RoundStart):
                conn.send(wire.DeltaUpload(round_index=msg.round_index, site_id=sid,
                                           delta=np.full(WEIGHT_LEN, np.nan)))
            elif isinstance(msg, (wire.FinalModel, wire.Abort)):
                break
    except TransportClosed:
        pass
    conn.close()


@pytest.mark.parametrize("aggregation", ["strict", AGG_TOLERANT])
def test_non_finite_delta_never_checkpointed(tmp_path, aggregation):
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
               threading.Thread(target=_nan_site, args=(hub, datasets, "s2"), daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()

    written = sorted(ckpt_dir.glob("*.frck"))
    assert written
    for path in written:
        assert np.isfinite(load_checkpoint(path).weights).all(), path.name
    if aggregation == "strict":
        exc = server_out.get("exc")
        assert isinstance(exc, ExperimentAborted)
        assert exc.round_index == 1
        assert load_checkpoint(exc.checkpoint_path).round_index == 0
        assert isinstance(client_out["s1"], ExperimentAborted)
    else:
        assert "w" in server_out, server_out.get("exc")
        assert len(written) == 3
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
    want, _ = sequential_federated_reference(datasets, TRAIN, params.experiment_seed, 3)
    assert np.array_equal(server_out["w"], want)
    assert np.array_equal(client_out["s1"], want)
    assert np.array_equal(client_out["s2"], want)



def test_checkpoint_metadata_nested_too_deep_is_a_mismatch(tmp_path):
    path = tmp_path / "deep.frck"
    _write_raw_checkpoint(path, b"[" * 100_000)
    with pytest.raises(CheckpointMismatch, match="bad metadata") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and "not valid JSON" in str(err.value)
