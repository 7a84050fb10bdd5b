import json
import re

import numpy as np
import pytest

from fedrad import wire
from fedrad.config import TrainConfig
from fedrad.fingerprint import DatasetFingerprint
from fedrad.seeding import canonical_json, to_dict


def sample_fp(mean=-500.0):
    return DatasetFingerprint(
        n_samples=12, intensity_mean=mean, intensity_std=55.5,
        intensity_p005=-900.25, intensity_p995=210.5,
        spacing_mean=(2.0, 1.0, 1.25),
        class_voxel_freqs=(0.9, 0.04, 0.04, 0.02))


def all_message_variants(rng):
    w = rng.normal(size=16)
    return [
        wire.Register(site_id="site_x"),
        wire.Register(site_id=""),
        wire.FingerprintSubmit(fingerprint=sample_fp()),
        wire.ConfigBroadcast(fp_avg=sample_fp(-480.0), experiment_seed=987654321,
                             train=TrainConfig(epochs=1, batches_per_epoch=7,
                                               batch_size=32, learning_rate=0.25,
                                               seed=11),
                             experiment_digest="ab" * 32),
        wire.RoundStart(round_index=3, weights=w),
        wire.RoundStart(round_index=0, weights=np.zeros(0)),
        wire.DeltaUpload(round_index=3, site_id="site_x", delta=w * 0.5),
        wire.CheckpointNotice(round_index=17),
        wire.FinalModel(weights=w),
        wire.Abort(reason="round 3 timeout"),
        wire.Abort(reason=""),
    ]


def messages_equal(a, b):
    if type(a) is not type(b):
        return False
    for name in a.__dataclass_fields__:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def test_roundtrip_every_variant(rng):
    for msg in all_message_variants(rng):
        back = wire.decode_frame(wire.encode_frame(msg))
        assert messages_equal(msg, back), msg


def test_frame_layout(rng):
    frame = wire.encode_frame(wire.Abort(reason=""))
    assert frame[:2] == b"FR"
    assert frame[2] == wire.VERSION
    assert frame[3] == wire.MsgType.ABORT
    assert frame[4:8] == (0).to_bytes(4, "little")
    assert len(frame) == 8


def refused(text):
    """``pytest.raises`` of the ProtocolError whose message is ``text``."""
    return pytest.raises(wire.ProtocolError, match="^" + re.escape(text) + "$")


def test_decode_error_classes():
    good = wire.encode_frame(wire.Abort(reason="x"))
    with refused("bad magic b'XX'"):
        wire.decode_frame(b"XX" + good[2:])
    with refused("unsupported version 7"):
        wire.decode_frame(good[:2] + b"\x07" + good[3:])
    with refused("unknown message type 238"):
        wire.decode_frame(good[:3] + b"\xee" + good[4:])
    with refused("need 8 header bytes, have 5"):
        wire.decode_frame(good[:5])
    with refused("payload needs 1 bytes, have 0"):
        wire.decode_frame(good[:-1])
    with refused("4 trailing bytes after frame"):
        wire.decode_frame(good + b"junk")


def test_malformed_payloads():
    # RoundStart payload not a multiple of 8 after the round index
    frame = wire._FRAME_HEADER.pack(wire.MAGIC, wire.VERSION,
                                    int(wire.MsgType.ROUND_START), 7) + b"\x00" * 7
    with refused("RoundStart: weight bytes not a multiple of 8"):
        wire.decode_frame(frame)
    # FingerprintSubmit with invalid JSON
    frame = wire._FRAME_HEADER.pack(wire.MAGIC, wire.VERSION,
                                    int(wire.MsgType.FINGERPRINT_SUBMIT), 3) + b"{{{"
    with pytest.raises(wire.ProtocolError, match="^FingerprintSubmit: not valid JSON: "):
        wire.decode_frame(frame)
    # FingerprintSubmit nested deeper than the JSON parser can recurse
    frame = wire._FRAME_HEADER.pack(wire.MAGIC, wire.VERSION,
                                    int(wire.MsgType.FINGERPRINT_SUBMIT), 100000) + b"[" * 100000
    with pytest.raises(wire.ProtocolError, match="^FingerprintSubmit: not valid JSON: "):
        wire.decode_frame(frame)
    # DeltaUpload whose declared site id length exceeds the payload
    body = (3).to_bytes(4, "little") + (200).to_bytes(2, "little") + b"ab"
    frame = wire._FRAME_HEADER.pack(wire.MAGIC, wire.VERSION,
                                    int(wire.MsgType.DELTA_UPLOAD), len(body)) + body
    with refused("DeltaUpload: site id exceeds payload"):
        wire.decode_frame(frame)


def _json_frame(msg_type, doc):
    body = json.dumps(doc).encode("ascii")
    return wire._FRAME_HEADER.pack(wire.MAGIC, wire.VERSION, int(msg_type), len(body)) + body


def _broadcast_doc(**changes):
    msg = all_message_variants(np.random.default_rng(0))[3]
    return dict(to_dict(msg), **changes)


@pytest.mark.parametrize("msg_type,doc,field", [
    (wire.MsgType.FINGERPRINT_SUBMIT, dict(to_dict(sample_fp()), n_samples=1e999), "n_samples"),
    (wire.MsgType.FINGERPRINT_SUBMIT, dict(to_dict(sample_fp()), spacing_mean=[2.0, 1.0]),
     "spacing_mean"),
    (wire.MsgType.FINGERPRINT_SUBMIT, dict(to_dict(sample_fp()), intensity_mean=float("nan")),
     "intensity_mean"),
    (wire.MsgType.CONFIG_BROADCAST, _broadcast_doc(experiment_seed=1e999), "experiment_seed"),
    (wire.MsgType.CONFIG_BROADCAST, _broadcast_doc(experiment_digest=5), "experiment_digest"),
    (wire.MsgType.CONFIG_BROADCAST, _broadcast_doc(train={"epochs": 1}),
     "train.batches_per_epoch"),
], ids=["count-overflow", "spacing-short", "mean-nan", "seed-overflow", "digest-int",
        "train-incomplete"])
def test_ill_typed_record_is_a_malformed_payload(msg_type, doc, field):
    # the refusal names the message type and the field path
    with pytest.raises(wire.ProtocolError, match=f"^{msg_type.name}: {field}: "):
        wire.decode_frame(_json_frame(msg_type, doc))


def test_broadcast_with_fields_this_version_does_not_know_decodes():
    # a server that still sends the round count, which no site reads, is
    # understood by a site that no longer knows the field
    msg = all_message_variants(np.random.default_rng(0))[3]
    back = wire.decode_frame(_json_frame(wire.MsgType.CONFIG_BROADCAST, _broadcast_doc(rounds=40)))
    assert messages_equal(back, msg)


def test_record_payloads_are_their_json_form(rng):
    # the bytes of a record message are the canonical JSON of its fields
    fp_msg, broadcast = all_message_variants(rng)[2:4]
    assert wire.encode_frame(fp_msg)[8:] == canonical_json(to_dict(sample_fp())).encode()
    assert json.loads(wire.encode_frame(broadcast)[8:]) == {
        "experiment_digest": "ab" * 32, "experiment_seed": 987654321,
        "fp_avg": to_dict(sample_fp(-480.0)),
        "train": {"epochs": 1, "batches_per_epoch": 7, "batch_size": 32,
                  "learning_rate": 0.25, "seed": 11}}


def test_retired_heartbeat_type_is_unknown():
    # type code 8 was a Heartbeat that nothing ever sent; it is no longer decoded
    assert 8 not in {int(t) for t in wire.MsgType}
    frame = wire._FRAME_HEADER.pack(wire.MAGIC, wire.VERSION, 8, 0)
    with refused("unknown message type 8"):
        wire.decode_frame(frame)


def test_oversized_declared_payload():
    frame = wire._FRAME_HEADER.pack(wire.MAGIC, wire.VERSION,
                                    int(wire.MsgType.ABORT), wire.MAX_PAYLOAD + 1)
    with refused(f"declared payload of {wire.MAX_PAYLOAD + 1} bytes exceeds {wire.MAX_PAYLOAD}"):
        wire.decode_frame(frame)


def test_random_fuzz_never_crashes(rng):
    # purely random buffers
    for _ in range(20000):
        size = int(rng.integers(0, 64))
        buf = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        try:
            wire.decode_frame(buf)
        except wire.ProtocolError:
            pass


def test_mutation_fuzz_never_crashes(rng):
    # random single and multi byte mutations of valid frames
    seeds = [wire.encode_frame(m) for m in all_message_variants(rng)]
    for _ in range(20000):
        base = bytearray(seeds[int(rng.integers(0, len(seeds)))])
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(base))) if base else 0
            if base:
                base[pos] = int(rng.integers(0, 256))
        try:
            wire.decode_frame(bytes(base))
        except wire.ProtocolError:
            pass
