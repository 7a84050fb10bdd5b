"""Binary wire protocol for the federated rounds.

Frame layout (little-endian): magic ``FR`` (2 bytes), version u8, message
type u8, payload length u32, payload. Payloads are message-specific:
weight arrays travel as raw float64, structured fields as canonical JSON.

The decoder never raises anything but :class:`ProtocolError` subclasses,
whatever bytes it is fed; each failure mode gets a distinct class so peers
can tell truncation from corruption.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .fingerprint import DatasetFingerprint
from .seeding import canonical_json, from_dict, parse_json, to_dict

MAGIC = b"FR"
VERSION = 1
_FRAME_HEADER = struct.Struct("<2sBBI")
FRAME_HEADER_SIZE = _FRAME_HEADER.size  # 8
MAX_PAYLOAD = 1 << 24


class ProtocolError(Exception):
    """Base class for every wire decode failure."""


class BadMagic(ProtocolError):
    pass


class BadVersion(ProtocolError):
    pass


class UnknownType(ProtocolError):
    pass


class Truncated(ProtocolError):
    pass


class Oversized(ProtocolError):
    pass


class MalformedPayload(ProtocolError):
    pass


class MsgType(enum.IntEnum):
    REGISTER = 1
    FINGERPRINT_SUBMIT = 2
    CONFIG_BROADCAST = 3
    ROUND_START = 4
    DELTA_UPLOAD = 5
    CHECKPOINT_NOTICE = 6
    FINAL_MODEL = 7
    ABORT = 9


@dataclass(eq=False)
class Register:
    site_id: str


@dataclass(eq=False)
class FingerprintSubmit:
    fingerprint: DatasetFingerprint


@dataclass(eq=False)
class ConfigBroadcast:
    fp_avg: DatasetFingerprint
    experiment_seed: int
    rounds: int
    train: TrainConfig
    experiment_digest: str


@dataclass(eq=False)
class RoundStart:
    round_index: int
    weights: np.ndarray


@dataclass(eq=False)
class DeltaUpload:
    round_index: int
    site_id: str
    delta: np.ndarray


@dataclass(eq=False)
class CheckpointNotice:
    round_index: int


@dataclass(eq=False)
class FinalModel:
    weights: np.ndarray


@dataclass(eq=False)
class Abort:
    reason: str


Message = (Register | FingerprintSubmit | ConfigBroadcast | RoundStart
           | DeltaUpload | CheckpointNotice | FinalModel | Abort)

_TYPE_OF = {
    Register: MsgType.REGISTER,
    FingerprintSubmit: MsgType.FINGERPRINT_SUBMIT,
    ConfigBroadcast: MsgType.CONFIG_BROADCAST,
    RoundStart: MsgType.ROUND_START,
    DeltaUpload: MsgType.DELTA_UPLOAD,
    CheckpointNotice: MsgType.CHECKPOINT_NOTICE,
    FinalModel: MsgType.FINAL_MODEL,
    Abort: MsgType.ABORT,
}


def _weights_bytes(w: np.ndarray) -> bytes:
    return np.asarray(w, dtype="<f8").tobytes()


def _weights_from(buf: bytes, what: str) -> np.ndarray:
    if len(buf) % 8 != 0:
        raise MalformedPayload(f"{what}: weight bytes not a multiple of 8")
    return np.frombuffer(buf, dtype="<f8").copy()


def _json_from(buf: bytes, what: str) -> dict:
    try:
        obj = parse_json(buf, what)
    except ValueError as exc:
        raise MalformedPayload(str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedPayload(f"{what}: JSON payload is not an object")
    return obj


def _text_from(buf: bytes, what: str) -> str:
    try:
        return buf.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedPayload(f"{what}: invalid UTF-8") from exc


def _encode_payload(msg: Message) -> bytes:
    if isinstance(msg, Register):
        return msg.site_id.encode("utf-8")
    if isinstance(msg, FingerprintSubmit):
        return canonical_json(to_dict(msg.fingerprint)).encode("ascii")
    if isinstance(msg, ConfigBroadcast):
        return canonical_json(to_dict(msg)).encode("ascii")
    if isinstance(msg, RoundStart):
        return struct.pack("<I", msg.round_index) + _weights_bytes(msg.weights)
    if isinstance(msg, DeltaUpload):
        site = msg.site_id.encode("utf-8")
        return (struct.pack("<IH", msg.round_index, len(site)) + site
                + _weights_bytes(msg.delta))
    if isinstance(msg, CheckpointNotice):
        return struct.pack("<I", msg.round_index)
    if isinstance(msg, FinalModel):
        return _weights_bytes(msg.weights)
    if isinstance(msg, Abort):
        return msg.reason.encode("utf-8")
    raise TypeError(f"not a wire message: {type(msg)!r}")


def _decode_payload(msg_type: MsgType, buf: bytes) -> Message:
    try:
        if msg_type is MsgType.REGISTER:
            return Register(site_id=_text_from(buf, "Register"))
        if msg_type is MsgType.FINGERPRINT_SUBMIT:
            return FingerprintSubmit(fingerprint=from_dict(
                DatasetFingerprint, _json_from(buf, "FingerprintSubmit")))
        if msg_type is MsgType.CONFIG_BROADCAST:
            return from_dict(ConfigBroadcast, _json_from(buf, "ConfigBroadcast"))
        if msg_type is MsgType.ROUND_START:
            if len(buf) < 4:
                raise MalformedPayload("RoundStart: missing round index")
            (t,) = struct.unpack_from("<I", buf)
            return RoundStart(round_index=t, weights=_weights_from(buf[4:], "RoundStart"))
        if msg_type is MsgType.DELTA_UPLOAD:
            if len(buf) < 6:
                raise MalformedPayload("DeltaUpload: missing header")
            t, site_len = struct.unpack_from("<IH", buf)
            if len(buf) < 6 + site_len:
                raise MalformedPayload("DeltaUpload: site id exceeds payload")
            site = _text_from(buf[6:6 + site_len], "DeltaUpload")
            return DeltaUpload(round_index=t, site_id=site,
                               delta=_weights_from(buf[6 + site_len:], "DeltaUpload"))
        if msg_type is MsgType.CHECKPOINT_NOTICE:
            if len(buf) != 4:
                raise MalformedPayload("CheckpointNotice: expected 4 bytes")
            (t,) = struct.unpack_from("<I", buf)
            return CheckpointNotice(round_index=t)
        if msg_type is MsgType.FINAL_MODEL:
            return FinalModel(weights=_weights_from(buf, "FinalModel"))
        if msg_type is MsgType.ABORT:
            return Abort(reason=_text_from(buf, "Abort"))
    except ValueError as exc:  # a record that from_dict refuses
        raise MalformedPayload(f"{msg_type.name}: {exc}") from exc
    raise UnknownType(f"unhandled message type {msg_type}")


def encode_frame(msg: Message) -> bytes:
    """Encode a message into one complete frame."""
    payload = _encode_payload(msg)
    if len(payload) > MAX_PAYLOAD:
        raise Oversized(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return _FRAME_HEADER.pack(MAGIC, VERSION, int(_TYPE_OF[type(msg)]), len(payload)) + payload


def decode_frame(buf: bytes) -> Message:
    """Decode one complete frame; trailing bytes are a Truncated-style error."""
    msg, consumed = decode_frame_prefix(buf)
    if consumed != len(buf):
        raise MalformedPayload(f"{len(buf) - consumed} trailing bytes after frame")
    return msg


def frame_payload_length(buf: bytes) -> int:
    """Check the frame header at the start of ``buf``; returns the payload
    length it declares."""
    if len(buf) < FRAME_HEADER_SIZE:
        raise Truncated(f"need {FRAME_HEADER_SIZE} header bytes, have {len(buf)}")
    magic, version, _type_code, payload_len = _FRAME_HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}")
    if payload_len > MAX_PAYLOAD:
        raise Oversized(f"declared payload of {payload_len} bytes exceeds {MAX_PAYLOAD}")
    return payload_len


def decode_frame_prefix(buf: bytes) -> tuple[Message, int]:
    """Decode the frame at the start of ``buf``; returns (message, bytes consumed)."""
    payload_len = frame_payload_length(buf)
    type_code = buf[3]  # after the magic and the version
    try:
        msg_type = MsgType(type_code)
    except ValueError as exc:
        raise UnknownType(f"unknown message type {type_code}") from exc
    end = FRAME_HEADER_SIZE + payload_len
    if len(buf) < end:
        raise Truncated(f"payload needs {payload_len} bytes, have {len(buf) - FRAME_HEADER_SIZE}")
    return _decode_payload(msg_type, bytes(buf[FRAME_HEADER_SIZE:end])), end
