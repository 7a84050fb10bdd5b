"""Deterministic seed derivation, canonical serialization and artifact stamps.

Everything that must be reproducible across processes (dataset generation,
model initialization, per-epoch batch sampling, experiment digests) funnels
through these helpers, so reproducibility hinges on sha256 rather than on
Python hashing or RNG state threading.

Every record (a config, a fingerprint, a wire message) has one JSON form,
written by :func:`to_dict` and read back by :func:`from_dict` from the
dataclass declaration alone, so a field cannot be left out of a digest.

Every artifact is stamped with its experiment's digest: a JSON document in
its ``"experiment"`` key, a CSV in a ``# experiment=<digest>`` first line.
Only the helpers at the end of this module write the CSV stamp or check one.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import numbers
import types
import typing
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    import numpy as np


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to canonical JSON: sorted keys, no whitespace, ASCII.

    NaN/Infinity are rejected so the output is valid JSON everywhere.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def digest_of(obj: Any) -> str:
    """Hex sha256 digest of the canonical JSON serialization of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def derive_seed(*parts: int | str | bytes) -> int:
    """Derive a 64-bit unsigned seed from a tuple of ints/strings/bytes.

    The mapping is injective on the part tuple (each part is tagged and
    terminated) and stable across platforms and processes. An integer part
    may be any ``numbers.Integral``, numpy's integer scalars included.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(b"b" + part)
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        elif isinstance(part, numbers.Integral):
            h.update(b"i" + str(int(part)).encode("ascii"))
        else:
            raise TypeError(f"unsupported seed part type: {type(part)!r}")
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")


def rng_from(*parts: int | str | bytes) -> np.random.Generator:
    """PCG64 generator seeded with :func:`derive_seed` of ``parts``."""
    import numpy as np  # here, so that the records and stamps load without numpy

    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))


# ---------------------------------------------------------------------------
# The JSON form of records

_JSON_SCALARS = (bool, int, float, str, type(None))


def to_dict(obj: Any) -> Any:
    """The JSON form of ``obj``: a dataclass becomes a dict of all its fields,
    a tuple a list, a set a sorted list and an enum its value."""
    if type(obj) in _JSON_SCALARS:  # the common leaf, checked first for speed
        return obj
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [to_dict(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_dict(v) for v in obj)
    return obj


def from_dict(cls: Any, d: Any, path: str = "") -> Any:
    """Read ``d``, the JSON form of a ``cls``, back into one.

    ``cls`` is a dataclass, or a field type: int, float, str, an enum, a
    tuple, a frozenset or ``X | None``. Driven by the type hints of each
    dataclass: int, float and enum values are converted by their type, floats
    must be finite, str fields take only strings, tuples keep their declared
    length and a key may be absent only where its field has a default.
    Unknown keys are ignored. Any ``d`` that does not fit raises
    ``ValueError``, its message starting with the field path, such as
    ``sites[1].spacing``; ``path`` is where ``d`` itself sits.
    """
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if dataclasses.is_dataclass(cls):
        return _record(cls, d, path)
    if origin in (typing.Union, types.UnionType):  # X | None
        if d is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return from_dict(inner, d, path)
    if origin in (tuple, frozenset):
        if not isinstance(d, list):
            raise ValueError(f"{path}: expected a list, got {type(d).__name__}")
        if origin is frozenset or args[-1] is Ellipsis:
            args = (args[0],) * len(d)
        elif len(d) != len(args):
            raise ValueError(f"{path}: expected {len(args)} items, got {len(d)}")
        return origin(from_dict(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, d)))
    if not (cls in (int, float, str) or issubclass(cls, enum.Enum)):
        raise TypeError(f"{path}: no JSON form for {cls!r}")
    if cls is str and not isinstance(d, str):
        raise ValueError(f"{path}: expected a string, got {type(d).__name__}")
    try:
        value = cls(d)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if cls is float and not math.isfinite(value):  # canonical JSON has no NaN or Infinity
        raise ValueError(f"{path}: {value} is not a finite number")
    return value


def _record(cls: type, d: Any, path: str) -> Any:
    if not isinstance(d, dict):
        raise ValueError(f"{path or cls.__name__}: expected an object, got {type(d).__name__}")
    prefix = path + "." if path else ""
    kwargs = {}
    for f, hint in _fields(cls):
        if f.name in d:
            kwargs[f.name] = from_dict(hint, d[f.name], prefix + f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{prefix}{f.name}: missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # refused by the class's own checks
        raise ValueError(f"{path or cls.__name__}: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


# ---------------------------------------------------------------------------
# Artifact stamps

_CSV_STAMP = "# experiment="


def write_json(path: Path | str, doc: Any) -> None:
    """Write ``doc`` as an artifact: sorted keys, two-space indent, final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def check_stamp(what: Path | str, found: str | None, digest: str, hint: str = "") -> None:
    """Refuse the artifact ``what`` unless its stamp ``found`` is ``digest``."""
    if found != digest:
        raise ValueError(f"{what} belongs to a different experiment (stamped "
                         f"{str(found)[:12]}..., expected {digest[:12]}...){hint}")


def parse_json(data: str | bytes, source: Any) -> Any:
    """The document that the JSON text ``data`` (bytes are UTF-8) holds.

    Text that does not decode, nesting too deep for the parser included, is
    a ``ValueError`` naming ``source``, the file or message it came from.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{source}: not valid JSON: {exc}") from exc


def read_stamped_json(path: Path | str, digest: str) -> dict:
    """Load a JSON artifact, refusing one not stamped with ``digest``."""
    doc = parse_json(Path(path).read_bytes(), path)
    check_stamp(path, doc.get("experiment") if isinstance(doc, dict) else None, digest)
    return doc


def stamped_csv(digest: str, lines: Iterable[str]) -> str:
    """CSV text: the stamp line, then ``lines`` (header first), newline-terminated."""
    return "\n".join([_CSV_STAMP + digest, *lines]) + "\n"


def read_stamped_csv(path: Path | str) -> tuple[str, list[str]]:
    """Inverse of :func:`stamped_csv`: the digest and the lines after it;
    ``lines[i]`` is line ``i + 2`` of the file."""
    first, _, body = Path(path).read_text().partition("\n")
    if not first.startswith(_CSV_STAMP):
        raise ValueError(f"{path}: no '{_CSV_STAMP}' line")
    return first[len(_CSV_STAMP):], body.removesuffix("\n").split("\n")
