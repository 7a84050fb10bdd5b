"""Deterministic seed derivation, canonical serialization and artifact stamps.

Everything that must be reproducible across processes (dataset generation,
model initialization, per-epoch batch sampling, experiment digests) funnels
through these helpers, so reproducibility hinges on sha256 rather than on
Python hashing or RNG state threading.

Every artifact is stamped with its experiment's digest: a JSON document in
its ``"experiment"`` key, a CSV in a ``# experiment=<digest>`` first line.
Only the helpers at the end of this module write the CSV stamp or check one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

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
    terminated) and stable across platforms and processes.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(b"b" + part)
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        elif isinstance(part, (int, np.integer)):
            h.update(b"i" + str(int(part)).encode("ascii"))
        else:
            raise TypeError(f"unsupported seed part type: {type(part)!r}")
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")


def rng_from(*parts: int | str | bytes) -> np.random.Generator:
    """PCG64 generator seeded with :func:`derive_seed` of ``parts``."""
    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))


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


def read_stamped_json(path: Path | str, digest: str) -> dict:
    """Load a JSON artifact, refusing one not stamped with ``digest``."""
    doc = json.loads(Path(path).read_text())
    check_stamp(path, doc.get("experiment") if isinstance(doc, dict) else None, digest)
    return doc


def stamped_csv(digest: str, lines: Iterable[str]) -> str:
    """CSV text: the stamp line, then ``lines`` (header first), newline-terminated."""
    return "\n".join([_CSV_STAMP + digest, *lines]) + "\n"


def read_stamped_csv(path: Path | str) -> tuple[str, list[str]]:
    """Inverse of :func:`stamped_csv`: the digest and the non-empty lines after it."""
    first, _, body = Path(path).read_text().partition("\n")
    if not first.startswith(_CSV_STAMP):
        raise ValueError(f"{path}: no '{_CSV_STAMP}' line")
    return first[len(_CSV_STAMP):], [line for line in body.split("\n") if line]
