import re
from pathlib import Path

import numpy as np
import pytest

import fedrad
from fedrad.seeding import (canonical_json, derive_seed, digest_of, read_stamped_csv,
                            read_stamped_json, rng_from, stamped_csv, write_json)


def test_canonical_json_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, "x"]}) == '{"a":[1.5,"x"],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"v": float("nan")})


def test_digest_stable():
    assert digest_of({"a": 1}) == digest_of({"a": 1})
    assert digest_of({"a": 1}) != digest_of({"a": 2})
    assert len(digest_of({})) == 64


def test_derive_seed_tagged_parts():
    # injective on part boundaries: ("ab", "c") differs from ("a", "bc")
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert derive_seed(1, 2) != derive_seed(12)
    assert derive_seed("x", 1) != derive_seed("x", "1")
    assert 0 <= derive_seed("anything") < 2 ** 64


def test_derive_seed_repeatable():
    assert derive_seed("site", 3, b"\x00") == derive_seed("site", 3, b"\x00")


def test_rng_from_streams_independent():
    a = rng_from("stream", 1).normal(size=4)
    b = rng_from("stream", 2).normal(size=4)
    a2 = rng_from("stream", 1).normal(size=4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_derive_seed_rejects_unknown_types():
    with pytest.raises(TypeError):
        derive_seed(1.5)


def test_stamped_artifacts_roundtrip_and_refuse_foreign(tmp_path):
    csv = tmp_path / "a.csv"
    csv.write_text(stamped_csv("d" * 64, ["x,y", "1,2"]))
    assert csv.read_text() == "# experiment=" + "d" * 64 + "\nx,y\n1,2\n"
    assert read_stamped_csv(csv) == ("d" * 64, ["x,y", "1,2"])
    csv.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="experiment="):
        read_stamped_csv(csv)

    doc = tmp_path / "a.json"
    write_json(doc, {"experiment": "d" * 64, "b": [1]})
    assert doc.read_text() == '{\n  "b": [\n    1\n  ],\n  "experiment": "' + "d" * 64 + '"\n}\n'
    assert read_stamped_json(doc, "d" * 64)["b"] == [1]
    with pytest.raises(ValueError, match="different experiment"):
        read_stamped_json(doc, "e" * 64)
    for unstamped in ({"b": [1]}, ["d" * 64]):
        write_json(doc, unstamped)
        with pytest.raises(ValueError, match="different experiment"):
            read_stamped_json(doc, "d" * 64)


# A stamp read or compared by hand: .get("experiment") or ["experiment"] next
# to == or !=, on either side and across a line break.
_HAND_CHECK = re.compile(
    r"""(\.get\(\s*["']experiment["']\s*\)|\[\s*["']experiment["']\s*\])\s*[!=]="""
    r"""|[!=]=\s*[\w.]*(\.get\(\s*["']experiment["']|\[\s*["']experiment["'])""")


def test_only_seeding_knows_the_stamp_format():
    offenders = []
    for path in sorted(Path(fedrad.__file__).parent.glob("*.py")):
        if path.name == "seeding.py":
            continue
        text = path.read_text()
        hits = [m.start() for m in re.finditer(re.escape("# experiment="), text)]
        hits += [m.start() for m in _HAND_CHECK.finditer(text)]
        offenders += [f"{path.name}:{text.count(chr(10), 0, at) + 1}" for at in sorted(hits)]
    assert not offenders, f"stamp written or checked outside fedrad.seeding: {offenders}"
