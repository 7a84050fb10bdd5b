import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedrad
from fedrad.config import ExperimentConfig
from fedrad.experiment import default_config
from fedrad.seeding import (canonical_json, derive_seed, digest_of, from_dict,
                            read_stamped_csv, read_stamped_json, rng_from, stamped_csv,
                            to_dict, write_json)


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


@pytest.mark.parametrize("part, seed", [
    (7, 17612318922122710373),
    (True, 3548066528658401635),
    (np.int64(5), 18089270421508405016),
    (np.uint64(2 ** 64 - 1), 14647534021071871120),
])
def test_derive_seed_integer_parts_keep_their_seeds(part, seed):
    # any numbers.Integral is an integer part; the values are those of the
    # (int, np.integer) check this replaced
    assert derive_seed(part) == seed


@pytest.mark.parametrize("part", [1.0, np.float64(1), np.bool_(True)])
def test_derive_seed_refuses_non_integral_numbers(part):
    with pytest.raises(TypeError, match="unsupported seed part type"):
        derive_seed(part)


def test_rng_from_first_draws_unchanged():
    assert (rng_from(20240117, "epoch", 1).random(4).tobytes().hex()
            == "6360fef40de9e73fda42af4225c2dc3fd4da6347253ae93fa03ba1441ff3a63f")


def test_seeding_imports_without_numpy():
    # the config records and artifact stamps rest on seeding; rng_from
    # imports numpy when it is first called
    code = ("import sys, fedrad.seeding as s\n"
            "before = 'numpy' in sys.modules\n"
            "s.rng_from(1)\n"
            "print(before, 'numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


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


def _config_doc(path, value):
    """The default config's JSON form with the value at ``path`` replaced."""
    doc = to_dict(default_config(2))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("path,value,named", [
    (("rounds",), 1e999, r"^rounds: "),
    (("round_timeout_s",), float("inf"), r"^round_timeout_s: inf is not a finite number"),
    (("name",), 5, r"^name: expected a string"),
    (("train",), [], r"^train: expected an object"),
    (("train", "learning_rate"), "fast", r"^train\.learning_rate: "),
    (("sites", 1, "grid_dims"), [16, 16], r"^sites\[1\]\.grid_dims: expected 3 items, got 2"),
    (("sites", 1, "spacing", 2), None, r"^sites\[1\]\.spacing\[2\]: "),
    (("sites", 0, "cc_count_regime"), "bogus", r"^sites\[0\]\.cc_count_regime: "),
    (("links", 1, "offline_rounds"), "12", r"^links\[1\]\.offline_rounds: expected a list"),
    (("links", 0, "crash_at_round"), "later", r"^links\[0\]\.crash_at_round: "),
    (("links", 0, "speed_factor"), 0, r"^links\[0\]: site_a: speed_factor must be positive"),
    (("scenarios",), ["personalization", "personalization"], r"^ExperimentConfig: duplicate"),
])
def test_from_dict_names_the_field(path, value, named):
    with pytest.raises(ValueError, match=named):
        from_dict(ExperimentConfig, _config_doc(path, value))


def test_from_dict_converts_by_type():
    config = from_dict(ExperimentConfig, _config_doc(("links", 0, "offline_rounds"), [3, 2, 3]))
    assert config.links[0].offline_rounds == frozenset({2, 3})
    assert to_dict(config.links[0])["offline_rounds"] == [2, 3]
    assert from_dict(ExperimentConfig, _config_doc(("rounds",), 7.0)).rounds == 7
    with pytest.raises(ValueError, match="^ExperimentConfig: expected an object"):
        from_dict(ExperimentConfig, [])


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
