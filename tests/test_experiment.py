import enum
import hashlib
import itertools
import json
import re
import shutil
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_profile

from fedrad import experiment as exp
from fedrad.config import (ExperimentConfig, Scenario, SiteLink, SiteProfile, TrainConfig,
                           load_config, models_dir)
from fedrad.evalrank import TrainedModel, scenario_variants
from fedrad import siteio
from fedrad.fingerprint import DatasetFingerprint, compute_fingerprint
from fedrad.learner import FeatureConfig, WEIGHT_LEN
from fedrad.seeding import from_dict, to_dict, write_json


def small_config(tmp_path, n_sites=2, rounds=2, scenarios=("personalization",)):
    profiles = tuple(make_profile(site_id=f"s{i}", n_samples=6, seed=500 + i)
                     for i in range(n_sites))
    return ExperimentConfig(
        name="small", seed=321, rounds=rounds, sites=profiles,
        train=TrainConfig(epochs=rounds, batches_per_epoch=4, batch_size=16,
                          learning_rate=0.3, seed=321),
        links=tuple(SiteLink(site_id=p.site_id) for p in profiles),
        scenarios=tuple(scenarios),
        output_dir=str(tmp_path / "run"))


def test_config_roundtrip_and_digest(tmp_path):
    config = small_config(tmp_path)
    again = from_dict(ExperimentConfig, to_dict(config))
    assert again == config
    assert again.digest == config.digest
    assert len(config.digest) == 64

    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert load_config(path).digest == config.digest


def test_digest_sensitive_to_fields(tmp_path):
    config = small_config(tmp_path)
    assert replace(config, seed=config.seed + 1).digest != config.digest
    assert replace(config, rounds=config.rounds + 1).digest != config.digest


# a different valid value, where the generic change of _changed would be refused
_VALID_CHANGES = {"aggregation": "tolerant", "transport": "tcp",
                  "scenarios": ("generalization_without_local",)}


def _changed(name, value):
    """A value of the same type as ``value`` that differs from it."""
    if name in _VALID_CHANGES:
        return _VALID_CHANGES[name]
    if is_dataclass(value):
        first = fields(value)[0].name
        return replace(value, **{first: _changed(first, getattr(value, first))})
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, tuple):
        return (_changed(name, value[0]),) + value[1:]
    if isinstance(value, frozenset):
        return value | {3}
    if value is None:
        return 3
    return value + ("x" if isinstance(value, str) else 1)


def _replace_in(config, record, name):
    """``config`` with field ``name`` of its ``record`` changed."""
    def swap(obj):
        return replace(obj, **{name: _changed(name, getattr(obj, name))})
    if record == "ExperimentConfig":
        return swap(config)
    if record == "TrainConfig":
        return replace(config, train=swap(config.train))
    if record == "SiteProfile":
        return replace(config, sites=(swap(config.sites[0]),) + config.sites[1:])
    return replace(config, links=(swap(config.links[0]),) + config.links[1:])


@pytest.mark.parametrize("record,name", [
    (cls.__name__, f.name)
    for cls in (ExperimentConfig, SiteProfile, SiteLink, TrainConfig) for f in fields(cls)
])
def test_digest_covers_every_field(tmp_path, record, name):
    config = small_config(tmp_path)
    changed = _replace_in(config, record, name)
    assert changed != config
    assert changed.digest != config.digest


def test_every_record_roundtrips_through_its_json_form(tmp_path):
    config = small_config(tmp_path)
    link = SiteLink(site_id="s1", latency_ms=2.5, speed_factor=0.5,
                    offline_rounds=frozenset({4, 2}), crash_at_round=7)
    records = [
        config, replace(config, links=(link,)), config.sites[0], link, SiteLink("s2"),
        config.train,
        FeatureConfig(shift=-500.0, scale=60.0, clip_low=-900.0, clip_high=100.0),
        DatasetFingerprint(n_samples=12, intensity_mean=-500.0, intensity_std=55.5,
                           intensity_p005=-900.25, intensity_p995=210.5,
                           spacing_mean=(2.0, 1.0, 1.25),
                           class_voxel_freqs=(0.9, 0.04, 0.04, 0.02)),
    ]
    for record in records:
        assert from_dict(type(record), to_dict(record)) == record


def test_config_keys_that_may_be_left_out(tmp_path):
    config = small_config(tmp_path)
    doc = to_dict(config)
    for key in ("links", "scenarios", "aggregation", "transport", "round_timeout_s",
                "setup_timeout_s", "per_batch_seconds", "test_fraction", "stratify_class",
                "output_dir"):
        del doc[key]
    del doc["train"]["seed"]  # defaults to the experiment seed
    path = tmp_path / "short.json"
    write_json(path, dict(doc, seed=77))
    assert load_config(path) == ExperimentConfig(
        name=config.name, seed=77, rounds=config.rounds, sites=config.sites,
        train=replace(config.train, seed=77))
    assert from_dict(SiteLink, {"site_id": "s0"}) == SiteLink(site_id="s0")

    for key in ("name", "seed", "rounds", "sites", "train"):
        write_json(path, {k: v for k, v in to_dict(config).items() if k != key})
        with pytest.raises(ValueError, match=f"^{key}: missing"):
            load_config(path)
    doc = to_dict(config)
    del doc["train"]["epochs"]
    write_json(path, doc)
    with pytest.raises(ValueError, match=r"^train\.epochs: missing"):
        load_config(path)
    del doc["sites"][0]["seed"]
    write_json(path, doc)
    with pytest.raises(ValueError, match=r"^sites\[0\]\.seed: missing"):
        load_config(path)


def test_config_validation(tmp_path):
    config = small_config(tmp_path)
    with pytest.raises(ValueError):
        replace(config, rounds=0)
    with pytest.raises(ValueError):
        replace(config, aggregation="lenient")
    with pytest.raises(ValueError):
        replace(config, transport="carrier-pigeon")
    with pytest.raises(ValueError):
        replace(config, scenarios=("nonsense",))
    with pytest.raises(ValueError, match="duplicate scenarios"):
        replace(config, scenarios=("personalization", "personalization"))
    with pytest.raises(ValueError):
        replace(config, sites=config.sites + (config.sites[0],))


@pytest.mark.parametrize("site_id", ["site,a", "site\na", "site\ra", "site_a\n"])
def test_config_refuses_site_id_that_breaks_csv(tmp_path, site_id):
    # metrics.csv and ranks.csv join fields with bare commas, one record a line
    config = small_config(tmp_path)
    bad = replace(config.sites[0], site_id=site_id)
    with pytest.raises(ValueError, match="comma or a line break"):
        replace(config, sites=(bad,) + config.sites[1:])


def test_leave_out_config(tmp_path):
    config = small_config(tmp_path, n_sites=3)
    sub = exp.leave_out_config(config, "s1")
    assert sub.site_ids == ("s0", "s2")
    assert all(l.site_id != "s1" for l in sub.links)
    assert sub.digest != config.digest
    with pytest.raises(KeyError):
        exp.leave_out_config(config, "nope")
    single = small_config(tmp_path, n_sites=1)
    with pytest.raises(ValueError):
        exp.leave_out_config(single, "s0")


def test_zero_fault_links_pads_missing(tmp_path):
    config = small_config(tmp_path, n_sites=3)
    config = replace(config, links=(SiteLink(site_id="s1", latency_ms=9.0),))
    links = exp.zero_fault_links(config)
    assert {l.site_id for l in links} == {"s0", "s1", "s2"}
    assert next(l for l in links if l.site_id == "s1").latency_ms == 9.0
    assert next(l for l in links if l.site_id == "s0").latency_ms == 0.0


def test_generate_load_roundtrip(tmp_path):
    config = small_config(tmp_path)
    out = Path(config.output_dir)
    generated = exp.generate_all(config, out)
    loaded = exp.load_all(config, out)
    assert set(loaded) == set(generated)
    for sid in loaded:
        a = [s.sample_id for s in generated[sid].samples]
        b = [s.sample_id for s in loaded[sid].samples]
        assert a == b


def test_load_all_guards_digest(tmp_path):
    config = small_config(tmp_path)
    out = Path(config.output_dir)
    exp.generate_all(config, out)
    other = replace(config, seed=999)
    with pytest.raises(ValueError, match="different experiment"):
        exp.load_all(other, out)


def test_load_all_reads_each_manifest_once(tmp_path, monkeypatch):
    config = small_config(tmp_path, n_sites=3)
    out = Path(config.output_dir)
    exp.generate_all(config, out)
    reads, loads = [], []
    read_manifest, load_site_dataset = siteio.read_manifest, siteio.load_site_dataset

    def counted_read(site_dir):
        reads.append(Path(site_dir).name)
        return read_manifest(site_dir)

    def counted_load(*args, **kwargs):
        loads.append(1)
        return load_site_dataset(*args, **kwargs)

    monkeypatch.setattr(siteio, "read_manifest", counted_read)
    monkeypatch.setattr(siteio, "load_site_dataset", counted_load)
    loaded = exp.load_all(config, out)
    assert reads == list(config.site_ids)
    assert len(loads) == len(config.site_ids)
    assert all(ds.train and ds.test for ds in loaded.values())
    reads.clear()
    exp.load_all(config, out, splits=("test",))
    assert reads == list(config.site_ids)


def test_registry_roundtrip(tmp_path, rng):
    fc = FeatureConfig(shift=-500.0, scale=60.0, clip_low=-900.0, clip_high=100.0)
    registry = {name: TrainedModel(rng.normal(size=WEIGHT_LEN), fc)
                for name in ("local:s0", "local:s1", "fed", "fed_loo:s0")}
    path = exp.save_registry(registry, tmp_path, "e" * 64)
    assert sorted(f.name for f in path.parent.glob("*.frwt")) == [
        "fed.frwt", "fed_loo_s0.frwt", "local_s0.frwt", "local_s1.frwt"]
    back = exp.load_registry(tmp_path, "e" * 64)
    assert set(back) == set(registry)
    for name, model in registry.items():
        assert np.array_equal(back[name].weights, model.weights)
        assert back[name].feature_config == fc

    with pytest.raises(ValueError, match="different experiment"):
        exp.load_registry(tmp_path, "f" * 64)

    doc = json.loads(path.read_text())
    for name in ("ensemble", "local:", "fed_loo", "fed:s0"):
        write_json(path, {**doc, "models": {**doc["models"], name: doc["models"]["fed"]}})
        with pytest.raises(ValueError, match=f"unknown model entry {name!r}"):
            exp.load_registry(tmp_path, "e" * 64)


def test_registry_refuses_weight_files_it_did_not_write(tmp_path, rng):
    # a .frwt copied in from another model (or run) holds valid weights, so
    # only the sha256 that models.json records tells it apart
    fc = FeatureConfig(shift=-500.0, scale=60.0, clip_low=-900.0, clip_high=100.0)
    registry = {name: TrainedModel(rng.normal(size=WEIGHT_LEN), fc)
                for name in ("local:s0", "fed")}
    path = exp.save_registry(registry, tmp_path, "e" * 64)
    doc = json.loads(path.read_text())
    fed, local = path.parent / "fed.frwt", path.parent / "local_s0.frwt"
    assert doc["models"]["fed"]["sha256"] == hashlib.sha256(fed.read_bytes()).hexdigest()

    good = local.read_bytes()
    local.write_bytes(fed.read_bytes())
    with pytest.raises(ValueError, match=re.escape(
            f"{local}: sha256 differs from the one {path} records for model 'local:s0'")):
        exp.load_registry(tmp_path, "e" * 64)
    local.write_bytes(good)

    for entry, message in (
            ({**doc["models"]["fed"], "file": "local_s0.frwt"},
             "model 'fed' names file 'local_s0.frwt', not 'fed.frwt'"),
            ({k: v for k, v in doc["models"]["fed"].items() if k != "sha256"},
             f"{fed}: sha256 differs")):
        write_json(path, {**doc, "models": {**doc["models"], "fed": entry}})
        with pytest.raises(ValueError, match=re.escape(message)):
            exp.load_registry(tmp_path, "e" * 64)
    write_json(path, doc)
    assert set(exp.load_registry(tmp_path, "e" * 64)) == set(registry)


def _train_sim(config, path):
    from fedrad.cli import main
    exp.save_config(config, path)
    assert main(["gen", "--config", str(path)]) == 0
    return main(["train-sim", "--config", str(path)])


@pytest.mark.parametrize("n_sites", [2, 3])
def test_train_sim_trains_the_models_the_scenarios_name(tmp_path, capsys, n_sites):
    """For every non-empty set of scenarios, models.json names exactly the
    member models of the scenarios' variants on every site."""
    names = [s.value for s in Scenario]
    subsets = [c for k in range(1, len(names) + 1) for c in itertools.combinations(names, k)]
    for i, scenarios in enumerate(subsets):
        config = small_config(tmp_path / str(i), n_sites=n_sites, scenarios=scenarios)
        assert _train_sim(config, tmp_path / f"{i}.json") == 0, scenarios
        doc = json.loads((Path(config.output_dir) / "models" / "models.json").read_text())
        want = {name for scenario in scenarios for site in config.site_ids
                for _, members in scenario_variants(scenario, config.site_ids, site)
                for name, _ in members}
        assert set(doc["models"]) == want, scenarios
    capsys.readouterr()


def test_train_sim_refuses_a_one_site_leave_out_ensemble(tmp_path, monkeypatch, capsys):
    """One site leaves no foreign models to ensemble: train-sim exits 1
    before any SGD step."""
    from fedrad import learner

    def no_sgd(*args):
        raise AssertionError("an SGD step ran")

    monkeypatch.setattr(learner, "loss_and_grad", no_sgd)
    config = small_config(tmp_path, n_sites=1, scenarios=("generalization_without_local",))
    assert _train_sim(config, tmp_path / "exp.json") == 1
    assert "leave-out ensemble needs at least two sites" in capsys.readouterr().err
    assert not (Path(config.output_dir) / "models").exists()


def test_plan_entries_train_independently(tmp_path, capsys):
    """Every model of the plan trained in reverse order through train_model
    writes the files train-sim writes, byte for byte: the models, timing.csv
    and each checkpoint log. No entry reads another's output."""
    from fedrad.fingerprint import site_fingerprint
    config = small_config(tmp_path, n_sites=3, scenarios=[s.value for s in Scenario])
    out = Path(config.output_dir)
    assert _train_sim(config, tmp_path / "exp.json") == 0
    want = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    trained = [p for p in want if p.relative_to(out).parts[0] in ("models", "checkpoints")]
    assert len(trained) == 7 + 1 + 4  # the models, models.json and the logs
    shutil.rmtree(models_dir(out))
    shutil.rmtree(out / "checkpoints")
    (out / "timing.csv").unlink()

    datasets = exp.load_all(config, out)
    fingerprints = {s: site_fingerprint(s, datasets[s].train) for s in config.site_ids}
    plan = ([f"local:{s}" for s in config.site_ids] + ["fed"]
            + [f"fed_loo:{s}" for s in config.site_ids])
    registry = {name: exp.train_model(name, config, datasets, fingerprints, out)
                for name in reversed(plan)}
    exp.save_registry(registry, out, config.digest)
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == want
    capsys.readouterr()


def test_local_training_self_configures(tmp_path):
    config = small_config(tmp_path)
    datasets = exp.generate_all(config, Path(config.output_dir))
    fingerprints = {s: compute_fingerprint(ds.train) for s, ds in datasets.items()}
    models = exp.train_local_models(config, datasets, fingerprints)
    assert set(models) == set(config.site_ids)
    # locals are configured from their own data, so different sites get
    # different normalization
    fcs = {sid: m.feature_config for sid, m in models.items()}
    assert fcs["s0"] != fcs["s1"]


def test_default_config_stable_digest():
    # guards accidental drift of the shipped experiment
    c1 = exp.default_config(3)
    c2 = exp.default_config(3)
    assert c1.digest == c2.digest
    assert c1.site_ids == ("site_a", "site_b", "site_c")
    assert set(c1.scenarios) == {s.value for s in Scenario}


def test_default_config_matches_shipped_file(tmp_path):
    shipped = Path(__file__).parent.parent / "configs" / "default.json"
    write_json(tmp_path / "default.json", to_dict(exp.default_config(3)))
    assert (tmp_path / "default.json").read_bytes() == shipped.read_bytes()
