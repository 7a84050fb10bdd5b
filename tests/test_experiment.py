import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_profile

from fedrad import experiment as exp
from fedrad.evalrank import ModelRegistry, Scenario, TrainedModel
from fedrad.learner import FeatureConfig, TrainConfig, WEIGHT_LEN
from fedrad.simnet import SiteLink


def small_config(tmp_path, n_sites=2, rounds=2, scenarios=("personalization",)):
    profiles = tuple(make_profile(site_id=f"s{i}", n_samples=6, seed=500 + i)
                     for i in range(n_sites))
    return exp.ExperimentConfig(
        name="small", seed=321, rounds=rounds, sites=profiles,
        train=TrainConfig(epochs=rounds, batches_per_epoch=4, batch_size=16,
                          learning_rate=0.3, seed=321),
        links=tuple(SiteLink(site_id=p.site_id) for p in profiles),
        scenarios=tuple(scenarios),
        output_dir=str(tmp_path / "run"))


def test_config_roundtrip_and_digest(tmp_path):
    config = small_config(tmp_path)
    again = exp.ExperimentConfig.from_dict(config.to_dict())
    assert again == config
    assert again.digest == config.digest
    assert len(config.digest) == 64

    path = tmp_path / "exp.json"
    exp.save_config(config, path)
    assert exp.load_config(path).digest == config.digest


def test_digest_sensitive_to_fields(tmp_path):
    config = small_config(tmp_path)
    assert replace(config, seed=config.seed + 1).digest != config.digest
    assert replace(config, rounds=config.rounds + 1).digest != config.digest


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


def test_registry_roundtrip(tmp_path, rng):
    fc = FeatureConfig(shift=-500.0, scale=60.0, clip_low=-900.0, clip_high=100.0)
    registry = ModelRegistry()
    registry.locals = {"s0": TrainedModel(rng.normal(size=WEIGHT_LEN), fc),
                       "s1": TrainedModel(rng.normal(size=WEIGHT_LEN), fc)}
    registry.fed = TrainedModel(rng.normal(size=WEIGHT_LEN), fc)
    registry.fed_leave_out = {"s0": TrainedModel(rng.normal(size=WEIGHT_LEN), fc)}
    exp.save_registry(registry, tmp_path, "e" * 64)
    back = exp.load_registry(tmp_path, "e" * 64)
    assert set(back.locals) == {"s0", "s1"}
    assert np.array_equal(back.locals["s0"].weights, registry.locals["s0"].weights)
    assert back.locals["s0"].feature_config == fc
    assert np.array_equal(back.fed.weights, registry.fed.weights)
    assert set(back.fed_leave_out) == {"s0"}

    with pytest.raises(ValueError, match="different experiment"):
        exp.load_registry(tmp_path, "f" * 64)


def test_needed_model_kinds(tmp_path):
    pers = small_config(tmp_path, scenarios=("personalization",))
    assert exp.needed_model_kinds(pers) == {"local", "fed"}
    gwo = small_config(tmp_path, scenarios=("generalization_without_local",))
    assert exp.needed_model_kinds(gwo) == {"local", "fed_leave_out"}
    both = small_config(tmp_path, scenarios=("personalization",
                                             "generalization_with_local"))
    assert exp.needed_model_kinds(both) == {"local", "fed", "fed_leave_out"}


def test_local_training_self_configures(tmp_path):
    config = small_config(tmp_path)
    datasets = exp.generate_all(config, Path(config.output_dir))
    models = exp.train_local_models(config, datasets)
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


def test_default_config_matches_shipped_file():
    shipped = Path(__file__).parent.parent / "configs" / "default.json"
    config = exp.default_config(3)
    assert json.loads(shipped.read_text()) == config.to_dict()
