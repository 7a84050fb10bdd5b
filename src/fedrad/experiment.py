"""Experiment configuration, artifact layout, and training orchestration.

An experiment is one canonical-JSON config file; its sha256 digest
identifies the experiment and is embedded in every artifact so stages can
refuse to join outputs of different runs. All orchestration helpers here
are deterministic functions of the config, which is what makes re-running
any stage reproduce byte-identical artifacts.

Output directory layout (all stages):

    sites/<site_id>/            generated datasets (manifest + frvd grids)
    checkpoints/main/           round checkpoints of the federated run
    checkpoints/loo-<site>/     checkpoints of each leave-one-out run
    models/                     models.json + frwt weight files
    timing.csv                  straggler/idle accounting of the sim run
    eval/<scenario>/            metrics.csv, ranks.csv, summary.json
    report.json                 joined bundle
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

from . import siteio
from .dataset import CLASS_PE, CcRegime, SiteDataset, SiteProfile, generate_site_dataset
from .evalrank import ModelRegistry, Scenario, TrainedModel
from .fedproto import AGG_STRICT, AGG_TOLERANT, ServerParams
from .fingerprint import compute_fingerprint, derive_config
from .learner import (FeatureConfig, TrainConfig, build_training_matrix, load_weights,
                      save_weights, site_train_seed, train_epochs)
from .seeding import check_stamp, digest_of, read_stamped_json, write_json
from .simnet import DEFAULT_PER_BATCH_SECONDS, SiteLink

logger = logging.getLogger(__name__)

TRANSPORT_SIM = "sim"
TRANSPORT_TCP = "tcp"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    rounds: int
    sites: tuple[SiteProfile, ...]
    train: TrainConfig
    links: tuple[SiteLink, ...]
    scenarios: tuple[str, ...]
    aggregation: str = AGG_STRICT
    transport: str = TRANSPORT_SIM
    round_timeout_s: float = 60.0
    setup_timeout_s: float = 120.0
    per_batch_seconds: float = DEFAULT_PER_BATCH_SECONDS
    test_fraction: float = 0.2
    stratify_class: int = CLASS_PE
    output_dir: str = "runs/default"

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.aggregation not in (AGG_STRICT, AGG_TOLERANT):
            raise ValueError(f"unknown aggregation mode {self.aggregation!r}")
        if self.transport not in (TRANSPORT_SIM, TRANSPORT_TCP):
            raise ValueError(f"unknown transport {self.transport!r}")
        ids = [p.site_id for p in self.sites]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate site ids")
        for sid in ids:
            # the CSV artifacts join their fields with bare commas, one record a line
            if any(c in sid for c in ",\r\n"):
                raise ValueError(f"site id {sid!r} contains a comma or a line break")
        for s in self.scenarios:
            Scenario(s)  # raises on unknown names
        if len(set(self.scenarios)) != len(self.scenarios):
            # evaluate writes one metrics.csv per scenario name
            raise ValueError(f"duplicate scenarios in {list(self.scenarios)}")

    @property
    def site_ids(self) -> tuple[str, ...]:
        return tuple(sorted(p.site_id for p in self.sites))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "rounds": self.rounds,
            "sites": [p.to_dict() for p in self.sites],
            "train": self.train.to_dict(),
            "links": [l.to_dict() for l in self.links],
            "scenarios": list(self.scenarios),
            "aggregation": self.aggregation,
            "transport": self.transport,
            "round_timeout_s": self.round_timeout_s,
            "setup_timeout_s": self.setup_timeout_s,
            "per_batch_seconds": self.per_batch_seconds,
            "test_fraction": self.test_fraction,
            "stratify_class": self.stratify_class,
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        train = dict(d["train"])
        train.setdefault("seed", d["seed"])
        return cls(
            name=d["name"],
            seed=int(d["seed"]),
            rounds=int(d["rounds"]),
            sites=tuple(SiteProfile.from_dict(p) for p in d["sites"]),
            train=TrainConfig.from_dict(train),
            links=tuple(SiteLink.from_dict(l) for l in d.get("links", [])),
            scenarios=tuple(d.get("scenarios", [])),
            aggregation=d.get("aggregation", AGG_STRICT),
            transport=d.get("transport", TRANSPORT_SIM),
            round_timeout_s=float(d.get("round_timeout_s", 60.0)),
            setup_timeout_s=float(d.get("setup_timeout_s", 120.0)),
            per_batch_seconds=float(d.get("per_batch_seconds", DEFAULT_PER_BATCH_SECONDS)),
            test_fraction=float(d.get("test_fraction", 0.2)),
            stratify_class=int(d.get("stratify_class", CLASS_PE)),
            output_dir=d.get("output_dir", "runs/default"),
        )

    @property
    def digest(self) -> str:
        return digest_of(self.to_dict())


def load_config(path: Path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))


def save_config(config: ExperimentConfig, path: Path) -> None:
    write_json(path, config.to_dict())


def leave_out_config(config: ExperimentConfig, held_out: str) -> ExperimentConfig:
    """The sub-experiment that trains the federation without ``held_out``."""
    if held_out not in config.site_ids:
        raise KeyError(f"no site {held_out!r} to hold out")
    if len(config.site_ids) < 2:
        raise ValueError("cannot hold a site out of a single-site federation")
    return replace(
        config,
        name=f"{config.name}-loo-{held_out}",
        sites=tuple(p for p in config.sites if p.site_id != held_out),
        links=tuple(l for l in config.links if l.site_id != held_out),
    )


def server_params(config: ExperimentConfig, checkpoint_dir: Path | None) -> ServerParams:
    return ServerParams(
        expected_sites=config.site_ids,
        rounds=config.rounds,
        train=config.train,
        experiment_seed=config.seed,
        experiment_digest=config.digest,
        aggregation=config.aggregation,
        round_timeout_s=config.round_timeout_s,
        setup_timeout_s=config.setup_timeout_s,
        checkpoint_dir=checkpoint_dir,
    )


def zero_fault_links(config: ExperimentConfig) -> tuple[SiteLink, ...]:
    """Config links, padded with ideal links for sites that have none."""
    have = {l.site_id for l in config.links}
    pad = tuple(SiteLink(site_id=s) for s in config.site_ids if s not in have)
    return config.links + pad


# ---------------------------------------------------------------------------
# Artifact layout helpers

def sites_dir(out: Path) -> Path:
    return Path(out) / "sites"


def site_dir(out: Path, site_id: str) -> Path:
    return sites_dir(out) / site_id


def checkpoints_dir(out: Path, run: str = "main") -> Path:
    return Path(out) / "checkpoints" / run


def models_dir(out: Path) -> Path:
    return Path(out) / "models"


def eval_dir(out: Path, scenario: str) -> Path:
    return Path(out) / "eval" / scenario


# ---------------------------------------------------------------------------
# Generation and loading

def generate_all(config: ExperimentConfig, out: Path) -> dict[str, SiteDataset]:
    """Generate and persist every site dataset; returns them keyed by site."""
    datasets = {}
    for profile in sorted(config.sites, key=lambda p: p.site_id):
        ds = generate_site_dataset(profile, config.test_fraction, config.stratify_class)
        siteio.save_site_dataset(ds, site_dir(out, profile.site_id), profile,
                                 experiment_digest=config.digest)
        datasets[profile.site_id] = ds
        logger.info("generated %s: %d train / %d test samples", profile.site_id,
                    len(ds.train), len(ds.test))
    return datasets


def load_all(config: ExperimentConfig, out: Path) -> dict[str, SiteDataset]:
    datasets = {}
    for sid in config.site_ids:
        manifest = siteio.read_manifest(site_dir(out, sid))
        check_stamp(f"site {sid}: dataset", manifest.get("experiment"), config.digest,
                    hint="; run 'fedrad gen' for this config")
        datasets[sid] = siteio.load_site_dataset(site_dir(out, sid))
    return datasets


# ---------------------------------------------------------------------------
# Local training

def train_local_model(config: ExperimentConfig, dataset: SiteDataset) -> TrainedModel:
    """Train one site's standalone model, self-configured from its own data."""
    fp = compute_fingerprint(dataset.train)
    derived = derive_config(fp, config.seed, config.train)
    features, labels = build_training_matrix(dataset.train, derived.feature_config)
    cfg = replace(config.train, seed=site_train_seed(config.train.seed, dataset.site_id))
    weights = train_epochs(derived.init_weights, features, labels, cfg)
    return TrainedModel(weights=weights, feature_config=derived.feature_config)


def train_local_models(config: ExperimentConfig,
                       datasets: dict[str, SiteDataset]) -> dict[str, TrainedModel]:
    out = {}
    for sid in config.site_ids:
        out[sid] = train_local_model(config, datasets[sid])
        logger.info("trained local model of %s", sid)
    return out


def needed_model_kinds(config: ExperimentConfig) -> set[str]:
    """Which trained-model families the configured scenarios require."""
    needed = {"local"}
    scenarios = {Scenario(s) for s in config.scenarios}
    if Scenario.PERSONALIZATION in scenarios:
        needed.add("fed")
    if scenarios & {Scenario.GEN_WITHOUT_LOCAL, Scenario.GEN_WITH_LOCAL}:
        needed.add("fed_leave_out")
    return needed


# ---------------------------------------------------------------------------
# Model registry persistence

def _model_entry_name(kind: str, site: str | None) -> str:
    return kind if site is None else f"{kind}:{site}"


def save_registry(registry: ModelRegistry, out: Path, experiment_digest: str) -> Path:
    mdir = models_dir(out)
    mdir.mkdir(parents=True, exist_ok=True)
    entries = {}

    def put(name: str, model: TrainedModel) -> None:
        fname = name.replace(":", "_") + ".frwt"
        save_weights(mdir / fname, model.weights)
        entries[name] = {"file": fname,
                         "feature_config": model.feature_config.to_dict()}

    for sid, model in sorted(registry.locals.items()):
        put(_model_entry_name("local", sid), model)
    if registry.fed is not None:
        put("fed", registry.fed)
    for sid, model in sorted(registry.fed_leave_out.items()):
        put(_model_entry_name("fed_loo", sid), model)

    path = mdir / "models.json"
    write_json(path, {"experiment": experiment_digest, "models": entries})
    return path


def load_registry(out: Path, experiment_digest: str) -> ModelRegistry:
    mdir = models_dir(out)
    path = mdir / "models.json"
    if not path.exists():
        raise FileNotFoundError(f"{path}: no trained models (run training first)")
    doc = read_stamped_json(path, experiment_digest)
    registry = ModelRegistry()
    for name, entry in doc["models"].items():
        model = TrainedModel(
            weights=load_weights(mdir / entry["file"]),
            feature_config=FeatureConfig.from_dict(entry["feature_config"]),
        )
        if name.startswith("local:"):
            registry.locals[name.split(":", 1)[1]] = model
        elif name == "fed":
            registry.fed = model
        elif name.startswith("fed_loo:"):
            registry.fed_leave_out[name.split(":", 1)[1]] = model
        else:
            raise ValueError(f"{path}: unknown model entry {name!r}")
    return registry


# ---------------------------------------------------------------------------
# The shipped default experiment: three heterogeneous sites

def default_profiles(n_sites: int = 3) -> tuple[SiteProfile, ...]:
    """Heterogeneous site profiles: disjoint-ish class prevalences, different
    spacings/intensity statistics, mixed annotation-fragmentation regimes.

    Each of the first three sites has one weak class that its fixed seed
    leaves out of (or nearly out of) the training split while keeping it in
    the test split, which is what gives collaborative models their edge in
    the shipped regression scenario.
    """
    base = [
        dict(grid_dims=(16, 16, 16), spacing=(2.0, 1.0, 1.0),
             intensity_mean=-550.0, intensity_std=60.0,
             class_prevalence=(0.10, 0.9, 0.55), lesion_volume_scale=1.0,
             cc_count_regime=CcRegime.FEW_LARGE, seed=31010),
        dict(grid_dims=(18, 16, 16), spacing=(1.5, 0.8, 0.8),
             intensity_mean=-480.0, intensity_std=90.0,
             class_prevalence=(0.9, 0.10, 0.55), lesion_volume_scale=1.1,
             cc_count_regime=CcRegime.FEW_LARGE, seed=32009),
        dict(grid_dims=(16, 20, 20), spacing=(3.0, 1.2, 1.2),
             intensity_mean=-620.0, intensity_std=45.0,
             class_prevalence=(0.45, 0.10, 0.9), lesion_volume_scale=0.8,
             cc_count_regime=CcRegime.MANY_SMALL, seed=33003),
        dict(grid_dims=(16, 16, 16), spacing=(2.5, 0.9, 0.9),
             intensity_mean=-530.0, intensity_std=75.0,
             class_prevalence=(0.7, 0.2, 0.6), lesion_volume_scale=0.9,
             cc_count_regime=CcRegime.MANY_SMALL, seed=34000),
        dict(grid_dims=(16, 18, 18), spacing=(1.8, 1.1, 1.1),
             intensity_mean=-580.0, intensity_std=55.0,
             class_prevalence=(0.3, 0.75, 0.25), lesion_volume_scale=1.2,
             cc_count_regime=CcRegime.FEW_LARGE, seed=35000),
        dict(grid_dims=(18, 16, 18), spacing=(2.2, 1.0, 1.3),
             intensity_mean=-500.0, intensity_std=80.0,
             class_prevalence=(0.55, 0.35, 0.7), lesion_volume_scale=1.0,
             cc_count_regime=CcRegime.MANY_SMALL, seed=36000),
    ]
    if not 1 <= n_sites <= len(base):
        raise ValueError(f"n_sites must be 1..{len(base)}")
    names = ["site_a", "site_b", "site_c", "site_d", "site_e", "site_f"]
    return tuple(
        SiteProfile(site_id=names[i], n_samples=20, **base[i])
        for i in range(n_sites)
    )


def default_config(n_sites: int = 3) -> ExperimentConfig:
    """The shipped desk-scale experiment used by docs and regression tests."""
    seed = 20240117
    profiles = default_profiles(n_sites)
    return ExperimentConfig(
        name=f"default-{n_sites}site",
        seed=seed,
        rounds=40,
        sites=profiles,
        train=TrainConfig(epochs=40, batches_per_epoch=100, batch_size=256,
                          learning_rate=1.5, seed=seed),
        links=tuple(SiteLink(site_id=p.site_id) for p in profiles),
        scenarios=(Scenario.PERSONALIZATION.value,
                   Scenario.GEN_WITHOUT_LOCAL.value,
                   Scenario.GEN_WITH_LOCAL.value),
        output_dir=f"runs/default-{n_sites}site",
    )
