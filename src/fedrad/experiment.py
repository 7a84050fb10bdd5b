"""Experiment orchestration: generation, training and model persistence.

The config records and the artifact layout live in :mod:`fedrad.config`.
All orchestration helpers here are deterministic functions of the config,
which is what makes re-running any stage reproduce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import replace
from pathlib import Path
from typing import Collection, Mapping

from . import siteio
from .config import (CcRegime, ExperimentAborted, ExperimentConfig, Scenario, ServerParams,
                     SiteLink, SiteProfile, TrainConfig, checkpoints_dir, models_dir, site_dir)
from .dataset import SiteDataset, generate_site_dataset
from .evalrank import TrainedModel
from .fingerprint import DatasetFingerprint, derive_config
from .learner import (FeatureConfig, build_training_matrix, load_weights, save_weights,
                      site_train_seed, train_epochs)
from .seeding import check_stamp, from_dict, read_stamped_json, to_dict, write_json

logger = logging.getLogger(__name__)


def save_config(config: ExperimentConfig, path: Path) -> None:
    write_json(path, to_dict(config))


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


def load_all(config: ExperimentConfig, out: Path,
             splits: Collection[str] = siteio.SPLITS) -> dict[str, SiteDataset]:
    """Every site's dataset, each stamped with ``config``'s digest; only the
    grids of ``splits`` are read."""
    datasets = {}
    for sid in config.site_ids:
        sdir = site_dir(out, sid)
        manifest = siteio.read_manifest(sdir)
        check_stamp(f"site {sid}: dataset", manifest.get("experiment"), config.digest,
                    hint="; run 'fedrad gen' for this config")
        datasets[sid] = siteio.load_site_dataset(sdir, splits, manifest)
    return datasets


# ---------------------------------------------------------------------------
# Training: one plan of named models

def train_model(name: str, config: ExperimentConfig, datasets: Mapping[str, SiteDataset],
                fingerprints: Mapping[str, DatasetFingerprint], out: Path,
                resume: Path | None = None) -> TrainedModel:
    """Train the model ``name``, reading no other model's output: ``local:<s>``,
    ``fed`` (which writes ``timing.csv`` and may ``resume``) or ``fed_loo:<s>``.
    A failed federation raises :class:`ExperimentAborted`; a leave-out run's
    names no round and no log, as it restarts from round 0."""
    from . import simnet  # the round protocol, which evaluate does not load

    kind, _, site = name.partition(":")
    if kind == "local":
        return train_local_models(config, {site: datasets[site]}, fingerprints)[site]
    sub = leave_out_config(config, site) if site else config
    result = simnet.run_simulated(
        server_params(sub, checkpoints_dir(out, f"loo-{site}" if site else "main")),
        {s: datasets[s] for s in sub.site_ids}, zero_fault_links(sub),
        fingerprints=fingerprints, per_batch_seconds=sub.per_batch_seconds, resume=resume)
    if not site:
        (out / "timing.csv").write_text(result.timing.to_csv(config.digest))
    if result.aborted and site:
        raise ExperimentAborted(f"leave-out run ({site}) aborted: {result.abort_reason}")
    if result.aborted:
        raise ExperimentAborted(result.abort_reason, result.abort_round, result.checkpoint_file)
    return TrainedModel(weights=result.final_weights, feature_config=result.derived.feature_config)


def train_local_models(config: ExperimentConfig, datasets: Mapping[str, SiteDataset],
                       fingerprints: Mapping[str, DatasetFingerprint]
                       ) -> dict[str, TrainedModel]:
    """The standalone model of each site in ``datasets``, keyed by site id,
    self-configured from ``fingerprints[site]``, its training data's fingerprint."""
    out = {}
    for sid in sorted(datasets):
        ds = datasets[sid]
        derived = derive_config(fingerprints[sid], config.seed)
        features, labels = build_training_matrix(ds.train, derived.feature_config)
        cfg = replace(config.train, seed=site_train_seed(config.train.seed, ds.site_id))
        weights = train_epochs(derived.init_weights, features, labels, cfg)
        out[sid] = TrainedModel(weights=weights, feature_config=derived.feature_config)
        logger.info("trained local model of %s", sid)
    return out


# ---------------------------------------------------------------------------
# Model registry persistence: model name -> trained model

def _weight_file(name: str) -> str:
    return name.replace(":", "_") + ".frwt"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_registry(registry: Mapping[str, TrainedModel], out: Path,
                  experiment_digest: str) -> Path:
    """Write each model's weights to its own ``.frwt`` file and ``models.json``,
    which records each file's name, sha256 and feature config."""
    mdir = models_dir(out)
    mdir.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name, model in registry.items():
        fname = _weight_file(name)
        save_weights(mdir / fname, model.weights)
        entries[name] = {"file": fname, "sha256": _sha256(mdir / fname),
                         "feature_config": to_dict(model.feature_config)}
    path = mdir / "models.json"
    write_json(path, {"experiment": experiment_digest, "models": entries})
    return path


def load_registry(out: Path, experiment_digest: str) -> dict[str, TrainedModel]:
    """The models that :func:`save_registry` wrote. Raises ``ValueError``
    naming the file when an entry names another file than its model's, or
    when a weight file is not the one recorded (say, copied in from another
    model or run)."""
    mdir = models_dir(out)
    path = mdir / "models.json"
    if not path.exists():
        raise FileNotFoundError(f"{path}: no trained models (run training first)")
    doc = read_stamped_json(path, experiment_digest)
    registry = {}
    for name, entry in doc["models"].items():
        if not re.fullmatch(r"fed|(local|fed_loo):.+", name):
            raise ValueError(f"{path}: unknown model entry {name!r}")
        wpath = mdir / _weight_file(name)
        if entry["file"] != wpath.name:
            raise ValueError(f"{path}: model {name!r} names file {entry['file']!r}, "
                             f"not {wpath.name!r}")
        weights = load_weights(wpath)
        if _sha256(wpath) != entry.get("sha256"):
            raise ValueError(f"{wpath}: sha256 differs from the one {path} records "
                             f"for model {name!r}")
        registry[name] = TrainedModel(
            weights=weights,
            feature_config=from_dict(FeatureConfig, entry["feature_config"]),
        )
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
