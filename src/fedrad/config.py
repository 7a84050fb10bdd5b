"""Experiment configuration records and the artifact layout.

An experiment is one canonical-JSON config file; its sha256 digest
identifies the experiment and is embedded in every artifact so stages can
refuse to join outputs of different runs.

This module imports nothing but the standard library and ``seeding``, so
the stages that only read and write small JSON and CSV files (``--help``,
``rank`` and ``report``) start without numpy. So :class:`ExperimentAborted`,
which ``cli.main`` reports for every command, lives here.

Voxel classes: 0 = background, 1 = consolidation, 2 = ground-glass opacity,
3 = pleural effusion. Class 3 plays the rare-class role in stratified
splitting.

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

import enum
import math
from dataclasses import dataclass
from pathlib import Path

from .seeding import digest_of, from_dict, parse_json, to_dict

CLASS_CONS = 1
CLASS_GGO = 2
CLASS_PE = 3
LESION_CLASSES = (CLASS_CONS, CLASS_GGO, CLASS_PE)
N_CLASSES = 4

AGG_STRICT = "strict"
AGG_TOLERANT = "tolerant"

TRANSPORT_SIM = "sim"
TRANSPORT_TCP = "tcp"

DEFAULT_PER_BATCH_SECONDS = 0.02


class ExperimentAborted(RuntimeError):
    """A run ended before the final model; carries resume information."""

    def __init__(self, reason: str, round_index: int | None = None,
                 checkpoint_path: Path | None = None):
        super().__init__(reason)
        self.reason = reason
        self.round_index = round_index
        self.checkpoint_path = checkpoint_path


class CcRegime(str, enum.Enum):
    """Annotation fragmentation regime of a site."""

    FEW_LARGE = "few_large"
    MANY_SMALL = "many_small"


@dataclass(frozen=True)
class SiteProfile:
    """Generator parameters for one synthetic site."""

    site_id: str
    n_samples: int
    grid_dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    intensity_mean: float
    intensity_std: float
    class_prevalence: tuple[float, float, float]  # classes 1, 2, 3
    lesion_volume_scale: float
    cc_count_regime: CcRegime
    seed: int


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batches_per_epoch: int
    batch_size: int
    learning_rate: float
    seed: int

    def __post_init__(self):
        if self.epochs <= 0 or self.batches_per_epoch <= 0 or self.batch_size <= 0:
            raise ValueError("epochs, batches_per_epoch, batch_size must be positive")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate is negative or non-finite: {self.learning_rate!r}")


@dataclass(frozen=True)
class SiteLink:
    """Network/compute characteristics and fault schedule of one site."""

    site_id: str
    latency_ms: float = 0.0
    speed_factor: float = 1.0
    offline_rounds: frozenset[int] = frozenset()
    crash_at_round: int | None = None

    def __post_init__(self):
        if self.speed_factor <= 0:
            raise ValueError(f"{self.site_id}: speed_factor must be positive")
        if self.latency_ms < 0:
            raise ValueError(f"{self.site_id}: latency_ms must be non-negative")
        if any(r < 1 for r in self.offline_rounds):
            raise ValueError(f"{self.site_id}: offline rounds start at 1")
        if self.crash_at_round is not None and self.crash_at_round < 1:
            raise ValueError(f"{self.site_id}: crash_at_round must be >= 1 "
                             "(cannot crash before joining)")
        object.__setattr__(self, "offline_rounds", frozenset(self.offline_rounds))


class Scenario(str, enum.Enum):
    PERSONALIZATION = "personalization"
    GEN_WITHOUT_LOCAL = "generalization_without_local"
    GEN_WITH_LOCAL = "generalization_with_local"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    rounds: int
    sites: tuple[SiteProfile, ...]
    train: TrainConfig
    links: tuple[SiteLink, ...] = ()
    scenarios: tuple[str, ...] = ()
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

    @property
    def digest(self) -> str:
        return digest_of(to_dict(self))


@dataclass
class ServerParams:
    """Everything the server side of an experiment needs."""

    expected_sites: tuple[str, ...]
    rounds: int
    train: TrainConfig
    experiment_seed: int
    experiment_digest: str
    aggregation: str = AGG_STRICT
    round_timeout_s: float = 60.0
    setup_timeout_s: float = 120.0
    checkpoint_dir: Path | None = None

    def __post_init__(self):
        if not self.expected_sites:
            raise ValueError("at least one expected site is required")
        if self.aggregation not in (AGG_STRICT, AGG_TOLERANT):
            raise ValueError(f"unknown aggregation mode {self.aggregation!r}")
        if len(self.experiment_digest) != 64 or bytes.fromhex(self.experiment_digest) is None:
            raise ValueError("experiment_digest must be 64 hex characters")
        self.expected_sites = tuple(sorted(self.expected_sites))


def load_config(path: Path) -> ExperimentConfig:
    """Read a config file; ``train.seed`` defaults to the experiment seed."""
    doc = parse_json(Path(path).read_bytes(), path)
    if isinstance(doc, dict) and isinstance(doc.get("train"), dict) and "seed" in doc:
        doc["train"].setdefault("seed", doc["seed"])
    return from_dict(ExperimentConfig, doc)


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
