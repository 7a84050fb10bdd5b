"""Model-variant roster, evaluation scenarios, and rank aggregation.

Three scenarios compare model variants on each site's test set:

* personalization: what a site gains from joining the collaboration —
  L, E, FL, Spec(E), Spec(FL);
* generalization without local training: what a site without training
  capability can borrow — foreign locals L[j], E-loo, FL-loo;
* generalization with local training: collaboration without joining the
  federation — L, E, FL-loo, Spec(E), Spec(FL-loo).

Leave-out (``-loo``) variants exclude the evaluated site's data and model
entirely; Spec(X) specializes a collaborative model X to site i by
averaging its probabilities half-and-half with the site's local model.

Ranking: per (site, metric) all compared models are ranked (ties get the
average of the positions they cover); a model's overall score r is the
mean of its ranks over all sites and metrics, lower is better.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import LESION_CLASSES, SiteDataset
from .learner import FeatureConfig, ensemble_predict, predict_proba
from .records import METRIC_DIRECTIONS, METRICS, MetricRecord, summarize
from .seeding import stamped_csv


class Scenario(str, enum.Enum):
    PERSONALIZATION = "personalization"
    GEN_WITHOUT_LOCAL = "generalization_without_local"
    GEN_WITH_LOCAL = "generalization_with_local"


class VariantKind(enum.Enum):
    LOCAL = "local"
    FOREIGN_LOCAL = "foreign_local"
    ENSEMBLE = "ensemble"
    ENSEMBLE_LEAVE_OUT = "ensemble_leave_out"
    FED = "fed"
    FED_LEAVE_OUT = "fed_leave_out"
    SPEC_ENSEMBLE = "spec_ensemble"
    SPEC_FED = "spec_fed"
    SPEC_FED_LEAVE_OUT = "spec_fed_leave_out"


@dataclass(frozen=True)
class ModelVariant:
    kind: VariantKind
    site: str | None = None  # only FOREIGN_LOCAL carries an explicit site

    @property
    def label(self) -> str:
        if self.kind is VariantKind.FOREIGN_LOCAL:
            return f"L[{self.site}]"
        return {
            VariantKind.LOCAL: "L",
            VariantKind.ENSEMBLE: "E",
            VariantKind.ENSEMBLE_LEAVE_OUT: "E-loo",
            VariantKind.FED: "FL",
            VariantKind.FED_LEAVE_OUT: "FL-loo",
            VariantKind.SPEC_ENSEMBLE: "Spec(E)",
            VariantKind.SPEC_FED: "Spec(FL)",
            VariantKind.SPEC_FED_LEAVE_OUT: "Spec(FL-loo)",
        }[self.kind]


@dataclass(eq=False)
class TrainedModel:
    """Weights plus the feature normalization they were trained with; equal
    only to itself, so a model can key its probability fields."""

    weights: np.ndarray
    feature_config: FeatureConfig


@dataclass
class ModelRegistry:
    locals: dict[str, TrainedModel] = field(default_factory=dict)
    fed: TrainedModel | None = None
    fed_leave_out: dict[str, TrainedModel] = field(default_factory=dict)


def scenario_variants(scenario: Scenario, roster: Sequence[str],
                      eval_site: str) -> list[ModelVariant]:
    """The variant checklist compared on ``eval_site`` in a scenario."""
    if eval_site not in roster:
        raise ValueError(f"{eval_site!r} is not in the roster {sorted(roster)}")
    if scenario is Scenario.PERSONALIZATION:
        return [ModelVariant(VariantKind.LOCAL), ModelVariant(VariantKind.ENSEMBLE),
                ModelVariant(VariantKind.FED), ModelVariant(VariantKind.SPEC_ENSEMBLE),
                ModelVariant(VariantKind.SPEC_FED)]
    if scenario is Scenario.GEN_WITHOUT_LOCAL:
        foreign = [ModelVariant(VariantKind.FOREIGN_LOCAL, site=j)
                   for j in sorted(roster) if j != eval_site]
        return foreign + [ModelVariant(VariantKind.ENSEMBLE_LEAVE_OUT),
                          ModelVariant(VariantKind.FED_LEAVE_OUT)]
    if scenario is Scenario.GEN_WITH_LOCAL:
        return [ModelVariant(VariantKind.LOCAL), ModelVariant(VariantKind.ENSEMBLE),
                ModelVariant(VariantKind.FED_LEAVE_OUT),
                ModelVariant(VariantKind.SPEC_ENSEMBLE),
                ModelVariant(VariantKind.SPEC_FED_LEAVE_OUT)]
    raise ValueError(f"unknown scenario {scenario!r}")


def _require(registry_map: Mapping[str, TrainedModel], key: str, what: str) -> TrainedModel:
    model = registry_map.get(key)
    if model is None:
        raise KeyError(f"missing trained model: {what}")
    return model


# Spec(X) -> X
_SPECIALIZED = {VariantKind.SPEC_ENSEMBLE: VariantKind.ENSEMBLE,
                VariantKind.SPEC_FED: VariantKind.FED,
                VariantKind.SPEC_FED_LEAVE_OUT: VariantKind.FED_LEAVE_OUT}


def resolve_variant(variant: ModelVariant, registry: ModelRegistry,
                    eval_site: str) -> list[tuple[TrainedModel, float]]:
    """Member models with probability-average weights for one variant.

    Spec(X) is the two-member average of X's probability field and the
    local model's: X's members at half their weight, then the local model
    at 1/2. For an ensemble of N members that is 1/(2N) per member.
    """
    roster = sorted(registry.locals)
    n = len(roster)
    kind = variant.kind

    if kind is VariantKind.LOCAL:
        return [(_require(registry.locals, eval_site, f"local model of {eval_site}"), 1.0)]
    if kind is VariantKind.FOREIGN_LOCAL:
        if variant.site == eval_site:
            raise ValueError(f"foreign local {variant.site} evaluated on its own site")
        return [(_require(registry.locals, variant.site, f"local model of {variant.site}"), 1.0)]
    if kind is VariantKind.ENSEMBLE:
        return [(registry.locals[s], 1.0 / n) for s in roster]
    if kind is VariantKind.ENSEMBLE_LEAVE_OUT:
        others = [s for s in roster if s != eval_site]
        if not others:
            raise ValueError("leave-out ensemble needs at least two sites")
        return [(registry.locals[s], 1.0 / len(others)) for s in others]
    if kind is VariantKind.FED:
        if registry.fed is None:
            raise KeyError("missing trained model: federated model")
        return [(registry.fed, 1.0)]
    if kind is VariantKind.FED_LEAVE_OUT:
        return [(_require(registry.fed_leave_out, eval_site,
                          f"federated model excluding {eval_site}"), 1.0)]
    if kind in _SPECIALIZED:
        members = resolve_variant(ModelVariant(_SPECIALIZED[kind]), registry, eval_site)
        local = _require(registry.locals, eval_site, f"local model of {eval_site}")
        return [(model, w / 2) for model, w in members] + [(local, 0.5)]
    raise ValueError(f"unknown variant kind {kind!r}")


@dataclass
class ScenarioResult:
    scenario: Scenario
    records: dict[tuple[str, str], list[MetricRecord]]  # (model label, site)


def run_scenario(scenarios: Sequence[Scenario], datasets: Mapping[str, SiteDataset],
                 registry: ModelRegistry) -> list[ScenarioResult]:
    """Evaluate every checked variant of each scenario on every site's test
    set; the results come back in the order of ``scenarios``.

    Per test sample, each member model's probability field is computed once
    and shared by every variant of every scenario; only one sample's fields
    are held at a time. Each (scenario, variant, sample) is still predicted
    and scored on its own.
    """
    # imported here: scoring loads scipy.ndimage, which ranking never needs
    from .metrics import score_pair

    roster = sorted(registry.locals)
    missing = [s for s in roster if s not in datasets]
    if missing:
        raise ValueError(f"datasets missing for sites: {missing}")

    records: list[dict[tuple[str, str], list[MetricRecord]]] = [{} for _ in scenarios]
    for eval_site in roster:
        test = datasets[eval_site].test
        if not test:
            raise ValueError(f"site {eval_site} has no test samples")
        checklist = []  # (records of one variant on this site, its members)
        for scenario, scenario_records in zip(scenarios, records):
            for variant in scenario_variants(scenario, roster, eval_site):
                out = scenario_records[(variant.label, eval_site)] = []
                checklist.append((out, resolve_variant(variant, registry, eval_site)))
        for sample in sorted(test, key=lambda s: s.sample_id):
            fields: dict[TrainedModel, np.ndarray] = {}
            for out, members in checklist:
                for model, _ in members:
                    if model not in fields:
                        fields[model] = predict_proba(model.weights, sample.volume,
                                                      model.feature_config)
                pred = ensemble_predict([fields[m] for m, _ in members],
                                        [mw for _, mw in members], sample.volume.id)
                for class_id in LESION_CLASSES:
                    out.extend(score_pair(pred, sample.mask, class_id, sample.volume.spacing))
    return [ScenarioResult(scenario=scenario, records=scenario_records)
            for scenario, scenario_records in zip(scenarios, records)]


@dataclass
class RankTable:
    """Per-(site, metric) model ranks and the Eq.-2-style overall score."""

    cell_ranks: dict[tuple[str, str, str], float]  # (model, site, metric)
    overall: dict[str, float]
    models: list[str]
    sites: list[str]
    metric_names: list[str]

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def n_metrics(self) -> int:
        return len(self.metric_names)

    def rank_point_total(self) -> float:
        return math.fsum(self.cell_ranks.values())

    def ordered_models(self) -> list[str]:
        """Models from best (lowest overall rank) to worst."""
        return sorted(self.overall, key=lambda m: (self.overall[m], m))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of the positions
    they span (``scipy.stats.rankdata(x, method="average")``, NaN included:
    any NaN makes every rank NaN).

    The ranks are exact halves, so they match scipy's bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def rank(values: Mapping[tuple[str, str, str], float],
         allow_missing: bool = False) -> RankTable:
    """Rank models per (site, metric) cell and average into the overall score.

    ``values`` maps (model, site, metric) to that model's mean metric value.
    ``METRIC_DIRECTIONS`` says lower is better for "asc" metrics; higher is
    better for the rest. Tied values share the average of the positions they
    span. Every model must populate every cell unless ``allow_missing`` is
    set (scenarios with per-site rosters, where a model's overall score
    averages over the cells it appears in).
    """
    models = sorted({k[0] for k in values})
    sites = sorted({k[1] for k in values})
    metric_names = [m for m in METRICS if any(k[2] == m for k in values)]
    extra = sorted({k[2] for k in values} - set(metric_names))
    metric_names += extra

    if not allow_missing:
        missing = [(m, s, met) for m in models for s in sites for met in metric_names
                   if (m, s, met) not in values]
        if missing:
            raise ValueError(f"missing {len(missing)} cells, e.g. {missing[0]}")

    cell_ranks: dict[tuple[str, str, str], float] = {}
    for site in sites:
        for metric in metric_names:
            present = [m for m in models if (m, site, metric) in values]
            if not present:
                continue
            vals = np.array([values[(m, site, metric)] for m in present], dtype=float)
            ascending = METRIC_DIRECTIONS.get(metric, "desc") == "asc"
            ranks = average_ranks(vals if ascending else -vals)
            for m, r in zip(present, ranks):
                cell_ranks[(m, site, metric)] = float(r)

    overall = {}
    for m in models:
        own = [r for (mm, _s, _met), r in cell_ranks.items() if mm == m]
        overall[m] = math.fsum(own) / len(own)
    return RankTable(cell_ranks=cell_ranks, overall=overall, models=models,
                     sites=sites, metric_names=metric_names)


def rank_records(records: Mapping[tuple[str, str], Sequence[MetricRecord]],
                 scenario: Scenario) -> RankTable:
    """Rank a scenario's scoring records, keyed by (model label, site).

    Each (model, site) is summarized into its per-metric means. Only the
    generalization-without-local grid may have empty cells: no site is
    scored with its own local model there.
    """
    values = {(model, site, metric): mean
              for (model, site), recs in records.items()
              for metric, mean in summarize(recs, site).means.items()}
    return rank(values, allow_missing=scenario is Scenario.GEN_WITHOUT_LOCAL)


def write_ranks_csv(path, table: RankTable, experiment_digest: str) -> None:
    lines = ["model,site,metric,rank"]
    for (model, site, metric) in sorted(table.cell_ranks):
        lines.append(f"{model},{site},{metric},{table.cell_ranks[(model, site, metric)]!r}")
    with open(path, "w") as f:
        f.write(stamped_csv(experiment_digest, lines))


def rank_summary_dict(table: RankTable, experiment_digest: str) -> dict:
    return {
        "experiment": experiment_digest,
        "overall_rank": {m: table.overall[m] for m in sorted(table.overall)},
        "best_to_worst": table.ordered_models(),
        "n_sites": table.n_sites,
        "n_metrics": table.n_metrics,
        "rank_point_total": table.rank_point_total(),
    }
