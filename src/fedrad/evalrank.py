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

Ranking reads and writes small CSV and JSON files, so this module loads
numpy and the models only inside :func:`run_scenario`, for scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .config import LESION_CLASSES, Scenario
from .records import METRIC_DIRECTIONS, METRICS, MetricRecord, summarize
from .seeding import stamped_csv

if TYPE_CHECKING:
    import numpy as np

    from .dataset import SiteDataset
    from .learner import FeatureConfig


@dataclass
class TrainedModel:
    """Weights plus the feature normalization they were trained with."""

    weights: np.ndarray
    feature_config: FeatureConfig


def scenario_variants(scenario: Scenario, roster: Sequence[str], eval_site: str
                      ) -> list[tuple[str, list[tuple[str, float]]]]:
    """The variants compared on ``eval_site`` in a scenario, in checklist
    order: each variant's label and the names of its member models with
    their probability-average weights. A model is named ``local:<site>``,
    ``fed`` or ``fed_loo:<site>``, as in ``models.json``.

    Spec(X) is the two-member average of X's probability field and the
    local model's: X's members at half their weight, then the local model
    at 1/2. For an ensemble of N members that is 1/(2N) per member.
    """
    scenario = Scenario(scenario)
    roster = sorted(roster)
    others = [s for s in roster if s != eval_site]
    if scenario is Scenario.GEN_WITHOUT_LOCAL and not others:
        raise ValueError("leave-out ensemble needs at least two sites")
    if scenario is Scenario.PERSONALIZATION:
        fl, federated = "FL", [("fed", 1.0)]
    else:
        fl, federated = "FL-loo", [(f"fed_loo:{eval_site}", 1.0)]

    if scenario is Scenario.GEN_WITHOUT_LOCAL:
        return ([(f"L[{j}]", [(f"local:{j}", 1.0)]) for j in others]
                + [("E-loo", [(f"local:{j}", 1.0 / len(others)) for j in others]),
                   ("FL-loo", federated)])

    local = f"local:{eval_site}"
    ensemble = [(f"local:{s}", 1.0 / len(roster)) for s in roster]

    def spec(members):
        return [(m, w / 2) for m, w in members] + [(local, 0.5)]

    return [("L", [(local, 1.0)]), ("E", ensemble), (fl, federated),
            ("Spec(E)", spec(ensemble)), (f"Spec({fl})", spec(federated))]


@dataclass
class ScenarioResult:
    scenario: Scenario
    records: dict[tuple[str, str], list[MetricRecord]]  # (model label, site)


def run_scenario(scenarios: Sequence[Scenario], datasets: Mapping[str, SiteDataset],
                 registry: Mapping[str, TrainedModel]) -> list[ScenarioResult]:
    """Evaluate every checked variant of each scenario on every site's test
    set; the results come back in the order of ``scenarios``. The sites are
    those of ``datasets``; ``registry`` maps model names to trained models,
    and a member it lacks raises ``KeyError`` before any scoring.

    Per test sample, each member model's probability field is computed once
    and shared by every variant of every scenario; only one sample's fields
    are held at a time. Each (scenario, variant, sample) is still predicted
    and scored on its own.
    """
    # imported here: scoring needs numpy and scipy.ndimage, which ranking never does
    from .learner import ensemble_predict, predict_proba
    from .metrics import score_pair

    roster = sorted(datasets)
    records: list[dict[tuple[str, str], list[MetricRecord]]] = [{} for _ in scenarios]
    checklists = {}  # site -> [(records of one variant on the site, its members)]
    for eval_site in roster:
        if not datasets[eval_site].test:
            raise ValueError(f"site {eval_site} has no test samples")
        checklist = checklists[eval_site] = []
        for scenario, scenario_records in zip(scenarios, records):
            for label, members in scenario_variants(scenario, roster, eval_site):
                for name, _ in members:
                    if name not in registry:
                        raise KeyError(f"missing trained model: {name}")
                out = scenario_records[(label, eval_site)] = []
                checklist.append((out, members))
    for eval_site in roster:
        for sample in sorted(datasets[eval_site].test, key=lambda s: s.sample_id):
            fields: dict[str, np.ndarray] = {}
            for out, members in checklists[eval_site]:
                for name, _ in members:
                    if name not in fields:
                        model = registry[name]
                        fields[name] = predict_proba(model.weights, sample.volume,
                                                     model.feature_config)
                pred = ensemble_predict([fields[n] for n, _ in members],
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


def average_ranks(x: Sequence[float]) -> list[float]:
    """1-based ranks of ``x``; tied values share the mean of the positions
    they span (``scipy.stats.rankdata(x, method="average")``, NaN included:
    any NaN makes every rank NaN).

    The ranks are exact halves, so they match scipy's bit for bit.
    """
    x = [float(v) for v in x]
    if any(math.isnan(v) for v in x):
        return [math.nan] * len(x)
    order = sorted(range(len(x)), key=x.__getitem__)
    ranks = [0.0] * len(x)
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and x[order[end]] == x[order[start]]:
            end += 1
        for i in order[start:end]:
            ranks[i] = (start + 1 + end) / 2
        start = end
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
            vals = [float(values[(m, site, metric)]) for m in present]
            ascending = METRIC_DIRECTIONS.get(metric, "desc") == "asc"
            ranks = average_ranks(vals if ascending else [-v for v in vals])
            for m, r in zip(present, ranks):
                cell_ranks[(m, site, metric)] = r

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
              for metric, mean in summarize(recs, site).items()}
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
