import math

import numpy as np
import pytest

import rank_fixtures as rf

from fedrad.config import Scenario
from fedrad.evalrank import (TrainedModel, average_ranks, rank, rank_records, run_scenario,
                             scenario_variants)
from fedrad.learner import FeatureConfig, WEIGHT_LEN
from fedrad.records import METRIC_DIRECTIONS, METRICS, RecordStatus

FC = FeatureConfig(shift=0.0, scale=1.0, clip_low=-10.0, clip_high=10.0)


def positional_rank(values_by_model, higher_is_better):
    """Independent ranker: sort, assign positions, average ties."""
    items = sorted(values_by_model.items(),
                   key=lambda kv: -kv[1] if higher_is_better else kv[1])
    ranks = {}
    i = 0
    while i < len(items):
        j = i
        while j + 1 < len(items) and items[j + 1][1] == items[i][1]:
            j += 1
        avg = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[items[k][0]] = avg
        i = j + 1
    return ranks


def independent_overall(grid):
    totals = {m: [] for m in grid}
    sites = sorted({s for rows in grid.values() for s in rows})
    for site in sites:
        for mi, metric in enumerate(rf.METRIC_ORDER):
            cell = {m: rows[site][mi] for m, rows in grid.items() if site in rows}
            higher = METRIC_DIRECTIONS[metric] == "desc"
            for m, r in positional_rank(cell, higher).items():
                totals[m].append(r)
    return {m: sum(rs) / len(rs) for m, rs in totals.items()}


def test_rank_single_cell():
    values = {("A", "s", "DSC"): 0.9, ("B", "s", "DSC"): 0.5}
    table = rank(values)
    assert table.cell_ranks[("A", "s", "DSC")] == 1.0
    assert table.cell_ranks[("B", "s", "DSC")] == 2.0
    assert table.overall == {"A": 1.0, "B": 2.0}


def test_rank_directions():
    values = {("A", "s", "HSD"): 10.0, ("B", "s", "HSD"): 50.0}
    table = rank(values)
    assert table.overall["A"] == 1.0  # lower HSD is better


def test_rank_tie_averaging():
    values = {("A", "s", "DSC"): 0.5, ("B", "s", "DSC"): 0.5, ("C", "s", "DSC"): 0.1}
    table = rank(values)
    assert table.cell_ranks[("A", "s", "DSC")] == 1.5
    assert table.cell_ranks[("B", "s", "DSC")] == 1.5
    assert table.cell_ranks[("C", "s", "DSC")] == 3.0


def test_average_ranks_matches_scipy_rankdata():
    # small integer values give many ties; ranks are exact halves, so equal
    from scipy.stats import rankdata
    rng = np.random.default_rng(7)
    for k in range(3000):
        n = int(rng.integers(1, 14))
        x = rng.integers(0, 4, size=n) * rng.choice([1.0, -1.0, 0.25])
        if k % 5 == 0:
            x[rng.integers(0, n)] = rng.choice([np.inf, -np.inf, -0.0])
        if k % 97 == 0:
            x[rng.integers(0, n)] = np.nan  # propagates: every rank NaN
        assert np.array_equal(average_ranks(x), rankdata(x, method="average"),
                              equal_nan=True), x


def test_rank_matches_numpy_oracle_on_random_tables():
    # small integer values give ties; ±0.0 tie with each other, ±inf rank
    # last or first, and a NaN makes its whole (site, metric) cell NaN
    from oracles import reference_average_ranks
    rng = np.random.default_rng(20240117)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for k in range(400):
        models = [f"m{i}" for i in range(int(rng.integers(1, 7)))]
        sites = [f"s{i}" for i in range(int(rng.integers(1, 4)))]
        metric_names = list(METRICS[:int(rng.integers(1, len(METRICS) + 1))])
        values = {}
        for m in models:
            for s in sites:
                for met in metric_names:
                    v = float(rng.integers(-2, 3)) * 0.5
                    if rng.random() < 0.15:
                        v = specials[int(rng.integers(0, len(specials)))]
                    values[(m, s, met)] = v
        allow_missing = k % 4 == 0
        if allow_missing:  # drop cells, but keep every model in some cell
            for key in list(values):
                if rng.random() < 0.3 and sum(kk[0] == key[0] for kk in values) > 1:
                    del values[key]
        table = rank(values, allow_missing=allow_missing)
        want = {}
        for s in sites:
            for met in metric_names:
                present = [m for m in models if (m, s, met) in values]
                if not present:
                    continue
                vals = np.array([values[(m, s, met)] for m in present])
                asc = METRIC_DIRECTIONS[met] == "asc"
                for m, r in zip(present, reference_average_ranks(vals if asc else -vals)):
                    want[(m, s, met)] = float(r)
        assert table.cell_ranks.keys() == want.keys()
        got = [table.cell_ranks[c] for c in want]
        assert np.array_equal(got, list(want.values()), equal_nan=True), values
        for m in models:
            own = [r for (mm, _s, _met), r in want.items() if mm == m]
            assert np.array_equal(table.overall[m], math.fsum(own) / len(own), equal_nan=True)


def test_rank_missing_cell_error():
    values = {("A", "s1", "DSC"): 0.5, ("A", "s2", "DSC"): 0.5, ("B", "s1", "DSC"): 0.4}
    with pytest.raises(ValueError):
        rank(values)
    table = rank(values, allow_missing=True)
    assert table.overall["B"] == 2.0


def test_rank_order_invariance():
    values = rf.grid_to_values(rf.PERSONALIZATION_GRID)
    shuffled = dict(reversed(list(values.items())))
    a = rank(values)
    b = rank(shuffled)
    assert a.overall == b.overall


def test_rank_monotone_invariance():
    values = rf.grid_to_values(rf.PERSONALIZATION_GRID)
    transformed = dict(values)
    for model in rf.PERSONALIZATION_GRID:
        key = (model, "tum", "DSC")
        transformed[key] = math.exp(3.0 * values[key]) + 1.0  # strictly increasing
    assert rank(values).cell_ranks == rank(transformed).cell_ranks


def test_personalization_grid_overall_ranks():
    table = rank(rf.grid_to_values(rf.PERSONALIZATION_GRID))
    for model, expected in rf.PERSONALIZATION_EXPECTED.items():
        assert table.overall[model] == pytest.approx(expected, abs=0.01)
    for model, exact in rf.PERSONALIZATION_EXACT.items():
        # these two are tie-free at source precision: the computed rank must
        # reproduce the reference column exactly at its 2-decimal display
        assert round(table.overall[model], 2) == exact
    assert table.ordered_models() == rf.PERSONALIZATION_ORDER
    assert table.rank_point_total() == pytest.approx(180.0)
    # and the independent positional ranker fully agrees
    indep = independent_overall(rf.PERSONALIZATION_GRID)
    for model in indep:
        assert table.overall[model] == pytest.approx(indep[model], abs=1e-12)


def test_rank_point_conservation_formula():
    table = rank(rf.grid_to_values(rf.PERSONALIZATION_GRID))
    n_models = len(table.models)
    expected = table.n_sites * table.n_metrics * n_models * (n_models + 1) / 2
    assert table.rank_point_total() == pytest.approx(expected)


def test_gen_without_grid_best_model():
    table = rank(rf.grid_to_values(rf.GEN_WITHOUT_GRID), allow_missing=True)
    assert table.ordered_models()[0] == rf.GEN_WITHOUT_BEST
    indep = independent_overall(rf.GEN_WITHOUT_GRID)
    for model in indep:
        assert table.overall[model] == pytest.approx(indep[model], abs=1e-12)


def test_gen_with_grid_best_model():
    table = rank(rf.grid_to_values(rf.GEN_WITH_GRID))
    assert table.ordered_models()[0] == rf.GEN_WITH_BEST
    indep = independent_overall(rf.GEN_WITH_GRID)
    for model in indep:
        assert table.overall[model] == pytest.approx(indep[model], abs=1e-12)


# ---------------------------------------------------------------------------
# Variant roster

def _registry(sites=("sa", "sb", "sc"), with_fed=True, with_loo=True, rng_seed=0):
    """Random models under the names the scenarios on ``sites`` compare."""
    rng = np.random.default_rng(rng_seed)
    names = ([f"local:{s}" for s in sites] + ["fed"] * with_fed
             + [f"fed_loo:{s}" for s in sites] * with_loo)
    return {name: TrainedModel(rng.normal(size=WEIGHT_LEN), FC) for name in names}


def _labels(scenario, site, roster=("sa", "sb", "sc")):
    return [label for label, _ in scenario_variants(scenario, roster, site)]


def test_scenario_checklists_match_matrix():
    pers = _labels(Scenario.PERSONALIZATION, "sa")
    assert pers == ["L", "E", "FL", "Spec(E)", "Spec(FL)"]

    gwo = _labels(Scenario.GEN_WITHOUT_LOCAL, "sb")
    assert gwo == ["L[sa]", "L[sc]", "E-loo", "FL-loo"]
    assert "L" not in gwo  # the own local model is never evaluated here

    gwl = _labels(Scenario.GEN_WITH_LOCAL, "sc")
    assert gwl == ["L", "E", "FL-loo", "Spec(E)", "Spec(FL-loo)"]


# The README's scenario checklists and variant table, written out apart from
# evalrank: site i's labels per scenario, and each label's members on site i.
README_CHECKLISTS = {
    Scenario.PERSONALIZATION: lambda others: ["L", "E", "FL", "Spec(E)", "Spec(FL)"],
    Scenario.GEN_WITHOUT_LOCAL: lambda others: [f"L[{j}]" for j in others] + ["E-loo", "FL-loo"],
    Scenario.GEN_WITH_LOCAL: lambda others: ["L", "E", "FL-loo", "Spec(E)", "Spec(FL-loo)"],
}


def _readme_members(label, roster, site):
    others = [s for s in roster if s != site]
    if label.startswith("Spec("):  # ½ · X's probabilities + ½ · L's
        x = _readme_members(label[len("Spec("):-1], roster, site)
        return [(m, 0.5 / len(x)) for m, _ in x] + [(f"local:{site}", 0.5)]
    return {
        "L": [(f"local:{site}", 1.0)],
        "E": [(f"local:{s}", 1.0 / len(roster)) for s in roster],
        "E-loo": [(f"local:{s}", 1.0 / len(others)) for s in others],
        "FL": [("fed", 1.0)],
        "FL-loo": [(f"fed_loo:{site}", 1.0)],
        **{f"L[{j}]": [(f"local:{j}", 1.0)] for j in others},
    }[label]


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("n_sites", range(1, 7))
def test_scenario_variants_match_readme_table(n_sites, scenario):
    """Every site's variants: the README labels in checklist order, each with
    the names of its member models, in order, at the exact README weights."""
    roster = [f"site{k}" for k in range(n_sites)]
    for site in roster:
        others = [s for s in roster if s != site]
        if scenario is Scenario.GEN_WITHOUT_LOCAL and not others:
            with pytest.raises(ValueError) as err:
                scenario_variants(scenario, roster, site)
            assert err.value.args == ("leave-out ensemble needs at least two sites",)
            continue
        got = scenario_variants(scenario, tuple(reversed(roster)), site)  # sorted by name
        assert [label for label, _ in got] == README_CHECKLISTS[scenario](others)
        for label, members in got:
            assert members == _readme_members(label, roster, site), label


def test_spec_ensemble_single_site_degenerates_to_local(rng):
    from fedrad.dataset import Volume
    from fedrad.learner import ensemble_predict
    from oracles import predict_proba
    registry = _registry(sites=("only",), with_loo=False)
    members = dict(scenario_variants(Scenario.PERSONALIZATION, ["only"], "only"))["Spec(E)"]
    vol = Volume(intensities=rng.normal(size=(6, 6, 6)).astype(np.float32), spacing=(1, 1, 1))
    spec_mask = ensemble_predict(
        [predict_proba(registry[n].weights, vol, FC) for n, _ in members],
        [mw for _, mw in members], "v")
    local_mask = ensemble_predict([predict_proba(registry["local:only"].weights, vol, FC)],
                                  [1.0], "v")
    assert np.array_equal(spec_mask, local_mask)


def test_run_scenario_shapes(small_dataset):
    from fedrad.dataset import SiteDataset
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=3)
    datasets = {}
    for i, sid in enumerate(("s1", "s2", "s3")):
        samples = [s for s in small_dataset.samples]
        datasets[sid] = SiteDataset(site_id=sid, train=samples[:5], test=samples[5:7])
    [records] = run_scenario([Scenario.PERSONALIZATION], datasets, registry)
    assert len(records) == 3 * 5  # shaped like the scenario grid
    labels = {label for (label, _site) in records}
    assert labels == {"L", "E", "FL", "Spec(E)", "Spec(FL)"}
    table = rank_records(records, Scenario.PERSONALIZATION)
    assert set(table.models) == labels
    n = len(labels)
    assert table.rank_point_total() == pytest.approx(
        table.n_sites * table.n_metrics * n * (n + 1) / 2)


def test_run_scenario_without_local_never_uses_own_local(small_dataset):
    from fedrad.dataset import SiteDataset
    registry = _registry(sites=("s1", "s2"), rng_seed=5)
    samples = list(small_dataset.samples)
    datasets = {sid: SiteDataset(site_id=sid, train=samples[:5], test=samples[5:6])
                for sid in ("s1", "s2")}
    [records] = run_scenario([Scenario.GEN_WITHOUT_LOCAL], datasets, registry)
    assert ("L[s1]", "s1") not in records
    assert ("L[s1]", "s2") in records
    assert ("L[s2]", "s1") in records
    table = rank_records(records, Scenario.GEN_WITHOUT_LOCAL)  # sparse grid must rank
    assert table.ordered_models()


def _three_site_datasets(small_dataset):
    from fedrad.dataset import SiteDataset
    samples = list(small_dataset.samples)
    return {sid: SiteDataset(site_id=sid, train=samples[:5], test=samples[5:5 + k])
            for sid, k in (("s1", 2), ("s2", 3), ("s3", 1))}


def _count_calls(monkeypatch):
    """Count the calls of each unit of evaluation, and the member models
    that the stacked passes of ``predict_members`` cover."""
    import fedrad.learner as learner
    import fedrad.metrics as metrics
    calls = {"predict_members": 0, "members": 0, "extract_features": 0, "forward": 0,
             "ensemble_predict": 0, "score_pair": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "predict_members":
                calls["members"] += len(args[1])
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counting(learner, "predict_members")
    counting(learner, "extract_features")
    counting(learner, "forward")
    counting(learner, "ensemble_predict")
    counting(metrics, "score_pair")
    return calls


def _want_counts(scenarios, datasets):
    """One stacked pass per test sample over the sample's distinct member
    models, one forward pass per member and sample, and no per-member
    feature extraction; one prediction per (variant, sample), scored once
    per lesion class."""
    want_samples = want_fields = want_preds = 0
    roster = sorted(datasets)
    for site in roster:
        variants = [members for scenario in scenarios
                    for _, members in scenario_variants(scenario, roster, site)]
        distinct = {name for members in variants for name, _ in members}
        want_samples += len(datasets[site].test)
        want_fields += len(distinct) * len(datasets[site].test)
        want_preds += len(variants) * len(datasets[site].test)
    return {"predict_members": want_samples, "members": want_fields, "extract_features": 0,
            "forward": want_fields, "ensemble_predict": want_preds,
            "score_pair": 3 * want_preds}


def test_run_scenario_missing_model_named(small_dataset, monkeypatch):
    """A scenario needs only the models it compares, and names the first one
    the registry lacks before anything is predicted."""
    datasets = _three_site_datasets(small_dataset)
    without_fed = _registry(sites=("s1", "s2", "s3"), with_fed=False)
    with pytest.raises(KeyError) as err:
        run_scenario([Scenario.PERSONALIZATION], datasets, without_fed)
    assert err.value.args == ("missing trained model: fed",)
    for scenario in (Scenario.GEN_WITHOUT_LOCAL, Scenario.GEN_WITH_LOCAL):
        assert run_scenario([scenario], datasets, without_fed)

    without_loo = _registry(sites=("s1", "s2", "s3"), with_loo=False)
    assert run_scenario([Scenario.PERSONALIZATION], datasets, without_loo)
    for scenario in (Scenario.GEN_WITHOUT_LOCAL, Scenario.GEN_WITH_LOCAL):
        with pytest.raises(KeyError) as err:
            run_scenario([scenario], datasets, without_loo)
        assert err.value.args == ("missing trained model: fed_loo:s1",)

    # the last site's model is missing: the first sites are not scored either
    registry = _registry(sites=("s1", "s2", "s3"))
    del registry["fed_loo:s3"]
    calls = _count_calls(monkeypatch)
    with pytest.raises(KeyError) as err:
        run_scenario(list(Scenario), datasets, registry)
    assert err.value.args == ("missing trained model: fed_loo:s3",)
    assert not any(calls.values())


@pytest.mark.parametrize("scenario", list(Scenario))
def test_run_scenario_one_field_per_member_and_sample(small_dataset, monkeypatch, scenario):
    """A call for one scenario computes each member model's field once per
    test sample, and predicts and scores each (variant, sample) once."""
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=11)
    datasets = _three_site_datasets(small_dataset)
    calls = _count_calls(monkeypatch)
    run_scenario([scenario], datasets, registry)
    assert calls == _want_counts([scenario], datasets)


def test_run_all_scenarios_one_field_per_member_and_sample(small_dataset, monkeypatch):
    """One call over every scenario computes each member model's field once
    per test sample; each (scenario, variant, sample) is still predicted once
    and scored once per lesion class."""
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=11)
    datasets = _three_site_datasets(small_dataset)
    calls = _count_calls(monkeypatch)
    run_scenario(list(Scenario), datasets, registry)
    assert calls == _want_counts(list(Scenario), datasets)


def _want_distance_calls(scenarios, datasets, registry):
    """Surface-distance computations one evaluation needs if each test
    sample computes each distinct (prediction, class) among its "class in
    both" pairs once: per (site, sample), the distinct (prediction labels
    bytes, class) of the oracle loop's predictions."""
    from oracles import reference_predictions
    from fedrad.config import LESION_CLASSES
    pairs: dict[tuple[str, str], set] = {}
    for scenario in scenarios:
        for _label, site, sample, pred in reference_predictions(scenario, datasets, registry):
            for c in LESION_CLASSES:
                if (sample.labels == c).any() and (pred == c).any():
                    pairs.setdefault((site, sample.sample_id), set()).add((pred.tobytes(), c))
    return sum(len(s) for s in pairs.values())


def test_run_scenario_one_distance_computation_per_distinct_pair(small_dataset, monkeypatch):
    """Evaluation computes the surface distances of each distinct
    (prediction, class) of a test sample once, and never takes scipy's
    distance transform."""
    from test_metrics import count_distance_computations
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=11)
    datasets = _three_site_datasets(small_dataset)
    want = _want_distance_calls(list(Scenario), datasets, registry)
    calls = count_distance_computations(monkeypatch)
    results = run_scenario(list(Scenario), datasets, registry)
    assert len(calls) == want
    scored_pairs = sum(r.status is RecordStatus.SCORED for records in results
                       for recs in records.values() for r in recs) // len(METRICS)
    assert want < scored_pairs  # byte-identical predictions share one computation


def _same_value(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("scenario", list(Scenario))
def test_run_scenario_matches_weights_based_reference(small_dataset, scenario):
    """A scenario's records from one call over all scenarios, in either
    order, equal the reference loop's."""
    from oracles import reference_scenario_records
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=13)
    # the federated models carry their own feature normalizations
    registry["fed"].feature_config = FeatureConfig(shift=-500.0, scale=50.0,
                                                   clip_low=-900.0, clip_high=100.0)
    for s in ("s1", "s2"):
        registry[f"fed_loo:{s}"].feature_config = FeatureConfig(
            shift=-450.0, scale=80.0, clip_low=-1000.0, clip_high=200.0)
    datasets = _three_site_datasets(small_dataset)
    want = reference_scenario_records(scenario, datasets, registry)
    for order in (list(Scenario), list(reversed(Scenario))):
        results = run_scenario(order, datasets, registry)
        assert len(results) == len(order)
        got = results[order.index(scenario)]
        assert list(got) == list(want)
        for key in want:
            assert len(got[key]) == len(want[key]), key
            for g, w in zip(got[key], want[key]):
                assert (g.sample_id, g.class_id, g.metric, g.status) == \
                       (w.sample_id, w.class_id, w.metric, w.status), key
                assert _same_value(g.value, w.value), (key, g, w)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_rank_records_survives_csv_roundtrip(small_dataset, tmp_path, scenario):
    from fedrad.dataset import SiteDataset
    from fedrad.records import read_metrics_csv, write_metrics_csv
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=7)
    samples = list(small_dataset.samples)
    datasets = {sid: SiteDataset(site_id=sid, train=samples[:5], test=samples[5:7])
                for sid in ("s1", "s2", "s3")}
    [records] = run_scenario([scenario], datasets, registry)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, records, "e" * 64)
    back, _digest = read_metrics_csv(path)
    want = rank_records(records, scenario)
    got = rank_records(back, scenario)
    assert got.cell_ranks == want.cell_ranks
    assert got.overall == want.overall
