import math

import numpy as np
import pytest

import rank_fixtures as rf

from fedrad.evalrank import (ModelRegistry, ModelVariant, Scenario, TrainedModel,
                             VariantKind, average_ranks, rank, rank_records, resolve_variant,
                             run_scenario, scenario_variants)
from fedrad.learner import FeatureConfig, WEIGHT_LEN
from fedrad.records import METRIC_DIRECTIONS

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
    rng = np.random.default_rng(rng_seed)
    registry = ModelRegistry()
    for s in sites:
        registry.locals[s] = TrainedModel(rng.normal(size=WEIGHT_LEN), FC)
    if with_fed:
        registry.fed = TrainedModel(rng.normal(size=WEIGHT_LEN), FC)
    if with_loo:
        for s in sites:
            registry.fed_leave_out[s] = TrainedModel(rng.normal(size=WEIGHT_LEN), FC)
    return registry


def test_scenario_checklists_match_matrix():
    roster = ["sa", "sb", "sc"]
    pers = [v.label for v in scenario_variants(Scenario.PERSONALIZATION, roster, "sa")]
    assert pers == ["L", "E", "FL", "Spec(E)", "Spec(FL)"]

    gwo = [v.label for v in scenario_variants(Scenario.GEN_WITHOUT_LOCAL, roster, "sb")]
    assert gwo == ["L[sa]", "L[sc]", "E-loo", "FL-loo"]
    assert "L" not in gwo  # the own local model is never evaluated here

    gwl = [v.label for v in scenario_variants(Scenario.GEN_WITH_LOCAL, roster, "sc")]
    assert gwl == ["L", "E", "FL-loo", "Spec(E)", "Spec(FL-loo)"]


def test_resolve_local_and_foreign():
    registry = _registry()
    members = resolve_variant(ModelVariant(VariantKind.LOCAL), registry, "sa")
    assert len(members) == 1 and members[0][1] == 1.0
    assert members[0][0] is registry.locals["sa"]

    foreign = resolve_variant(ModelVariant(VariantKind.FOREIGN_LOCAL, site="sb"),
                              registry, "sa")
    assert foreign[0][0] is registry.locals["sb"]
    with pytest.raises(ValueError):
        resolve_variant(ModelVariant(VariantKind.FOREIGN_LOCAL, site="sa"), registry, "sa")


def test_resolve_ensembles_and_leave_out():
    registry = _registry()
    ens = resolve_variant(ModelVariant(VariantKind.ENSEMBLE), registry, "sa")
    assert len(ens) == 3
    assert all(mw == pytest.approx(1 / 3) for _, mw in ens)

    loo = resolve_variant(ModelVariant(VariantKind.ENSEMBLE_LEAVE_OUT), registry, "sb")
    assert len(loo) == 2
    assert all(m is not registry.locals["sb"] for m, _ in loo)


def test_resolve_spec_weighting():
    registry = _registry()
    spec_e = resolve_variant(ModelVariant(VariantKind.SPEC_ENSEMBLE), registry, "sa")
    # exact: the weights decide the ensemble's bytes, and (1/n)/2 == 0.5/n
    assert [mw for _, mw in spec_e] == [0.5 / 3] * 3 + [0.5]
    assert [m for m, _ in spec_e] == [registry.locals[s] for s in ("sa", "sb", "sc", "sa")]

    spec_fl = resolve_variant(ModelVariant(VariantKind.SPEC_FED), registry, "sa")
    assert [mw for _, mw in spec_fl] == [0.5, 0.5]
    assert spec_fl[0][0] is registry.fed
    assert spec_fl[1][0] is registry.locals["sa"]

    spec_loo = resolve_variant(ModelVariant(VariantKind.SPEC_FED_LEAVE_OUT), registry, "sb")
    assert [mw for _, mw in spec_loo] == [0.5, 0.5]
    assert spec_loo[0][0] is registry.fed_leave_out["sb"]
    assert spec_loo[1][0] is registry.locals["sb"]


def test_resolve_missing_model_named():
    registry = _registry(with_fed=False)
    with pytest.raises(KeyError, match="federated model"):
        resolve_variant(ModelVariant(VariantKind.FED), registry, "sa")
    registry = _registry(with_loo=False)
    with pytest.raises(KeyError, match="excluding sb"):
        resolve_variant(ModelVariant(VariantKind.FED_LEAVE_OUT), registry, "sb")


def test_spec_ensemble_single_site_degenerates_to_local(rng):
    from fedrad.dataset import Volume
    from fedrad.learner import ensemble_predict, predict, predict_proba
    registry = _registry(sites=("only",), with_fed=False, with_loo=False)
    members = resolve_variant(ModelVariant(VariantKind.SPEC_ENSEMBLE), registry, "only")
    vol = Volume(id="v", intensities=rng.normal(size=(6, 6, 6)).astype(np.float32),
                 spacing=(1, 1, 1))
    spec_mask = ensemble_predict(
        [predict_proba(m.weights, vol, m.feature_config) for m, _ in members],
        [mw for _, mw in members], vol.id)
    local_mask = predict(registry.locals["only"].weights, vol, FC)
    assert np.array_equal(spec_mask.labels, local_mask.labels)


def test_run_scenario_shapes(small_dataset):
    from fedrad.dataset import SiteDataset
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=3)
    datasets = {}
    for i, sid in enumerate(("s1", "s2", "s3")):
        samples = [s for s in small_dataset.samples]
        datasets[sid] = SiteDataset(site_id=sid, train=samples[:5], test=samples[5:7])
    [result] = run_scenario([Scenario.PERSONALIZATION], datasets, registry)
    assert len(result.records) == 3 * 5  # shaped like the scenario grid
    labels = {label for (label, _site) in result.records}
    assert labels == {"L", "E", "FL", "Spec(E)", "Spec(FL)"}
    table = rank_records(result.records, result.scenario)
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
    [result] = run_scenario([Scenario.GEN_WITHOUT_LOCAL], datasets, registry)
    assert ("L[s1]", "s1") not in result.records
    assert ("L[s1]", "s2") in result.records
    assert ("L[s2]", "s1") in result.records
    table = rank_records(result.records, result.scenario)  # sparse grid must rank
    assert table.ordered_models()


def _three_site_datasets(small_dataset):
    from fedrad.dataset import SiteDataset
    samples = list(small_dataset.samples)
    return {sid: SiteDataset(site_id=sid, train=samples[:5], test=samples[5:5 + k])
            for sid, k in (("s1", 2), ("s2", 3), ("s3", 1))}


def _count_calls(monkeypatch):
    import fedrad.evalrank as evalrank
    import fedrad.learner as learner
    import fedrad.metrics as metrics
    calls = {"extract_features": 0, "forward": 0, "ensemble_predict": 0, "score_pair": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counting(learner, "extract_features")
    counting(learner, "forward")
    counting(evalrank, "ensemble_predict")
    counting(metrics, "score_pair")
    return calls


def _want_counts(scenarios, datasets, registry):
    roster = sorted(registry.locals)
    want_fields = want_preds = 0
    for site in roster:
        variants = [v for scenario in scenarios
                    for v in scenario_variants(scenario, roster, site)]
        distinct = {id(m) for v in variants for m, _ in resolve_variant(v, registry, site)}
        want_fields += len(distinct) * len(datasets[site].test)
        want_preds += len(variants) * len(datasets[site].test)
    return {"extract_features": want_fields, "forward": want_fields,
            "ensemble_predict": want_preds, "score_pair": 3 * want_preds}


@pytest.mark.parametrize("scenario", list(Scenario))
def test_run_scenario_one_field_per_member_and_sample(small_dataset, monkeypatch, scenario):
    """A call for one scenario computes each member model's field once per
    test sample, and predicts and scores each (variant, sample) once."""
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=11)
    datasets = _three_site_datasets(small_dataset)
    calls = _count_calls(monkeypatch)
    run_scenario([scenario], datasets, registry)
    assert calls == _want_counts([scenario], datasets, registry)


def test_run_all_scenarios_one_field_per_member_and_sample(small_dataset, monkeypatch):
    """One call over every scenario computes each member model's field once
    per test sample; each (scenario, variant, sample) is still predicted once
    and scored once per lesion class."""
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=11)
    datasets = _three_site_datasets(small_dataset)
    calls = _count_calls(monkeypatch)
    run_scenario(list(Scenario), datasets, registry)
    assert calls == _want_counts(list(Scenario), datasets, registry)


def _same_value(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("scenario", list(Scenario))
def test_run_scenario_matches_weights_based_reference(small_dataset, scenario):
    """A scenario's records from one call over all scenarios, in either
    order, equal the reference loop's."""
    from oracles import reference_scenario_records
    registry = _registry(sites=("s1", "s2", "s3"), rng_seed=13)
    # the federated models carry their own feature normalizations
    registry.fed.feature_config = FeatureConfig(shift=-500.0, scale=50.0,
                                                clip_low=-900.0, clip_high=100.0)
    for s in ("s1", "s2"):
        registry.fed_leave_out[s].feature_config = FeatureConfig(
            shift=-450.0, scale=80.0, clip_low=-1000.0, clip_high=200.0)
    datasets = _three_site_datasets(small_dataset)
    want = reference_scenario_records(scenario, datasets, registry)
    for order in (list(Scenario), list(reversed(Scenario))):
        results = run_scenario(order, datasets, registry)
        assert [r.scenario for r in results] == order
        got = results[order.index(scenario)].records
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
    [result] = run_scenario([scenario], datasets, registry)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, result.records, "e" * 64)
    back, _digest = read_metrics_csv(path)
    want = rank_records(result.records, scenario)
    got = rank_records(back, scenario)
    assert got.cell_ranks == want.cell_ranks
    assert got.overall == want.overall
