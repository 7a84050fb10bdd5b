import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_profile, make_sample
from oracles import flood_fill_components, ndimage_component_sizes

from fedrad.cli import main
from fedrad.config import CLASS_PE, LESION_CLASSES, CcRegime
from fedrad.dataset import (connected_components, generate_sample, generate_site_dataset,
                            site_statistics, split)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def _mask_has(sample, class_id):
    return bool((sample.labels == class_id).any())


def test_generation_deterministic():
    profile = make_profile(seed=42)
    a = generate_site_dataset(profile)
    b = generate_site_dataset(profile)
    assert [s.sample_id for s in a.samples] == [s.sample_id for s in b.samples]
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.volume.intensities, sb.volume.intensities)
        assert np.array_equal(sa.labels, sb.labels)
        assert sa.volume.spacing == sb.volume.spacing


def test_generated_samples_consistent():
    ds = generate_site_dataset(make_profile(seed=3))
    for s in ds.samples:
        assert s.volume.intensities.shape == s.labels.shape
        assert np.isfinite(s.volume.intensities).all()
        assert set(np.unique(s.labels)) <= {0, 1, 2, 3}


def test_zero_prevalence_gives_background_only():
    profile = make_profile(prevalence=(0.0, 0.0, 0.0), seed=5)
    ds = generate_site_dataset(profile)
    for s in ds.samples:
        assert not s.labels.any()


def test_prevalence_controls_presence_frequency():
    profile = make_profile(n_samples=300, prevalence=(0.7, 0.2, 0.0), seed=11,
                           dims=(8, 8, 8))
    samples = [generate_sample(profile, i) for i in range(profile.n_samples)]
    freq1 = np.mean([_mask_has(s, 1) for s in samples])
    freq2 = np.mean([_mask_has(s, 2) for s in samples])
    assert abs(freq1 - 0.7) < 0.08
    assert abs(freq2 - 0.2) < 0.08
    assert not any(_mask_has(s, 3) for s in samples)


def test_small_grid_rejected():
    profile = make_profile(dims=(6, 12, 12))
    with pytest.raises(ValueError):
        generate_site_dataset(profile)


def test_regime_component_counts():
    # many_small must fragment annotations into strictly more components on
    # average than few_large, measured with the independent flood-fill oracle
    common = dict(n_samples=12, prevalence=(1.0, 1.0, 1.0), dims=(20, 20, 20), seed=17)
    few = generate_site_dataset(make_profile(regime=CcRegime.FEW_LARGE, **common))
    many = generate_site_dataset(make_profile(regime=CcRegime.MANY_SMALL, **common))

    def mean_cc(ds):
        counts = []
        for s in ds.samples:
            for c in LESION_CLASSES:
                sizes = flood_fill_components(s.labels, c)
                if sizes:
                    counts.append(len(sizes))
        return np.mean(counts)

    m_few, m_many = mean_cc(few), mean_cc(many)
    assert m_many > m_few
    assert m_few <= 3.0
    assert m_many >= 5.0


def test_regime_target_ranges():
    common = dict(n_samples=10, prevalence=(1.0, 0.0, 0.0), dims=(20, 20, 20), seed=23)
    for regime, lo, hi in ((CcRegime.FEW_LARGE, 1, 3), (CcRegime.MANY_SMALL, 5, 20)):
        ds = generate_site_dataset(make_profile(regime=regime, **common))
        for s in ds.samples:
            n = len(flood_fill_components(s.labels, 1))
            assert lo <= n <= hi, f"{regime}: {n} components"


def test_connected_components_against_flood_fill(rng):
    for trial in range(30):
        dims = tuple(int(rng.integers(6, 17)) for _ in range(3))  # up to 16^3
        labels = (rng.random(dims) < 0.12).astype(np.uint8)
        got = sorted(c.voxel_count for c in connected_components(labels, 1))
        assert got == flood_fill_components(labels, 1)


def _component_sizes_in_order(labels, class_id):
    return [c.voxel_count for c in connected_components(labels, class_id)]


def test_connected_components_match_ndimage_label_random():
    # same count and the same voxel counts in label order, from sparse to
    # nearly full masks; every third one touches all six faces
    rng = np.random.default_rng(326)
    for i in range(600):
        dims = tuple(int(d) for d in rng.integers(1, 19, size=3))
        mask = rng.random(dims) < rng.uniform(0.0, 0.95)
        if i % 3 == 0:
            for axis in range(3):
                for end in (0, dims[axis] - 1):
                    voxel = [int(rng.integers(0, d)) for d in dims]
                    voxel[axis] = end
                    mask[tuple(voxel)] = True
        labels = mask.astype(np.uint8)
        assert _component_sizes_in_order(labels, 1) == ndimage_component_sizes(mask), (dims, i)


@pytest.mark.parametrize("regime", list(CcRegime))
def test_connected_components_match_ndimage_label_sites(regime):
    ds = generate_site_dataset(make_profile(n_samples=12, seed=62, regime=regime,
                                            prevalence=(0.9, 0.9, 0.9), dims=(16, 18, 14)))
    for s in ds.samples:
        for c in LESION_CLASSES:
            want = ndimage_component_sizes(s.labels == c)
            assert _component_sizes_in_order(s.labels, c) == want, (s.sample_id, c)


# sha256 of characteristics.json from `fedrad gen` + `fedrad characterize` on
# configs/default.json, as written when scipy's ndimage.label counted the
# components; component order sets the float sums, so it sets these bytes
DEFAULT_CHARACTERISTICS_SHA256 = "cdac1671890e98f2966ab2d243f41a49285904284c883592165a1448b17fd0dd"


def test_default_characteristics_bytes_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the shipped config writes under ./runs
    for stage in ("gen", "characterize"):
        assert main([stage, "--config", str(DEFAULT_CONFIG)]) == 0
    capsys.readouterr()
    path = tmp_path / "runs" / "default-3site" / "characteristics.json"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_CHARACTERISTICS_SHA256


def test_dilate_26_matches_scipy():
    from scipy import ndimage
    from fedrad.dataset import _dilate_26
    rng = np.random.default_rng(26)
    cube = np.ones((3, 3, 3), dtype=bool)
    for i in range(1200):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        mask = rng.random(dims) < rng.uniform(0.0, 0.4)
        if i % 3 == 0:  # one voxel on each of the six faces
            for axis in range(3):
                for end in (0, dims[axis] - 1):
                    voxel = [int(rng.integers(0, d)) for d in dims]
                    voxel[axis] = end
                    mask[tuple(voxel)] = True
        before = mask.copy()
        got = _dilate_26(mask)
        assert got.dtype == bool
        assert np.array_equal(got, ndimage.binary_dilation(mask, structure=cube)), (dims, i)
        assert np.array_equal(mask, before)


def test_connected_components_basics():
    labels = np.zeros((8, 8, 8), dtype=np.uint8)
    labels[1, 1, 1] = 1
    labels[6, 6, 6] = 1
    comps = connected_components(labels, 1)
    assert sorted(c.voxel_count for c in comps) == [1, 1]

    assert connected_components(np.zeros((8, 8, 8), np.uint8), 2) == []

    cube = np.zeros((8, 8, 8), dtype=np.uint8)
    cube[2:5, 2:5, 2:5] = 2
    comps = connected_components(cube, 2, spacing=(1.0, 1.0, 1.0))
    assert len(comps) == 1
    assert comps[0].voxel_count == 27
    assert comps[0].volume_ml == pytest.approx(0.027)


def test_connected_components_bad_class():
    with pytest.raises(ValueError):
        connected_components(np.zeros((8, 8, 8), np.uint8), 0)


def test_split_partition_and_sizes():
    ds_samples = generate_site_dataset(make_profile(n_samples=10, seed=9)).samples
    train, test = split(ds_samples, 0.2, CLASS_PE, seed=1)
    assert len(test) == 2
    assert len(train) + len(test) == 10
    assert not {s.sample_id for s in train} & {s.sample_id for s in test}
    assert {s.sample_id for s in train} | {s.sample_id for s in test} \
        == {s.sample_id for s in ds_samples}


def test_split_deterministic():
    samples = generate_site_dataset(make_profile(n_samples=10, seed=9)).samples
    t1 = split(samples, 0.2, CLASS_PE, seed=77)
    t2 = split(samples, 0.2, CLASS_PE, seed=77)
    assert [s.sample_id for s in t1[1]] == [s.sample_id for s in t2[1]]


def test_split_five_samples():
    samples = generate_site_dataset(make_profile(n_samples=5, seed=2)).samples
    _, test = split(samples, 0.2, CLASS_PE, seed=0)
    assert len(test) == 1


def test_split_stratification():
    # 10 samples, 2 with the stratified class: per the round-half-up rule no
    # stratum sample lands in the test set (round(0.4) = 0), within +-1
    samples = [make_sample(sample_id=f"s{i}") for i in range(8)]
    lab = np.zeros((10, 10, 10), dtype=np.uint8)
    lab[0, 0, 0] = CLASS_PE
    strat = [make_sample(sample_id=f"p{i}", labels=lab.copy()) for i in range(2)]
    all_samples = samples + strat
    for seed in range(10):
        train, test = split(all_samples, 0.2, CLASS_PE, seed=seed)
        assert len(test) == 2
        n_strat_test = sum(1 for s in test if s.sample_id.startswith("p"))
        assert n_strat_test <= 1  # 0 expected, +-1 allowed


def test_split_stratum_fraction_enforced():
    lab = np.zeros((10, 10, 10), dtype=np.uint8)
    lab[0, 0, 0] = CLASS_PE
    strat = [make_sample(sample_id=f"p{i}", labels=lab.copy()) for i in range(10)]
    plain = [make_sample(sample_id=f"s{i}") for i in range(10)]
    train, test = split(strat + plain, 0.2, CLASS_PE, seed=3)
    assert len(test) == 4
    assert sum(1 for s in test if s.sample_id.startswith("p")) == 2


def test_split_all_contain_stratify_class():
    lab = np.zeros((10, 10, 10), dtype=np.uint8)
    lab[0, 0, 0] = CLASS_PE
    samples = [make_sample(sample_id=f"p{i}", labels=lab.copy()) for i in range(10)]
    train, test = split(samples, 0.2, CLASS_PE, seed=5)
    assert len(test) == 2


@pytest.mark.parametrize("fraction", [
    math.nextafter(0.0, 1.0), 0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 1 / 3, 0.45, 0.5, 0.55,
    2 / 3, 0.75, 0.99, math.nextafter(1.0, 0.0)])
def test_split_stratum_counts_fit_their_pools(fraction):
    # split takes k_strat of the len(has) stratum samples and k_comp of the
    # n - len(has) others without clamping either: check every n up to 400
    # and every stratum size h <= n
    from fedrad.dataset import _round_half_up
    k = np.array([_round_half_up(fraction * i) for i in range(401)])
    n, h = np.meshgrid(np.arange(401), np.arange(401), indexing="ij")
    k_strat, k_comp = k[h], k[n] - k[h]
    fits = (0 <= k_strat) & (k_strat <= h) & (0 <= k_comp) & (k_comp <= n - h)
    assert fits[(n >= 2) & (h <= n)].all()


def test_split_errors():
    samples = [make_sample(sample_id="only")]
    with pytest.raises(ValueError):
        split(samples, 0.2, CLASS_PE, seed=0)
    two = [make_sample(sample_id="a"), make_sample(sample_id="b")]
    with pytest.raises(ValueError):
        split(two, 0.0, CLASS_PE, seed=0)
    with pytest.raises(ValueError):
        split(two, 1.0, CLASS_PE, seed=0)


def test_site_statistics(small_dataset):
    stats = site_statistics(small_dataset)
    assert stats["n_samples"] == len(small_dataset.samples)
    hist = np.asarray(stats["intensity_histogram"])
    assert abs(hist.sum() - 1.0) <= 1e-9
    assert (hist >= 0).all()
    # 2.0 * 1.0 * 1.0 mm spacing everywhere in the test profile
    assert stats["voxel_volume_mm3"]["mean"] == pytest.approx(2.0)
    assert stats["voxel_volume_mm3"]["min"] == stats["voxel_volume_mm3"]["max"]
    assert set(stats["class_sample_counts"]) == {str(c) for c in LESION_CLASSES}


def test_site_statistics_single_isotropic_sample():
    sample = make_sample(spacing=(1.0, 1.0, 1.0))
    from fedrad.dataset import SiteDataset
    stats = site_statistics(SiteDataset(site_id="x", train=[sample], test=[]))
    assert stats["voxel_volume_mm3"] == {"min": 1.0, "max": 1.0, "mean": 1.0, "median": 1.0}


def test_site_statistics_regime_cc_signature():
    common = dict(n_samples=10, prevalence=(1.0, 1.0, 1.0), dims=(20, 20, 20), seed=31)
    few = site_statistics(generate_site_dataset(make_profile(regime=CcRegime.FEW_LARGE, **common)))
    many = site_statistics(generate_site_dataset(make_profile(regime=CcRegime.MANY_SMALL, **common)))
    for c in map(str, LESION_CLASSES):
        if few["class_cc_counts"][c] and many["class_cc_counts"][c]:
            assert many["class_cc_counts"][c]["mean"] > few["class_cc_counts"][c]["mean"]


def test_site_statistics_empty_dataset():
    from fedrad.dataset import SiteDataset
    with pytest.raises(ValueError):
        site_statistics(SiteDataset(site_id="x"))
