import numpy as np
import pytest

from conftest import make_profile, make_sample

from fedrad.dataset import generate_site_dataset
from fedrad.fingerprint import (DatasetFingerprint, STD_EPSILON, average_fingerprints,
                                compute_fingerprint, derive_config)
from fedrad.learner import WEIGHT_LEN
from fedrad.seeding import from_dict, to_dict


def test_constant_volume_fingerprint():
    sample = make_sample(dims=(8, 8, 8),
                         intensities=np.full((8, 8, 8), 100.0, dtype=np.float32))
    fp = compute_fingerprint([sample])
    assert fp.intensity_mean == 100.0
    assert fp.intensity_std == 0.0
    assert fp.intensity_p005 == 100.0
    assert fp.intensity_p995 == 100.0
    assert fp.n_samples == 1
    assert fp.class_voxel_freqs == (1.0, 0.0, 0.0, 0.0)


def test_class_frequencies_sum_to_one(small_dataset):
    fp = compute_fingerprint(small_dataset.train)
    assert abs(sum(fp.class_voxel_freqs) - 1.0) <= 1e-9


def test_duplication_invariance(small_dataset):
    fp1 = compute_fingerprint(small_dataset.train)
    fp2 = compute_fingerprint(small_dataset.train + small_dataset.train)
    assert fp2.n_samples == 2 * fp1.n_samples
    assert fp2.intensity_mean == fp1.intensity_mean
    assert fp2.intensity_std == fp1.intensity_std
    assert fp2.intensity_p005 == fp1.intensity_p005
    assert fp2.intensity_p995 == fp1.intensity_p995
    assert fp2.spacing_mean == fp1.spacing_mean
    assert fp2.class_voxel_freqs == fp1.class_voxel_freqs


def test_empty_train_set_rejected():
    with pytest.raises(ValueError):
        compute_fingerprint([])


def _fp(mean, std=1.0, n=3):
    return DatasetFingerprint(n_samples=n, intensity_mean=mean, intensity_std=std,
                              intensity_p005=mean - 2, intensity_p995=mean + 2,
                              spacing_mean=(1.0, 1.0, 1.0),
                              class_voxel_freqs=(0.7, 0.1, 0.1, 0.1))


def test_average_of_identical_is_identity():
    fp = _fp(100.0)
    avg = average_fingerprints([fp, fp, fp])
    assert avg.intensity_mean == fp.intensity_mean
    assert avg.intensity_std == fp.intensity_std
    assert avg.class_voxel_freqs == fp.class_voxel_freqs
    assert avg.n_samples == 3 * fp.n_samples  # counts are summed, not averaged


def test_average_means():
    avg = average_fingerprints([_fp(100.0), _fp(200.0)])
    assert avg.intensity_mean == 150.0


def test_average_order_invariant():
    fps = [_fp(100.0, 1.0), _fp(200.0, 3.0), _fp(-50.0, 0.5), _fp(7.25, 2.0)]
    a = average_fingerprints(fps)
    b = average_fingerprints(fps[::-1])
    c = average_fingerprints([fps[2], fps[0], fps[3], fps[1]])
    assert a == b == c


def test_average_empty_rejected():
    with pytest.raises(ValueError):
        average_fingerprints([])


def test_derive_config_identical_across_sites(small_dataset):
    fp = compute_fingerprint(small_dataset.train)
    d1 = derive_config(fp, 123)
    d2 = derive_config(fp, 123)
    assert np.array_equal(d1.init_weights, d2.init_weights)
    assert d1.feature_config == d2.feature_config


def test_derive_config_seed_changes_init_not_features(small_dataset):
    fp = compute_fingerprint(small_dataset.train)
    d1 = derive_config(fp, 1)
    d2 = derive_config(fp, 2)
    assert d1.feature_config == d2.feature_config
    assert not np.array_equal(d1.init_weights, d2.init_weights)
    assert d1.init_weights.shape == (WEIGHT_LEN,)


def test_derive_config_std_clamp():
    fp = _fp(5.0, std=0.0)
    derived = derive_config(fp, 7)
    assert derived.feature_config.scale == STD_EPSILON
    assert derived.feature_config.shift == 5.0


def test_fingerprint_dict_roundtrip(small_dataset):
    fp = compute_fingerprint(small_dataset.train)
    assert from_dict(DatasetFingerprint, to_dict(fp)) == fp
    assert fp.digest == from_dict(DatasetFingerprint, to_dict(fp)).digest


def test_fingerprint_statistics_against_numpy():
    ds = generate_site_dataset(make_profile(seed=31, n_samples=4))
    fp = compute_fingerprint(ds.train)
    pooled = np.concatenate([s.volume.intensities.ravel().astype(np.float64)
                             for s in sorted(ds.train, key=lambda s: s.sample_id)])
    assert fp.intensity_mean == pytest.approx(pooled.mean(), rel=1e-12)
    assert fp.intensity_std == pytest.approx(pooled.std(), rel=1e-9)
    lo, hi = np.percentile(pooled, [0.5, 99.5], method="inverted_cdf")
    assert fp.intensity_p005 == lo
    assert fp.intensity_p995 == hi
