import re

import numpy as np
import pytest

from conftest import make_profile, make_sample
from oracles import (finite_diff_grad, padded_gradient_magnitude, predict_proba,
                     reference_ensemble_labels, reference_forward, reference_loss_and_grad,
                     reference_train_epochs, scipy_extract_features, true_class_cells)

from fedrad.dataset import Volume, generate_site_dataset
from fedrad.experiment import default_profiles
from fedrad.fingerprint import compute_fingerprint, derive_config
from fedrad.config import TrainConfig
from fedrad.learner import (FeatureConfig, N_FEATURES, WEIGHT_LEN, _box_filter,
                            _gradient_magnitude, build_training_matrix, ensemble_predict,
                            extract_features, forward, load_weights, loss_and_grad,
                            predict_members, save_weights, train_epochs)
from fedrad.seeding import from_dict, rng_from

FC = FeatureConfig(shift=0.0, scale=1.0, clip_low=-1e6, clip_high=1e6)


def random_batch(rng, n=32):
    features = np.concatenate([rng.normal(size=(n, N_FEATURES)), np.ones((n, 1))], axis=1)
    labels = rng.integers(0, 4, size=n)
    return features, labels


def test_extract_features_constant_volume():
    vol = Volume(intensities=np.full((8, 8, 8), 25.0, dtype=np.float32),
                 spacing=(1.0, 1.0, 1.0))
    feats = extract_features(vol, FC)
    assert feats.shape == (8, 8, 8, 4)
    assert np.allclose(feats[..., 0], 25.0)
    assert np.allclose(feats[..., 1], 25.0, atol=1e-12)  # smoothing preserves constants
    assert np.all(feats[..., 2] == 0.0)                   # zero gradient everywhere
    assert np.all(feats[..., 3] == 1.0)                   # bias


def test_extract_features_normalization_and_clip():
    vol = Volume(intensities=np.full((8, 8, 8), 300.0, dtype=np.float32),
                 spacing=(1.0, 1.0, 1.0))
    fc = FeatureConfig(shift=100.0, scale=50.0, clip_low=-200.0, clip_high=200.0)
    feats = extract_features(vol, fc)
    assert np.allclose(feats[..., 0], (200.0 - 100.0) / 50.0)  # clipped then normalized


def test_extract_features_invalid_config():
    vol = Volume(intensities=np.zeros((8, 8, 8), np.float32), spacing=(1, 1, 1))
    invalid = FeatureConfig(shift=0.0, scale=0.0, clip_low=0, clip_high=1)
    with pytest.raises(ValueError):
        extract_features(vol, invalid)
    with pytest.raises(ValueError, match="invalid feature normalization"):
        build_training_matrix([make_sample(dims=(8, 8, 8))], invalid)


def _filter_grids():
    """Seeded grids with each dim in 1..24: all -0.0, whose sums scipy turns
    into +0.0, then every shape with dims in {1, 2, 3}, then random shapes.
    Values are normals, normals clipped into plateaus, or drawn from
    {+-0.0, +-1, 0.1, -0.3}, where the sign of a zero sum shows."""
    yield np.full((2, 3, 4), -0.0)
    rng = np.random.default_rng(2024)
    shapes = [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)]
    shapes += [tuple(int(d) for d in rng.integers(1, 25, size=3)) for _ in range(400)]
    for i, dims in enumerate(shapes):
        kind = i % 3
        if kind == 0:
            yield rng.normal(size=dims)
        elif kind == 1:
            yield np.clip(rng.normal(size=dims) * 3.0, -1.0, 1.0)
        else:
            yield rng.choice([0.0, -0.0, 1.0, -1.0, 0.1, -0.3], size=dims)


def test_box_filter_matches_scipy_bytes():
    from scipy import ndimage

    for x in _filter_grids():
        want = ndimage.uniform_filter(x, 3, mode="nearest")
        # tobytes, not array_equal: a -0.0 where scipy has +0.0 is a mismatch
        assert _box_filter(x).tobytes() == want.tobytes(), x.shape


def test_gradient_magnitude_matches_padded_formula():
    for x in _filter_grids():
        assert _gradient_magnitude(x).tobytes() == padded_gradient_magnitude(x).tobytes(), x.shape


def test_extract_features_matches_scipy_oracle():
    ds = generate_site_dataset(make_profile(n_samples=8, seed=41, dims=(9, 14, 11)))
    fc = derive_config(compute_fingerprint(ds.train), 5).feature_config
    for s in ds.samples:
        got = extract_features(s.volume, fc)
        assert got.tobytes() == scipy_extract_features(s.volume, fc).tobytes(), s.sample_id


def test_forward_uniform_at_zero_weights(rng):
    features, _ = random_batch(rng)
    probs = forward(np.zeros(WEIGHT_LEN), features)
    assert np.allclose(probs, 0.25)


def test_forward_probabilities_valid(rng):
    for _ in range(20):
        w = rng.normal(size=WEIGHT_LEN)
        features, _ = random_batch(rng)
        probs = forward(w, features)
        assert (probs > 0).all() and (probs < 1).all()
        assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-9


def test_forward_shift_invariance(rng):
    # adding a constant to all logits of a voxel leaves probabilities unchanged:
    # shift every class's bias weight by the same constant
    w = rng.normal(size=WEIGHT_LEN)
    shifted = w.copy().reshape(4, 4)
    shifted[:, 3] += 5.0
    features, _ = random_batch(rng)
    assert np.allclose(forward(w, features), forward(shifted.reshape(-1), features))


def test_forward_rejects_nonfinite():
    w = np.zeros(WEIGHT_LEN)
    w[0] = np.nan
    with pytest.raises(ValueError):
        forward(w, np.ones((1, 4)))


def test_loss_at_uniform_predictor(rng):
    features, labels = random_batch(rng)
    loss, _ = reference_loss_and_grad(np.zeros(WEIGHT_LEN), features, labels)
    assert loss == pytest.approx(np.log(4.0), rel=1e-12)


def test_gradient_matches_finite_differences(rng):
    for _ in range(20):
        w = rng.normal(scale=0.5, size=WEIGHT_LEN)
        features, labels = random_batch(rng, n=16)
        grad = loss_and_grad(w, features, true_class_cells(labels))
        fd = finite_diff_grad(w, features, labels)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4


def test_gradient_duplication_invariance(rng):
    w = rng.normal(size=WEIGHT_LEN)
    features, labels = random_batch(rng, n=8)
    g1 = loss_and_grad(w, features, true_class_cells(labels))
    g2 = loss_and_grad(w, np.concatenate([features, features]),
                       true_class_cells(np.concatenate([labels, labels])))
    assert np.allclose(g1, g2)


@pytest.mark.parametrize("shape", [(0, 4), (16,), (16, 3), (2, 8, 4)])
def test_loss_empty_batch(shape):
    # the step checks nothing; train_epochs refuses a matrix it cannot draw from
    cfg = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=4, learning_rate=0.5, seed=0)
    with pytest.raises(ValueError, match=r"non-empty \(N, 4\) matrix"):
        train_epochs(np.zeros(WEIGHT_LEN), np.zeros(shape), np.zeros(shape[0], dtype=int), cfg)


def _separable_set(rng, n=4000):
    # two well-separated clusters in the raw-intensity feature
    labels = rng.integers(0, 2, size=n)
    raw = np.where(labels == 0, -2.0, 2.0) + rng.normal(scale=0.3, size=n)
    features = np.stack([raw, raw, np.zeros(n), np.ones(n)], axis=1)
    return features, labels


def test_training_reduces_loss_and_separates(rng):
    features, labels = _separable_set(rng)
    cfg = TrainConfig(epochs=1, batches_per_epoch=30, batch_size=64,
                      learning_rate=0.5, seed=99)
    w = np.zeros(WEIGHT_LEN)
    losses = []
    for epoch in range(1, 6):
        losses.append(reference_loss_and_grad(w, features, labels)[0])
        w = train_epochs(w, features, labels, cfg, start_epoch=epoch)
    losses.append(reference_loss_and_grad(w, features, labels)[0])
    assert all(b < a for a, b in zip(losses, losses[1:]))

    probs = forward(w, features)
    accuracy = np.mean(np.argmax(probs, axis=1) == labels)
    assert accuracy >= 0.9


def test_training_zero_learning_rate(rng):
    features, labels = random_batch(rng, n=64)
    cfg = TrainConfig(epochs=3, batches_per_epoch=5, batch_size=8,
                      learning_rate=0.0, seed=1)
    w = rng.normal(size=WEIGHT_LEN)
    assert np.array_equal(train_epochs(w, features, labels, cfg), w)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -0.1])
def test_train_config_refuses_bad_learning_rate(bad):
    good = dict(epochs=1, batches_per_epoch=1, batch_size=1, learning_rate=0.5, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "learning_rate": bad})
    with pytest.raises(ValueError, match="learning_rate"):
        from_dict(TrainConfig, {**good, "learning_rate": bad})


def test_training_deterministic(rng):
    features, labels = random_batch(rng, n=64)
    cfg = TrainConfig(epochs=2, batches_per_epoch=10, batch_size=16,
                      learning_rate=0.2, seed=42)
    w0 = rng.normal(size=WEIGHT_LEN)
    assert np.array_equal(train_epochs(w0, features, labels, cfg),
                          train_epochs(w0, features, labels, cfg))


def test_epoch_chaining_matches_single_call(rng):
    # one call with epochs=4 equals chaining four 1-epoch calls at the right
    # start epochs; this is what makes federated rounds equal local training
    features, labels = random_batch(rng, n=64)
    w0 = rng.normal(size=WEIGHT_LEN)
    whole = train_epochs(w0, features, labels,
                         TrainConfig(epochs=4, batches_per_epoch=6, batch_size=8,
                                     learning_rate=0.3, seed=5))
    step = w0
    one = TrainConfig(epochs=1, batches_per_epoch=6, batch_size=8,
                      learning_rate=0.3, seed=5)
    for t in range(1, 5):
        step = train_epochs(step, features, labels, one, start_epoch=t)
    assert np.array_equal(whole, step)


# ---------------------------------------------------------------------------
# bit-identity with the reference implementation in oracles.py

def _site_like_matrix(rng, n=5000):
    # feature scales like a real site's: normalized intensities, smoothed
    # intensities, a non-negative gradient magnitude and the bias
    raw = rng.normal(scale=1.5, size=n)
    features = np.stack([raw, raw + rng.normal(scale=0.2, size=n),
                         np.abs(rng.normal(scale=0.8, size=n)), np.ones(n)], axis=1)
    return features, rng.integers(0, 4, size=n)


# the last case's uint8 labels times 256 rows would wrap in uint8, so it
# pins the intp true-class cells
@pytest.mark.parametrize("batch_size,batches_per_epoch,epochs,start_epoch,label_dtype", [
    (256, 50, 2, 1, np.int64), (1, 7, 3, 1, np.int64), (7, 3, 4, 5, np.int64),
    (33, 10, 1, 20, np.int64), (64, 1, 6, 2, np.int64), (256, 20, 2, 1, np.uint8),
], ids=["256-50-2-1", "1-7-3-1", "7-3-4-5", "33-10-1-20", "64-1-6-2", "256-20-2-1-uint8"])
def test_train_epochs_matches_reference_bitwise(rng, batch_size, batches_per_epoch,
                                                epochs, start_epoch, label_dtype):
    features, labels = _site_like_matrix(rng)
    labels = labels.astype(label_dtype)
    w0 = rng.normal(scale=0.3, size=WEIGHT_LEN)
    cfg = TrainConfig(epochs=epochs, batches_per_epoch=batches_per_epoch,
                      batch_size=batch_size, learning_rate=0.5, seed=20240117)
    assert np.array_equal(train_epochs(w0, features, labels, cfg, start_epoch=start_epoch),
                          reference_train_epochs(w0, features, labels, cfg,
                                                 start_epoch=start_epoch))


def test_train_epochs_chaining_matches_reference_bitwise(rng):
    # rounds of one epoch, chained as a federated site runs them
    features, labels = _site_like_matrix(rng)
    one = TrainConfig(epochs=1, batches_per_epoch=20, batch_size=128,
                      learning_rate=0.5, seed=3)
    w_new = w_ref = rng.normal(scale=0.3, size=WEIGHT_LEN)
    for t in range(1, 6):
        w_new = train_epochs(w_new, features, labels, one, start_epoch=t)
        w_ref = reference_train_epochs(w_ref, features, labels, one, start_epoch=t)
        assert np.array_equal(w_new, w_ref), t


def test_train_epochs_trains_on_a_single_row(rng):
    # only an empty matrix is refused: one row is a matrix every batch draws from
    features, labels = _site_like_matrix(rng)
    features, labels = features[:1], labels[:1]
    w0 = rng.normal(scale=0.3, size=WEIGHT_LEN)
    cfg = TrainConfig(epochs=2, batches_per_epoch=3, batch_size=4, learning_rate=0.5, seed=7)
    w = train_epochs(w0, features, labels, cfg)
    assert not np.array_equal(w, w0)
    assert np.array_equal(w, reference_train_epochs(w0, features, labels, cfg))


def _reference_cases(rng):
    """(weights, features, labels) batches for the bitwise oracles: site-like
    batches of every size, saturated ones whose true-class probability
    underflows to 0, and one-class batches."""
    for n in (1, 2, 3, 7, 31, 256, 300):
        features, labels = _site_like_matrix(rng, n=n)
        yield rng.normal(scale=2.0, size=WEIGHT_LEN), features, labels
        features[:, :N_FEATURES] *= 50.0
        yield rng.normal(scale=2.0, size=WEIGHT_LEN) * 1e3, features, labels
        yield rng.normal(scale=2.0, size=WEIGHT_LEN), features, np.full(n, n % 4)


def test_loss_and_grad_matches_reference_bitwise(rng):
    saturated = 0
    for w, features, labels in _reference_cases(rng):
        grad = loss_and_grad(w, features, true_class_cells(labels))
        _, ref_grad = reference_loss_and_grad(w, features, labels)
        assert np.array_equal(grad, ref_grad)
        saturated += (reference_forward(w, features)[np.arange(len(labels)), labels] == 0).any()
    assert saturated > 0  # some true-class probability did underflow


@pytest.mark.parametrize("dims", [(16, 16, 16), (18, 16, 16), (16, 20, 20),
                                  (16, 18, 18), (18, 16, 18), (), (1,), (300,), (7, 9)])
def test_forward_matches_reference_bitwise(rng, dims):
    # the grid shapes of the shipped site profiles, one voxel, and 1-D and
    # 2-D stacks of voxels
    for _ in range(10):
        features = np.concatenate([rng.normal(scale=rng.uniform(0.5, 20.0),
                                              size=dims + (N_FEATURES,)),
                                   np.ones(dims + (1,))], axis=-1)
        w = rng.normal(scale=rng.uniform(0.1, 5.0), size=WEIGHT_LEN)
        got = forward(w, features)
        assert got.shape == dims + (4,)
        assert np.array_equal(got, reference_forward(w, features))


@pytest.fixture
def steps(monkeypatch):
    """The arguments of every call of ``learner.loss_and_grad``, looked up by
    its module name as ``train_epochs`` and the benchmark's tracer do."""
    import fedrad.learner as learner

    calls = []
    inner = learner.loss_and_grad

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(learner, "loss_and_grad", counted)
    return calls


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("batches_per_epoch", [1, 4])
def test_one_loss_and_grad_call_per_sgd_step(rng, steps, epochs, batches_per_epoch):
    # the benchmark counts SGD steps as calls of learner.loss_and_grad, by name
    features, labels = random_batch(rng, n=64)
    cfg = TrainConfig(epochs=epochs, batches_per_epoch=batches_per_epoch, batch_size=8,
                      learning_rate=0.3, seed=5)
    train_epochs(rng.normal(size=WEIGHT_LEN), features, labels, cfg)
    assert len(steps) == epochs * batches_per_epoch


# ---------------------------------------------------------------------------
# input checks of the SGD step, which train_epochs makes for it

@pytest.mark.parametrize("bad", [-1, 4, 255])
def test_labels_out_of_range_rejected(rng, bad):
    features, labels = random_batch(rng, n=16)
    labels[5] = bad
    cfg = TrainConfig(epochs=1, batches_per_epoch=4, batch_size=16, learning_rate=0.5, seed=0)
    with pytest.raises(ValueError, match="labels out of range"):
        train_epochs(np.zeros(WEIGHT_LEN), features, labels, cfg)
    with pytest.raises(ValueError, match="labels out of range"):
        train_epochs(np.zeros(WEIGHT_LEN), features, np.full(16, bad), cfg)


@pytest.mark.parametrize("bad", [-1, 4, 255])
def test_label_out_of_range_in_a_later_batch_rejected(rng, steps, bad):
    # the bad row is drawn only by the epoch's last batch: the epoch is
    # refused before its first step
    features, labels = random_batch(rng, n=64)
    cfg = TrainConfig(epochs=1, batches_per_epoch=3, batch_size=4, learning_rate=0.5, seed=11)
    batches = rng_from(cfg.seed, "epoch", 1).integers(0, 64, size=(3, 4))
    row = next(int(r) for r in batches[-1] if r not in batches[:-1])
    labels[row] = bad
    with pytest.raises(ValueError, match="labels out of range"):
        train_epochs(np.zeros(WEIGHT_LEN), features, labels, cfg)
    assert steps == []


def test_labels_never_drawn_are_not_checked(rng):
    # only the labels an epoch draws are checked, as only those reach a step
    features, labels = random_batch(rng, n=64)
    cfg = TrainConfig(epochs=1, batches_per_epoch=2, batch_size=4, learning_rate=0.5, seed=11)
    drawn = np.unique(rng_from(cfg.seed, "epoch", 1).integers(0, 64, size=(2, 4)))
    unused = np.setdiff1d(np.arange(64), drawn)
    bad = labels.copy()
    bad[unused] = 255
    w0 = rng.normal(size=WEIGHT_LEN)
    assert np.array_equal(train_epochs(w0, features, bad, cfg),
                          train_epochs(w0, features, labels, cfg))


@pytest.mark.parametrize("n_labels", [1, 15, 17])
def test_labels_of_another_length_rejected(rng, n_labels):
    # a shorter and a longer vector are refused alike, before any row is drawn
    features, labels = random_batch(rng, n=16)
    cfg = TrainConfig(epochs=1, batches_per_epoch=2, batch_size=8, learning_rate=0.5, seed=0)
    with pytest.raises(ValueError, match=r"labels must have shape \(16,\)"):
        train_epochs(np.zeros(WEIGHT_LEN), features, labels[:1].repeat(n_labels), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_weights_rejected(rng, bad):
    features, labels = random_batch(rng, n=16)
    w = np.zeros(WEIGHT_LEN)
    w[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        forward(w, features)
    cfg = TrainConfig(epochs=1, batches_per_epoch=2, batch_size=8, learning_rate=0.5, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        train_epochs(w, features, labels, cfg)


@pytest.mark.parametrize("epochs,batches_per_epoch", [(1, 1), (1, 3), (3, 2)])
@pytest.mark.parametrize("learning_rate", [1e306, np.inf])
def test_diverging_run_raises_instead_of_returning_non_finite(rng, steps, epochs,
                                                              batches_per_epoch, learning_rate):
    if np.isinf(learning_rate):
        # refused up front, before a first step could overflow
        with pytest.raises(ValueError, match="non-finite"):
            TrainConfig(epochs=epochs, batches_per_epoch=batches_per_epoch, batch_size=16,
                        learning_rate=learning_rate, seed=0)
        return
    # the first step already overflows; the first epoch runs to its end and
    # is refused there, so no later epoch runs
    features, labels = random_batch(rng, n=64)
    features[:, :N_FEATURES] *= 1e3
    cfg = TrainConfig(epochs=epochs, batches_per_epoch=batches_per_epoch, batch_size=16,
                      learning_rate=learning_rate, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        train_epochs(rng.normal(size=WEIGHT_LEN), features, labels, cfg)
    assert len(steps) == batches_per_epoch


def _predict(w, vol):
    """The argmax segmentation of one model: a one-member ensemble."""
    return ensemble_predict([predict_proba(w, vol, FC)], [1.0], "v")


def test_predict_zero_weights_tie_breaks_to_background():
    vol = Volume(intensities=np.zeros((6, 6, 6), np.float32), spacing=(1, 1, 1))
    mask = _predict(np.zeros(WEIGHT_LEN), vol)
    assert not mask.any()


@pytest.mark.parametrize("biases,want", [((0.0, 0.0, 0.0, 0.0), 0),
                                         ((0.0, 1.0, 1.0, 0.0), 1),
                                         ((-1.0, 0.0, 2.0, 2.0), 2)])
def test_predict_and_ensemble_break_ties_toward_the_lower_class(rng, biases, want):
    # predict_proba returns a transposed view of class-major probabilities;
    # the argmax over its class axis must still pick the first of equal ones
    vol = Volume(intensities=rng.normal(size=(5, 6, 7)).astype(np.float32),
                 spacing=(1, 1, 1))
    w = np.zeros((4, N_FEATURES + 1))
    w[:, N_FEATURES] = biases
    w = w.reshape(WEIGHT_LEN)
    assert (_predict(w, vol) == want).all()
    p = predict_proba(w, vol, FC)
    assert (ensemble_predict([p, p], [1.0, 3.0], "v") == want).all()


def test_predict_scale_invariance(rng):
    vol = Volume(intensities=rng.normal(size=(6, 6, 6)).astype(np.float32),
                 spacing=(1, 1, 1))
    w = rng.normal(size=WEIGHT_LEN)
    assert np.array_equal(_predict(w, vol), _predict(3.0 * w, vol))


def _random_members(rng, n_members, data):
    """Member models with random weights whose clip bounds lie inside the
    range of ``data``, around it (nothing clips), below or above it (every
    voxel clips), or start at 0.0, where a clipped -0.0 would show."""
    lo, hi = float(data.min()), float(data.max())
    span = hi - lo + 1.0
    members = []
    for kind in (rng.integers(5) + np.arange(n_members)) % 5:
        bounds = [np.sort(rng.uniform(lo, hi, size=2)), (lo - span, hi + span),
                  (lo - 3 * span, lo - 2 * span), (hi + span, hi + 2 * span), (0.0, hi)][kind]
        config = FeatureConfig(shift=float(rng.normal(lo, span)),
                               scale=float(rng.uniform(0.01, 2.0) * span),
                               clip_low=float(bounds[0]), clip_high=float(bounds[1]))
        members.append((rng.normal(scale=rng.uniform(0.1, 5.0), size=WEIGHT_LEN), config))
    return members


@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 1, 2), (1, 5, 4), (2, 2, 2), (16, 16, 16),
                                  (18, 16, 16), (16, 20, 20), (7, 9, 11)])
def test_predict_members_equals_predict_proba_bitwise(dims):
    # one stacked pass over the members gives each member's own field
    rng = np.random.default_rng(100 * dims[0] + 10 * dims[1] + dims[2])
    for n_members in range(1, 10):
        for signed_zeros in (False, True):
            if signed_zeros:
                data = rng.choice([0.0, -0.0, 1.0, -1.0, 0.1, -0.3], size=dims)
            else:
                data = rng.normal(-500.0, 300.0, size=dims)
            vol = Volume(intensities=data.astype(np.float32), spacing=(1, 1, 1))
            members = _random_members(rng, n_members, vol.intensities)
            got = predict_members(vol, members)
            assert len(got) == n_members
            for k, (field, (w, config)) in enumerate(zip(got, members)):
                want = predict_proba(w, vol, config)
                assert (field.dtype, field.shape) == (want.dtype, want.shape)
                assert field.tobytes() == want.tobytes(), (n_members, k, config)
                assert not any(np.shares_memory(field, other) for other in got[:k])


_INVALID_MEMBERS = {
    "scale 0": (np.zeros(WEIGHT_LEN), FeatureConfig(shift=0.0, scale=0.0, clip_low=0.0,
                                                    clip_high=1.0)),
    "NaN shift": (np.zeros(WEIGHT_LEN), FeatureConfig(shift=float("nan"), scale=1.0,
                                                      clip_low=0.0, clip_high=1.0)),
    "short weights": (np.zeros(WEIGHT_LEN - 1), FC),
    "NaN weight": (np.full(WEIGHT_LEN, np.nan), FC),
    "both": (np.zeros(WEIGHT_LEN + 1), FeatureConfig(shift=0.0, scale=-1.0, clip_low=0.0,
                                                      clip_high=1.0)),
}


@pytest.mark.parametrize("name", list(_INVALID_MEMBERS))
def test_predict_members_refuses_an_invalid_member_before_any_work(rng, monkeypatch, name):
    import fedrad.learner as learner

    vol = Volume(intensities=rng.normal(size=(4, 5, 3)).astype(np.float32),
                 spacing=(1, 1, 1))
    bad = _INVALID_MEMBERS[name]
    with pytest.raises(ValueError) as want:
        predict_proba(bad[0], vol, bad[1])
    forwards = []
    monkeypatch.setattr(learner, "forward", lambda *args: forwards.append(args))
    good = [(rng.normal(size=WEIGHT_LEN), FC) for _ in range(3)]
    for position in range(len(good) + 1):
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            predict_members(vol, good[:position] + [bad] + good[position:])
    assert not forwards


def test_ensemble_single_and_identical_members(rng):
    vol = Volume(intensities=rng.normal(size=(6, 6, 6)).astype(np.float32),
                 spacing=(1, 1, 1))
    w = rng.normal(size=WEIGHT_LEN)
    p = predict_proba(w, vol, FC)
    single = np.argmax(p, axis=-1)
    one = ensemble_predict([p], [1.0], "v")
    three = ensemble_predict([p, p, p], [1.0, 1.0, 1.0], "v")
    assert np.array_equal(one, single)
    assert np.array_equal(three, single)


def test_ensemble_order_invariance(rng):
    vol = Volume(intensities=rng.normal(size=(6, 6, 6)).astype(np.float32),
                 spacing=(1, 1, 1))
    p1 = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    p2 = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    a = ensemble_predict([p1, p2], [1.0, 1.0], "v")
    b = ensemble_predict([p2, p1], [1.0, 1.0], "v")
    assert np.array_equal(a, b)


def test_ensemble_validation(rng):
    vol = Volume(intensities=np.zeros((4, 4, 4), np.float32), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        ensemble_predict([], [], "v")
    with pytest.raises(ValueError):  # a member's weights are checked where its field is made
        predict_proba(np.zeros(WEIGHT_LEN - 1), vol, FC)
    p = predict_proba(np.zeros(WEIGHT_LEN), vol, FC)
    with pytest.raises(ValueError):
        ensemble_predict([p], [1.0, 2.0], "v")
    # a smaller field is refused in either order, not broadcast
    for fields in ([p, p[:1]], [p[:1], p]):
        with pytest.raises(ValueError, match="differ in shape"):
            ensemble_predict(fields, [1.0, 1.0], "v")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_ensemble_refuses_non_finite_member_weights(bad):
    # a NaN weight used to pass both the sign and the sum check, and every
    # voxel then came out as label 0
    vol = Volume(intensities=np.zeros((4, 4, 4), np.float32), spacing=(1, 1, 1))
    p = predict_proba(np.zeros(WEIGHT_LEN), vol, FC)
    for weights in ([bad], [1.0, bad], [bad, 1.0]):
        with pytest.raises(ValueError, match="valid weight"):
            ensemble_predict([p] * len(weights), weights, "v")


def test_spec_is_two_member_average(rng):
    # Spec(X) = 1/2 p_X + 1/2 p_local, expressed as a weighted member list
    vol = Volume(intensities=rng.normal(size=(5, 5, 5)).astype(np.float32),
                 spacing=(1, 1, 1))
    px = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    pl = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    direct = 0.5 * px + 0.5 * pl
    via_members = ensemble_predict([px, pl], [0.5, 0.5], "v")
    assert np.array_equal(via_members, np.argmax(direct, axis=-1).astype(np.uint8))


def test_ensemble_ignores_a_zero_weight_member(rng):
    vol = Volume(intensities=rng.normal(size=(5, 6, 7)).astype(np.float32),
                 spacing=(1, 1, 1))
    p = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    q = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    alone = ensemble_predict([p], [1.0], "v")
    assert not np.array_equal(alone, ensemble_predict([q], [1.0], "v"))
    assert np.array_equal(ensemble_predict([p, q], [1.0, 0.0], "v"), alone)


def test_ensemble_refuses_all_zero_weights():
    vol = Volume(intensities=np.zeros((4, 4, 4), np.float32), spacing=(1, 1, 1))
    p = predict_proba(np.zeros(WEIGHT_LEN), vol, FC)
    for weights in ([0.0], [0.0, 0.0], [0.0, -0.0, 0.0]):
        with pytest.raises(ValueError, match="valid weight"):
            ensemble_predict([p] * len(weights), weights, "v")


@pytest.mark.parametrize("class_id", range(4))
def test_ensemble_refuses_a_nan_average(rng, class_id):
    # one NaN cell, in any class, used to come out as that voxel's label
    vol = Volume(intensities=rng.normal(size=(5, 6, 7)).astype(np.float32),
                 spacing=(1, 1, 1))
    p = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    nan = p.copy()
    nan[1, 2, 3, class_id] = np.nan
    for fields in ([nan], [p, nan], [nan, p, p]):
        with pytest.raises(ValueError, match="v: ensemble average is NaN at 1 voxels"):
            ensemble_predict(fields, [1.0] * len(fields), "v")
    # an infinity times a zero member weight is NaN too
    inf = p.copy()
    inf[4, 5, 6, class_id] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN at 1 voxels"):
        ensemble_predict([p, inf], [1.0, 0.0], "v")


def _tied_fields(rng, n_members, layout, shape=(5, 6, 7)):
    """Seeded probability-like fields of shape ``shape + (4,)`` with exact ties.

    Each voxel gives its four classes levels from 0..2, shared by every
    member, and member k maps the levels through its own increasing values;
    so classes of equal level are equal in every member and in any weighted
    sum, and four classes on three levels tie at every voxel. ``layout``
    "class-major" gives each field as :func:`forward` does, a transposed view
    of class-major storage; "contiguous" gives C-contiguous fields; "mixed"
    alternates the two.
    """
    levels = rng.integers(0, 3, size=(4,) + shape)
    fields = []
    for k in range(n_members):
        values = np.sort(rng.random(3))
        class_major = np.moveaxis(values[levels], 0, -1)
        contiguous = layout == "contiguous" or (layout == "mixed" and k % 2)
        fields.append(np.ascontiguousarray(class_major) if contiguous else class_major)
    return fields


@pytest.mark.parametrize("layout", ["class-major", "contiguous", "mixed"])
@pytest.mark.parametrize("n_members", range(1, 8))
def test_ensemble_matches_row_major_argmax_oracle(n_members, layout):
    rng = np.random.default_rng(1000 * n_members + len(layout))
    fields = _tied_fields(rng, n_members, layout)
    weights = rng.random(n_members) + 0.01
    if n_members > 2:
        weights[1] = 0.0
    mw = weights / weights.sum()
    want = reference_ensemble_labels(fields, mw)
    got = ensemble_predict(fields, weights, "v")
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    # every pair of classes ties at the top of the average somewhere
    avg = sum(mw[k] * f for k, f in enumerate(fields))
    top = avg == avg.max(axis=-1, keepdims=True)
    for a in range(4):
        for b in range(a + 1, 4):
            assert (top[..., a] & top[..., b]).any(), (a, b)


def test_build_training_matrix_orders_by_sample_id(rng):
    s1 = make_sample(sample_id="b", dims=(8, 8, 8),
                     intensities=rng.normal(size=(8, 8, 8)).astype(np.float32))
    s2 = make_sample(sample_id="a", dims=(8, 8, 8),
                     intensities=rng.normal(size=(8, 8, 8)).astype(np.float32))
    x12, y12 = build_training_matrix([s1, s2], FC)
    x21, y21 = build_training_matrix([s2, s1], FC)
    assert np.array_equal(x12, x21)
    assert np.array_equal(y12, y21)
    assert x12.shape == (2 * 8 ** 3, 4)


@pytest.mark.parametrize("volume_dims, mask_dims", [((8, 8, 8), (10, 10, 10)),
                                                    ((10, 10, 10), (10, 10, 9))],
                         ids=["volume-smaller", "mask-smaller"])
def test_build_training_matrix_refuses_a_mask_of_another_shape(rng, volume_dims, mask_dims):
    good = make_sample(sample_id="a", dims=volume_dims)
    bad = make_sample(sample_id="b", labels=np.zeros(mask_dims, dtype=np.uint8),
                      intensities=rng.normal(size=volume_dims).astype(np.float32))
    with pytest.raises(ValueError, match=re.escape(
            f"sample b: mask shape {mask_dims} differs from volume shape {volume_dims}")):
        build_training_matrix([good, bad], FC)


def _per_sample_matrix(samples, config):
    """The training matrix as one :func:`extract_features` per sample builds it."""
    ordered = sorted(samples, key=lambda s: s.sample_id)
    features = np.concatenate([extract_features(s.volume, config).reshape(-1, N_FEATURES + 1)
                               for s in ordered])
    labels = np.concatenate([s.labels.reshape(-1).astype(np.int64) for s in ordered])
    return features, labels


def _assert_stacked_equals_per_sample(samples, config):
    got, want = build_training_matrix(samples, config), _per_sample_matrix(samples, config)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def _random_sample(rng, sample_id, dims, signed_zeros=False):
    if signed_zeros:  # values whose zero sums show their sign
        intensities = rng.choice([0.0, -0.0, 1.0, -1.0, 0.1, -0.3], size=dims)
    else:
        intensities = rng.normal(-500.0, 300.0, size=dims)
    return make_sample(sample_id=sample_id, dims=dims,
                       intensities=intensities.astype(np.float32),
                       labels=rng.integers(0, 4, size=dims).astype(np.uint8))


CLIPPING_FC = FeatureConfig(shift=-480.0, scale=250.0, clip_low=-900.0, clip_high=-150.0)


def test_build_training_matrix_mixed_shapes_equal_per_sample(rng):
    a, b = (6, 7, 5), (5, 6, 7)
    # in sample_id order the shapes run A, B, A, A: three stacked passes
    samples = [_random_sample(rng, sid, dims)
               for sid, dims in (("d", a), ("b", b), ("a", a), ("c", a))]
    _assert_stacked_equals_per_sample(samples, CLIPPING_FC)
    _assert_stacked_equals_per_sample(samples, FC)


def test_build_training_matrix_thin_grids_equal_per_sample(rng):
    shapes = [(1, 5, 4), (1, 5, 4), (2, 1, 3), (2, 1, 3), (3, 2, 1), (2, 2, 2), (2, 2, 2),
              (1, 1, 1), (1, 1, 1), (4, 1, 2)]
    for signed_zeros in (False, True):
        samples = [_random_sample(rng, f"s{i:02d}", dims, signed_zeros)
                   for i, dims in enumerate(shapes)]
        _assert_stacked_equals_per_sample(samples, FC)
        _assert_stacked_equals_per_sample(samples, CLIPPING_FC)


def test_build_training_matrix_default_shapes_equal_per_sample(rng):
    shapes = [p.grid_dims for p in default_profiles(6)]
    samples = [_random_sample(rng, f"s{i:02d}", shapes[i // 2]) for i in range(2 * len(shapes))]
    _assert_stacked_equals_per_sample(samples, CLIPPING_FC)


def test_weight_file_roundtrip(tmp_path, rng):
    w = rng.normal(size=WEIGHT_LEN)
    path = tmp_path / "w.frwt"
    save_weights(path, w)
    assert path.read_bytes()[:4] == b"FRWT"
    assert np.array_equal(load_weights(path), w)


def test_weight_file_corruption(tmp_path, rng):
    path = tmp_path / "w.frwt"
    save_weights(path, rng.normal(size=WEIGHT_LEN))
    good = path.read_bytes()
    raw = bytearray(good)
    raw[0] = 0x58
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_weights(path)
    # every exponent bit of the last weight set: an infinity or a NaN
    raw = bytearray(good)
    raw[-2] |= 0xF0
    raw[-1] |= 0x7F
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite weights$"):
        load_weights(path)
