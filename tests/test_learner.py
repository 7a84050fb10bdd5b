import numpy as np
import pytest

from conftest import make_sample
from oracles import (finite_diff_grad, reference_forward, reference_loss_and_grad,
                     reference_train_epochs)

from fedrad.dataset import Volume
from fedrad.learner import (FeatureConfig, N_FEATURES, TrainConfig, WEIGHT_LEN,
                            build_training_matrix, ensemble_predict, extract_features,
                            forward, load_weights, loss_and_grad, predict, predict_proba,
                            save_weights, train_epochs)

FC = FeatureConfig(shift=0.0, scale=1.0, clip_low=-1e6, clip_high=1e6)


def random_batch(rng, n=32):
    features = np.concatenate([rng.normal(size=(n, N_FEATURES)), np.ones((n, 1))], axis=1)
    labels = rng.integers(0, 4, size=n)
    return features, labels


def test_extract_features_constant_volume():
    vol = Volume(id="v", intensities=np.full((8, 8, 8), 25.0, dtype=np.float32),
                 spacing=(1.0, 1.0, 1.0))
    feats = extract_features(vol, FC)
    assert feats.shape == (8, 8, 8, 4)
    assert np.allclose(feats[..., 0], 25.0)
    assert np.allclose(feats[..., 1], 25.0, atol=1e-12)  # smoothing preserves constants
    assert np.all(feats[..., 2] == 0.0)                   # zero gradient everywhere
    assert np.all(feats[..., 3] == 1.0)                   # bias


def test_extract_features_normalization_and_clip():
    vol = Volume(id="v", intensities=np.full((8, 8, 8), 300.0, dtype=np.float32),
                 spacing=(1.0, 1.0, 1.0))
    fc = FeatureConfig(shift=100.0, scale=50.0, clip_low=-200.0, clip_high=200.0)
    feats = extract_features(vol, fc)
    assert np.allclose(feats[..., 0], (200.0 - 100.0) / 50.0)  # clipped then normalized


def test_extract_features_invalid_config():
    vol = Volume(id="v", intensities=np.zeros((8, 8, 8), np.float32), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        extract_features(vol, FeatureConfig(shift=0.0, scale=0.0, clip_low=0, clip_high=1))


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
    loss, _ = loss_and_grad(np.zeros(WEIGHT_LEN), features, labels)
    assert loss == pytest.approx(np.log(4.0), rel=1e-12)


def test_gradient_matches_finite_differences(rng):
    for _ in range(20):
        w = rng.normal(scale=0.5, size=WEIGHT_LEN)
        features, labels = random_batch(rng, n=16)
        _, grad = loss_and_grad(w, features, labels)
        fd = finite_diff_grad(w, features, labels)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4


def test_gradient_duplication_invariance(rng):
    w = rng.normal(size=WEIGHT_LEN)
    features, labels = random_batch(rng, n=8)
    _, g1 = loss_and_grad(w, features, labels)
    _, g2 = loss_and_grad(w, np.concatenate([features, features]),
                          np.concatenate([labels, labels]))
    assert np.allclose(g1, g2)


def test_loss_empty_batch():
    with pytest.raises(ValueError):
        loss_and_grad(np.zeros(WEIGHT_LEN), np.zeros((0, 4)), np.zeros(0, dtype=int))


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
        losses.append(loss_and_grad(w, features, labels)[0])
        w = train_epochs(w, features, labels, cfg, start_epoch=epoch)
    losses.append(loss_and_grad(w, features, labels)[0])
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
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=bad)
    with pytest.raises(ValueError):
        TrainConfig.from_dict({**TrainConfig().to_dict(), "learning_rate": bad})


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


@pytest.mark.parametrize("batch_size,batches_per_epoch,epochs,start_epoch", [
    (256, 50, 2, 1), (1, 7, 3, 1), (7, 3, 4, 5), (33, 10, 1, 20), (64, 1, 6, 2),
])
def test_train_epochs_matches_reference_bitwise(rng, batch_size, batches_per_epoch,
                                                epochs, start_epoch):
    features, labels = _site_like_matrix(rng)
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


def test_loss_and_grad_matches_reference_bitwise(rng):
    for n in (1, 2, 31, 256):
        features, labels = _site_like_matrix(rng, n=n)
        w = rng.normal(scale=2.0, size=WEIGHT_LEN)
        loss, grad = loss_and_grad(w, features, labels)
        ref_loss, ref_grad = reference_loss_and_grad(w, features, labels)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("dims", [(16, 16, 16), (18, 16, 16), (16, 20, 20),
                                  (16, 18, 18), (18, 16, 18)])
def test_forward_matches_reference_bitwise(rng, dims):
    # the grid shapes of the shipped site profiles
    for _ in range(10):
        features = np.concatenate([rng.normal(scale=rng.uniform(0.5, 20.0),
                                              size=dims + (N_FEATURES,)),
                                   np.ones(dims + (1,))], axis=-1)
        w = rng.normal(scale=rng.uniform(0.1, 5.0), size=WEIGHT_LEN)
        assert np.array_equal(forward(w, features), reference_forward(w, features))


# ---------------------------------------------------------------------------
# input checks of the SGD step

@pytest.mark.parametrize("bad", [-1, 4, 255])
def test_labels_out_of_range_rejected(rng, bad):
    features, labels = random_batch(rng, n=16)
    labels[5] = bad
    with pytest.raises(ValueError, match="labels out of range"):
        loss_and_grad(np.zeros(WEIGHT_LEN), features, labels)
    cfg = TrainConfig(epochs=1, batches_per_epoch=4, batch_size=16, seed=0)
    with pytest.raises(ValueError, match="labels out of range"):
        train_epochs(np.zeros(WEIGHT_LEN), features, np.full(16, bad), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_weights_rejected(rng, bad):
    features, labels = random_batch(rng, n=16)
    w = np.zeros(WEIGHT_LEN)
    w[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        loss_and_grad(w, features, labels)
    cfg = TrainConfig(epochs=1, batches_per_epoch=2, batch_size=8, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        train_epochs(w, features, labels, cfg)


@pytest.mark.parametrize("epochs,batches_per_epoch", [(1, 1), (1, 3), (3, 2)])
@pytest.mark.parametrize("learning_rate", [1e306, np.inf])
def test_diverging_run_raises_instead_of_returning_non_finite(rng, epochs, batches_per_epoch,
                                                              learning_rate):
    if np.isinf(learning_rate):
        # refused up front, before a first step could overflow
        with pytest.raises(ValueError, match="non-finite"):
            TrainConfig(epochs=epochs, batches_per_epoch=batches_per_epoch,
                        learning_rate=learning_rate)
        return
    # the first step already overflows, so (1, 1) can only be caught on return
    features, labels = random_batch(rng, n=64)
    features[:, :N_FEATURES] *= 1e3
    cfg = TrainConfig(epochs=epochs, batches_per_epoch=batches_per_epoch, batch_size=16,
                      learning_rate=learning_rate, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        train_epochs(rng.normal(size=WEIGHT_LEN), features, labels, cfg)


def test_predict_zero_weights_tie_breaks_to_background():
    vol = Volume(id="v", intensities=np.zeros((6, 6, 6), np.float32), spacing=(1, 1, 1))
    mask = predict(np.zeros(WEIGHT_LEN), vol, FC)
    assert not mask.labels.any()
    assert mask.id == "v"


def test_predict_scale_invariance(rng):
    vol = Volume(id="v", intensities=rng.normal(size=(6, 6, 6)).astype(np.float32),
                 spacing=(1, 1, 1))
    w = rng.normal(size=WEIGHT_LEN)
    assert np.array_equal(predict(w, vol, FC).labels, predict(3.0 * w, vol, FC).labels)


def test_ensemble_single_and_identical_members(rng):
    vol = Volume(id="v", intensities=rng.normal(size=(6, 6, 6)).astype(np.float32),
                 spacing=(1, 1, 1))
    w = rng.normal(size=WEIGHT_LEN)
    single = predict(w, vol, FC)
    p = predict_proba(w, vol, FC)
    one = ensemble_predict([p], [1.0], vol.id)
    three = ensemble_predict([p, p, p], [1.0, 1.0, 1.0], vol.id)
    assert np.array_equal(one.labels, single.labels)
    assert np.array_equal(three.labels, single.labels)
    assert one.id == three.id == "v"


def test_ensemble_order_invariance(rng):
    vol = Volume(id="v", intensities=rng.normal(size=(6, 6, 6)).astype(np.float32),
                 spacing=(1, 1, 1))
    p1 = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    p2 = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    a = ensemble_predict([p1, p2], [1.0, 1.0], vol.id)
    b = ensemble_predict([p2, p1], [1.0, 1.0], vol.id)
    assert np.array_equal(a.labels, b.labels)


def test_ensemble_validation(rng):
    vol = Volume(id="v", intensities=np.zeros((4, 4, 4), np.float32), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        ensemble_predict([], [], vol.id)
    with pytest.raises(ValueError):  # a member's weights are checked where its field is made
        predict_proba(np.zeros(WEIGHT_LEN - 1), vol, FC)
    p = predict_proba(np.zeros(WEIGHT_LEN), vol, FC)
    with pytest.raises(ValueError):
        ensemble_predict([p], [1.0, 2.0], vol.id)


def test_spec_is_two_member_average(rng):
    # Spec(X) = 1/2 p_X + 1/2 p_local, expressed as a weighted member list
    vol = Volume(id="v", intensities=rng.normal(size=(5, 5, 5)).astype(np.float32),
                 spacing=(1, 1, 1))
    px = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    pl = predict_proba(rng.normal(size=WEIGHT_LEN), vol, FC)
    direct = 0.5 * px + 0.5 * pl
    via_members = ensemble_predict([px, pl], [0.5, 0.5], vol.id)
    assert np.array_equal(via_members.labels, np.argmax(direct, axis=-1).astype(np.uint8))


def test_build_training_matrix_orders_by_sample_id(rng):
    s1 = make_sample(sample_id="b", intensities=rng.normal(size=(8, 8, 8)).astype(np.float32))
    s2 = make_sample(sample_id="a", intensities=rng.normal(size=(8, 8, 8)).astype(np.float32))
    x12, y12 = build_training_matrix([s1, s2], FC)
    x21, y21 = build_training_matrix([s2, s1], FC)
    assert np.array_equal(x12, x21)
    assert np.array_equal(y12, y21)
    assert x12.shape == (2 * 8 ** 3, 4)


def test_weight_file_roundtrip(tmp_path, rng):
    w = rng.normal(size=WEIGHT_LEN)
    path = tmp_path / "w.frwt"
    save_weights(path, w)
    assert path.read_bytes()[:4] == b"FRWT"
    assert np.array_equal(load_weights(path), w)


def test_weight_file_corruption(tmp_path, rng):
    path = tmp_path / "w.frwt"
    save_weights(path, rng.normal(size=WEIGHT_LEN))
    raw = bytearray(path.read_bytes())
    raw[0] = 0x58
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_weights(path)
