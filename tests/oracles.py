"""Independent brute-force oracles used to verify production implementations.

These deliberately avoid the library code paths they check: connected
components by explicit flood fill and by ``scipy.ndimage.label``, feature
smoothing by ``scipy.ndimage.uniform_filter``, surface distances by all-pairs
comparison and by ``scipy.ndimage.distance_transform_edt``, gradients by
central finite differences, the federated protocol by a plain in-process
loop over sites, and the SGD step and softmax by the original
straightforward implementation (one draw per batch, fancy-index gathers,
``max``/``sum(axis=-1)`` reductions), which the optimized learner must
match bit for bit, and scenario evaluation by the
original loop that re-extracts features and re-runs every member model for
every ensemble prediction, and tie-averaged ranks by a numpy stable argsort.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Sequence

import numpy as np

from fedrad.config import LESION_CLASSES, N_CLASSES
from fedrad.dataset import Volume
from fedrad.evalrank import scenario_variants
from fedrad.fedproto import aggregate
from fedrad.fingerprint import average_fingerprints, compute_fingerprint, derive_config
from fedrad.learner import (N_FEATURES, FeatureConfig, _check_weights,
                            build_training_matrix, extract_features, forward, loss_and_grad,
                            site_train_seed, train_epochs)
from fedrad.metrics import score_pair
from fedrad.seeding import rng_from

_OFFSETS_26 = [(dz, dy, dx)
               for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
               if (dz, dy, dx) != (0, 0, 0)]


def flood_fill_components(labels: np.ndarray, class_id: int) -> list[int]:
    """Sizes of 26-connected components of one class, by BFS flood fill."""
    mask = labels == class_id
    seen = np.zeros_like(mask, dtype=bool)
    sizes = []
    dims = mask.shape
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        size = 0
        queue = deque([start])
        seen[start] = True
        while queue:
            z, y, x = queue.popleft()
            size += 1
            for dz, dy, dx in _OFFSETS_26:
                nz, ny, nx = z + dz, y + dy, x + dx
                if (0 <= nz < dims[0] and 0 <= ny < dims[1] and 0 <= nx < dims[2]
                        and mask[nz, ny, nx] and not seen[nz, ny, nx]):
                    seen[nz, ny, nx] = True
                    queue.append((nz, ny, nx))
        sizes.append(size)
    return sorted(sizes)


def boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """(k, 3) coordinates of voxels of the set with a 6-neighbor outside it."""
    coords = []
    dims = mask.shape
    for z, y, x in zip(*np.nonzero(mask)):
        on_border = False
        for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            nz, ny, nx = z + dz, y + dy, x + dx
            if not (0 <= nz < dims[0] and 0 <= ny < dims[1] and 0 <= nx < dims[2]):
                on_border = True
                break
            if not mask[nz, ny, nx]:
                on_border = True
                break
        if on_border:
            coords.append((z, y, x))
    return np.asarray(coords, dtype=float)


def all_pairs_min_dists(src: np.ndarray, dst: np.ndarray, spacing) -> np.ndarray:
    """For every src boundary voxel, its distance in mm to the nearest dst voxel."""
    sp = np.asarray(spacing, dtype=float)
    diffs = (src[:, None, :] - dst[None, :, :]) * sp[None, None, :]
    return np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1)


def edt_surface_distances(b_ref: np.ndarray, b_pred: np.ndarray,
                          spacing) -> tuple[np.ndarray, np.ndarray]:
    """Distances in mm from each reference boundary voxel to the nearest
    prediction boundary voxel and back, read off scipy's Euclidean distance
    transform of each boundary's complement; infinite when the other
    boundary is empty."""
    from scipy import ndimage
    if b_ref.any() and b_pred.any():
        return (ndimage.distance_transform_edt(~b_pred, sampling=spacing)[b_ref],
                ndimage.distance_transform_edt(~b_ref, sampling=spacing)[b_pred])
    return np.full(int(b_ref.sum()), np.inf), np.full(int(b_pred.sum()), np.inf)


def brute_dsc(pred: np.ndarray, ref: np.ndarray, class_id: int) -> float:
    p = pred == class_id
    r = ref == class_id
    inter = 0
    for idx in zip(*np.nonzero(p)):
        if r[idx]:
            inter += 1
    return 2.0 * inter / (int(p.sum()) + int(r.sum()))


def brute_nsd(pred, ref, class_id, spacing, tau) -> float:
    bp = boundary_voxels(pred == class_id)
    br = boundary_voxels(ref == class_id)
    close = 0
    if len(br):
        d = (all_pairs_min_dists(br, bp, spacing) if len(bp)
             else np.full(len(br), np.inf))
        close += int((d <= tau).sum())
    if len(bp):
        d = (all_pairs_min_dists(bp, br, spacing) if len(br)
             else np.full(len(bp), np.inf))
        close += int((d <= tau).sum())
    return close / (len(bp) + len(br))


def brute_hsd(pred, ref, class_id, spacing) -> float:
    bp = boundary_voxels(pred == class_id)
    br = boundary_voxels(ref == class_id)
    d1 = all_pairs_min_dists(br, bp, spacing).max()
    d2 = all_pairs_min_dists(bp, br, spacing).max()
    return float(max(d1, d2))


def brute_nave(pred, ref, class_id) -> float:
    n_p = 0
    n_r = 0
    for v in pred.ravel():
        n_p += v == class_id
    for v in ref.ravel():
        n_r += v == class_id
    return abs(int(n_p) - int(n_r)) / int(n_r)


def finite_diff_grad(w, features, labels, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the batch loss."""
    grad = np.zeros_like(w)
    for k in range(len(w)):
        wp = w.copy()
        wp[k] += step
        lp, _ = loss_and_grad(wp, features, labels)
        wm = w.copy()
        wm[k] -= step
        lm, _ = loss_and_grad(wm, features, labels)
        grad[k] = (lp - lm) / (2 * step)
    return grad


def sequential_federated_reference(datasets, train_config, experiment_seed, rounds):
    """Single-process reference: loop sites in order and apply the update rule.

    Shares the training and fingerprint primitives with production code but
    none of the protocol machinery (no transport, no server, no simulator).
    """
    site_ids = sorted(datasets)
    fps = [compute_fingerprint(datasets[s].train) for s in site_ids]
    fp_avg = average_fingerprints(fps)
    derived = derive_config(fp_avg, experiment_seed)
    w = derived.init_weights.copy()
    matrices = {s: build_training_matrix(datasets[s].train, derived.feature_config)
                for s in site_ids}
    cfgs = {s: replace(train_config, epochs=1, seed=site_train_seed(train_config.seed, s))
            for s in site_ids}
    for t in range(1, rounds + 1):
        deltas = {}
        for s in site_ids:
            trained = train_epochs(w, matrices[s][0], matrices[s][1], cfgs[s], start_epoch=t)
            deltas[s] = trained - w
        w = aggregate(w, deltas)
    return w, derived


def predict_proba(w, volume: Volume, config: FeatureConfig) -> np.ndarray:
    """One model's probability field on ``volume``, from the features of the
    volume alone: the field :func:`fedrad.learner.predict_members` must give
    for that member byte for byte."""
    return forward(w, extract_features(volume, config))


def reference_forward(w, features):
    """Softmax class probabilities with ``axis=-1`` reductions."""
    wm = np.asarray(w, dtype=np.float64).reshape(N_CLASSES, N_FEATURES + 1)
    logits = features @ wm.T
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def reference_loss_and_grad(w, features, labels):
    n = features.shape[0]
    probs = reference_forward(w, features)
    eps = np.finfo(np.float64).tiny
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + eps)))
    probs[np.arange(n), labels] -= 1.0
    grad = (probs.T @ features) / n
    return loss, grad.reshape(-1)


def reference_train_epochs(w, features, labels, config, start_epoch=1):
    """Mini-batch SGD drawing each batch's indices with its own call."""
    w = np.asarray(w, dtype=np.float64).copy()
    n = features.shape[0]
    for e in range(start_epoch, start_epoch + config.epochs):
        rng = rng_from(config.seed, "epoch", e)
        for _ in range(config.batches_per_epoch):
            idx = rng.integers(0, n, size=config.batch_size)
            _, grad = reference_loss_and_grad(w, features[idx], labels[idx])
            w = w - config.learning_rate * grad
    return w


def padded_gradient_magnitude(x: np.ndarray) -> np.ndarray:
    """Central-difference gradient length over an edge-padded copy."""
    padded = np.pad(x, 1, mode="edge")
    gz = (padded[2:, 1:-1, 1:-1] - padded[:-2, 1:-1, 1:-1]) * 0.5
    gy = (padded[1:-1, 2:, 1:-1] - padded[1:-1, :-2, 1:-1]) * 0.5
    gx = (padded[1:-1, 1:-1, 2:] - padded[1:-1, 1:-1, :-2]) * 0.5
    return np.sqrt(gz * gz + gy * gy + gx * gx)


def scipy_extract_features(volume: Volume, config: FeatureConfig) -> np.ndarray:
    """Per-voxel features with ``scipy.ndimage.uniform_filter`` smoothing."""
    from scipy import ndimage

    x = np.clip(np.asarray(volume.intensities, dtype=np.float64),
                config.clip_low, config.clip_high)
    feats = np.empty(x.shape + (N_FEATURES + 1,), dtype=np.float64)
    feats[..., 0] = (x - config.shift) / config.scale
    feats[..., 1] = (ndimage.uniform_filter(x, size=3, mode="nearest") - config.shift) / config.scale
    feats[..., 2] = padded_gradient_magnitude(x) / config.scale
    feats[..., 3] = 1.0
    return feats


def ndimage_component_sizes(mask: np.ndarray) -> list[int]:
    """Voxel counts of the 26-connected components, in ``ndimage.label``'s order."""
    from scipy import ndimage

    labeled, n = ndimage.label(mask, structure=np.ones((3, 3, 3)))
    return np.bincount(labeled.ravel(), minlength=n + 1)[1:].tolist()


def reference_ensemble_predict(weights_list: Sequence[np.ndarray], volume: Volume,
                               config: FeatureConfig,
                               configs: Sequence[FeatureConfig] | None = None,
                               member_weights: Sequence[float] | None = None) -> np.ndarray:
    """The label grid that is the argmax of the weighted average of member
    probability fields; ties break toward the lower class index.

    ``configs`` optionally gives each member its own feature normalization
    (models trained in different federations); by default all members share
    ``config``. ``member_weights`` defaults to uniform and is normalized.
    """
    if len(weights_list) == 0:
        raise ValueError("ensemble needs at least one member")
    for w in weights_list:
        _check_weights(w)
    if configs is not None and len(configs) != len(weights_list):
        raise ValueError("configs must match the number of members")
    if member_weights is None:
        mw = np.full(len(weights_list), 1.0 / len(weights_list))
    else:
        mw = np.asarray(member_weights, dtype=np.float64)
        if mw.shape != (len(weights_list),) or mw.min() < 0 or mw.sum() <= 0:
            raise ValueError("invalid member weights")
        mw = mw / mw.sum()

    cache: dict[FeatureConfig, np.ndarray] = {}
    fields = []
    for k, w in enumerate(weights_list):
        fc = configs[k] if configs is not None else config
        if fc not in cache:
            cache[fc] = extract_features(volume, fc)
        fields.append(forward(w, cache[fc]))
    return reference_ensemble_labels(fields, mw)


def reference_ensemble_labels(fields: Sequence[np.ndarray], mw: np.ndarray) -> np.ndarray:
    """``np.argmax`` over the last axis of the row-major sum of ``mw[k] *
    fields[k]``, with ``mw`` already normalized."""
    acc = None
    for k, probs in enumerate(fields):
        acc = mw[k] * probs if acc is None else acc + mw[k] * probs
    return np.argmax(acc, axis=-1).astype(np.uint8)


def reference_predictions(scenario, datasets, registry):
    """The original loop: one weights-based ensemble prediction per
    (variant, sample), members recomputed every time. Yields
    ``(variant label, site, sample, prediction)``."""
    roster = sorted(datasets)
    for eval_site in roster:
        test = datasets[eval_site].test
        for label, members in scenario_variants(scenario, roster, eval_site):
            models = [registry[name] for name, _ in members]
            weights = [m.weights for m in models]
            configs = [m.feature_config for m in models]
            mweights = [mw for _, mw in members]
            for sample in sorted(test, key=lambda s: s.sample_id):
                pred = reference_ensemble_predict(weights, sample.volume, configs[0],
                                                  configs=configs, member_weights=mweights)
                yield label, eval_site, sample, pred


def reference_scenario_records(scenario, datasets, registry):
    """Scenario records of :func:`reference_predictions`, each prediction
    scored per lesion class."""
    records = {}
    for label, eval_site, sample, pred in reference_predictions(scenario, datasets, registry):
        recs = records.setdefault((label, eval_site), [])
        for class_id in LESION_CLASSES:
            recs.extend(score_pair(pred, sample.labels, sample.sample_id, class_id,
                                   sample.volume.spacing))
    return records


def reference_average_ranks(x) -> np.ndarray:
    """Tie-averaged 1-based ranks by numpy: a stable argsort, tie groups where
    adjacent sorted values differ, each group's mean position repeated over
    it. Any NaN makes every rank NaN, as in ``scipy.stats.rankdata``."""
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
