"""Classification metrics and the rank-2 projection used for visualization.

The projection maps the mean-centered points onto their top two right
singular vectors. A deterministic sign convention keeps exported coordinates
stable.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractError


class ConfusionMatrix:
    """k x k count matrix; rows are ground truth, columns are predictions."""

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ContractError(f"confusion matrix must be square, got {counts.shape}")
        if np.any(counts < 0):
            raise ContractError("confusion counts must be non-negative")
        self.counts = counts

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(truth, pred, num_classes: int) -> ConfusionMatrix:
    """Tally (truth, prediction) pairs; truth 0 means unlabeled and is skipped."""
    truth = np.asarray(truth, dtype=np.int64).reshape(-1)
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    if truth.shape != pred.shape:
        raise ContractError(
            f"truth ({truth.size}) and prediction ({pred.size}) lengths differ")
    keep = truth > 0
    truth, pred = truth[keep], pred[keep]
    if truth.size and (truth.max() > num_classes):
        raise ContractError(f"truth label {truth.max()} outside 1..{num_classes}")
    if truth.size and (pred.min() < 1 or pred.max() > num_classes):
        raise ContractError("prediction label outside 1..k")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (truth - 1, pred - 1), 1)
    return ConfusionMatrix(counts)


def oa_aa_kappa(cm: ConfusionMatrix):
    """Overall accuracy, mean per-class recall, and Cohen's kappa.

    Classes with no truth samples are excluded from the average accuracy with
    a warning; kappa degenerates to NaN when chance agreement is exactly 1.
    """
    counts = cm.counts.astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise ContractError("confusion matrix is empty")
    oa = np.trace(counts) / total
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    present = row_sums > 0
    if not np.all(present):
        missing = np.flatnonzero(~present) + 1
        warnings.warn(f"classes {missing.tolist()} have no truth samples; "
                      "excluded from average accuracy")
    recalls = np.diag(counts)[present] / row_sums[present]
    aa = float(recalls.mean())
    p_e = float((row_sums * col_sums).sum()) / total ** 2
    if p_e >= 1.0:
        warnings.warn("chance agreement is 1; kappa is undefined")
        kappa = float("nan")
    else:
        kappa = (oa - p_e) / (1.0 - p_e)
    return float(oa), aa, float(kappa)


# -- rank-2 SVD projection ----------------------------------------------------

def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = v.copy()
    for j in range(out.shape[1]):
        anchor = np.argmax(np.abs(out[:, j]))
        if out[anchor, j] < 0:
            out[:, j] = -out[:, j]
    return out


def svd_project_2d(points: np.ndarray) -> np.ndarray:
    """Mean-center and project onto the top-2 right singular directions."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] < 2:
        raise ContractError(
            f"projection needs at least a 2x2 point matrix, got {points.shape}")
    centered = points - points.mean(axis=0)
    if not np.any(centered):
        raise ContractError("projection input has rank 0 (all points identical)")
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ _fix_signs(vt[:2].T)


# -- cross-domain overlap -------------------------------------------------------

def domain_overlap_score(proj_source: np.ndarray, labels_source: np.ndarray,
                         proj_target: np.ndarray, labels_target: np.ndarray) -> dict:
    """Per-class centroid separation in pooled-standard-deviation units.

    Points from both domains are projected beforehand (jointly, so the axes
    are comparable); the score for a class is the distance between its two
    domain centroids divided by the pooled standard deviation of the point
    projections along the centroid-to-centroid direction. Lower means the
    domains overlap more. Classes present in only one domain are skipped with
    a warning.
    """
    labels_source = np.asarray(labels_source).reshape(-1)
    labels_target = np.asarray(labels_target).reshape(-1)
    classes_s = set(np.unique(labels_source[labels_source > 0]).tolist())
    classes_t = set(np.unique(labels_target[labels_target > 0]).tolist())
    skipped = classes_s ^ classes_t
    if skipped:
        warnings.warn(f"classes {sorted(skipped)} missing from one domain; skipped")
    scores = {}
    for cls in sorted(classes_s & classes_t):
        ps = proj_source[labels_source == cls]
        pt = proj_target[labels_target == cls]
        diff = pt.mean(axis=0) - ps.mean(axis=0)
        dist = float(np.linalg.norm(diff))
        if dist < 1e-15:
            scores[int(cls)] = 0.0
            continue
        direction = diff / dist
        xs = ps @ direction
        xt = pt @ direction
        ns, nt = xs.size, xt.size
        pooled_var = ((ns - 1) * xs.var(ddof=1) + (nt - 1) * xt.var(ddof=1)) / \
            max(ns + nt - 2, 1)
        pooled = float(np.sqrt(pooled_var))
        scores[int(cls)] = dist / pooled if pooled > 0 else float("inf")
    return scores
