"""Shared numerical kernels.

All kernels are pure functions over numpy arrays: cosine similarity, PCA
via SVD of the centered matrix, seeded randomized truncated SVD, Spearman
rank correlation with average-rank tie handling, and a one-feature
logistic regression fitted by damped Newton (IRLS) steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ValidationError
from .graph import DenseMatrix


class ZeroVectorWarning(UserWarning):
    """Cosine similarity saw an all-zero vector and returned 0."""


def cosine_similarity(u, v) -> float:
    """u.v / (|u||v|); an all-zero vector yields 0 with a warning.

    Zero vectors come from unattested concepts, which should look maximally
    unrelated rather than raise.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValidationError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        warnings.warn("cosine of a zero vector is defined as 0", ZeroVectorWarning)
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def pca_reduce(m: DenseMatrix, d: int) -> DenseMatrix:
    """Project onto the top-d principal components of the centered input.

    Components are ordered by decreasing explained variance with a fixed
    sign convention (largest-magnitude loading positive), so the result is
    deterministic. If d exceeds the input's rank, the trailing components
    are null-space directions with zero variance and the result's meta
    carries rank_deficient/rank.
    """
    x = m.values
    n, dim = x.shape
    if d < 1 or d > min(n, dim):
        raise ValidationError(f"target dimension {d} not in [1, min(n={n}, D={dim})]")
    centered = x - x.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    # sign convention: per component, largest-|loading| entry positive
    for k in range(len(s)):
        pivot = np.argmax(np.abs(vt[k]))
        if vt[k, pivot] < 0:
            vt[k] = -vt[k]
            u[:, k] = -u[:, k]
    scores = u[:, :d] * s[:d]
    meta = {}
    tol = max(n, dim) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
    rank = int(np.sum(s > tol))
    if d > rank:
        meta = {"rank_deficient": True, "rank": rank}
    return DenseMatrix(values=scores, row_labels=m.row_labels, meta=meta)


def randomized_tsvd(m, d: int, seed: int, n_iter: int = 7, oversample: int = 10):
    """Top-d singular triplets of a (sparse) matrix via a seeded range finder.

    Returns (U, S) with U n x d (orthonormal columns) and S non-increasing.
    The Gaussian test matrix is drawn from a generator seeded with `seed`,
    so identical seeds give bit-identical results. Subspace (power)
    iterations with QR re-orthonormalization keep small cases accurate to
    dense-SVD levels.
    """
    if d <= 0:
        raise ValidationError(f"rank must be positive, got {d}")
    if scipy.sparse.issparse(m):
        n_rows, n_cols = m.shape
    else:
        m = np.asarray(m, dtype=float)
        n_rows, n_cols = m.shape
    if d > min(n_rows, n_cols):
        raise ValidationError(f"rank {d} exceeds min matrix dimension {min(n_rows, n_cols)}")

    rng = np.random.default_rng(seed)
    k = min(d + oversample, n_cols)
    omega = rng.standard_normal((n_cols, k))
    y = m @ omega
    q, _ = np.linalg.qr(y)
    for _ in range(n_iter):
        z = m.T @ q
        q, _ = np.linalg.qr(z)
        y = m @ q
        q, _ = np.linalg.qr(y)
    b = np.asarray((m.T @ q).T)  # == q.T @ m, but stays dense for sparse m
    ub, s, _ = np.linalg.svd(b, full_matrices=False)
    u = q @ ub[:, :d]
    return u, s[:d]


def _average_ranks(xs: np.ndarray) -> np.ndarray:
    """1-based ranks; ties share the average of their positions."""
    _, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    # a run of c tied values ending at 1-based position e averages e - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman_rho(xs, ys) -> float:
    """Spearman correlation as the Pearson correlation of average ranks.

    The Pearson-of-ranks form stays exact under ties, unlike the
    6*sum(d^2) shortcut.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValidationError("inputs must be 1-D and of equal length")
    if len(xs) < 3:
        raise ValidationError(f"need at least 3 observations, got {len(xs)}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValidationError("inputs must be finite")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValidationError("degenerate input: all values tied")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry))
    return float(np.clip(rho, -1.0, 1.0))


@dataclass(frozen=True)
class LogisticModel:
    """One-feature logistic classifier: predict 1 iff sigmoid(w*x + b) >= threshold."""

    weight: float
    bias: float
    threshold: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.weight) and np.isfinite(self.bias)):
            raise ValidationError("weight and bias must be finite")

    def predict_proba(self, features) -> np.ndarray:
        z = self.weight * np.asarray(features, dtype=float) + self.bias
        return _sigmoid(z)

    def predict(self, features) -> np.ndarray:
        return (self.predict_proba(features) >= self.threshold).astype(int)

    def accuracy(self, features, labels) -> float:
        labels = np.asarray(labels, dtype=int)
        return float(np.mean(self.predict(features) == labels))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_log_loss(weight: float, bias: float, features, labels) -> float:
    """Mean negative log-likelihood, computed via the numerically safe log1p form."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    z = weight * x + bias
    # log(1 + exp(-|z|)) + max(z, 0) - y*z
    return float(np.mean(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0) - y * z))


def logistic_gradient(weight: float, bias: float, features, labels):
    """Gradient of the mean log-loss with respect to (weight, bias)."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    err = _sigmoid(weight * x + bias) - y
    return float(np.mean(err * x)), float(np.mean(err))


# smallest fraction of a Newton step tried before the fit gives up on descent
_MIN_STEP = 2.0 ** -30
# relative rounding error of logistic_log_loss, with a margin: a step whose
# predicted decrease is below this share of the loss cannot be ranked by it
_LOSS_RESOLUTION = 1e-14


def fit_logistic_1d(
    features,
    labels,
    max_iter: int = 50,
    grad_tol: float = 1e-6,
) -> LogisticModel:
    """Fit the one-feature model by damped Newton (IRLS) steps on the mean log-loss.

    Each iteration solves H d = g for the gradient g and the 2x2 Hessian
    H = mean(p(1-p) [x^2, x; x, 1]), then halves the step d until the loss
    does not increase. The fit stops when the gradient norm drops below
    grad_tol, at max_iter iterations (one gradient evaluation each), or
    when even 2^-30 d raises the loss. Near the optimum, where a full
    step's predicted decrease g.d/2 is below the loss's rounding error,
    comparing losses carries no information and the full step is taken,
    so a tight grad_tol is reached instead of stalling at about 1e-8 in
    the parameters.

    A constant feature makes H singular; the step is then the
    minimum-norm least-squares solution, which only moves w*x + b. With
    balanced labels the gradient is 0 at the start, so the fit returns
    weight = bias = 0, which predicts 1 everywhere (accuracy 0.5).

    Separable data has no finite optimum: the loss and the gradient fall
    towards 0 as the weight grows. The fit stops once the gradient norm is
    below grad_tol, with finite parameters that separate the classes
    (accuracy 1).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("features and labels must be 1-D and of equal length")
    if not np.all(np.isfinite(x)):
        raise ValidationError("features must be finite")
    classes = set(np.unique(y))
    if not classes <= {0, 1}:
        raise ValidationError(f"labels must be 0/1, got {sorted(classes)}")
    if classes != {0, 1}:
        raise ValidationError("both classes must be present")

    w, b = 0.0, 0.0
    loss = logistic_log_loss(w, b, x, y)
    for _ in range(max_iter):
        gw, gb = logistic_gradient(w, b, x, y)
        if np.hypot(gw, gb) < grad_tol:
            break
        # p(1-p) from one exp of -|z|, accurate in both tails
        e = np.exp(-np.abs(w * x + b))
        s = e / (1.0 + e) ** 2
        sx = s * x
        hessian = np.array([[np.mean(sx * x), np.mean(sx)], [np.mean(sx), np.mean(s)]])
        dw, db = map(float, np.linalg.lstsq(hessian, np.array([gw, gb]), rcond=None)[0])
        resolvable = gw * dw + gb * db > _LOSS_RESOLUTION * loss
        step = 1.0
        while True:
            trial = logistic_log_loss(w - step * dw, b - step * db, x, y)
            if trial <= loss or not resolvable:
                break
            step /= 2.0
            if step < _MIN_STEP:
                return LogisticModel(weight=w, bias=b)
        w, b, loss = w - step * dw, b - step * db, trial
    return LogisticModel(weight=w, bias=b)
