"""Exact t-SNE projection to 2-D and scatter export (TSV + SVG).

Plotted concept subsets are small (tens of points), so the quadratic
exact algorithm is used rather than Barnes-Hut. Everything is
deterministic given the seed, at any OpenBLAS thread count: the distance
and gradient products run on one BLAS thread. The SVG is assembled by
hand so output files are byte-stable. t-SNE reads its
points from a DenseMatrix and returns plain arrays: the n x 2
coordinates and the KL history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, ValidationError, check_seed
from .runtime import one_blas_thread
from .tsv import write_lines

EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
LEARNING_RATE = 10.0
INIT_SCALE = 1e-4
PERPLEXITY_TOL = 1e-5
PERPLEXITY_MAX_ITER = 200
SVG_WIDTH = 800
SVG_HEIGHT = 600
_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """t-SNE's input point set: one row of finite values per point."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValidationError("DenseMatrix requires a 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("DenseMatrix entries must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]


def squared_distances(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def _row_entropy_probs(dist_row: np.ndarray, beta: float):
    logits = -beta * dist_row
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    h = -np.sum(p * np.log2(np.maximum(p, _EPS)))
    return h, p


def conditional_gaussians(dist_sq: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-point Gaussian conditionals calibrated to the target perplexity.

    Bisection on the precision beta, at most PERPLEXITY_MAX_ITER steps,
    until the row's log2-perplexity is within PERPLEXITY_TOL of
    log2(target); rows whose entropy cannot move (e.g. all neighbors
    equidistant) keep their limit distribution.
    """
    n = dist_sq.shape[0]
    target = math.log2(perplexity)
    p_cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(dist_sq[i], i)
        beta, beta_lo, beta_hi = 1.0, 0.0, math.inf
        h, p = _row_entropy_probs(row, beta)
        for _ in range(PERPLEXITY_MAX_ITER):
            if abs(h - target) < PERPLEXITY_TOL:
                break
            if h > target:
                beta_lo = beta
                beta = beta * 2.0 if beta_hi == math.inf else (beta + beta_hi) / 2.0
            else:
                beta_hi = beta
                beta = (beta + beta_lo) / 2.0
            h, p = _row_entropy_probs(row, beta)
        p_cond[i, np.arange(n) != i] = p
    return p_cond


def joint_probabilities(p_cond: np.ndarray) -> np.ndarray:
    n = p_cond.shape[0]
    p = (p_cond + p_cond.T) / (2.0 * n)
    return np.maximum(p, _EPS)


def _student_t_affinities(y: np.ndarray):
    num = 1.0 / (1.0 + squared_distances(y))
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), _EPS)
    return q, num


def kl_divergence(p: np.ndarray, y: np.ndarray) -> float:
    q, _ = _student_t_affinities(y)
    return float(np.sum(p * np.log(p / q)))


def tsne_project(
    points: DenseMatrix,
    perplexity: float = 15.0,
    iterations: int = 1000,
    seed: int = 0,
    record_kl: bool = False,
) -> tuple:
    """(coords, kl_history): exact t-SNE with early exaggeration and momentum.

    `coords` is the n x 2 array of points, deterministic per seed at any
    OpenBLAS thread count (Gaussian init with sigma 1e-4). `kl_history`
    holds the per-iteration KL divergence against the unexaggerated target
    with record_kl, else ().
    """
    x = points.values
    n = x.shape[0]
    if n < 3:
        raise InsufficientDataError(f"need at least 3 points, got {n}")
    if not (0 < perplexity < n):
        raise ValidationError(f"perplexity must be in (0, n={n}), got {perplexity}")
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    check_seed(seed)

    # one thread: the distance and gradient products then sum in one order
    with one_blas_thread():
        p = joint_probabilities(conditional_gaussians(squared_distances(x), perplexity))

        rng = np.random.default_rng(seed)
        y = rng.standard_normal((n, 2)) * INIT_SCALE
        update = np.zeros_like(y)
        kl_history = []
        for t in range(iterations):
            target = p * EXAGGERATION if t < EXAGGERATION_ITERS else p
            q, num = _student_t_affinities(y)
            coeff = (target - q) * num
            grad = 4.0 * (coeff.sum(axis=1)[:, None] * y - coeff @ y)
            momentum = MOMENTUM_EARLY if t < EXAGGERATION_ITERS else MOMENTUM_LATE
            update = momentum * update - LEARNING_RATE * grad
            y = y + update
            y = y - y.mean(axis=0)
            if record_kl:
                kl_history.append(kl_divergence(p, y))

    return y, tuple(kl_history)


def export_scatter(coords, labels, out) -> tuple:
    """Write <out>.tsv and a labeled <out>.svg scatter of n x 2 coords; returns both paths."""
    coords = np.asarray(coords, dtype=float)
    labels = list(labels)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValidationError("coordinates must be n x 2")
    if len(labels) != len(coords):
        raise ValidationError(f"{len(labels)} labels for {len(coords)} points")
    for label in labels:
        if not label or "\t" in label or "\n" in label:
            raise ValidationError(f"bad concept label {label!r}")

    out = Path(out)
    tsv_path = out.with_name(out.name + ".tsv")
    svg_path = out.with_name(out.name + ".svg")

    lines = (f"{label}\t{px:.6f}\t{py:.6f}" for label, (px, py) in zip(labels, coords))
    write_lines(tsv_path, "CONCEPT\tX\tY", lines)
    svg_path.write_text(_scatter_svg(coords, labels), encoding="utf-8")
    return tsv_path, svg_path


def _scatter_svg(points: np.ndarray, labels) -> str:
    width, height = SVG_WIDTH, SVG_HEIGHT
    xs, ys = points[:, 0], points[:, 1]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_pad = 0.05 * ((x_hi - x_lo) or 1.0)
    y_pad = 0.05 * ((y_hi - y_lo) or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v: float) -> float:
        return (v - x_lo) / (x_hi - x_lo) * width

    def sy(v: float) -> float:
        return height - (v - y_lo) / (y_hi - y_lo) * height

    def esc(s: str) -> str:
        return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for label, px, py in zip(labels, xs, ys):
        cx, cy = sx(float(px)), sy(float(py))
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="steelblue"/>')
        parts.append(
            f'<text x="{cx + 5:.2f}" y="{cy - 5:.2f}" font-size="10" '
            f'font-family="sans-serif">{esc(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
