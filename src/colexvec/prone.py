"""ProNE embedding: shifted log-probability factorization plus spectral propagation.

Stage one factorizes a sparse matrix of shifted log transition
probabilities with a seeded randomized truncated SVD, whose power steps are
normalised by LU and whose basis is one QR. It runs on one thread of both
numpy's and scipy's OpenBLAS, so ProNE's bytes do not depend on the BLAS
thread count. Stage two smooths the base embedding with a Gaussian
band-pass graph filter expanded in a Chebyshev-style recurrence whose
coefficients are modified Bessel values.

Both stages return plain arrays in graph rows: row i of the shifted matrix,
of the base embedding and of the propagated one belongs to `g.order[i]`.
Only `prone_embed` names rows, via `embeddings.graph_embedding`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .embeddings import EmbeddingSet, graph_embedding
from .errors import GraphTooSmallError, NoEdgesError, ValidationError, check_seed
from .graph import ColexGraph
from .numerics import randomized_tsvd
from .runtime import config_digest

_BESSEL_TERMS = 30


@dataclass(frozen=True)
class ProneConfig:
    dim: int = 128
    step: int = 10
    mu: float = 0.2
    theta: float = 0.5
    exponent: float = 0.75
    shift: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("mu", "theta", "shift"):  # the exponent range check rejects nan and inf
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.step < 1:
            raise ValidationError("step must be >= 1")
        if not (0.0 < self.exponent <= 1.0):
            raise ValidationError("exponent must be in (0, 1]")
        if self.theta <= 0:
            raise ValidationError("theta must be positive")
        if self.shift < 1.0:
            raise ValidationError("shift must be >= 1")
        check_seed(self.seed)


def bessel_i(k: int, x: float) -> float:
    """Modified Bessel function of the first kind by series expansion.

    Its _BESSEL_TERMS = 30 terms are exact to ~1e-12 for x <= 5, which
    covers any sensible filter bandwidth.
    """
    if k < 0:
        raise ValidationError("order must be non-negative")
    half = x / 2.0
    total = 0.0
    for m in range(_BESSEL_TERMS):
        total += half ** (2 * m + k) / (math.factorial(m) * math.factorial(m + k))
    return total


def build_shifted_matrix(g: ColexGraph, cfg: ProneConfig) -> sp.csr_array:
    """Sparse matrix M_ij = ln(P_ij) - ln(shift * q_j) on the adjacency pattern.

    P is the row-normalized weighted adjacency and q is the weighted-degree
    distribution raised to the negative-sampling exponent. Isolated rows
    stay empty; log-shifted entries may be negative, which the downstream
    SVD handles without clipping.
    """
    if g.directed:
        raise ValidationError("build_shifted_matrix needs an undirected graph")
    adj = g.adjacency
    # family counts are whole numbers, so every degree is exact in any order
    degree = adj.sum(axis=1)
    powered = degree**cfg.exponent  # the exponent is positive, so 0 stays 0
    q = powered / powered.sum()

    row_sum = np.repeat(degree, np.diff(adj.indptr))
    values = np.log(adj.data / row_sum) - np.log(cfg.shift * q[adj.indices])
    return sp.csr_array((values, adj.indices, adj.indptr), shape=adj.shape)


def factorize(m, cfg: ProneConfig) -> np.ndarray:
    """Base embedding U * sqrt(S) from the seeded randomized truncated SVD, in m's rows."""
    u, s = randomized_tsvd(m, cfg.dim, cfg.seed)
    return u * np.sqrt(s)


def _l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def spectral_propagate(g: ColexGraph, base: np.ndarray, cfg: ProneConfig) -> np.ndarray:
    """Smooth the base embedding with the band-pass Chebyshev filter.

    With A-hat = A + I row-normalized to DA, L = I - DA and M = L - mu*I,
    the term recurrence is X0 = base, X1 = M(M X0)/2 - X0,
    X_{k+1} = M(M X_k) - 2 X_k - X_{k-1}; the accumulated filter weights
    term k by (-1)^k c_k with c_0 = I_0(theta) and c_k = 2 I_k(theta).
    The output is the row-wise L2 normalization of DA (base - filter);
    step = 1 short-circuits to the normalized base. `base` and the result
    are (n_nodes, dim) arrays whose row i belongs to `g.order[i]`.
    """
    if g.directed:
        raise ValidationError("spectral_propagate needs an undirected graph")
    x0 = np.asarray(base, dtype=float)
    if x0.shape != (g.n_nodes, cfg.dim):
        raise ValidationError(f"base has shape {x0.shape}, expected {(g.n_nodes, cfg.dim)}")
    if cfg.step == 1:
        return _l2_normalize_rows(x0)
    n = g.n_nodes
    a_hat = g.adjacency + sp.eye_array(n, format="csr")
    inv_rows = 1.0 / np.asarray(a_hat.sum(axis=1)).ravel()
    da = sp.diags_array(inv_rows) @ a_hat
    m = sp.eye_array(n, format="csr") * (1.0 - cfg.mu) - da

    x1 = 0.5 * (m @ (m @ x0)) - x0
    filt = bessel_i(0, cfg.theta) * x0 - 2.0 * bessel_i(1, cfg.theta) * x1
    prev, cur = x0, x1
    for k in range(2, cfg.step):
        nxt = (m @ (m @ cur)) - 2.0 * cur - prev
        sign = 1.0 if k % 2 == 0 else -1.0
        filt += sign * 2.0 * bessel_i(k, cfg.theta) * nxt
        prev, cur = cur, nxt
    return _l2_normalize_rows(da @ (x0 - filt))


def prone_embed(g: ColexGraph, cfg: ProneConfig) -> EmbeddingSet:
    """Full ProNE pipeline: shifted matrix, factorization, propagation.

    The factorization has at most one dimension per node, so a dim above
    the graph's node count fails as a GraphTooSmallError naming both.
    """
    if g.n_edges == 0:
        raise NoEdgesError("no edges to embed")
    if cfg.dim > g.n_nodes:
        raise GraphTooSmallError(f"dim {cfg.dim} exceeds the graph's {g.n_nodes} nodes")
    shifted = build_shifted_matrix(g, cfg)
    propagated = spectral_propagate(g, factorize(shifted, cfg), cfg)
    covered = np.diff(g.adjacency.indptr) > 0
    provenance = {
        "method": "prone",
        "seed": cfg.seed,
        "config_digest": config_digest(vars(cfg) | {"__config__": "prone"}),
    }
    return graph_embedding(g, covered, propagated[covered], provenance)
