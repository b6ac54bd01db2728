import math

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import colexvec.numerics as numerics
from colexvec.errors import ValidationError
from colexvec.graph import DenseMatrix
from colexvec.numerics import (
    ZeroVectorWarning,
    cosine_similarity,
    fit_logistic_1d,
    logistic_gradient,
    logistic_log_loss,
    pca_reduce,
    randomized_tsvd,
    spearman_rho,
)

# ---------------------------------------------------------------------------
# cosine


def test_cosine_orthogonal_parallel_and_hand_value():
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([2, 2], [1, 1]) == pytest.approx(1.0)
    assert cosine_similarity([1, 2, 3], [3, 2, 1]) == pytest.approx(10 / 14)


def test_cosine_zero_vector_warns_and_returns_zero():
    with pytest.warns(ZeroVectorWarning):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValidationError):
        cosine_similarity([1, 2], [1, 2, 3])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    st.floats(min_value=0.1, max_value=10),
)
def test_cosine_scaling_property(vec, c):
    x = np.array(vec)
    if np.linalg.norm(x) < 1e-6:
        return
    assert cosine_similarity(x, c * x) == pytest.approx(1.0)
    assert cosine_similarity(x, -c * x) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# PCA


def test_pca_line_example():
    m = DenseMatrix(values=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    out = pca_reduce(m, 1)
    expected = np.array([-math.sqrt(2), 0.0, math.sqrt(2)])
    assert np.allclose(out.values[:, 0], expected) or np.allclose(out.values[:, 0], -expected)


def test_pca_full_dim_preserves_distances():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 4))
    out = pca_reduce(DenseMatrix(values=x), 4).values
    orig = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    proj = np.linalg.norm(out[:, None] - out[None, :], axis=2)
    assert np.max(np.abs(orig - proj)) < 1e-9


def test_pca_identical_rows_zero_output():
    x = np.tile([1.0, 2.0, 3.0], (5, 1))
    out = pca_reduce(DenseMatrix(values=x), 2)
    assert np.max(np.abs(out.values)) < 1e-12
    assert out.meta.get("rank_deficient") is True


def test_pca_columns_uncorrelated():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 6)) @ rng.standard_normal((6, 6))
    out = pca_reduce(DenseMatrix(values=x), 4).values
    cov = np.cov(out, rowvar=False)
    leading = cov[0, 0]
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 1e-9 * leading


def test_pca_sign_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 3))
    a = pca_reduce(DenseMatrix(values=x), 3).values
    b = pca_reduce(DenseMatrix(values=x.copy()), 3).values
    assert np.array_equal(a, b)


def test_pca_bad_dimension():
    m = DenseMatrix(values=np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        pca_reduce(m, 3)


# ---------------------------------------------------------------------------
# randomized truncated SVD


def test_tsvd_diagonal():
    u, s = randomized_tsvd(np.diag([3.0, 2.0, 1.0]), 2, seed=0)
    assert np.allclose(s, [3.0, 2.0], atol=1e-10)
    assert np.allclose(np.abs(u), [[1, 0], [0, 1], [0, 0]], atol=1e-8)


def test_tsvd_rank_one():
    rng = np.random.default_rng(0)
    uvec = rng.standard_normal(15)
    vvec = rng.standard_normal(15)
    _, s = randomized_tsvd(np.outer(uvec, vvec), 1, seed=3)
    assert abs(s[0] - np.linalg.norm(uvec) * np.linalg.norm(vvec)) < 1e-8


def test_tsvd_matches_dense_oracle_on_sparse_instances():
    for seed in range(10):
        rng = np.random.default_rng(seed + 100)
        dense = rng.standard_normal((20, 20)) * (rng.random((20, 20)) < 0.3)
        u, s = randomized_tsvd(sp.csr_array(dense), 5, seed=seed)
        expected = np.linalg.svd(dense, compute_uv=False)[:5]
        assert np.max(np.abs(s - expected)) < 1e-6
        assert np.all(np.diff(s) <= 1e-12) and np.all(s >= 0)
        assert np.max(np.abs(u.T @ u - np.eye(5))) < 1e-8


def test_tsvd_seed_reproducible():
    rng = np.random.default_rng(1)
    m = sp.csr_array(rng.standard_normal((12, 12)))
    u1, s1 = randomized_tsvd(m, 4, seed=9)
    u2, s2 = randomized_tsvd(m, 4, seed=9)
    assert np.array_equal(u1, u2) and np.array_equal(s1, s2)
    u3, _ = randomized_tsvd(m, 4, seed=10)
    assert not np.array_equal(u1, u3)


def test_tsvd_bad_rank():
    with pytest.raises(ValidationError):
        randomized_tsvd(np.eye(3), 0, seed=0)
    with pytest.raises(ValidationError):
        randomized_tsvd(np.eye(3), 4, seed=0)


# ---------------------------------------------------------------------------
# Spearman


def test_spearman_fixture_triples():
    assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    expected = 4.5 / math.sqrt(4.5 * 5.0)
    assert spearman_rho([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(expected)


def test_spearman_errors():
    with pytest.raises(ValidationError):
        spearman_rho([1, 2], [1, 2])
    with pytest.raises(ValidationError):
        spearman_rho([1, 2, 3], [1, 2])
    with pytest.raises(ValidationError):
        spearman_rho([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_spearman_rejects_non_finite_input(bad):
    with pytest.raises(ValidationError, match="inputs must be finite"):
        spearman_rho([1, 2, bad, 4], [1, 2, 3, 4])
    with pytest.raises(ValidationError, match="inputs must be finite"):
        spearman_rho([1, 2, 3, 4], [1, bad, 3, 4])


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(17)
    for _ in range(20):
        xs = rng.integers(0, 5, size=15).astype(float)  # heavy ties
        ys = rng.standard_normal(15)
        if np.all(xs == xs[0]):
            continue
        expected = scipy.stats.spearmanr(xs, ys).statistic
        assert spearman_rho(xs, ys) == pytest.approx(expected, abs=1e-12)


def loop_average_ranks(xs):
    """Average ranks by walking the stably sorted values run by run."""
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs), dtype=float)
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_bitwise_equal_to_loop_oracle():
    rng = np.random.default_rng(5)
    for trial in range(300):
        n = int(rng.integers(1, 60))
        kind = trial % 3
        if kind == 0:
            xs = rng.integers(-4, 5, size=n).astype(float)  # integer ties
        elif kind == 1:
            xs = np.round(rng.standard_normal(n), 1)  # rounded normals
        else:
            xs = rng.choice([0.0, -0.0, 1.0, -1.0], size=n)  # +0.0 and -0.0 tie
        got = numerics._average_ranks(xs)
        assert got.dtype == np.float64
        assert np.array_equal(got, loop_average_ranks(xs)), xs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=3, max_size=12, unique=True))
def test_spearman_monotone_invariance(values):
    xs = np.array(values, dtype=float)
    ys = np.arange(len(xs), dtype=float)
    base = spearman_rho(xs, ys)
    assert spearman_rho(np.exp(xs / 50.0), ys) == pytest.approx(base)
    assert spearman_rho(3.0 * xs + 7.0, ys) == pytest.approx(base)


# ---------------------------------------------------------------------------
# logistic regression


def test_logistic_separable():
    model = fit_logistic_1d([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert model.accuracy([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_logistic_chance_level():
    rng = np.random.default_rng(23)
    features = rng.random(1000)
    labels = rng.integers(0, 2, size=1000)
    model = fit_logistic_1d(features, labels, max_iter=2000)
    assert model.accuracy(features, labels) == pytest.approx(0.5, abs=0.05)


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    features = rng.standard_normal(40)
    labels = (rng.random(40) < 0.5).astype(int)
    h = 1e-6
    for _ in range(10):
        w, b = rng.standard_normal(2)
        gw, gb = logistic_gradient(w, b, features, labels)
        fd_w = (
            logistic_log_loss(w + h, b, features, labels)
            - logistic_log_loss(w - h, b, features, labels)
        ) / (2 * h)
        fd_b = (
            logistic_log_loss(w, b + h, features, labels)
            - logistic_log_loss(w, b - h, features, labels)
        ) / (2 * h)
        assert abs(gw - fd_w) < 1e-6
        assert abs(gb - fd_b) < 1e-6


def test_logistic_loss_non_increasing_under_descent():
    rng = np.random.default_rng(8)
    features = np.concatenate([rng.normal(-1, 1, 50), rng.normal(1, 1, 50)])
    labels = np.array([0] * 50 + [1] * 50)
    w, b = 0.0, 0.0
    losses = [logistic_log_loss(w, b, features, labels)]
    for _ in range(300):
        gw, gb = logistic_gradient(w, b, features, labels)
        w -= 0.1 * gw
        b -= 0.1 * gb
        losses.append(logistic_log_loss(w, b, features, labels))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def gradient_trace(monkeypatch):
    """Wrap numerics.logistic_gradient; the list collects each call's (w, b)."""
    points = []
    original = numerics.logistic_gradient

    def recorded(w, b, x, y):
        points.append((w, b))
        return original(w, b, x, y)

    monkeypatch.setattr(numerics, "logistic_gradient", recorded)
    return points


def overlapping_classes(seed):
    rng = np.random.default_rng(seed)
    n1, n0 = rng.integers(5, 300, size=2)
    x = np.concatenate([rng.normal(rng.normal(), 1.0, n1), rng.normal(rng.normal(), 1.0, n0)])
    x = x * rng.uniform(0.1, 5.0) + 3.0 * rng.normal()
    return x, np.array([1] * n1 + [0] * n0)


def test_logistic_fit_matches_independent_optimum(monkeypatch):
    # the reference solves gradient = 0 with MINPACK's hybrid method; a
    # minimiser of the loss itself stops near sqrt(eps) (about 1e-8) in the
    # parameters, where loss differences drown in rounding
    points = gradient_trace(monkeypatch)
    for seed in range(40):
        x, y = overlapping_classes(seed)
        ref = scipy.optimize.root(
            lambda p: np.array(logistic_gradient(p[0], p[1], x, y)), [0.0, 0.0], tol=1e-14
        )
        assert math.hypot(*logistic_gradient(*ref.x, x, y)) < 1e-13
        points.clear()
        model = fit_logistic_1d(x, y, grad_tol=1e-12)
        assert len(points) < 50  # reached grad_tol rather than stalling at the cap
        assert abs(model.weight - ref.x[0]) < 1e-8
        assert abs(model.bias - ref.x[1]) < 1e-8


def test_logistic_fit_default_tolerance_within_newton_bound():
    # at the stop |g| < 1e-6, so the parameters are within about |H^-1| 1e-6
    for seed in range(12):
        x, y = overlapping_classes(seed)
        exact = fit_logistic_1d(x, y, grad_tol=1e-12)
        model = fit_logistic_1d(x, y)
        z = exact.weight * x + exact.bias
        s = np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))) ** 2
        hessian = np.array([[np.mean(s * x * x), np.mean(s * x)], [np.mean(s * x), np.mean(s)]])
        bound = 1.1e-6 * np.linalg.norm(np.linalg.inv(hessian), 2)
        assert math.hypot(model.weight - exact.weight, model.bias - exact.bias) < bound


def test_logistic_fit_loss_never_increases(monkeypatch):
    points = gradient_trace(monkeypatch)
    inputs = [overlapping_classes(seed) for seed in range(6)]
    inputs.append(([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]))
    inputs.append(([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 30.0], [0, 0, 0, 1, 1, 1, 1]))
    for x, y in inputs:
        points.clear()
        fit_logistic_1d(x, y)
        losses = [logistic_log_loss(w, b, x, y) for w, b in points]
        assert len(losses) > 2
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))


def test_logistic_fit_halves_a_step_that_raises_the_loss(monkeypatch):
    # Newton steps from (0, 0) are accepted whole on ordinary data; make the
    # first trial of the first step look worse so that the halving runs
    original = numerics.logistic_log_loss
    calls = []

    def first_trial_worse(w, b, x, y):
        calls.append((w, b))
        loss = original(w, b, x, y)
        return loss + 1.0 if len(calls) == 2 else loss

    points = gradient_trace(monkeypatch)
    monkeypatch.setattr(numerics, "logistic_log_loss", first_trial_worse)
    x, y = overlapping_classes(0)
    model = fit_logistic_1d(x, y)
    start, full_step, half_step = calls[:3]
    assert start == (0.0, 0.0)
    assert half_step == pytest.approx((full_step[0] / 2, full_step[1] / 2), rel=1e-15)
    assert points[1] == half_step
    assert math.hypot(*logistic_gradient(model.weight, model.bias, x, y)) < 1e-6


@pytest.mark.parametrize(
    "features, labels",
    [
        ([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]),
        ([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]),
        ([-100.0, -1.0, 1.0, 100.0], [0, 0, 1, 1]),
        (np.concatenate([np.linspace(-3, -0.5, 40), np.linspace(0.5, 4, 60)]), [0] * 40 + [1] * 60),
    ],
)
def test_logistic_separable_stops_finite_before_cap(monkeypatch, features, labels):
    points = gradient_trace(monkeypatch)
    model = fit_logistic_1d(features, labels)
    assert model.accuracy(features, labels) == 1.0
    assert np.isfinite(model.weight) and np.isfinite(model.bias)
    assert len(points) < 50  # converged: the last call found |g| < grad_tol
    assert math.hypot(*logistic_gradient(model.weight, model.bias, features, labels)) < 1e-6


@pytest.mark.parametrize("value", [0.0, 3.7, -2e5])
def test_logistic_constant_feature(monkeypatch, value):
    points = gradient_trace(monkeypatch)
    balanced = fit_logistic_1d(np.full(10, value), [0, 1] * 5)
    assert np.isfinite(balanced.weight) and np.isfinite(balanced.bias)
    assert balanced.accuracy(np.full(10, value), [0, 1] * 5) == 0.5
    assert len(points) < 50
    # unbalanced: w*x + b reaches logit(0.8), so every point is predicted 1
    points.clear()
    labels = [1, 1, 1, 1, 0] * 2
    model = fit_logistic_1d(np.full(10, value), labels)
    assert len(points) < 50
    assert model.predict_proba([value])[0] == pytest.approx(0.8, abs=1e-6)
    assert model.accuracy(np.full(10, value), labels) == 0.8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_logistic_non_finite_feature_rejected(bad):
    with pytest.raises(ValidationError, match="features must be finite"):
        fit_logistic_1d([bad, 1.0, 2.0], [0, 1, 1])


def test_logistic_single_class_rejected():
    with pytest.raises(ValidationError):
        fit_logistic_1d([0.1, 0.9], [1, 1])
    with pytest.raises(ValidationError):
        fit_logistic_1d([0.1, 0.9], [0, 2])
