import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from colexvec import runtime
from colexvec.errors import ValidationError
from colexvec.viz import (
    DenseMatrix,
    conditional_gaussians,
    export_scatter,
    joint_probabilities,
    squared_distances,
    tsne_project,
)


def swadesh_like_fixture():
    """44 points in four loose 8-D clusters, mimicking a Swadesh subset plot."""
    rng = np.random.default_rng(101)
    centers = rng.standard_normal((4, 8)) * 3
    x = np.vstack([c + rng.standard_normal((11, 8)) for c in centers])
    return DenseMatrix(values=x)


def row_perplexities(p_cond):
    h = -np.sum(p_cond * np.log2(np.maximum(p_cond, 1e-12)), axis=1)
    return 2.0**h


def test_equidistant_points_give_uniform_conditionals():
    x = np.eye(3)  # pairwise squared distances are exactly 2
    p_cond = conditional_gaussians(squared_distances(x), 1.5)
    for i in range(3):
        off = np.delete(p_cond[i], i)
        assert np.allclose(off, 0.5)


def test_joint_probabilities_sum_and_symmetry():
    m = swadesh_like_fixture()
    p = joint_probabilities(conditional_gaussians(squared_distances(m.values), 15.0))
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(p, p.T)


def test_perplexity_calibration_within_tolerance():
    m = swadesh_like_fixture()
    p_cond = conditional_gaussians(squared_distances(m.values), 15.0)
    assert np.max(np.abs(row_perplexities(p_cond) - 15.0)) < 1e-3


def test_kl_non_increasing_post_exaggeration():
    m = swadesh_like_fixture()
    _, kl_history = tsne_project(m, perplexity=15.0, iterations=1000, seed=1, record_kl=True)
    kl = np.array(kl_history)
    tail = kl[500:]  # well past the 250-iteration exaggeration phase
    assert np.all(np.diff(tail) <= 1e-9)
    assert kl[-1] < kl[250]


def test_tsne_deterministic_per_seed():
    m = swadesh_like_fixture()
    a, kl_history = tsne_project(m, perplexity=10.0, iterations=300, seed=4)
    assert a.shape == (44, 2) and kl_history == ()
    b, _ = tsne_project(m, perplexity=10.0, iterations=300, seed=4)
    assert np.array_equal(a, b)
    c, _ = tsne_project(m, perplexity=10.0, iterations=300, seed=5)
    assert not np.array_equal(a, c)


def test_tsne_invariant_under_rigid_motion():
    m = swadesh_like_fixture()
    # negation is a rigid motion that keeps the computed distances bit-exact,
    # so the whole trajectory must match
    a, _ = tsne_project(m, perplexity=12.0, iterations=300, seed=2)
    b, _ = tsne_project(DenseMatrix(values=-m.values), perplexity=12.0, iterations=300, seed=2)
    assert np.array_equal(a, b)
    # a numerically computed rotation + translation perturbs distances at
    # float precision; the affinity target P is still preserved
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    moved = m.values @ q + rng.standard_normal(8)
    p_orig = joint_probabilities(conditional_gaussians(squared_distances(m.values), 12.0))
    p_moved = joint_probabilities(conditional_gaussians(squared_distances(moved), 12.0))
    assert np.allclose(p_orig, p_moved, atol=1e-8)


def test_tsne_argument_errors():
    m = DenseMatrix(values=np.zeros((4, 3)))
    with pytest.raises(ValidationError):
        tsne_project(m, perplexity=4.0, seed=0)
    with pytest.raises(ValidationError):
        tsne_project(DenseMatrix(values=np.zeros((2, 3))), perplexity=1.0, seed=0)
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
        tsne_project(swadesh_like_fixture(), seed=-1)


def test_export_scatter_tsv(tmp_path):
    coords = np.array([[0.0, 0.0], [1.0, 1.0]])
    tsv_path, svg_path = export_scatter(coords, ["A", "B"], tmp_path / "plot")
    lines = tsv_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[0] == "CONCEPT\tX\tY"
    assert svg_path.read_text(encoding="utf-8").startswith("<svg")


def test_export_scatter_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    coords = rng.standard_normal((5, 2))
    labels = [f"C{i}" for i in range(5)]
    tsv_path, _ = export_scatter(coords, labels, tmp_path / "plot")
    lines = tsv_path.read_text(encoding="utf-8").splitlines()[1:]
    for (label, x, y), (expected_label, coord) in zip(
        (line.split("\t") for line in lines), zip(labels, coords)
    ):
        assert label == expected_label
        assert float(x) == pytest.approx(coord[0], abs=1e-6)
        assert float(y) == pytest.approx(coord[1], abs=1e-6)


def test_export_scatter_rejects_bad_labels(tmp_path):
    coords = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        export_scatter(coords, ["A", ""], tmp_path / "plot")
    with pytest.raises(ValidationError):
        export_scatter(coords, ["A"], tmp_path / "plot")
    with pytest.raises(ValidationError, match="^coordinates must be n x 2$"):
        export_scatter(np.zeros((2, 3)), ["A", "B"], tmp_path / "plot")
    assert not (tmp_path / "plot.tsv").exists()


def test_tsne_bytes_do_not_depend_on_the_blas_thread_count():
    # at 300 x 128 a multi-threaded Gram moved the coordinates from the first iteration
    if runtime._numpy_openblas() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count API")
    code = ("import sys, numpy as np; from colexvec.viz import DenseMatrix, tsne_project; "
            "x = np.random.default_rng(3).standard_normal((300, 128)); "
            "sys.stdout.write(tsne_project(DenseMatrix(x), iterations=1, seed=1)[0].tobytes().hex())")
    src = str(Path(runtime.__file__).resolve().parent.parent)
    coords = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src,
                                             "OPENBLAS_NUM_THREADS": str(threads)}).stdout
              for threads in (1, 2)]
    assert len(coords[0]) == 300 * 2 * 8 * 2 and coords[0] == coords[1]
