import hashlib
import json

import numpy as np
import pytest

import colexvec.evaluation as evaluation
from colexvec.baselines import SimilarityProvider, shortest_path_provider
from colexvec.errors import (
    InsufficientDataError,
    ParseError,
    SamplingError,
    ValidationError,
)
from colexvec.evaluation import (
    ConceptPair,
    EvalReport,
    RatedPair,
    draw_negatives,
    eval_binary,
    eval_lsim,
    filter_association_pairs,
    load_concept_pairs,
    load_rated_pairs,
)
from colexvec.graph import make_graph
from colexvec.numerics import fit_logistic_1d


def stable_unit(a, b):
    """Deterministic pseudo-random score in [0, 1) for an unordered pair."""
    key = "|".join(sorted((a, b))).encode()
    return int.from_bytes(hashlib.md5(key).digest()[:8], "big") / 2**64


def make_provider(score, covered, source="embedding"):
    """A provider over `covered` that scores each pair with score(a, b)."""
    order = sorted(covered)
    return SimilarityProvider(
        source=source,
        score=np.vectorize(lambda i, j: score(order[i], order[j]), otypes=[float]),
        index={concept: i for i, concept in enumerate(order)},
    )


# ---------------------------------------------------------------------------
# LSIM


def test_eval_lsim_perfect_scores():
    pairs = [RatedPair("A", "B", 0.9), RatedPair("B", "C", 0.5), RatedPair("A", "C", 0.1)]
    ratings = {("A", "B"): 0.9, ("B", "C"): 0.5, ("A", "C"): 0.1}
    provider = make_provider(
        lambda a, b: ratings[tuple(sorted((a, b)))], ["A", "B", "C"]
    )
    report = eval_lsim(provider, pairs)
    assert report.metric == pytest.approx(1.0)
    assert report.coverage == 1.0
    assert report.spread is None and report.runs == 1


def test_eval_lsim_excludes_uncovered():
    pairs = [
        RatedPair("A", "B", 0.9),
        RatedPair("B", "C", 0.5),
        RatedPair("A", "C", 0.1),
        RatedPair("A", "Z", 0.7),
    ]
    provider = make_provider(lambda a, b: stable_unit(a, b), ["A", "B", "C"])
    report = eval_lsim(provider, pairs)
    assert report.coverage == pytest.approx(0.75)


def test_eval_lsim_insufficient_coverage():
    pairs = [RatedPair("X", "Y", 0.5), RatedPair("Y", "Z", 0.4), RatedPair("X", "Z", 0.3)]
    provider = make_provider(lambda a, b: 0.5, ["A", "B"])
    with pytest.raises(InsufficientDataError):
        eval_lsim(provider, pairs)


def test_eval_lsim_names_the_constant_side():
    pairs = [RatedPair("A", "B", 0.9), RatedPair("B", "C", 0.5), RatedPair("A", "C", 0.1)]
    flat = make_provider(lambda a, b: 0.0, ["A", "B", "C"])
    with pytest.raises(
        InsufficientDataError,
        match=r"^all 3 covered pairs score 0; Spearman's rho is undefined$",
    ):
        eval_lsim(flat, pairs)
    tied = [RatedPair(p.a, p.b, 2.5) for p in pairs]
    with pytest.raises(
        InsufficientDataError,
        match=r"^all 3 covered pairs have rating 2.5; Spearman's rho is undefined$",
    ):
        eval_lsim(make_provider(stable_unit, ["A", "B", "C"]), tied)


def test_eval_lsim_distance_provider_negative_rho():
    g = make_graph([("A", "B", 9), ("B", "C", 1), ("A", "D", 1)], "full", False)
    provider = shortest_path_provider(g)
    pairs = [
        RatedPair("A", "B", 0.9),
        RatedPair("B", "C", 0.5),
        RatedPair("A", "D", 0.45),
        RatedPair("A", "C", 0.2),
    ]
    report = eval_lsim(provider, pairs)
    assert report.metric < 0  # raw distances anti-correlate with similarity


# ---------------------------------------------------------------------------
# negative sampling


def test_draw_negatives_contract():
    tree, forest = 0, 1  # rows of TREE, FOREST and BARK (2)
    for seed in range(20):
        negatives = draw_negatives(np.array([[tree, forest]]), [0, 1, 2], seed)
        assert negatives.shape == (1, 2) and negatives.dtype == np.intp
        a, b = negatives[0]
        assert {a, b} != {tree, forest}
        assert a != b
        assert len({a, b} & {tree, forest}) == 1


def test_draw_negatives_deterministic():
    positives = np.array([(i, 30 + i) for i in range(30)])
    pool = range(60)
    first = draw_negatives(positives, pool, 7)
    second = draw_negatives(positives, pool, 7)
    assert np.array_equal(first, second)
    assert not np.array_equal(draw_negatives(positives, pool, 8), first)


def test_draw_negatives_count_matches_positdes():
    positives = np.array([(2 * i, 2 * i + 1) for i in range(547)])
    negatives = draw_negatives(positives, range(1200), 3)
    assert negatives.shape == (547, 2) and negatives.dtype == np.intp


def test_draw_negatives_exhaustion():
    with pytest.raises(SamplingError):
        draw_negatives(np.array([[0, 1]]), [0, 1], 0)
    with pytest.raises(ValidationError):
        draw_negatives(np.array([[0, 1]]), [0], 0)
    with pytest.raises(ValidationError, match="rows must span at most 2\\*\\*31 values"):
        draw_negatives(np.array([[0, 1]]), [-1, 2**31], 0)


def scalar_negatives(positives, pool, seed):
    """The oracle: one `Generator.integers` call per draw, one attempt at a time."""
    positives = np.asarray(positives, dtype=np.intp).reshape(-1, 2)
    pool = np.asarray(pool, dtype=np.intp).tolist()
    positive_keys = set(zip(positives.min(axis=1).tolist(), positives.max(axis=1).tolist()))
    rng = np.random.default_rng(seed)
    negatives = np.empty_like(positives)
    for k, (a, b) in enumerate(positives.tolist()):
        for _ in range(evaluation.MAX_REDRAWS):
            keep_a = bool(rng.integers(2))
            replacement = pool[rng.integers(len(pool))]
            x, y = (a, replacement) if keep_a else (replacement, b)
            if x == y or ((x, y) if x <= y else (y, x)) in positive_keys:
                continue
            negatives[k] = x, y
            break
        else:
            raise SamplingError(f"could not corrupt the pair of rows ({a}, {b}) "
                                f"after {evaluation.MAX_REDRAWS} redraws", position=k)
    return negatives


def outcome(draw, *args):
    """The negatives `draw` returns, or the message and position of its SamplingError."""
    try:
        return draw(*args).tolist()
    except SamplingError as exc:
        return str(exc), exc.position


# Row 0 is paired with 650 of 1,300 pool rows, so keeping its side is
# attested half the time; the rest are sparse pairs, some with rows beyond the pool.
HUB = [(0, j) for j in range(1, 1300, 2)] + [(i, i + 1) for i in range(2, 1400, 7)]
POOLS = [
    pytest.param([[0, 1], [1, 2]], [0, 1, 2], id="pool-3"),
    pytest.param([[7, 5], [5, 9], [9, 7], [5, 4]], [9, 5, 7], id="pool-3-exhausted"),
    pytest.param([[0, 1]], [0, 1], id="pool-2-exhausted"),
    pytest.param([[3, 8], [8, 3]], [8, 2], id="pool-2"),
    pytest.param([[-5, 10**9], [7, -5]], [10**9, -5, 7, 2**31 - 6], id="pool-4-wide-rows"),
    pytest.param(HUB, list(range(1300)), id="pool-1300"),
    pytest.param(HUB[::-1], list(range(1299, -1, -1)), id="pool-1300-reversed"),
]


@pytest.mark.parametrize("positives, pool", POOLS)
def test_block_negatives_equal_the_scalar_loop_on_this_numpy(positives, pool):
    # NEP 19 lets a numpy release change Generator streams; this pins the
    # block reader to `integers` on the installed numpy
    for seed in range(1, 51):
        assert outcome(draw_negatives, positives, pool, seed) == \
            outcome(scalar_negatives, positives, pool, seed), seed


def test_lemire_map_at_two_to_the_31_plus_1():
    n = 2**31 + 1  # 2**32 % n = 2**31 - 1: nearly half of the halves are rejected
    halves = np.array([0, 1, 2**31 - 2, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1,
                       123456789, 3000000000], dtype=np.uint64)
    index, accepted = evaluation._lemire(halves, n)
    for u, i, ok in zip(halves.tolist(), index.tolist(), accepted.tolist()):
        assert i == u * n >> 32 and ok == (u * n % 2**32 >= 2**32 % n)
    # the draws `integers(2)` and `integers(n)` make, rejections included:
    # a block's guess up to its first rejection, then attempt by attempt
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        expected = [(bool(rng.integers(2)), int(rng.integers(n))) for _ in range(500)]
        draws = evaluation._Draws(np.random.default_rng(seed).bit_generator, n)
        keep, index, accepted = draws.guess(500)
        first = int(accepted.argmin())
        assert list(zip(keep[:first].tolist(), index[:first].tolist())) == expected[:first]
        assert [draws.attempt() for _ in range(500)] == expected
        assert draws.at - 1000 > 100  # over 100 rejections


# ---------------------------------------------------------------------------
# binary evaluation


def test_eval_binary_separable():
    concepts = [f"C{i}" for i in range(40)]
    positive_keys = {tuple(sorted((concepts[2 * i], concepts[2 * i + 1]))) for i in range(10)}
    positives = [ConceptPair(a, b) for a, b in sorted(positive_keys)]
    provider = make_provider(
        lambda a, b: 1.0 if tuple(sorted((a, b))) in positive_keys else 0.0, concepts
    )
    report = eval_binary(provider, positives, runs=5, seed=0)
    assert report.metric == 1.0
    assert report.runs == 5
    assert report.spread == pytest.approx(0.0)


def test_eval_binary_chance_level():
    concepts = [f"K{i:04d}" for i in range(1200)]
    positives = [ConceptPair(concepts[2 * i], concepts[2 * i + 1]) for i in range(547)]
    provider = make_provider(stable_unit, concepts)
    report = eval_binary(provider, positives, runs=50, seed=3)
    assert report.metric == pytest.approx(0.50, abs=0.03)


def test_eval_binary_monotone_transform_invariance():
    concepts = [f"K{i:03d}" for i in range(200)]
    positive_keys = {tuple(sorted((concepts[2 * i], concepts[2 * i + 1]))) for i in range(60)}
    positives = [ConceptPair(a, b) for a, b in sorted(positive_keys)]

    def base(a, b):
        # coarse score levels far from zero: a high band for attested pairs,
        # an overlapping low band for everything else
        level = round(stable_unit(a, b) * 4) / 10
        bump = 0.45 if tuple(sorted((a, b))) in positive_keys else 0.05
        return 5.0 + bump + level

    reports = [
        eval_binary(make_provider(fn, concepts), positives, runs=10, seed=11)
        for fn in (base, lambda a, b: 2.0 * base(a, b) + 7.0, lambda a, b: base(a, b) ** 3)
    ]
    assert 0.6 < reports[0].metric < 1.0  # non-degenerate fixture
    assert reports[0].metric == reports[1].metric == reports[2].metric


def test_logistic_accuracy_can_fall_short_of_best_threshold():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(1.0, 1.0, 50), rng.normal(0.0, 1.0, 50)])
    labels = np.array([1] * 50 + [0] * 50)
    x = (x - x.mean()) / x.std()
    accuracy = fit_logistic_1d(x, labels).accuracy(x, labels)
    best = max(np.mean((x >= t) == labels) for t in np.append(x, np.inf))
    assert accuracy < best


def drawn_negatives(monkeypatch, provider, positives, seed):
    """The negatives eval_binary draws in each run, as (a, b) concept names."""
    names = {row: concept for concept, row in provider.index.items()}
    runs = []

    def recording(*args, **kwargs):
        rows = draw_negatives(*args, **kwargs)
        runs.append([(names[a], names[b]) for a, b in rows.tolist()])
        return rows

    monkeypatch.setattr(evaluation, "draw_negatives", recording)
    eval_binary(provider, positives, runs=5, seed=seed)
    monkeypatch.undo()
    return runs


def test_eval_binary_negatives_shared_across_providers(monkeypatch):
    concepts = [f"C{i}" for i in range(50)]
    positives = [ConceptPair(concepts[2 * i], concepts[2 * i + 1]) for i in range(12)]
    sorted_rows = make_provider(stable_unit, concepts)
    # the same concepts with reversed rows and other scores
    order = sorted(concepts, reverse=True)
    reversed_rows = SimilarityProvider(
        source="shortest_path",
        score=np.vectorize(lambda i, j: float(i + j), otypes=[float]),
        index={concept: i for i, concept in enumerate(order)},
    )
    serialized, again = (
        [json.dumps(run) for run in drawn_negatives(monkeypatch, provider, positives, 40)]
        for provider in (sorted_rows, reversed_rows)
    )
    assert len(serialized) == 5 and len(set(serialized)) == 5
    assert serialized == again


def test_eval_binary_seed_derivation_is_seed_plus_run():
    concepts = [f"C{i}" for i in range(60)]
    positives = [ConceptPair(concepts[2 * i], concepts[2 * i + 1]) for i in range(15)]
    provider = make_provider(stable_unit, concepts)
    report = eval_binary(provider, positives, runs=1, seed=21)

    order = sorted(concepts)  # the provider's rows
    rows = np.array([(provider.index[p.a], provider.index[p.b]) for p in positives])
    negatives = draw_negatives(rows, range(len(order)), 21)  # run 0 -> seed + 0
    features = np.array(
        [stable_unit(p.a, p.b) for p in positives]
        + [stable_unit(order[a], order[b]) for a, b in negatives]
    )
    features = (features - features.mean()) / features.std()
    labels = np.array([1] * 15 + [0] * 15)
    model = fit_logistic_1d(features, labels)
    assert report.metric == model.accuracy(features, labels)


def test_eval_binary_coverage_accounting():
    concepts = [f"C{i}" for i in range(20)]
    positives = [ConceptPair(concepts[2 * i], concepts[2 * i + 1]) for i in range(8)]
    positives.append(ConceptPair("OUTSIDE", concepts[0]))
    positives.append(ConceptPair("ALSO_OUT", "OUTSIDE"))
    provider = make_provider(stable_unit, concepts)
    report = eval_binary(provider, positives, runs=2, seed=1)
    assert report.coverage == pytest.approx(8 / 10)


def test_eval_binary_distance_provider_negation():
    concepts = [f"C{i}" for i in range(30)]
    positive_keys = {tuple(sorted((concepts[2 * i], concepts[2 * i + 1]))) for i in range(8)}
    positives = [ConceptPair(a, b) for a, b in sorted(positive_keys)]
    provider = make_provider(
        lambda a, b: 1.0 if tuple(sorted((a, b))) in positive_keys else 5.0,
        concepts, source="shortest_path",
    )
    report = eval_binary(provider, positives, runs=3, seed=2)
    assert report.metric == 1.0  # small distance on positives wins after negation


def test_eval_binary_rejects_negative_seed():
    provider = make_provider(stable_unit, ["A", "B", "C"])
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -5$"):
        eval_binary(provider, [ConceptPair("A", "B")], seed=-5)


# ---------------------------------------------------------------------------
# association filtering


def test_filter_association_threshold():
    edges = [ConceptPair("A", "B", 4), ConceptPair("B", "C", 5), ConceptPair("A", "C", 9)]
    kept = filter_association_pairs(edges, min_weight=5, space={"A", "B", "C"})
    assert [(p.a, p.b) for p in kept] == [("A", "C"), ("B", "C")]


def test_filter_association_space_restriction():
    edges = [ConceptPair("A", "B", 9), ConceptPair("A", "Z", 9)]
    kept = filter_association_pairs(edges, min_weight=5, space={"A", "B"})
    assert [(p.a, p.b) for p in kept] == [("A", "B")]


def test_filter_association_merges_duplicates():
    edges = [ConceptPair("A", "B", 6), ConceptPair("B", "A", 8)]
    kept = filter_association_pairs(edges, min_weight=5, space={"A", "B"})
    assert len(kept) == 1
    assert kept[0].weight == 8


def test_filter_association_requires_weights():
    with pytest.raises(ValidationError):
        filter_association_pairs([ConceptPair("A", "B")], min_weight=5, space={"A", "B"})


# ---------------------------------------------------------------------------
# report plumbing and loaders


def test_eval_report_invariants():
    with pytest.raises(ValidationError):
        EvalReport(task="lsim", metric=0.5, coverage=1.5, runs=1)
    with pytest.raises(ValidationError):
        EvalReport(task="lsim", metric=0.5, coverage=1.0, runs=1, spread=0.1)
    with pytest.raises(ValidationError):
        EvalReport(task="shift", metric=0.5, coverage=1.0, runs=2)


def test_load_rated_pairs(tmp_path):
    path = tmp_path / "rated.tsv"
    path.write_text(
        "CONCEPT_A\tCONCEPT_B\tRATING\nTREE\tFOREST\t0.9\nBARK\tSKIN\t0.8\n",
        encoding="utf-8",
    )
    pairs = load_rated_pairs(path)
    assert pairs[0] == RatedPair("TREE", "FOREST", 0.9)
    bad = tmp_path / "bad.tsv"
    bad.write_text("CONCEPT_A\tCONCEPT_B\tRATING\nTREE\tTREE\t0.9\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_rated_pairs(bad)


def test_load_concept_pairs(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "CONCEPT_A\tCONCEPT_B\tWEIGHT\nTREE\tFOREST\t12\nBARK\tSKIN\t4\n",
        encoding="utf-8",
    )
    pairs = load_concept_pairs(path)
    assert pairs[0].weight == 12
    bare = tmp_path / "bare.tsv"
    bare.write_text("CONCEPT_A\tCONCEPT_B\nTREE\tFOREST\n", encoding="utf-8")
    assert load_concept_pairs(bare)[0].weight is None
