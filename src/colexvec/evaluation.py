"""The three evaluation protocols: rating correlation and two binary tasks.

LSIM correlates provider scores with human similarity ratings. The binary
tasks (semantic-change and association-link prediction) share one negative
-sampling scheme: each positive pair gets one corrupted copy, a logistic
model on the score alone is fitted per sample, and in-sample accuracy is
averaged over the sampling runs. Negative sets depend only on (positives,
pool, seed), never on the scored provider, so they are shared across
models by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import SimilarityProvider
from .errors import InsufficientDataError, SamplingError, ValidationError
from .numerics import fit_logistic_1d, spearman_rho
from .tsv import number, read_tsv

RATED_HEADER = "CONCEPT_A\tCONCEPT_B\tRATING"
PAIR_HEADER = "CONCEPT_A\tCONCEPT_B"

EVAL_TASKS = frozenset({"lsim", "shift", "links"})


@dataclass(frozen=True)
class RatedPair:
    a: str
    b: str
    rating: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValidationError(f"rated pair with identical concepts: {self.a!r}")


@dataclass(frozen=True)
class ConceptPair:
    a: str
    b: str
    weight: Optional[int] = None

    def __post_init__(self):
        if self.a == self.b:
            raise ValidationError(f"concept pair with identical concepts: {self.a!r}")

    def unordered(self) -> tuple:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class EvalReport:
    task: str
    metric: float
    coverage: float
    runs: int
    seed: Optional[int] = None
    spread: Optional[float] = None

    def __post_init__(self):
        if self.task not in EVAL_TASKS:
            raise ValidationError(f"unknown task {self.task!r}")
        if not (0.0 <= self.coverage <= 1.0):
            raise ValidationError(f"coverage must be in [0, 1], got {self.coverage}")
        if (self.spread is not None) != (self.runs > 1):
            raise ValidationError("spread is present iff runs > 1")

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "metric": self.metric,
            "spread": self.spread,
            "coverage": self.coverage,
            "runs": self.runs,
            "seed": self.seed,
        }

    def table(self) -> str:
        label = {"lsim": "Spearman rho", "shift": "mean accuracy", "links": "mean accuracy"}
        lines = [
            f"task      {self.task}",
            f"{label[self.task]:<9} {self.metric:.4f}"
            + (f" +- {self.spread:.4f}" if self.spread is not None else ""),
            f"coverage  {self.coverage:.4f}",
            f"runs      {self.runs}",
        ]
        if self.seed is not None:
            lines.append(f"seed      {self.seed}")
        return "\n".join(lines)


def _rated_pair(a, b, rating) -> RatedPair:
    return RatedPair(a, b, number(rating, "rating"))


def load_rated_pairs(path) -> list:
    """Read CONCEPT_A/CONCEPT_B/RATING rows."""
    return read_tsv(path, (RATED_HEADER,), _rated_pair)


def _concept_pair(a, b, weight=None) -> ConceptPair:
    return ConceptPair(a, b, None if weight is None else number(weight, "weight", int))


def load_concept_pairs(path) -> list:
    """Read CONCEPT_A/CONCEPT_B[/WEIGHT] rows."""
    return read_tsv(path, (PAIR_HEADER, PAIR_HEADER + "\tWEIGHT"), _concept_pair)


def eval_lsim(sim: SimilarityProvider, pairs) -> EvalReport:
    """Spearman correlation between ratings and provider scores.

    Pairs with a concept outside the provider's coverage are excluded and
    accounted for in the coverage figure. Distance providers are scored
    raw, so their correlation is expected to come out negative.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("no rated pairs given")
    evaluable = [p for p in pairs if p.a in sim.index and p.b in sim.index]
    coverage = len(evaluable) / len(pairs)
    if len(evaluable) < 3:
        raise InsufficientDataError(
            f"only {len(evaluable)} of {len(pairs)} pairs are covered "
            f"(coverage {coverage:.3f}); need at least 3"
        )
    ratings = [p.rating for p in evaluable]
    scores = sim.score_pairs([p.a for p in evaluable], [p.b for p in evaluable])
    rho = spearman_rho(ratings, scores)
    return EvalReport(task="lsim", metric=rho, coverage=coverage, runs=1)


def draw_negatives(positives, pool, seed: int, max_redraws: int = 1000) -> list:
    """One corrupted copy per positive: one side replaced by a pool draw.

    Redraws until the candidate is neither a self-pair nor an attested
    positive (as unordered pair). Deterministic for a given
    (positives, pool, seed); the provider plays no role here.
    """
    positives = list(positives)
    pool = list(pool)
    if len(pool) < 2:
        raise ValidationError(f"pool must have at least 2 concepts, got {len(pool)}")
    positive_keys = {p.unordered() for p in positives}
    rng = np.random.default_rng(seed)

    negatives = []
    for pair in positives:
        for _ in range(max_redraws):
            keep_a = bool(rng.integers(2))
            replacement = pool[rng.integers(len(pool))]
            cand = (pair.a, replacement) if keep_a else (replacement, pair.b)
            if cand[0] == cand[1]:
                continue
            key = (cand[0], cand[1]) if cand[0] <= cand[1] else (cand[1], cand[0])
            if key in positive_keys:
                continue
            negatives.append(ConceptPair(cand[0], cand[1]))
            break
        else:
            raise SamplingError(
                f"could not corrupt pair ({pair.a}, {pair.b}) after {max_redraws} redraws"
            )
    return negatives


def eval_binary(
    sim: SimilarityProvider,
    positives,
    pool=None,
    runs: int = 50,
    seed: int = 0,
    task: str = "shift",
) -> EvalReport:
    """Mean in-sample accuracy of a one-feature logistic fit over `runs` samples.

    Run r draws its negatives with seed + r. Positives with uncovered
    concepts are excluded up front (reported as coverage). Scores of
    distance providers are negated so that higher always means more
    similar. Accuracy is measured in-sample, following the paper's
    protocol; the fit never sees held-out data. The log-loss fit need not
    pick the accuracy-maximising threshold, so the result can fall short
    of best-threshold separability on the same scores.

    Features are standardized before the fit (a constant feature is
    passed as is): affine changes of the score scale then give the same
    features up to rounding, so the fit and the accuracy stay unchanged,
    and the fit's gradient tolerance means the same for every provider.
    """
    positives = list(positives)
    if not positives:
        raise ValidationError("no positive pairs given")
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    evaluable = [p for p in positives if p.a in sim.index and p.b in sim.index]
    coverage = len(evaluable) / len(positives)
    if not evaluable:
        raise InsufficientDataError("no positive pair is covered by the provider")
    pool = sorted(sim.index) if pool is None else list(pool)
    outside = [c for c in pool if c not in sim.index]
    if outside:
        raise ValidationError(
            f"pool contains concepts the provider cannot score, e.g. {outside[:3]}"
        )

    sign = 1.0 if sim.higher_is_more_similar else -1.0

    def scored(pairs) -> np.ndarray:
        return sign * sim.score_pairs([p.a for p in pairs], [p.b for p in pairs])

    pos_features = scored(evaluable)
    accuracies = []
    for r in range(runs):
        negatives = draw_negatives(evaluable, pool, seed + r)
        features = np.concatenate([pos_features, scored(negatives)])
        labels = [1] * len(evaluable) + [0] * len(negatives)
        spread_f = features.std()
        if spread_f > 0:
            features = (features - features.mean()) / spread_f
        model = fit_logistic_1d(features, labels)
        accuracies.append(model.accuracy(features, labels))

    metric = float(np.mean(accuracies))
    spread = float(np.std(accuracies)) if runs > 1 else None
    return EvalReport(
        task=task, metric=metric, coverage=coverage, runs=runs, seed=seed, spread=spread
    )


def filter_association_pairs(edges, min_weight: int = 5, space=None) -> list:
    """Keep association edges at or above min_weight inside the concept space.

    Duplicate unordered pairs are merged after filtering (largest weight
    kept; the weight is unused downstream).
    """
    filtered = {}
    for pair in edges:
        if pair.weight is None:
            raise ValidationError(f"association pair ({pair.a}, {pair.b}) has no weight")
        if pair.weight < min_weight:
            continue
        if space is not None and (pair.a not in space or pair.b not in space):
            continue
        key = pair.unordered()
        prev = filtered.get(key)
        if prev is None or pair.weight > prev:
            filtered[key] = pair.weight
    return [ConceptPair(a, b, w) for (a, b), w in sorted(filtered.items())]
