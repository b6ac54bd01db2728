"""The three evaluation protocols: rating correlation and two binary tasks.

LSIM correlates provider scores with human similarity ratings. The binary
tasks (semantic-change and association-link prediction) share one negative
-sampling scheme: each positive pair gets one corrupted copy, a logistic
model on the score alone is fitted per sample, and in-sample accuracy is
averaged over the sampling runs. Pairs are mapped to provider rows once,
and only the covered ones are scored (`coverage` is their share). Negatives
are rows drawn from the positives, the pool and the seed alone; the pool is
every concept the provider covers, in sorted order, so providers share
negatives as concepts only when they cover the same concepts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .baselines import SimilarityProvider
from .errors import InsufficientDataError, SamplingError, ValidationError, check_seed
from .numerics import fit_logistic_1d, spearman_rho
from .tsv import number, read_tsv

RATED_HEADER = "CONCEPT_A\tCONCEPT_B\tRATING"
PAIR_HEADER = "CONCEPT_A\tCONCEPT_B"

EVAL_TASKS = frozenset({"lsim", "shift", "links"})
# candidates draw_negatives tries per positive before it gives up
MAX_REDRAWS = 1000


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
        return asdict(self)

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


def _covered_rows(sim: SimilarityProvider, pairs) -> tuple:
    """The pairs whose two concepts `sim` covers, and their (n, 2) provider rows."""
    covered = [p for p in pairs if p.a in sim.index and p.b in sim.index]
    rows = np.array([(sim.index[p.a], sim.index[p.b]) for p in covered], dtype=np.intp)
    return covered, rows.reshape(-1, 2)


def eval_lsim(sim: SimilarityProvider, pairs) -> EvalReport:
    """Spearman correlation between ratings and provider scores.

    Pairs with a concept outside the provider's coverage are excluded and
    accounted for in the coverage figure. Distance providers are scored
    raw, so their correlation is expected to come out negative. One rating
    or one score on every covered pair raises InsufficientDataError.
    """
    pairs = list(pairs)
    if not pairs:
        raise InsufficientDataError("no rated pairs given")
    covered, rows = _covered_rows(sim, pairs)
    coverage = len(covered) / len(pairs)
    if len(covered) < 3:
        raise InsufficientDataError(
            f"only {len(covered)} of {len(pairs)} pairs are covered "
            f"(coverage {coverage:.3f}); need at least 3"
        )
    ratings = np.array([p.rating for p in covered])
    scores = sim.score(rows[:, 0], rows[:, 1])
    for values, verb in ((ratings, "have rating"), (scores, "score")):
        if np.all(values == values[0]):
            raise InsufficientDataError(f"all {len(covered)} covered pairs {verb} "
                                        f"{values[0]:g}; Spearman's rho is undefined")
    rho = spearman_rho(ratings, scores)
    return EvalReport(task="lsim", metric=rho, coverage=coverage, runs=1)


def _lemire(halves: np.ndarray, n: int) -> tuple:
    """Lemire's (2019) map of uint64 `halves` below 2**32 onto range(n),
    n <= 2**32, as `Generator.integers(n)` makes it: (the multiply-high
    index, whether the half is accepted). `integers` replaces a rejected
    half by the next one."""
    m = halves * np.uint64(n)
    return m >> np.uint64(32), m & np.uint64(0xFFFFFFFF) >= np.uint64(2**32 % n)


class _Draws:
    """The `integers(2)` and `integers(n)` draws, n <= 2**32, of a new
    `Generator` on `bit_generator`, read ahead in blocks of raw words.

    The generator takes each draw from the next 32-bit half of its raw
    64-bit words, low half first: `integers(2)` is the half's top bit, and
    `integers(n)` is `_lemire`'s index of the first half it accepts. For
    every half read so far, `keep` holds its top bit, and `index` and
    `accepted` its `_lemire` map; `at` is the next half to draw from.
    """

    def __init__(self, bit_generator, n: int):
        self._bit_generator, self._n = bit_generator, n
        self.keep = np.empty(0, dtype=bool)
        self.index = np.empty(0, dtype=np.uint64)
        self.accepted = np.empty(0, dtype=bool)
        self.at = 0

    def _read(self, count: int) -> None:
        """Read at least `count` halves from `at` on."""
        missing = self.at + count - len(self.keep)
        if missing > 0:
            words = self._bit_generator.random_raw(max(-(-missing // 2), 64))
            halves = np.empty(2 * len(words), dtype=np.uint64)
            halves[0::2], halves[1::2] = words & 0xFFFFFFFF, words >> 32
            index, accepted = _lemire(halves, self._n)
            self.keep = np.concatenate([self.keep, halves >> np.uint64(31) == 1])
            self.index = np.concatenate([self.index, index])
            self.accepted = np.concatenate([self.accepted, accepted])

    def guess(self, count: int) -> tuple:
        """(keep, index, accepted) of the next `count` attempts if each takes
        two halves, an `integers(2)` and an `integers(n)` without rejection."""
        self._read(2 * count)
        at, end = self.at, self.at + 2 * count
        return self.keep[at:end:2], self.index[at + 1 : end : 2], self.accepted[at + 1 : end : 2]

    def attempt(self) -> tuple:
        """The next attempt's draws, (keep, index), rejections included."""
        self._read(2)
        keep, self.at = bool(self.keep[self.at]), self.at + 1
        while not self.accepted[self.at]:
            self.at += 1
            self._read(1)
        self.at += 1
        return keep, int(self.index[self.at - 1])


def draw_negatives(positives, pool, seed: int) -> np.ndarray:
    """One corrupted copy per positive: one side replaced by a pool draw.

    Takes an (n, 2) array of positive rows and a sequence of pool rows,
    returns an (n, 2) intp array of rows. Redraws, at most MAX_REDRAWS
    times, until the candidate is neither a self-pair nor an attested
    positive (as unordered pair).
    Deterministic for a given (positives, pool, seed).

    Each attempt draws `integers(2)`, which keeps a's side when it is 1,
    then `integers(len(pool))`, the replacement's position, from
    `np.random.default_rng(seed)`. The draws are read in blocks (`_Draws`):
    every remaining positive's first attempt at once, on the guess that it
    takes two halves and is kept. The first positive where the guess fails
    (a Lemire rejection, a self-pair or an attested pair) is redrawn one
    attempt at a time from its own start in the stream, and the guess goes
    on after it.
    """
    positives = np.asarray(positives, dtype=np.intp).reshape(-1, 2)
    pool = np.asarray(pool, dtype=np.intp)
    n = len(pool)
    if n < 2:
        raise ValidationError(f"pool must have at least 2 concepts, got {n}")
    if n > 2**32:
        raise ValidationError(f"pool must have at most 2**32 concepts, got {n}")
    # rows less the lowest, so that an unordered pair is the int lo * span + hi
    rows = np.concatenate([positives.reshape(-1), pool])
    base = int(rows.min())
    span = int(rows.max()) - base + 1
    if span > 2**31:
        raise ValidationError(f"rows must span at most 2**31 values, got {span}")
    pairs, pool_ids = positives - base, pool - base
    a_ids, b_ids = pairs[:, 0], pairs[:, 1]
    keys = np.sort(np.minimum(a_ids, b_ids) * span + np.maximum(a_ids, b_ids))
    attested = set(keys.tolist())
    keys = np.append(keys, span * span)  # above every pair, so a search stays in range
    draws = _Draws(np.random.default_rng(seed).bit_generator, n)

    def redraw(k: int) -> tuple:
        a, b = pairs[k].tolist()
        for _ in range(MAX_REDRAWS):
            keep_a, index = draws.attempt()
            replacement = int(pool_ids[index])
            x, y = (a, replacement) if keep_a else (replacement, b)
            if x != y and min(x, y) * span + max(x, y) not in attested:
                return x, y
        a, b = positives[k].tolist()
        raise SamplingError(f"could not corrupt the pair of rows ({a}, {b}) "
                            f"after {MAX_REDRAWS} redraws", position=k)

    negatives = np.empty_like(pairs)
    k, size = 0, len(pairs)
    while k < len(pairs):
        block = pairs[k : k + size]
        keep_a, index, accepted = draws.guess(len(block))
        replacement = pool_ids[index]
        x = np.where(keep_a, block[:, 0], replacement)
        y = np.where(keep_a, replacement, block[:, 1])
        candidate = np.minimum(x, y) * span + np.maximum(x, y)
        kept = accepted & (x != y) & (keys[np.searchsorted(keys, candidate)] != candidate)
        good = len(kept) if kept.all() else int(kept.argmin())
        negatives[k : k + good, 0], negatives[k : k + good, 1] = x[:good], y[:good]
        draws.at += 2 * good
        k += good
        if good < len(block):
            negatives[k] = redraw(k)
            k += 1
        # a guess that fails early is not tried on the whole remainder again
        size = max(64, 2 * good)
    return negatives + base


def eval_binary(
    sim: SimilarityProvider,
    positives,
    runs: int = 50,
    seed: int = 0,
    task: str = "shift",
) -> EvalReport:
    """Mean in-sample accuracy of a one-feature logistic fit over `runs` samples.

    Run r draws its negatives with seed + r from the pool of every
    concept the provider covers, in sorted order. Positives with uncovered
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
        raise InsufficientDataError("no positive pairs given")
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    check_seed(seed)
    covered, rows = _covered_rows(sim, positives)
    coverage = len(covered) / len(positives)
    if not covered:
        raise InsufficientDataError("no positive pair is covered by the provider")
    pool_rows = sim.rows(sorted(sim.index))

    sign = 1.0 if sim.higher_is_more_similar else -1.0
    pos_features = sign * sim.score(rows[:, 0], rows[:, 1])
    labels = np.repeat([1, 0], len(rows))
    accuracies = []
    for r in range(runs):
        try:
            negatives = draw_negatives(rows, pool_rows, seed + r)
        except SamplingError as exc:
            pair = covered[exc.position]
            raise SamplingError(f"could not corrupt pair ({pair.a}, {pair.b}) after "
                                f"{MAX_REDRAWS} redraws", exc.position) from None
        neg_features = sign * sim.score(negatives[:, 0], negatives[:, 1])
        features = np.concatenate([pos_features, neg_features])
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
    """Keep association edges at or above min_weight, and inside `space` if given.

    Duplicate unordered pairs are merged after filtering (largest weight
    kept; the weight is unused downstream). `space` serves restrictions no
    one provider's coverage expresses, such as the union of the published
    networks' concepts. The CLI passes none: `eval_binary` drops the pairs
    its provider does not cover.
    """
    filtered = {}
    for pair in edges:
        if pair.weight is None:
            raise InsufficientDataError(f"association pair ({pair.a}, {pair.b}) has no weight")
        if pair.weight < min_weight:
            continue
        if space is not None and (pair.a not in space or pair.b not in space):
            continue
        key = (pair.a, pair.b) if pair.a <= pair.b else (pair.b, pair.a)
        prev = filtered.get(key)
        if prev is None or pair.weight > prev:
            filtered[key] = pair.weight
    return [ConceptPair(a, b, w) for (a, b), w in sorted(filtered.items())]
