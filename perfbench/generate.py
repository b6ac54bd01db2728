"""Seeded synthetic inputs at published scale.

Every input the benchmark feeds to colexvec comes from here, drawn from one
numpy Generator seeded with the workload seed, so the same seed writes
byte-identical files. The program only ever sees the files.

The latent model is a ring of concepts: each concept gets a position on a
circle, colexifications and graph edges link mostly ring-near concepts,
and the evaluation pairs (ratings, shift and link positives) are drawn from
the same neighbourhoods. Embeddings trained on the graphs therefore score
well above chance, and a broken provider shows up as a drop in accuracy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Criterion-9 sizes of the published networks: (nodes, edges).
GRAPH_SIZES = {"full": (1246, 4008), "affix": (1308, 38215)}

# Share of graph edges drawn between ring-near concepts; the rest are uniform.
LOCAL_SHARE = 0.8
# Share of directed affix edges that also appear reversed.
ANTIPARALLEL_SHARE = 0.1

# Segment inventory; segment frequencies follow Zipf's law so that k-gram
# buckets are as skewed as in real transcriptions.
SEGMENTS = (
    "a i u e o n m t k s l r p b d g h w j ŋ ə ɛ ɔ ts tʃ ʃ f v z x "
    "q ʔ ɲ ɾ aː iː uː ɨ ʁ dʒ"
).split()
FORM_LENGTHS = np.array([2, 3, 4, 5, 6, 7])
FORM_LENGTH_P = np.array([0.12, 0.26, 0.27, 0.19, 0.10, 0.06])

# colex-prone wordlist: (language, family, concepts). One language at the
# published 1,300 concepts, two with partial coverage.
LANGUAGES = (("Lang1", "Fam1", 1300), ("Lang2", "Fam2", 400), ("Lang3", "Fam3", 400))
# Walking the ring, a concept derives its form from that of the previous
# concept the language has with probability CHAIN_LINK (a full copy, an
# affix, or a shared 4-segment block), else it starts a fresh root. The plan
# is shared by all languages; each realizes a planned link with probability
# LINK_RECUR.
CHAIN_LINK = 0.9
LINK_KINDS = ("full", "affix", "overlap")
LINK_KIND_P = (0.15, 0.5, 0.35)
LINK_RECUR = 0.9
MAX_STEM = 7  # longest form that still gets an affix

# Evaluation pair files (published sizes where known).
N_RATED = 2000
N_SHIFT = 1000
N_LINK_CONCEPTS = 746
N_LINKS = 780
N_WEAK_LINKS = 220  # below the min-weight filter of 5, so eval-links drops them
VIZ_CONCEPTS = 50


class Universe:
    """Concept ids with seeded ring positions; samples ring-near pairs."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng = rng
        self.ids = [f"C{i:04d}" for i in range(n)]
        self.n = n
        self.ring = rng.permutation(n)  # ring position of concept i
        self.at = np.argsort(self.ring)  # concept at ring position p

    def near(self, i: int, scale: float, members=None) -> int:
        """A concept at a geometric ring distance (mean ~scale) from concept i."""
        while True:
            step = int(self.rng.geometric(1.0 / scale))
            sign = 1 if self.rng.random() < 0.5 else -1
            j = int(self.at[(self.ring[i] + sign * step) % self.n])
            if j != i and (members is None or j in members):
                return j

    def ring_distance(self, i: int, j: int) -> int:
        d = abs(int(self.ring[i]) - int(self.ring[j]))
        return min(d, self.n - d)


def _family_weight(rng) -> int:
    return int(min(rng.zipf(2.2), 150))


def sample_graph_edges(u: Universe, n_edges: int, scale: float) -> dict:
    """Distinct unordered edges over all concepts, leaving no node isolated."""
    edges = {}

    def add(i, j):
        key = (min(i, j), max(i, j))
        if key not in edges:
            edges[key] = _family_weight(u.rng)

    for i in range(u.n):  # one local edge each, so every node is covered
        add(i, u.near(i, 2.0))
    while len(edges) < n_edges:
        i = int(u.rng.integers(u.n))
        if u.rng.random() < LOCAL_SHARE:
            j = u.near(i, scale)
        else:
            j = int(u.rng.integers(u.n))
        if i != j:
            add(i, j)
    return edges


def write_graph(path: Path, u: Universe, kind: str) -> dict:
    """Edge list plus sidecar of a criterion-9-sized network; returns its sizes."""
    n_nodes, n_edges = GRAPH_SIZES[kind]
    assert u.n == n_nodes, (kind, u.n)
    directed = kind == "affix"
    if directed:
        # directed edges, some of them antiparallel, so to_undirected merges work
        n_anti = int(round(n_edges * ANTIPARALLEL_SHARE / (1 + ANTIPARALLEL_SHARE)))
        und = sample_graph_edges(u, n_edges - n_anti, scale=40.0)
        rows = [(i, j, w) if u.rng.random() < 0.5 else (j, i, w) for (i, j), w in und.items()]
        for k in sorted(u.rng.choice(len(rows), n_anti, replace=False).tolist()):
            i, j, _ = rows[k]
            rows.append((j, i, _family_weight(u.rng)))
    else:
        rows = [(i, j, w) for (i, j), w in sample_graph_edges(u, n_edges, scale=12.0).items()]
    rows.sort()
    lines = ["SOURCE\tTARGET\tWEIGHT"]
    lines += [f"{u.ids[i]}\t{u.ids[j]}\t{w}" for i, j, w in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = {"colex_type": kind, "directed": directed, "weight_semantics": "family_count"}
    Path(str(path) + ".json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    return {"nodes": n_nodes, "edges": n_edges}


def _random_form(rng, seg_p) -> list:
    length = int(rng.choice(FORM_LENGTHS, p=FORM_LENGTH_P))
    return [SEGMENTS[k] for k in rng.choice(len(SEGMENTS), size=length, p=seg_p)]


def _extra(rng, seg_p, lo=1, hi=2) -> list:
    return [SEGMENTS[k] for k in rng.choice(len(SEGMENTS), size=int(rng.integers(lo, hi + 1)), p=seg_p)]


def _derive(rng, seg_p, kind: str, base: list) -> list:
    """A form colexified with `base`: `kind` where the base allows it, else an
    overlap (bases of 4+ segments) or a full copy."""
    if kind == "affix" and 3 <= len(base) <= MAX_STEM:
        extra = _extra(rng, seg_p)
        return base + extra if rng.random() < 0.7 else extra + base
    if kind != "full" and len(base) >= 4:
        start = int(rng.integers(len(base) - 3))
        return _extra(rng, seg_p, 1, 1) + base[start: start + 4] + _extra(rng, seg_p, 1, 1)
    return list(base)


def write_wordlist(path: Path, viz_path: Path, u: Universe) -> dict:
    """Three-family wordlist whose forms chain along the ring (see CHAIN_LINK).

    Also writes VIZ_CONCEPTS chained concepts, one per line, for the t-SNE step.
    """
    rng = u.rng
    seg_p = 1.0 / np.arange(1, len(SEGMENTS) + 1)
    seg_p /= seg_p.sum()
    plan = [None] + [
        str(rng.choice(LINK_KINDS, p=LINK_KIND_P)) if rng.random() < CHAIN_LINK else None
        for _ in range(1, u.n)
    ]

    rows, sizes = [], []
    for language, family, size in LANGUAGES:
        present = set(range(u.n)) if size >= u.n else set(rng.choice(u.n, size, replace=False).tolist())
        forms, prev = {}, None
        for p in range(u.n):
            c = int(u.at[p])
            if c not in present:
                continue
            if plan[p] and prev is not None and rng.random() < LINK_RECUR:
                forms[c] = _derive(rng, seg_p, plan[p], forms[prev])
            else:
                forms[c] = _random_form(rng, seg_p)
            prev = c
        rows += [f"{language}\t{family}\t{u.ids[c]}\t{' '.join(forms[c])}" for c in sorted(forms)]
        sizes.append(len(forms))
    path.write_text("LANGUAGE\tFAMILY\tCONCEPT\tFORM\n" + "\n".join(rows) + "\n", encoding="utf-8")
    chained = sorted(int(u.at[p]) for p in range(u.n) if plan[p])
    shown = sorted(rng.choice(chained, VIZ_CONCEPTS, replace=False).tolist())
    viz_path.write_text("".join(u.ids[c] + "\n" for c in shown), encoding="utf-8")
    return {
        "languages": len(LANGUAGES),
        "entries": sum(sizes),
        "same_language_pairs": sum(n * (n - 1) // 2 for n in sizes),
    }


def _distinct_pairs(u: Universe, count: int, near_share: float, scale: float, members=None) -> list:
    """`count` distinct unordered pairs, a near_share of them ring-near."""
    members = list(range(u.n)) if members is None else members
    member_set = set(members)
    seen, pairs = set(), []
    while len(pairs) < count:
        i = members[int(u.rng.integers(len(members)))]
        if u.rng.random() < near_share:
            j = u.near(i, scale, member_set)
        else:
            j = members[int(u.rng.integers(len(members)))]
        key = (min(i, j), max(i, j))
        if i != j and key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


def write_rated_pairs(path: Path, u: Universe) -> None:
    """Ratings on a 0-10 scale that fall off with ring distance, plus noise."""
    lines = ["CONCEPT_A\tCONCEPT_B\tRATING"]
    for i, j in _distinct_pairs(u, N_RATED, near_share=0.6, scale=6.0):
        closeness = np.exp(-u.ring_distance(i, j) / 8.0)
        rating = float(np.clip(1.0 + 8.0 * closeness + u.rng.normal(0.0, 1.2), 0.0, 10.0))
        lines.append(f"{u.ids[i]}\t{u.ids[j]}\t{rating:.2f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_shift_pairs(path: Path, u: Universe) -> None:
    """Semantic-shift positives: mostly ring-near pairs."""
    lines = ["CONCEPT_A\tCONCEPT_B"]
    for i, j in _distinct_pairs(u, N_SHIFT, near_share=0.9, scale=3.0):
        lines.append(f"{u.ids[i]}\t{u.ids[j]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_link_pairs(path: Path, u: Universe) -> None:
    """780 ring-near association links of weight >= 5 over exactly 746 concepts,
    plus weak links that eval-links filters out."""
    rng = u.rng
    concepts = sorted(rng.choice(u.n, N_LINK_CONCEPTS, replace=False).tolist())
    member_set = set(concepts)
    seen, strong = set(), []

    def add(i, j):
        key = (min(i, j), max(i, j))
        if key not in seen:
            seen.add(key)
            strong.append(key)

    covered = set()  # first cover every concept once, then add more near links
    for i in rng.permutation(concepts).tolist():
        if i not in covered:
            j = u.near(i, 3.0, member_set)
            add(i, j)
            covered.update((i, j))
    while len(strong) < N_LINKS:
        i = concepts[int(rng.integers(len(concepts)))]
        add(i, u.near(i, 3.0, member_set))
    lines = ["CONCEPT_A\tCONCEPT_B\tWEIGHT"]
    lines += [f"{u.ids[i]}\t{u.ids[j]}\t{int(rng.integers(5, 60))}" for i, j in strong]
    for key in _distinct_pairs(u, N_WEAK_LINKS, near_share=0.0, scale=1.0, members=concepts):
        if key not in seen:
            lines.append(f"{u.ids[key[0]]}\t{u.ids[key[1]]}\t{int(rng.integers(1, 5))}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_eval_pairs(inputs: Path, u: Universe) -> None:
    write_rated_pairs(inputs / "rated.tsv", u)
    write_shift_pairs(inputs / "shift.tsv", u)
    write_link_pairs(inputs / "links.tsv", u)
