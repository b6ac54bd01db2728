"""Infer full, affix, and overlap colexification networks from wordlists.

Forms are compared as sequences of segment tokens (space-separated in the
TSV), never as raw strings, so a match cannot start inside a multi-character
segment. Edge weights count the distinct language families attesting a
colexification at least once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

from .errors import ValidationError
from .graph import ColexGraph, make_graph
from .tsv import read_tsv

WORDLIST_HEADER = "LANGUAGE\tFAMILY\tCONCEPT\tFORM"

MATCH_KINDS = ("none", "full", "affix", "overlap")


@dataclass(frozen=True)
class WordlistEntry:
    language: str
    family: str
    concept: str
    form: tuple

    def __post_init__(self):
        if not self.form or any(not tok for tok in self.form):
            raise ValidationError("form must be a non-empty sequence of non-empty tokens")


@dataclass(frozen=True)
class Wordlist:
    entries: tuple

    def __post_init__(self):
        families = {}
        deduped = []
        seen = set()
        for entry in self.entries:
            known = families.get(entry.language)
            if known is None:
                families[entry.language] = entry.family
            elif known != entry.family:
                raise ValidationError(
                    f"language {entry.language!r} appears under families "
                    f"{known!r} and {entry.family!r}"
                )
            key = (entry.language, entry.concept, entry.form)
            if key not in seen:
                seen.add(key)
                deduped.append(entry)
        object.__setattr__(self, "entries", tuple(deduped))
        object.__setattr__(self, "_families", families)

    @property
    def families(self) -> dict:
        """Map language -> family, derived from the entries."""
        return dict(self._families)

    def languages(self) -> list:
        return sorted(self._families)

    def concepts(self) -> list:
        return sorted({e.concept for e in self.entries})


@dataclass(frozen=True)
class ColexParams:
    """Thresholds for partial-colexification matching.

    The source inference's exact thresholds are not published, so both
    lengths are configurable; the defaults guard against one-segment noise.
    """

    min_form_len: int = 3
    min_overlap_len: int = 4

    def __post_init__(self):
        if self.min_form_len < 1:
            raise ValidationError("min_form_len must be >= 1")
        if self.min_overlap_len < 1:
            raise ValidationError("min_overlap_len must be >= 1")


@dataclass(frozen=True)
class ColexMatch:
    kind: str
    direction: Optional[str] = None

    def __post_init__(self):
        if self.kind not in MATCH_KINDS:
            raise ValidationError(f"unknown match kind {self.kind!r}")
        if (self.direction is not None) != (self.kind == "affix"):
            raise ValidationError("direction is set iff kind is 'affix'")
        if self.direction not in (None, "a_derived_from_b", "b_derived_from_a"):
            raise ValidationError(f"unknown direction {self.direction!r}")


def _entry(language, family, concept, form) -> WordlistEntry:
    if not language or not family:
        raise ValidationError("empty language or family id")
    if not concept:
        raise ValidationError("empty concept id")
    tokens = tuple(form.split())
    if not tokens:
        raise ValidationError("empty form")
    return WordlistEntry(language, family, concept, tokens)


def load_wordlist(path) -> Wordlist:
    """Read a LANGUAGE/FAMILY/CONCEPT/FORM TSV, collapsing duplicate rows."""
    entries = read_tsv(path, (WORDLIST_HEADER,), _entry)
    try:
        return Wordlist(entries=tuple(entries))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _longest_common_block(a: Sequence, b: Sequence) -> int:
    """Length of the longest shared contiguous token run."""
    best = 0
    prev = [0] * (len(b) + 1)
    for tok_a in a:
        cur = [0] * (len(b) + 1)
        for j, tok_b in enumerate(b, start=1):
            if tok_a == tok_b:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def classify_pair(a: Sequence, b: Sequence, params: ColexParams = ColexParams()) -> ColexMatch:
    """Classify two forms as full, affix, or overlap colexification.

    Precedence is full > affix > overlap. An affix match means the shorter
    form is a token-wise prefix or suffix of the longer one; its direction
    points from the derived (longer) form to the stem.
    """
    a = tuple(a)
    b = tuple(b)
    if not a or not b:
        raise ValidationError("forms must be non-empty")
    if a == b:
        return ColexMatch(kind="full")

    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    if len(shorter) >= params.min_form_len:
        if longer[: len(shorter)] == shorter or longer[-len(shorter):] == shorter:
            direction = "b_derived_from_a" if len(a) < len(b) else "a_derived_from_b"
            return ColexMatch(kind="affix", direction=direction)

    if _longest_common_block(a, b) >= params.min_overlap_len:
        return ColexMatch(kind="overlap")
    return ColexMatch(kind="none")


def _candidate_form_pairs(forms, params: ColexParams) -> set:
    """Sorted pairs of one language's forms that can classify as anything but
    none: equal forms, a form and each proper prefix or suffix of length >=
    min_form_len, and forms sharing a k-gram (k = min_overlap_len), which is
    exactly when they share a block of length >= k.
    """
    pairs = {(f, f) for f in forms}
    for f in forms:
        for n in range(params.min_form_len, len(f)):
            for stem in (f[:n], f[-n:]):
                if stem in forms:
                    pairs.add((min(stem, f), max(stem, f)))
    k = params.min_overlap_len
    grams = {}
    for f in sorted(forms):  # so every bucket, and each pair from it, is sorted
        for gram in {f[s: s + k] for s in range(len(f) - k + 1)}:
            grams.setdefault(gram, []).append(f)
    for bucket in grams.values():
        pairs.update(combinations(bucket, 2))
    return pairs


def _attestations(wordlist: Wordlist, params: ColexParams) -> dict:
    """Attesting families per edge key for every network type, in one pass.

    Keys are (derived, stem) concepts in "affix" and sorted concept pairs in
    "full", "overlap" and "affix_undirected".
    """
    concepts_by_form = {}  # language -> form -> concepts with that form
    for entry in wordlist.entries:
        forms = concepts_by_form.setdefault(entry.language, {})
        forms.setdefault(entry.form, []).append(entry.concept)

    families = wordlist.families
    tables = {kind: {} for kind in ("full", "affix", "affix_undirected", "overlap")}
    for language, forms in concepts_by_form.items():
        family = families[language]
        for fa, fb in _candidate_form_pairs(forms, params):
            match = classify_pair(fa, fb, params)
            if match.kind == "none":
                continue
            for ca, cb in product(forms[fa], forms[fb]):
                if ca == cb:
                    continue
                pair = (min(ca, cb), max(ca, cb))
                if match.kind == "affix":
                    derived = (ca, cb) if match.direction == "a_derived_from_b" else (cb, ca)
                    tables["affix"].setdefault(derived, set()).add(family)
                    tables["affix_undirected"].setdefault(pair, set()).add(family)
                else:
                    tables[match.kind].setdefault(pair, set()).add(family)
    return tables


def _family_count_graph(wordlist: Wordlist, attesting: dict, kind: str, directed: bool) -> ColexGraph:
    edges = [(src, dst, len(fams)) for (src, dst), fams in sorted(attesting.items())]
    concepts = {e.concept for e in wordlist.entries}
    return make_graph(edges, kind, directed, "family_count", extra_nodes=concepts)


def infer_network(
    wordlist: Wordlist, kind: str, params: ColexParams = ColexParams()
) -> ColexGraph:
    """Build the colexification network of one type from a wordlist.

    Every language contributes an attestation for each concept pair whose
    forms classify as `kind`; the edge weight is the number of distinct
    families with at least one attestation. Affix networks are directed
    (derived-form concept -> stem concept); full and overlap networks are
    undirected. All wordlist concepts stay in the node set, so concepts
    without edges remain as isolated nodes. Only form pairs that an index
    of forms, affixes and k-grams finds are classified, each once.
    """
    if kind not in ("full", "affix", "overlap"):
        raise ValidationError(f"unknown colexification type {kind!r}")
    attesting = _attestations(wordlist, params)[kind]
    return _family_count_graph(wordlist, attesting, kind, directed=(kind == "affix"))


def infer_undirected_network(
    wordlist: Wordlist, kind: str, params: ColexParams = ColexParams()
) -> ColexGraph:
    """Undirected network with exact family counts over both edge directions.

    For affix colexifications this recounts from the raw attestations, so a
    family attesting only A->B and another attesting only B->A yield weight
    2, where max-merging the directed graph after the fact would give 1.
    For full and overlap networks it equals infer_network.
    """
    if kind != "affix":
        return infer_network(wordlist, kind, params)
    attesting = _attestations(wordlist, params)["affix_undirected"]
    return _family_count_graph(wordlist, attesting, "affix", directed=False)
