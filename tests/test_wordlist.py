import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colexvec.errors import ParseError, ValidationError
from colexvec.graph import to_undirected
from colexvec.wordlist import (
    ColexMatch,
    ColexParams,
    Wordlist,
    WordlistEntry,
    classify_pair,
    infer_network,
    infer_undirected_network,
    load_wordlist,
)

# ---------------------------------------------------------------------------
# independent oracle: naive classification + explicit family-set union counts


def oracle_classify(a, b, params):
    a, b = tuple(a), tuple(b)
    if a == b:
        return "full", None
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    if len(shorter) >= params.min_form_len:
        if tuple(longer[: len(shorter)]) == shorter or tuple(longer[len(longer) - len(shorter):]) == shorter:
            return "affix", ("b_derived_from_a" if len(a) < len(b) else "a_derived_from_b")
    k = params.min_overlap_len
    for i in range(len(a) - k + 1):
        for j in range(len(b) - k + 1):
            if a[i: i + k] == b[j: j + k]:
                return "overlap", None
    return "none", None


def oracle_network_weights(wordlist, kind, params, undirected=False):
    """Family counts per edge; affix keys are (derived, stem) unless undirected."""
    families = {}
    for ea in wordlist.entries:
        for eb in wordlist.entries:
            if ea.language != eb.language or ea.concept >= eb.concept:
                continue
            label, direction = oracle_classify(ea.form, eb.form, params)
            if label != kind:
                continue
            if kind == "affix" and not undirected:
                key = (ea.concept, eb.concept) if direction == "a_derived_from_b" else (eb.concept, ea.concept)
            else:
                key = (ea.concept, eb.concept)
            families.setdefault(key, set()).add(ea.family)
    return {key: len(f) for key, f in families.items()}


def random_wordlist(rng):
    """Up to 20 entries over at most 4 languages and 3 families."""
    n_families = rng.randint(1, 3)
    n_languages = rng.randint(1, 4)
    concepts = ["TREE", "FOREST", "BARK", "SKIN", "MOON", "FIRE"]
    entries = []
    for li in range(n_languages):
        language = f"lang{li}"
        family = f"fam{rng.randint(0, n_families - 1)}"
        for _ in range(rng.randint(1, 5)):
            concept = rng.choice(concepts)
            form = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
            entries.append(WordlistEntry(language, family, concept, form))
    return Wordlist(entries=tuple(entries))


# ---------------------------------------------------------------------------
# classification


def test_classify_full_yaqui_row():
    form = ["dʒ", "u", "j", "a"]
    assert classify_pair(form, form).kind == "full"


def test_classify_affix_guilin_row():
    params = ColexParams(min_form_len=2)
    match = classify_pair(["ɕ", "y"], ["ɕ", "y", "l", "i", "ŋ"], params)
    assert match.kind == "affix"
    assert match.direction == "b_derived_from_a"  # the longer form is the derived one


def test_classify_overlap_fuzhou_row():
    params = ColexParams(min_overlap_len=3)
    match = classify_pair(
        ["tsʰ", "j", "eu", "pʰ", "w", "oi"],
        ["tsʰ", "j", "eu", "l", "i", "ŋ"],
        params,
    )
    assert match.kind == "overlap"
    assert match.direction is None


def test_classify_disjoint_is_none():
    assert classify_pair(["a", "b"], ["c", "d"]).kind == "none"


def test_classify_suffix_affix():
    match = classify_pair(["x", "k", "o", "r"], ["k", "o", "r"])
    assert match.kind == "affix"
    assert match.direction == "a_derived_from_b"


def test_classify_thresholds():
    # stem below min_form_len: affix blocked, overlap needs min_overlap_len
    assert classify_pair(["c", "y"], ["c", "y", "l"]).kind == "none"
    assert classify_pair(["a", "b", "c", "d", "x"], ["z", "a", "b", "c", "d"]).kind == "overlap"


def test_colex_match_direction_invariant():
    with pytest.raises(ValidationError):
        ColexMatch(kind="full", direction="a_derived_from_b")
    with pytest.raises(ValidationError):
        ColexMatch(kind="affix")


token = st.sampled_from(["a", "b", "c", "ŋ"])
forms = st.lists(token, min_size=1, max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(forms, forms)
def test_classify_symmetric_kind_antisymmetric_direction(a, b):
    params = ColexParams(min_form_len=2, min_overlap_len=2)
    ab = classify_pair(a, b, params)
    ba = classify_pair(b, a, params)
    assert ab.kind == ba.kind
    if ab.kind == "affix" and len(a) != len(b):
        assert {ab.direction, ba.direction} == {"a_derived_from_b", "b_derived_from_a"}


# ---------------------------------------------------------------------------
# loading


def test_load_wordlist_yaqui(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_text(
        "LANGUAGE\tFAMILY\tCONCEPT\tFORM\n"
        "Yaqui\tUto-Aztecan\tTREE\tdʒ u j a\n"
        "Yaqui\tUto-Aztecan\tFOREST\tdʒ u j a\n",
        encoding="utf-8",
    )
    wl = load_wordlist(path)
    assert len(wl.entries) == 2
    assert sorted(wl.families) == ["Yaqui"]
    assert set(wl.families.values()) == {"Uto-Aztecan"}


def test_load_wordlist_header_only(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_text("LANGUAGE\tFAMILY\tCONCEPT\tFORM\n", encoding="utf-8")
    assert load_wordlist(path).entries == ()


def test_load_wordlist_conflicting_family(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_text(
        "LANGUAGE\tFAMILY\tCONCEPT\tFORM\nX\tF1\tTREE\ta\nX\tF2\tBARK\tb\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError):
        load_wordlist(path)


def test_load_wordlist_duplicate_row_under_other_family(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_text(
        "LANGUAGE\tFAMILY\tCONCEPT\tFORM\nX\tF1\tTREE\ta\nX\tF2\tTREE\ta\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="families 'F1' and 'F2'"):
        load_wordlist(path)


def test_load_wordlist_empty_form(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_text(
        "LANGUAGE\tFAMILY\tCONCEPT\tFORM\nX\tF1\tTREE\ta\nX\tF1\tBARK\t\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc:
        load_wordlist(path)
    assert exc.value.line_no == 3


def test_load_wordlist_collapses_duplicates(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_text(
        "LANGUAGE\tFAMILY\tCONCEPT\tFORM\nX\tF1\tTREE\ta b\nX\tF1\tTREE\ta b\n",
        encoding="utf-8",
    )
    assert len(load_wordlist(path).entries) == 1


# ---------------------------------------------------------------------------
# network inference


def table1_wordlist():
    rows = [
        ("Yaqui", "Uto-Aztecan", "TREE", ("dʒ", "u", "j", "a")),
        ("Yaqui", "Uto-Aztecan", "FOREST", ("dʒ", "u", "j", "a")),
        ("Guilin", "Sino-Tibetan", "BARK", ("p", "i", "k", "o")),
    ]
    return Wordlist(entries=tuple(WordlistEntry(*r) for r in rows))


def test_infer_full_single_edge():
    g = infer_network(table1_wordlist(), "full")
    assert g.edges == (("FOREST", "TREE", 1.0),)
    assert g.nodes == frozenset({"TREE", "FOREST", "BARK"})
    assert not g.directed


def test_infer_full_second_family_doubles_weight():
    base = table1_wordlist()
    extra = [
        WordlistEntry("Other", "Altaic", e.concept, e.form) for e in base.entries
    ]
    wl = Wordlist(entries=base.entries + tuple(extra))
    g = infer_network(wl, "full")
    assert g.edges == (("FOREST", "TREE", 2.0),)


def test_infer_same_family_counts_once():
    base = table1_wordlist()
    extra = [
        WordlistEntry("Mayo", "Uto-Aztecan", e.concept, e.form) for e in base.entries
    ]
    wl = Wordlist(entries=base.entries + tuple(extra))
    g = infer_network(wl, "full")
    assert g.edges == (("FOREST", "TREE", 1.0),)


def test_infer_affix_no_matches():
    g = infer_network(table1_wordlist(), "affix")
    assert g.n_edges == 0
    assert g.directed
    assert g.n_nodes == 3  # concepts stay as isolated nodes


def test_infer_affix_direction():
    rows = [
        ("L", "F", "TREE", ("t", "u", "m", "a")),
        ("L", "F", "WOOD", ("t", "u", "m", "a", "w", "i")),
    ]
    g = infer_network(Wordlist(entries=tuple(WordlistEntry(*r) for r in rows)), "affix")
    assert g.edges == (("WOOD", "TREE", 1.0),)  # derived form -> stem


def test_infer_unknown_kind():
    with pytest.raises(ValidationError):
        infer_network(table1_wordlist(), "partial")


def test_infer_weight_bounded_by_families():
    rng = random.Random(7)
    for _ in range(20):
        wl = random_wordlist(rng)
        n_families = len(set(wl.families.values()))
        for kind in ("full", "affix", "overlap"):
            g = infer_network(wl, kind, ColexParams(min_form_len=2, min_overlap_len=2))
            assert all(w <= n_families for _, _, w in g.edges)


def test_undirected_affix_recounts_family_unions():
    # alpha attests WOOD->TREE, beta attests TREE-prefix on the other side:
    # exact union counting sees two families where max-merge sees one each way
    rows = [
        ("L1", "alpha", "TREE", ("t", "u", "m", "a")),
        ("L1", "alpha", "WOOD", ("t", "u", "m", "a", "w", "i")),
        ("L2", "beta", "WOOD", ("k", "o", "r", "a")),
        ("L2", "beta", "TREE", ("k", "o", "r", "a", "l", "i")),
    ]
    wl = Wordlist(entries=tuple(WordlistEntry(*r) for r in rows))
    directed = infer_network(wl, "affix")
    assert sorted(directed.edges) == [("TREE", "WOOD", 1.0), ("WOOD", "TREE", 1.0)]
    merged = to_undirected(directed)
    assert merged.edges == (("TREE", "WOOD", 1.0),)  # max merge undercounts
    exact = infer_undirected_network(wl, "affix")
    assert exact.edges == (("TREE", "WOOD", 2.0),)
    assert not exact.directed


def test_undirected_network_equals_directed_for_symmetric_kinds():
    rng = random.Random(31)
    params = ColexParams(min_form_len=2, min_overlap_len=2)
    for _ in range(10):
        wl = random_wordlist(rng)
        for kind in ("full", "overlap"):
            assert infer_undirected_network(wl, kind, params) == infer_network(wl, kind, params)


@pytest.mark.parametrize("kind", ["full", "affix", "overlap"])
def test_infer_matches_brute_force_oracle(kind):
    rng = random.Random({"full": 1, "affix": 2, "overlap": 3}[kind])
    params = ColexParams(min_form_len=2, min_overlap_len=2)
    for _ in range(60):
        wl = random_wordlist(rng)
        g = infer_network(wl, kind, params)
        got = {(s, t): w for s, t, w in g.edges}
        if kind != "affix":  # oracle keys are unordered for full/overlap
            got = {(min(s, t), max(s, t)): w for (s, t), w in got.items()}
        assert got == {k: float(v) for k, v in oracle_network_weights(wl, kind, params).items()}


def network_weights(g):
    """Edge weights keyed like oracle_network_weights: sorted pairs if undirected."""
    if g.directed:
        return {(s, t): w for s, t, w in g.edges}
    return {(min(s, t), max(s, t)): w for s, t, w in g.edges}


def assert_networks_match_oracle(wl, params):
    for kind in ("full", "affix", "overlap"):
        expected = oracle_network_weights(wl, kind, params)
        assert network_weights(infer_network(wl, kind, params)) == {k: float(v) for k, v in expected.items()}
    expected = oracle_network_weights(wl, "affix", params, undirected=True)
    got = network_weights(infer_undirected_network(wl, "affix", params))
    assert got == {k: float(v) for k, v in expected.items()}


def test_inference_does_not_classify_pairs_again(monkeypatch):
    # each type's index yields exactly its form pairs, so neither the
    # reference classifier nor its block search runs during inference
    def unreachable(*args):
        raise AssertionError("inference classified a form pair")

    monkeypatch.setattr("colexvec.wordlist.classify_pair", unreachable)
    monkeypatch.setattr("colexvec.wordlist._longest_common_block", unreachable)
    rng = random.Random(11)
    params = ColexParams(min_form_len=2, min_overlap_len=1)
    for _ in range(10):
        assert_networks_match_oracle(random_wordlist(rng), params)


@st.composite
def wordlists_and_params(draw):
    alphabet = draw(st.lists(st.sampled_from(["a", "b", "c", "ŋ", "tʰ"]), min_size=1, max_size=3, unique=True))
    params = ColexParams(min_form_len=draw(st.integers(1, 4)), min_overlap_len=draw(st.integers(1, 4)))
    family_of = draw(st.lists(st.sampled_from(["fam0", "fam1"]), min_size=3, max_size=3))
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["TREE", "FOREST", "BARK", "SKIN", "MOON"]),
            st.lists(st.sampled_from(alphabet), min_size=1, max_size=7).map(tuple),
        ),
        max_size=24,
    ))
    entries = tuple(WordlistEntry(f"lang{li}", family_of[li], concept, form) for li, concept, form in rows)
    return Wordlist(entries=entries), params


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wordlists_and_params())
def test_indexed_networks_match_oracle_for_any_thresholds(case):
    # covers min_form_len > min_overlap_len and min_overlap_len = 1
    assert_networks_match_oracle(*case)
    # a concept per entry names one (language, form), so every edge has a
    # single attesting form pair and a wrong pair cannot hide behind a right one
    wl, params = case
    renamed = tuple(
        WordlistEntry(e.language, e.family, f"{e.language}/{e.concept}/{' '.join(e.form)}", e.form)
        for e in wl.entries
    )
    assert_networks_match_oracle(Wordlist(entries=renamed), params)


def test_indexed_networks_match_oracle_on_skewed_segments():
    # Zipf-distributed segments put most forms into a few large k-gram buckets
    rng = random.Random(5)
    segments = ["a", "e", "i", "k", "t", "n", "s", "ŋ"]
    zipf = [1.0 / rank for rank in range(1, len(segments) + 1)]
    concepts = [f"C{i:03d}" for i in range(150)]
    entries = []
    for language, family in (("L1", "fam0"), ("L2", "fam1"), ("L3", "fam0")):
        for _ in range(300):
            form = tuple(rng.choices(segments, weights=zipf, k=rng.randint(1, 6)))
            entries.append(WordlistEntry(language, family, rng.choice(concepts), form))
    wl = Wordlist(entries=tuple(entries))
    # with the defaults, stems of 3 segments pair up through the affix index
    # alone, since they share no 4-gram with their derived forms
    for params in (ColexParams(min_form_len=2, min_overlap_len=2), ColexParams()):
        assert_networks_match_oracle(wl, params)
