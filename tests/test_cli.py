import argparse
import dataclasses
import gc
import inspect
import json
import logging
import os
import shlex
import shutil
import subprocess
import sys
import warnings
import weakref
from importlib import resources
from pathlib import Path

import golden
import numpy as np
import pytest

import colexvec.cli as cli
from colexvec.cli import run
from colexvec.embeddings import EmbeddingSet, load_embedding, save_embedding
from colexvec.evaluation import eval_binary, filter_association_pairs, load_concept_pairs
from colexvec.graph import load_graph, make_graph, save_graph
from colexvec.node2vec import SkipGramConfig, WalkConfig
from colexvec.prone import ProneConfig
from colexvec.viz import tsne_project
from colexvec.wordlist import ColexParams

DATA = resources.files("colexvec") / "data"


def data_path(name):
    return str(DATA / name)


def toy_graph(tmp_path, colex_type="full"):
    out = tmp_path / f"{colex_type}.tsv"
    code = run([
        "colexify", "--wordlist", data_path("toy_wordlist.tsv"),
        "--type", colex_type, "--out", str(out),
    ])
    assert code == 0
    return out


def separable_embedding(tmp_path):
    """Attested pairs share a basis direction; everything else is orthogonal."""
    vectors = {}
    for i, pair in enumerate((("TREE", "FOREST"), ("MOON", "MONTH"), ("BARK", "SKIN"))):
        for concept in pair:
            vec = np.zeros(8)
            vec[i] = 1.0
            vectors[concept] = vec
    for j, concept in enumerate(("FIRE", "WATER", "RAIN", "WOOD", "FIREWOOD")):
        vec = np.zeros(8)
        vec[3 + j % 5] = 1.0
        vectors[concept] = vec
    path = tmp_path / "separable.txt"
    save_embedding(EmbeddingSet(list(vectors), list(vectors.values())), path)
    return path


# ---------------------------------------------------------------------------
# subcommands


def test_colexify_writes_expected_graph(tmp_path, capsys):
    out = toy_graph(tmp_path, "full")
    g = load_graph(out)
    assert g.n_nodes == 11 and g.n_edges == 3
    assert "11 nodes, 3 edges" in capsys.readouterr().out


@pytest.mark.parametrize("flag, message", [
    ("--min-form-len", "min_form_len must be >= 1, got 0"),
    ("--min-overlap-len", "min_overlap_len must be >= 1, got 0"),
])
def test_colexify_rejects_bad_thresholds(tmp_path, capsys, flag, message):
    code = run(["colexify", "--wordlist", data_path("toy_wordlist.tsv"), "--type", "full",
                flag, "0", "--out", str(tmp_path / "g.tsv")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.tsv").exists()


def test_colexify_affix_is_directed(tmp_path):
    g = load_graph(toy_graph(tmp_path, "affix"))
    assert g.directed and g.colex_type == "affix"
    assert g.n_edges == 7


def test_embed_prone_byte_reproducible(tmp_path):
    graph = toy_graph(tmp_path)
    args = ["embed", "--graph", str(graph), "--method", "prone",
            "--seed", "1", "--dim", "4"]
    assert run(args + ["--out", str(tmp_path / "a.txt")]) == 0
    assert run(args + ["--out", str(tmp_path / "b.txt")]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_embed_node2vec_byte_reproducible(tmp_path):
    graph = toy_graph(tmp_path)
    args = ["embed", "--graph", str(graph), "--method", "node2vec", "--seed", "2",
            "--dim", "4", "--epochs", "3", "--walks-per-node", "3"]
    assert run(args + ["--out", str(tmp_path / "a.txt")]) == 0
    assert run(args + ["--out", str(tmp_path / "b.txt")]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_embed_requires_seed(tmp_path, capsys):
    graph = toy_graph(tmp_path)
    code = run(["embed", "--graph", str(graph), "--method", "prone",
                "--out", str(tmp_path / "e.txt")])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["prone", "node2vec"])
def test_embed_graph_without_edges_exits_1(tmp_path, capsys, method):
    graph = tmp_path / "bare.tsv"
    graph.write_text("SOURCE\tTARGET\tWEIGHT\n", encoding="utf-8")
    (tmp_path / "bare.tsv.json").write_text('{"isolated_nodes": ["FIRE", "WATER"]}',
                                             encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["embed", "--graph", str(graph), "--method", method, "--seed", "1",
                    "--dim", "2", "--out", str(tmp_path / "e.txt")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {graph}: no edges to embed\n"
    assert not (tmp_path / "e.txt").exists()


def test_embed_node2vec_walk_length_one_exits_1_naming_the_option(tmp_path, capsys):
    graph = toy_graph(tmp_path)
    code = run(["embed", "--graph", str(graph), "--method", "node2vec", "--seed", "1",
                "--dim", "2", "--walk-length", "1", "--out", str(tmp_path / "e.txt")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: walk_length must be >= 2 to yield skip-gram pairs, got 1\n")
    assert not (tmp_path / "e.txt").exists()


def test_embed_option_defaults_are_the_config_defaults(tmp_path):
    ns = cli.build_parser().parse_args(["embed", "--graph", "g", "--method", "prone",
                                        "--out", "o", "--seed", "3"])
    for config in (WalkConfig, SkipGramConfig, ProneConfig):
        for field in dataclasses.fields(config):
            if field.name != "seed":
                value = getattr(ns, field.name)
                assert value == field.default and type(value) is type(field.default), field.name
    assert ns.seed == 3


def test_restated_option_defaults_are_the_library_defaults():
    parse = cli.build_parser().parse_args
    colexify = parse(["colexify", "--wordlist", "w", "--type", "full", "--out", "o"])
    for field in dataclasses.fields(ColexParams):
        assert getattr(colexify, field.name) == field.default, field.name
    binary = [parse([command, "--sim", "s", "--pairs", "p", "--report", "r", "--seed", "1"])
              for command in ("eval-shift", "eval-links")]
    viz = parse(["viz", "--embedding", "e", "--out", "o", "--seed", "1"])
    for namespaces, function, keywords in (
            (binary, eval_binary, ["runs"]),
            (binary[1:], filter_association_pairs, ["min_weight"]),
            ([viz], tsne_project, ["perplexity", "iterations"])):
        parameters = inspect.signature(function).parameters
        for ns in namespaces:
            for keyword in keywords:
                value, default = getattr(ns, keyword), parameters[keyword].default
                assert value == default and type(value) is type(default), keyword


def test_embed_prone_dim_above_the_node_count_names_the_graph(tmp_path, capsys):
    graph = tmp_path / "four.tsv"
    graph.write_text("SOURCE\tTARGET\tWEIGHT\nA\tB\t1\nB\tC\t2\nC\tD\t1\n", encoding="utf-8")
    argv = ["embed", "--graph", str(graph), "--method", "prone", "--seed", "1"]
    assert run(argv + ["--dim", "5", "--out", str(tmp_path / "e5.emb")]) == 1
    assert capsys.readouterr().err == f"error: {graph}: dim 5 exceeds the graph's 4 nodes\n"
    assert not (tmp_path / "e5.emb").exists()
    assert run(argv + ["--dim", "4", "--out", str(tmp_path / "e4.emb")]) == 0
    assert load_embedding(tmp_path / "e4.emb").values.shape == (4, 4)


def negative_seed_argv(tmp_path, command):
    if command.startswith("embed"):
        return ["embed", "--graph", str(toy_graph(tmp_path)), "--method", command[6:],
                "--dim", "2", "--out", str(tmp_path / "out"), "--seed", "-1"]
    emb = str(separable_embedding(tmp_path))
    if command == "viz":
        return ["viz", "--embedding", emb, "--perplexity", "3", "--out", str(tmp_path / "out"),
                "--seed", "-1"]
    pairs = "toy_association_pairs.tsv" if command == "eval-links" else "toy_shift_pairs.tsv"
    return [command, "--sim", emb, "--pairs", data_path(pairs), "--runs", "2",
            "--report", str(tmp_path / "out"), "--seed", "-1"]


@pytest.mark.parametrize("command", ["embed-prone", "embed-node2vec", "eval-shift",
                                     "eval-links", "viz"])
def test_negative_seed_exits_1_naming_the_field(tmp_path, capsys, command):
    argv = negative_seed_argv(tmp_path, command)
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not list(tmp_path.glob("out*"))


# every leaf of the star has the same neighbourhood, the center
STAR = make_graph([("C0", f"L{i}", 1) for i in range(1, 5)], "full", False)


@pytest.mark.parametrize("rate, warns", [("1e-6", True), ("1", False)])
def test_embed_warns_when_node2vec_vectors_did_not_move(tmp_path, capsys, rate, warns):
    graph, out = tmp_path / "star.tsv", tmp_path / "star.emb"
    save_graph(STAR, graph)
    assert run(["embed", "--graph", str(graph), "--method", "node2vec", "--seed", "1",
                "--dim", "8", "--epochs", "5", "--walks-per-node", "20",
                "--learning-rate", rate, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    if warns:
        assert err.startswith(f"warning: {out}: the vectors barely moved from their start: ")
        assert err.endswith("raise --learning-rate (1e-06)\n") and err.count("\n") == 1
    else:
        assert err == ""


def test_embed_undirects_affix_graph(tmp_path):
    graph = toy_graph(tmp_path, "affix")
    code = run(["embed", "--graph", str(graph), "--method", "prone",
                "--seed", "3", "--dim", "4", "--out", str(tmp_path / "e.txt")])
    assert code == 0
    es = load_embedding(tmp_path / "e.txt")
    assert "TREE" in es.vectors


def test_combine_cli(tmp_path):
    full = toy_graph(tmp_path, "full")
    affix = toy_graph(tmp_path, "affix")
    for name, graph in (("full.emb", full), ("affix.emb", affix)):
        run(["embed", "--graph", str(graph), "--method", "prone",
             "--seed", "1", "--dim", "4", "--out", str(tmp_path / name)])
    code = run(["combine", "--inputs",
                f"{tmp_path / 'full.emb'},{tmp_path / 'affix.emb'}",
                "--out", str(tmp_path / "fused.emb"), "--dim", "4"])
    assert code == 0
    fused = load_embedding(tmp_path / "fused.emb")
    full_cov = frozenset(load_embedding(tmp_path / "full.emb").concepts)
    affix_cov = frozenset(load_embedding(tmp_path / "affix.emb").concepts)
    assert frozenset(fused.concepts) == full_cov | affix_cov


def test_baseline_pair_scores(tmp_path):
    graph = toy_graph(tmp_path)
    out = tmp_path / "scores.tsv"
    code = run(["baseline", "--graph", str(graph), "--method", "shortest-path",
                "--pairs", data_path("toy_shift_pairs.tsv"), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "CONCEPT_A\tCONCEPT_B\tSCORE"
    scores = {tuple(l.split("\t")[:2]): float(l.split("\t")[2]) for l in lines[1:]}
    assert scores[("TREE", "FOREST")] == pytest.approx(1.0)  # weight 1 edge inverted


def test_baseline_matrix_dump(tmp_path):
    graph = toy_graph(tmp_path)
    out = tmp_path / "matrix.tsv"
    code = run(["baseline", "--graph", str(graph), "--method", "ppmi", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    g = load_graph(graph)
    assert len(lines) == g.n_nodes + 1
    header = lines[0].split("\t")
    assert header[0] == "CONCEPT" and len(header) == g.n_nodes + 1


@pytest.mark.parametrize("method", ["shortest-path", "cosine", "ppmi", "random-walk"])
def test_baseline_on_a_graph_without_nodes_dumps_the_header(tmp_path, capsys, method):
    graph = tmp_path / "empty.tsv"  # header only, no sidecar: a 0 x 0 table
    graph.write_text("SOURCE\tTARGET\tWEIGHT\n", encoding="utf-8")
    out = tmp_path / "matrix.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["baseline", "--graph", str(graph), "--method", method, "--out", str(out)])
    assert code == 0
    assert "0x0 similarity matrix" in capsys.readouterr().out
    assert out.read_bytes() == b"CONCEPT\n"


@pytest.mark.parametrize("method", ["shortest-path", "cosine", "ppmi", "random-walk"])
def test_baseline_pair_scores_match_matrix_dump(tmp_path, method):
    graph = toy_graph(tmp_path)
    pairs, matrix = tmp_path / "pairs.tsv", tmp_path / "matrix.tsv"
    assert run(["baseline", "--graph", str(graph), "--method", method,
                "--pairs", data_path("toy_shift_pairs.tsv"), "--out", str(pairs)]) == 0
    assert run(["baseline", "--graph", str(graph), "--method", method,
                "--out", str(matrix)]) == 0
    header, *rows = matrix.read_text(encoding="utf-8").splitlines()
    columns = header.split("\t")[1:]
    cells = {}
    for row in rows:
        concept, *values = row.split("\t")
        cells.update({(concept, c): v for c, v in zip(columns, values)})
    scored = pairs.read_text(encoding="utf-8").splitlines()[1:]
    assert scored
    for line in scored:
        a, b, value = line.split("\t")
        assert value == cells[a, b]


@pytest.mark.parametrize("method", ["shortest-path", "cosine", "ppmi", "random-walk"])
def test_baseline_pair_dump_bytes_equal_per_value_format(tmp_path, method):
    graph = toy_graph(tmp_path)
    out = tmp_path / "pairs.tsv"
    assert run(["baseline", "--graph", str(graph), "--method", method,
                "--pairs", data_path("toy_shift_pairs.tsv"), "--out", str(out)]) == 0
    pairs = load_concept_pairs(data_path("toy_shift_pairs.tsv"))
    scores = cli._provider(method, graph).score_pairs([p.a for p in pairs], [p.b for p in pairs])
    expected = "CONCEPT_A\tCONCEPT_B\tSCORE\n" + "".join(
        f"{p.a}\t{p.b}\t{format(float(s), '.8g')}\n" for p, s in zip(pairs, scores))
    assert out.read_bytes() == expected.encode("utf-8")


def test_eval_lsim_embedding_and_baseline_spec(tmp_path):
    graph = toy_graph(tmp_path)
    emb = separable_embedding(tmp_path)
    report_path = tmp_path / "r.json"
    code = run(["eval-lsim", "--sim", str(emb),
                "--pairs", data_path("toy_rated_pairs.tsv"),
                "--report", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["report"]["task"] == "lsim"
    assert doc["report"]["coverage"] == 1.0
    assert "config_digest" in doc and doc["inputs"]

    code = run(["eval-lsim", "--sim", f"shortest-path:{graph}",
                "--pairs", data_path("toy_rated_pairs.tsv"),
                "--report", str(tmp_path / "r2.json")])
    assert code == 0
    doc2 = json.loads((tmp_path / "r2.json").read_text(encoding="utf-8"))
    assert doc2["report"]["metric"] < 0  # distances anti-correlate with ratings


def test_eval_shift_separable_provider(tmp_path):
    emb = separable_embedding(tmp_path)
    report_path = tmp_path / "shift.json"
    code = run(["eval-shift", "--sim", str(emb),
                "--pairs", data_path("toy_shift_pairs.tsv"),
                "--runs", "5", "--seed", "9", "--report", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    # TREE/FOREST, MOON/MONTH, BARK/SKIN are separable; FIRE/FIREWOOD and
    # WATER/RAIN collide with the orthogonal filler directions
    assert doc["report"]["coverage"] == 1.0
    assert doc["report"]["runs"] == 5
    assert doc["report"]["seed"] == 9


def test_eval_shift_perfect_on_clean_pairs(tmp_path):
    emb = separable_embedding(tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        "CONCEPT_A\tCONCEPT_B\nTREE\tFOREST\nMOON\tMONTH\nBARK\tSKIN\n",
        encoding="utf-8",
    )
    report_path = tmp_path / "shift.json"
    code = run(["eval-shift", "--sim", str(emb), "--pairs", str(pairs),
                "--runs", "10", "--seed", "4", "--report", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["report"]["metric"] == 1.0


def test_eval_links_filters_and_reports(tmp_path, capsys):
    emb = separable_embedding(tmp_path)
    report_path = tmp_path / "links.json"
    code = run(["eval-links", "--sim", str(emb),
                "--pairs", data_path("toy_association_pairs.tsv"),
                "--runs", "5", "--seed", "2", "--min-weight", "5",
                "--report", str(report_path)])
    assert code == 0
    printed = capsys.readouterr().out
    # weight-4 edge dropped; FIRE-SUN kept, but not scored (SUN outside the embedded space)
    assert "filtered association network: 11 concepts, 6 edges" in printed
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["report"]["task"] == "links"
    assert doc["report"]["coverage"] == 5 / 6


def test_eval_links_with_no_covered_pair_exits_1(tmp_path, capsys):
    emb = separable_embedding(tmp_path)
    pairs = tmp_path / "links.tsv"
    pairs.write_text("CONCEPT_A\tCONCEPT_B\tWEIGHT\nFIRE\tSUN\t8\nTREE\tSKIN\t4\n",
                     encoding="utf-8")
    report = tmp_path / "r.json"
    assert run(["eval-links", "--sim", str(emb), "--pairs", str(pairs), "--runs", "2",
                "--seed", "1", "--min-weight", "5", "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "filtered association network: 2 concepts, 1 edges\n"
    assert captured.err == f"error: {pairs}, {emb}: no positive pair is covered by the provider\n"
    assert not report.exists()


def test_eval_lsim_constant_ratings_exit_1_naming_the_pairs_file(tmp_path, capsys):
    emb = separable_embedding(tmp_path)
    pairs = tmp_path / "rated.tsv"
    pairs.write_text("CONCEPT_A\tCONCEPT_B\tRATING\nTREE\tFOREST\t3\nMOON\tMONTH\t3\n"
                     "BARK\tSKIN\t3\nFIRE\tWATER\t3\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert run(["eval-lsim", "--sim", str(emb), "--pairs", str(pairs),
                "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pairs}, {emb}: all 4 covered pairs have rating 3; "
        "Spearman's rho is undefined\n")
    assert not report.exists()


def test_eval_shift_uncorruptible_pair_exits_1_naming_its_concepts(tmp_path, capsys):
    emb = tmp_path / "two.emb"
    save_embedding(EmbeddingSet(["A", "B"], np.eye(2)), emb)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("CONCEPT_A\tCONCEPT_B\nA\tB\n", encoding="utf-8")
    assert run(["eval-shift", "--sim", str(emb), "--pairs", str(pairs), "--runs", "2",
                "--seed", "1", "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {pairs}, {emb}: could not corrupt pair (A, B) after 1000 redraws\n")


# inputs of the data-error cases, under the names their messages print
EMB = "4 2\nA 1 0\nB 0 1\nC 1 1\nD 1 -1\n"
TWO_EMB = "2 2\nA 1 0\nB 0 1\n"
RATED = "CONCEPT_A\tCONCEPT_B\tRATING\n"
PAIRS = "CONCEPT_A\tCONCEPT_B\n"
LSIM_ONE_OF_THREE = {"e.emb": EMB, "rated.tsv": RATED + "A\tB\t1\nA\tZ\t2\nB\tZ\t3\n"}
LSIM_ARGV = ["eval-lsim", "--sim", "e.emb", "--pairs", "rated.tsv", "--report", "r.json"]
SHIFT_ARGV = ["eval-shift", "--sim", "e.emb", "--pairs", "shift.tsv", "--runs", "2",
              "--seed", "1", "--report", "r.json"]


def pipeline_of(step) -> str:
    return json.dumps({"report": "report.json", "steps": [step]})


DATA_ERRORS = {
    "lsim-one-of-three-covered": (
        LSIM_ONE_OF_THREE, LSIM_ARGV,
        "rated.tsv, e.emb: only 1 of 3 pairs are covered (coverage 0.333); need at least 3"),
    "shift-no-positive-covered": (
        {"e.emb": EMB, "shift.tsv": PAIRS + "A\tZ\n"}, SHIFT_ARGV,
        "shift.tsv, e.emb: no positive pair is covered by the provider"),
    "shift-two-concept-space": (
        {"two.emb": TWO_EMB, "shift.tsv": PAIRS + "A\tB\n"},
        [("two.emb" if a == "e.emb" else a) for a in SHIFT_ARGV],
        "shift.tsv, two.emb: could not corrupt pair (A, B) after 1000 redraws"),
    "shift-header-only": (
        {"e.emb": EMB, "empty.tsv": PAIRS},
        [("empty.tsv" if a == "shift.tsv" else a) for a in SHIFT_ARGV],
        "empty.tsv, e.emb: no positive pairs given"),
    "lsim-header-only": (
        {"e.emb": EMB, "empty.tsv": RATED},
        [("empty.tsv" if a == "rated.tsv" else a) for a in LSIM_ARGV],
        "empty.tsv, e.emb: no rated pairs given"),
    "links-without-weight": (
        {"e.emb": EMB, "pairs.tsv": PAIRS + "A\tB\n"},
        ["eval-links", "--sim", "e.emb", "--pairs", "pairs.tsv", "--runs", "2", "--seed", "1",
         "--report", "r.json"],
        "pairs.tsv, e.emb: association pair (A, B) has no weight"),
    "baseline-pair-outside-the-graph": (
        {"g.tsv": "SOURCE\tTARGET\tWEIGHT\nA\tB\t1\nB\tC\t2\n", "pairs.tsv": PAIRS + "A\tZ\n"},
        ["baseline", "--graph", "g.tsv", "--method", "ppmi", "--pairs", "pairs.tsv",
         "--out", "s.tsv"],
        "g.tsv, pairs.tsv: concept 'Z' not covered by the ppmi provider"),
    "viz-two-covered-concepts": (
        {"e.emb": EMB, "two.txt": "A\nB\nZ\n"},
        ["viz", "--embedding", "e.emb", "--concepts", "two.txt", "--out", "plot", "--seed", "1"],
        "e.emb, two.txt: need at least 3 points, got 2"),
    "lsim-constant-ratings": (
        {"e.emb": EMB, "rated.tsv": RATED + "A\tB\t3\nA\tC\t3\nB\tC\t3\nC\tD\t3\n"},
        LSIM_ARGV,
        "rated.tsv, e.emb: all 4 covered pairs have rating 3; Spearman's rho is undefined"),
    "combine-fewer-concepts-than-dim": (
        {"a.emb": "2 3\nA 1 0 0\nB 0 1 0\n", "b.emb": "2 3\nA 0 0 1\nB 1 1 0\n"},
        ["combine", "--inputs", "a.emb,b.emb", "--dim", "3", "--out", "f.emb"],
        "a.emb,b.emb: dim 3 exceeds the 2 covered concepts"),
    "map-external-no-word-resolves": (
        {"v.txt": "1 2\nfire 1 0\n", "cm.tsv": "CONCEPT\tWORD\tFREQUENCY\nSUN\tsun\t1\n"},
        ["map-external", "--vectors", "v.txt", "--concept-map", "cm.tsv", "--dim", "1",
         "--out", "m.emb"],
        "v.txt, cm.tsv: dim 1 exceeds the 0 concepts that resolve to a word in the vector file"),
    "map-external-fewer-concepts-than-dim": (
        {"v.txt": "2 3\nfire 1 0 0\nsun 0 1 0\n",
         "cm.tsv": "CONCEPT\tWORD\tFREQUENCY\nFIRE\tfire\t1\n"},
        ["map-external", "--vectors", "v.txt", "--concept-map", "cm.tsv", "--dim", "2",
         "--out", "m.emb"],
        "v.txt, cm.tsv: dim 2 exceeds the 1 concepts that resolve to a word in the vector file"),
    "pipeline-eval-step": (
        {**LSIM_ONE_OF_THREE, "run.json": pipeline_of(
            {"command": "eval-lsim",
             "args": {"sim": "e.emb", "pairs": "rated.tsv", "report": "r.json"}})},
        ["pipeline", "--config", "run.json"],
        "run.json: rated.tsv, e.emb: only 1 of 3 pairs are covered (coverage 0.333); "
        "need at least 3"),
    "pipeline-embed-step": (
        {"bare.tsv": "SOURCE\tTARGET\tWEIGHT\n", "run.json": pipeline_of(
            {"command": "embed", "args": {"graph": "bare.tsv", "method": "prone", "seed": 1,
                                          "dim": 2, "out": "e.emb"}})},
        ["pipeline", "--config", "run.json"],
        "run.json: bare.tsv: no edges to embed"),
}


@pytest.mark.parametrize("files, argv, message", DATA_ERRORS.values(), ids=DATA_ERRORS)
def test_data_error_names_the_step_inputs(tmp_path, monkeypatch, capsys, files, argv, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # nothing written: no --out or --report file, and no pipeline report
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_viz_outputs(tmp_path):
    emb = separable_embedding(tmp_path)
    code = run(["viz", "--embedding", str(emb),
                "--concepts", data_path("toy_concepts.txt"),
                "--out", str(tmp_path / "plot"), "--perplexity", "3",
                "--iterations", "300", "--seed", "5"])
    assert code == 0
    lines = (tmp_path / "plot.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "CONCEPT\tX\tY"
    assert len(lines) == 9  # 8 toy concepts + header
    assert (tmp_path / "plot.svg").read_text(encoding="utf-8").startswith("<svg")


def test_viz_byte_reproducible(tmp_path):
    emb = separable_embedding(tmp_path)
    args = ["viz", "--embedding", str(emb), "--perplexity", "4",
            "--iterations", "200", "--seed", "8"]
    assert run(args + ["--out", str(tmp_path / "p1")]) == 0
    assert run(args + ["--out", str(tmp_path / "p2")]) == 0
    assert (tmp_path / "p1.tsv").read_bytes() == (tmp_path / "p2.tsv").read_bytes()
    assert (tmp_path / "p1.svg").read_bytes() == (tmp_path / "p2.svg").read_bytes()


def test_viz_plots_a_repeated_concept_once(tmp_path):
    emb = separable_embedding(tmp_path)
    concepts = (DATA / "toy_concepts.txt").read_text(encoding="utf-8")
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("TREE\n" + concepts + "MOON\nTREE\n", encoding="utf-8")
    args = ["viz", "--embedding", str(emb), "--perplexity", "3", "--iterations", "100",
            "--seed", "5"]
    assert run(args + ["--concepts", data_path("toy_concepts.txt"),
                       "--out", str(tmp_path / "once")]) == 0
    assert run(args + ["--concepts", str(repeated), "--out", str(tmp_path / "twice")]) == 0
    for suffix in (".tsv", ".svg"):
        assert ((tmp_path / f"twice{suffix}").read_bytes()
                == (tmp_path / f"once{suffix}").read_bytes())


@pytest.mark.parametrize("spec, parsed", [
    ("cosine:g.tsv", ("cosine", "g.tsv")),
    ("shortest-path:runs/a:b.tsv", ("shortest-path", "runs/a:b.tsv")),
    ("full.emb", (None, "full.emb")),
    ("prone:full.emb", (None, "prone:full.emb")),  # not a baseline method
])
def test_parse_sim(spec, parsed):
    assert cli.parse_sim(spec) == parsed


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    # a relative copy of the toy data, so no output depends on where the run happens
    commands = [shlex.split(line.replace("$TOY", "toy"), comments=True)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("colexvec ")]
    assert len(commands) == 11
    monkeypatch.chdir(tmp_path)
    shutil.copytree(str(DATA), "toy")
    stdouts = []
    for argv in commands:
        assert run(argv[1:]) == 0, argv
        stdouts.append(capsys.readouterr().out)
    golden.check("readme_cli", tmp_path, stdouts)


# ---------------------------------------------------------------------------
# pipeline


def pipeline_config(tmp_path, toy=DATA):
    graph = tmp_path / "full.tsv"
    emb = tmp_path / "full.emb"
    return {
        "name": "toy-prone-full",
        "report": str(tmp_path / "pipeline.json"),
        "steps": [
            {"command": "colexify",
             "args": {"wordlist": str(toy / "toy_wordlist.tsv"),
                      "type": "full", "out": str(graph)}},
            {"command": "embed",
             "args": {"graph": str(graph), "method": "prone", "seed": 1,
                      "dim": 4, "out": str(emb)}},
            {"command": "eval-lsim",
             "args": {"sim": str(emb), "pairs": str(toy / "toy_rated_pairs.tsv"),
                      "report": str(tmp_path / "lsim.json")}},
            {"command": "eval-shift",
             "args": {"sim": str(emb), "pairs": str(toy / "toy_shift_pairs.tsv"),
                      "runs": 5, "seed": 3, "report": str(tmp_path / "shift.json")}},
            {"command": "eval-links",
             "args": {"sim": str(emb), "pairs": str(toy / "toy_association_pairs.tsv"),
                      "runs": 5, "seed": 3, "min_weight": 5,
                      "report": str(tmp_path / "links.json")}},
        ],
    }


def test_pipeline_consolidated_report(tmp_path):
    config = pipeline_config(tmp_path)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["pipeline", "--config", str(config_path)]) == 0
    doc = json.loads((tmp_path / "pipeline.json").read_text(encoding="utf-8"))
    assert set(doc["metrics"]) == {"lsim", "shift", "links"}
    assert doc["config_digest"]
    assert data_path("toy_wordlist.tsv") in doc["input_hashes"]
    assert str(tmp_path / "full.tsv") not in doc["input_hashes"]  # intermediate


def test_pipeline_byte_identical_reruns(tmp_path, monkeypatch, capsys):
    # relative paths, so no output depends on where the run happens
    monkeypatch.chdir(tmp_path)
    shutil.copytree(str(DATA), "toy")
    config = pipeline_config(Path(), Path("toy"))
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["pipeline", "--config", str(config_path)]) == 0
    first = (tmp_path / "pipeline.json").read_bytes()
    stdout = capsys.readouterr().out
    assert run(["pipeline", "--config", str(config_path)]) == 0
    assert (tmp_path / "pipeline.json").read_bytes() == first
    golden.check("pipeline_config", tmp_path, [stdout])


def test_readme_pipeline_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Pipelines\n", 1)[1]
    config = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps(config), encoding="utf-8")
    Path("wl.tsv").write_bytes((DATA / "toy_wordlist.tsv").read_bytes())
    Path("lsim_pairs.tsv").write_bytes((DATA / "toy_rated_pairs.tsv").read_bytes())
    assert run(["pipeline", "--config", "run.json"]) == 0
    first = Path(config["report"]).read_bytes()
    # the second run's eval-lsim finds its provider already built
    assert run(["pipeline", "--config", "run.json"]) == 0
    assert Path(config["report"]).read_bytes() == first


def test_pipeline_keeps_every_metric_of_a_task(tmp_path):
    config = pipeline_config(tmp_path)
    config["steps"].append(
        {"command": "eval-lsim",
         "args": {"sim": f"shortest-path:{tmp_path / 'full.tsv'}",
                  "pairs": data_path("toy_rated_pairs.tsv"),
                  "report": str(tmp_path / "lsim_sp.json")}})
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["pipeline", "--config", str(config_path)]) == 0
    lsim = json.loads((tmp_path / "pipeline.json").read_text(encoding="utf-8"))["metrics"]["lsim"]
    assert set(lsim) == {str(tmp_path / "lsim.json"), str(tmp_path / "lsim_sp.json")}
    for report, metric in lsim.items():
        assert metric == json.loads(Path(report).read_text(encoding="utf-8"))["report"]["metric"]


@pytest.mark.parametrize("config, message", [
    ([], "top level must be a JSON object"),
    ({"report": "r.json", "steps": "colexify"}, "needs a non-empty 'steps' list"),
    ({"steps": [{"command": "colexify"}]}, "needs a 'report' output path"),
    ({"report": "r.json", "steps": [None, "colexify"]}, "steps[1]: must be an object"),
    ({"report": "r.json", "steps": [None, {"args": {}}]}, "steps[1]: needs a string 'command'"),
    ({"report": "r.json", "steps": [None, {"command": "train"}]}, "steps[1]: unknown command 'train'"),
    ({"report": "r.json", "steps": [None, {"command": "pipeline"}]}, "steps[1]: pipelines cannot nest"),
    ({"report": "r.json", "steps": [None, {"command": "colexify", "args": ["--type"]}]},
     "steps[1]: 'args' must be an object"),
    ({"report": "r.json", "steps": [None, {"command": "eval-lsim", "args": {"sim": [1]}}]},
     "steps[1]: args.sim must be a string or a number"),
    ({"report": "r.json", "steps": [None, {"command": "embed", "args": {"graph": "g.tsv"}}]},
     "steps[1]: the following arguments are required: --method, --out, --seed"),
    ({"report": "r.json", "steps": [None, {"command": "colexify", "args": {
        "wordlist": "w.tsv", "type": "full", "out": "g.tsv", "bogus": 3}}]},
     "steps[1]: unrecognized arguments: --bogus=3"),
    ({"report": "r.json", "steps": [None, {"command": "colexify", "args": {
        "wordlist": "w.tsv", "type": "full", "out": "g.tsv", "min_form_len": "x"}}]},
     "steps[1]: argument --min-form-len: invalid int value: 'x'"),
    ({"report": "r.json", "steps": [None, {"command": "colexify", "args": {"help": 1}}]},
     "steps[1]: argument -h/--help: ignored explicit argument '1'"),
    ({"report": "r.json", "steps": [None, {"command": "colexify", "args": {
        "wordlist": "w.tsv", "type": "full", "out": "g.tsv", "help": 1}}]},
     "steps[1]: argument -h/--help: ignored explicit argument '1'"),
    ({"report": "r.json", "steps": [None, {"command": "colexify", "args": {
        "wordlist": "w.tsv", "type": "full", "out": True}}]},
     "steps[1]: args.out must be a string or a number"),
    ({"report": "r.json", "steps": [None, {"command": "baseline", "args": {
        "graph": "g.tsv", "method": "random-walk", "out": "m.tsv", "alpha": 0.3}}]},
     "steps[1]: unrecognized arguments: --alpha=0.3"),
    ({"report": "r.json", "steps": [None, {"command": "embed", "args": {
        "graph": "g.tsv", "method": "node2vec", "out": "e.emb", "seed": 1, "epochs": 0}}]},
     "steps[1]: batch_size and epochs must be >= 1"),
    ({"report": "r.json", "steps": [None, {"command": "embed", "args": {
        "graph": "g.tsv", "method": "node2vec", "out": "e.emb", "seed": 1, "shift": 0.5}}]},
     "steps[1]: shift must be >= 1"),
])
def test_pipeline_rejects_malformed_config_before_any_step(tmp_path, capsys, config, message):
    graph = tmp_path / "full.tsv"
    if isinstance(config, dict) and isinstance(config["steps"], list):
        # a valid first step that must not run
        config["steps"][0] = {"command": "colexify",
                              "args": {"wordlist": data_path("toy_wordlist.tsv"),
                                       "type": "full", "out": str(graph)}}
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["pipeline", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {config_path}: {message}\n"
    assert captured.out == ""
    assert not graph.exists()


@pytest.mark.parametrize("token", ["NaN", "-Infinity", "1e400"])
def test_pipeline_rejects_a_non_finite_number_before_any_step(tmp_path, capsys, token):
    # learning_rate is a Node2Vec option on a ProNE step; the report would
    # copy it as a token that is not JSON
    config = pipeline_config(tmp_path)
    config["steps"] = config["steps"][:2]
    config["steps"][1]["args"]["learning_rate"] = "TOKEN"
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config).replace('"TOKEN"', token), encoding="utf-8")
    assert run(["pipeline", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {config_path}: bad number {token!r}\n"
    assert captured.out == ""
    assert not (tmp_path / "full.tsv").exists()
    assert not (tmp_path / "pipeline.json").exists()


def test_pipeline_step_value_may_start_with_a_dash(tmp_path, monkeypatch):
    # each argument is one "--key=value" word, so "-w.tsv" is a value, not an option
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-w.tsv").write_bytes(Path(data_path("toy_wordlist.tsv")).read_bytes())
    config = {"report": "r.json", "steps": [
        {"command": "colexify", "args": {"wordlist": "-w.tsv", "type": "full", "out": "-g.tsv"}}]}
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(["pipeline", "--config", "run.json"]) == 0
    assert (tmp_path / "-g.tsv").read_bytes() == toy_graph(tmp_path).read_bytes()
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert list(report["input_hashes"]) == ["-w.tsv"]


def test_pipeline_combine_skips_an_empty_inputs_entry(tmp_path):
    emb = separable_embedding(tmp_path)
    other = tmp_path / "other.emb"
    save_embedding(EmbeddingSet(["TREE", "MOON", "FIRE"], np.eye(3, 8)), other)
    args = {"inputs": f"{emb},{other},", "dim": 8}
    assert run(["combine", *(f"--{k}={v}" for k, v in args.items()),
                "--out", str(tmp_path / "alone.emb")]) == 0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"report": str(tmp_path / "p.json"), "steps": [
        {"command": "combine", "args": {**args, "out": str(tmp_path / "step.emb")}}]}),
        encoding="utf-8")
    assert run(["pipeline", "--config", str(config)]) == 0
    assert (tmp_path / "step.emb").read_bytes() == (tmp_path / "alone.emb").read_bytes()
    report = json.loads((tmp_path / "p.json").read_text(encoding="utf-8"))
    assert set(report["input_hashes"]) == {str(emb), str(other)}


def test_pipeline_intermediate_under_another_spelling_is_not_an_input(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("wl.tsv").write_bytes((DATA / "toy_wordlist.tsv").read_bytes())
    Path("shift.tsv").write_bytes((DATA / "toy_shift_pairs.tsv").read_bytes())
    config = {"report": "p.json", "steps": [
        {"command": "colexify", "args": {"wordlist": "wl.tsv", "type": "full", "out": "full.tsv"}},
        {"command": "embed", "args": {"graph": "./full.tsv", "method": "prone", "seed": 1,
                                      "dim": 4, "out": "full.emb"}},
        {"command": "eval-shift", "args": {"sim": "cosine:./full.tsv", "pairs": "shift.tsv",
                                           "runs": 3, "seed": 2, "report": "shift.json"}},
    ]}
    Path("run.json").write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for _ in range(2):
        assert run(["pipeline", "--config", "run.json"]) == 0
        outputs.append([Path(name).read_bytes() for name in ("p.json", "shift.json", "full.emb")])
    assert outputs[0] == outputs[1]
    assert list(json.loads(outputs[1][0])["input_hashes"]) == ["shift.tsv", "wl.tsv"]


@pytest.mark.parametrize("weight", ["1e-10", "5e-324"])
def test_family_count_below_one_exits_1_naming_the_graph(tmp_path, capsys, weight):
    graph = tmp_path / "g.tsv"
    graph.write_text(f"SOURCE\tTARGET\tWEIGHT\nA\tB\t{weight}\nB\tC\t2\n", encoding="utf-8")
    out = tmp_path / "m.tsv"
    assert run(["baseline", "--graph", str(graph), "--method", "shortest-path",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {graph}:2: family_count weight on A->B is not a whole number")
    assert not out.exists()


@pytest.mark.parametrize("sidecar, rows, line_no, edge", [
    (None, "A\tB\t1\nC\tD\t2\nB\tA\t3\n", 4, "B->A"),
    ('{"directed": true}', "A\tB\t1\nB\tA\t2\nA\tB\t3\n", 4, "A->B"),
], ids=["undirected", "directed"])
def test_duplicate_edge_exits_1_naming_its_line(tmp_path, capsys, sidecar, rows, line_no, edge):
    graph = tmp_path / "g.tsv"
    graph.write_text("SOURCE\tTARGET\tWEIGHT\n" + rows, encoding="utf-8")
    if sidecar:
        (tmp_path / "g.tsv.json").write_text(sidecar, encoding="utf-8")
    out = tmp_path / "m.tsv"
    assert run(["baseline", "--graph", str(graph), "--method", "cosine",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {graph}:{line_no}: duplicate edge {edge}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["baseline", "--method", "shortest-path"],
    ["baseline", "--method", "cosine"],
    ["baseline", "--method", "ppmi"],
    ["baseline", "--method", "random-walk"],
    ["embed", "--method", "prone", "--seed", "1", "--dim", "2"],
    ["embed", "--method", "node2vec", "--seed", "1", "--dim", "2", "--epochs", "1"],
    ["eval-lsim", "--sim", "cosine:{graph}", "--pairs", data_path("toy_rated_pairs.tsv")],
], ids=["shortest-path", "cosine", "ppmi", "random-walk", "prone", "node2vec", "eval-lsim"])
def test_inverse_distance_sidecar_exits_1_naming_the_field(tmp_path, capsys, argv):
    graph = tmp_path / "g.tsv"
    graph.write_text("SOURCE\tTARGET\tWEIGHT\nA\tB\t0.5\nB\tC\t1\n", encoding="utf-8")
    sidecar = tmp_path / "g.tsv.json"
    sidecar.write_text('{\n  "colex_type": "full",\n  "directed": false,\n'
                       '  "weight_semantics": "inverse_distance"\n}\n', encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(graph=graph) for a in argv]
    if argv[0] == "eval-lsim":
        argv += ["--report", str(out)]
    else:
        argv += ["--graph", str(graph), "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {sidecar}:4: field 'weight_semantics' must be one of ['family_count'], "
        "got 'inverse_distance'\n")
    assert not out.exists()


NOT_UTF8 = [
    pytest.param("colexify", "--wordlist",
                 b"LANGUAGE\tFAMILY\tCONCEPT\tFORM\nL\tF\tTREE\ta b\nL\tF\tWOOD\ta \xff\n", 3,
                 id="wordlist"),
    pytest.param("viz", "--embedding", b"2 2\nTREE 1 0\nFOREST\xff 0 1\n", 3, id="embedding"),
    pytest.param("viz", "--concepts", b"TREE\r\nFOREST\rMOON\nSKIN\xff\n", 4, id="concepts"),
    pytest.param("baseline", "--graph", b'{\n  "colex_type": "full\xff"\n}\n', 2,
                 id="graph-sidecar"),
    pytest.param("pipeline", "--config", b'{\n"report": "r.json",\n\n"name": "\xfe"}\n', 4,
                 id="pipeline-config"),
]


@pytest.mark.parametrize("command, flag, data, line_no", NOT_UTF8)
def test_non_utf8_input_exits_1_naming_path_and_line(tmp_path, capsys, command, flag, data,
                                                     line_no):
    emb, out = separable_embedding(tmp_path), str(tmp_path / "out")
    argv = {
        "colexify": ["--wordlist", "-", "--type", "full", "--out", out],
        "viz": ["--embedding", str(emb), "--concepts", str(emb), "--out", out, "--seed", "1"],
        "baseline": ["--graph", str(toy_graph(tmp_path)), "--method", "cosine", "--out", out],
        "pipeline": ["--config", "-"],
    }[command]
    bad = tmp_path / "bad.txt"
    if flag == "--graph":
        bad = Path(argv[1] + ".json")  # the graph's sidecar
    else:
        argv[argv.index(flag) + 1] = str(bad)
    bad.write_bytes(data)
    assert run([command] + argv) == 1
    assert capsys.readouterr().err == f"error: {bad}:{line_no}: not UTF-8 text\n"
    assert not Path(out).exists()


def clean_inputs(tmp_path) -> dict:
    """One input file of every kind the commands read, keyed by kind."""
    d = tmp_path / "in"
    d.mkdir()
    paths = {kind: d / name for kind, name in (
        ("wordlist", "toy_wordlist.tsv"), ("rated", "toy_rated_pairs.tsv"),
        ("pairs", "toy_shift_pairs.tsv"), ("concepts", "toy_concepts.txt"))}
    for path in paths.values():
        path.write_bytes((DATA / path.name).read_bytes())
    paths["graph"] = toy_graph(d)
    paths["sidecar"] = d / "full.tsv.json"
    paths["embedding"] = separable_embedding(d)
    paths["vectors"] = d / "words.txt"
    save_embedding(EmbeddingSet(("avtomobil", "mashina", "derevo"),
                                [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]), paths["vectors"])
    paths["concept_map"] = d / "map.tsv"
    paths["concept_map"].write_text("CONCEPT\tWORD\tFREQUENCY\nCAR\tavtomobil\t0.4\n"
                                    "CAR\tmashina\t0.6\nTREE\tderevo\t1\n", encoding="utf-8")
    paths["config"] = d / "run.json"
    paths["config"].write_text(json.dumps({"report": "report.json", "steps": [
        {"command": "baseline",
         "args": {"graph": str(paths["graph"]), "method": "ppmi", "out": "m.tsv"}}]}),
        encoding="utf-8")
    return paths


BOM_CASES = [  # the input given a BOM, and a command that reads it
    ("wordlist", "colexify --wordlist {wordlist} --type affix --out g.tsv"),
    ("graph", "baseline --graph {graph} --method cosine --out m.tsv"),
    ("sidecar", "baseline --graph {graph} --method cosine --out m.tsv"),
    ("embedding", "eval-lsim --sim {embedding} --pairs {rated} --report r.json"),
    ("rated", "eval-lsim --sim {embedding} --pairs {rated} --report r.json"),
    ("pairs", "eval-shift --sim {embedding} --pairs {pairs} --runs 3 --seed 1 --report r.json"),
    ("concepts", "viz --embedding {embedding} --concepts {concepts} --out plot "
                 "--perplexity 3 --iterations 100 --seed 5"),
    ("vectors", "map-external --vectors {vectors} --concept-map {concept_map} --dim 2 --out c.emb"),
    ("concept_map", "map-external --vectors {vectors} --concept-map {concept_map} --dim 2 "
                    "--out c.emb"),
    ("config", "pipeline --config {config}"),
]


def output_contents(path):
    """A file's bytes; a JSON report without its input hashes, which a BOM changes."""
    if path.suffix != ".json":
        return path.read_bytes()
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("inputs", None)
    return doc


@pytest.mark.parametrize("kind, command", BOM_CASES, ids=[kind for kind, _ in BOM_CASES])
def test_leading_bom_gives_the_clean_output(tmp_path, monkeypatch, kind, command):
    paths = clean_inputs(tmp_path)
    argv = command.format(**paths).split()
    outputs = []
    for name in ("clean", "bom"):
        if name == "bom":
            paths[kind].write_bytes(b"\xef\xbb\xbf" + paths[kind].read_bytes())
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run(argv) == 0
        outputs.append({f.name: output_contents(f) for f in sorted(Path().iterdir())})
    assert outputs[0] and outputs[1] == outputs[0]


def test_pipeline_malformed_json_names_config_and_line(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text('{"steps": [', encoding="utf-8")
    assert run(["pipeline", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {config_path}:1: Expecting value\n"



# ---------------------------------------------------------------------------
# provider memo

FACTORIES = ("shortest_path_provider", "cosine_adjacency_provider", "ppmi_provider",
             "random_walk_provider", "embedding_provider")


@pytest.fixture
def built(monkeypatch):
    """Weak references to every provider a cli factory builds, in build order.

    Starts from an empty memo slot, so the first request of each test misses.
    """
    monkeypatch.setattr(cli, "_slot", {})
    refs = []
    for name in FACTORIES:
        original = getattr(cli, name)

        def wrapper(*args, _original=original, **kwargs):
            provider = _original(*args, **kwargs)
            refs.append(weakref.ref(provider))
            return provider

        monkeypatch.setattr(cli, name, wrapper)
    return refs


def lsim(sim, report) -> bytes:
    assert run(["eval-lsim", "--sim", str(sim), "--pairs", data_path("toy_rated_pairs.tsv"),
                "--report", str(report)]) == 0
    return Path(report).read_bytes()


def cold_lsim(sim, report) -> bytes:
    cli._slot.clear()
    return lsim(sim, report)


def test_memo_rewritten_graph_misses(tmp_path, built):
    graph = tmp_path / "g.tsv"
    graph.write_text("SOURCE\tTARGET\tWEIGHT\nTREE\tFOREST\t2\nBARK\tSKIN\t1\n"
                     "MOON\tMONTH\t1\nTREE\tBARK\t1\n", encoding="utf-8")
    first = lsim(f"shortest-path:{graph}", tmp_path / "r.json")
    assert lsim(f"shortest-path:{graph}", tmp_path / "r.json") == first
    assert len(built) == 1
    graph.write_text("SOURCE\tTARGET\tWEIGHT\nTREE\tFOREST\t1\nBARK\tSKIN\t3\n"
                     "MOON\tMONTH\t2\nTREE\tBARK\t1\n", encoding="utf-8")
    rewritten = lsim(f"shortest-path:{graph}", tmp_path / "r.json")
    assert len(built) == 2
    assert rewritten != first
    assert rewritten == cold_lsim(f"shortest-path:{graph}", tmp_path / "r.json")


@pytest.mark.parametrize("sidecar", [
    '{"directed": true}',
    '{"isolated_nodes": ["FIRE", "WATER"]}',
], ids=["directed", "isolated_nodes"])
def test_memo_rewritten_sidecar_misses(tmp_path, built, sidecar):
    graph = tmp_path / "g.tsv"
    graph.write_text("SOURCE\tTARGET\tWEIGHT\nTREE\tFOREST\t2\nBARK\tSKIN\t1\n"
                     "FIRE\tSUN\t1\n", encoding="utf-8")
    lsim(f"ppmi:{graph}", tmp_path / "r.json")
    (tmp_path / "g.tsv.json").write_text(sidecar, encoding="utf-8")
    rewritten = lsim(f"ppmi:{graph}", tmp_path / "r.json")
    assert len(built) == 2
    assert rewritten == cold_lsim(f"ppmi:{graph}", tmp_path / "r.json")


def test_memo_keys_on_parameters(tmp_path, built):
    graph = toy_graph(tmp_path, "affix")
    lsim(f"random-walk:{graph}", tmp_path / "r.json")
    assert run(["baseline", "--graph", str(graph), "--method", "random-walk",
                "--out", str(tmp_path / "default.tsv")]) == 0
    assert len(built) == 1  # the memo keys on the method and the input, not the command


@pytest.mark.parametrize("method", ["shortest-path", "cosine", "ppmi", "random-walk"])
def test_baseline_and_sim_spec_build_one_table(tmp_path, built, method):
    graph = toy_graph(tmp_path, "affix")
    assert run(["baseline", "--graph", str(graph), "--method", method,
                "--out", str(tmp_path / "m.tsv")]) == 0
    lsim(f"{method}:{graph}", tmp_path / "r.json")
    assert len(built) == 1


def test_eval_and_pipeline_hash_the_graph_sidecar(tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text("SOURCE\tTARGET\tWEIGHT\nTREE\tFOREST\t2\nBARK\tSKIN\t1\n"
                     "FIRE\tSUN\t1\nTREE\tBARK\t1\n", encoding="utf-8")
    sidecar = tmp_path / "g.tsv.json"
    report = tmp_path / "r.json"
    step = {"command": "eval-lsim", "args": {"sim": f"ppmi:{graph}", "report": str(report),
                                             "pairs": data_path("toy_rated_pairs.tsv")}}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"report": str(tmp_path / "p.json"), "steps": [step]}),
                      encoding="utf-8")

    def hashes():
        assert run(["pipeline", "--config", str(config)]) == 0
        inputs = json.loads(report.read_text(encoding="utf-8"))["inputs"]
        pipeline = json.loads((tmp_path / "p.json").read_text(encoding="utf-8"))
        return inputs, pipeline["input_hashes"]

    inputs, external = hashes()
    assert str(sidecar) not in inputs and inputs == external
    sidecar.write_text('{"directed": false}', encoding="utf-8")
    undirected, _ = hashes()
    sidecar.write_text('{"directed": true}', encoding="utf-8")
    directed, external = hashes()
    assert set(directed) == {str(graph), str(sidecar), data_path("toy_rated_pairs.tsv")}
    assert directed == external
    assert directed[str(sidecar)] != undirected[str(sidecar)]
    assert directed[str(graph)] == undirected[str(graph)]


def test_memo_holds_one_provider(tmp_path, built, monkeypatch):
    graph = toy_graph(tmp_path, "affix")
    emb = separable_embedding(tmp_path)
    alive_at_build = []
    original = cli.ppmi_provider

    def ppmi_provider(*args, **kwargs):
        gc.collect()
        alive_at_build.append([ref() is not None for ref in built])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "ppmi_provider", ppmi_provider)
    lsim(emb, tmp_path / "e.json")
    lsim(f"ppmi:{graph}", tmp_path / "p.json")
    gc.collect()
    # the embedding provider was dropped before the table was built
    assert alive_at_build == [[False]]
    assert [ref() is not None for ref in built] == [False, True]


@pytest.mark.parametrize("method", ["shortest-path", "cosine", "ppmi", "random-walk", None])
def test_memo_warm_reports_match_cold(tmp_path, built, method):
    graph = toy_graph(tmp_path, "affix")
    sim = f"{method}:{graph}" if method else str(separable_embedding(tmp_path))
    evals = [
        ["eval-lsim", "--pairs", data_path("toy_rated_pairs.tsv")],
        ["eval-shift", "--pairs", data_path("toy_shift_pairs.tsv"), "--runs", "3", "--seed", "2"],
        ["eval-links", "--pairs", data_path("toy_association_pairs.tsv"),
         "--runs", "3", "--seed", "2", "--min-weight", "5"],
    ]
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    for argv in evals:
        cli._slot.clear()
        assert run(argv + ["--sim", sim, "--report", str(cold / argv[0])]) == 0
    cli._slot.clear()
    if method:
        assert run(["baseline", "--graph", str(graph), "--method", method,
                    "--out", str(tmp_path / "m.tsv")]) == 0
    else:
        lsim(sim, tmp_path / "warm-up.json")
    builds = len(built)
    for argv in evals:
        assert run(argv + ["--sim", sim, "--report", str(warm / argv[0])]) == 0
    assert len(built) == builds
    for argv in evals:
        assert (warm / argv[0]).read_bytes() == (cold / argv[0]).read_bytes()

# ---------------------------------------------------------------------------
# exit codes


def test_map_external_cli(tmp_path):
    from colexvec.embeddings import EmbeddingSet as ES

    words = ES(("avtomobil", "mashina", "derevo"), [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    save_embedding(words, tmp_path / "words.txt")
    (tmp_path / "map.tsv").write_text(
        "CONCEPT\tWORD\tFREQUENCY\nCAR\tavtomobil\t0.4\nCAR\tmashina\t0.6\nTREE\tderevo\t1\n",
        encoding="utf-8",
    )
    code = run(["map-external", "--vectors", str(tmp_path / "words.txt"),
                "--concept-map", str(tmp_path / "map.tsv"),
                "--out", str(tmp_path / "concepts.emb"), "--dim", "2"])
    assert code == 0
    es = load_embedding(tmp_path / "concepts.emb")
    assert set(es.vectors) == {"CAR", "TREE"} and es.dim == 2


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exit_1(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_baseline_unknown_pair_concept_message_is_unquoted(tmp_path, capsys):
    graph = toy_graph(tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("CONCEPT_A\tCONCEPT_B\nTREE\tZZZ\n", encoding="utf-8")
    code = run(["baseline", "--graph", str(graph), "--method", "cosine",
                "--pairs", str(pairs), "--out", str(tmp_path / "s.tsv")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {graph}, {pairs}: concept 'ZZZ' not covered")
    assert not err.startswith('error: "')


def test_embed_prone_rejects_non_finite_parameter(tmp_path, capsys):
    graph = toy_graph(tmp_path)
    code = run(["embed", "--graph", str(graph), "--method", "prone", "--seed", "1",
                "--mu", "nan", "--out", str(tmp_path / "e.txt")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: mu must be finite")
    assert not (tmp_path / "e.txt").exists()


@pytest.mark.parametrize("method, option, value, message", [
    ("prone", "--learning-rate", "nan", "learning_rate must be finite"),
    ("prone", "--epochs", "0", "batch_size and epochs must be >= 1"),
    ("prone", "--p", "-3", "p and q must be positive"),
    ("node2vec", "--mu", "nan", "mu must be finite"),
    ("node2vec", "--shift", "0", "shift must be >= 1"),
])
def test_embed_checks_every_config_whichever_method_runs(tmp_path, capsys, method, option,
                                                         value, message):
    graph = toy_graph(tmp_path)
    code = run(["embed", "--graph", str(graph), "--method", method, "--seed", "1",
                "--dim", "4", option, value, "--out", str(tmp_path / "e.txt")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "e.txt").exists()


def test_embed_node2vec_diverging_learning_rate_exits_1(tmp_path, capsys):
    graph = toy_graph(tmp_path)
    with np.errstate(all="ignore"):
        code = run(["embed", "--graph", str(graph), "--method", "node2vec", "--seed", "1",
                    "--dim", "4", "--epochs", "20", "--learning-rate", "1e9",
                    "--out", str(tmp_path / "e.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: skip-gram train loss is ")
    assert " at epoch 1 of 20;" in err
    assert not (tmp_path / "e.txt").exists()


MALFORMED_INPUTS = [
    pytest.param("baseline", "--graph", "SOURCE\tTARGET\tWEIGHT\nTREE\tBARK\tinf\n", 2,
                 id="graph-inf-weight"),
    pytest.param("baseline", "--graph", "SOURCE\tTARGET\tWEIGHT\nTREE\tBARK\t1e400\n", 2,
                 id="graph-overflowing-weight"),
    pytest.param("eval-lsim", "--pairs",
                 "CONCEPT_A\tCONCEPT_B\tRATING\nTREE\tFOREST\t1\nMOON\tSKIN\tnan\n", 3,
                 id="rated-nan-rating"),
    pytest.param("eval-lsim", "--sim", "2 0\nTREE\nFOREST\n", 1, id="embedding-zero-dim"),
    pytest.param("eval-lsim", "--sim", "2 2\nTREE 1 0\nFOREST nan 1\n", 3,
                 id="embedding-nan-value"),
    pytest.param("eval-shift", "--pairs", "CONCEPT_A\tCONCEPT_B\nTREE\tFOREST\t4\n", 2,
                 id="pairs-extra-weight-cell"),
    pytest.param("eval-links", "--pairs", "CONCEPT_A\tCONCEPT_B\tWEIGHT\nTREE\tFOREST\n", 2,
                 id="pairs-missing-weight-cell"),
    pytest.param("map-external", "--concept-map",
                 "CONCEPT\tWORD\tFREQUENCY\nCAR\tmashina\tinf\n", 2,
                 id="concept-map-inf-frequency"),
]


@pytest.mark.parametrize("command, flag, text, line_no", MALFORMED_INPUTS)
def test_malformed_input_exits_1_naming_path_and_line(tmp_path, capsys, command, flag, text,
                                                      line_no):
    emb, out = str(separable_embedding(tmp_path)), str(tmp_path / "out")
    evaluate = ["--sim", emb, "--report", out, "--seed", "1", "--runs", "2"]
    argv = {
        "baseline": ["--graph", str(toy_graph(tmp_path)), "--method", "cosine", "--out", out],
        "eval-lsim": ["--sim", emb, "--pairs", data_path("toy_rated_pairs.tsv"), "--report", out],
        "eval-shift": ["--pairs", data_path("toy_shift_pairs.tsv")] + evaluate,
        "eval-links": ["--pairs", data_path("toy_association_pairs.tsv")] + evaluate,
        "map-external": ["--vectors", emb, "--concept-map", "-", "--out", out, "--dim", "2"],
    }[command]
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    argv[argv.index(flag) + 1] = str(bad)
    assert run([command] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{line_no}: ")
    assert "Traceback" not in err
    assert not Path(out).exists()


@pytest.mark.parametrize("token", ["1_0", "١٢"])
def test_embedding_value_float_accepts_but_numpy_does_not_exits_1(tmp_path, capsys, token):
    bad = tmp_path / "bad.emb"
    bad.write_text(f"2 2\nTREE 1 0\nFOREST {token} 1\n", encoding="utf-8")
    assert run(["eval-lsim", "--sim", str(bad), "--pairs", data_path("toy_rated_pairs.tsv"),
                "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:3: bad vector value\n"


def test_one_cached_parser_leaks_no_state_between_runs(tmp_path, monkeypatch, capsys):
    """Back-to-back runs and pipeline steps share one parser, and each
    handler gets the namespace a newly built parser gives for the same
    arguments."""
    assert cli.build_parser() is cli.build_parser()
    seen = []
    for name, handler in list(cli.HANDLERS.items()):
        def record(ns, _handler=handler):
            seen.append(vars(ns).copy())
            return _handler(ns)
        monkeypatch.setitem(cli.HANDLERS, name, record)
    graph = str(tmp_path / "g.tsv")
    colexify = ["colexify", "--wordlist", data_path("toy_wordlist.tsv"), "--type", "full",
                "--out", graph]
    walk = ["baseline", "--graph", graph, "--method", "random-walk"]
    step = {"graph": graph, "method": "random-walk", "out": str(tmp_path / "step.tsv")}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"report": str(tmp_path / "r.json"),
                                  "steps": [{"command": "baseline", "args": step}]}),
                      encoding="utf-8")
    runs = [
        colexify + ["--min-form-len", "4"],
        colexify,
        ["embed", "--graph", graph, "--method", "prone", "--out", str(tmp_path / "e.emb")],
        ["pipeline", "--config", str(config)],
        walk + ["--out", str(tmp_path / "plain.tsv")],
    ]
    assert [run(argv) for argv in runs] == [0, 0, 1, 0, 0]
    assert "the following arguments are required: --seed" in capsys.readouterr().err
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    expected = [vars(cli.parse(argv)) for argv in runs if argv[0] != "embed"]
    expected.insert(3, vars(cli.parse(walk + ["--out", step["out"]])))
    assert seen == expected
    assert seen[1]["min_form_len"] == 3
    assert seen[1]["configs"] == {ColexParams: ColexParams()}
    # the pipeline step scores as the plain run does
    assert (tmp_path / "step.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()


def test_handler_key_error_propagates_out_of_run(monkeypatch):
    def broken(args):
        raise KeyError("x")

    monkeypatch.setitem(cli.HANDLERS, "pipeline", broken)
    with pytest.raises(KeyError, match="'x'"):
        run(["pipeline", "--config", "run.json"])


# every command's options; a new knob must show up here
OPTIONS = {
    "colexvec": ["--version", "--log-level"],
    "colexify": ["--wordlist", "--type", "--out", "--min-form-len", "--min-overlap-len"],
    "embed": ["--graph", "--method", "--out", "--seed", "--walks-per-node", "--walk-length",
              "--p", "--q", "--dim", "--window", "--learning-rate", "--epochs",
              "--validation-split", "--batch-size", "--step", "--mu", "--theta",
              "--exponent", "--shift"],
    "combine": ["--inputs", "--out", "--dim"],
    "map-external": ["--vectors", "--concept-map", "--out", "--dim"],
    "baseline": ["--graph", "--method", "--out", "--pairs"],
    "eval-lsim": ["--sim", "--pairs", "--report"],
    "eval-shift": ["--sim", "--pairs", "--report", "--runs", "--seed"],
    "eval-links": ["--sim", "--pairs", "--report", "--runs", "--seed", "--min-weight"],
    "viz": ["--embedding", "--concepts", "--out", "--perplexity", "--iterations", "--seed"],
    "pipeline": ["--config"],
}

# the options that take a value, not a path (the dests argparse gives them)
VALUES = {"version", "log_level", "type", "min_form_len", "min_overlap_len", "method", "seed",
          "walks_per_node", "walk_length", "p", "q", "dim", "window", "learning_rate", "epochs",
          "validation_split", "batch_size", "step", "mu", "theta", "exponent", "shift", "runs",
          "min_weight", "perplexity", "iterations"}


def test_option_surface():
    def options(parser):
        return [s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")]

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {"colexvec": options(parser)}
    got.update({name: options(p) for name, p in commands.choices.items()})
    assert got == OPTIONS
    # each option names a file the step reads (hashed into its reports), a
    # file it writes, or a value; a new file option must join cli.READS
    kinds = {}
    for p in [parser, *commands.choices.values()]:
        for action in p._actions:
            if action.option_strings and action.dest != "help":
                kinds[action.dest] = [action.dest in group
                                      for group in (cli.READS, cli.WRITES, VALUES)]
    assert {dest: kind.count(True) for dest, kind in kinds.items()} == dict.fromkeys(kinds, 1)
    assert set(kinds) == {*cli.READS, *cli.WRITES, *VALUES}


def test_unknown_flag_exit_1(capsys):
    assert run(["colexify", "--nope"]) == 1


def test_missing_input_file_exit_2(tmp_path, capsys):
    code = run(["colexify", "--wordlist", str(tmp_path / "absent.tsv"),
                "--type", "full", "--out", str(tmp_path / "g.tsv")])
    assert code == 2


def test_validation_error_exit_1(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("LANGUAGE\tFAMILY\tCONCEPT\tFORM\nX\tF1\tT\ta\nX\tF2\tB\tb\n", encoding="utf-8")
    code = run(["colexify", "--wordlist", str(bad), "--type", "full",
                "--out", str(tmp_path / "g.tsv")])
    assert code == 1


# ---------------------------------------------------------------------------
# --log-level


def node2vec_argv(tmp_path):
    return ["embed", "--graph", str(toy_graph(tmp_path)), "--method", "node2vec", "--seed", "1",
            "--dim", "4", "--epochs", "3", "--walks-per-node", "3", "--learning-rate", "1",
            "--out", str(tmp_path / "e.emb")]


def epoch_lines(err: str) -> list:
    return [line for line in err.splitlines() if line.startswith("epoch ")]


def test_log_level_debug_prints_each_epoch_once_per_run(tmp_path, capsys):
    argv = node2vec_argv(tmp_path)
    capsys.readouterr()
    assert run(argv) == 0
    default = capsys.readouterr()
    assert epoch_lines(default.err) == []
    for _ in range(2):  # one handler per run: a second run prints no line twice
        assert run(["--log-level", "debug", *argv]) == 0
        debug = capsys.readouterr()
        epochs = epoch_lines(debug.err)
        assert [line.split(":")[0] for line in epochs] == ["epoch 0", "epoch 1", "epoch 2"]
        assert all("train loss" in line and "validation loss" in line for line in epochs)
        assert debug.out == default.out
        assert [line for line in debug.err.splitlines() if line not in epochs] == \
            default.err.splitlines()
    assert run(["--log-level", "warning", *argv]) == 0
    assert capsys.readouterr() == default
    log = logging.getLogger("colexvec")
    assert log.handlers == [] and log.level == logging.NOTSET


def test_combine_warning_text_reaches_stderr_once(tmp_path, capsys):
    for name, concepts in (("a.emb", ["A", "B"]), ("b.emb", ["C", "D"])):
        save_embedding(EmbeddingSet(concepts, np.eye(2)), tmp_path / name)
    argv = ["combine", "--inputs", f"{tmp_path / 'a.emb'},{tmp_path / 'b.emb'}",
            "--dim", "2", "--out", str(tmp_path / "f.emb")]
    for _ in range(2):
        assert run(argv) == 0
        assert capsys.readouterr().err == "combine: input sets share no covered concept\n"


# ---------------------------------------------------------------------------
# the paper's protocol


def test_protocol_config_declares_the_published_evaluation():
    path = Path(__file__).resolve().parent.parent / "examples" / "protocol.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    steps = cli._check_pipeline_config(path, config)
    graphs, spaces, evaluated = set(), set(), set()
    for ns in steps:
        if ns.command == "colexify":
            graphs.add(ns.out)
        elif ns.command == "embed":
            assert ns.graph in graphs
            spaces.add(ns.out)
            assert ns.dim == SkipGramConfig.dim == ProneConfig.dim
            if ns.method == "node2vec":
                for field in dataclasses.fields(SkipGramConfig):
                    if field.name != "seed":
                        assert getattr(ns, field.name) == field.default, field.name
        elif ns.command == "combine":
            assert set(ns.inputs.split(",")) <= spaces
            spaces.add(ns.out)
        else:
            method, source = cli.parse_sim(ns.sim)
            assert source in (graphs if method else spaces), ns.sim
            evaluated.add((ns.command, ns.sim))
            if ns.command != "eval-lsim":
                assert ns.runs == 50
            if ns.command == "eval-links":
                assert ns.min_weight == 5
    assert {ns.type for ns in steps if ns.command == "colexify"} == {"full", "affix", "overlap"}
    assert {(ns.graph, ns.method) for ns in steps if ns.command == "embed"} == {
        (f"{kind}.tsv", method) for kind in ("full", "affix", "overlap")
        for method in ("prone", "node2vec")}
    fusions = [ns.inputs.split(",") for ns in steps if ns.command == "combine"]
    assert sorted(len(inputs) for inputs in fusions) == [2, 2, 3, 3]
    baselines = {f"{method}:full.tsv" for method in cli.BASELINE_METHODS}
    assert evaluated == {(command, sim) for command in ("eval-lsim", "eval-shift", "eval-links")
                         for sim in spaces | baselines}


def test_protocol_runs_at_toy_size(tmp_path, monkeypatch, capsys):
    for name in ("wordlist", "rated_pairs", "shift_pairs", "association_pairs"):
        (tmp_path / f"{name}.tsv").write_bytes((DATA / f"toy_{name}.tsv").read_bytes())
    path = Path(__file__).resolve().parent.parent / "examples" / "protocol.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    # the toy full graph's 3 edges give all 10 covered rated pairs cosine 0
    flat = {"command": "eval-lsim", "args": {"sim": "cosine:full.tsv", "pairs": "rated_pairs.tsv",
                                             "report": "cosine.lsim.json"}}
    config["steps"].remove(flat)
    for step in config["steps"]:
        if step["command"] in ("embed", "combine"):
            step["args"]["dim"] = 2
        if step["args"].get("method") == "node2vec":
            step["args"]["epochs"] = 2
    (tmp_path / "toy_protocol.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    assert run(["pipeline", "--config", "toy_protocol.json"]) == 0
    first = (tmp_path / config["report"]).read_bytes()
    stdout = capsys.readouterr().out
    assert run(["pipeline", "--config", "toy_protocol.json"]) == 0
    assert (tmp_path / config["report"]).read_bytes() == first
    metrics = json.loads(first)["metrics"]
    assert {task: len(by_space) for task, by_space in metrics.items()} == {
        "lsim": 13, "shift": 14, "links": 14}

    capsys.readouterr()
    assert run(["eval-lsim", *(f"--{key}={value}" for key, value in flat["args"].items())]) == 1
    assert capsys.readouterr().err == ("error: rated_pairs.tsv, cosine:full.tsv: all 10 "
                                       "covered pairs score 0; Spearman's rho is undefined\n")
    assert not (tmp_path / "cosine.lsim.json").exists()
    golden.check("toy_protocol", tmp_path, [stdout])


def test_cli_import_skips_csgraph_and_linalg():
    # csgraph costs about 0.16 s at import and pulls in scipy.linalg; only
    # the shortest-path provider needs it, and imports it when it runs
    code = ("import sys, colexvec.cli; "
            "print(sorted(m for m in ('scipy.sparse.csgraph', 'scipy.linalg') "
            "if m in sys.modules))")
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
