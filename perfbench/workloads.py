"""The three workloads: seeded inputs plus an ordered list of CLI steps.

Every step is one `colexvec.cli.run` call, paired with the output check
that decides whether it failed. Why each workload exists is written down in
perfbench/NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import generate

DIM = 128
# Node2Vec runs the published dim, window, batch and walk settings for two
# epochs; the learning rate is raised so that two epochs learn a usable space.
N2V_ARGS = ("--dim", "128", "--window", "2", "--batch-size", "512",
            "--walks-per-node", "5", "--walk-length", "10",
            "--epochs", "2", "--learning-rate", "20")
# Sampling runs per binary evaluation (the published protocol uses 50).
EMBEDDING_EVAL_RUNS = 5
BASELINE_EVAL_RUNS = 2
MIN_LINK_WEIGHT = 5
BASELINE_METHODS = ("ppmi", "shortest-path", "cosine", "random-walk")


@dataclass
class Step:
    argv: list
    check: Optional[Callable] = None  # raises checks.CheckFailed; may return a metric
    task: Optional[str] = None  # evaluation task whose metric the check returns
    sign: float = 1.0  # -1 flips a distance provider's rho

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    generate: Callable  # (inputs dir, seed) -> input sizes
    steps: Callable  # (inputs dir, output dir, seed) -> [Step]


def _evals(sim: str, inputs: Path, out: Path, tag: str, seed: int, runs: int, sign: float = 1.0) -> list:
    """eval-lsim, eval-shift and eval-links of one similarity source."""
    steps = []
    for task, command, extra in (
        ("lsim", "eval-lsim", ()),
        ("shift", "eval-shift", ("--runs", str(runs), "--seed", str(seed))),
        ("links", "eval-links", ("--runs", str(runs), "--seed", str(seed),
                                 "--min-weight", str(MIN_LINK_WEIGHT))),
    ):
        report = out / f"{tag}.{task}.json"
        pairs = inputs / {"lsim": "rated.tsv", "shift": "shift.tsv", "links": "links.tsv"}[task]
        steps.append(Step(
            [command, "--sim", sim, "--pairs", str(pairs), "--report", str(report), *extra],
            check=partial(checks.check_report, report, task,
                          1 if task == "lsim" else runs, None if task == "lsim" else seed),
            task=task,
            sign=sign if task == "lsim" else 1.0,
        ))
    return steps


# --- colex-prone -----------------------------------------------------------


def colex_prone_inputs(inputs: Path, seed: int) -> dict:
    u = generate.Universe(np.random.default_rng(seed), 1300)
    sizes = generate.write_wordlist(inputs / "wordlist.tsv", inputs / "concepts.txt", u)
    generate.write_eval_pairs(inputs, u)
    return sizes


def colex_prone_steps(inputs: Path, out: Path, seed: int) -> list:
    wordlist = inputs / "wordlist.tsv"
    steps = []
    for kind in ("full", "affix", "overlap"):
        graph = out / f"{kind}.tsv"
        steps.append(Step(
            ["colexify", "--wordlist", str(wordlist), "--type", kind, "--out", str(graph)],
            check=partial(checks.check_colexify, wordlist, graph, kind, seed),
        ))
    for kind in ("full", "affix", "overlap"):
        graph, emb = out / f"{kind}.tsv", out / f"{kind}.prone.emb"
        steps.append(Step(
            ["embed", "--graph", str(graph), "--method", "prone", "--seed", str(seed),
             "--dim", str(DIM), "--out", str(emb)],
            check=lambda emb=emb, graph=graph: checks.check_embedding(
                emb, DIM, checks.covered_nodes(graph), unit_norm=True),
        ))
    fused = {}
    for tag, kinds in (("fa", ("full", "affix")), ("fao", ("full", "affix", "overlap"))):
        parts = [out / f"{k}.prone.emb" for k in kinds]
        fused[tag] = out / f"{tag}.emb"
        steps.append(Step(
            ["combine", "--inputs", ",".join(map(str, parts)), "--dim", str(DIM),
             "--out", str(fused[tag])],
            check=lambda emb=fused[tag], parts=parts: checks.check_embedding(
                emb, DIM, set().union(*(set(checks.read_embedding(p)[1]) for p in parts)),
                unit_norm=False),
        ))
    for tag, emb in fused.items():
        steps += _evals(str(emb), inputs, out, tag, seed, EMBEDDING_EVAL_RUNS)
    plot = out / "fao.plot"
    steps.append(Step(
        ["viz", "--embedding", str(fused["fao"]), "--concepts", str(inputs / "concepts.txt"),
         "--out", str(plot), "--seed", str(seed)],
        check=partial(checks.check_viz, plot, inputs / "concepts.txt", fused["fao"]),
    ))
    return steps


# --- node2vec ----------------------------------------------------------------


def node2vec_inputs(inputs: Path, seed: int) -> dict:
    u = generate.Universe(np.random.default_rng(seed), generate.GRAPH_SIZES["affix"][0])
    sizes = generate.write_graph(inputs / "affix.tsv", u, "affix")
    generate.write_eval_pairs(inputs, u)
    return sizes


def node2vec_steps(inputs: Path, out: Path, seed: int) -> list:
    graph, emb = inputs / "affix.tsv", out / "affix.n2v.emb"
    steps = [Step(
        ["embed", "--graph", str(graph), "--method", "node2vec", "--seed", str(seed),
         *N2V_ARGS, "--out", str(emb)],
        check=lambda: checks.check_embedding(emb, DIM, checks.covered_nodes(graph), unit_norm=False),
    )]
    return steps + _evals(str(emb), inputs, out, "n2v", seed, EMBEDDING_EVAL_RUNS)


# --- baselines-eval --------------------------------------------------------


def baselines_inputs(inputs: Path, seed: int) -> dict:
    u = generate.Universe(np.random.default_rng(seed), generate.GRAPH_SIZES["full"][0])
    sizes = generate.write_graph(inputs / "full.tsv", u, "full")
    generate.write_eval_pairs(inputs, u)
    return sizes


def baselines_steps(inputs: Path, out: Path, seed: int) -> list:
    graph = inputs / "full.tsv"
    steps = []
    for method in BASELINE_METHODS:
        matrix = out / f"{method}.matrix.tsv"
        steps.append(Step(
            ["baseline", "--graph", str(graph), "--method", method, "--out", str(matrix)],
            check=partial(checks.check_matrix, matrix, graph, method, seed),
        ))
    for method in BASELINE_METHODS:
        sign = -1.0 if method == "shortest-path" else 1.0
        steps += _evals(f"{method}:{graph}", inputs, out, method, seed, BASELINE_EVAL_RUNS, sign)
    return steps


WORKLOADS = {
    "colex-prone": Workload("colex-prone", colex_prone_inputs, colex_prone_steps),
    "node2vec": Workload("node2vec", node2vec_inputs, node2vec_steps),
    "baselines-eval": Workload("baselines-eval", baselines_inputs, baselines_steps),
}
