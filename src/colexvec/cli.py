"""Command-line pipeline orchestration.

Subcommands cover the whole workflow: network inference, embedding
training, fusion, topology baselines, the three evaluations, t-SNE plots,
and a declarative multi-step pipeline. Every randomized command requires
--seed, and reports embed the seed, a config digest, and input file
hashes, so a report is reproducible from its own contents.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .baselines import (
    SimilarityProvider,
    cosine_adjacency_provider,
    embedding_provider,
    ppmi_provider,
    random_walk_provider,
    shortest_path_provider,
    similarity_matrix,
)
from .combine import combine, map_external_vectors
from .embeddings import load_embedding, save_embedding
from .errors import ColexvecError, GraphTooSmallError, InsufficientDataError, ParseError
from .evaluation import (
    eval_binary,
    eval_lsim,
    filter_association_pairs,
    load_concept_pairs,
    load_rated_pairs,
)
from .graph import load_graph, save_graph, sidecar_path, to_undirected
from .node2vec import SkipGramConfig, WalkConfig, node2vec_embed
from .prone import ProneConfig, prone_embed
from .runtime import config_digest, file_sha256
from .tsv import format_rows, open_text, write_json, write_lines
from .viz import DenseMatrix, export_scatter, tsne_project
from .wordlist import ColexParams, infer_network, load_wordlist

BASELINE_METHODS = ("shortest-path", "cosine", "ppmi", "random-walk")
# `embed` warns when a skip-gram's final train loss is this close to ln V
UNMOVED_NATS = 1e-3


class UsageError(Exception):
    """args: argparse's message, then the text to print (prog, message, usage)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, f"{self.prog}: {message}\n{self.format_usage()}")


@functools.lru_cache(maxsize=2)
def build_parser(add_help: bool = True) -> _Parser:
    """The parser; pipeline steps are parsed without -h/--help (add_help=False).

    Built once per process for each `add_help`, because every `run` and
    every pipeline check parses with it. Each parse returns a new namespace
    and leaves the parser as it was; callers must not change the parser.
    """
    parser = _Parser(prog="colexvec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"colexvec {__version__}")
    parser.add_argument("--log-level", choices=("warning", "info", "debug"),
                        default="warning", help="the least severe log records printed to stderr")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_command(name, help):
        return sub.add_parser(name, help=help, add_help=add_help)

    p = add_command("colexify", "infer a colexification network")
    p.add_argument("--wordlist", required=True)
    p.add_argument("--type", required=True, choices=("full", "affix", "overlap"))
    p.add_argument("--out", required=True)
    p.add_argument("--min-form-len", type=int, default=3)
    p.add_argument("--min-overlap-len", type=int, default=4)

    p = add_command("embed", "train a concept embedding on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", required=True, choices=("node2vec", "prone"))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    # one option per config field, typed by its default; --dim serves both methods
    defaults = {}
    for config in (WalkConfig, SkipGramConfig, ProneConfig):
        for f in dataclasses.fields(config):
            defaults.setdefault(f.name, f.default)
    del defaults["seed"]
    for name, default in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)

    p = add_command("combine", "fuse embeddings via concatenation + PCA")
    p.add_argument("--inputs", required=True, help="comma-separated embedding files")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, required=True)

    p = add_command("map-external", "map pretrained word vectors onto concepts")
    p.add_argument("--vectors", required=True)
    p.add_argument("--concept-map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, required=True)

    p = add_command("baseline", "score pairs straight from graph topology")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", required=True, choices=BASELINE_METHODS)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", help="pair TSV to score; omit to dump the full matrix")

    p = add_command("eval-lsim", "rank correlation against similarity ratings")
    p.add_argument("--sim", required=True, help="embedding file or '<method>:<graph.tsv>'")
    p.add_argument("--pairs", required=True)
    p.add_argument("--report", required=True)

    for name in ("eval-shift", "eval-links"):
        p = add_command(name, "binary prediction with negative sampling")
        p.add_argument("--sim", required=True)
        p.add_argument("--pairs", required=True)
        p.add_argument("--report", required=True)
        p.add_argument("--runs", type=int, default=50)
        p.add_argument("--seed", type=int, required=True)
        if name == "eval-links":
            p.add_argument("--min-weight", type=int, default=5)

    p = add_command("viz", "t-SNE projection and scatter export")
    p.add_argument("--embedding", required=True)
    p.add_argument("--concepts", help="file with one concept per line to plot")
    p.add_argument("--out", required=True)
    p.add_argument("--perplexity", type=float, default=15.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)

    p = add_command("pipeline", "run a declared step sequence from JSON")
    p.add_argument("--config", required=True)

    return parser


def parse_sim(spec: str) -> tuple:
    """(method, graph path) for '<method>:<graph.tsv>', else (None, embedding path)."""
    method, sep, rest = spec.partition(":")
    if sep and method in BASELINE_METHODS:
        return method, rest
    return None, spec


# Every option that names a file a step reads, and every one that names a
# file it writes; each other option is a value. --graph and --sim sources
# are read with their <path>.json sidecar.
READS = ("wordlist", "graph", "pairs", "embedding", "vectors", "concept_map",
         "concepts", "sim", "inputs", "config")
WRITES = ("out", "report")


def _reads(ns) -> list:
    """(path, with_sidecar) for each file the parsed step `ns` reads, in READS
    order; --sim names its source, and an empty --inputs entry names no file."""
    reads = []
    for key in READS:
        value = getattr(ns, key, None) or ""
        if key == "sim":
            value = parse_sim(value)[1]
        for path in value.split(",") if key == "inputs" else [value]:
            if path:
                reads.append((path, key in ("graph", "sim")))
    return reads


def _hashes(reads) -> dict:
    """{path: SHA-256} of each (path, with_sidecar) read, and of its sidecar
    when asked for and present."""
    hashes = {}
    for path, with_sidecar in reads:
        hashes[str(path)] = file_sha256(path)
        sidecar = sidecar_path(path)
        if with_sidecar and sidecar.exists():
            hashes[str(sidecar)] = file_sha256(sidecar)
    return hashes


# The provider the last similarity step built, under the key it was built for.
_slot = {}


def _provider(method, path, hashes=None) -> SimilarityProvider:
    """`method`'s topology baseline on the undirected graph at `path`, or,
    for method None, the cosines of the embedding file at `path`.

    A one-slot memo keys on the method, the resolved path and the hashes of
    the file and its sidecar, looked up in `hashes` (a `_hashes` dict that
    holds them) or taken here. Asking again for the source the last call
    built, with the same bytes, returns that provider without reading or
    building anything. One slot, because consecutive steps that score one
    source (eval-lsim, eval-shift and eval-links in a row) are the repeats
    worth catching; a miss drops the stored provider before building, so
    at most one n x n table is ever alive.
    """
    hashes = hashes or _hashes([(path, True)])
    key = (method, str(Path(path).resolve()), hashes[str(path)],
           hashes.get(str(sidecar_path(path))))
    if _slot.get("key") == key:
        return _slot["provider"]
    _slot.clear()
    if method is None:
        provider = embedding_provider(load_embedding(path))
    else:
        # built per call, so each factory is looked up as a module global
        factory = {"shortest-path": shortest_path_provider, "cosine": cosine_adjacency_provider,
                   "ppmi": ppmi_provider, "random-walk": random_walk_provider}[method]
        provider = factory(to_undirected(load_graph(path)))
    _slot.update(key=key, provider=provider)
    return provider


def cmd_colexify(args) -> dict:
    wordlist = load_wordlist(args.wordlist)
    params = ColexParams(
        min_form_len=args.min_form_len, min_overlap_len=args.min_overlap_len
    )
    g = infer_network(wordlist, args.type, params)
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.n_nodes} nodes, {g.n_edges} edges ({args.type})")
    return {"out": args.out, "nodes": g.n_nodes, "edges": g.n_edges}


def _config(cls, args):
    """A `cls` config whose every field takes the parsed option of the same name."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def cmd_embed(args) -> dict:
    g = to_undirected(load_graph(args.graph))
    try:
        if args.method == "node2vec":
            es = node2vec_embed(g, _config(WalkConfig, args), _config(SkipGramConfig, args))
        else:
            es = prone_embed(g, _config(ProneConfig, args))
    except GraphTooSmallError as exc:
        raise type(exc)(f"{args.graph}: {exc}") from exc
    save_embedding(es, args.out)
    uncovered = es.provenance.get("uncovered", ())
    print(
        f"wrote {args.out}: {len(es.concepts)} concepts, dim {es.dim}"
        + (f", {len(uncovered)} isolated concepts uncovered" if uncovered else "")
    )
    train_loss = es.provenance.get("train_loss")
    # ln V is the loss of a uniform softmax, where small random start vectors sit
    uniform_loss = math.log(len(es.concepts))
    if train_loss and uniform_loss - train_loss[-1] < UNMOVED_NATS:
        print(
            f"warning: {args.out}: the vectors barely moved from their start: final "
            f"train loss {train_loss[-1]:.6f} is within {UNMOVED_NATS:g} nats of "
            f"ln V = {uniform_loss:.6f} (relative drift {es.provenance['drift']:.2g}); "
            f"raise --learning-rate ({args.learning_rate:g})",
            file=sys.stderr,
        )
    return {
        "out": args.out,
        "concepts": len(es.concepts),
        "dim": es.dim,
        "seed": args.seed,
        "config_digest": es.provenance.get("config_digest"),
    }


def cmd_combine(args) -> dict:
    # --inputs is combine's one read; an empty entry names no file
    sets = [load_embedding(path) for path, _ in _reads(args)]
    fused = combine(sets, args.dim)
    save_embedding(fused, args.out)
    print(f"wrote {args.out}: {len(fused.concepts)} concepts, dim {fused.dim}")
    return {"out": args.out, "concepts": len(fused.concepts), "dim": fused.dim}


def cmd_map_external(args) -> dict:
    es = map_external_vectors(args.vectors, args.concept_map, args.dim)
    save_embedding(es, args.out)
    excluded = es.provenance.get("excluded", ())
    print(
        f"wrote {args.out}: {len(es.concepts)} concepts, dim {es.dim}"
        + (f", {len(excluded)} concepts had no resolvable word" if excluded else "")
    )
    return {"out": args.out, "concepts": len(es.concepts), "excluded": len(excluded)}


def cmd_baseline(args) -> dict:
    provider = _provider(args.method, args.graph)
    out = Path(args.out)
    if args.pairs:
        pairs = load_concept_pairs(args.pairs)
        scores = provider.score_pairs([p.a for p in pairs], [p.b for p in pairs])
        texts = format_rows(scores.reshape(-1, 1), "")
        lines = (f"{pair.a}\t{pair.b}\t{text}" for pair, text in zip(pairs, texts))
        write_lines(out, "CONCEPT_A\tCONCEPT_B\tSCORE", lines)
        print(f"wrote {out}: {len(pairs)} scored pairs ({args.method})")
        return {"out": args.out, "pairs": len(pairs)}
    order = sorted(provider.covered)
    matrix = similarity_matrix(provider, order)
    lines = (node + "\t" + row for node, row in zip(order, format_rows(matrix, "\t")))
    write_lines(out, "\t".join(["CONCEPT", *order]), lines)
    print(f"wrote {out}: {len(order)}x{len(order)} similarity matrix ({args.method})")
    return {"out": args.out, "nodes": len(order)}


def cmd_eval(args, task: str) -> dict:
    method, path = parse_sim(args.sim)
    # the hashes of every file the step reads: the provider's key and the report's inputs
    inputs = _hashes(_reads(args))
    provider = _provider(method, path, inputs)
    config = {"sim": args.sim, "pairs": args.pairs}
    if task == "lsim":
        try:
            report = eval_lsim(provider, load_rated_pairs(args.pairs))
        except InsufficientDataError as exc:
            source = {"scores": args.sim, "ratings": args.pairs}.get(exc.constant)
            if source is None:
                raise
            raise InsufficientDataError(f"{source}: {exc}", exc.constant) from exc
    else:
        pairs = load_concept_pairs(args.pairs)
        config.update(runs=args.runs, seed=args.seed)
        if task == "links":
            config["min_weight"] = args.min_weight
            pairs = filter_association_pairs(
                pairs, min_weight=args.min_weight, space=provider.covered
            )
            concepts = {c for pair in pairs for c in (pair.a, pair.b)}
            print(f"filtered association network: {len(concepts)} concepts, {len(pairs)} edges")
        report = eval_binary(provider, pairs, runs=args.runs, seed=args.seed, task=task)
    doc = {
        "command": f"eval-{task}",
        "config": config,
        "config_digest": config_digest(config),
        "inputs": inputs,
        "report": report.to_dict(),
    }
    write_json(args.report, doc)
    print(report.table())
    return doc


def cmd_viz(args) -> dict:
    es = load_embedding(args.embedding)
    if args.concepts:
        with open_text(args.concepts) as fh:
            wanted = list(dict.fromkeys(
                line.strip() for line in fh.read().splitlines() if line.strip()))
        order = [c for c in wanted if c in es.index]
        missing = len(wanted) - len(order)
        if missing:
            print(f"skipping {missing} concepts not covered by the embedding")
    else:
        order = list(es.concepts)
    coords, _ = tsne_project(
        DenseMatrix(es.matrix(order)),
        perplexity=args.perplexity, iterations=args.iterations, seed=args.seed,
    )
    tsv_path, svg_path = export_scatter(coords, order, args.out)
    print(f"wrote {tsv_path} and {svg_path}: {len(order)} concepts")
    return {"tsv": str(tsv_path), "svg": str(svg_path), "concepts": len(order)}


def _check_pipeline_config(path, config) -> list:
    """The parsed arguments of every step of a well-formed config.

    A malformed config, or a step whose arguments its command rejects,
    fails with a field-level message before any step runs.
    """
    if not isinstance(config, dict):
        raise ColexvecError(f"{path}: top level must be a JSON object")
    steps = config.get("steps")
    if not isinstance(steps, list) or not steps:
        raise ColexvecError(f"{path}: needs a non-empty 'steps' list")
    report = config.get("report")
    if not isinstance(report, str) or not report:
        raise ColexvecError(f"{path}: needs a 'report' output path")
    parser = build_parser(add_help=False)
    parsed = []
    for i, step in enumerate(steps):
        where = f"{path}: steps[{i}]"
        if not isinstance(step, dict):
            raise ColexvecError(f"{where}: must be an object")
        command = step.get("command")
        if not isinstance(command, str):
            raise ColexvecError(f"{where}: needs a string 'command'")
        if command == "pipeline":
            raise ColexvecError(f"{where}: pipelines cannot nest")
        if command not in HANDLERS:
            raise ColexvecError(f"{where}: unknown command {command!r}")
        step_args = step.get("args", {})
        if not isinstance(step_args, dict):
            raise ColexvecError(f"{where}: 'args' must be an object")
        argv = [command]
        for key, value in step_args.items():
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ColexvecError(f"{where}: args.{key} must be a string or a number")
            # one word, so a value that starts with "-" is not read as an option
            argv.append(f"--{str(key).replace('_', '-')}={value}")
        try:
            parsed.append(parser.parse_args(argv))
        except UsageError as exc:
            raise ColexvecError(f"{where}: {exc.args[0]}") from None
    return parsed


def cmd_pipeline(args) -> dict:
    config_path = Path(args.config)
    try:
        with open_text(config_path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(args.config, exc.lineno, exc.msg) from None
    parsed = _check_pipeline_config(args.config, config)
    steps = config["steps"]
    report_path = config["report"]

    # hash true externals only: a file another step writes is an intermediate,
    # under any spelling, even if a previous run left it behind
    produced = {Path(getattr(ns, key)).resolve()
                for ns in parsed for key in WRITES if getattr(ns, key, None)}
    external = _hashes((path, with_sidecar)
                       for ns in parsed for path, with_sidecar in _reads(ns)
                       if Path(path).resolve() not in produced and Path(path).exists())

    summaries = []
    metrics = {}
    for step, ns in zip(steps, parsed):
        summary = HANDLERS[ns.command](ns)
        summaries.append({"command": ns.command, "args": step.get("args", {}), "summary": summary})
        inner = summary.get("report")
        if isinstance(inner, dict) and "task" in inner:
            # one entry per evaluation step, so two steps of a task never collide
            metrics.setdefault(inner["task"], {})[ns.report] = inner["metric"]

    doc = {
        "name": config.get("name", config_path.stem),
        "config": config,
        "config_digest": config_digest(config),
        "input_hashes": external,
        "steps": summaries,
        "metrics": metrics,
    }
    write_json(report_path, doc)
    print(f"wrote {report_path}: {len(steps)} steps, metrics {metrics}")
    return doc


HANDLERS = {
    "colexify": cmd_colexify,
    "embed": cmd_embed,
    "combine": cmd_combine,
    "map-external": cmd_map_external,
    "baseline": cmd_baseline,
    "eval-lsim": lambda args: cmd_eval(args, "lsim"),
    "eval-shift": lambda args: cmd_eval(args, "shift"),
    "eval-links": lambda args: cmd_eval(args, "links"),
    "viz": cmd_viz,
    "pipeline": cmd_pipeline,
}


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Print the package's log records of `level` and above to stderr, one
    bare message a line, while the block runs; then remove the handler and
    restore the logger, so runs in one process stack no handlers."""
    log = logging.getLogger("colexvec")
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(level.upper())
    saved = log.level
    log.addHandler(handler)
    log.setLevel(handler.level)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(saved)


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            print(parser.format_usage(), file=sys.stderr)
            return 1
        with _log_to_stderr(args.log_level):
            HANDLERS[args.command](args)
        return 0
    except UsageError as exc:
        print(exc.args[1], file=sys.stderr)
        return 1
    except (ColexvecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
