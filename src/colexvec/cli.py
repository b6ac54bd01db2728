"""Command-line pipeline orchestration.

Subcommands cover the whole workflow: network inference, embedding
training, fusion, topology baselines, the three evaluations, t-SNE plots,
and a declarative multi-step pipeline. Every randomized command requires
--seed, and reports embed the seed, a config digest, and input file
hashes, so a report is reproducible from its own contents.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
from .errors import ColexvecError, ParseError, ValidationError
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
from .tsv import format_floats, open_text, write_json, write_lines
from .viz import export_scatter, tsne_project
from .wordlist import ColexParams, infer_network, load_wordlist

BASELINE_METHODS = ("shortest-path", "cosine", "ppmi", "random-walk")


class UsageError(Exception):
    """args: argparse's message, then the text to print (prog, message, usage)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, f"{self.prog}: {message}\n{self.format_usage()}")


def build_parser(add_help: bool = True) -> _Parser:
    """The parser; pipeline steps are parsed without -h/--help (add_help=False)."""
    parser = _Parser(prog="colexvec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"colexvec {__version__}")
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
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--walks-per-node", type=int, default=5)
    p.add_argument("--walk-length", type=int, default=10)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--epochs", type=int, default=1500)
    p.add_argument("--validation-split", type=float, default=0.2)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--exponent", type=float, default=0.75)
    p.add_argument("--shift", type=float, default=1.0)

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
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--max-steps", type=int, default=5)
    p.add_argument("--ppmi-mode", choices=("pairwise", "cosine_rows"), default="pairwise")

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


# The provider the last similarity step built, under the key it was built for.
_slot = {}


def _memoised(key: tuple, build) -> SimilarityProvider:
    """The stored provider if it was built under `key`, else `build()`'s.

    One slot, because consecutive steps that score one source (eval-lsim,
    eval-shift and eval-links in a row) are the repeats worth catching. A
    miss drops the stored provider before building, so at most one n x n
    table is ever alive.
    """
    if _slot.get("key") != key:
        _slot.clear()
        _slot.update(key=key, provider=build())
    return _slot["provider"]


def _input_key(path) -> tuple:
    """The resolved path plus the SHA-256 of the file and of its sidecar, if any."""
    sidecar = sidecar_path(path)
    return (
        str(Path(path).resolve()),
        file_sha256(path),
        file_sha256(sidecar) if sidecar.exists() else None,
    )


def _graph_provider(
    method: str, path, alpha: float = 0.5, max_steps: int = 5, ppmi_mode: str = "pairwise"
) -> SimilarityProvider:
    """`method`'s provider on the undirected graph at `path`, built once per key."""

    def build():
        g = to_undirected(load_graph(path))
        if method == "shortest-path":
            return shortest_path_provider(g)
        if method == "cosine":
            return cosine_adjacency_provider(g)
        if method == "ppmi":
            return ppmi_provider(g, mode=ppmi_mode)
        return random_walk_provider(g, alpha=alpha, max_steps=max_steps)

    return _memoised((method, alpha, max_steps, ppmi_mode, *_input_key(path)), build)


def provider_from_spec(spec: str) -> SimilarityProvider:
    """A topology baseline for '<method>:<graph.tsv>', else an embedding file's cosines.

    Asking again for the source the last call built, with the same input
    bytes, returns that provider without reading or building anything.
    """
    method, path = parse_sim(spec)
    if method:
        return _graph_provider(method, path)
    return _memoised(
        ("embedding", *_input_key(path)), lambda: embedding_provider(load_embedding(path))
    )


def _write_report(path, command: str, config: dict, inputs: list, report: dict) -> dict:
    doc = {
        "command": command,
        "config": config,
        "config_digest": config_digest(config),
        "inputs": {str(p): file_sha256(p) for p in inputs},
        "report": report,
    }
    write_json(path, doc)
    return doc


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
    if g.n_edges == 0:
        raise ValidationError(f"{args.graph}: no edges to embed")
    if args.method == "node2vec":
        es = node2vec_embed(g, _config(WalkConfig, args), _config(SkipGramConfig, args))
    else:
        es = prone_embed(g, _config(ProneConfig, args))
    save_embedding(es, args.out)
    uncovered = es.provenance.get("uncovered", ())
    print(
        f"wrote {args.out}: {len(es.vectors)} concepts, dim {es.dim}"
        + (f", {len(uncovered)} isolated concepts uncovered" if uncovered else "")
    )
    return {
        "out": args.out,
        "concepts": len(es.vectors),
        "dim": es.dim,
        "seed": args.seed,
        "config_digest": es.provenance.get("config_digest"),
    }


def cmd_combine(args) -> dict:
    paths = [p for p in args.inputs.split(",") if p]
    sets = [load_embedding(p) for p in paths]
    fused = combine(sets, args.dim)
    save_embedding(fused, args.out)
    print(f"wrote {args.out}: {len(fused.vectors)} concepts, dim {fused.dim}")
    return {"out": args.out, "concepts": len(fused.vectors), "dim": fused.dim}


def cmd_map_external(args) -> dict:
    es = map_external_vectors(args.vectors, args.concept_map, args.dim)
    save_embedding(es, args.out)
    excluded = es.provenance.get("excluded", ())
    print(
        f"wrote {args.out}: {len(es.vectors)} concepts, dim {es.dim}"
        + (f", {len(excluded)} concepts had no resolvable word" if excluded else "")
    )
    return {"out": args.out, "concepts": len(es.vectors), "excluded": len(excluded)}


def cmd_baseline(args) -> dict:
    provider = _graph_provider(
        args.method, args.graph, args.alpha, args.max_steps, args.ppmi_mode
    )
    out = Path(args.out)
    if args.pairs:
        pairs = load_concept_pairs(args.pairs)
        scores = provider.score_pairs([p.a for p in pairs], [p.b for p in pairs])
        lines = (f"{pair.a}\t{pair.b}\t{score:.8g}" for pair, score in zip(pairs, scores))
        write_lines(out, "CONCEPT_A\tCONCEPT_B\tSCORE", lines)
        print(f"wrote {out}: {len(pairs)} scored pairs ({args.method})")
        return {"out": args.out, "pairs": len(pairs)}
    order = sorted(provider.covered)
    matrix = similarity_matrix(provider, order)
    lines = (node + "\t" + format_floats(row, "\t") for node, row in zip(order, matrix.values))
    write_lines(out, "CONCEPT\t" + "\t".join(order), lines)
    print(f"wrote {out}: {len(order)}x{len(order)} similarity matrix ({args.method})")
    return {"out": args.out, "nodes": len(order)}


def cmd_eval_lsim(args) -> dict:
    provider = provider_from_spec(args.sim)
    pairs = load_rated_pairs(args.pairs)
    report = eval_lsim(provider, pairs)
    config = {"sim": args.sim, "pairs": args.pairs}
    doc = _write_report(
        args.report, "eval-lsim", config,
        [parse_sim(args.sim)[1], args.pairs], report.to_dict(),
    )
    print(report.table())
    return doc


def _binary_eval(args, task: str) -> dict:
    provider = provider_from_spec(args.sim)
    pairs = load_concept_pairs(args.pairs)
    config = {"sim": args.sim, "pairs": args.pairs, "runs": args.runs, "seed": args.seed}
    if task == "links":
        config["min_weight"] = args.min_weight
        pairs = filter_association_pairs(
            pairs, min_weight=args.min_weight, space=provider.covered
        )
        print(f"filtered association network: {_pair_stats(pairs)}")
    report = eval_binary(
        provider, pairs, runs=args.runs, seed=args.seed, task=task
    )
    doc = _write_report(
        args.report, f"eval-{task}", config,
        [parse_sim(args.sim)[1], args.pairs], report.to_dict(),
    )
    print(report.table())
    return doc


def _pair_stats(pairs) -> str:
    concepts = set()
    for pair in pairs:
        concepts.add(pair.a)
        concepts.add(pair.b)
    return f"{len(concepts)} concepts, {len(pairs)} edges"


def cmd_viz(args) -> dict:
    es = load_embedding(args.embedding)
    if args.concepts:
        with open_text(args.concepts) as fh:
            wanted = list(dict.fromkeys(
                line.strip() for line in fh.read().splitlines() if line.strip()))
        order = [c for c in wanted if c in es.vectors]
        missing = len(wanted) - len(order)
        if missing:
            print(f"skipping {missing} concepts not covered by the embedding")
    else:
        order = es.sorted_concepts()
    matrix = es.matrix(order)
    coords = tsne_project(
        matrix, perplexity=args.perplexity, iterations=args.iterations, seed=args.seed
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
            if not isinstance(value, (str, int, float)):
                raise ColexvecError(f"{where}: args.{key} must be a string or a number")
            argv += ["--" + str(key).replace("_", "-"), str(value)]
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

    input_keys = ("wordlist", "graph", "pairs", "embedding", "vectors",
                  "concept_map", "concepts", "sim", "inputs")
    produced = {getattr(ns, key, None) for ns in parsed for key in ("out", "report")}
    external = {}
    for ns in parsed:
        for key in input_keys:
            value = getattr(ns, key, None)
            if not value:
                continue
            candidates = value.split(",") if key == "inputs" else [parse_sim(value)[1] if key == "sim" else value]
            for cand in candidates:
                # hash true externals only; files another step writes are
                # intermediates even if a previous run left them behind
                if cand not in produced and Path(cand).exists():
                    external[cand] = file_sha256(cand)

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
    "eval-lsim": cmd_eval_lsim,
    "eval-shift": lambda args: _binary_eval(args, "shift"),
    "eval-links": lambda args: _binary_eval(args, "links"),
    "viz": cmd_viz,
    "pipeline": cmd_pipeline,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            print(parser.format_usage(), file=sys.stderr)
            return 1
        HANDLERS[args.command](args)
        return 0
    except UsageError as exc:
        print(exc.args[1], file=sys.stderr)
        return 1
    except KeyError as exc:
        # str() of a KeyError is the repr of its argument, quotes included
        print("error:", *exc.args, file=sys.stderr)
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
