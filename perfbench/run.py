"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload colex-prone --seed 1 --seconds 20 --trace 0

Run from the repository root. The runner imports colexvec from ./src,
generates the workload's inputs from the seed, makes one warm-up call, then
runs the workload's CLI steps in-process as passes until --seconds have
gone by (at least one pass). After each pass it checks every step's output.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs one untraced pass and one traced pass and reports the
per-layer metrics. The last line of standard output is the result object;
the line before it is the environment record. A full record of the run,
spans included, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups per run; setup_s is the median
SETUP_REPEATS = 5


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_info() -> dict:
    """OpenBLAS build string and thread count, from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def environment(args, sizes: dict) -> dict:
    import numpy
    import scipy

    from colexvec.runtime import worker_count

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "colexvec_workers": worker_count(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "inputs": sizes,
    }


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def warm_up(seed: int) -> None:
    """First-call costs (BLAS threads, allocator) before timing: one tSVD at graph scale."""
    import scipy.sparse as sp

    from colexvec.numerics import randomized_tsvd

    m = sp.random_array((1300, 1300), density=0.03, format="csr", rng=seed)
    randomized_tsvd(m, 128, seed)


def invoke(argv: list) -> tuple:
    """One colexvec.cli.run call with its output captured: (exit code, error text)."""
    from colexvec import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([str(a) for a in argv])
    except Exception:  # a traceback out of the CLI is a failed step, not a crash
        return -1, traceback.format_exc()
    return code, err.getvalue()


def run_pass(workload, inputs: Path, out: Path, seed: int, tracer=None) -> dict:
    """Time one pass of the workload's steps, then check every step's output."""
    out.mkdir(parents=True)
    steps = workload.steps(inputs, out, seed)
    results, step_s = [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for step in steps:
        span = tracer.span(f"cli.step.{step.command}") if tracer else contextlib.nullcontext()
        with span:
            results.append(invoke(step.argv))
        step_s.append(time.perf_counter() - t0 - sum(step_s))
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0

    failures, quality = [], []
    for index, (step, (code, err)) in enumerate(zip(steps, results)):
        where = f"step {index} {step.command}"
        if code != 0:
            failures.append(f"{where}: exit {code}: {err.strip()[-2000:]}")
            continue
        try:
            value = step.check() if step.check else None
        except Exception as exc:  # any check error marks the step failed
            failures.append(f"{where}: {type(exc).__name__}: {exc}")
            continue
        if step.task:
            quality.append((index, step.task, step.sign * value))
    shutil.rmtree(out)
    return {"wall_s": wall, "cpu_s": cpu, "steps": len(steps), "step_s": step_s,
            "failures": failures, "quality": quality}


def quality_means(quality: list) -> dict:
    means = {}
    for task, name in (("lsim", "lsim_rho"), ("shift", "shift_acc"), ("links", "links_acc")):
        values = [v for _, t, v in quality if t == task]
        means[name] = sum(values) / len(values) if values else float("nan")
    return means


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory (see the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "colexvec" / "__init__.py").is_file():
        print(f"perfbench: no colexvec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import colexvec.cli  # noqa: F401  (timed as part of set-up)

    import workloads

    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = work / "inputs"
    setup_times, digests = [], set()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            sizes = workload.generate(inputs, args.seed)
            warm_up(args.seed)
            setup_times.append(time.perf_counter() - t0)
            digests.add(digest_dir(inputs))
        if len(digests) != 1:
            print("perfbench: the input generator is not deterministic", file=sys.stderr)
            return 1
        sizes["input_bytes"] = sum(f.stat().st_size for f in inputs.iterdir())
        env = environment(args, sizes)

        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, inputs, work / f"pass{len(passes)}", args.seed))
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + passes[-1]["wall_s"] > args.seconds:
                break

        record = {"env": env, "setup_times": setup_times, "import_s": import_s}
        if args.trace:
            import probes
            from spans import Tracer

            tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
            probes.install(tracer)
            try:
                with tracer.epoch_log("colexvec.node2vec"):
                    traced = run_pass(workload, inputs, work / "traced", args.seed, tracer)
            finally:
                tracer.restore()
            passes.append(traced)
            metrics = probes.layer_metrics(tracer, traced["wall_s"], passes[0]["wall_s"])
            record["trace"] = tracer.to_json()
        else:
            metrics = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": import_s + statistics.median(setup_times),
                **quality_means(passes[0]["quality"]),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = metric_units(trace=bool(args.trace))
    if set(metrics) != set(expected):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(expected))}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in p["failures"]]
    first = {index: value for index, _, value in passes[0]["quality"]}
    failures += [
        f"pass {k} step {index} {task}: metric {value!r} differs from pass 0's {first.get(index)!r}"
        for k, p in enumerate(passes[1:], start=1)
        for index, task, value in p["quality"] if value != first.get(index)
    ]
    attempted = sum(p["steps"] for p in passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in expected.items()},
    }
    record.update(passes=passes, failures=failures, result=result)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


def metric_units(trace: bool) -> dict:
    """Name -> unit of the per-layer (trace) or end-to-end metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
