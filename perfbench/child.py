"""One workload process: set up, run the timed batch, check, report.

Run by ``run.py``; not meant to be called by hand.  Modes:

* ``setup``: import, build grids and inputs, report when ready, exit.
* ``run``:   setup, then the timed batch with no tracing at all.
* ``trace``: the outside-in tracer is installed before ``convexhyper``
  is imported, and every operation runs twice in a row, once traced and
  once not (alternating which goes first), so that the tracing overhead
  is measured on the same inputs under the same machine conditions.
  Spans go to ``perfbench/out``.

The last stdout line is one JSON object.  ``ready_ns`` is read from
CLOCK_MONOTONIC, which is shared by all processes of the machine, so the
parent can subtract its own spawn time from it.
"""

from __future__ import annotations

import time

START_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")

# Whole rounds in a batch: seconds // (round time measured at the commit
# that defined the benchmark, 2-core x86-64), at least one.  The work done
# depends on --seconds only, never on how fast the program runs.
NOMINAL_ROUND_S = {"congruence": 22.0, "smoothing": 29.0, "symmetry": 21.0, "cli": 17.0}


def monotonic_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def import_library(tracer):
    sys.path.insert(0, SRC)
    if tracer is not None:
        from tracer import install_qhull_hook

        install_qhull_hook(tracer)
    import convexhyper

    where = os.path.realpath(convexhyper.__file__)
    expected = os.path.realpath(os.path.join(SRC, "convexhyper", "__init__.py"))
    if where != expected:
        raise SystemExit(f"imported convexhyper from {where}, expected {expected}")
    return convexhyper


def rounds_for(workload, seconds):
    return max(1, int(seconds // NOMINAL_ROUND_S[workload]))


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CONVEXHYPER_GRID", None)
    return env


def build(ch, workload, seed, seconds, workdir):
    """Grids and seeded inputs; returns the list of operations."""
    import numpy as np

    import workloads as wl

    rng = np.random.default_rng(seed)
    grids = wl.Grids(ch)
    n = rounds_for(workload, seconds)
    if workload == "congruence":
        rounds = [wl.congruence_round(ch, rng, grids, r) for r in range(n)]
    elif workload == "smoothing":
        rounds = [wl.smoothing_round(ch, rng, grids, r) for r in range(n)]
    elif workload == "symmetry":
        fixed = wl.symmetry_inputs(ch)
        rounds = [wl.symmetry_round(ch, rng, grids, r, fixed) for r in range(n)]
    else:
        files = wl.cli_inputs(ch, rng, workdir)
        rounds = [wl.cli_round(ch, rng, files, workdir, r) for r in range(n)]
    return [op for ops in rounds for op in wl.interleave(ops)]


def run_cli(command, traced, dump_path):
    """One CLI process; returns (stdout, exit code)."""
    kind, label, args, expect = command
    if traced:
        argv = [sys.executable, os.path.join(HERE, "cli_trace.py"), dump_path, *args]
    else:
        argv = [sys.executable, "-m", "convexhyper.cli", *args]
    proc = subprocess.run(argv, cwd=ROOT, env=cli_env(), capture_output=True, text=True,
                          timeout=120)
    return proc.stdout, proc.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    ch = import_library(tracer)
    import_s = (monotonic_ns() - START_NS) * 1e-9
    import workloads as wl

    if tracer is not None:
        from tracer import install_library_hooks

        install_library_hooks(tracer)
        tracer.enabled = True

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = build(ch, args.workload, args.seed, args.seconds, workdir)
        ready_ns = monotonic_ns()
        if args.mode == "setup":
            print(json.dumps({"ready_ns": ready_ns}), flush=True)
            return
        result = run_batch(ch, wl, args, ops, tracer, workdir, import_s)
        result["ready_ns"] = ready_ns
        result["convexhyper_file"] = os.path.realpath(ch.__file__)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_batch(ch, wl, args, ops, tracer, workdir, import_s):
    is_cli = args.workload == "cli"
    latencies, traced_latencies, outputs, dumps = [], [], [], []

    def execute(i, op, traced):
        if is_cli:
            dump = os.path.join(workdir, f"spans-{i}.json")
            out = run_cli(op, traced, dump)
            if traced:
                with open(dump) as fh:
                    dumps.append(json.load(fh))
            return out
        tracer.enabled = traced
        try:
            return op.run()
        finally:
            tracer.enabled = False

    if tracer is not None:
        tracer.enabled = False  # setup was traced; the batch toggles it per run
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is None:
            t0 = time.perf_counter()
            outputs.append(run_cli(op, False, None) if is_cli else op.run())
            latencies.append(time.perf_counter() - t0)
            continue
        tracer.op = i
        for traced in (False, True) if i % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            out = execute(i, op, traced)
            elapsed = time.perf_counter() - t0
            if traced:
                traced_latencies.append(elapsed)
            else:
                latencies.append(elapsed)
                outputs.append(out)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s += (children1.ru_utime - children0.ru_utime) + (children1.ru_stime - children0.ru_stime)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children1.ru_maxrss)
    if tracer is not None:
        # the CLI processes report their own import; here it is this process's
        dumps.insert(0, dict(tracer.dump(), import_s=None if is_cli else import_s))

    reference_path = os.path.join(REFERENCE_DIR, f"{args.workload}-seed{args.seed}.json")
    reference = {}
    if os.path.exists(reference_path) and not args.write_reference:
        with open(reference_path) as fh:
            reference = json.load(fh)
    failed, record = getattr(wl, f"{args.workload}_check")(ch, ops, outputs, reference)
    if args.write_reference:
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(reference_path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")

    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "latencies_s": latencies,
        "kinds": [op[0] if is_cli else op.kind for op in ops],
        "attempted": len(ops),
        "failed": failed,
        "reference_checked": bool(reference),
    }
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"processes": dumps}, fh, separators=(",", ":"))
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        result["layers"] = layer_metrics(dumps)
        result["untraced_s"] = sum(latencies)
        result["traced_s"] = sum(traced_latencies)
        result["layers"]["trace.overhead_ratio"] = result["traced_s"] / result["untraced_s"] - 1.0
        result["hooks_missing"] = sorted({m for d in dumps for m in d.get("missing", [])})
    return result


def layer_metrics(dumps):
    """Per-layer metrics from the span dumps of every traced process."""
    from statistics import median

    from tracer import summarize

    s = summarize(dumps)

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    obj_calls = get("congruence.objective", "calls")
    m = {
        "congruence.objective.calls": obj_calls,
        "congruence.objective.mean_us": (
            get("congruence.objective", "incl_s") / obj_calls * 1e6 if obj_calls else 0.0
        ),
        "congruence.coarse_s": s["_coarse_s"],
        "congruence.refine_s": get("congruence.refine", "incl_s"),
        "congruence.refine.calls": get("congruence.refine", "calls"),
        "qhull.builds": get("qhull", "calls"),
        "qhull.self_s": get("qhull", "self_s"),
    }
    for name in (
        "metrics.exact_hausdorff", "metrics.hausdorff", "metrics.steiner",
        "metrics.support_moment_matrix", "bodies.support_values",
        "bodies.convex_hull_vertices", "regularization.mollify",
        "curvature.curvature_report", "truncation.truncate", "truncation.desymmetrize",
        "truncation.isotropy_estimate", "quadrature.grids",
    ):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["bodies.support_values.rows"] = get("bodies.support_values", "rows")
    m["regularization.kernel_rows"] = get("kernel", "rows")
    m["regularization.kernel_bytes_computed"] = get("kernel", "row_bytes")
    m["regularization.canonical_frame.self_s"] = get("regularization.canonical_frame", "self_s")
    m["truncation.isotropy.candidates"] = get("truncation.isotropy.candidates", "rows")
    imports = [d["import_s"] for d in dumps if d.get("import_s") is not None]
    commands = [d["command_s"] for d in dumps if d.get("command_s") is not None]
    m["cli.command_s"] = median(commands) if commands else 0.0
    m["cli.import_s"] = median(imports) if imports else None
    m["serialization.parse_body.self_s"] = get("serialization.parse_body", "self_s")
    m["serialization.serialize_body.self_s"] = get("serialization.serialize_body", "self_s")
    return m


if __name__ == "__main__":
    main()
