"""convexhyper benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload congruence --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that has ``src/convexhyper``; the
library is imported from that ``src/`` (it is not installed), never from
another copy on the path.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median of
three fresh interpreters that import convexhyper, build the grids and
generate the seeded inputs; the other metrics come from one closed-loop
caller running the batch in its own process, untraced.

``--trace 1`` prints the per-layer metrics: one process runs every
operation of the batch twice in a row, untraced and under the outside-in
tracer (``tracer.py``); ``trace.overhead_ratio`` is the traced time over
the untraced time of the same operations, minus 1.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it give the op_tail percentile, machine facts and
provenance; the full record goes to ``perfbench/out/result-*.json``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "convexhyper")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("congruence", "smoothing", "symmetry", "cli")
DEADLINE_S = 170.0  # the whole run, children included
SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s, the batch process included
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with at least this many ops above it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def monotonic_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class ChildError(RuntimeError):
    pass


def spawn(workload, seed, seconds, mode, deadline, extra=()):
    """Run child.py to completion; returns (spawn_ns, parsed last line)."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, *extra]
    spawn_ns = monotonic_ns()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{mode} process for {workload} overran the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} process for {workload} exited with {proc.returncode}")
    return spawn_ns, json.loads(lines[-1])


def tail(latencies):
    """(value, percentile, ops beyond) for the op_tail_ms definition."""
    ordered = sorted(latencies)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        raise ChildError(f"{len(ordered)} operations: op_tail_ms needs more than {TAIL_BEYOND}")
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def src_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; src_sha256 identifies the code
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=ROOT))
    return proc.stdout.strip() or None


def machine_facts():
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end(setups, result):
    lat_ms = [x * 1000.0 for x in result["latencies_s"]]
    tail_ms, pct, beyond = tail(lat_ms)
    attempted = result["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (result["wall_s"], "s"),
        "cpu_s": (result["cpu_s"], "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "pass_ratio": ((attempted - len(result["failed"])) / attempted, "ratio"),
    }
    notes = {"op_tail_percentile": pct, "op_tail_ops_beyond": beyond, "ops": attempted,
             "setup_samples_s": setups}
    return metrics, notes


def per_layer(layers):
    units = {}
    for name in layers:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_us"):
            units[name] = "us"
        elif name.endswith("bytes_computed"):
            units[name] = "bytes"
        elif name.endswith("ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return {name: (value, units[name]) for name, value in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no convexhyper sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    facts = machine_facts()
    extra = ("--write-reference",) if args.write_reference else ()
    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                spawn_ns, ready = spawn(args.workload, args.seed, args.seconds, "setup", deadline)
                setups.append((ready["ready_ns"] - spawn_ns) * 1e-9)
            spawn_ns, result = spawn(args.workload, args.seed, args.seconds, "run", deadline,
                                     extra)
            setups.append((result["ready_ns"] - spawn_ns) * 1e-9)
            metrics, notes = end_to_end(setups, result)
        else:
            _, result = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
            metrics = per_layer(result["layers"])
            notes = {"untraced_s": result["untraced_s"], "traced_s": result["traced_s"],
                     "spans_file": result["spans_file"], "hooks_missing": result["hooks_missing"]}
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    provenance = dict(
        facts,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_commit=git_commit(),
        src_sha256=src_digest(),
        convexhyper_file=os.path.relpath(result["convexhyper_file"], ROOT),
        loadavg_start=load_start,
        loadavg_end=os.getloadavg(),
        reference_checked=result["reference_checked"],
    )
    failed = result["failed"]
    for label, reasons in sorted(failed.items()):
        print(f"FAILED {label}: {'; '.join(reasons)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print("notes: " + json.dumps(notes))
    print("provenance: " + json.dumps(provenance))
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"metrics": metrics, "notes": notes, "provenance": provenance,
                   "failed": failed, "latencies_s": result["latencies_s"],
                   "kinds": result["kinds"]}, fh, indent=1)
    print(json.dumps({
        "correct": not failed,
        "attempted": result["attempted"],
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
