"""Pinned tracer check: exact counts for one 3-D congruence search.

    python3 perfbench/pinned_check.py [--repeat 2]

random_polytope(5, 3, 12) against random_polytope(6, 3, 12) with
coarse=400, starts=4, max_iterations=500 on the 32x64 grid must report
5,935 objective calls and 11,875 qhull builds: 11,870 inside the
objective plus 5 for re-centring and the canonical key.  The inputs are
built before tracing starts.  Exits 1 when a count differs.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer, install_library_hooks, install_qhull_hook  # noqa: E402

PINNED = {"objective_calls": 5935, "qhull_builds": 11875, "qhull_in_objective": 11870}


def count_once(ch, tracer):
    d = ch.random_polytope(5, 3, 12)
    k = ch.random_polytope(6, 3, 12)
    grid = ch.make_grid_3d(32, 64)
    params = ch.SearchParams(coarse=400, starts=4, max_iterations=500)
    start = len(tracer.spans)
    tracer.enabled = True
    ch.congruence_distance(d, k, grid, params)
    tracer.enabled = False
    spans = tracer.spans[start:]
    names = tracer.names
    qhull = names.index("qhull")
    objective = names.index("congruence.objective")
    inside = set()  # spans at or below an objective call; parents come first
    for i, s in enumerate(spans, start):
        if s[0] == objective or s[3] in inside:
            inside.add(i)
    return {
        "objective_calls": sum(1 for s in spans if s[0] == objective),
        "qhull_builds": sum(1 for s in spans if s[0] == qhull),
        "qhull_in_objective": sum(1 for s in spans if s[0] == qhull and s[3] in inside),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=2)
    args = parser.parse_args()
    tracer = Tracer()
    install_qhull_hook(tracer)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import convexhyper as ch

    install_library_hooks(tracer)
    ok = True
    for i in range(args.repeat):
        counts = count_once(ch, tracer)
        match = counts == PINNED
        ok = ok and match
        print(f"run {i + 1}: {counts} {'matches' if match else 'DIFFERS FROM'} {PINNED}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
