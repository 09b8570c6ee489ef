"""The four workloads: seeded inputs, timed operations and their checks.

A workload is a list of rounds; a round is a fixed mix of operation kinds
whose inputs are drawn from the seed.  Every operation is a closure over
bodies built here, so the library only ever sees generated bodies.  An
operation returns its output; ``check`` judges all outputs of a run after
the timed batch, so checking never adds to a latency.

Polytopes are drawn with every point on a random ellipsoid, hence in
strictly convex position: a "12-vertex polytope" really has 12 vertices
and the cost of an operation varies less from seed to seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Acceptance-suite tolerances (tests/test_acceptance.py).
CONGRUENT_TOL = 1e-6  # criterion 8: a rigid motion gives distance < 1e-6
SYMMETRY_TOL = 2e-6  # criterion 8: |d(a,b) - d(b,a)| < 2 * refine_tol
BUDGET = 0.3  # criterion 7
REFERENCE_TOL = 1e-6  # criterion 4 equivariance tolerance, used for replays
BOUND_SLACK = 1e-9  # rounding slack on "never exceeds" comparisons

T_SEQUENCE = (0.2, 0.1, 0.05, 0.025)
REG2 = dict(radial_nodes=12, angular_nodes=384)
REG3 = dict(radial_nodes=8, angular_nodes=512)
CONGRUENCE_3D = dict(coarse=400, starts=4, max_iterations=500)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _orthogonal(rng, dim, improper=False):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if (np.linalg.det(q) < 0) != improper:
        q[:, 0] = -q[:, 0]
    return q


def _directions(rng, dim, count, symmetric=False):
    """Unit directions with a minimum pairwise separation (+-pairs if symmetric)."""
    need = count // 2 if symmetric else count
    spacing = 2.0 * math.pi / count if dim == 2 else math.sqrt(4.0 * math.pi / count)
    while True:
        if dim == 2:
            ang = rng.uniform(0.0, 2.0 * math.pi, need)
            dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        else:
            dirs = rng.standard_normal((need, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        full = np.vstack([dirs, -dirs]) if symmetric else dirs
        gram = np.clip(full @ full.T, -1.0, 1.0)
        np.fill_diagonal(gram, -1.0)
        if math.acos(gram.max()) > 0.35 * spacing:
            return full


def convex_polytope(ch, rng, dim, count, symmetric=False):
    """Polytope with exactly ``count`` vertices on a random ellipsoid."""
    axes = rng.uniform(0.6, 1.0, dim)
    frame = _orthogonal(rng, dim)
    pts = (_directions(rng, dim, count, symmetric) * axes) @ frame.T
    return ch.Polytope(pts)


def rigid_copy(ch, rng, body):
    """Rotated or reflected, then translated copy."""
    dim = body.vertices.shape[1]
    g = _orthogonal(rng, dim, improper=bool(rng.integers(2)))
    return ch.Polytope(body.vertices @ g.T + rng.uniform(-0.6, 0.6, dim))


class Grids:
    def __init__(self, ch):
        self.g2 = ch.make_grid_2d(2048)
        self.g3 = ch.make_grid_3d(32, 64)

    def of(self, dim):
        return self.g2 if dim == 2 else self.g3


class Op:
    """One timed operation: ``run()`` returns the output to be checked.

    ``run`` has no side effects, so it may be repeated (traced runs do).
    """

    def __init__(self, kind, label, run, **facts):
        self.kind = kind
        self.label = label
        self.run = run
        self.facts = facts


def interleave(ops):
    """Spread each kind evenly over the batch, keeping order within a kind.

    The machine's speed drifts over seconds; run kind by kind, one kind
    could meet a slow spell as a block and move the latency percentiles.
    """
    def kind(op):
        return op[0] if isinstance(op, tuple) else op.kind

    counts, seen, keys = {}, {}, []
    for op in ops:
        counts[kind(op)] = counts.get(kind(op), 0) + 1
    for op in ops:
        k = seen[kind(op)] = seen.get(kind(op), -1) + 1
        keys.append((k + 0.5) / counts[kind(op)])
    order = sorted(range(len(ops)), key=lambda i: keys[i])
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# congruence: distance matrices modulo rigid motions
# ---------------------------------------------------------------------------

def congruence_round(ch, rng, grids, r):
    ops = []
    sp2_same = ch.SearchParams(coarse=360, starts=4)
    sp2_diff = ch.SearchParams(coarse=180, starts=3)
    sp3 = ch.SearchParams(**CONGRUENCE_3D)

    def op(kind, label, a, b, grid, params, **facts):
        def run():
            return float(ch.congruence_distance(a, b, grid, params).distance)

        ops.append(Op(kind, f"r{r}.{label}", run, a=a, b=b, grid=grid, **facts))

    # The independent 2-D pairs are the kind with the steadiest latency (no
    # early exit), so there are enough of them for op_p50_ms and op_tail_ms
    # to fall inside that kind; congruent 2-D pairs exit after one start or
    # after several, which makes their latency bimodal.
    for i in range(4):
        a = convex_polytope(ch, rng, 2, 10)
        op("2d-congruent", f"c2.{i}", a, rigid_copy(ch, rng, a), grids.g2, sp2_same)
    for i in range(6):
        a = convex_polytope(ch, rng, 2, 9)
        b = convex_polytope(ch, rng, 2, 9)
        op("2d-distinct", f"d2.{i}.ab", a, b, grids.g2, sp2_diff, pair=f"r{r}.d2.{i}")
        op("2d-distinct", f"d2.{i}.ba", b, a, grids.g2, sp2_diff, pair=f"r{r}.d2.{i}")
    a = convex_polytope(ch, rng, 3, 12)
    op("3d-congruent", "c3", a, rigid_copy(ch, rng, a), grids.g3, sp3)
    op("3d-distinct", "d3", convex_polytope(ch, rng, 3, 12), convex_polytope(ch, rng, 3, 12),
       grids.g3, sp3)
    return ops


def congruence_check(ch, ops, outputs, reference):
    """Returns ({label: [reasons]} for failed operations, {label: output}).

    Every ``<workload>_check`` returns this pair; the second part is what
    ``--write-reference`` records for the seed.
    """
    failed = {}
    by_pair = {}
    for op, d in zip(ops, outputs):
        why = []
        if op.kind.endswith("congruent") and not d < CONGRUENT_TOL:
            why.append(f"congruent pair at distance {d:.3e}")
        a, b, grid = op.facts["a"], op.facts["b"], op.facts["grid"]
        bound = ch.hausdorff(ch.recenter(a, grid), ch.recenter(b, grid), grid)
        if d > bound + BOUND_SLACK:
            why.append(f"distance {d!r} above identity bound {bound!r}")
        ref = reference.get(op.label)
        if ref is not None and d > ref + REFERENCE_TOL:
            why.append(f"distance {d!r} above recorded {ref!r}")
        if "pair" in op.facts:
            by_pair.setdefault(op.facts["pair"], []).append((op.label, d))
        if why:
            failed[op.label] = why
    for members in by_pair.values():
        (la, da), (lb, db) = members
        if abs(da - db) >= SYMMETRY_TOL:
            for label in (la, lb):
                failed.setdefault(label, []).append(f"asymmetric {da!r} vs {db!r}")
    return failed, {op.label: d for op, d in zip(ops, outputs)}


# ---------------------------------------------------------------------------
# smoothing: the criterion-4 sweep over t, one t step per operation
# ---------------------------------------------------------------------------

def smoothing_round(ch, rng, grids, r):
    ops = []
    frame = _orthogonal(rng, 3)
    ellipsoid = ch.Ellipsoid(np.zeros(3), (frame * rng.uniform(0.1, 0.3, 3)) @ frame.T)
    bodies = [
        ("2d-polytope", convex_polytope(ch, rng, 2, 12)),
        ("3d-polytope", convex_polytope(ch, rng, 3, 16)),
        ("3d-polytope", convex_polytope(ch, rng, 3, 16)),
        ("3d-sum", ch.Sum(convex_polytope(ch, rng, 3, 16), ellipsoid)),
    ]
    for j, (kind, body) in enumerate(bodies):
        dim = ch.body_dim(body)
        grid = grids.of(dim)
        reg = REG2 if dim == 2 else REG3

        def make(t, body=body, grid=grid, reg=reg):
            def run():
                target = ch.recenter(body, grid)
                out = ch.regularize(body, ch.RegularizationParams(t=t, **reg), grid)
                dist = float(ch.hausdorff(out, target, grid, refine=False))
                positive = None
                if t >= 0.05:
                    positive = bool(ch.curvature_report(out, grid).ok)
                return [dist, positive]

            return run

        for t in T_SEQUENCE:
            ops.append(Op(kind, f"r{r}.b{j}.t{t}", make(t), body=f"r{r}.b{j}", t=t))
    return ops


def smoothing_check(ch, ops, outputs, reference):
    failed = {}
    prev = {}
    for op, (dist, positive) in zip(ops, outputs):
        why = []
        body = op.facts["body"]
        if not dist < prev.get(body, math.inf):
            why.append(f"distance {dist!r} not below the larger-t value")
        prev[body] = dist
        if op.facts["t"] >= 0.05 and positive is not True:
            why.append("curvature not positive")
        ref = reference.get(op.label)
        if ref is not None and abs(dist - ref[0]) > REFERENCE_TOL:
            why.append(f"distance {dist!r} differs from recorded {ref[0]!r}")
        if why:
            failed[op.label] = why
    return failed, {op.label: out for op, out in zip(ops, outputs)}


# ---------------------------------------------------------------------------
# symmetry: desymmetrize, verify trivial isotropy, eps-sequence of cuts
# ---------------------------------------------------------------------------

def symmetry_inputs(ch):
    cube = ch.Polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    ball = ch.polytope_approximation(ch.Ball(np.zeros(3), 1.0), 512)
    return cube, ball


def symmetry_round(ch, rng, grids, r, fixed):
    cube, ball = fixed
    bodies = [("cube", cube), ("ball", ball)]
    bodies += [("3d-symmetric", convex_polytope(ch, rng, 3, 10, symmetric=True)) for _ in range(4)]
    bodies += [("2d-symmetric", convex_polytope(ch, rng, 2, 8, symmetric=True)) for _ in range(16)]
    ops = []
    for j, (kind, body) in enumerate(bodies):
        dim = ch.body_dim(body)
        grid = grids.of(dim)
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)

        def run(body=body, grid=grid, u=u):
            out, faces = ch.desymmetrize(body, BUDGET, grid)
            syms = ch.isotropy_estimate(out, tol=1e-6, grid=grid)
            w = float(ch.width(out, u))
            cuts = [
                ch.truncate(out, ch.TruncationSpec(u, w * (0.1 + f)), grid)
                for f in (0.0, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)
            ]
            return out, [f.diameter for f in faces], [s.matrix for s in syms], cuts

        ops.append(Op(kind, f"r{r}.{kind}.{j}", run, body=body, grid=grid))
    return ops


def symmetry_check(ch, ops, outputs, reference):
    failed, record = {}, {}
    for op, (out, diams, syms, cuts) in zip(ops, outputs):
        why = []
        body, grid = op.facts["body"], op.facts["grid"]
        dim = ch.body_dim(body)
        if len(diams) != dim or not all(a > b for a, b in zip(diams, diams[1:])):
            why.append(f"fresh-face diameters {diams} not strictly decreasing")
        disp = float(ch.hausdorff(out, ch.recenter(body, grid), grid))
        if disp > BUDGET:
            why.append(f"displacement {disp!r} above budget")
        if len(syms) != 1 or not np.allclose(syms[0], np.eye(dim), atol=1e-9):
            why.append(f"{len(syms)} symmetries survive")
        base, steps = cuts[0], cuts[1:]
        dists = [float(ch.hausdorff(c, base, grid)) for c in steps]
        if not all(a > b for a, b in zip(dists, dists[1:])) or not dists[-1] < 0.1:
            why.append(f"eps-sequence distances {dists} not shrinking")
        record[op.label] = mine = diams + dists
        ref = reference.get(op.label)
        if ref is not None and (
            len(ref) != len(mine) or max(abs(a - b) for a, b in zip(mine, ref)) > REFERENCE_TOL
        ):
            why.append("differs from the recorded diameters and cut distances")
        if why:
            failed[op.label] = why
    return failed, record


# ---------------------------------------------------------------------------
# cli: one CLI process per operation
# ---------------------------------------------------------------------------

def _fmt(x):
    return "{:.17g}".format(float(x))


def cli_inputs(ch, rng, workdir):
    """Write the JSON bodies the commands read; returns {name: (path, body)}."""
    bodies = {
        "p2a": convex_polytope(ch, rng, 2, 10),
        "p2b": convex_polytope(ch, rng, 2, 10),
        "p3a": convex_polytope(ch, rng, 3, 12),
        "p3b": convex_polytope(ch, rng, 3, 12),
    }
    bodies["s2"] = ch.Sum(convex_polytope(ch, rng, 2, 10), ch.Ball(np.zeros(2), 0.2))
    bodies["s3"] = ch.Sum(convex_polytope(ch, rng, 3, 12), ch.Ball(np.zeros(3), 0.2))
    files = {}
    for name, body in bodies.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(ch.serialize_body(ch.BodyDocument(body=body)) + "\n")
        files[name] = path
    return files


def cli_round(ch, rng, files, workdir, r):
    """Command lines plus the in-process computation of the expected output."""

    def doc(name):
        with open(files[name]) as fh:
            return ch.parse_body(fh.read())

    def grid_for(body):
        from convexhyper import cli as cli_mod  # only when checking, not in setup

        return cli_mod._resolve_grid(ch.body_dim(body), None, None)

    def direction(dim):
        return ",".join(repr(float(v)) for v in rng.uniform(-1.0, 1.0, dim))

    def steiner(name):
        body = doc(name).body
        return " ".join(_fmt(v) for v in ch.steiner(body, grid_for(body))) + "\n"

    def hausdorff(x, y):
        a, b = doc(x).body, doc(y).body
        return _fmt(ch.hausdorff(a, b, grid_for(a))) + "\n"

    def support(name, text):
        x = np.asarray([float(v) for v in text.split(",")])
        return _fmt(ch.eval_support(doc(name).body, x)) + "\n"

    def curvature(name):
        body = doc(name).body
        rep = ch.curvature_report(body, grid_for(body), step=1e-3, margin=1e-6)
        payload = {"positive": rep.ok, "min_value": rep.min_value}
        if not rep.ok:
            payload["failing_node"] = rep.failing_node.tolist()
        return json.dumps(payload) + "\n"

    def congruence(x, y):
        a, b = doc(x).body, doc(y).body
        res = ch.congruence_distance(a, b, grid_for(a), ch.SearchParams(coarse=180))
        return json.dumps({
            "distance": res.distance,
            "rotation_matrix": res.optimizer.matrix.tolist(),
            "certificate_size": res.certificate_size,
        }) + "\n"

    def recenter(name, out):
        d = doc(name)
        text = ch.serialize_body(
            ch.BodyDocument(body=ch.recenter(d.body, grid_for(d.body)), metadata=d.metadata)
        )
        return ("file", out, text + "\n")

    commands = []

    def add(kind, args, expect):
        commands.append((kind, f"r{r}.{len(commands)}.{args[0]}", args, expect))

    add("query", ["steiner", files["p2a"]], lambda: steiner("p2a"))
    add("query", ["steiner", files["p3a"]], lambda: steiner("p3a"))
    add("query", ["steiner", files["s3"]], lambda: steiner("s3"))
    add("query", ["steiner", files["p2b"]], lambda: steiner("p2b"))
    add("query", ["hausdorff", files["p2a"], files["p2b"]], lambda: hausdorff("p2a", "p2b"))
    add("query", ["hausdorff", files["p3a"], files["p3b"]], lambda: hausdorff("p3a", "p3b"))
    add("query", ["hausdorff", files["p2b"], files["p2a"]], lambda: hausdorff("p2b", "p2a"))
    for name, dim in (("p3a", 3), ("s2", 2), ("p2b", 2), ("p3b", 3)):
        text = direction(dim)
        add("query", ["support", files[name], "--dir", text],
            lambda name=name, text=text: support(name, text))
    for name in ("p2b", "p3b"):
        out = os.path.join(workdir, f"r{r}-{name}-centered.json")
        add("query", ["recenter", files[name], "--out", out],
            lambda name=name, out=out: recenter(name, out))
    add("query", ["curvature", files["s2"]], lambda: curvature("s2"))
    add("query", ["curvature", files["s3"]], lambda: curvature("s3"))
    add("search", ["congruence", files["p2a"], files["p2b"], "--coarse", "180"],
        lambda: congruence("p2a", "p2b"))
    return commands


def cli_check(ch, commands, outputs, reference):
    failed, record = {}, {}
    for (kind, label, args, expect), (stdout, code) in zip(commands, outputs):
        why = []
        if code != 0:
            why.append(f"exit code {code}")
        wanted = expect()
        if isinstance(wanted, tuple):  # the command writes a file, not stdout
            _, path, wanted = wanted
            try:
                with open(path) as fh:
                    got = fh.read()
            except OSError as exc:
                got = f"<{exc}>"
        else:
            got = stdout
        if got != wanted:
            why.append(f"output {got[:120]!r} != library {wanted[:120]!r}")
        ref = reference.get(label)
        if ref is not None and got != ref:
            why.append("output differs from the recorded one")
        record[label] = got
        if why:
            failed[label] = why
    return failed, record
