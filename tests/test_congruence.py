import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from convexhyper import (
    Ball,
    DimensionMismatchError,
    Ellipsoid,
    InvalidArgumentError,
    Polytope,
    Rotated,
    Rotation,
    SearchParams,
    Sum,
    congruence_distance,
    hausdorff,
    random_polytope,
    random_rotation,
    recenter,
    same_congruence_class,
    support_values,
    translate,
)

from convexhyper import congruence
from convexhyper.bodies import rigid_motion
from convexhyper.metrics import exact_hausdorff
from convexhyper.quadrature import make_grid_2d, make_grid_3d
from convexhyper.rotations import circle_candidates, icosahedral_rotations, sphere_candidates
from oracles import (cancel_lockstep, coarse_congruence_3d, enumerated_hausdorff,
                     sequential_congruence_2d, sequential_congruence_3d, solo_starts_3d,
                     two_run_congruence_3d)

FAST2 = SearchParams(coarse=180, starts=3)


def test_icosahedral_rotations_cached():
    mats = icosahedral_rotations()
    assert icosahedral_rotations() is mats
    assert not mats.flags.writeable
    assert mats.shape == (60, 3, 3)
    eye = np.broadcast_to(np.eye(3), mats.shape)
    np.testing.assert_allclose(mats @ mats.transpose(0, 2, 1), eye, atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(mats), 1.0, atol=1e-12)
    assert len({tuple(np.round(m, 9).ravel()) for m in mats}) == 60


def test_self_distance_zero(grid2):
    body = random_polytope(71, 2, 10)
    res = congruence_distance(body, body, grid2, FAST2)
    assert res.distance < 1e-9


def test_recovers_rigid_motion_2d(grid2):
    body = random_polytope(72, 2, 12)
    g = random_rotation(1, 2, proper=False).matrix
    moved = translate(Polytope(body.vertices @ g.T), [0.7, -0.4])
    res = congruence_distance(body, moved, grid2, FAST2)
    assert res.distance < 1e-6


def test_recovers_rigid_motion_3d(grid3_small):
    body = random_polytope(73, 3, 14)
    g = random_rotation(2, 3).matrix
    moved = translate(Polytope(body.vertices @ g.T), [0.2, 0.5, -0.1])
    res = congruence_distance(body, moved, grid3_small, SearchParams(coarse=400, starts=4))
    assert res.distance < 1e-6


def test_cube_vs_ball(cube, unit_ball_3d, grid3):
    res = congruence_distance(cube, unit_ball_3d, grid3, SearchParams(starts=2))
    assert abs(res.distance - (math.sqrt(3.0) - 1.0)) < 2e-3


def test_scaled_cube_not_congruent(cube, grid3_small):
    bigger = Polytope(cube.vertices * 1.01)
    assert not same_congruence_class(
        cube, bigger, 1e-3, grid3_small, SearchParams(starts=2)
    )


def test_segments_congruent(grid2):
    a = Polytope([[0.0, 0.0], [1.0, 0.0]])
    b = Polytope([[0.3, 0.3], [0.3 + 1.0 / math.sqrt(2), 0.3 + 1.0 / math.sqrt(2)]])
    res = congruence_distance(a, b, grid2, FAST2)
    assert res.distance < 1e-6


def test_certificate_invariants(grid2):
    d_body = random_polytope(74, 2, 10)
    k_body = random_polytope(75, 2, 10)
    res = congruence_distance(d_body, k_body, grid2, FAST2)
    values = np.asarray([v for _, v in res.certificate])
    assert res.distance <= values.min() + 1e-12
    # identity is always a candidate: distance bounded by centered hausdorff
    upper = hausdorff(recenter(d_body, grid2), recenter(k_body, grid2), grid2)
    assert res.distance <= upper + 1e-12


def test_group_invariance(grid2):
    d_body = random_polytope(76, 2, 10)
    k_body = random_polytope(77, 2, 10)
    g = random_rotation(3, 2).matrix
    base = congruence_distance(d_body, k_body, grid2, FAST2).distance
    moved = congruence_distance(
        Polytope(d_body.vertices @ g.T), k_body, grid2, FAST2
    ).distance
    assert abs(base - moved) < 1e-6


def test_pseudometric_laws(grid2):
    bodies = [random_polytope(80 + i, 2, 9) for i in range(3)]
    p = FAST2
    d = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                d[i, j] = congruence_distance(bodies[i], bodies[j], grid2, p).distance
    tol = 1e-6
    assert abs(d[0, 1] - d[1, 0]) < 2 * tol
    assert d[0, 2] <= d[0, 1] + d[1, 2] + 2 * tol


@pytest.mark.parametrize("dim, seeds", [(2, (510, 520)), (3, (500, 510))])
def test_parallel_body_distance_bounds_dense_sweep(dim, seeds, grid2, grid3_small):
    # P + rB has h = h_P + r on unit vectors, so the exact objective covers
    # it; a grid maximum is only a lower bound at each rotation, and its
    # minimum fell below the true value at the reported optimizer
    grid = grid2 if dim == 2 else grid3_small
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(2**18) / 2**18
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        dirs = make_grid_3d(512, 1024).nodes
    for seed in seeds:
        d_body = Sum(random_polytope(seed, dim, 10), Ball(np.zeros(dim), 0.2))
        k_body = random_polytope(seed + 1, dim, 10)
        res = congruence_distance(d_body, k_body, grid)
        dc, kc = recenter(d_body, grid), recenter(k_body, grid)
        g = res.optimizer.matrix
        sweep = np.abs(support_values(dc, dirs @ g) - support_values(kc, dirs)).max()
        assert sweep <= res.distance + 1e-12


@pytest.mark.parametrize("coarse", [3, 2**16 + 1, 10**14])
def test_coarse_size_checked(coarse):
    # 10**14 coarse angles once filled memory building the candidate list
    with pytest.raises(InvalidArgumentError):
        SearchParams(coarse=coarse)


@pytest.mark.parametrize("kwargs", [
    {"coarse": 10.5}, {"coarse": True}, {"starts": 2.0}, {"starts": True},
    {"max_iterations": 0}, {"max_iterations": -5}, {"max_iterations": 500.0},
    {"max_iterations": False}, {"include_reflections": "no"}, {"include_reflections": 1},
], ids=lambda kw: ",".join(f"{k}={v!r}" for k, v in kw.items()))
def test_search_params_checked(kwargs):
    # 10.5 used to fail later with a TypeError, max_iterations <= 0 skipped
    # the 3-D refinement, and the truthy "no" searched O(n)
    with pytest.raises(InvalidArgumentError):
        SearchParams(**kwargs)


def test_dimension_mismatch(square, unit_ball_3d, grid2):
    with pytest.raises(DimensionMismatchError):
        congruence_distance(square, unit_ball_3d, grid2)


# ---------------------------------------------------------------------------
# the stacked objective: one exact Hausdorff value per matrix of a stack
# ---------------------------------------------------------------------------

def _stacked(d_body, k_body, grid):
    """The search's objective for the pair (d_body, k_body), unswapped."""
    rots = congruence._rotatable(d_body), congruence._rotatable(k_body)
    return congruence._objective(*rots, d_body, support_values(k_body, grid.nodes), grid.nodes)


def _moved(body, g):
    if isinstance(body, Ball):
        return Ball(g @ body.center, body.radius)
    return rigid_motion(body, g)


_BALL2 = Ball(np.array([0.05, -0.1]), 0.6)
_BALL3 = Ball(np.array([0.05, -0.1, 0.02]), 0.6)
_PAIRS = {
    "2d-polytopes": (random_polytope(301, 2, 9), random_polytope(302, 2, 11)),
    "2d-polytope-ball": (random_polytope(303, 2, 8), _BALL2),
    "2d-ball-polytope": (_BALL2, random_polytope(303, 2, 8)),
    "3d-polytopes": (random_polytope(304, 3, 12), random_polytope(305, 3, 10)),
    "3d-polytope-ball": (random_polytope(306, 3, 12), _BALL3),
    "3d-ball-polytope": (_BALL3, random_polytope(306, 3, 12)),
}


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_stacked_objective_matches_exact_hausdorff(name, grid2, grid3_small):
    d_body, k_body = _PAIRS[name]
    if name.startswith("2d"):
        grid, mats = grid2, circle_candidates(180)
    else:
        grid, mats = grid3_small, sphere_candidates(100)
    assert (np.linalg.det(mats) < 0).any() and (np.linalg.det(mats) > 0).any()
    values = _stacked(d_body, k_body, grid)(mats)
    # exact_hausdorff is the kernel itself except on polygon pairs (arcs)
    reference = exact_hausdorff if name == "2d-polytopes" else enumerated_hausdorff
    expected = [reference(_moved(d_body, g), k_body) for g in mats]
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-11)


def test_stacked_objective_bounds_dense_sweep_2d(grid2):
    # the pair of test_exact_2d_matches_dense_sweep; no sampled direction
    # may show a larger support gap than the enumerated critical set
    p, q = random_polytope(9445, 2, 9), random_polytope(9446, 2, 9)
    mats = circle_candidates(180)
    values = _stacked(p, q, grid2)(mats)
    theta = 2.0 * math.pi * np.arange(65536) / 65536
    dirs = np.stack([np.cos(theta), np.sin(theta)])
    h_q = (q.vertices @ dirs).max(axis=0)
    for g, value in zip(mats, values):
        sweep = np.abs((p.vertices @ g.T @ dirs).max(axis=0) - h_q).max()
        assert sweep <= value + 1e-12


def test_stacked_objective_bounds_dense_sweep_3d(grid3_small):
    p, q = random_polytope(9447, 3, 12), random_polytope(9448, 3, 12)
    mats = sphere_candidates(100)[::8]
    values = _stacked(p, q, grid3_small)(mats)
    dirs = make_grid_3d(256, 512).nodes.T
    h_q = (q.vertices @ dirs).max(axis=0)
    for g, value in zip(mats, values):
        sweep = np.abs((p.vertices @ g.T @ dirs).max(axis=0) - h_q).max()
        assert sweep <= value + 1e-12


@pytest.mark.parametrize("name", ["2d-polytopes", "3d-polytopes", "3d-ball-polytope"])
def test_stacked_objective_blocking(name, grid2, grid3_small, monkeypatch):
    d_body, k_body = _PAIRS[name]
    grid = grid2 if name.startswith("2d") else grid3_small
    mats = circle_candidates(180) if name.startswith("2d") else sphere_candidates(100)
    blocked = _stacked(d_body, k_body, grid)(mats)
    monkeypatch.setattr(congruence, "_STACK_ENTRIES", 1)  # one rotation per block
    np.testing.assert_allclose(_stacked(d_body, k_body, grid)(mats), blocked, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_certificate_values_are_stacked_values(dim, grid2, grid3_small):
    grid = grid2 if dim == 2 else grid3_small
    params = FAST2 if dim == 2 else SearchParams(coarse=100, starts=1, max_iterations=20)
    for seed in (310, 320):  # one of the two pairs is put in swapped order
        d_body, k_body = random_polytope(seed, dim, 9), random_polytope(seed + 1, dim, 9)
        res = congruence_distance(d_body, k_body, grid, params)
        dc, kc = recenter(d_body, grid), recenter(k_body, grid)
        mats = np.array([r.matrix for r, _ in res.certificate])
        if congruence._swapped(dc, kc, grid.nodes):
            dc, kc, mats = kc, dc, mats.transpose(0, 2, 1)
        values = np.array([v for _, v in res.certificate])
        np.testing.assert_array_equal(values, _stacked(dc, kc, grid)(mats))
        assert res.distance <= values.min()


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_stacked_gap_is_row_max_of_gaps(name):
    # a positive scale commutes with max under rounding, so every objective
    # value keeps its bits when the kernel returns each direction's gaps
    d_body, k_body = _PAIRS[name]
    mats = circle_candidates(180) if name.startswith("2d") else sphere_candidates(100)
    d, k = congruence._rotatable(d_body), congruence._rotatable(k_body)
    gaps = congruence._stacked_gaps(d, k, mats)
    assert gaps.shape[0] == len(mats)
    np.testing.assert_array_equal(congruence._stacked_gap(d, k, mats), gaps.max(axis=1))


def test_stacked_objective_memory_bound(grid3_small):
    # a block cap sized for speed alone (1e6 entries) costs tens of MB here
    d_body, k_body = random_polytope(330, 3, 12), random_polytope(331, 3, 12)
    mats = sphere_candidates(400)
    assert mats.shape[0] == 944
    objective = _stacked(d_body, k_body, grid3_small)
    tracemalloc.start()
    try:
        objective(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------------------
# exact maps: congruent polytope pairs end without a search
# ---------------------------------------------------------------------------

def _no_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("coarse scan on a pair with exact maps")

    monkeypatch.setattr(congruence, "circle_candidates", scan)
    monkeypatch.setattr(congruence, "sphere_candidates", scan)


def _counted_scan(monkeypatch) -> list:
    calls = []
    for name in ("circle_candidates", "sphere_candidates"):
        def scan(*args, _scan=getattr(congruence, name), **kwargs):
            calls.append(args)
            return _scan(*args, **kwargs)

        monkeypatch.setattr(congruence, name, scan)
    return calls


def _criterion_8_motions():
    """The 50 rigid motions of acceptance criterion 8, with their grids and search."""
    grid2, grid3 = make_grid_2d(2048), make_grid_3d(32, 64)
    for i in range(25):
        body = random_polytope(9000 + i, 2, 10)
        g = random_rotation(9100 + i, 2, proper=False).matrix
        moved = translate(Polytope(body.vertices @ g.T), [0.3, -0.6])
        yield body, moved, grid2, SearchParams(coarse=360, starts=4)
    for i in range(25):
        body = random_polytope(9200 + i, 3, 12)
        g = random_rotation(9300 + i, 3, proper=False).matrix
        moved = translate(Polytope(body.vertices @ g.T), [0.2, 0.1, -0.4])
        yield body, moved, grid3, SearchParams(coarse=400, starts=4, max_iterations=500)


def test_rigid_motions_take_exact_maps(monkeypatch):
    _no_scan(monkeypatch)
    for body, moved, grid, params in _criterion_8_motions():
        res = congruence_distance(body, moved, grid, params)
        back = congruence_distance(moved, body, grid, params)
        # the two orders tie on the rounded moment spectrum; the tie-break
        # puts both in one order, so they give the same bits
        assert res.distance == back.distance < 1e-9
        np.testing.assert_array_equal(res.optimizer.matrix, back.optimizer.matrix.T)
        np.testing.assert_array_equal(res.values, back.values)
        # the distance is the least exact value over the maps, at the optimizer
        for r, (p, q) in ((res, (body, moved)), (back, (moved, body))):
            assert r.certificate_size == len(r.candidates) >= 1
            dc, kc = recenter(p, grid), recenter(q, grid)
            assert r.distance == r.values.min()
            np.testing.assert_array_equal(r.optimizer.matrix, r.candidates[np.argmin(r.values)])
            exact = [exact_hausdorff(rigid_motion(dc, g), kc) for g in r.candidates]
            np.testing.assert_allclose(r.values, exact, rtol=0.0, atol=1e-12)


def test_same_class_from_maps_without_search(monkeypatch, grid2, grid3_small):
    _no_scan(monkeypatch)
    for seed in range(5):
        dim = 2 + seed % 2
        body = random_polytope(340 + seed, dim, 9)
        g = random_rotation(350 + seed, dim, proper=False).matrix
        moved = translate(Polytope(body.vertices @ g.T), np.full(dim, 0.3))
        assert same_congruence_class(body, moved, 1e-6, grid2 if dim == 2 else grid3_small)
    # vertices moved by 1e-5: a map meets tol = 1e-3 but not _EARLY_EXIT
    body = random_polytope(360, 3, 10)
    nudged = Polytope(body.vertices + 1e-5 * np.random.default_rng(361).standard_normal(body.vertices.shape))
    assert same_congruence_class(body, rigid_motion(nudged, random_rotation(362, 3).matrix),
                                 1e-3, grid3_small)


def test_mirror_image_needs_reflections(monkeypatch, grid3_small):
    body = random_polytope(370, 3, 10)  # generic, so chiral
    mirror = Polytope(body.vertices * np.array([1.0, 1.0, -1.0]))
    proper = SearchParams(coarse=200, starts=2, include_reflections=False, max_iterations=100)
    calls = _counted_scan(monkeypatch)
    assert congruence_distance(body, mirror, grid3_small, proper).distance > 1e-3
    assert not same_congruence_class(body, mirror, 1e-3, grid3_small, proper)
    assert len(calls) == 2
    _no_scan(monkeypatch)
    assert congruence_distance(body, mirror, grid3_small, SearchParams()).distance < 1e-9


def _flat_triangle():
    return Polytope([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0], [0.3, 0.9, 0.0]])


@pytest.mark.parametrize("name, body, grid_name", [
    ("segment", Polytope([[0.0, 0.0], [1.0, 0.0]]), "grid2"),
    ("flat-triangle-3d", _flat_triangle(), "grid3_small"),
    ("polytope-plus-ball", Sum(random_polytope(380, 3, 8), Ball(np.zeros(3), 0.2)), "grid3_small"),
    ("ellipsoid", Ellipsoid(np.zeros(3), np.diag([0.5, 0.8, 1.1])), "grid3_small"),
])
def test_pairs_without_exact_maps_search(name, body, grid_name, request, monkeypatch):
    # orthogonal_maps raises on flat polytopes, so these must not reach it
    grid = request.getfixturevalue(grid_name)
    dim = grid.nodes.shape[1]
    g = random_rotation(390, dim).matrix
    params = SearchParams(coarse=100, starts=1, max_iterations=60)
    calls = _counted_scan(monkeypatch)
    res = congruence_distance(body, Rotated(Rotation(g), body), grid, params)
    assert len(calls) == 1
    assert res.certificate_size == len(res.values) >= 100
    assert same_congruence_class(body, Rotated(Rotation(g), body), 0.5, grid, params)


# ---------------------------------------------------------------------------
# lockstep 3-D refinement: the bits of starts run one after another
# ---------------------------------------------------------------------------

_LOCKSTEP = SearchParams(coarse=100, starts=4, max_iterations=120)


@pytest.mark.parametrize("seed, sizes", [(400, (8, 8)), (402, (12, 12)), (404, (6, 14)),
                                         (406, (10, 7)), (408, (12, 9)), (410, (16, 16))])
def test_lockstep_matches_sequential_starts(seed, sizes, grid3_small):
    d_body, k_body = random_polytope(seed, 3, sizes[0]), random_polytope(seed + 1, 3, sizes[1])
    res = congruence_distance(d_body, k_body, grid3_small, _LOCKSTEP)
    distance, optimizer, values = sequential_congruence_3d(d_body, k_body, grid3_small, _LOCKSTEP)
    assert res.distance == distance
    np.testing.assert_array_equal(res.optimizer.matrix, optimizer)
    np.testing.assert_array_equal(res.values, values)


def test_lockstep_cancels_starts_after_early_exit(grid3_small, monkeypatch):
    # P + 0.2 B is no Polytope, so it takes the search; start 0 ends far
    # from the optimum and start 1 below _EARLY_EXIT.  The later starts
    # still running are cancelled in the round start 1 is first given a
    # value below _EARLY_EXIT, before it ends, so lockstep evaluates the
    # rows of the starts run one after another plus at most those rounds of
    # the later ones
    body = Sum(random_polytope(640, 3, 10), Ball(np.zeros(3), 0.2))
    moved = Rotated(Rotation(random_rotation(641, 3).matrix), body)
    params = SearchParams(coarse=400, starts=4, max_iterations=500)
    solo = solo_starts_3d(body, moved, grid3_small, params)
    runs, refine, rows = [], congruence._refine_3d, [0]

    def counted(kernel):
        def gaps(d, k, mats):
            rows[0] += len(mats)
            return kernel(d, k, mats)
        return gaps

    def counted_refine(*args):
        run = {"rows": 0, "rounds": 0, "first_low": None, "value": None}
        runs.append(run)
        steps = refine(*args)
        try:
            points = next(steps)
            while True:
                run["rows"] += len(points)
                run["rounds"] += 1
                pieces = yield points
                if run["first_low"] is None and pieces.max(axis=1).min() < congruence._EARLY_EXIT:
                    run["first_low"] = run["rounds"]
                points = steps.send(pieces)
        except StopIteration as stop:
            run["value"] = stop.value[0]
            return stop.value

    for name in ("_stacked_gap", "_stacked_gaps"):
        monkeypatch.setattr(congruence, name, counted(getattr(congruence, name)))
    monkeypatch.setattr(congruence, "_refine_3d", counted_refine)
    res = congruence_distance(body, moved, grid3_small, params)
    lockstep_rows, rows[0] = rows[0], 0
    distance, optimizer, values = sequential_congruence_3d(body, moved, grid3_small, params)
    assert res.distance == distance < 1e-9
    np.testing.assert_array_equal(res.optimizer.matrix, optimizer)
    np.testing.assert_array_equal(res.values, values)
    assert len(runs) == 4
    assert runs[0]["value"] > 1e-3 and runs[0]["first_low"] is None
    assert runs[1]["value"] == distance and runs[1]["first_low"] < runs[1]["rounds"]
    assert [(run["value"], run["rounds"]) for run in runs[:2]] == solo[:2]
    # every later start still running in that round is cancelled in it; one
    # whose own run ends sooner (the polish is quick on this congruent pair,
    # and which start does depends on the BLAS kernel's bits) ends as alone
    for run, (value, alone) in zip(runs[2:], solo[2:]):
        if alone >= runs[1]["first_low"]:
            assert run["value"] is None and run["rounds"] == runs[1]["first_low"]
        else:
            assert run["value"] == value and run["rounds"] == alone
    assert runs[2]["value"] is None
    assert lockstep_rows == rows[0] + sum(run["rows"] for run in runs[2:])


def test_refined_values_taken_in_start_order(grid3_small, monkeypatch):
    # a start after the first one below _EARLY_EXIT is never taken, even
    # when lockstep finished it with a lower value
    def half_turn(axis):
        a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
        return 2.0 * np.outer(a, a) - np.eye(3)  # symmetric, so swapping keeps it

    turns = [half_turn(a) for a in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    outcomes = [(0.5, turns[0]), (5e-10, turns[1]), (1e-12, turns[2]), None]
    monkeypatch.setattr(congruence, "_lockstep", lambda *args: outcomes)
    d_body, k_body = random_polytope(420, 3, 8), random_polytope(421, 3, 8)
    res = congruence_distance(d_body, k_body, grid3_small, SearchParams(coarse=100, starts=4))
    assert res.distance == 5e-10
    np.testing.assert_array_equal(res.optimizer.matrix, turns[1])


# ---------------------------------------------------------------------------
# one driver for both dimensions: 2-D golden section in lockstep returns the
# bits of its starts run one after another; early exit pauses the later starts
# ---------------------------------------------------------------------------

def _same_bits(res, distance, optimizer):
    got = [float(x).hex() for x in (res.distance, *res.optimizer.matrix.ravel())]
    assert got == [float(x).hex() for x in (distance, *optimizer.ravel())]


def test_lockstep_2d_matches_sequential_starts(grid2):
    # polygon pairs take the arc form: improper starts and their coset, and
    # a search of SO(2) alone
    improper = {True: 0, False: 0}
    for seed, sizes in [(700, (9, 9)), (702, (5, 12)), (704, (14, 6)), (706, (3, 8)),
                        (708, (20, 20)), (710, (7, 4))]:
        d_body, k_body = random_polytope(seed, 2, sizes[0]), random_polytope(seed + 1, 2, sizes[1])
        for params in (SearchParams(coarse=180, starts=3),
                       SearchParams(coarse=120, starts=5, include_reflections=False)):
            res = congruence_distance(d_body, k_body, grid2, params)
            distance, optimizer, flipped = sequential_congruence_2d(d_body, k_body, grid2, params)
            _same_bits(res, distance, optimizer)
            improper[params.include_reflections] += flipped
    assert improper[True] > 0 and improper[False] == 0


@pytest.mark.parametrize("seed", [720, 722])
def test_lockstep_2d_parallel_bodies_match_sequential(seed, grid2):
    # P + r B is no Polytope: the probe is the stacked kernel, and a row of
    # it does not depend on its stack; rigid copies exit early, below 1e-9
    params = SearchParams(coarse=180, starts=5)
    body = Sum(random_polytope(seed, 2, 8), Ball(np.zeros(2), 0.2))
    other = Sum(random_polytope(seed + 1, 2, 10), Ball(np.zeros(2), 0.1))
    mirror = np.diag([1.0, -1.0]) @ random_rotation(seed + 2, 2).matrix
    pairs = [(body, other), (body, Rotated(Rotation(random_rotation(seed + 3, 2).matrix), body)),
             (body, Rotated(Rotation(mirror), body))]
    for i, (d_body, k_body) in enumerate(pairs):
        res = congruence_distance(d_body, k_body, grid2, params)
        distance, optimizer, _ = sequential_congruence_2d(d_body, k_body, grid2, params)
        _same_bits(res, distance, optimizer)
        assert (res.distance < 1e-9) == (i > 0)


def _scripted(table, log, returns_last=False):
    """(runs, evaluate, calls): run j asks in round r for the rows of
    table[j][r], one stack per round ((j, r, i) per row), logs (j, r) when
    given them, and returns (the least value given, j) like a 3-D start or,
    with ``returns_last``, (the last value given, j) like a 2-D start;
    ``calls`` lists the (j, r) of each ``evaluate`` call's rows."""
    def run(j):
        given = []
        for r, rows in enumerate(table[j]):
            answer = yield np.array([[j, r, i] for i in range(len(rows))], dtype=float)
            log.append((j, r))
            given += answer.max(axis=1).tolist()
        return (given[-1] if returns_last else min(given)), j

    def evaluate(mats):
        calls.append([(int(j), int(r)) for j, r, _ in mats])
        return np.array([[table[int(j)][int(r)][int(i)]] for j, r, i in mats])

    calls = []
    return [run(j) for j in range(len(table))], evaluate, calls


def test_lockstep_pause_resumes_after_a_start_ends_above_the_exit():
    # start 0 is given 1e-12 in round 1 but ends at 0.5 (a 2-D start returns
    # its midpoint value): starts 1 and 2 wait with their round-1 rows and
    # resume after it, and every start ends as it would alone
    table = [[[1.0], [1e-12], [0.7], [0.5]], [[0.9]] * 6, [[0.8]] * 3]
    log = []
    runs, evaluate, calls = _scripted(table, log, returns_last=True)
    outcomes = congruence._lockstep(evaluate, runs)
    assert outcomes == [(0.5, 0), (0.9, 1), (0.8, 2)]
    assert calls == [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)], [(0, 2)], [(0, 3)],
                     [(1, 2), (2, 2)], [(1, 3)], [(1, 4)], [(1, 5)]]
    assert log.index((1, 1)) > log.index((0, 3)) and log.index((2, 1)) > log.index((0, 3))


def test_lockstep_pause_cancels_after_a_start_ends_below_the_exit():
    # start 1 is given 1e-12 and ends there: start 2 waits, then is cancelled
    # with its round-2 rows unsent, while start 0 runs to its end
    table = [[[1.0]] * 5, [[1.0], [1.0], [1e-12], [3e-10]], [[0.8]] * 6]
    log = []
    runs, evaluate, calls = _scripted(table, log, returns_last=True)
    outcomes = congruence._lockstep(evaluate, runs)
    assert outcomes == [(1.0, 0), (3e-10, 1), None]
    assert calls[2] == [(0, 2), (1, 2), (2, 2)] and all(j < 2 for call in calls[3:] for j, _ in call)
    assert (2, 2) not in log and (2, 1) in log


def test_lockstep_pause_is_the_former_cancel_for_3d_starts():
    # runs that return the least value given never resume: the shared driver
    # gives the outcomes and the evaluations of the former cancelling one
    rng = np.random.default_rng(730)
    for _ in range(300):
        table = [[list(rng.choice([1e-12, 0.3, 1.0], size=int(rng.integers(1, 4)),
                                  p=[0.05, 0.45, 0.5]))
                  for _ in range(int(rng.integers(1, 8)))] for _ in range(int(rng.integers(1, 6)))]
        runs, evaluate, calls = _scripted(table, [])
        old_runs, old_evaluate, old_calls = _scripted(table, [])
        assert congruence._lockstep(evaluate, runs) == cancel_lockstep(old_evaluate, old_runs)
        assert calls == old_calls


# ---------------------------------------------------------------------------
# the minimax polish: a dense simplex, a value that never rises, and the
# former two-run search as the yardstick
# ---------------------------------------------------------------------------

def _vertex_minimax(f, grad, delta):
    """min over the box |w_j| <= delta of max_i f_i + grad_i . w, by
    enumerating every vertex of {(w, t): f_i + grad_i . w <= t, |w_j| <= delta}:
    four tight rows out of the pieces and the six bounds."""
    from itertools import combinations

    m = len(f)
    rows = np.zeros((m + 6, 4))
    rows[:m, :3], rows[:m, 3] = grad, -1.0  # grad . w - t = -f
    rows[m:, :3] = np.vstack([np.eye(3), np.eye(3)])
    rhs = np.concatenate([-f, np.full(3, delta), np.full(3, -delta)])
    pick = np.array(list(combinations(range(m + 6), 4)))
    a, b = rows[pick], rhs[pick]
    ok = np.abs(np.linalg.det(a)) > 1e-9
    x = np.linalg.solve(a[ok], b[ok][:, :, None])[:, :, 0]
    w, t = x[:, :3], x[:, 3]
    feasible = ((f + w @ grad.T <= t[:, None] + 1e-9).all(axis=1)
                & (np.abs(w) <= delta * (1.0 + 1e-9)).all(axis=1))
    return t[feasible].min()


def test_minimax_step_matches_vertex_enumeration():
    rng = np.random.default_rng(5150)
    for _ in range(100):
        m = int(rng.integers(4, 31))
        f, grad = rng.uniform(0.0, 1.0, m), rng.standard_normal((m, 3))
        delta = 10.0 ** rng.uniform(-3.0, 0.0)
        w, t = congruence._minimax_step(f, grad, delta)
        assert np.abs(w).max() <= delta * (1.0 + 1e-12)
        assert (f + grad @ w).max() <= t + 1e-12
        assert abs(t - _vertex_minimax(f, grad, delta)) <= 1e-12


@pytest.mark.parametrize("pair", [
    (random_polytope(430, 3, 12), random_polytope(431, 3, 12)),
    (random_polytope(432, 3, 9), Sum(random_polytope(433, 3, 9), Ball(np.zeros(3), 0.2))),
    (Ellipsoid(np.zeros(3), np.diag([0.5, 0.8, 1.1])), random_polytope(434, 3, 10)),
], ids=["polytopes", "polytope-sum", "ellipsoid-grid"])
def test_polish_never_rises(pair, grid3_small):
    _, _, pieces, mats, values, order, _, _, reach = coarse_congruence_3d(
        *pair, grid3_small, SearchParams(coarse=100))
    for idx in order[:6]:
        polish = congruence._polish_3d(mats[idx], float(values[idx]), reach, 0.05, 40)
        try:
            asked = next(polish)
            while True:
                asked = polish.send(pieces(asked))
        except StopIteration as done:
            value, g, _ = done.value
        assert value <= values[idx]
        assert value == pieces(g[None]).max()


def test_convexhyper_3d_search_skips_scipy_optimize():
    src = os.path.dirname(os.path.dirname(congruence.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, convexhyper as ch\n"
            "p, q = ch.random_polytope(440, 3, 10), ch.random_polytope(441, 3, 10)\n"
            "grid = ch.make_grid_3d(16, 32)\n"
            "ch.congruence_distance(p, q, grid, ch.SearchParams(coarse=100, starts=2))\n"
            "sys.exit('scipy.optimize' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _ellipsoid_polytope(rng, count):
    """``count`` points on a random ellipsoid, all of them vertices."""
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return Polytope((dirs * rng.uniform(0.6, 1.0, 3)) @ frame.T)


# a 12+12 pair of the benchmark's 3-D generator (seed 120) on which one
# start's polish stalls: without the tight run that follows, the distance
# ends 5.6e-6 above the two-run search's
_STALLING_D = np.array([
    [0.43081782455806444, 0.2076056624918492, -0.6144807295002588],
    [-0.5750751395466557, 0.3469213318463976, 0.17423303145552738],
    [-0.31410986493482806, -0.4345717624989755, 0.5691853375418053],
    [0.04574474725977819, -0.5823972732783366, -0.38364662751853257],
    [-0.29710327203498277, 0.45470640249531946, -0.4759738220969545],
    [0.19545698148766694, -0.3621082062580343, 0.6193798156822659],
    [-0.33358767600529415, 0.5695686342160028, 0.1910924548449541],
    [0.45918744131915606, -0.49608009022158345, -0.11365186348390811],
    [0.00348315169814932, -0.2913064717820687, -0.6677529870767943],
    [-0.1404289443770252, 0.0424880406480308, 0.7443821723374555],
    [0.051016519380453706, -0.656427819466772, 0.31464021162482064],
    [0.26725489278776493, -0.6374200305101211, 0.029323387932636964],
])
_STALLING_K = np.array([
    [0.20477340123867144, -0.6589361025573097, 0.214574416065652],
    [0.5747742833057173, 0.11706725429685372, 0.2687982776076089],
    [0.16337260607223683, -0.029597395025646248, 0.727125037734505],
    [-0.4302799467679536, 0.4468713012638619, -0.3650773398610794],
    [-0.3689651681672103, 0.5085586384770844, 0.15960091049884842],
    [-0.2658512116762157, -0.22970567083635168, 0.7086357512401634],
    [0.427742024774058, -0.19068534321643407, 0.5495937097619787],
    [0.46348150848245295, 0.49840014572147256, -0.13008972381545822],
    [-0.20497277164708622, -0.6249091049701107, -0.0975008090397382],
    [0.4558407295965185, 0.007911005060153551, -0.5506847294199367],
    [-0.010903682657717878, 0.28416862171591584, -0.7569659562353137],
    [-0.13211746862077872, -0.510630592982453, -0.3650297478874785],
])
_WORKLOAD_3D = SearchParams(coarse=400, starts=4, max_iterations=500)


@pytest.mark.parametrize("seed", [450, 451, 452, 453, 454, 455, "stalling"])
def test_polished_search_no_worse_than_two_runs(seed, grid3_small):
    if seed == "stalling":
        d_body, k_body = Polytope(_STALLING_D), Polytope(_STALLING_K)
    else:
        rng = np.random.default_rng(seed)
        d_body, k_body = _ellipsoid_polytope(rng, 12), _ellipsoid_polytope(rng, 12)
    res = congruence_distance(d_body, k_body, grid3_small, _WORKLOAD_3D)
    reference, _ = two_run_congruence_3d(d_body, k_body, grid3_small, _WORKLOAD_3D)
    assert res.distance <= reference + 1e-6


def test_stalled_polish_runs_tight_like_sequential(grid3_small, monkeypatch):
    # the tight Nelder-Mead run after a stalled polish returns the bits of
    # the starts run one after another, each matrix alone
    stalls, polish = [], congruence._polish_3d

    def watched(*args):
        outcome = yield from polish(*args)
        stalls.append(outcome[2])
        return outcome

    monkeypatch.setattr(congruence, "_polish_3d", watched)
    d_body, k_body = Polytope(_STALLING_D), Polytope(_STALLING_K)
    res = congruence_distance(d_body, k_body, grid3_small, _WORKLOAD_3D)
    assert any(stalls)
    distance, optimizer, values = sequential_congruence_3d(d_body, k_body, grid3_small, _WORKLOAD_3D)
    assert res.distance == distance
    np.testing.assert_array_equal(res.optimizer.matrix, optimizer)
    np.testing.assert_array_equal(res.values, values)
