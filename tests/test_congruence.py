import math
import tracemalloc

import numpy as np
import pytest

from convexhyper import (
    Ball,
    DimensionMismatchError,
    InvalidArgumentError,
    Polytope,
    SearchParams,
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
from convexhyper.quadrature import make_grid_3d
from convexhyper.rotations import circle_candidates, icosahedral_rotations, sphere_candidates

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


@pytest.mark.parametrize("coarse", [3, 2**16 + 1, 10**14])
def test_coarse_size_checked(coarse):
    # 10**14 coarse angles once filled memory building the candidate list
    with pytest.raises(InvalidArgumentError):
        SearchParams(coarse=coarse)


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
    expected = [exact_hausdorff(_moved(d_body, g), k_body) for g in mats]
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
        if congruence._canonical_key(kc) < congruence._canonical_key(dc):
            dc, kc, mats = kc, dc, mats.transpose(0, 2, 1)
        values = np.array([v for _, v in res.certificate])
        np.testing.assert_array_equal(values, _stacked(dc, kc, grid)(mats))
        assert res.distance <= values.min()


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
