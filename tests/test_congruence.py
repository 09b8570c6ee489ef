import math

import numpy as np
import pytest

from convexhyper import (
    DimensionMismatchError,
    Polytope,
    SearchParams,
    congruence_distance,
    hausdorff,
    random_polytope,
    random_rotation,
    recenter,
    same_congruence_class,
    translate,
)

from convexhyper.rotations import icosahedral_rotations

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


def test_dimension_mismatch(square, unit_ball_3d, grid2):
    with pytest.raises(DimensionMismatchError):
        congruence_distance(square, unit_ball_3d, grid2)
