import math
import tracemalloc

import numpy as np
import pytest

from convexhyper import (
    Ball,
    DimensionMismatchError,
    Ellipsoid,
    InvalidArgumentError,
    NotStrictlyConvexError,
    Polytope,
    Rotated,
    Scaled,
    Sum,
    curvature_positive,
    curvature_radius_2d,
    curvature_report,
    eval_support,
    gauss_preimage,
    random_polytope,
    random_rotation,
    sample_support,
)
from convexhyper import bodies
from convexhyper.quadrature import make_grid_2d, make_grid_3d, rotate_grid


class TestGaussPreimage:
    def test_ball(self):
        u = np.array([0.0, 1.0])
        np.testing.assert_allclose(
            gauss_preimage(Ball(np.array([0.5, 0.0]), 2.0), u), [0.5, 2.0]
        )

    def test_ellipsoid_formula(self):
        a = np.array([[2.0, 0.4], [0.4, 1.0]])
        body = Ellipsoid(np.zeros(2), a)
        u = np.array([0.6, 0.8])
        au = a @ u
        np.testing.assert_allclose(
            gauss_preimage(body, u), a @ au / np.linalg.norm(au), rtol=1e-13
        )

    def test_ellipsoid_against_dense_argmax(self):
        # oracle: argmax of <p, u> over a dense sample of the boundary
        a = np.array([[1.8, 0.0], [0.0, 0.9]])
        body = Ellipsoid(np.zeros(2), a)
        theta = np.linspace(0, 2 * math.pi, 400_000, endpoint=False)
        boundary = (a @ np.vstack([np.cos(theta), np.sin(theta)])).T
        u = np.array([math.cos(0.83), math.sin(0.83)])
        oracle = boundary[np.argmax(boundary @ u)]
        np.testing.assert_allclose(gauss_preimage(body, u), oracle, atol=1e-5)

    def test_square_face_raises(self, square):
        with pytest.raises(NotStrictlyConvexError) as info:
            gauss_preimage(square, np.array([1.0, 0.0]))
        face = np.asarray(info.value.face_vertices)
        assert face.shape[0] == 2
        assert np.allclose(face[:, 0], 1.0)
        # the face of a scaled term is reported in the body's frame
        with pytest.raises(NotStrictlyConvexError) as info:
            gauss_preimage(Scaled(2.0, square), np.array([1.0, 0.0]))
        assert np.allclose(np.asarray(info.value.face_vertices)[:, 0], 2.0)

    def test_polytope_vertex(self):
        tri = Polytope([[0, 0], [2, 0], [0, 1]])
        p = gauss_preimage(tri, [1.0, 0.0])
        np.testing.assert_allclose(p, [2.0, 0.0])
        assert p.flags.writeable  # a copy, not a view of the read-only vertices

    def test_sum_and_transformations(self):
        tri = Polytope([[0, 0], [2, 0], [0, 1]])
        ball = Ball(np.zeros(2), 0.5)
        g = random_rotation(1, 2)
        u = np.array([math.cos(0.2), math.sin(0.2)])
        p = gauss_preimage(Sum(Scaled(2.0, tri), Rotated(g, ball)), u)
        expected = 2.0 * gauss_preimage(tri, u) + g.matrix @ gauss_preimage(
            ball, g.matrix.T @ u
        )
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_support_consistency(self, grid2):
        # <preimage(u), u> equals h(u) wherever the preimage is defined
        bodies = [
            Ball(np.array([0.1, -0.3]), 0.8),
            Ellipsoid(np.zeros(2), np.array([[1.5, 0.2], [0.2, 0.7]])),
        ]
        for body in bodies:
            for u in grid2.nodes[::97]:
                p = gauss_preimage(body, u)
                assert abs(float(p @ u) - eval_support(body, u)) < 1e-9

    def test_unit_vector_required(self, square):
        with pytest.raises(InvalidArgumentError):
            gauss_preimage(square, np.array([1.0, 1.0]))


class TestCurvatureRadius2D:
    def test_ball_radius(self):
        assert abs(curvature_radius_2d(Ball(np.zeros(2), 2.5), 0.3) - 2.5) < 1e-9

    def test_ball_plus_ball(self):
        body = Sum(Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 0.25))
        assert abs(curvature_radius_2d(body, 1.1) - 1.25) < 1e-8

    def test_ellipse_axis_point(self):
        # closed form: radius of curvature of an axis-aligned ellipse at
        # the major-axis point is b^2/a
        a_ax, b_ax = 2.0, 1.0
        body = Ellipsoid(np.zeros(2), np.diag([a_ax, b_ax]))
        rho = curvature_radius_2d(body, 0.0, step=1e-4)
        assert abs(rho - b_ax**2 / a_ax) < 1e-6

    def test_step_validation(self, square, grid2):
        # step**2 of a step near 1e154 overflowed to an OverflowError, and
        # that of 1e-200 underflows to 0, a division by zero
        for step in (0.0, -1e-3, math.nan, math.inf, 4.0, 1.3407807929942597e154, 1e-200):
            with pytest.raises(InvalidArgumentError):
                curvature_radius_2d(square, 0.0, step=step)
            with pytest.raises(InvalidArgumentError):
                curvature_report(square, grid2, step=step)
        # at 1e-160 step**2 is a nonzero subnormal, but t +- step rounds to t
        # at most nodes, so the differences read 0 and the test h alone: the
        # square and the 5-vertex polytope were called strictly curved
        five = Polytope([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, -1]])
        for call in (lambda: curvature_radius_2d(square, 1.0, step=1e-160),
                     lambda: curvature_report(square, grid2, step=1e-160),
                     lambda: curvature_report(five, make_grid_3d(16, 32), step=1e-160)):
            with pytest.raises(InvalidArgumentError, match="rounds onto its centre"):
                call()
        # at theta = 0 no direction collapses, and the edge normal's kink
        # still reads positive; the default step reports both bodies curved nowhere
        assert curvature_radius_2d(square, 0.0, step=1e-160) == 1.0
        assert not curvature_report(square, grid2).ok
        assert not curvature_report(five, make_grid_3d(16, 32)).ok


class TestCurvaturePositive:
    def test_ball_true(self, unit_ball_2d, unit_ball_3d, grid2, grid3):
        assert curvature_positive(unit_ball_2d, grid2)
        assert curvature_positive(unit_ball_3d, grid3)

    def test_square_false(self, square, grid2):
        rep = curvature_report(square, grid2)
        assert not rep.ok
        assert rep.failing_node is not None

    def test_cube_false(self, cube, grid3):
        assert not curvature_positive(cube, grid3)

    def test_square_plus_ball_true(self, square, grid2):
        assert curvature_positive(Sum(square, Ball(np.zeros(2), 0.5)), grid2, margin=0.25)

    def test_margin_honored(self, unit_ball_2d, grid2):
        assert curvature_positive(unit_ball_2d, grid2, margin=0.9)
        assert not curvature_positive(unit_ball_2d, grid2, margin=1.1)

    def test_random_polytope_false(self, grid2):
        assert not curvature_positive(random_polytope(6, 2, 12), grid2)

    def test_grid_of_wrong_dimension(self, unit_ball_3d, grid2):
        # the class regularize, sample_support and hausdorff raise for it
        with pytest.raises(DimensionMismatchError):
            curvature_report(unit_ball_3d, grid2)


def _curvature_cases():
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    cube = Polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    p2, p3 = random_polytope(2, 2, 9), random_polytope(3, 3, 14)
    ellipse = Ellipsoid(np.array([0.3, -0.2]), np.array([[2.0, 0.4], [0.4, 1.0]]))
    g2, g3 = make_grid_2d(64), make_grid_3d(8, 14)  # 64 and 112 nodes: a one-node remainder
    rotated = rotate_grid(random_rotation(1, 2).matrix, g2)  # angles by arctan2
    smooth2, smooth3 = Sum(p2, Ball(np.zeros(2), 0.2)), Sum(p3, Ball(np.zeros(3), 0.2))
    return {
        "square": (square, g2), "sum-2d": (smooth2, g2), "ellipse": (ellipse, rotated),
        "sampled-2d": (sample_support(smooth2, g2), g2), "cube": (cube, g3),
        "sum-3d": (smooth3, g3), "sampled-3d": (sample_support(smooth3, g3), g3),
    }


@pytest.mark.parametrize("name", list(_curvature_cases()))
def test_curvature_report_bits_in_three_node_blocks(name, monkeypatch):
    # 3 nodes per block (a node counts 4 k n entries, k = 3 or 9 directions)
    # leave a one-node remainder; the report, ties to the first node
    # included, is that of the default budget
    body, grid = _curvature_cases()[name]
    want = curvature_report(body, grid)
    n = body.dim
    monkeypatch.setattr(bodies, "_BLOCK_ENTRIES", 3 * 4 * (3 if n == 2 else 9) * n)
    assert bodies.row_blocks(len(grid), 4 * (3 if n == 2 else 9) * n)[:2] == [(0, 3), (3, 6)]
    got = curvature_report(body, grid)
    assert got.ok == want.ok and got.failing_index == want.failing_index
    assert np.float64(got.min_value).tobytes() == np.float64(want.min_value).tobytes()
    if name in ("square", "cube"):
        assert not got.ok


@pytest.mark.parametrize("lat", [256, 512])
def test_curvature_report_memory_bound(lat):
    # 3-D stencils of Sum(P, 0.2B): 202 MB at 256 x 512 and 516 MB at
    # 512 x 1024 in one piece; node blocks keep them under 16 MB
    pts = np.random.default_rng(3).standard_normal((60, 3))
    body = Sum(Polytope(pts / np.linalg.norm(pts, axis=1, keepdims=True)), Ball(np.zeros(3), 0.2))
    grid = make_grid_3d.__wrapped__(lat, 2 * lat)  # uncached
    tracemalloc.start()
    try:
        curvature_report(body, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
