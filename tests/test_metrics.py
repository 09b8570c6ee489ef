import math
import tracemalloc

import numpy as np
import pytest

from convexhyper import (
    Ball,
    DimensionMismatchError,
    Polytope,
    Rotated,
    Scaled,
    Sum,
    TruncationSpec,
    hausdorff,
    polytope_approximation,
    polytope_sum,
    random_polytope,
    random_rotation,
    recenter,
    sample_support,
    steiner,
    steiner_quadrature,
    support_values,
    translate,
    truncate,
    width,
)
from convexhyper import congruence, metrics
from convexhyper.bodies import rigid_motion
from convexhyper.metrics import nelder_mead, support_moment_matrix
from convexhyper.quadrature import ball_volume, make_grid_3d
from convexhyper.rotations import circle_candidates, sphere_candidates
from oracles import brute_moment, brute_steiner_2d, cloud_hausdorff, polygon_boundary_cloud

SQRT2 = math.sqrt(2.0)


class TestHausdorff:
    def test_balls(self, grid2):
        assert hausdorff(Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.5), grid2) == 2.5 - 1.0

    def test_self_distance(self, square, grid2):
        assert hausdorff(square, square, grid2) == 0.0

    def test_square_vs_disk(self, square, unit_ball_2d, grid2):
        d = hausdorff(square, unit_ball_2d, grid2)
        assert abs(d - (SQRT2 - 1.0)) < 1e-9

    def test_refined_not_below_grid_max(self, grid2):
        a = random_polytope(1, 2, 15)
        b = random_polytope(2, 2, 15)
        from convexhyper import support_values

        grid_max = float(
            np.abs(
                support_values(a, grid2.nodes) - support_values(b, grid2.nodes)
            ).max()
        )
        assert hausdorff(a, b, grid2) >= grid_max - 1e-15

    def test_symmetry_and_triangle(self, grid2):
        bodies = [random_polytope(s, 2, 10) for s in (10, 11, 12)]
        d01 = hausdorff(bodies[0], bodies[1], grid2)
        d10 = hausdorff(bodies[1], bodies[0], grid2)
        d12 = hausdorff(bodies[1], bodies[2], grid2)
        d02 = hausdorff(bodies[0], bodies[2], grid2)
        assert abs(d01 - d10) < 1e-12
        assert d02 <= d01 + d12 + 1e-12

    def test_dimension_mismatch(self, square, unit_ball_3d, grid2):
        with pytest.raises(DimensionMismatchError):
            hausdorff(square, unit_ball_3d, grid2)

    def test_matches_point_cloud_oracle_2d(self, grid2):
        for seed in range(6):
            a = random_polytope(100 + seed, 2, 12)
            b = random_polytope(200 + seed, 2, 12)
            d_support = hausdorff(a, b, grid2)
            d_cloud = cloud_hausdorff(
                polygon_boundary_cloud(a.vertices),
                polygon_boundary_cloud(b.vertices),
            )
            assert abs(d_support - d_cloud) < 5e-3

    def test_cube_vs_ball_3d(self, cube, unit_ball_3d, grid3):
        d = hausdorff(cube, unit_ball_3d, grid3)
        assert abs(d - (math.sqrt(3.0) - 1.0)) < 1e-9

    def test_smooth_pair_refinement_off_node(self, unit_ball_2d, grid2):
        # rotated ellipse vs unit disk: sup |h_E - 1| = max(|a-1|, |b-1|)
        # regardless of orientation, attained away from any grid node, so
        # this exercises the golden-section refinement path
        from convexhyper import Ellipsoid, Rotated

        a_ax, b_ax = 1.37, 0.81
        g = random_rotation(99, 2)
        body = Rotated(g, Ellipsoid(np.zeros(2), np.diag([a_ax, b_ax])))
        d = hausdorff(body, unit_ball_2d, grid2)
        assert abs(d - max(abs(a_ax - 1.0), abs(b_ax - 1.0))) < 1e-10


    def test_exact_2d_matches_dense_sweep(self):
        # every normal-cone arc of a polygon pair lies in [0, 4 pi), so the
        # arc maximum must look for critical angles up to phi + 3 pi
        p, q = random_polytope(9445, 2, 9), random_polytope(9446, 2, 9)
        theta = 2.0 * math.pi * np.arange(65536) / 65536
        dirs = np.stack([np.cos(theta), np.sin(theta)])
        h_q = (q.vertices @ dirs).max(axis=0)
        for g in circle_candidates(180):
            moved = rigid_motion(p, g)
            sweep = np.abs((moved.vertices @ dirs).max(axis=0) - h_q).max()
            exact = metrics.exact_hausdorff(moved, q)
            assert sweep - 1e-12 <= exact <= sweep + 1e-3


class TestSteiner:
    def test_ball_center(self, grid2):
        c = np.array([0.3, -0.4])
        np.testing.assert_allclose(steiner(Ball(c, 0.5), grid2), c)

    def test_triangle_against_brute_force(self, grid2):
        tri = Polytope([[0, 0], [1, 0], [0, 1]])
        oracle = brute_steiner_2d(tri.vertices)
        np.testing.assert_allclose(steiner(tri, grid2), oracle, atol=1e-11)

    def test_translation_covariance(self, grid2):
        poly = random_polytope(7, 2, 12)
        w = np.array([0.8, -1.3])
        np.testing.assert_allclose(
            steiner(translate(poly, w), grid2),
            steiner(poly, grid2) + w,
            atol=1e-13,
        )

    def test_equivariance_2d(self, grid2):
        poly = random_polytope(8, 2, 12)
        g = random_rotation(3, 2).matrix
        np.testing.assert_allclose(
            steiner(Polytope(poly.vertices @ g.T), grid2),
            g @ steiner(poly, grid2),
            atol=1e-12,
        )

    def test_equivariance_3d(self, grid3):
        poly = random_polytope(9, 3, 20)
        g = random_rotation(4, 3).matrix
        np.testing.assert_allclose(
            steiner(Polytope(poly.vertices @ g.T), grid3),
            g @ steiner(poly, grid3),
            atol=1e-11,
        )

    def test_minkowski_linearity_explicit_hull(self, grid2):
        a = random_polytope(21, 2, 10)
        b = random_polytope(22, 2, 10)
        lhs = steiner(polytope_sum(Polytope(a.vertices * 0.7), Polytope(b.vertices * 1.3)), grid2)
        rhs = 0.7 * steiner(a, grid2) + 1.3 * steiner(b, grid2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_segment_midpoint(self, grid2):
        seg = Polytope([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(steiner(seg, grid2), [1.0, 0.0], atol=1e-14)

    def test_matches_grid_quadrature(self, grid2, grid3):
        p2 = random_polytope(31, 2, 12)
        assert np.abs(steiner(p2, grid2) - steiner_quadrature(p2, grid2)).max() < 1e-5
        p3 = random_polytope(32, 3, 16)
        assert np.abs(steiner(p3, grid3) - steiner_quadrature(p3, grid3)).max() < 1e-3

    def test_relative_interior(self, grid2):
        from convexhyper import support_values

        poly = random_polytope(41, 2, 12)
        s = steiner(poly, grid2)
        slack = support_values(poly, grid2.nodes) - grid2.nodes @ s
        assert slack.min() > 0

    def test_sampled_body(self, grid2):
        poly = random_polytope(42, 2, 12)
        sampled = sample_support(poly, grid2)
        np.testing.assert_allclose(
            steiner(sampled, grid2), steiner(poly, grid2), atol=1e-6
        )

    def test_tree_recursion(self, grid2):
        a = random_polytope(43, 2, 8)
        b = Ball(np.array([0.2, 0.1]), 0.6)
        g = random_rotation(5, 2)
        tree = Sum(Scaled(0.5, a), Rotated(g, b))
        expected = 0.5 * steiner(a, grid2) + g.matrix @ b.center
        np.testing.assert_allclose(steiner(tree, grid2), expected, atol=1e-13)


class TestRecenter:
    def test_ball(self, grid2):
        out = recenter(Ball(np.array([0.7, -0.2]), 0.5), grid2)
        np.testing.assert_allclose(out.center, 0.0, atol=1e-15)

    def test_idempotent(self, grid2):
        poly = random_polytope(51, 2, 12)
        once = recenter(poly, grid2)
        twice = recenter(once, grid2)
        np.testing.assert_allclose(once.vertices, twice.vertices, atol=1e-12)

    def test_segment(self, grid2):
        seg = Polytope([[0.0, 0.0], [2.0, 0.0]])
        out = recenter(seg, grid2)
        np.testing.assert_allclose(
            np.sort(out.vertices[:, 0]), [-1.0, 1.0], atol=1e-14
        )

    def test_steiner_of_recentered_vanishes(self, grid3):
        poly = random_polytope(52, 3, 16)
        out = recenter(poly, grid3)
        assert np.linalg.norm(steiner(out, grid3)) < 1e-12


def _symmetric_polytope(seed, n):
    half = np.random.default_rng(seed).standard_normal((n // 2, 3))
    return Polytope(np.vstack([half, -half]) + np.array([0.3, -0.2, 0.1]))


def _pinned_bodies():
    cube = Polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    cut_source = random_polytope(7, 3, 16)
    return {
        "cube": cube,
        "moved cube": rigid_motion(cube, random_rotation(3, 3).matrix, np.array([0.5, -1.25, 2.0])),
        "ball approximation": polytope_approximation(Ball(np.zeros(3), 1.0), 512),
        **{f"random {n}": random_polytope(40 + n, 3, n) for n in (4, 10, 16, 60)},
        **{f"symmetric {n}": _symmetric_polytope(n, n) for n in (6, 10, 16, 60)},
        "cut": truncate(cut_source, TruncationSpec(u, 0.3 * width(cut_source, u))),
        "sum": Sum(random_polytope(8, 3, 12), Ball(np.array([0.1, 0.0, -0.2]), 0.25)),
    }


# float.hex of the 3-D Steiner points from the recursive fan quadrature the
# batched one replaced, which keeps every rounding.  The last bits depend on
# the BLAS kernels behind the 3-vector products, so each body has two
# recordings (numpy 2.4 with OpenBLAS 0.3.31 on x86-64): its AVX-512
# SkylakeX kernels, then its AVX2 Haswell kernels (also used for Zen).
_STEINER_PINS = {
    "cube": (
        ('0x1.50229f13816c7p-49', '0x1.e8ec8a4aeacc5p-55', '0x0.0p+0'),
        ('0x1.7df8cc0a876fap-49', '0x1.e8ec8a4aeacc5p-55', '0x0.0p+0'),
    ),
    "moved cube": (
        ('0x1.0000000000006p-1', '-0x1.3fffffffffff4p+0', '0x1.0000000000001p+1'),
        ('0x1.0000000000005p-1', '-0x1.3fffffffffff4p+0', '0x1.0000000000002p+1'),
    ),
    "ball approximation": (
        ('-0x1.fceaf692ab166p-47', '-0x1.beab0388a25a9p-44', '0x1.2c706c09c1b08p-45'),
        ('-0x1.fa0d93c33ab62p-47', '-0x1.bea97f97f31fep-44', '0x1.2c2f0264412a9p-45'),
    ),
    "random 4": (
        ('0x1.f1e262893229ep-4', '-0x1.8fc913784474cp-4', '0x1.7a4c40cdc6ee6p-3'),
        ('0x1.f1e26289322a2p-4', '-0x1.8fc9137844756p-4', '0x1.7a4c40cdc6ee9p-3'),
    ),
    "random 10": (
        ('0x1.139661a730b2bp-4', '0x1.4139a9cbaa7e7p-5', '-0x1.284d20f39ed18p-4'),
        ('0x1.139661a730b2dp-4', '0x1.4139a9cbaa7dap-5', '-0x1.284d20f39ed10p-4'),
    ),
    "random 16": (
        ('0x1.b58f042ed1642p-3', '-0x1.86fca176e4093p-3', '0x1.6082fca8788e5p-3'),
        ('0x1.b58f042ed1640p-3', '-0x1.86fca176e4092p-3', '0x1.6082fca8788e3p-3'),
    ),
    "random 60": (
        ('0x1.a5049d560108ap-6', '0x1.237fb9729b457p-6', '0x1.15923fd7d20d8p-8'),
        ('0x1.a5049d5601092p-6', '0x1.237fb9729b440p-6', '0x1.15923fd7d2115p-8'),
    ),
    "symmetric 6": (
        ('0x1.333333333332dp-2', '-0x1.9999999999a1bp-3', '0x1.9999999999873p-4'),
        ('0x1.333333333332fp-2', '-0x1.9999999999a22p-3', '0x1.9999999999863p-4'),
    ),
    "symmetric 10": (
        ('0x1.333333333330dp-2', '-0x1.99999999999a0p-3', '0x1.99999999999a4p-4'),
        ('0x1.333333333330bp-2', '-0x1.999999999999dp-3', '0x1.99999999999a8p-4'),
    ),
    "symmetric 16": (
        ('0x1.3333333333320p-2', '-0x1.9999999999a22p-3', '0x1.99999999999b4p-4'),
        ('0x1.3333333333324p-2', '-0x1.9999999999a26p-3', '0x1.99999999999b4p-4'),
    ),
    "symmetric 60": (
        ('0x1.333333333333cp-2', '-0x1.99999999999cap-3', '0x1.9999999999958p-4'),
        ('0x1.3333333333344p-2', '-0x1.99999999999cap-3', '0x1.9999999999967p-4'),
    ),
    "cut": (
        ('-0x1.dc79f09f95850p-39', '-0x1.74cf7d6328115p-42', '-0x1.4c23e44839b65p-41'),
        ('-0x1.dc78fc29505f9p-39', '-0x1.74f4bb67b0c63p-42', '-0x1.4c332bac8c0dap-41'),
    ),
    "sum": (
        ('-0x1.07f6efa39c046p-4', '0x1.6cfbc115d8f18p-6', '-0x1.f963521a5068ap-3'),
        ('-0x1.07f6efa39c03ep-4', '0x1.6cfbc115d8f01p-6', '-0x1.f963521a5068dp-3'),
    ),
}


def _reference_triangle_rule(a, b, c, depth=0):
    """The per-triangle recursion the batched quadrature replaced."""
    x, w = np.polynomial.legendre.leggauss(12)
    xi, eta = np.meshgrid(0.5 * (x + 1.0), 0.5 * (x + 1.0), indexing="ij")
    xi, eta, wq = xi.ravel(), eta.ravel(), np.outer(0.5 * w, 0.5 * w).ravel()
    span = math.acos(min(1.0, max(-1.0, min(float(a @ b), float(b @ c), float(c @ a)))))
    if span > 0.45 and depth < 4:
        mab, mbc, mca = a + b, b + c, c + a
        mab /= np.linalg.norm(mab)
        mbc /= np.linalg.norm(mbc)
        mca /= np.linalg.norm(mca)
        children = [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        parts = [r for r in (_reference_triangle_rule(*t, depth + 1) for t in children) if r]
        if not parts:
            return None
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    ab, bc = b - a, c - b
    cross = np.cross(ab, bc)
    two_area = np.linalg.norm(cross)
    if two_area < 1e-14:
        return None
    dist = abs(float((cross / two_area) @ a))
    if dist < 1e-14:
        return None
    pts = a[None, :] + xi[:, None] * ab + (xi * eta)[:, None] * bc
    norms = np.linalg.norm(pts, axis=1)
    return pts / norms[:, None], wq * xi * two_area * dist / norms**3


def _reference_steiner_3d(poly):
    hull, s = poly.hull, np.zeros(3)
    for v, normals in hull.vertex_cones():
        axis = normals.sum(axis=0)
        axis = axis / np.linalg.norm(axis)
        t1 = np.cross(axis, np.eye(3)[np.argmin(np.abs(axis))])
        t1 /= np.linalg.norm(t1)
        normals = normals[np.argsort(np.arctan2(normals @ np.cross(axis, t1), normals @ t1))]
        rules = [_reference_triangle_rule(axis, n, m) for n, m in zip(normals, np.roll(normals, -1, 0))]
        rules = [r for r in rules if r]
        if rules:
            dirs, w = np.concatenate([r[0] for r in rules]), np.concatenate([r[1] for r in rules])
            s += (w * (dirs @ hull.points[v])) @ dirs
    return s / ball_volume(3)


@pytest.mark.parametrize("seed", range(6))
def test_steiner_3d_bits_match_recursion(seed):
    # holds with any BLAS: both forms make the same products in the same order
    bodies = [random_polytope(900 + seed, 3, 4 + 5 * seed), _symmetric_polytope(seed, 6 + 4 * seed)]
    if seed == 0:
        bodies.append(_pinned_bodies()["cut"])
    for body in bodies:
        assert metrics._steiner_polytope_3d(body).tobytes() == _reference_steiner_3d(body).tobytes()


@pytest.mark.parametrize("name", sorted(_STEINER_PINS))
def test_steiner_3d_bits_pinned(name):
    s = steiner(_pinned_bodies()[name])
    assert tuple(float(x).hex() for x in s) in _STEINER_PINS[name]


def test_steiner_memory_bounded():
    # the fan nodes are built a block of leaf triangles at a time; all of the
    # ball approximation's leaves at once peaked at about 19 MB
    ball = polytope_approximation(Ball(np.zeros(3), 1.0), 512)
    ball.hull
    tracemalloc.start()
    try:
        steiner(ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _box(*half):
    return Polytope(np.array(np.meshgrid(*[(-h, h) for h in half])).reshape(len(half), -1).T)


def _box_moment(*half):
    """Exact moment of a centered box: a 2-D rectangle or a 3-D box."""
    if len(half) == 2:
        a, b = half
        return np.diag([8 * a + 4 * b, 4 * a + 8 * b]) / 3.0
    return np.diag([math.pi * (h + sum(half)) / 2 for h in half])


class TestSupportMoment:
    @pytest.mark.parametrize("half", [(0.5, 1.3), (1.0, 1.0), (0.5, 1.3, 2.0), (1.0, 1.0, 1.0)])
    def test_box(self, half):
        np.testing.assert_allclose(support_moment_matrix(_box(*half)), _box_moment(*half), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rotated_box(self, dim):
        half = (0.5, 1.3, 2.0)[:dim]
        box, exact = _box(*half), _box_moment(*half)
        box.hull
        for seed in range(20):
            g = random_rotation(900 + seed, dim, proper=seed % 2 == 0).matrix
            for moved in (Polytope(box.vertices @ g.T), rigid_motion(box, g, np.full(dim, 0.3))):
                np.testing.assert_allclose(support_moment_matrix(moved), g @ exact @ g.T, rtol=0, atol=1e-11)

    def test_point_and_segment_exact(self):
        assert not support_moment_matrix(Polytope([[0.3, -0.2]])).any()
        seg = support_moment_matrix(Polytope([[0.0, 0.0], [2.0, 0.0], [0.5, 0.0]]))
        np.testing.assert_array_equal(seg, np.diag([8.0, 4.0]) / 3.0)
        # the Steiner point of a translate moves, the moment does not
        assert np.array_equal(support_moment_matrix(Polytope([[1.0, 1.0], [3.0, 1.0]])), seg)

    @pytest.mark.parametrize("dim, tol", [(2, 1e-10), (3, 2e-5)])
    def test_matches_grid_oracle(self, dim, tol):
        # the oracle's midpoint rule is off by at most 4.4e-12 relative in
        # 2-D (400,000 angles) and 7.4e-6 in 3-D (400 x 800 grid) here
        for seed in range(4):
            poly = translate(random_polytope(300 + seed, dim, 16), np.full(dim, 0.7))
            m = support_moment_matrix(poly)
            ref = brute_moment(poly.vertices, lon=200_000 if dim == 2 else 800)
            assert np.abs(m - ref).max() <= tol * np.abs(m).max()

    def test_polytopes_use_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a polytope moment must not use quadrature")

        monkeypatch.setattr(metrics, "_split_triangles", refuse)
        monkeypatch.setattr(metrics, "default_grid", refuse)
        bodies = [random_polytope(310, 2, 9), random_polytope(311, 3, 12), _box(1.0, 2.0, 0.5),
                  Polytope([[0.0, 0.0], [1.0, 2.0]]), Polytope([[0.4, 0.1]]),
                  rigid_motion(random_polytope(312, 3, 10), random_rotation(5, 3).matrix)]
        for body in bodies:
            assert np.isfinite(support_moment_matrix(body)).all()


def test_width(square):
    assert width(square, np.array([1.0, 0.0])) == 2.0
    assert abs(width(square, np.array([1.0, 1.0]) / SQRT2) - 2 * SQRT2) < 1e-14


def test_steiner_lipschitz_regression_bound(grid2):
    # frozen regression constant: ||s(D) - s(K)|| <= C * hausdorff(D, K)
    # with C = 3.0 calibrated on this corpus (an artifact of this
    # implementation, not a theoretical sharp constant)
    C = 3.0
    for seed in range(20):
        d_body = random_polytope(600 + seed, 2, 10)
        k_body = random_polytope(700 + seed, 2, 10)
        gap = np.linalg.norm(steiner(d_body, grid2) - steiner(k_body, grid2))
        assert gap <= C * hausdorff(d_body, k_body, grid2)


def _rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def _congruence_objective_3d():
    grid = make_grid_3d(16, 32)
    d = recenter(random_polytope(41, 3, 12), grid)
    k = recenter(random_polytope(42, 3, 12), grid)
    objective = congruence._objective(congruence._rotatable(d), congruence._rotatable(k), d,
                                      support_values(k, grid.nodes), grid.nodes)
    g0 = sphere_candidates(64, True)[5]
    return lambda w: float(objective((g0 @ congruence.axis_angle_matrix_safe(w))[None])[0])


# name: (objective, or a function building it; initial simplex, xatol, fatol, maxiter)
_NELDER_MEAD_CASES = {
    "quadratic": (lambda x: float((x[0] - 0.3) ** 2 + 4.0 * (x[1] + 0.7) ** 2 + x[0] * x[1]),
                  [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]], 1e-10, 1e-14, 400),
    "rosenbrock": (_rosenbrock, [[-1.2, 1.0], [-1.0, 1.0], [-1.2, 1.2]], 1e-10, 1e-14, 2000),
    "shrink": (lambda x: float(np.floor(8.0 * abs(x[0])) + np.floor(8.0 * abs(x[1] - 0.1))
                               + 0.01 * x[0] ** 2),
               [[0.9, 0.9], [1.0, 0.8], [0.7, 1.1]], 1e-8, 1e-14, 400),
    "maxiter": (_rosenbrock, [[-1.2, 1.0], [-1.0, 1.0], [-1.2, 1.2]], 1e-10, 1e-14, 37),
    "congruence-3d": (_congruence_objective_3d, congruence._initial_simplex(0.2), 1e-9, 1e-12,
                      800),
}


@pytest.mark.parametrize("name", list(_NELDER_MEAD_CASES))
def test_nelder_mead_matches_scipy_bit_for_bit(name):
    from scipy.optimize import minimize  # the reference only

    f, simplex, xatol, fatol, maxiter = _NELDER_MEAD_CASES[name]
    if name == "congruence-3d":
        f = f()
    simplex = np.asarray(simplex, dtype=float)
    # the capped case checks every cap up to maxiter: one step too many or
    # too few changes the best vertex at some cap
    for cap in range(1, maxiter + 1) if name == "maxiter" else [maxiter]:
        ref = minimize(f, simplex[0], method="Nelder-Mead", options={
            "xatol": xatol, "fatol": fatol, "maxiter": cap, "initial_simplex": simplex})
        x, fx = nelder_mead(f, simplex, xatol, fatol, cap)
        assert np.array_equal(x, ref.x) and np.array_equal(fx, ref.fun), cap
    # the cases reach the paths they are named for: a step without a shrink
    # evaluates f once or twice, a shrink n + 2 times
    if name == "shrink":
        assert ref.nfev > simplex.shape[0] + 2 * (ref.nit - 1)
    assert (ref.nit >= maxiter) == (name == "maxiter")
