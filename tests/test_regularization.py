import math
import tracemalloc

import numpy as np
import pytest

from convexhyper import (
    Ball,
    Ellipsoid,
    InvalidArgumentError,
    Polytope,
    Rotated,
    RegularizationParams,
    Scaled,
    Sum,
    curvature_positive,
    curvature_report,
    hausdorff,
    make_grid_2d,
    make_grid_3d,
    mollified_support_values,
    mollify,
    random_polytope,
    random_rotation,
    recenter,
    regularize,
    rotate_grid,
    steiner,
    support_values,
)
from convexhyper import regularization
from convexhyper.regularization import canonical_frame, kernel_rule
from oracles import brute_mollified

FAST = RegularizationParams(t=0.1, radial_nodes=12, angular_nodes=384)


def params(t, **kw):
    kw.setdefault("radial_nodes", 12)
    kw.setdefault("angular_nodes", 384)
    return RegularizationParams(t=t, **kw)


class TestMollifier:
    def test_support_boundary(self):
        bump = regularization._bump_raw(np.array([0.5, 1.0, 1.5, 2.0, 2.5]))
        np.testing.assert_array_equal(bump[[0, 1, 3, 4]], 0.0)
        # (s-1)(2-s) = 1/4 at s = 3/2
        assert bump[2] == math.exp(-4.0)

    def test_kernel_unit_mass(self):
        for dim in (2, 3):
            _, w = kernel_rule(params(0.1), dim)
            assert abs(w.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize(
        "kw",
        [
            dict(t=True),
            dict(t="0.1"),
            dict(t=0.1, radial_nodes=10.5),
            dict(t=0.1, radial_nodes=True),
            dict(t=0.1, angular_nodes=8.5),
            dict(t=0.1, angular_nodes=np.bool_(True)),
            dict(t=0.1, radial_nodes=257),
            dict(t=0.1, radial_nodes=10_000_000),
            dict(t=0.1, radial_nodes=256, angular_nodes=4097),
            dict(t=0.1, radial_nodes=np.int64(16), angular_nodes=np.int64(2**62)),
        ],
        ids=["t-bool", "t-str", "radial-float", "radial-bool", "angular-float", "angular-np-bool",
             "radial-257", "radial-huge", "kernel-size", "kernel-size-np"],
    )
    def test_params_checked(self, kw):
        with pytest.raises(InvalidArgumentError):
            RegularizationParams(**kw)

    def test_params_accept_numpy_scalars(self):
        p = RegularizationParams(t=np.float64(0.1), radial_nodes=np.int32(256), angular_nodes=np.int64(4096))
        offsets, weights = kernel_rule(p, 2)
        assert offsets.shape == (256 * 4096, 2) and abs(weights.sum() - 1.0) < 1e-14

    def test_params_validation(self):
        with pytest.raises(InvalidArgumentError):
            RegularizationParams(t=-0.1)
        with pytest.raises(InvalidArgumentError):
            RegularizationParams(t=1.5)
        with pytest.raises(InvalidArgumentError):
            RegularizationParams(t=0.1, radial_nodes=2)
        with pytest.raises(InvalidArgumentError):
            RegularizationParams(t=0.1, angular_nodes=4)


class TestMollify:
    def test_ball_stays_ball(self, unit_ball_2d, grid2):
        out = mollify(unit_ball_2d, FAST, grid2)
        spread = out.values.max() - out.values.min()
        assert spread < 1e-8

    def test_point_body_reproduced(self, grid2):
        # kernel has unit mass and odd symmetry: linear support functions
        # pass through unchanged
        point = Polytope(np.array([[0.4, -0.8]]))
        out = mollify(point, FAST, grid2)
        np.testing.assert_allclose(
            out.values, support_values(point, grid2.nodes), atol=1e-12
        )

    def test_t_zero_identity(self, square, grid2):
        vals = mollified_support_values(square, params(0.0), grid2.nodes)
        np.testing.assert_array_equal(vals, support_values(square, grid2.nodes))

    def test_square_smoothing_nearly_convexifies(self, square, grid2):
        # mollification alone need not be strictly convexifying, but the
        # planar curvature must not dip materially negative
        out = mollify(square, params(0.1), grid2)
        rep = curvature_report(out, grid2, margin=-1e-3)
        assert rep.min_value > -1e-3


class TestRegularize:
    def test_ball_stays_centered(self, unit_ball_2d, grid2):
        out = regularize(unit_ball_2d, params(0.1), grid2)
        assert np.linalg.norm(steiner(out, grid2)) < 1e-8

    def test_square_curvature_margin(self, square, grid2):
        out = regularize(square, params(0.1), grid2)
        assert curvature_positive(out, grid2, margin=0.05)

    def test_hausdorff_decreases_with_t(self, grid2):
        # corpus-calibrated continuity constant: distance to the input is
        # below c * t with c = 3.0 on random polytopes in [-1, 1]^2
        body = random_polytope(61, 2, 10)
        target = recenter(body, grid2)
        dists = []
        for t in (0.2, 0.1, 0.05, 0.025):
            out = regularize(body, params(t), grid2)
            dist = hausdorff(out, target, grid2, refine=False)
            assert dist <= 3.0 * t
            dists.append(dist)
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_t_zero_is_recenter(self, square, grid2):
        out = regularize(square, params(0.0), grid2)
        np.testing.assert_allclose(
            support_values(out, grid2.nodes),
            support_values(recenter(square, grid2), grid2.nodes),
        )

    def test_equivariance_2d(self, grid2):
        body = random_polytope(62, 2, 12)
        g = random_rotation(7, 2, proper=False)
        grid_r = rotate_grid(g.matrix, grid2)
        lhs = regularize(Polytope(body.vertices @ g.matrix.T), FAST, grid_r)
        rhs = Rotated(g, regularize(body, FAST, grid2))
        assert hausdorff(lhs, rhs, grid_r, refine=False) < 1e-8

    def test_equivariance_3d(self, grid3_small):
        body = random_polytope(63, 3, 16)
        g = random_rotation(8, 3, proper=False)
        grid_r = rotate_grid(g.matrix, grid3_small)
        p = params(0.1, radial_nodes=8, angular_nodes=512)
        lhs = regularize(Polytope(body.vertices @ g.matrix.T), p, grid_r)
        rhs = Rotated(g, regularize(body, p, grid3_small))
        assert hausdorff(lhs, rhs, grid_r, refine=False) < 1e-8

    def test_rejects_lower_dimensional(self, grid2):
        seg = Polytope([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            regularize(seg, params(0.1), grid2)

    def test_curvature_positive_3d(self, grid3_small):
        body = random_polytope(64, 3, 20)
        p = params(0.05, radial_nodes=8, angular_nodes=512)
        out = regularize(body, p, grid3_small)
        assert curvature_positive(out, grid3_small)


KERNEL_GRIDS = {2: make_grid_2d(96), 3: make_grid_3d(8, 16)}


def _kernel_bodies():
    rng = np.random.default_rng(5)
    poly2 = random_polytope(71, 2, 12)
    poly3 = random_polytope(72, 3, 16)
    ellipsoid = Ellipsoid(rng.uniform(-0.2, 0.2, 3), np.diag([0.1, 0.25, 0.2]))
    sampled = mollify(random_polytope(73, 2, 9), params(0.1, angular_nodes=64),
                      KERNEL_GRIDS[2])
    return {
        "polytope-2d": poly2,
        "polytope-3d": poly3,
        "square": Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
        "cube": Polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]),
        "segment": Polytope([[-0.3, 0.2, 0.1], [0.5, -0.4, 0.6]]),
        "point": Polytope([[0.4, -0.8]]),
        "sum-ellipsoid": Sum(random_polytope(74, 3, 10), ellipsoid),
        "sum-ball": Sum(poly2, Ball(np.array([0.3, -0.1]), 0.4)),
        "rotated-scaled": Scaled(1.5, Rotated(random_rotation(9, 3), poly3)),
        "sampled": sampled,
    }


KERNEL_BODIES = _kernel_bodies()


def _kernel_case(body, t):
    dim = body.dim
    p = params(t, radial_nodes=6, angular_nodes=128 if dim == 3 else 64)
    frame = canonical_frame(body)
    offsets, weights = kernel_rule(p, dim)
    dirs = KERNEL_GRIDS[dim].nodes
    return p, frame, dirs, t * (offsets @ frame.T), weights


@pytest.mark.parametrize("t", [0.2, 0.1, 0.05, 0.025, 0.9])
@pytest.mark.parametrize("name", list(KERNEL_BODIES))
def test_kernel_matches_brute_force(name, t):
    body = KERNEL_BODIES[name]
    p, frame, dirs, offsets, weights = _kernel_case(body, t)
    got = mollified_support_values(body, p, dirs, frame)
    np.testing.assert_allclose(got, brute_mollified(body, dirs, offsets, weights),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "name", ["polytope-2d", "polytope-3d", "cube", "point", "sum-ball", "sum-ellipsoid", "sampled"]
)
def test_kernel_blocking_does_not_change_values(name, monkeypatch):
    body = KERNEL_BODIES[name]
    p, frame, dirs, _, weights = _kernel_case(body, 0.2)
    k = weights.size
    default = regularization._BLOCK
    monkeypatch.setattr(regularization, "_BLOCK", 1 << 40)
    whole = mollified_support_values(body, p, dirs, frame)
    # one row per block; three rows per block, which splits runs of rows
    # with equal candidate sets; the default
    for block in (k - 1, 3 * k, default):
        monkeypatch.setattr(regularization, "_BLOCK", block)
        blocked = mollified_support_values(body, p, dirs, frame)
        # equal up to the last bits: BLAS may round a row's kernel sum
        # differently for a different block shape
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-14, err_msg=f"block {block}")


def _unit_dirs(seed, dim, count):
    pts = np.random.default_rng(seed).standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# the smoothing workload's kernels (8 x 512 in 3-D, 12 x 384 in 2-D) on a
# few hundred directions: blocks of 16 and 14 rows, so even after the sort
# by candidate set blocks hold rows with different sets (2 to 18 per case)
@pytest.mark.parametrize(
    "dim, vertices, t",
    [(3, 16, 0.2), (3, 16, 0.025), (2, 12, 0.2), (2, 12, 0.025), (3, 60, 0.2)],
)
def test_kernel_matches_brute_force_at_workload_size(dim, vertices, t):
    body = random_polytope(80 + vertices, dim, vertices)
    p = params(t, radial_nodes=8, angular_nodes=512) if dim == 3 else params(t)
    frame = canonical_frame(body)
    offsets, weights = kernel_rule(p, dim)
    dirs = _unit_dirs(vertices, dim, 300)
    got = mollified_support_values(body, p, dirs, frame)
    np.testing.assert_allclose(got, brute_mollified(body, dirs, t * (offsets @ frame.T), weights),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_does_not_depend_on_row_order(dim):
    body = random_polytope(90 + dim, dim, 16)
    p = params(0.2, radial_nodes=8, angular_nodes=512) if dim == 3 else params(0.2)
    dirs = _unit_dirs(dim, dim, 300)
    order = np.random.default_rng(dim).permutation(dirs.shape[0])
    vals = mollified_support_values(body, p, dirs)
    shuffled = mollified_support_values(body, p, dirs[order])
    # rows land in other blocks, so only a row's BLAS kernel sum may move
    np.testing.assert_allclose(shuffled, vals[order], rtol=0, atol=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("t", [0.0, 0.1])
def test_rejects_non_finite_directions(bad, t):
    body = KERNEL_BODIES["polytope-3d"]
    with pytest.raises(InvalidArgumentError):
        mollified_support_values(body, params(t), [[bad, 0.0, 1.0]])
    with pytest.raises(InvalidArgumentError):
        mollified_support_values(body, params(t), np.vstack([KERNEL_GRIDS[3].nodes, [0.0, bad, 0.0]]))


def test_kernel_memory_stays_small():
    # the block buffers are cache-sized and allocated once per call, so the
    # peak does not grow with the directions x kernel product
    rng = np.random.default_rng(8)

    def on_sphere(dim, n):  # every point is a vertex
        pts = rng.standard_normal((n, dim))
        return Polytope(pts / np.linalg.norm(pts, axis=1, keepdims=True))

    ellipsoid = Ellipsoid(np.zeros(3), np.diag(rng.uniform(0.1, 0.3, 3)))
    p3 = params(0.2, radial_nodes=8, angular_nodes=512)
    cases = [
        (on_sphere(3, 16), make_grid_3d(32, 64), p3),
        (on_sphere(2, 12), make_grid_2d(2048), params(0.2)),
        (Sum(on_sphere(3, 16), ellipsoid), make_grid_3d(32, 64), p3),
    ]
    for body, grid, p in cases:
        tracemalloc.start()
        try:
            mollified_support_values(body, p, grid.nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000, (body.dim, peak)


def test_kernel_rule_is_shared_and_read_only():
    offsets, weights = kernel_rule(params(0.1), 3)
    again = kernel_rule(params(0.025), 3)  # the rule does not depend on t
    assert again[0] is offsets and again[1] is weights
    for array in (offsets, weights):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_regularize_twice_gives_identical_bits(dim):
    body = random_polytope(140 + dim, dim, 12)
    p = params(0.1, radial_nodes=6, angular_nodes=128 if dim == 3 else 64)
    grid = make_grid_2d(256) if dim == 2 else make_grid_3d(16, 32)
    first, second = regularize(body, p, grid), regularize(body, p, grid)
    fresh = regularize(Polytope(body.vertices), p, grid)
    for out in (second, fresh):
        np.testing.assert_array_equal(out.left.values, first.left.values)
        np.testing.assert_array_equal(steiner(out), steiner(first))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "body, direction",
    [(Polytope([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, -1]]), [1.7e308, 1.7e308, 0.0]),
     (random_polytope(1, 3, 16), [1e308, 0.0, 1.0])],
    ids=["products-overflow", "gaps-overflow"],
)
def test_overflowing_directions_are_refused(body, direction):
    p = RegularizationParams(t=0.1, radial_nodes=4, angular_nodes=32)
    with pytest.raises(InvalidArgumentError, match="overflow"):
        mollified_support_values(body, p, [direction])
