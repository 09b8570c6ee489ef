import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from convexhyper import (
    Ball,
    DimensionMismatchError,
    Ellipsoid,
    InvalidArgumentError,
    InvalidBodyError,
    Polytope,
    RegularizationParams,
    Rotated,
    Rotation,
    Sampled,
    Scaled,
    Sum,
    TruncationSpec,
    curvature_radius_2d,
    curvature_report,
    desymmetrize,
    eval_support,
    isotropy_estimate,
    polytope_sum,
    random_polytope,
    random_rotation,
    recenter,
    sample_support,
    make_grid_2d,
    make_grid_3d,
    mollify,
    polytope_approximation,
    regularize,
    support_point,
    same_congruence_class,
    support_values,
    translate,
    truncate,
    unit_vector,
    width,
)
from convexhyper import bodies, truncation
from convexhyper.bodies import convex_hull_vertices, rigid_motion, sublinearity_violation
from convexhyper.metrics import exact_hausdorff, steiner
from convexhyper.quadrature import SphericalGrid
from oracles import loop_vertex_cones, qhull_hull_vertices, two_pass_clip_candidates


def test_ball_support_is_homogeneous():
    # h of a centered t-ball is t * ||x|| for every x, not just unit vectors
    body = Ball(np.zeros(3), 0.7)
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((50, 3)) * 3.0
    vals = support_values(body, xs)
    np.testing.assert_allclose(vals, 0.7 * np.linalg.norm(xs, axis=1), rtol=1e-14)


def test_square_support_closed_form(square):
    for theta in np.linspace(0, 2 * math.pi, 17):
        u = [math.cos(theta), math.sin(theta)]
        expected = abs(u[0]) + abs(u[1])
        assert abs(eval_support(square, u) - expected) < 1e-12


def test_sum_with_ball_adds_radius(square, grid2):
    body = Sum(square, Ball(np.zeros(2), 0.3))
    base = support_values(square, grid2.nodes)
    np.testing.assert_allclose(
        support_values(body, grid2.nodes), base + 0.3, rtol=1e-14
    )


def test_scaled_homogeneity(square, grid2):
    doubled = Scaled(2.0, square)
    np.testing.assert_allclose(
        support_values(doubled, grid2.nodes),
        2.0 * support_values(square, grid2.nodes),
    )


def test_scale_zero_is_origin(square, grid2):
    z = Scaled(0.0, square)
    assert np.all(support_values(z, grid2.nodes) == 0.0)


def test_scale_negative_rejected(square):
    with pytest.raises(InvalidArgumentError):
        Scaled(-0.5, square)


def test_rotated_support(square, grid2):
    th = 0.37
    g = Rotation(np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]))
    rotated = Rotated(g, square)
    np.testing.assert_allclose(
        support_values(rotated, grid2.nodes),
        support_values(square, grid2.nodes @ g.matrix),
    )


def test_ellipsoid_support():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    body = Ellipsoid(np.array([0.5, -0.25]), a)
    u = np.array([0.6, 0.8])
    expected = float(u @ body.center) + float(np.linalg.norm(a @ u))
    assert abs(eval_support(body, u) - expected) < 1e-14


def test_sample_support_ball(unit_ball_2d, grid2):
    s = sample_support(unit_ball_2d, grid2)
    np.testing.assert_allclose(s.values, 1.0)


def test_rotation_validation():
    with pytest.raises(InvalidArgumentError):
        Rotation(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]))


def test_empty_polytope_rejected():
    with pytest.raises(InvalidBodyError):
        Polytope(np.zeros((0, 2)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Ball(np.zeros(2), math.nan),
        lambda: Ball([math.inf, 0.0], 1.0),
        lambda: Polytope([[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]]),
        lambda: Scaled(math.nan, Polytope([[0.0, 0.0], [1.0, 0.0]])),
        lambda: Scaled(math.inf, Polytope([[0.0, 0.0], [1.0, 0.0]])),
        lambda: Ellipsoid([math.nan, 0.0], np.eye(2)),
        lambda: Sampled(make_grid_2d(8), np.r_[np.ones(7), -math.inf]),
    ],
    ids=["ball-radius", "ball-center", "polytope", "scaled-nan", "scaled-inf",
         "ellipsoid", "samples"],
)
def test_non_finite_input_rejected(make):
    with pytest.raises((InvalidBodyError, InvalidArgumentError), match="finite"):
        make()


_SQUARE = Polytope([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
_DISC = Ball(np.zeros(2), 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: unit_vector([math.nan, 1.0]),
        lambda: TruncationSpec([math.nan, 1.0], 0.1),
        lambda: TruncationSpec([0.0, 1.0], math.nan),
        lambda: TruncationSpec([0.0, 1.0], math.inf),
        lambda: desymmetrize(_SQUARE, math.nan),
        lambda: desymmetrize(_SQUARE, math.inf),
        lambda: isotropy_estimate(_SQUARE, tol=math.nan),
        lambda: same_congruence_class(_SQUARE, _SQUARE, math.nan),
        lambda: curvature_report(_DISC, make_grid_2d(64), step=math.nan),
        lambda: curvature_report(_DISC, make_grid_2d(64), step=math.inf),
        lambda: curvature_report(_DISC, make_grid_2d(64), margin=math.nan),
        lambda: curvature_radius_2d(_DISC, 0.3, step=math.nan),
        lambda: curvature_radius_2d(_DISC, math.nan),
        lambda: width(_SQUARE, [math.nan, 1.0]),
    ],
    ids=["unit-vector", "spec-u", "spec-eps-nan", "spec-eps-inf", "budget-nan",
         "budget-inf", "isotropy-tol", "congruence-tol", "step-nan", "step-inf",
         "margin-nan", "radius-step", "radius-theta", "width-direction"],
)
def test_non_finite_argument_rejected(call):
    with pytest.raises(InvalidArgumentError):
        call()


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: isotropy_estimate(_SQUARE, tol=tol),
        lambda tol: isotropy_estimate(_DISC, tol=tol, grid=make_grid_2d(64)),
        lambda tol: same_congruence_class(_SQUARE, _SQUARE, tol),
    ],
    ids=["isotropy-polytope", "isotropy-scan", "congruence"],
)
def test_non_positive_tolerance_rejected(call, tol):
    # a tolerance of 0 or less admits no map, not even the identity
    with pytest.raises(InvalidArgumentError):
        call(tol)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mollify(_SQUARE, RegularizationParams(t=0.1), make_grid_3d(8, 16)),
        lambda: regularize(_SQUARE, RegularizationParams(t=0.1), make_grid_3d(8, 16)),
        lambda: regularize(_SQUARE, RegularizationParams(t=0.0), make_grid_3d(8, 16)),
        lambda: support_point(_SQUARE, np.ones(3) / math.sqrt(3.0)),
    ],
    ids=["mollify-grid", "regularize-grid", "regularize-t0-grid", "support-point"],
)
def test_dimension_mismatch_rejected(call):
    with pytest.raises(DimensionMismatchError):
        call()


def test_dimension_mismatch(square, unit_ball_3d):
    with pytest.raises(DimensionMismatchError):
        Sum(square, unit_ball_3d)
    with pytest.raises(DimensionMismatchError):
        support_values(square, np.zeros((1, 3)))


def test_minkowski_sum_additivity(square, grid2):
    other = random_polytope(5, 2, 9)
    tree = Sum(square, other)
    explicit = polytope_sum(square, other)
    np.testing.assert_allclose(
        support_values(tree, grid2.nodes),
        support_values(explicit, grid2.nodes),
        atol=1e-12,
    )


def test_deep_left_nested_sum(grid2):
    # each Sum stores its dimension, so a deep sum built one summand at a
    # time neither walks its left spine nor hits the recursion limit
    ball = Ball(np.array([0.1, -0.2]), 0.3)
    body = ball
    for _ in range(1000):
        body = Sum(body, ball)
    assert body.dim == 2
    np.testing.assert_allclose(
        support_values(body, grid2.nodes), 1001 * support_values(ball, grid2.nodes), rtol=1e-12
    )


def test_deep_tree_translates_in_a_loop(grid2):
    # 2,000 levels of Sum, with Scaled and Rotated nodes on the spine: the
    # result keeps every node and right summand and moves only the leaf
    ball = Ball(np.array([0.1, -0.2]), 0.3)
    g = random_rotation(4, 2)
    body = Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    for i in range(2000):
        body = Sum(body, ball)
        if i % 500 == 499:
            body = Rotated(g, Scaled(2.0, body))
    shift = np.array([0.5, -1.25])
    moved = translate(body, shift)
    np.testing.assert_allclose(support_values(moved, grid2.nodes),
                               support_values(body, grid2.nodes) + grid2.nodes @ shift, rtol=1e-12)
    a, b = body, moved
    while not isinstance(a, Polytope):
        assert type(a) is type(b)
        if isinstance(a, Sum):
            assert b.right is a.right
            a, b = a.left, b.left
        else:
            assert (b.factor == a.factor) if isinstance(a, Scaled) else (b.rotation is a.rotation)
            a, b = a.inner, b.inner
    assert np.abs(steiner(recenter(body))).max() < 1e-9


def test_two_balls_sum_to_ball(grid2):
    a = Ball(np.zeros(2), 0.4)
    b = Ball(np.zeros(2), 1.1)
    vals = support_values(Sum(a, b), grid2.nodes)
    np.testing.assert_allclose(vals, 1.5, rtol=1e-14)


def test_rounded_square_support(square, grid2):
    # square + unit ball: h(u) = |u1| + |u2| + 1
    body = Sum(square, Ball(np.zeros(2), 1.0))
    expected = np.abs(grid2.nodes).sum(axis=1) + 1.0
    np.testing.assert_allclose(support_values(body, grid2.nodes), expected, rtol=1e-14)


def test_translate_all_representations(grid2):
    w = np.array([0.3, -0.7])
    bodies = [
        Polytope([[0, 0], [1, 0], [0, 1]]),
        Ball(np.zeros(2), 1.0),
        Ellipsoid(np.zeros(2), np.eye(2) * 1.5),
        Sum(Polytope([[0, 0], [1, 0], [0, 1]]), Ball(np.zeros(2), 0.5)),
        Scaled(2.0, Ball(np.zeros(2), 1.0)),
        Rotated(Rotation(np.eye(2)), Ball(np.zeros(2), 1.0)),
    ]
    shift = grid2.nodes @ w
    for body in bodies:
        before = support_values(body, grid2.nodes)
        after = support_values(translate(body, w), grid2.nodes)
        np.testing.assert_allclose(after, before + shift, atol=1e-12)


def test_sampled_interpolation_exact_at_nodes(grid2):
    body = random_polytope(11, 2, 12)
    sampled = sample_support(body, grid2)
    np.testing.assert_allclose(
        support_values(sampled, grid2.nodes), sampled.values, atol=1e-13
    )


def test_sampled_interpolation_between_nodes(grid2):
    # smooth body: angular-linear interpolation error is O(cell^2)
    body = Ellipsoid(np.zeros(2), np.array([[1.5, 0.2], [0.2, 0.8]]))
    sampled = sample_support(body, grid2)
    theta = 2 * math.pi * (np.arange(512) + 0.37) / 512
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    err = np.abs(support_values(sampled, dirs) - support_values(body, dirs)).max()
    assert err < 5e-6


def test_sampled_interpolation_3d(grid3):
    body = Ball(np.array([0.2, -0.1, 0.05]), 1.0)
    sampled = sample_support(body, grid3)
    rng = np.random.default_rng(2)
    dirs = rng.standard_normal((256, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    err = np.abs(support_values(sampled, dirs) - support_values(body, dirs)).max()
    assert err < 5e-4


def test_sublinearity_spot_check(grid2):
    body = random_polytope(3, 2, 10)
    samples = sample_support(body, grid2)
    assert sublinearity_violation(samples, n_trials=256, seed=1) < 1e-9


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    xs=st.lists(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=2,
        ),
        min_size=2,
        max_size=2,
    ),
    t=st.floats(1e-6, 1e3),
)
def test_support_is_sublinear_and_homogeneous(seed, xs, t):
    body = random_polytope(seed % 1000, 2, 8)
    x, y = np.asarray(xs[0]), np.asarray(xs[1])
    hx = eval_support(body, x)
    hy = eval_support(body, y)
    hxy = eval_support(body, x + y)
    scale_val = max(1.0, abs(hx), abs(hy))
    assert hxy <= hx + hy + 1e-9 * scale_val
    assert abs(eval_support(body, t * x) - t * hx) <= 1e-9 * max(1.0, abs(t * hx))


def test_polytope_full_dimensional_flags():
    assert Polytope([[0, 0], [1, 0], [0, 1]]).is_full_dimensional
    assert not Polytope([[0, 0], [1, 1]]).is_full_dimensional
    # degenerate inputs: hull rank, 2-D ring, and no 3-D hull for flat sets
    point = Polytope([[0.5, -0.25]])
    segment = Polytope([[0, 0], [2, 1], [1, 0.5]])
    coplanar = Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]])
    duplicated = Polytope([[0, 0], [1, 0], [0, 1], [1, 0], [0, 1]])
    for poly, full, rank, ring_rows in (
        (point, False, 0, {0}),
        (segment, False, 1, {0, 1}),
        (coplanar, False, 2, None),
        (duplicated, True, 2, {0, 1, 2}),
    ):
        assert poly.is_full_dimensional == full
        hull = poly.hull
        assert hull.rank == rank
        if ring_rows is None:
            assert hull.ring is None and hull.normals is None
            assert exact_hausdorff(poly, Ball(np.zeros(3), 1.0)) is None
        else:
            assert set(hull.index[hull.ring].tolist()) == ring_rows
        w = np.full(poly.dim, 0.25)
        np.testing.assert_allclose(steiner(translate(poly, w)), steiner(poly) + w, atol=1e-14)
    np.testing.assert_allclose(steiner(segment), [1.0, 0.5], atol=1e-14)
    assert duplicated.hull.points.shape == (3, 2)


def _hexes(a):
    return [x.hex() for x in np.asarray(a, dtype=float).ravel().tolist()]


def test_collinear_3d_sets_keep_their_two_ends():
    # rounding to 12 decimals moves the points about 1e-12 off their line;
    # a rank rule relative to max(s, 1) saw a plane or a solid in 199 of
    # these 200 sets and kept interior points
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        t = rng.uniform(-0.4, 0.4, 10)
        pts = t[:, None] * d
        ends = np.unique(np.round(pts[[t.argmin(), t.argmax()]], 12), axis=0)
        np.testing.assert_array_equal(convex_hull_vertices(pts), ends)


def test_flat_3d_sets_keep_their_in_plane_hull():
    # qhull builds a sliver hull around a generically rotated flat set, and
    # its vertices include points inside the set's own polygon
    for seed in range(100):
        rng = np.random.default_rng(seed)
        flat = rng.uniform(-1.0, 1.0, (14, 2))
        lift = np.column_stack([flat, np.zeros(14)]) @ random_rotation(seed, 3).matrix.T
        pts = lift + rng.standard_normal(3)
        want = np.unique(np.round(pts[ConvexHull(flat).vertices], 12), axis=0)
        np.testing.assert_array_equal(convex_hull_vertices(pts), want)


def test_degenerate_sums_and_triples_keep_only_their_ends():
    a = Polytope([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    b = Polytope([[0.3, 0.6, 0.9], [0.5, 1.0, 1.5]])
    np.testing.assert_array_equal(polytope_sum(a, b).vertices, [[0.3, 0.6, 0.9], [1.5, 3.0, 4.5]])
    np.testing.assert_array_equal(convex_hull_vertices([[0, 0], [1, 1], [2, 2]]), [[0, 0], [2, 2]])


def test_hull_vertices_bits_match_qhull_oracle(monkeypatch):
    # on full-rank sets both take qhull's vertices of the same rounded
    # points: the sets truncation hands over (512-direction ball
    # approximations with repeated support points, 3-D cuts), the sets the
    # former 2-D cut handed over (a 2-D cut now clips its ring), cuts with
    # extra points on their cut face, and plain random sets
    seen = []

    def record(points):
        seen.append(np.array(points, dtype=float))
        return convex_hull_vertices(points)

    monkeypatch.setattr(truncation, "convex_hull_vertices", record)
    for dim in (2, 3):
        polytope_approximation(Ball(np.full(dim, 0.1), 1.0), 512)
        for seed in range(6):
            poly = random_polytope(500 + seed, dim, 12)
            u = random_rotation(520 + seed, dim).matrix[0]
            eps = 0.3 * width(poly, u)
            truncate(poly, TruncationSpec(u, eps))
            if dim == 2:
                h_u = float(support_values(poly, u[None, :])[0])
                seen.append(two_pass_clip_candidates(poly, u, h_u - eps))
            h = seen[-1] @ u
            face = seen[-1][h >= h.max() - 1e-9]
            seen.append(np.vstack([seen[-1], face.mean(axis=0), 0.5 * (face[0] + face[1])]))
            seen.append(np.random.default_rng(540 + seed).standard_normal((8 + 4 * seed, dim)))
    assert len(seen) == 38
    for pts in seen:
        assert bodies._extremes(pts)[2] == pts.shape[1]
        assert _hexes(convex_hull_vertices(pts)) == _hexes(qhull_hull_vertices(pts))


def test_rank_is_decided_in_one_place():
    # Hull.rank is the one rank rule; everything else reads it
    sites = set()
    for path in sorted(pathlib.Path(bodies.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                names = {getattr(node, key, None) for key in ("attr", "id", "name")}
                if "matrix_rank" in names:
                    sites.add((path.name, getattr(top, "name", "<module>")))
    assert sites == {("bodies.py", "_rank")}


def test_distinct_rows_match_numpy_unique_bits():
    # one stable lexsort gives np.unique's rows and first-occurrence rows,
    # with -0.0 equal to 0.0 and the first occurrence's sign kept
    for seed in range(40):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        base = np.round(rng.uniform(-1.0, 1.0, (3 + seed % 7, dim)), 1)
        base[rng.random(base.shape) < 0.3] = 0.0
        pts = base[rng.integers(0, len(base), 5 + 3 * seed)]
        pts = np.where(rng.random(pts.shape) < 0.5, -1.0, 1.0) * pts
        rows, index = bodies._distinct_rows(pts)
        want_rows, want_index = np.unique(pts, axis=0, return_index=True)
        assert _hexes(rows) == _hexes(want_rows)
        assert np.signbit(rows).tolist() == np.signbit(want_rows).tolist()
        np.testing.assert_array_equal(index, want_index)
        assert bodies._extremes(pts)[1].tolist() == want_index.tolist()
    rows, index = bodies._distinct_rows(np.array([[-0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, -0.0]]))
    assert np.signbit(rows).tolist() == [[True, False], [False, False]] and index.tolist() == [0, 2]


def test_hull_refuses_coordinates_beyond_the_extent():
    # from about 4e76 qhull's initial simplex reads flat while the rank is
    # still full, and the Steiner point fell back to grid quadrature
    five = np.array([[1, 1, 1], [-1, 1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)
    for scale in (1e77, 1e154, 1e300):
        with pytest.raises(InvalidBodyError):
            steiner(Polytope(five * scale))
    with pytest.raises(InvalidBodyError):
        Polytope([[1e200, 1e200], [-1e200, 1e200], [-1e200, -1e200], [1e200, -1e200]]).hull
    at_limit = Polytope(five * bodies.MAX_EXTENT)
    assert at_limit.hull.normals is not None
    with pytest.raises(InvalidBodyError):  # a moved copy carries no hull past the limit
        steiner(translate(at_limit, [bodies.MAX_EXTENT, 0.0, 0.0]))
    np.testing.assert_allclose(steiner(at_limit) / bodies.MAX_EXTENT, steiner(Polytope(five)),
                               rtol=0, atol=1e-12)


def test_polytope_copies_vertices_read_only():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    q = Polytope(a)
    a[0, 0] = 5.0
    assert q.vertices[0, 0] == 0.0
    assert not q.vertices.flags.writeable
    assert not q.hull.points.flags.writeable
    assert not q.hull.ring.flags.writeable


def _edge_rows(hull):
    """Hull edges as sets of vertex-array rows (comparable across builds)."""
    if hull.ring is not None:
        ring = hull.index[hull.ring]
        pairs = zip(ring, np.roll(ring, -1))
    else:
        pairs = hull.index[hull.edges]
    return {frozenset(map(int, p)) for p in pairs}


def _same_rows(a, b, tol):
    """Every row of a has a row of b within tol, and the counts match."""
    return a.shape == b.shape and np.abs(a[:, None, :] - b[None, :, :]).max(axis=2).min(axis=1).max() < tol


@pytest.mark.parametrize("dim", [2, 3])
def test_carried_hull_matches_fresh_build(dim, monkeypatch):
    poly = random_polytope(60 + dim, dim, 14)
    other = random_polytope(70 + dim, dim, 11)
    poly.hull  # built once here; the motions below must only carry it

    def no_qhull(*args, **kwargs):
        raise AssertionError("a rigid motion must not rebuild the hull")

    with monkeypatch.context() as m:
        m.setattr(bodies, "ConvexHull", no_qhull)
        motions = [
            rigid_motion(poly, random_rotation(80 + dim, dim).matrix),
            rigid_motion(poly, np.diag([1.0] * (dim - 1) + [-1.0]) @ random_rotation(90 + dim, dim).matrix),
            translate(poly, np.linspace(-0.7, 0.4, dim)),
        ]
        carried_hulls = [carried.hull for carried in motions]
    for carried, hull in zip(motions, carried_hulls):
        fresh_poly = Polytope(carried.vertices)
        fresh = fresh_poly.hull
        assert _edge_rows(hull) == _edge_rows(fresh)
        if dim == 2:
            ring = hull.polygon
            edges = np.roll(ring, -1, axis=0) - ring
            assert float(np.sum(ring[:, 0] * edges[:, 1] - ring[:, 1] * edges[:, 0])) > 0
        else:
            # a build rounds its points to 12 decimals, so the two records'
            # normals differ by that rounding over the facet size
            assert _same_rows(hull.normals, fresh.normals, 1e-10)
            fresh_cones = {int(fresh.index[v]): c for v, c in fresh.vertex_cones()}
            for v, cone in hull.vertex_cones():
                assert _same_rows(cone, fresh_cones[int(hull.index[v])], 1e-10)
            assert hull.edge_facets is poly.hull.edge_facets
            for h in (hull, fresh):
                # both facets of an edge support the body at its two ends
                offsets = (h.normals @ h.points.T).max(axis=1)
                for ends, facets in zip(h.edges, h.edge_facets):
                    assert facets[0] != facets[1]
                    heights = h.normals[facets] @ h.points[ends].T
                    assert np.abs(heights - offsets[facets, None]).max() < 1e-10
        assert abs(exact_hausdorff(carried, other) - exact_hausdorff(fresh_poly, other)) < 1e-12
        np.testing.assert_allclose(steiner(carried), steiner(fresh_poly), atol=1e-12)


def _cone_point_sets():
    """3-D point sets with flat faces, near-duplicates and interior points."""
    rng = np.random.default_rng(2024)
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
    sets = [cube, polytope_approximation(Ball(np.zeros(3), 1.0), 512).vertices]
    sets += [rng.standard_normal((int(rng.integers(4, 61)), 3)) for _ in range(120)]
    for _ in range(30):  # near-duplicate and interior points
        pts = rng.standard_normal((int(rng.integers(5, 30)), 3))
        sets.append(np.vstack([pts, pts[:4] + 1e-13 * rng.standard_normal((4, 3)),
                               0.1 * rng.standard_normal((5, 3))]))
    for _ in range(30):  # coplanar cut faces
        u = rng.standard_normal(3)
        spec = TruncationSpec(u / np.linalg.norm(u), rng.uniform(0.05, 1.5))
        sets.append(truncate(Polytope(cube), spec).vertices)
    sets += [rng.integers(-2, 3, (int(rng.integers(8, 40)), 3)).astype(float) for _ in range(20)]
    return sets


def test_build_hull_cones_bits_match_loop():
    sets = _cone_point_sets()
    assert len(sets) >= 200
    for pts in sets:
        hull = Polytope(pts).hull
        qh = ConvexHull(hull.points)
        owner, cones = loop_vertex_cones(qh.equations[:, :3], qh.simplices, qh.vertices)
        assert hull.cone_owner.dtype == owner.dtype and np.array_equal(hull.cone_owner, owner)
        assert np.array_equal(hull.cones.view(np.int64), cones.view(np.int64))
        assert hull.facets.shape == hull.normals.shape and not hull.facets.flags.writeable
    # a chain n1 ~ n2 ~ n3 with n1, n3 apart: n2 goes, n3 stays beside n1
    turn = np.array([0.0, 1e-6, 2e-6, 0.3])
    eq = np.column_stack([np.cos(turn), np.sin(turn), np.zeros(4)])
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 2, 3]])
    owner, cones = bodies._vertex_cones(eq, tris)
    want_owner, want_cones = loop_vertex_cones(eq, tris, np.arange(4))
    assert np.array_equal(owner, want_owner) and cones.tobytes() == want_cones.tobytes()
    assert np.count_nonzero(owner == 0) == 2
    poly = Polytope(sets[5])
    poly.hull  # built here, carried below
    for moved in (rigid_motion(poly, random_rotation(5, 3).matrix), translate(poly, np.ones(3))):
        assert moved.hull.facets is poly.hull.facets


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n_dirs", [2, 7, 4096])
def test_polytope_support_bits_match_transposed_product(dim, n_dirs):
    rng = np.random.default_rng(dim * 10_000 + n_dirs)
    vertices = rng.standard_normal((16, dim)) * 3.0
    dirs = rng.standard_normal((n_dirs, dim))
    assert np.array_equal(bodies._polytope_support(vertices, dirs), (dirs @ vertices.T).max(axis=1))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_polytope_support_bits_one_row(dim):
    # one-row products with a contiguous vertices.T round differently (in
    # 3-D for most rows), so many single rows are checked
    rng = np.random.default_rng(dim)
    for _ in range(50):
        vertices = rng.standard_normal((16, dim)) * 3.0
        d = rng.standard_normal((1, dim))
        assert np.array_equal(bodies._polytope_support(vertices, d), (d @ vertices.T).max(axis=1))


def test_polytope_support_bits_with_one_row_last_block(monkeypatch):
    # 5 rows per block of 16 vertices would leave a last block of 1 row; it
    # joins the block before, so blocks of 5 and 6 rows give the whole product
    monkeypatch.setattr(bodies, "_BLOCK_ENTRIES", 80)
    assert bodies.row_blocks(11, 16) == [(0, 5), (5, 11)]
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        vertices = rng.standard_normal((16, dim))
        dirs = rng.standard_normal((11, dim))
        got = support_values(Polytope(vertices), dirs)
        assert np.array_equal(got, (dirs @ vertices.T).max(axis=1))


def test_row_blocks_leave_no_one_row_block(monkeypatch):
    monkeypatch.setattr(bodies, "_BLOCK_ENTRIES", 12)
    assert bodies.row_blocks(0, 4) == [(0, 0)]
    assert bodies.row_blocks(1, 4) == [(0, 1)]
    assert bodies.row_blocks(7, 4) == [(0, 3), (3, 7)]
    assert bodies.row_blocks(8, 4) == [(0, 3), (3, 6), (6, 8)]
    assert bodies.row_blocks(5, 100) == [(0, 2), (2, 5)]  # wider than the budget: 2 rows
    for n in range(40):
        blocks = bodies.row_blocks(n, 1)
        sizes = [stop - start for start, stop in blocks]
        assert [b for start, stop in blocks for b in range(start, stop)] == list(range(n))
        assert n < 2 or min(sizes) >= 2


def _blocked_support_bodies():
    rng = np.random.default_rng(21)
    p2, p3 = Polytope(rng.standard_normal((9, 2))), Polytope(rng.standard_normal((14, 3)))
    a = rng.standard_normal((3, 3))
    sphere = rng.standard_normal((300, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    nearest = SphericalGrid(3, sphere, np.full(300, 4.0 * math.pi / 300), kind="unstructured")
    return {
        "polytope": p3,
        "sum-ball": Sum(p3, Ball(np.array([0.1, -0.2, 0.3]), 0.4)),
        "ellipsoid": Ellipsoid(np.array([0.5, -1.0, 0.25]), a @ a.T + np.eye(3)),
        "sampled-uniform-2d": sample_support(Sum(p2, Ball(np.zeros(2), 0.3)), make_grid_2d(64)),
        "sampled-lonlat-3d": sample_support(Sum(p3, Ball(np.zeros(3), 0.3)), make_grid_3d(8, 16)),
        "sampled-nearest": Sum(sample_support(p3, nearest), Rotated(random_rotation(4, 3), p3)),
    }


@pytest.mark.parametrize("name", list(_blocked_support_bodies()))
def test_support_values_bits_in_three_row_blocks(name, monkeypatch):
    # a budget of 3 rows per block leaves a one-row remainder at 31 and 1
    # rows, which joins the block before; zero rows make one empty block.  A
    # one-row product rounds a polytope's max differently for about 1 in 5
    # such remainders, so 40 sets of 31 directions are checked
    body = _blocked_support_bodies()[name]
    width = max(map(bodies._row_width, bodies.terms(body)))
    dirs = np.random.default_rng(5).standard_normal((40, 31, body.dim)) * 2.0
    dirs[:, 7] = 0.0
    cases = [*dirs, dirs[0, :1], dirs[0, :0], dirs[0, :4]]
    whole = [support_values(body, d) for d in cases]
    monkeypatch.setattr(bodies, "_BLOCK_ENTRIES", 3 * width)
    assert bodies.row_blocks(31, width)[-1] == (27, 31)
    for d, want in zip(cases, whole):
        got = support_values(body, d)
        assert got.shape == (len(d),) and got.tobytes() == want.tobytes()


def test_support_values_memory_bound():
    # a 60-vertex polytope on 1,048,352 directions: 139 MB with the former
    # 16M-entry blocks, under 12 MB (the 8.4 MB output and a cache-sized
    # block) now
    pts = np.random.default_rng(3).standard_normal((60, 3))
    poly = Polytope(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    dirs = make_grid_3d.__wrapped__(724, 1448).nodes  # uncached: 25 MB of nodes
    tracemalloc.start()
    try:
        support_values(poly, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
