import math
import tracemalloc

import numpy as np
import pytest

from convexhyper import (
    Ball,
    DimensionMismatchError,
    Ellipsoid,
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
from convexhyper.bodies import body_dim, rigid_motion
from convexhyper.metrics import nelder_mead, support_moment_matrix
from convexhyper.quadrature import ball_volume, default_grid, make_grid_3d
from convexhyper.rotations import circle_candidates, sphere_candidates
from oracles import (
    arc_loop_hausdorff,
    arc_loop_steiner_2d,
    brute_moment,
    brute_steiner_2d,
    cloud_hausdorff,
    enumerated_hausdorff,
    kink_polish_hausdorff,
    polygon_boundary_cloud,
)

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
        # this exercises the tangent-plane Nelder-Mead polish
        from convexhyper import Ellipsoid, Rotated

        a_ax, b_ax = 1.37, 0.81
        g = random_rotation(99, 2)
        body = Rotated(g, Ellipsoid(np.zeros(2), np.diag([a_ax, b_ax])))
        d = hausdorff(body, unit_ball_2d, grid2)
        assert abs(d - max(abs(a_ax - 1.0), abs(b_ax - 1.0))) < 1e-10

    def test_smooth_pair_refinement_off_node_3d(self, unit_ball_3d):
        # the 3-D twin: sup |h_E - 1| = max |axis - 1| for any rotation
        for seed in range(3):
            axes = np.random.default_rng(seed).uniform(0.5, 1.6, 3)
            body = Rotated(random_rotation(300 + seed, 3), Ellipsoid(np.zeros(3), np.diag(axes)))
            assert abs(hausdorff(body, unit_ball_3d) - np.abs(axes - 1.0).max()) < 1e-12

    def test_flat_pair_matches_planar_exact(self):
        # coplanar polygons in 3-D: the sup lies on the great circle of their
        # plane, where h is the planar support function.  Rotated copies get
        # sliver hulls and the exact kernel; in the plane z = 0 qhull builds
        # no facets, so the grid and the polish give the value
        rng = np.random.default_rng(5)
        for seed in range(4):
            p, q = rng.normal(size=(6, 2)), rng.normal(size=(7, 2))
            want = metrics.exact_hausdorff(Polytope(p), Polytope(q))
            lift = [Polytope(np.c_[v, np.zeros(len(v))]) for v in (p, q)]
            assert metrics.exact_hausdorff(*lift) is None
            g = random_rotation(400 + seed, 3)
            for pair in (lift, [Rotated(g, body) for body in lift]):
                assert abs(hausdorff(*pair) - want) < 1e-12


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


def _ellipsoid(rng, n):
    g = random_rotation(int(rng.integers(1 << 30)), n).matrix
    return Ellipsoid(rng.normal(0.0, 0.2, n), g @ np.diag(rng.uniform(0.4, 1.6, n)) @ g.T)


def _non_exact_pair(seed):
    """One of eight kinds of pairs ``exact_hausdorff`` does not cover, by seed."""
    rng = np.random.default_rng(seed)
    kind, n = seed % 4, 2 + (seed // 4) % 2
    if kind == 0:
        return _ellipsoid(rng, n), random_polytope(seed, n, 8)
    if kind == 1:
        return Sum(random_polytope(seed, n, 7), Scaled(0.3, _ellipsoid(rng, n))), random_polytope(seed + 1, n, 9)
    if kind == 2:
        return _ellipsoid(rng, n), _ellipsoid(rng, n)
    if n == 3:  # exactly coplanar in a coordinate plane: qhull builds no facets
        flat = [np.c_[rng.normal(size=(k, 2)), np.full(k, rng.normal())][:, rng.permutation(3)] for k in (6, 7)]
        return Polytope(flat[0]), Polytope(flat[1])
    # parallel bodies of many-vertex polygons, past the exact kernel's size
    t = [np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(600, 1500)))) for _ in range(2)]
    return tuple(Sum(Polytope(np.c_[rng.uniform(0.8, 1.2) * np.cos(s), np.sin(s)]), Ball(np.zeros(2), r))
                 for s, r in zip(t, (0.2, 0.3)))


def test_polish_never_below_the_kink_polish():
    # the former polish (golden section in 2-D, extra starts at kink
    # directions) found no more than rounding above the tangent-plane
    # Nelder-Mead one on the default grids; on 64-node 2-D grids it did
    # find up to 6.5e-5 more on the many-vertex parallel bodies
    for seed in range(40):
        a, b = _non_exact_pair(seed)
        assert metrics.exact_hausdorff(a, b) is None
        want = kink_polish_hausdorff(a, b, default_grid(body_dim(a)))
        assert hausdorff(a, b) >= want - 1e-12, seed


# ---------------------------------------------------------------------------
# exact Hausdorff: arcs for polygon pairs, the stacked kernel for the rest
# ---------------------------------------------------------------------------

def _sphere_polytope(seed, count):
    """``count`` random points of the unit sphere, all of them hull vertices."""
    pts = np.random.default_rng(seed).standard_normal((count, 3))
    return Polytope(pts / np.linalg.norm(pts, axis=1, keepdims=True))


def test_exact_hausdorff_matches_enumeration_3d():
    # the kernel leaves out edge crossings; the oracle enumerates them
    rng = np.random.default_rng(77)
    for seed in range(50):
        a = random_polytope(1000 + seed, 3, int(rng.integers(4, 24)))
        b = random_polytope(2000 + seed, 3, int(rng.integers(4, 24)))
        assert abs(metrics.exact_hausdorff(a, b) - enumerated_hausdorff(a, b)) <= 1e-11


@pytest.mark.parametrize("dim", [2, 3])
def test_exact_hausdorff_polytope_ball_matches_enumeration(dim):
    rng = np.random.default_rng(78 + dim)
    for seed in range(10):
        poly = random_polytope(3000 + seed, dim, int(rng.integers(dim + 1, 20)))
        ball = Ball(rng.uniform(-0.3, 0.3, dim), rng.uniform(0.2, 1.5))
        for a, b in ((poly, ball), (ball, poly)):
            assert abs(metrics.exact_hausdorff(a, b) - enumerated_hausdorff(a, b)) <= 1e-11


@pytest.mark.parametrize("dim", [2, 3])
def test_exact_hausdorff_parallel_body_bounds_dense_sweep(dim):
    # h of P + B(c, r) is h_P + <c, u> + r; the kernel is exact for it.  The
    # gap is about 1.5-Lipschitz and may peak at a kink, so a sweep with
    # cells of angle delta falls short by up to about 1.5 delta
    poly, other = random_polytope(3100 + dim, dim, 10), random_polytope(3200 + dim, dim, 9)
    body = Sum(Rotated(random_rotation(3300, dim), Scaled(0.8, poly)), Ball(np.full(dim, 0.1), 0.2))
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(2**18) / 2**18
        dirs, slack = np.column_stack([np.cos(theta), np.sin(theta)]), 1e-4
    else:
        dirs, slack = make_grid_3d(512, 1024).nodes, 1e-2
    sweep = np.abs(support_values(body, dirs) - support_values(other, dirs)).max()
    for a, b in ((body, other), (other, body)):
        exact = metrics.exact_hausdorff(a, b)
        assert sweep - 1e-12 <= exact <= sweep + slack


def test_exact_hausdorff_size_rule():
    # one limit on directions x points replaces the vertex caps: the largest
    # pairs the caps let through (120 vertices, or 600 against a ball) stay exact
    ball = Ball(np.array([0.1, 0.0, -0.05]), 0.9)
    for a, b in ((_sphere_polytope(1, 60), _sphere_polytope(2, 60)),
                 (_sphere_polytope(3, 75), _sphere_polytope(4, 45)),
                 (_sphere_polytope(5, 600), ball)):
        assert metrics.exact_hausdorff(a, b) is not None
        assert metrics.exact_hausdorff(b, a) is not None
    # past the rule the kernel refuses the pair and vertex distances take it
    approx = polytope_approximation(Ball(np.zeros(3), 1.0), 512)
    moved = rigid_motion(approx, random_rotation(6, 3).matrix)
    assert metrics._kernel_size(metrics._side(approx), metrics._side(moved)) > metrics._EXACT_ENTRIES
    dirs = make_grid_3d(512, 1024).nodes
    sweep = np.abs(support_values(approx, dirs) - support_values(moved, dirs)).max()
    assert sweep - 1e-12 <= metrics.exact_hausdorff(approx, moved) <= sweep + 1e-2


def test_exact_hausdorff_memory_bound():
    a, b = _sphere_polytope(1, 60), _sphere_polytope(2, 60)
    a.hull, b.hull
    tracemalloc.start()
    try:
        metrics.exact_hausdorff(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _vertex_distance_pairs():
    """Mid-size 3-D pairs: parallel bodies P + rB and Q + sB with r != s,
    nested pairs, identical and translated copies, and a ball against a
    polytope."""
    rng = np.random.default_rng(4242)
    pairs = []
    for seed in range(13):
        p = random_polytope(5000 + seed, 3, int(rng.integers(8, 40)))
        q = random_polytope(5100 + seed, 3, int(rng.integers(8, 40)))
        r, s = rng.uniform(0.05, 0.5, 2)
        pairs += [
            (Sum(p, Ball(rng.uniform(-0.2, 0.2, 3), r)), Sum(q, Ball(rng.uniform(-0.2, 0.2, 3), s))),
            (p, Polytope(0.4 * p.vertices + rng.uniform(-0.05, 0.05, 3))),
            (p, Polytope(p.vertices)),
            (p, translate(p, rng.uniform(-0.3, 0.3, 3))),
            (Ball(rng.uniform(-0.2, 0.2, 3), r), q),
        ]
    return pairs


def test_vertex_hausdorff_matches_enumeration():
    pairs = _vertex_distance_pairs()
    assert len(pairs) >= 50
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            value = metrics._vertex_hausdorff(metrics._side(x), metrics._side(y))
            assert abs(value - enumerated_hausdorff(x, y)) <= 1e-11


def _sweep(p, q, dirs, block=4096):
    """max |h_P - h_Q| over the rows of dirs, a block of rows at a time."""
    return max(float(np.abs((dirs[i:i + block] @ p.vertices.T).max(axis=1)
                            - (dirs[i:i + block] @ q.vertices.T).max(axis=1)).max())
               for i in range(0, len(dirs), block))


def test_vertex_hausdorff_large_pair_bounds_sweep_and_polish(monkeypatch):
    # 512 + 512 vertices, far past the kernel's size rule
    approx = polytope_approximation(Ball(np.zeros(3), 1.0), 512)
    moved = rigid_motion(approx, random_rotation(7, 3).matrix, np.array([0.05, -0.02, 0.01]))
    exact = metrics.exact_hausdorff(approx, moved)
    sweep = _sweep(approx, moved, make_grid_3d(512, 1024).nodes)
    assert sweep - 1e-12 <= exact <= sweep + 1e-2
    with monkeypatch.context() as m:  # the grid plus Nelder-Mead polish, a lower bound
        m.setattr(metrics, "exact_hausdorff", lambda a, b: None)
        polished = hausdorff(approx, moved)
    assert exact >= polished - 1e-12


def test_vertex_hausdorff_memory_bound():
    # far apart, every point sees about half of the other body's facets
    approx = polytope_approximation(Ball(np.zeros(3), 1.0), 512)
    far = rigid_motion(approx, random_rotation(8, 3).matrix, np.array([40.0, 3.0, -2.0]))
    approx.hull, far.hull
    tracemalloc.start()
    try:
        value = metrics.exact_hausdorff(approx, far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a rigid copy of a near-sphere moved by t is about |t| away
    assert abs(value - math.hypot(40.0, 3.0, 2.0)) < 1e-2
    assert peak < 16e6


# the seed-1 inputs p2a, p2b, p3a and p3b of the benchmark's cli workload,
# whose hausdorff outputs its reference records byte for byte
_CLI_P2A = [[-0.8390548461510116, 0.49196532244433444], [0.5302347891253072, -0.74234437776927],
            [0.9597806148946194, -0.05984261271299381], [0.47710860911156916, 0.6602967285592],
            [-0.5852648632896985, 0.7148498488879669], [-0.37688038495508636, -0.7137541374926519],
            [0.7833542265755365, 0.39004109845160884], [-0.6737614144259073, -0.5117161546767826],
            [0.25752269449405185, -0.8187190633079559], [0.13151773526613322, 0.7985290122656237]]
_CLI_P2B = [[-0.3902592126483625, -0.833107252191532], [-0.027298093343923857, -0.9559588258573487],
            [-0.7873281095948679, -0.37312768853019423], [-0.5613129739101091, 0.7730345009169609],
            [-0.8296972585891882, 0.3669090228808065], [0.8769471786528842, -0.10261894670747825],
            [-0.014512970851472325, 0.9589922492684098], [0.8508579176447053, 0.18126343396490993],
            [0.3218314500949186, -0.9122783333600671], [-0.7448533819704244, 0.5553506662236335]]
_CLI_P3A = [[0.016754502866142044, 0.8114821243580014, -0.008988521090023157],
            [-0.49157878234221086, -0.10153378458957892, 0.576953378021799],
            [0.7360148228208826, -0.08641303316689454, 0.13116583063695128],
            [-0.4353064885949392, -0.5692445163298337, -0.39846112140378087],
            [-0.13560663083529817, -0.02668008230420624, -0.775778267922994],
            [0.557773489387518, 0.31966753658426167, 0.4633020895610036],
            [-0.5524735022809082, 0.24245268728778194, 0.5141361983820046],
            [0.34722742548761076, 0.3613631908290344, -0.5621761090488915],
            [0.6714192778599067, -0.24629444089426522, -0.30188292748241563],
            [-0.45943807695151634, -0.6451704370826727, -0.10646024805725943],
            [0.6230921579575087, -0.04649544324143729, 0.43097513523694525],
            [-0.5318262702941516, -0.21482485079714664, -0.5391168377080754]]
_CLI_P3B = [[0.48100250717002707, 0.5791729459428964, -0.2828310532194748],
            [0.20508873900518412, -0.47719734999972474, 0.5778793752303084],
            [-0.23049200525751226, 0.5885820185439681, 0.5239202774619136],
            [0.36009939155359094, -0.6558449181986266, 0.2419880498070993],
            [0.22138323963998668, 0.6980632613107105, 0.43576107323015795],
            [-0.6497731408979346, 0.324933549516448, 0.2817731664873632],
            [0.3555668472457605, -0.12184099931812153, 0.6942689806613935],
            [-0.73304026330165, -0.3132687251819382, -0.1543339292291355],
            [-0.014062275263898964, 0.5630483063385193, -0.5415754646760663],
            [0.0303683303837991, 0.38873403953208857, 0.7257021108146721],
            [-0.2374995621585377, 0.7539101881864063, 0.21737630295570076],
            [-0.7529246220307747, 0.07221778881046512, -0.21179965540941514]]


@pytest.mark.parametrize("name", ["p2", "p3"])
def test_cli_hausdorff_bits_pinned(name, grid2):
    # p2 goes through the arc path, p3 through the kernel; the grid is the
    # CLI's default, so these are the values the cli command prints
    if name == "p2":
        a, b, grid, pinned = Polytope(_CLI_P2A), Polytope(_CLI_P2B), grid2, "0x1.7483b35d6606dp-3"
    else:
        a, b, grid, pinned = Polytope(_CLI_P3A), Polytope(_CLI_P3B), make_grid_3d(64, 128), "0x1.e803b4bcba4b2p-2"
    for x, y in ((a, b), (b, a)):
        assert metrics.exact_hausdorff(x, y).hex() == pinned
        assert hausdorff(x, y, grid).hex() == pinned


# float.hex of the seed-1 cli congruence output for p2a, p2b (distance, then
# the optimizer's entries row by row): numpy 2.4 with OpenBLAS 0.3.31 on
# x86-64, its AVX-512 SkylakeX kernels, then its AVX2 Haswell kernels
_CLI_CONGRUENCE_PINS = (
    ("0x1.ba277aded02a6p-4", "-0x1.72bdf61088da5p-1", "-0x1.611ef0c74cfbfp-1",
     "0x1.611ef0c74cfbfp-1", "-0x1.72bdf61088da5p-1"),
    ("0x1.ba277aded02a4p-4", "-0x1.72bdf61088da5p-1", "-0x1.611ef0c74cfbfp-1",
     "0x1.611ef0c74cfbfp-1", "-0x1.72bdf61088da5p-1"),
)


def test_cli_congruence_bits_pinned(grid2):
    # the 2-D refinement's probes take the arc form; grid2 is the CLI's default
    res = congruence.congruence_distance(Polytope(_CLI_P2A), Polytope(_CLI_P2B), grid2,
                                         congruence.SearchParams(coarse=180))
    pinned = tuple(float(x).hex() for x in (res.distance, *res.optimizer.matrix.ravel()))
    assert pinned in _CLI_CONGRUENCE_PINS


def _arc_cases():
    """Seeded polygon pairs, each with an orthogonal map: points, segments,
    triangles, larger polygons, fixed degenerate rings, and polygons
    against a copy of themselves rotated by less than 1e-9 (tiny arcs)."""
    rng = np.random.default_rng(4242)
    fixed = [[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[0.3, 0.1], [0.3, 0.1 + 1e-13], [1.0, 0.0]],
             [[0.1234567890123456, -0.5]], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]]
    for i in range(520):
        if i < len(fixed) ** 2:
            a, b = np.array(fixed[i // len(fixed)]), np.array(fixed[i % len(fixed)])
        else:
            a = rng.normal(size=(int(rng.choice([1, 2, 3, 3, 5, 9, 16])), 2))
            b = rng.normal(size=(int(rng.choice([1, 2, 3, 3, 5, 9, 16])), 2))
        t = rng.uniform(0.0, 2.0 * math.pi)
        if i % 10 == 5:
            b, t = a * rng.uniform(0.5, 2.0), 0.0  # nested: the same fan
        elif i % 10 == 0:
            b, t = a.copy(), rng.uniform(-1e-9, 1e-9)
        g = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        yield Polytope(a), Polytope(b), g if i % 2 == 0 else g @ np.diag([1.0, -1.0])


def test_arc_hausdorff_bits_match_loop():
    # holds with any BLAS: the stacked products reach the same gemv and ddot
    cases = list(_arc_cases())
    for p, q, g in cases:
        moved = rigid_motion(p, g)
        for x, y in ((moved, q), (q, moved)):
            assert metrics.exact_hausdorff(x, y).hex() == arc_loop_hausdorff(x, y).hex()
        for x, y in ((p, q), (q, p)):
            probe = float(congruence._probe_2d(x, y, None)(g[None])[0])
            assert probe.hex() == metrics.exact_hausdorff(rigid_motion(x, g), y).hex()
    # every entry of a stack of 1, 3 or 7 moved copies of one polygon, mixed
    # proper and improper, against one polygon has the bits of its own call
    rng = np.random.default_rng(4243)
    for i, (p, q, _) in enumerate(cases):
        size = (1, 3, 7)[i % 3]
        mats = np.array([g for _, _, g in (cases[j] for j in rng.integers(0, len(cases), size))])
        for x, y in ((p, q), (q, p)):
            stacked = congruence._probe_2d(x, y, None)(mats)
            assert stacked.shape == (size,)
            want = [metrics.exact_hausdorff(rigid_motion(x, g), y).hex() for g in mats]
            assert [v.hex() for v in stacked.tolist()] == want


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


def _bipyramid(k):
    """A k-gon with an apex above and below it: k facet normals at each apex."""
    t = 2.0 * math.pi * np.arange(k) / k
    ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(k)])
    return Polytope(np.vstack([ring, [[0.1, 0.0, 1.3], [0.0, -0.1, -0.7]]]))


def _cut_with_coplanar_points():
    """The pinned cut polytope plus redundant points on its cut face."""
    cut = _pinned_bodies()["cut"]
    h = cut.vertices @ (np.array([1.0, 2.0, 2.0]) / 3.0)
    face = cut.vertices[h > h.max() - 1e-9]
    extra = [face.mean(axis=0), 0.5 * (face[0] + face[1]), 0.25 * face[0] + 0.75 * face[2]]
    return Polytope(np.vstack([cut.vertices, *extra]))


@pytest.mark.parametrize("seed", range(6))
def test_steiner_3d_bits_match_recursion(seed):
    # holds with any BLAS: both forms make the same products in the same
    # order.  The cones are ordered for all vertices at once; the extra
    # bodies have many cones, cones of 40 normals (long axis sums) and
    # degenerate cones of redundant face points
    bodies = [random_polytope(900 + seed, 3, 4 + 5 * seed), _symmetric_polytope(seed, 6 + 4 * seed)]
    extra = {0: ["cut", "ball approximation"], 1: ["cube"]}
    bodies += [_pinned_bodies()[name] for name in extra.get(seed, [])]
    if seed == 2:
        bodies.append(_bipyramid(40))
        assert np.bincount(bodies[-1].hull.cone_owner).max() == 40
    if seed == 3:
        bodies.append(_cut_with_coplanar_points())
        sizes = np.bincount(bodies[-1].hull.cone_owner)
        assert 0 < sizes[sizes > 0].min() < 3  # a cone the quadrature skips
    for body in bodies:
        assert metrics._steiner_polytope_3d(body).tobytes() == _reference_steiner_3d(body).tobytes()


def test_split_threshold_matches_acos():
    # a side is split when acos of its cosine exceeds _SPLIT_ANGLE; the
    # quadrature compares the cosine with _SPLIT_COS instead
    assert math.acos(metrics._SPLIT_COS) <= metrics._SPLIT_ANGLE
    below = [metrics._SPLIT_COS]
    above = [metrics._SPLIT_COS]
    for _ in range(1000):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    for x in below[1:] + above[:-1]:
        assert (math.acos(x) > metrics._SPLIT_ANGLE) == (x < metrics._SPLIT_COS)


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


def _rotated_polygon(seed):
    """A 3- to 9-gon in a generically rotated plane of R^3."""
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, 3 + seed % 7))
    flat = np.column_stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)]) + [0.2, -0.1, 0.0]
    return Polytope(flat @ random_rotation(1000 + seed, 3).matrix.T)


def test_steiner_flat_polygon_in_3d_falls_back_to_quadrature():
    # qhull builds a sliver hull whose cones all have fewer than three
    # normals; steiner then integrates on the default grid
    grid, slivers = make_grid_3d(64, 128), 0
    for seed in range(50):
        poly = _rotated_polygon(seed)
        slivers += poly.hull.normals is not None
        s = steiner(poly)
        assert np.isfinite(s).all()
        assert np.array_equal(s, steiner_quadrature(poly, grid))
    assert slivers > 25


def test_steiner_2d_bits_match_arc_loop():
    # the ring's normal-cone arcs come from Hull.arcs in one pass, a point's
    # or segment's midpoint from its extreme points; polygons, points and
    # segments, moved by a reflection (the carried ring reverses) or rebuilt
    flip = np.diag([1.0, -1.0]) @ random_rotation(7, 2).matrix
    bodies = [random_polytope(600 + seed, 2, 3 + seed) for seed in range(10)]
    bodies += [polytope_approximation(Ball(np.array([0.2, -0.1]), 1.3), 512),
               Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]]), Polytope([[0.3, -0.7]]),
               Polytope([[0.3, -0.7], [0.3, -0.7]]), Polytope([[0, 0], [2, 1], [1, 0.5]]),
               Polytope([[0.1, 0.35], [-0.45, 0.2]])]
    for poly in bodies:
        poly.hull  # built, so that the reflection carries it
        for body in (poly, rigid_motion(poly, flip), Polytope(poly.vertices @ flip.T)):
            got, want = steiner(body), arc_loop_steiner_2d(body)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


def test_steiner_of_collinear_3d_points_is_the_midpoint():
    # rounding to 12 decimals moves collinear points about 1e-12 off their
    # line; the hull's rank test must still see a segment (with an absolute
    # 1e-12 tolerance, 5 of these 20 sets had rank 2 or 3 and a Steiner
    # point 0.03 to 0.23 away)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        t = rng.uniform(-1.7, 1.7, 10)
        poly = Polytope(t[:, None] * d)
        assert poly.hull.rank == 1
        np.testing.assert_allclose(steiner(poly), 0.5 * (t.min() + t.max()) * d, rtol=0.0, atol=1e-9)


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


# ---------------------------------------------------------------------------
# per-polytope memo of the Steiner point, moment and canonical frame
# ---------------------------------------------------------------------------

def _memo_values(poly):
    from convexhyper.regularization import canonical_frame

    return steiner(poly), support_moment_matrix(poly), canonical_frame(poly)


@pytest.mark.parametrize("dim", [2, 3])
def test_memo_matches_a_fresh_polytope_bit_for_bit(dim):
    poly = random_polytope(120 + dim, dim, 14)
    first = _memo_values(poly)
    for got in first:  # a returned array is the caller's own
        got[...] = 99.0
    again, fresh = _memo_values(poly), _memo_values(Polytope(poly.vertices))
    for a, b in zip(again, fresh):
        np.testing.assert_array_equal(a, b)
    assert not np.any(again[0] == 99.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_moved_copies_recompute(dim):
    poly = random_polytope(130 + dim, dim, 12)
    g, shift = random_rotation(7, dim).matrix, np.full(dim, 0.75)
    unmoved = _memo_values(poly)
    plain = Polytope(poly.vertices)
    plain.hull  # the same hull to carry, with nothing memoized
    pairs = [(rigid_motion(poly, g, shift), rigid_motion(plain, g, shift)),
             (translate(poly, shift), translate(plain, shift))]
    for moved, reference in pairs:
        got, want = _memo_values(moved), _memo_values(reference)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        fresh = _memo_values(Polytope(moved.vertices))
        for a, b in zip(got, fresh):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-11)
        assert np.abs(got[0] - unmoved[0]).max() > 0.1


def test_flat_3d_steiner_follows_the_grid():
    flat = Polytope([[0.0, 0.0, 0.3], [1.0, 0.2, 0.3], [0.1, 0.7, 0.3], [0.5, 0.5, 0.3]])
    coarse, fine = make_grid_3d(6, 12), make_grid_3d(16, 32)
    got = [steiner(flat, grid) for grid in (coarse, fine, coarse)]
    for s, grid in zip(got, (coarse, fine, coarse)):
        np.testing.assert_array_equal(s, steiner_quadrature(flat, grid))
    assert not np.array_equal(got[0], got[1])
