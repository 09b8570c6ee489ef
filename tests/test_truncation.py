import math
import tracemalloc

import numpy as np
import pytest

from convexhyper import (
    Ball,
    EmptyResultError,
    InfeasibleBudgetError,
    InvalidArgumentError,
    Polytope,
    RepresentationError,
    TruncationSpec,
    desymmetrize,
    hausdorff,
    is_c1_violated,
    isotropy_estimate,
    make_grid_2d,
    make_grid_3d,
    polytope_approximation,
    random_symmetric_polytope,
    recenter,
    steiner,
    support_values,
    truncate,
)
from convexhyper import bodies, random_polytope, random_rotation, truncation, width
from convexhyper.bodies import rigid_motion
from oracles import (former_desymmetrize, former_plan_cuts, loop_vertex_cone_direction, one_shot_diameter,
                     two_pass_clip)


class TestTruncate:
    def test_eps_zero_is_recenter(self, square, grid2):
        out = truncate(square, TruncationSpec([1.0, 0.0], 0.0), grid2)
        np.testing.assert_allclose(
            np.sort(out.vertices, axis=0), np.sort(square.vertices, axis=0)
        )

    def test_square_clip_by_hand(self, square, grid2):
        # cut at x1 = 0.5; resulting rectangle [-1, .5] x [-1, 1] recenters
        # to [-0.75, 0.75] x [-1, 1]
        out = truncate(square, TruncationSpec([1.0, 0.0], 0.5), grid2)
        expected = {(-0.75, -1.0), (-0.75, 1.0), (0.75, -1.0), (0.75, 1.0)}
        got = {tuple(np.round(v, 9)) for v in out.vertices}
        assert got == expected

    def test_cube_corner_cut(self, cube, grid3_small):
        u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        out = truncate(cube, TruncationSpec(u, 0.2), grid3_small)
        # oracle: clipping a corner replaces 1 vertex with 3
        assert out.vertices.shape[0] == 10
        h_new = float(support_values(out, u[None, :])[0])
        h_old = float(support_values(recenter(cube, grid3_small), u[None, :])[0])
        assert h_new < h_old

    def test_empty_result(self, square, grid2):
        with pytest.raises(EmptyResultError):
            truncate(square, TruncationSpec([1.0, 0.0], 2.0), grid2)

    def test_non_polytope_rejected(self, unit_ball_2d, grid2):
        with pytest.raises(RepresentationError):
            truncate(unit_ball_2d, TruncationSpec([1.0, 0.0], 0.1), grid2)

    def test_continuity_in_eps(self, grid2):
        body = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
        spec0 = TruncationSpec([1.0, 0.0], 0.5)
        base = truncate(body, spec0, grid2)
        dists = []
        for j in (1, 2, 3, 4):
            eps_j = 0.5 + 2.0 ** (-j - 1)
            out = truncate(body, TruncationSpec([1.0, 0.0], eps_j), grid2)
            dists.append(hausdorff(out, base, grid2))
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.05

    def test_result_inside_shifted_input(self, grid2):
        # the truncated body is a subset of the input shifted by the same
        # Steiner correction: support never exceeds it, and strictly
        # decreases near the cut normal
        from convexhyper.bodies import translate

        body = Polytope(np.random.default_rng(3).uniform(-1, 1, (10, 2)))
        u = np.array([0.0, 1.0])
        out = truncate(body, TruncationSpec(u, 0.3), grid2)
        h_u = float(support_values(body, u[None, :])[0])
        shift = steiner(truncation._clip(body, u, h_u - 0.3), grid2)
        shifted = translate(body, -shift)
        excess = support_values(out, grid2.nodes) - support_values(shifted, grid2.nodes)
        assert excess.max() <= 1e-12
        at_cut = float(support_values(out, u[None, :])[0])
        assert at_cut < float(support_values(shifted, u[None, :])[0]) - 0.29


def _rows(points):
    return [tuple(p) for p in np.asarray(points).tolist()]


def _boundary_distance(p, ring):
    a, b = ring, np.roll(ring, -1, axis=0)
    t = np.clip(((p - a) * (b - a)).sum(axis=1) / ((b - a) ** 2).sum(axis=1), 0.0, 1.0)
    return float(np.linalg.norm(a + t[:, None] * (b - a) - p, axis=1).min())


def _flat_points(ring, noise):
    """Whether some point of a CCW ring lies within noise of its
    neighbours' chord (or on its inner side)."""
    prev, chord = np.roll(ring, 1, axis=0), np.roll(ring, -1, axis=0) - np.roll(ring, 1, axis=0)
    lift = (ring[:, 0] - prev[:, 0]) * chord[:, 1] - (ring[:, 1] - prev[:, 1]) * chord[:, 0]
    return bool((lift <= noise * np.linalg.norm(chord, axis=1)).any())


def _check_ring_clip(poly, u, cut):
    """The ring clip gives the former two-pass record, less the points
    within the rank noise of their neighbours' chord; returns whether
    it gave that record whole."""
    new, old = truncation._clip(poly, u, cut), two_pass_clip(poly, u, cut)
    nh, oh = new.hull, old.hull
    assert nh.rank == oh.rank
    np.testing.assert_array_equal(nh.index, np.arange(len(nh.points)))
    np.testing.assert_array_equal(new.vertices, nh.points)
    if nh.rank < 2:
        np.testing.assert_array_equal(nh.points, oh.points)
        np.testing.assert_array_equal(nh.extreme, oh.extreme)
        return True
    assert _rows(nh.points) == sorted(_rows(nh.points)) and nh.extreme[0] == 0
    assert sorted(nh.extreme.tolist()) == list(range(len(nh.points)))
    kept = set(_rows(nh.points))
    old_ring = _rows(oh.polygon)
    start = old_ring.index(_rows(nh.polygon)[0])
    old_ring = old_ring[start:] + old_ring[:start]
    assert [p for p in old_ring if p in kept] == _rows(nh.polygon)
    noise = bodies._noise(oh.points)
    for p in set(old_ring) - kept:
        assert _boundary_distance(np.array(p), nh.polygon) <= noise
    # no edge of rounding length, whose normal angle would be noise
    assert not _flat_points(nh.polygon, noise)
    if not _flat_points(oh.polygon, noise):
        np.testing.assert_array_equal(nh.points, oh.points)
        return True
    return False


class TestRingClip:
    def test_seeded_cuts_match_the_two_pass_record(self):
        whole = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            poly = random_polytope(700 + seed, 2, int(rng.integers(3, 16)))
            if seed % 2:  # a carried hull: moved points, a reflection reverses the ring
                g = random_rotation(seed, 2).matrix @ np.diag([1.0, (-1.0) ** (seed // 2)])
                poly.hull
                poly = rigid_motion(poly, g, rng.standard_normal(2))
            u = random_rotation(900 + seed, 2).matrix[0]
            h = poly.vertices @ u
            whole += _check_ring_clip(poly, u, h.max() - rng.uniform(0.01, 0.99) * np.ptp(h))
        assert whole == 200

    def test_adversarial_cuts_match_the_two_pass_record(self):
        whole = total = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            poly = random_polytope(800 + seed, 2, 9)
            ring, scale = poly.hull.polygon, 1.0 + np.abs(poly.vertices).max()
            v = ring[seed % len(ring)]
            u = random_rotation(850 + seed, 2).matrix[0]
            tol = truncation._FACE_TOL * scale
            cuts = [(u, v @ u)] + [(u, v @ u + f * tol) for f in (-1.5, -0.5, 0.5, 1.0, 1.5)]
            e = ring[(seed + 1) % len(ring)] - v
            n = np.array([e[1], -e[0]]) / np.linalg.norm(e)  # outward normal of the edge out of v
            cuts += [(n, v @ n + f) for f in (-0.2, -1e-10, 1e-10, -2.0 * tol)]
            h = poly.vertices @ u
            cuts += [(u, h.max() - np.ptp(h) * (1.0 - f)) for f in (1e-13, 1e-10, 1e-7)]
            for w, cut in cuts:
                total += 1
                d = poly.vertices @ w - cut
                if (d <= tol).all():
                    assert truncation._clip(poly, w, cut) is poly
                elif (d > tol).all():
                    with pytest.raises(EmptyResultError):
                        truncation._clip(poly, w, cut)
                else:
                    whole += _check_ring_clip(poly, w, cut)
        # vertices within the tolerance of the line give crossings within
        # about 1e-9 of them, some of which the two-pass path kept
        assert 0 < whole < total


def test_cuts_build_qhull_only_where_they_did(monkeypatch):
    # a 2-D cut clips its ring with no qhull; a 3-D cut takes the extreme
    # points of its clipped points and then the result's hull
    built = []

    class Counting(bodies.ConvexHull):
        def __init__(self, *args, **kwargs):
            built.append(np.shape(args[0]))
            super().__init__(*args, **kwargs)

    body = random_symmetric_polytope(7, 2, 10)
    monkeypatch.setattr(bodies, "ConvexHull", Counting)
    grid = make_grid_2d(256)
    out, _ = desymmetrize(body, 0.3, grid)
    u = np.array([0.6, 0.8])
    for f in (0.0, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7):
        truncate(out, TruncationSpec(u, float(width(out, u)) * (0.1 + f)), grid)
    assert built == [body.vertices.shape]
    for seed in range(3):
        poly = random_polytope(seed, 3, 12)
        poly.hull
        built.clear()
        truncate(poly, TruncationSpec([0.0, 0.0, 1.0], 0.3), make_grid_3d(16, 32))
        assert len(built) == 2


class TestC1Violation:
    def test_square(self, square):
        assert is_c1_violated(square, 0.1)

    def test_fine_polygon(self, unit_ball_2d):
        fine = polytope_approximation(unit_ball_2d, 2048)
        assert not is_c1_violated(fine, 0.1)
        # normal cones of a regular 2048-gon have width 2*pi/2048
        assert is_c1_violated(fine, 0.5 * (2 * math.pi / 2048))

    def test_fresh_cut_violates(self, unit_ball_2d, grid2):
        fine = polytope_approximation(unit_ball_2d, 2048)
        cut = truncate(fine, TruncationSpec([1.0, 0.0], 0.1), grid2)
        assert is_c1_violated(cut, 0.1)

    def test_3d_smooth_approx(self, unit_ball_3d, grid3_small):
        # rim dihedral of a depth-0.3 cap cut is about arccos(0.7) ~ 0.79 rad,
        # far above the ~0.2 rad vertex cones of the uncut approximation
        approx = polytope_approximation(unit_ball_3d, 2048)
        assert not is_c1_violated(approx, 0.35)
        cut = truncate(approx, TruncationSpec([0.0, 0.0, 1.0], 0.3), grid3_small)
        assert is_c1_violated(cut, 0.35)


class TestDesymmetrize:
    def test_square(self, square, grid2):
        out, faces = desymmetrize(square, 0.3, grid2)
        diams = [f.diameter for f in faces]
        assert len(diams) == 2
        assert all(a > b for a, b in zip(diams, diams[1:]))
        assert hausdorff(out, recenter(square, grid2), grid2) <= 0.3
        assert len(isotropy_estimate(out, tol=1e-6, grid=grid2)) == 1

    def test_cube(self, cube, grid3_small):
        out, faces = desymmetrize(cube, 0.3, grid3_small)
        diams = [f.diameter for f in faces]
        assert len(diams) == 3
        assert all(a > b for a, b in zip(diams, diams[1:]))
        assert hausdorff(out, recenter(cube, grid3_small), grid3_small) <= 0.3
        assert len(isotropy_estimate(out, tol=1e-6, grid=grid3_small)) == 1

    def test_ball_polytope(self, unit_ball_3d, grid3_small):
        approx = polytope_approximation(unit_ball_3d, 512)
        out, faces = desymmetrize(approx, 0.2, grid3_small)
        assert len(isotropy_estimate(out, tol=1e-6, grid=grid3_small)) == 1

    def test_asymmetric_body_still_valid(self, grid2):
        body = Polytope(np.random.default_rng(9).uniform(-1, 1, (10, 2)))
        out, faces = desymmetrize(body, 0.3, grid2)
        diams = [f.diameter for f in faces]
        assert all(a > b for a, b in zip(diams, diams[1:]))
        assert hausdorff(out, recenter(body, grid2), grid2) <= 0.3

    def test_infeasible_budget(self, square, grid2):
        with pytest.raises(InfeasibleBudgetError):
            desymmetrize(square, 1e-12, grid2)

    def test_face_record_diameter_consistent(self, cube, grid3_small):
        _, faces = desymmetrize(cube, 0.3, grid3_small)
        for f in faces:
            pts = f.vertex_set
            diffs = pts[:, None, :] - pts[None, :, :]
            diam = float(np.sqrt((diffs**2).sum(axis=2)).max())
            assert abs(diam - f.diameter) < 1e-12


class TestIsotropy:
    def test_square_dihedral_group(self, square, grid2):
        syms = isotropy_estimate(square, tol=1e-9, grid=grid2)
        assert len(syms) == 8

    def test_ball_all_candidates(self, unit_ball_2d, grid2):
        from convexhyper.rotations import default_candidates

        syms = isotropy_estimate(unit_ball_2d, tol=1e-9, grid=grid2)
        assert len(syms) == len(default_candidates(2))

    def test_cube_group_order_48(self, cube, grid3_small):
        syms = isotropy_estimate(cube, tol=1e-9, grid=grid3_small)
        assert len(syms) == 48

    def test_symmetric_random_body_sees_minus_identity(self, grid2):
        body = random_symmetric_polytope(23, 2, 8)
        syms = isotropy_estimate(body, tol=1e-8, grid=grid2)
        mats = np.asarray([s.matrix for s in syms])
        assert any(np.allclose(m, -np.eye(2), atol=1e-12) for m in mats)

    def test_ball_approximation_group_order_128(self, unit_ball_3d):
        # behaviour change: the candidate scan found 16 of the 128 (turns
        # by multiples of 2 pi / 32 about the grid axis, the 32 mirrors
        # through it, each with or without the equatorial mirror)
        approx = polytope_approximation(unit_ball_3d, 512)
        assert len(isotropy_estimate(approx, tol=1e-6)) == 128

    def test_regular_heptagon_group_order_14(self):
        # behaviour change: the 720-angle scan found 2, since 7 does not divide 720
        angles = 2.0 * math.pi * np.arange(7) / 7
        heptagon = Polytope(np.column_stack([np.cos(angles), np.sin(angles)]))
        assert len(isotropy_estimate(heptagon, tol=1e-9)) == 14

    def test_shallow_cut_cube_keeps_vertex_permuting_maps(self, cube):
        # a polytope's members are the maps moving each hull vertex within
        # tol of a distinct one, a subset of {g : hausdorff(gD, D) < tol}:
        # with one corner cut 1e-9 deep all 48 cube maps move the body by
        # about 1e-9 (the scan keeps them all), but only the 6 that fix the
        # cut corner permute its 10 vertices
        from convexhyper.bodies import rigid_motion
        from convexhyper.metrics import exact_hausdorff
        from convexhyper.rotations import octahedral_rotations

        s = math.sqrt(3.0) * 1e-9
        corner = np.ones(3)
        verts = [v for v in cube.vertices if not np.array_equal(v, corner)]
        body = Polytope(np.vstack([verts, corner - s * np.eye(3)]))
        rots = octahedral_rotations()
        for g in np.concatenate([rots, -rots]):
            assert exact_hausdorff(rigid_motion(body, g), body) < 1e-6
        syms = isotropy_estimate(body, tol=1e-6)
        assert len(syms) == 6
        for g in syms:
            np.testing.assert_allclose(g.matrix @ corner, corner, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["square", "cube", "symmetric-2d", "symmetric-3d"])
    def test_scan_members_are_exact_members(self, name, square, cube, grid2, grid3_small):
        from convexhyper.truncation import _isotropy_scan

        body, tol = {
            "square": (square, 1e-9),
            "cube": (cube, 1e-9),
            "symmetric-2d": (random_symmetric_polytope(23, 2, 8), 1e-8),
            "symmetric-3d": (random_symmetric_polytope(24, 3, 10), 1e-8),
        }[name]
        grid = grid2 if body.dim == 2 else grid3_small
        exact = np.asarray([s.matrix for s in isotropy_estimate(body, tol=tol, grid=grid)])
        scan = _isotropy_scan(body, tol, grid)
        assert scan
        for s in scan:
            assert np.abs(exact - s.matrix).max(axis=(1, 2)).min() < 1e-9

    def test_polytopes_never_scan(self, square, cube, monkeypatch):
        from convexhyper import truncation

        def no_scan(*args, **kwargs):
            raise AssertionError("the polytope path must not scan candidates")

        monkeypatch.setattr(truncation, "default_candidates", no_scan)
        assert len(isotropy_estimate(square, tol=1e-9)) == 8
        assert len(isotropy_estimate(cube, tol=1e-9)) == 48


def _plan_bodies(cube):
    bodies = [cube, polytope_approximation(Ball(np.zeros(3), 1.0), 512)]
    for seed in range(10):
        bodies += [random_symmetric_polytope(400 + seed, 2, 6 + seed % 5),
                   random_symmetric_polytope(500 + seed, 3, 6 + seed % 7)]
    return bodies


def _twin_vertex_bodies():
    """Points on a circle and a sphere with two hull vertices 1e-8 apart."""
    rng = np.random.default_rng(31)
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, 9))
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    sphere = rng.standard_normal((20, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    twin = sphere[0] + 1e-8 * np.cross(sphere[0], [0.0, 0.0, 1.0])
    return [Polytope(np.vstack([circle, [math.cos(ang[0] + 1e-8), math.sin(ang[0] + 1e-8)]])),
            Polytope(np.vstack([sphere, twin / np.linalg.norm(twin)]))]


def _own_cone_mean(poly, i):
    """The loop's cone direction of hull vertex i itself: its 2-D arc's
    midpoint, or the normalized sum of its 3-D cone's unit normals."""
    hull = poly.hull
    if poly.dim == 2:
        angles = bodies.ring_normal_angles(hull.polygon)
        a, b = angles[i - 1], angles[i]
        mid = 0.5 * (a + (b + 2.0 * math.pi if b < a else b))
        return np.array([math.cos(mid), math.sin(mid)])
    mean = dict(hull.vertex_cones())[hull.extreme[i]].sum(axis=0)
    return mean / np.linalg.norm(mean)


def test_plan_cuts_match_cone_loop(cube):
    # the plan over hull vertex indices equals the former plan over every
    # vertex row with its cone lookup by coordinates
    for body in _plan_bodies(cube) + _twin_vertex_bodies():
        start = recenter(body)
        margin = truncation._SEPARATION * truncation._pairwise_diameter(start.vertices)
        assert [(u.tobytes(), v.tobytes()) for u, v in truncation._plan_cuts(start, margin)] == \
            [(u.tobytes(), v.tobytes()) for u, v in former_plan_cuts(start, margin)]
    # each hull vertex gets the loop's bits; a twin, which the loop's
    # np.allclose matches to the vertex 1e-8 before it, gets its own cone
    twins = 0
    for poly in [b for b in _plan_bodies(cube) if len(b.vertices) <= 64] + _twin_vertex_bodies():
        hull = poly.hull
        points = hull.points[hull.extreme]
        for i, row in enumerate(hull.index[hull.extreme]):
            v = poly.vertices[row]
            got = truncation._vertex_cone_direction(poly, i)
            first = next(j for j, p in enumerate(points) if np.allclose(p, v, atol=1e-12))
            if first == i:
                assert got.tobytes() == loop_vertex_cone_direction(poly, v).tobytes()
            else:
                twins += 1
                assert got.tobytes() == _own_cone_mean(poly, i).tobytes()
                assert got.tobytes() != loop_vertex_cone_direction(poly, v).tobytes()
    assert twins == 2


def _desymmetrize_cases(square, cube):
    """(body, budget, grid): the square, the cube, ball approximations, seeded
    random and symmetric polytopes, a thinned one, twin vertices and rotated
    hexagons, from budget 0.3 down to 1e-7, with retried trials (the two
    symmetric 3-D bodies at 0.3) and failures (budget 1e-7, the hexagons)."""
    g2, g3 = make_grid_2d(256), make_grid_3d(16, 32)
    hexagons = []
    for rot in (0.0, 1e-7):
        a = math.pi / 3.0 * np.arange(6) + rot
        hexagons.append(Polytope(np.column_stack([np.cos(a), np.sin(a)])))
    bodies_ = [square, cube, polytope_approximation(Ball(np.zeros(2), 1.0), 512),
               polytope_approximation(Ball(np.zeros(3), 1.0), 128), Ball(np.zeros(2), 1.0),
               Polytope(random_polytope(504, 3, 12).vertices * [1.0, 1.0, 0.05]),
               random_symmetric_polytope(630, 3, 5), random_symmetric_polytope(633, 3, 8)]
    bodies_ += _twin_vertex_bodies() + hexagons
    for seed in range(3):
        bodies_ += [random_polytope(700 + seed, 2, 6 + seed), random_polytope(710 + seed, 3, 7 + seed),
                    random_symmetric_polytope(720 + seed, 2, 5 + seed)]
    for body in bodies_:
        grid = g2 if bodies.body_dim(body) == 2 else g3
        for budget in (0.3, 1e-3, 1e-5, 1e-7):
            yield body, budget, grid


def _desymmetrize_outcome(fn, body, budget, grid):
    try:
        out, faces = fn(body, budget, grid)
    except InfeasibleBudgetError as exc:
        return "infeasible", str(exc), exc.min_displacement
    return out.vertices.tobytes(), [(f.normal.tobytes(), f.diameter, f.vertex_set.tobytes()) for f in faces]


def test_desymmetrize_matches_former_loop(square, cube):
    failures = set()
    for body, budget, grid in _desymmetrize_cases(square, cube):
        got = _desymmetrize_outcome(desymmetrize, body, budget, grid)
        assert got == _desymmetrize_outcome(former_desymmetrize, body, budget, grid)
        if got[0] == "infeasible":
            failures.add((got[1].split(" within")[0], got[2] > 0.0))
    # the approximation alone over budget, and cut sequences failing at
    # their first cut and at a later one
    assert failures == {("polytope approximation alone exceeds the budget", True),
                        ("no feasible cut sequence", False), ("no feasible cut sequence", True)}


@pytest.mark.parametrize("body", [random_polytope(27, 4, 10), Ball(np.zeros(4), 1.0), Ball(np.zeros(1), 1.0)],
                         ids=["polytope-4d", "ball-4d", "ball-1d"])
def test_desymmetrize_refuses_other_dimensions(body, monkeypatch):
    # the former 4-D path overran its budget (0.3041 at 0.3 on a dense grid)
    def no_approximation(*args, **kwargs):
        raise AssertionError("refused bodies must not be approximated")

    monkeypatch.setattr(truncation, "polytope_approximation", no_approximation)
    monkeypatch.setattr(truncation, "recenter", no_approximation)
    with pytest.raises(RepresentationError, match="n = 2, 3"):
        desymmetrize(body, 0.3)


def test_lower_dimensional_rejected(grid2):
    seg = Polytope([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RepresentationError):
        truncate(seg, TruncationSpec([1.0, 0.0], 0.1), grid2)


def test_curvature_rejects_segment(grid2):
    from convexhyper import InvalidArgumentError, curvature_positive

    seg = Polytope([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        curvature_positive(seg, grid2)


def test_polytope_approximation_needs_a_direction():
    with pytest.raises(InvalidArgumentError, match="n_dirs"):
        polytope_approximation(Ball(np.zeros(3), 1.0), -1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_dirs", [2.5, 16.0, True, False, "64", None, 0, -1])
def test_polytope_approximation_refuses_non_integer_counts(dim, n_dirs):
    with pytest.raises(InvalidArgumentError, match="n_dirs"):
        polytope_approximation(Ball(np.zeros(dim), 1.0), n_dirs)


@pytest.mark.parametrize("dim", [2, 3])
def test_polytope_approximation_takes_numpy_integers(dim):
    ball = Ball(np.zeros(dim), 1.0)
    want = polytope_approximation(ball, 200)
    assert np.array_equal(polytope_approximation(ball, np.int64(200)).vertices, want.vertices)


def test_pairwise_diameter_bits_match_one_shot(monkeypatch):
    rng = np.random.default_rng(17)
    sets = [rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4) for n in (0, 1, 2, 3, 7, 40, 301)
            for d in (2, 3)]
    sets.append(polytope_approximation(Ball(np.zeros(3), 1.0), 512).vertices)
    for points in sets:
        want = np.float64(one_shot_diameter(points)).tobytes()
        got = [truncation._pairwise_diameter(points)]
        # 3 points per block, with a one-point remainder at 7 and 301 points
        monkeypatch.setattr(bodies, "_BLOCK_ENTRIES", 3 * points.size)
        got.append(truncation._pairwise_diameter(points))
        monkeypatch.undo()
        assert all(type(g) is float and np.float64(g).tobytes() == want for g in got)


def test_pairwise_diameter_memory_bound():
    # 2,000 points: 224 MB as one all-pairs array, under 8 MB in blocks
    points = np.random.default_rng(4).standard_normal((2000, 3))
    tracemalloc.start()
    try:
        truncation._pairwise_diameter(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
