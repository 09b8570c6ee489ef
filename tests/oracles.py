"""Independent oracles kept free of the code paths they check.

The point-cloud Hausdorff oracle works on dense boundary samples (always
including the exact vertices, where the two-sided sup is attained for
polytopes), entirely bypassing support functions.  The brute-force
Steiner oracle integrates u h(u) with a plain Riemann sum over a million
angles, and the brute-force moment integrates u u^T h(u) the same way
(on a latitude-longitude grid in 3-D).  The brute-force mollifier
evaluates the support function on every shifted copy u + z_k of the
directions, one kernel node at a time.
The ladder oracle evaluates an expression tree by recursion over its
Sum/Scaled/Rotated nodes and calls the library only on leaves.
The enumerated Hausdorff oracle takes the largest support gap of two
polytopes, or a polytope and a ball, over every critical direction of
their normal fans (crossings included), with hulls from scipy.
The arc-loop oracle is the scalar form of the 2-D polygon arc path, one
normal-fan arc at a time; the vectorized path must return its bits.
The cone-loop oracle builds a 3-D hull's vertex normal cones one vertex
and one facet at a time, and the cone-lookup oracle finds a vertex's cone
by walking the cones (2-D: the ring) in order; the array forms in
``bodies`` and ``truncation`` must return their bits.
The qhull-vertices oracle is the former ``convex_hull_vertices`` (a second
qhull hull, then an SVD of its own for degenerate sets) and the arc-loop
Steiner oracle the former 2-D Steiner point (segment ends by projection,
normal-cone arcs one ring vertex at a time); on full-rank sets, points and
segments the hull record must return their bits.
The former-desymmetrize oracle is the former cut loop: a plan over every
vertex row with cone directions found by coordinates (the cone-lookup
oracle), and a cut sequence that hands its whole state to a separate
feasibility test per depth; ``desymmetrize`` must return its bits, its
errors and their ``min_displacement``.
The two-pass clip oracle is the former 2-D cut: the kept vertices and the
ring's edge crossings through ``convex_hull_vertices``, then the hull of
the result; the ring clip must return its record, less the points within
the rank noise of their neighbours' chord.
The kink-polish oracle is the former polish of a non-exact Hausdorff
pair (golden section in 2-D, Nelder-Mead in 3-D, with extra starts at the
bodies' kink directions); ``hausdorff`` must never fall below it by more
than rounding.
The sequential congruence oracle runs the 3-D search's starts one after
another, each matrix of a Nelder-Mead run or of the minimax polish on a
stack of one, and stops once a value drops below the early-exit bound; the
lockstep search must return its bits; the solo-start oracle runs every
start alone to its end, so a later start the lockstep does not cancel must
end as it does there.  The cancel-lockstep oracle is the former 3-D
driver, which cancels the later starts once a start is given a value
below that bound; the shared driver must give its outcomes and its
evaluations for runs that return the least value they were given.  The
sequential 2-D congruence oracle is the former 2-D search: golden section
(``golden_section_min``) from one start after another, each probe of a
polygon pair the arc loop of the moved polygon and of any other pair the
objective on a stack of one; the lockstep search must return its bits.
The two-run congruence oracle is the
former 3-D search (a loose and a tight Nelder-Mead run per start); the
polished search must never end above it by more than 1e-6.
The one-shot diameter oracle is the former ``_pairwise_diameter``: every
pair of points differenced in one array; the blocked form must return its
bits.
The schema ladders are the former JSON serializer, one ``isinstance`` or
``==`` test per node type (``ladder_body_to_obj``, ``ladder_body_from_obj``,
``ladder_body_equal``); the table-driven serializer must write their bytes,
raise their errors and give their equality verdicts.
"""

import json
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from convexhyper.bodies import (
    Ball,
    Ellipsoid,
    Polytope,
    Rotated,
    Rotation,
    Sampled,
    Scaled,
    Sum,
    ring_normal_angles,
    as_polytope,
    body_dim,
    convex_hull_vertices,
    support_values,
    translate,
)
from convexhyper.curvature import support_point
from convexhyper.errors import (ConvexHyperError, EmptyResultError, InfeasibleBudgetError,
                                InvalidArgumentError, ParseError, ValidationError)
from convexhyper.metrics import hausdorff, recenter, steiner, support_moment_matrix
from convexhyper.quadrature import SphericalGrid, ball_volume, default_grid, make_grid_2d, make_grid_3d
from convexhyper.serialization import _grid_to_obj, _is_number, _matrix, _require
from convexhyper.truncation import (_FACE_TOL, _SEPARATION, _SHRINK, FaceRecord, _clip, _pairwise_diameter,
                                    _uniquely_exposes, polytope_approximation)


def polygon_boundary_cloud(vertices: np.ndarray, target: int = 2000) -> np.ndarray:
    """Dense boundary sample of a polygon, vertices included."""
    hull = ConvexHull(vertices)
    ring = vertices[hull.vertices]
    edges = np.roll(ring, -1, axis=0) - ring
    lengths = np.linalg.norm(edges, axis=1)
    per = lengths.sum()
    pts = [ring]
    for v, e, ln in zip(ring, edges, lengths):
        k = max(1, int(round(target * ln / per)))
        ts = (np.arange(k) + 0.5) / k
        pts.append(v + ts[:, None] * e)
    return np.vstack(pts)


def polytope_boundary_cloud_3d(vertices: np.ndarray, target: int = 6000) -> np.ndarray:
    """Dense boundary sample of a 3-polytope, vertices included."""
    hull = ConvexHull(vertices)
    pts = [vertices[hull.vertices]]
    tri = vertices[hull.simplices]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = areas.sum()
    for i in range(tri.shape[0]):
        k = max(1, int(round(np.sqrt(target * areas[i] / total))))
        for p in range(k + 1):
            for q in range(k + 1 - p):
                u = p / k
                v = q / k
                pts.append((a[i] + u * (b[i] - a[i]) + v * (c[i] - a[i]))[None, :])
    return np.vstack(pts)


def cloud_hausdorff(a_pts: np.ndarray, b_pts: np.ndarray) -> float:
    """Two-sided Hausdorff distance between point clouds."""
    ta = cKDTree(a_pts)
    tb = cKDTree(b_pts)
    d_ab = tb.query(a_pts, k=1)[0].max()
    d_ba = ta.query(b_pts, k=1)[0].max()
    return float(max(d_ab, d_ba))


def brute_steiner_2d(vertices: np.ndarray, m: int = 1_000_000) -> np.ndarray:
    """Riemann-sum Steiner point of a polygon over m uniform angles."""
    ang = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    h = (u @ vertices.T).max(axis=1)
    return (u * (h * (2.0 * np.pi / m))[:, None]).sum(axis=0) / np.pi


def brute_moment(vertices: np.ndarray, lat: int = 400, lon: int = 800) -> np.ndarray:
    """Midpoint-rule second moment sum w u u^T h(u) of a polytope: over
    2*lon uniform angles in 2-D, on a lat x lon latitude-longitude grid in 3-D."""
    if vertices.shape[1] == 2:
        ang = np.pi * (np.arange(2 * lon) + 0.5) / lon
        u = np.column_stack([np.cos(ang), np.sin(ang)])
        w = np.full(ang.shape, np.pi / lon)
    else:
        theta = np.pi * (np.arange(lat) + 0.5) / lat
        phi = 2.0 * np.pi * (np.arange(lon) + 0.5) / lon
        t, p = (x.ravel() for x in np.meshgrid(theta, phi, indexing="ij"))
        u = np.column_stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
        w = np.sin(t) * (np.pi / lat) * (2.0 * np.pi / lon)
    h = (u @ vertices.T).max(axis=1)
    return (u * (w * h)[:, None]).T @ u


def brute_mollified(body, dirs: np.ndarray, offsets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k h(u + z_k) for each row u of dirs, one kernel node per pass."""
    out = np.zeros(dirs.shape[0])
    for z, w in zip(offsets, weights):
        out += w * support_values(body, dirs + z)
    return out


_LADDER_LEAF = {
    "support": lambda leaf, x, grid: support_values(leaf, x),
    "steiner": lambda leaf, x, grid: steiner(leaf, grid),
    "moment": lambda leaf, x, grid: support_moment_matrix(leaf, grid),
    "point": lambda leaf, x, grid: support_point(leaf, x),
}


def ladder(body, kind: str, x=None, grid=None) -> np.ndarray:
    """Recursive reference for "support" (x = directions), "steiner",
    "moment" and "point" (x = a direction): a Sum adds its sides,
    Scaled(a) multiplies (zeros for a = 0) and Rotated(g) conjugates."""
    n = body.dim
    if isinstance(body, Sum):
        return ladder(body.left, kind, x, grid) + ladder(body.right, kind, x, grid)
    if isinstance(body, Scaled):
        if body.factor == 0.0:
            if kind == "support":
                return np.zeros(len(x))
            return np.zeros((n, n) if kind == "moment" else n)
        return body.factor * ladder(body.inner, kind, x, grid)
    if isinstance(body, Rotated):
        g = body.rotation.matrix
        if kind == "support":
            return ladder(body.inner, kind, x @ g, grid)
        if kind == "steiner":
            return g @ ladder(body.inner, kind, x, grid)
        if kind == "moment":
            return g @ ladder(body.inner, kind, x, grid) @ g.T
        return g @ ladder(body.inner, kind, g.T @ x, grid)
    return _LADDER_LEAF[kind](body, x, grid)


def _unit_both(vecs: np.ndarray) -> list:
    """The non-zero rows of vecs, normalized, and their negatives."""
    norms = np.linalg.norm(vecs, axis=1)
    good = vecs[norms > 1e-12] / norms[norms > 1e-12, None]
    return [good, -good]


def _ridge_criticals(pts, edges, targets):
    """Critical directions of <p - t, u> on edge-normal great circles."""
    p = pts[edges[:, 0]]
    e_hat = p - pts[edges[:, 1]]
    e_hat = e_hat / np.linalg.norm(e_hat, axis=1, keepdims=True)
    w = p[:, None, :] - targets[None, :, :]
    proj = w - (w * e_hat[:, None, :]).sum(axis=2, keepdims=True) * e_hat[:, None, :]
    return proj.reshape(-1, 3)


def _fan_pieces(body):
    """(points, radius, facet normals, edges) of a Polytope, a Ball or a
    parallel body Sum(Polytope, Ball(c, r)), whose points are P + c."""
    if isinstance(body, Ball):
        return body.center[None, :], body.radius, np.empty((0, body.dim)), np.empty((0, 2), int)
    radius = 0.0
    if isinstance(body, Sum):
        body, radius = Polytope(body.left.vertices + body.right.center), body.right.radius
    hull = ConvexHull(body.vertices)
    edges = {tuple(sorted((s[i], s[i - 1]))) for s in hull.simplices for i in range(len(s))}
    return body.vertices, radius, hull.equations[:, :-1], np.array(sorted(edges))


def enumerated_hausdorff(a, b) -> float:
    """Exact Hausdorff distance of two 2-D or 3-D polytopes, balls or
    parallel bodies Sum(Polytope, Ball), as the largest |h_A - h_B| over a superset of critical
    directions: the coordinate axes, facet (edge) normals of both, unit
    differences p - q of their points, and in 3-D the crossings e x f of
    their edges and the ridge criticals of each body's edges against the
    other's points, each with its negative.  Supports are plain maxima."""
    pa, ra, na, ea = _fan_pieces(a)
    pb, rb, nb, eb = _fan_pieces(b)
    n = pa.shape[1]
    cands = [np.eye(n), -np.eye(n), na, -na, nb, -nb]
    cands += _unit_both((pa[:, None, :] - pb[None, :, :]).reshape(-1, n))
    if n == 3:
        da, db = pa[ea[:, 0]] - pa[ea[:, 1]], pb[eb[:, 0]] - pb[eb[:, 1]]
        cands += _unit_both(np.cross(da[:, None, :], db[None, :, :]).reshape(-1, 3))
        cands += _unit_both(_ridge_criticals(pa, ea, pb))
        cands += _unit_both(_ridge_criticals(pb, eb, pa))
    dirs = np.vstack(cands).T
    gap = (pa @ dirs).max(axis=0) + ra - (pb @ dirs).max(axis=0) - rb
    return float(np.abs(gap).max())


def _arc_sup(w: np.ndarray, a: float, b: float) -> float:
    """max over t in [a, b] of |<w, u(t)>|.

    <w, u(t)> = |w| cos(t - phi) is extremal at the arc ends or at
    phi + k pi; arcs lie in [0, 4 pi), so k runs from -1 to 3.
    """
    cands = [a, b]
    phi = math.atan2(w[1], w[0])
    for cand in (phi, phi + math.pi, phi - math.pi, phi + 2.0 * math.pi, phi + 3.0 * math.pi):
        if a <= cand <= b:
            cands.append(cand)
    return max(abs(float(w @ np.array([math.cos(t), math.sin(t)]))) for t in cands)


def arc_loop_hausdorff(pa, pb) -> float:
    """Exact sup of |h_A - h_B| for two polygons, one arc of their common
    normal fan at a time (the library's hull rings and normal angles)."""
    breaks = set()
    for poly in (pa, pb):
        if poly.hull.ring.shape[0] >= 2:  # a point has no kinks
            breaks.update(ring_normal_angles(poly.hull.polygon).tolist())
    if not breaks:
        return float(np.linalg.norm(pa.hull.points[0] - pb.hull.points[0]))
    angles = np.sort(np.asarray(sorted(breaks)))
    best = 0.0
    for i in range(angles.shape[0]):
        a = angles[i]
        b = angles[(i + 1) % angles.shape[0]]
        if b <= a:
            b += 2.0 * math.pi
        mid = 0.5 * (a + b)
        u_mid = np.array([math.cos(mid), math.sin(mid)])
        pa_v = pa.vertices[np.argmax(pa.vertices @ u_mid)]
        pb_v = pb.vertices[np.argmax(pb.vertices @ u_mid)]
        best = max(best, _arc_sup(pa_v - pb_v, a, b))
    return best


def loop_vertex_cones(eq: np.ndarray, s: np.ndarray, vertices: np.ndarray):
    """(cone_owner, cones) from facet normals ``eq`` and triangles ``s``,
    one vertex of ``vertices`` and one facet at a time: a facet's normal
    joins its vertex's cone unless it dots a kept one above 1 - 1e-12."""
    owner, cones = [], []
    for v in vertices:
        kept: list = []
        for n in eq[(s == v).any(axis=1)]:
            if not any(float(n @ k) > 1.0 - 1e-12 for k in kept):
                kept.append(n / np.linalg.norm(n))
        owner += [v] * len(kept)
        cones += kept
    return np.asarray(owner, dtype=int), np.asarray(cones)


def loop_vertex_cone_direction(poly, vertex: np.ndarray):
    """The mean unit normal of the first hull vertex np.allclose to
    ``vertex``, walking the 2-D ring or the 3-D cones in order."""
    hull = poly.hull
    if poly.dim == 2:
        normals_ang = ring_normal_angles(hull.polygon)
        for i, v in enumerate(hull.polygon):
            if np.allclose(v, vertex, atol=1e-12):
                a = normals_ang[i - 1]
                b = normals_ang[i]
                if b < a:
                    b += 2.0 * math.pi
                mid = 0.5 * (a + b)
                return np.array([math.cos(mid), math.sin(mid)])
        return None
    if hull.normals is None:
        return None
    for idx, normals in hull.vertex_cones():
        if np.allclose(hull.points[idx], vertex, atol=1e-12):
            mean = normals.sum(axis=0)
            nrm = np.linalg.norm(mean)
            return mean / nrm if nrm > 1e-12 else None
    return None


def qhull_hull_vertices(points: np.ndarray) -> np.ndarray:
    """Extreme points of a point set by qhull on the rounded distinct
    points; sets of at most dim + 1 points come back whole, and sets qhull
    rejects fall back to an SVD of their own (rank above 1e-12 max(s, 1))."""
    pts = np.unique(np.round(np.asarray(points, dtype=float), 12), axis=0)
    if pts.shape[0] <= pts.shape[1] + 1:
        return pts
    try:
        return pts[np.sort(ConvexHull(pts).vertices)]
    except QhullError:
        pass
    center = pts.mean(axis=0)
    centered = pts - center
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(s.max(), 1.0)))
    if rank == 0:
        return center[None, :]
    coords = centered @ vt[:rank].T
    if rank == 1:
        return pts[sorted({coords[:, 0].argmin(), coords[:, 0].argmax()})]
    try:
        return pts[np.sort(ConvexHull(coords).vertices)]
    except QhullError:
        return pts


def two_pass_clip_candidates(poly, u: np.ndarray, cut: float) -> np.ndarray:
    """The points the former 2-D cut handed to ``convex_hull_vertices``:
    the vertices at most 1e-9 * scale above the line, then the crossings
    of the ring's edges in ring order."""
    verts = poly.vertices
    d = verts @ u - cut
    keep = verts[d <= 1e-9 * (1.0 + float(np.abs(verts).max()))]
    ring = poly.hull.index[poly.hull.ring]
    edges = np.column_stack([ring, np.roll(ring, -1)])
    di, dj = d[edges[:, 0]], d[edges[:, 1]]
    cross = ((di > 0) != (dj > 0)) & (np.abs(di - dj) > 1e-15)
    i, j = edges[cross, 0], edges[cross, 1]
    t = di[cross] / (di[cross] - dj[cross])
    inside = (t >= 0.0) & (t <= 1.0)
    i, j, t = i[inside], j[inside], t[inside]
    return np.vstack([keep, verts[i] + t[:, None] * (verts[j] - verts[i])])


def two_pass_clip(poly, u: np.ndarray, cut: float) -> Polytope:
    """The former 2-D cut: qhull on the candidates, then on the result."""
    return Polytope(convex_hull_vertices(two_pass_clip_candidates(poly, u, cut)))


def one_shot_diameter(points: np.ndarray) -> float:
    if points.shape[0] < 2:
        return 0.0
    diffs = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())


def former_plan_cuts(poly, margin: float) -> list:
    """The former cut plan: every vertex row in stable order of falling
    support along each axis, rows np.allclose to a planned vertex skipped,
    cone directions by ``loop_vertex_cone_direction`` (coordinates)."""
    verts = poly.vertices
    scale = 1.0 + float(np.abs(verts).max())
    gap = 8.0 * margin
    plan: list = []

    def separated(u, v) -> bool:
        h_u = float((verts @ u).max())
        for u_j, v_j in plan:
            if float(v_j @ u) > h_u - gap:
                return False
            if float(v @ u_j) > float((verts @ u_j).max()) - gap:
                return False
        return True

    for e in np.eye(poly.dim):
        choice = None
        for idx in np.argsort(-(verts @ e), kind="stable"):
            v = verts[idx]
            if any(np.allclose(v, v_j, atol=1e-12) for _, v_j in plan):
                continue
            options = []
            if _uniquely_exposes(verts, e, idx, scale):
                options.append(e)
            cone = loop_vertex_cone_direction(poly, v)
            if cone is not None and _uniquely_exposes(verts, cone, idx, scale):
                options.append(cone)
            for u in options:
                if separated(u, v):
                    choice = (u, v)
                    break
            if choice is not None:
                break
        if choice is None:
            raise InfeasibleBudgetError(
                "could not find cut directions exposing distinct separated vertices"
            )
        plan.append(choice)
    return plan


def former_desymmetrize(body, budget: float, grid=None):
    """The former ``desymmetrize`` for n = 2, 3: ``former_plan_cuts``, then
    up to 8 trials of ``_former_cut_sequence`` at depth scale 0.5**trial."""
    if not (math.isfinite(budget) and budget > 0):
        raise InvalidArgumentError("budget must be finite and positive")
    n = body_dim(body)
    grid = grid or default_grid(n)
    target = recenter(body, grid)
    poly = as_polytope(body)
    if poly is None:
        poly = polytope_approximation(body)
    start = target if poly is body else recenter(poly, grid)
    if not start.is_full_dimensional:
        raise InvalidArgumentError("desymmetrize needs a full-dimensional body")
    margin = _SEPARATION * _pairwise_diameter(start.vertices)
    plan = former_plan_cuts(start, margin)
    base_disp = 0.0 if start is target else hausdorff(start, target, grid)
    if base_disp > budget:
        raise InfeasibleBudgetError(
            "polytope approximation alone exceeds the budget", min_displacement=base_disp
        )
    last_error = None
    for trial in range(8):
        try:
            return _former_cut_sequence(start, base_disp, plan, 0.5**trial, margin, target, budget, grid)
        except InfeasibleBudgetError as exc:
            last_error = exc
    raise InfeasibleBudgetError(
        f"no feasible cut sequence within budget {budget}",
        min_displacement=getattr(last_error, "min_displacement", base_disp),
    )


def _former_cut_sequence(start, best_disp, plan, depth_scale, margin, target, budget, grid):
    """Cut along each planned direction, halving a cut's depth up to 60
    times until ``_former_feasible_cut`` accepts it."""
    current = start
    cut_verts = [v.copy() for _, v in plan]
    faces: list = []
    records: list = []
    prev_diam = math.inf
    for k, (u, _) in enumerate(plan):
        h_u = float(support_values(current, u[None, :])[0])
        w = h_u + float(support_values(current, -u[None, :])[0])
        eps = min(w / 4.0, budget) * depth_scale
        accepted = None
        for _ in range(60):
            try:
                cand = _former_feasible_cut(
                    current, u, h_u, w, eps, cut_verts[k + 1:], faces,
                    prev_diam * _SHRINK, margin, target, budget, grid,
                )
            except EmptyResultError:
                cand = None
            if cand is not None:
                accepted = cand
                break
            eps *= 0.5
        if accepted is None:
            raise InfeasibleBudgetError(
                f"no feasible cut depth along axis {k}", min_displacement=best_disp
            )
        current, shift, face_verts, face_diam, best_disp = accepted
        faces = [f - shift for f in faces]
        faces.append(face_verts)
        cut_verts = [v - shift for v in cut_verts]
        records.append(FaceRecord(normal=u.copy(), diameter=face_diam, vertex_set=face_verts))
        prev_diam = face_diam
    return current, records


def _former_feasible_cut(current, u, h_u, w, eps, later_vertices, faces, max_diam,
                         margin, target, budget, grid):
    """The cut eps below h_u = h(current, u), or None; w is the width along u."""
    if eps <= 0 or eps >= w / 2.0:
        return None
    cut = h_u - eps
    for f in faces:
        if np.any(f @ u >= cut - margin):
            return None
    for p in later_vertices:
        if float(p @ u) >= cut - margin:
            return None
    clipped = _clip(current, u, cut)
    face = clipped.vertices[clipped.vertices @ u >= cut - _FACE_TOL * (1 + abs(cut))]
    face_diam = _pairwise_diameter(face)
    if face_diam <= 0 or face_diam > max_diam or not clipped.is_full_dimensional:
        return None
    shift = steiner(clipped, grid)
    centered = translate(clipped, -shift)
    disp = hausdorff(centered, target, grid)
    if disp > budget:
        return None
    return centered, shift, face - shift, face_diam, disp


def _arc_moment_1(a: float, b: float) -> np.ndarray:
    """integral over [a,b] of u(t) u(t)^T dt, closed form (2x2)."""
    cc = (0.5 * b + 0.25 * math.sin(2.0 * b)) - (0.5 * a + 0.25 * math.sin(2.0 * a))
    cs = (-0.25 * math.cos(2.0 * b)) - (-0.25 * math.cos(2.0 * a))
    ss = (0.5 * b - 0.25 * math.sin(2.0 * b)) - (0.5 * a - 0.25 * math.sin(2.0 * a))
    return np.array([[cc, cs], [cs, ss]])


def arc_loop_steiner_2d(poly) -> np.ndarray:
    """2-D Steiner point: the midpoint of a point or segment (its ends by
    projection onto the longest centred point), else the sum over the ring
    of each vertex's arc moment, one normal-cone arc at a time."""
    hull = poly.hull
    pts = hull.points
    centered = pts - pts.mean(axis=0)
    if hull.rank == 0:
        return pts.mean(axis=0)
    if hull.rank == 1:
        proj = centered @ centered[np.argmax(np.linalg.norm(centered, axis=1))]
        return 0.5 * (pts[np.argmin(proj)] + pts[np.argmax(proj)])
    verts, normals = hull.polygon, ring_normal_angles(hull.polygon)
    s = np.zeros(2)
    for k in range(verts.shape[0]):
        a = normals[k - 1]
        b = normals[k]
        if b < a:
            b += 2.0 * math.pi
        s += _arc_moment_1(a, b) @ verts[k]
    return s / ball_volume(2)


def coarse_congruence_3d(d, k, grid, search):
    """The 3-D search up to its starts, for a pair that has no exact maps:
    (swapped, objective, pieces, coarse matrices, their values, their order,
    the start indices, spacing, reach)."""
    from convexhyper import congruence as c
    from convexhyper.rotations import sphere_candidates

    _, grid, dc, kc = c._recentered(d, k, grid)
    swapped = c._swapped(dc, kc, grid.nodes)
    if swapped:
        dc, kc = kc, dc
    sides = c._rotatable(dc), c._rotatable(kc)
    k_values = support_values(kc, grid.nodes)
    objective = c._objective(*sides, dc, k_values, grid.nodes)
    pieces = c._objective(*sides, dc, k_values, grid.nodes, pieces=True)
    coarse_n = search.coarse or 576
    mats = sphere_candidates(coarse_n, search.include_reflections)
    values = objective(mats)
    order = np.argsort(values, kind="stable")
    spacing = (8.0 * math.pi**2 / coarse_n) ** (1.0 / 3.0)
    starts = c._diverse_starts(mats, order, search.starts, 1.2 * spacing)
    reach = max(np.abs(k_values).max(), np.abs(support_values(dc, grid.nodes)).max())
    return swapped, objective, pieces, mats, values, order, starts, spacing, reach


def _nelder_mead_at(objective, g0, x0, scale, tols, max_iterations):
    """(least value, its w) of ``nelder_mead`` in w of g0 exp(w) from the
    simplex of side ``scale`` at x0, one rotation per objective call."""
    from convexhyper import congruence as c
    from convexhyper.metrics import nelder_mead

    def f_w(w):
        return float(objective((g0 @ c.axis_angle_matrix_safe(w))[None])[0])

    w, v = nelder_mead(f_w, x0 + c._initial_simplex(scale), *tols, max_iterations)
    return float(v), w


def sequential_congruence_3d(d, k, grid, search):
    """(distance, optimizer, coarse values) of the 3-D congruence search with
    its starts refined one at a time: a loose ``nelder_mead`` run, the
    minimax polish ``_polish_3d`` with each matrix it asks for evaluated
    alone, and a tight ``nelder_mead`` run after a stalled polish."""
    from convexhyper import congruence as c

    swapped, objective, pieces, mats, values, order, starts, spacing, reach = \
        coarse_congruence_3d(d, k, grid, search)
    best_val, best_mat = float(values[order[0]]), mats[order[0]]
    for idx in starts:
        if best_val < c._EARLY_EXIT:
            break
        v1, w1 = _nelder_mead_at(objective, mats[idx], np.zeros(3), 0.5 * spacing,
                                 c._BASIN_TOL, search.max_iterations)
        g1 = mats[idx] @ c.axis_angle_matrix_safe(w1)
        polish = c._polish_3d(g1, v1, reach, spacing / 20.0, search.max_iterations)
        try:
            asked = next(polish)
            while True:
                asked = polish.send(np.concatenate([pieces(g[None]) for g in asked]))
        except StopIteration as done:
            v_star, g_star, stalled = done.value
        if stalled:
            v3, w3 = _nelder_mead_at(objective, g_star, np.zeros(3), 1e-4, c._TIGHT_TOL,
                                     search.max_iterations)
            if v3 <= v_star:
                v_star, g_star = v3, g_star @ c.axis_angle_matrix_safe(w3)
        if v_star < best_val:
            best_val, best_mat = v_star, g_star
    return best_val, best_mat.T if swapped else best_mat, values


def solo_starts_3d(d, k, grid, search):
    """[(value, rounds)] of each start of the 3-D search refined alone, every
    start to its end: ``_refine_3d`` with each matrix it asks for evaluated
    on a stack of one, and ``rounds`` the number of batches it asked for."""
    from convexhyper import congruence as c

    _, _, pieces, mats, _, _, starts, spacing, reach = coarse_congruence_3d(d, k, grid, search)
    outcomes = []
    for idx in starts:
        run, rounds = c._refine_3d(mats[idx], spacing, reach, search.max_iterations), 1
        try:
            asked = next(run)
            while True:
                asked = run.send(np.concatenate([pieces(g[None]) for g in asked]))
                rounds += 1
        except StopIteration as done:
            outcomes.append((done.value[0], rounds))
    return outcomes


def two_run_congruence_3d(d, k, grid, search):
    """(distance, optimizer) of the former 3-D congruence search, the
    reference for the minimax polish: from each start a loose Nelder-Mead
    run (xatol 1e-9, fatol 1e-12) and a tight one from its result (1e-11,
    1e-13), one start after another until a value drops below the
    early-exit bound."""
    from convexhyper import congruence as c

    swapped, objective, _, mats, values, order, starts, spacing, _ = \
        coarse_congruence_3d(d, k, grid, search)
    best_val, best_mat = float(values[order[0]]), mats[order[0]]
    for idx in starts:
        if best_val < c._EARLY_EXIT:
            break
        v1, w1 = _nelder_mead_at(objective, mats[idx], np.zeros(3), 0.5 * spacing,
                                 (1e-9, 1e-12), search.max_iterations)
        v2, w2 = _nelder_mead_at(objective, mats[idx], w1, 1e-4, (1e-11, 1e-13),
                                 search.max_iterations)
        if min(v1, v2) < best_val:
            best_val = min(v1, v2)
            best_mat = mats[idx] @ c.axis_angle_matrix_safe(w2 if v2 <= v1 else w1)
    return best_val, best_mat.T if swapped else best_mat


def cancel_lockstep(evaluate, runs) -> list:
    """The former lockstep driver of the 3-D starts: each round stacks the
    matrices of every pending run into one ``evaluate`` call, and once run
    j is given a value below the early-exit bound the later runs still
    pending are cancelled in that round, their outcomes None."""
    from convexhyper import congruence as c

    pending = {j: next(run) for j, run in enumerate(runs)}
    outcomes = [None] * len(runs)
    while pending:
        active = sorted(pending)
        counts = [len(pending[j]) for j in active]
        rows = evaluate(np.concatenate([pending[j] for j in active]))
        values = rows.max(axis=1)
        for j, hi, count in zip(active, np.cumsum(counts), counts):
            if j not in pending:  # cancelled earlier in this round
                continue
            if values[hi - count:hi].min() < c._EARLY_EXIT:
                for later in [i for i in pending if i > j]:
                    del pending[later]
            try:
                pending[j] = runs[j].send(rows[hi - count:hi])
            except StopIteration as stop:
                del pending[j]
                outcomes[j] = stop.value
    return outcomes


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """The former golden-section routine: the midpoint of the final bracket."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def sequential_congruence_2d(d, k, grid, search):
    """(distance, optimizer, improper starts) of the former 2-D congruence
    search of a pair with no exact maps: from each start in turn golden
    section in the angle, reporting the objective at the final bracket's
    midpoint, until the best value drops below the early-exit bound.  A
    probe of a polygon pair is ``arc_loop_hausdorff`` of the moved polygon,
    of any other pair the objective on a stack of one."""
    from convexhyper import congruence as c
    from convexhyper.bodies import rigid_motion
    from convexhyper.rotations import circle_candidates, rotation_matrix_2d

    _, grid, dc, kc = c._recentered(d, k, grid)
    swapped = c._swapped(dc, kc, grid.nodes)
    if swapped:
        dc, kc = kc, dc
    assert c._exact_maps(dc, kc, c._EARLY_EXIT, search.include_reflections) is None
    k_values = support_values(kc, grid.nodes)
    objective = c._objective(c._rotatable(dc), c._rotatable(kc), dc, k_values, grid.nodes)
    pd, pk = as_polytope(dc), as_polytope(kc)
    if pd is not None and pk is not None:
        def scalar(g):
            return arc_loop_hausdorff(rigid_motion(pd, g), pk)
    else:
        def scalar(g):
            return float(objective(g[None])[0])
    coarse_n = search.coarse or 360
    mats = circle_candidates(coarse_n, search.include_reflections)
    values = objective(mats)
    order = np.argsort(values, kind="stable")
    best_val, best_mat = float(values[order[0]]), mats[order[0]]
    span = 2.0 * math.pi / coarse_n
    starts = mats[c._diverse_starts(mats, order, search.starts, 1.5 * span)]
    for g0 in starts if best_val >= c._EARLY_EXIT else []:
        improper = np.linalg.det(g0) < 0
        theta0 = math.atan2(g0[1, 0], g0[0, 0])

        def matrix(t):
            g = rotation_matrix_2d(t)
            return g @ np.diag([1.0, -1.0]) if improper else g

        t_star = golden_section_min(lambda t: scalar(matrix(t)), theta0 - span, theta0 + span,
                                    tol=c._REFINE_TOL * 1e-2)
        v_star = scalar(matrix(t_star))
        if v_star < best_val:
            best_val, best_mat = v_star, matrix(t_star)
        if best_val < c._EARLY_EXIT:
            break
    improper = int((np.linalg.det(starts) < 0).sum())
    return best_val, best_mat.T if swapped else best_mat, improper


def _golden_best(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """The least value golden section probes on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best = min(fc, fd)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            best = min(best, fc)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            best = min(best, fd)
    return best


def _kink_directions(body, dim: int):
    """Unit vertices and facet (3-D) or edge (2-D) normals of a body that
    flattens to a polytope, at most 512 rows; None for any other body."""
    poly = as_polytope(body)
    if poly is None:
        return None
    norms = np.linalg.norm(poly.vertices, axis=1)
    dirs = [poly.vertices[norms > 1e-12] / norms[norms > 1e-12, None]]
    if dim == 3 and poly.hull.normals is not None:
        dirs.append(poly.hull.normals)
    if dim == 2 and poly.vertices.shape[0] >= 3:
        ang = ring_normal_angles(poly.hull.polygon)
        dirs.append(np.column_stack([np.cos(ang), np.sin(ang)]))
    return np.vstack(dirs)[:512]


def kink_polish_hausdorff(a, b, grid) -> float:
    """The former polish of a non-exact 2-D or 3-D pair: the grid maximum,
    the gaps at each body's kink directions, then golden section in the
    angle (n = 2) or Nelder-Mead in a tangent frame (n = 3) from the five
    largest nodes and the two largest kink directions of each body."""
    from convexhyper.metrics import nelder_mead

    dim = grid.dim
    diffs = np.abs(support_values(a, grid.nodes) - support_values(b, grid.nodes))
    best = float(diffs.max())
    starts = grid.nodes[np.argsort(diffs)[::-1][:5]]
    for extra in (_kink_directions(a, dim), _kink_directions(b, dim)):
        if extra is not None and extra.size:
            vals = np.abs(support_values(a, extra) - support_values(b, extra))
            best = max(best, float(vals.max()))
            starts = np.vstack([starts, extra[np.argsort(vals)[::-1][:2]]])

    def gap(u):
        return abs(float(support_values(a, u[None])[0] - support_values(b, u[None])[0]))

    spacing = grid.max_cell_angle
    for u0 in starts:
        if dim == 2:
            t0 = math.atan2(u0[1], u0[0])
            best = max(best, -_golden_best(lambda t: -gap(np.array([math.cos(t), math.sin(t)])),
                                           t0 - spacing, t0 + spacing))
            continue
        e1 = np.cross(u0, np.eye(3)[np.argmin(np.abs(u0))])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u0, e1)

        def neg(st, u0=u0, e1=e1, e2=e2):
            u = u0 + st[0] * e1 + st[1] * e2
            return -gap(u / np.linalg.norm(u))

        simplex = np.array([[0.0, 0.0], [spacing, 0.0], [0.0, spacing]])
        best = max(best, -float(nelder_mead(neg, simplex, 1e-10, 1e-14, 400)[1]))
    return best


def _ladder_number(obj, key, path, kind=float):
    value = _require(obj, key, path)
    try:
        if _is_number(value) and (kind is float or float(value).is_integer()):
            return kind(value)
    except OverflowError:
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ParseError(f"not {what}: {json.dumps(value)}", f"{path}/{key}")


def _ladder_grid_from_obj(obj, path) -> SphericalGrid:
    kind = _require(obj, "type", path)
    try:
        if kind == "uniform-2d":
            return make_grid_2d(_ladder_number(obj, "m", path, int))
        if kind == "gauss-lonlat-3d":
            n_lat = _ladder_number(obj, "n_lat", path, int)
            return make_grid_3d(n_lat, _ladder_number(obj, "n_lon", path, int))
        if kind == "explicit":
            return SphericalGrid(
                _ladder_number(obj, "dim", path, int),
                _matrix(_require(obj, "nodes", path), path + "/nodes"),
                _matrix(_require(obj, "weights", path), path + "/weights"),
                kind="unstructured",
            )
    except ParseError:
        raise
    except ConvexHyperError as exc:
        raise ValidationError(str(exc), path) from None
    raise ParseError(f"unknown grid type {kind!r}", path)


def ladder_body_to_obj(body) -> dict:
    if isinstance(body, Polytope):
        return {"type": "polytope", "vertices": body.vertices.tolist()}
    if isinstance(body, Ball):
        return {"type": "ball", "center": body.center.tolist(), "radius": body.radius}
    if isinstance(body, Ellipsoid):
        return {"type": "ellipsoid", "center": body.center.tolist(),
                "matrix": body.matrix.tolist()}
    if isinstance(body, Sum):
        return {"type": "sum", "left": ladder_body_to_obj(body.left),
                "right": ladder_body_to_obj(body.right)}
    if isinstance(body, Scaled):
        return {"type": "scaled", "factor": body.factor, "inner": ladder_body_to_obj(body.inner)}
    if isinstance(body, Rotated):
        return {"type": "rotated", "matrix": body.rotation.matrix.tolist(),
                "inner": ladder_body_to_obj(body.inner)}
    if isinstance(body, Sampled):
        return {"type": "sampled", "grid": _grid_to_obj(body.grid),
                "values": body.values.tolist()}
    raise ValidationError(f"cannot serialize {type(body).__name__}", "")


def ladder_body_from_obj(obj, path=""):
    kind = _require(obj, "type", path)
    try:
        if kind == "polytope":
            return Polytope(_matrix(_require(obj, "vertices", path), path + "/vertices"))
        if kind == "ball":
            return Ball(_matrix(_require(obj, "center", path), path + "/center"),
                        _ladder_number(obj, "radius", path))
        if kind == "ellipsoid":
            return Ellipsoid(_matrix(_require(obj, "center", path), path + "/center"),
                             _matrix(_require(obj, "matrix", path), path + "/matrix"))
        if kind == "sum":
            return Sum(ladder_body_from_obj(_require(obj, "left", path), path + "/left"),
                       ladder_body_from_obj(_require(obj, "right", path), path + "/right"))
        if kind == "scaled":
            return Scaled(_ladder_number(obj, "factor", path),
                          ladder_body_from_obj(_require(obj, "inner", path), path + "/inner"))
        if kind == "rotated":
            return Rotated(
                Rotation(_matrix(_require(obj, "matrix", path), path + "/matrix")),
                ladder_body_from_obj(_require(obj, "inner", path), path + "/inner"),
            )
        if kind == "sampled":
            grid = _ladder_grid_from_obj(_require(obj, "grid", path), path + "/grid")
            return Sampled(grid, _matrix(_require(obj, "values", path), path + "/values"))
    except ParseError:
        raise
    except ConvexHyperError as exc:
        raise ValidationError(str(exc), path) from None
    raise ParseError(f"unknown body type {kind!r}", path)


def ladder_body_equal(a, b) -> bool:
    """Structural equality, one node type at a time (np.array_equal on arrays)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Polytope):
        return np.array_equal(a.vertices, b.vertices)
    if isinstance(a, Ball):
        return np.array_equal(a.center, b.center) and a.radius == b.radius
    if isinstance(a, Ellipsoid):
        return np.array_equal(a.center, b.center) and np.array_equal(a.matrix, b.matrix)
    if isinstance(a, Sum):
        return ladder_body_equal(a.left, b.left) and ladder_body_equal(a.right, b.right)
    if isinstance(a, Scaled):
        return a.factor == b.factor and ladder_body_equal(a.inner, b.inner)
    if isinstance(a, Rotated):
        return (np.array_equal(a.rotation.matrix, b.rotation.matrix)
                and ladder_body_equal(a.inner, b.inner))
    if isinstance(a, Sampled):
        # structured kinds interpolate by their product layout, every other
        # grid by nearest node
        def family(grid):
            return grid.kind if grid.kind in ("uniform-2d", "gauss-lonlat-3d") else "nearest"

        return (
            family(a.grid) == family(b.grid)
            and np.array_equal(a.grid.nodes, b.grid.nodes)
            and np.array_equal(a.grid.weights, b.grid.weights)
            and np.array_equal(a.values, b.values)
        )
    return False
