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
"""

import math

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from convexhyper.bodies import Ball, Rotated, Scaled, Sum, support_values
from convexhyper.curvature import support_point
from convexhyper.metrics import steiner, support_moment_matrix


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
    """(points, radius, facet normals, edges) of a Polytope or Ball."""
    if isinstance(body, Ball):
        return body.center[None, :], body.radius, np.empty((0, body.dim)), np.empty((0, 2), int)
    hull = ConvexHull(body.vertices)
    edges = {tuple(sorted((s[i], s[i - 1]))) for s in hull.simplices for i in range(len(s))}
    return body.vertices, 0.0, hull.equations[:, :-1], np.array(sorted(edges))


def enumerated_hausdorff(a, b) -> float:
    """Exact Hausdorff distance of two 2-D or 3-D polytopes, or a polytope
    and a ball, as the largest |h_A - h_B| over a superset of critical
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
            breaks.update(poly.hull.normal_angles.tolist())
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
