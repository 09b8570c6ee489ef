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
"""

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from convexhyper.bodies import Rotated, Scaled, Sum, support_values
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
