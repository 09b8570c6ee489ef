"""Independent oracles kept free of the code paths they check.

The point-cloud Hausdorff oracle works on dense boundary samples (always
including the exact vertices, where the two-sided sup is attained for
polytopes), entirely bypassing support functions.  The brute-force
Steiner oracle integrates u h(u) with a plain Riemann sum over a million
angles.  The brute-force mollifier evaluates the support function on
every shifted copy u + z_k of the directions, one kernel node at a time.
"""

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from convexhyper.bodies import support_values


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


def brute_mollified(body, dirs: np.ndarray, offsets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k h(u + z_k) for each row u of dirs, one kernel node per pass."""
    out = np.zeros(dirs.shape[0])
    for z, w in zip(offsets, weights):
        out += w * support_values(body, dirs + z)
    return out
