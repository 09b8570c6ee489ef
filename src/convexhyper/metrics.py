"""Hausdorff metric, Steiner point and re-centering.

The Hausdorff distance between convex bodies equals the sup-norm distance
of their support functions on the unit sphere, so both metrics here are
computed in support-function space.

The Steiner point  s(D) = (1/vol B^n) * integral over S^{n-1} of u h_D(u)
is evaluated exactly for polytopes by integrating over the normal fan
(closed forms on circular arcs for n=2, per-vertex spherical-polygon
quadrature for n=3, the only user of it, batched over all cone triangles
and bit-identical to a per-triangle recursion).  The second moment of a
polytope, integral of u u^T h_D(u), comes in closed form from its first
area measure, a sum over edges.  Grid quadrature is the fallback for sampled
bodies.  Both routes keep rigid-motion equivariance at floating-point
level, which plain grid quadrature cannot do for kinked integrands.

Every polytope routine here reads the hull combinatorics (CCW ring,
edges, facet normals, vertex normal cones) from ``Polytope.hull``, which
is computed once per polytope and carried through rigid motions
(``translate``, ``rigid_motion``), so rotating a body never calls qhull.

The refinements here and in ``congruence`` use two in-repo minimizers:
golden section on an interval and Nelder-Mead (``nelder_mead``, a port of
scipy's that returns the same bits), so nothing loads ``scipy.optimize``.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .bodies import (
    Ball,
    Body,
    Ellipsoid,
    Polytope,
    Sampled,
    as_polytope,
    body_dim,
    sampled_cell_angle,
    support_values,
    terms,
    translate,
)
from .errors import DimensionMismatchError, InvalidArgumentError
from .quadrature import SphericalGrid, ball_volume, default_grid, sphere_area

_TWO_PI = 2.0 * math.pi
_REFINE_STARTS = 5  # hausdorff refines from the largest grid differences


# ---------------------------------------------------------------------------
# polygon helpers (n = 2)
# ---------------------------------------------------------------------------

def _arc_moment_1(a: float, b: float) -> np.ndarray:
    """integral over [a,b] of u(t) u(t)^T dt, closed form (2x2)."""
    cc = (0.5 * b + 0.25 * math.sin(2.0 * b)) - (0.5 * a + 0.25 * math.sin(2.0 * a))
    cs = (-0.25 * math.cos(2.0 * b)) - (-0.25 * math.cos(2.0 * a))
    ss = (0.5 * b - 0.25 * math.sin(2.0 * b)) - (0.5 * a - 0.25 * math.sin(2.0 * a))
    return np.array([[cc, cs], [cs, ss]])


def _polygon_fan_arcs(poly: Polytope):
    """(vertex, arc start, arc end) for each normal cone of a 2-D polytope."""
    verts = poly.hull.polygon
    if verts.shape[0] == 1:
        return [(verts[0], 0.0, _TWO_PI)]
    # a segment is a two-edge ring: two half-circle cones
    normals = poly.hull.normal_angles
    arcs = []
    for k in range(verts.shape[0]):
        a = normals[k - 1]
        b = normals[k]
        if b < a:
            b += _TWO_PI
        arcs.append((verts[k], a, b))
    return arcs


def _steiner_polygon(poly: Polytope) -> np.ndarray:
    s = np.zeros(2)
    for p, a, b in _polygon_fan_arcs(poly):
        s += _arc_moment_1(a, b) @ p
    return s / ball_volume(2)


# ---------------------------------------------------------------------------
# normal-fan quadrature (n = 3)
# ---------------------------------------------------------------------------

_GL_TRI = 12  # tensor Gauss-Legendre order per spherical-triangle chart
_SPLIT_ANGLE = 0.45  # subdivide spherical triangles wider than this (radians)
_SPLIT_DEPTH = 4  # ... at most this many times
_LEAF_BLOCK = 32  # leaf triangles whose quadrature nodes are built at once
# children (a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca) of (a, b, c, mab, mbc, mca)
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


@lru_cache(maxsize=1)
def _tri_rule():
    """Nodes (xi, xi eta) and weights w xi of the chart a + xi ab + xi eta bc."""
    x, w = np.polynomial.legendre.leggauss(_GL_TRI)
    xi, eta = np.meshgrid(0.5 * (x + 1.0), 0.5 * (x + 1.0), indexing="ij")
    return xi.ravel(), (xi * eta).ravel(), np.outer(0.5 * w, 0.5 * w).ravel() * xi.ravel()


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit, without its per-call overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a[k] @ b[k] as BLAS rounds it (einsum and sums round differently)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _split_triangles(tris: np.ndarray):
    """Leaves of the subdivision of spherical triangles ``tris[k] = (a, b, c)``.

    A triangle whose widest side exceeds ``_SPLIT_ANGLE`` is split into
    ``_CHILDREN`` at its normalized edge midpoints, up to ``_SPLIT_DEPTH``
    times; each level splits all its triangles at once.  Returns the
    leaves, in depth-first order, and the triangle each came from.
    """
    key = np.arange(len(tris)) * 4**_SPLIT_DEPTH  # the triangle, then child digits in base 4
    leaves, keys = [], []
    for depth in range(_SPLIT_DEPTH):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        # the widest side: acos is decreasing, so it is the acos of the least cosine
        cos = np.minimum(np.minimum(_dots(a, b), _dots(b, c)), _dots(c, a)).tolist()
        split = np.array([math.acos(min(1.0, max(-1.0, x))) > _SPLIT_ANGLE for x in cos], dtype=bool)
        leaves.append(tris[~split])
        keys.append(key[~split])
        a, b, c = a[split], b[split], c[split]
        mids = [a + b, b + c, c + a]
        for m in mids:
            m /= np.sqrt(_dots(m, m))[:, None]
        tris = np.stack([a, b, c, *mids], axis=1)[:, _CHILDREN].reshape(-1, 3, 3)
        key = (key[split, None] + np.arange(4) * 4 ** (_SPLIT_DEPTH - 1 - depth)).ravel()
    key = np.concatenate(keys + [key])
    rank = np.argsort(key)
    return np.concatenate(leaves + [tris])[rank], key[rank] // 4**_SPLIT_DEPTH


def _steiner_polytope_3d(poly: Polytope) -> np.ndarray | None:
    """Steiner point by quadrature over the normal fan.

    Each vertex cone is cut into spherical triangles (axis, n_i, n_i+1)
    around its mean normal.  The subdivided triangles are integrated with a
    tensor Gauss-Legendre rule through the radial projection of the flat
    triangle, dOmega = dist(0, plane) / ||x||^3 dA.  The quadrature nodes
    are built from the cone geometry itself, so they co-rotate with the
    body and the integral is equivariant to rounding.
    """
    hull = poly.hull
    if hull.normals is None:
        return None
    rims, axes, points = [], [], []
    for v, normals in hull.vertex_cones():
        if normals.shape[0] < 3:
            continue
        axis = normals.sum(axis=0)
        axis_norm = np.linalg.norm(axis)
        if axis_norm < 1e-12:
            continue
        axis = axis / axis_norm
        # order the cone's boundary directions around the axis
        ref = np.eye(3)[np.argmin(np.abs(axis))]
        t1 = _cross3(axis, ref)
        t1 /= np.linalg.norm(t1)
        t2 = _cross3(axis, t1)
        ang = np.arctan2(normals @ t2, normals @ t1)
        rims.append(normals[np.argsort(ang)])
        axes.append(axis)
        points.append(hull.points[v])
    sizes = np.array([len(r) for r in rims])
    rim, stops = np.concatenate(rims), np.cumsum(sizes)
    succ = np.arange(1, len(rim) + 1)  # n_i+1, wrapping around each cone
    succ[stops - 1] = stops - sizes
    leaves, owner = _split_triangles(np.stack([np.repeat(axes, sizes, axis=0), rim, rim[succ]], 1))
    a, ab, bc = leaves[:, 0], leaves[:, 1] - leaves[:, 0], leaves[:, 2] - leaves[:, 1]
    cross = np.cross(ab, bc)
    two_area = np.sqrt(_dots(cross, cross))
    keep = ~(two_area < 1e-14)  # degenerate charts carry no weight
    dist = np.abs(_dots(cross / np.where(keep, two_area, 1.0)[:, None], a))
    keep &= ~(dist < 1e-14)
    a, ab, bc, two_area, dist = a[keep].T, ab[keep].T, bc[keep].T, two_area[keep], dist[keep]
    ends = np.searchsorted(np.repeat(np.arange(len(rims)), sizes)[owner[keep]], np.arange(len(rims)), "right")
    xi, xi_eta, w_xi = _tri_rule()
    s = np.zeros(3)
    built = 0  # nodes exist for the leaves base:built, whole vertices at a time
    for v, p in enumerate(points):
        lo, hi = (ends[v - 1] if v else 0), ends[v]
        if lo == hi:
            continue
        if hi > built:
            base = lo
            built = ends[max(v, np.searchsorted(ends, lo + _LEAF_BLOCK, "right") - 1)]
            blk = slice(base, built)
            # coordinates first, (3, leaves, nodes), for speed; the roundings are unchanged
            pts = a[:, blk, None] + xi * ab[:, blk, None] + xi_eta * bc[:, blk, None]
            norms = np.sqrt((pts * pts).sum(axis=0))
            weights = w_xi * two_area[blk, None] * dist[blk, None] / norms**3
            dirs = np.empty(pts.shape[1:] + (3,))
            np.divide(pts, norms, out=dirs.transpose(2, 0, 1))
        # one product per vertex, over its nodes in depth-first order, as the sums round
        d = dirs[lo - base : hi - base].reshape(-1, 3)
        s += (weights[lo - base : hi - base].ravel() * (d @ p)) @ d
    return s / ball_volume(3)


def _steiner_segment(poly: Polytope) -> np.ndarray | None:
    """Steiner point of a point or segment: the midpoint, by symmetry."""
    pts, rank = poly.hull.points, poly.hull.rank
    centered = pts - pts.mean(axis=0)
    if rank == 0:
        return pts.mean(axis=0)
    if rank == 1:
        axis = centered[np.argmax(np.linalg.norm(centered, axis=1))]
        proj = centered @ axis
        return 0.5 * (pts[np.argmin(proj)] + pts[np.argmax(proj)])
    return None


# ---------------------------------------------------------------------------
# Steiner point and re-centering
# ---------------------------------------------------------------------------

def steiner_quadrature(body: Body, grid: SphericalGrid) -> np.ndarray:
    """Grid-quadrature Steiner point: sum_k w_k u_k h(u_k) / vol(B^n)."""
    values = support_values(body, grid.nodes)
    return (grid.weights * values) @ grid.nodes / ball_volume(grid.dim)


def steiner(body: Body, grid: SphericalGrid | None = None) -> np.ndarray:
    """Steiner point of a body: the sum of a G s(L) over its terms (a, G, L).

    The Steiner point is Minkowski-linear and rigid-motion equivariant, so
    only leaves are integrated: exact for balls, ellipsoids and (n <= 3)
    polytopes, grid quadrature for sampled leaves (on their own grid) and
    anything else.
    """
    parts = [term.push(_steiner_leaf(term.leaf, grid)) for term in terms(body)]
    return reduce(add, parts) if parts else np.zeros(body_dim(body))


def _steiner_leaf(body: Body, grid: SphericalGrid | None) -> np.ndarray:
    if isinstance(body, (Ball, Ellipsoid)):
        return body.center.copy()
    if isinstance(body, Sampled):
        return (body.grid.weights * body.values) @ body.grid.nodes / ball_volume(body.dim)
    if isinstance(body, Polytope) and body.dim in (2, 3):
        s = _steiner_segment(body)
        if s is None:
            s = _steiner_polygon(body) if body.dim == 2 else _steiner_polytope_3d(body)
        if s is not None:
            return s
    return steiner_quadrature(body, grid or default_grid(body.dim))


def recenter(body: Body, grid: SphericalGrid | None = None) -> Body:
    """Translate the body so its Steiner point sits at the origin."""
    return translate(body, -steiner(body, grid))


def support_moment_matrix(body: Body, grid: SphericalGrid | None = None) -> np.ndarray:
    """Second moment  integral of u u^T h(u) dOmega, computed like steiner.

    The sum of a G M(L) G^T over the terms (a, G, L).  A leaf's moment is
    a closed form for balls and for 2-D and full-dimensional 3-D
    polytopes (a sum over edges, see ``_polytope_moment``), read off the
    own grid for sampled leaves, and grid quadrature otherwise.  Used to
    build body-intrinsic orthonormal frames.
    """
    parts = [term.push_moment(_moment_leaf(term.leaf, grid)) for term in terms(body)]
    return reduce(add, parts) if parts else np.zeros((body_dim(body),) * 2)


def _moment_leaf(body: Body, grid: SphericalGrid | None) -> np.ndarray:
    n = body_dim(body)
    if isinstance(body, Ball):
        return body.radius * (sphere_area(n) / n) * np.eye(n)
    if isinstance(body, Sampled):
        wv = body.grid.weights * body.values
        return (body.grid.nodes * wv[:, None]).T @ body.grid.nodes
    if isinstance(body, Polytope) and n in (2, 3):
        m = _polytope_moment(body.hull)
        if m is not None:
            return m
    g = grid or default_grid(n)
    values = support_values(body, g.nodes)
    wv = g.weights * values
    return (g.nodes * wv[:, None]).T @ g.nodes


def _polytope_moment(hull) -> np.ndarray | None:
    """Second moment of a 2-D or full-dimensional 3-D polytope, from its edges.

    On the degree-0 and degree-2 harmonics of u u^T (its only ones) the
    moment of h is that of the first area measure (Delta_S + n - 1) h over
    n - 1 - k(k + n - 2): a mass l_e at each 2-D edge normal, l_e times arc
    length on each 3-D edge's normal arc.  So for n = 2, with e the ring's
    edges, M = 1/3 sum (l I + e e^T / l), and for n = 3
    M = 1/8 sum l [theta (I + a a^T) - sin theta (m m^T - q q^T)], with a
    the unit edge, theta the angle between its facet normals, m their unit
    bisector and q = a x m.  None when qhull could not build the 3-D hull.
    """
    p = hull.points
    if hull.ring is not None:
        if hull.ring.shape[0] == 1:  # a point has no edges
            return np.zeros((2, 2))
        e = np.roll(p[hull.ring], -1, axis=0) - p[hull.ring]
        length = np.linalg.norm(e, axis=1, keepdims=True)
        return (length.sum() * np.eye(2) + (e / length).T @ e) / 3.0
    if hull.normals is None:
        return None
    e = p[hull.edges[:, 1]] - p[hull.edges[:, 0]]
    length = np.linalg.norm(e, axis=1, keepdims=True)
    n1, n2 = hull.normals[hull.edge_facets.T]
    mid_norm = np.linalg.norm(n1 + n2, axis=1, keepdims=True)
    theta = 2.0 * np.arctan2(np.linalg.norm(n2 - n1, axis=1, keepdims=True), mid_norm)
    a, m = e / length, (n1 + n2) / mid_norm
    q = np.cross(a, m)
    lt, ls = length * theta, length * np.sin(theta)
    return (lt.sum() * np.eye(3) + (a * lt).T @ a - (m * ls).T @ m + (q * ls).T @ q) / 8.0


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def golden_section_min(f, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section minimization of a scalar function on [lo, hi].

    Returns the best probed point and its value, (x, f(x)), and the
    midpoint of the final bracket, whose width is at most tol.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best = min((fc, c), (fd, d))
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
            best = min(best, (fc, c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
            best = min(best, (fd, d))
    return best[1], best[0], 0.5 * (a + b)


def nelder_mead(f, simplex, xatol: float, fatol: float, maxiter: int):
    """Nelder-Mead minimization (Nelder & Mead, Comput. J. 7, 1965) from an
    initial simplex of n + 1 rows.

    A port of scipy's ``minimize(method="Nelder-Mead")`` for its standard
    coefficients (reflection 1, expansion 2, contraction and shrink 1/2),
    no bounds and no evaluation cap; every step rounds as scipy's does, so
    both return the same bits.  Stops once every vertex lies within xatol
    of the best one and every value within fatol of the best value, or
    after maxiter iterations.  Returns the best vertex and the least value.
    """
    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.array([f(x) for x in sim], dtype=float)
    # sorted twice as in scipy: argsort need not keep the order of ties
    sim, fsim = by_value(*by_value(sim, fsim))
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = f(xc)
            accept = fxc <= fxr if outside else fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = [f(x) for x in sim[1:]]
        iterations += 1
        sim, fsim = by_value(sim, fsim)
    return sim[0], np.min(fsim)


def _arc_sup(w: np.ndarray, a: float, b: float, r: float = 0.0) -> float:
    """max over t in [a, b] of |<w, u(t)> - r|.

    <w, u(t)> = |w| cos(t - phi) is extremal at the arc ends or at
    phi + k pi; arcs lie in [0, 4 pi), so k runs from -1 to 3.
    """
    cands = [a, b]
    phi = math.atan2(w[1], w[0])
    for cand in (phi, phi + math.pi, phi - math.pi, phi + _TWO_PI, phi + 3.0 * math.pi):
        if a <= cand <= b:
            cands.append(cand)
    return max(abs(float(w @ np.array([math.cos(t), math.sin(t)])) - r) for t in cands)


def _hausdorff_2d_polygons(pa: Polytope, pb: Polytope) -> float:
    """Exact sup of |h_A - h_B| for two polygons via arc decomposition."""
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
            b += _TWO_PI
        mid = 0.5 * (a + b)
        u_mid = np.array([math.cos(mid), math.sin(mid)])
        pa_v = pa.vertices[np.argmax(pa.vertices @ u_mid)]
        pb_v = pb.vertices[np.argmax(pb.vertices @ u_mid)]
        best = max(best, _arc_sup(pa_v - pb_v, a, b))
    return best


def _hausdorff_2d_poly_ball(poly: Polytope, ball: Ball) -> float:
    """Exact sup of |h_P - h_B| for a polygon against a ball."""
    verts = poly.hull.polygon
    c, r = ball.center, ball.radius
    if verts.shape[0] == 1:
        return float(np.linalg.norm(verts[0] - c) + r)
    return max(_arc_sup(v - c, a, b, r) for v, a, b in _polygon_fan_arcs(poly))


def _append_unit(cands: list, vecs: np.ndarray):
    norms = np.linalg.norm(vecs, axis=1)
    good = vecs[norms > 1e-12] / norms[norms > 1e-12, None]
    if good.size:
        cands.append(good)
        cands.append(-good)


def _ridge_criticals(pts, edges, targets):
    """Critical directions of <p - b, u> on edge-normal great circles."""
    p = pts[edges[:, 0]]
    q = pts[edges[:, 1]]
    e_hat = p - q
    e_hat = e_hat / np.linalg.norm(e_hat, axis=1, keepdims=True)
    w = p[:, None, :] - targets[None, :, :]
    proj = w - (w * e_hat[:, None, :]).sum(axis=2, keepdims=True) * e_hat[:, None, :]
    return proj.reshape(-1, 3)


def _pair_candidates_3d(ha, hb) -> np.ndarray:
    pts_a, edges_a, pts_b, edges_b = ha.points, ha.edges, hb.points, hb.edges
    cands: list = [ha.normals, -ha.normals, hb.normals, -hb.normals]
    diff = (pts_a[:, None, :] - pts_b[None, :, :]).reshape(-1, 3)
    _append_unit(cands, diff)
    ea = pts_a[edges_a[:, 0]] - pts_a[edges_a[:, 1]]
    eb = pts_b[edges_b[:, 0]] - pts_b[edges_b[:, 1]]
    crossings = np.cross(ea[:, None, :], eb[None, :, :]).reshape(-1, 3)
    _append_unit(cands, crossings)
    _append_unit(cands, _ridge_criticals(pts_a, edges_a, pts_b))
    _append_unit(cands, _ridge_criticals(pts_b, edges_b, pts_a))
    return np.vstack(cands)


def _hausdorff_3d_exact(a: Body, b: Body, pa, pb, ball) -> float | None:
    """Exact sup of |h_A - h_B| for a 3-D polytope pair (pa, pb) or a
    polytope against a ball.

    The sup of a difference of piecewise-linear support functions is
    attained at a normal-fan cell's interior critical direction, on a
    ridge, or at a fan corner; all of these are enumerable from vertices,
    hull edges and facet normals.  Returns None when the pair is too large
    to enumerate cheaply.
    """
    if pa is not None and pb is not None:
        if pa.vertices.shape[0] + pb.vertices.shape[0] > 120:
            return None
        if pa.hull.normals is None or pb.hull.normals is None:
            return None
        dirs = _pair_candidates_3d(pa.hull, pb.hull)
    else:
        poly = pa if pa is not None else pb
        if poly.vertices.shape[0] > 600:
            return None
        hull = poly.hull
        if hull.normals is None:
            return None
        pts, edges, normals = hull.points, hull.edges, hull.normals
        cands: list = [normals, -normals]
        _append_unit(cands, pts - ball.center)
        _append_unit(cands, _ridge_criticals(pts, edges, ball.center[None, :]))
        dirs = np.vstack(cands)
    vals = np.abs(support_values(a, dirs) - support_values(b, dirs))
    return float(vals.max())


def exact_hausdorff(a: Body, b: Body) -> float | None:
    """Exact Hausdorff distance for polytope/ball pairs in 2-D and 3-D, else None."""
    dim = body_dim(a)
    if dim not in (2, 3):
        return None
    pa, pb = as_polytope(a), as_polytope(b)
    ball_a = a if isinstance(a, Ball) else None
    ball_b = b if isinstance(b, Ball) else None
    if (pa is None and ball_a is None) or (pb is None and ball_b is None):
        return None
    if ball_a is not None and ball_b is not None:
        return float(
            np.linalg.norm(ball_a.center - ball_b.center)
            + abs(ball_a.radius - ball_b.radius)
        )
    if dim == 3:
        return _hausdorff_3d_exact(a, b, pa, pb, ball_a or ball_b)
    if pa is not None and pb is not None:
        return _hausdorff_2d_polygons(pa, pb)
    if pa is not None:
        return _hausdorff_2d_poly_ball(pa, ball_b)
    return _hausdorff_2d_poly_ball(pb, ball_a)


def _refine_candidates(body: Body, dim: int) -> np.ndarray | None:
    """Kink directions of a flattenable polytope: facet normals and
    normalized vertices, useful starting points for sup refinement."""
    poly = as_polytope(body)
    if poly is None:
        return None
    dirs = []
    verts = poly.vertices
    norms = np.linalg.norm(verts, axis=1)
    good = norms > 1e-12
    dirs.append(verts[good] / norms[good, None])
    if dim == 3 and poly.hull.normals is not None:
        dirs.append(poly.hull.normals)
    if dim == 2 and verts.shape[0] >= 3:
        ang = poly.hull.normal_angles
        dirs.append(np.column_stack([np.cos(ang), np.sin(ang)]))
    return np.vstack(dirs)[:512]


def _tangent_frame(u: np.ndarray):
    ref = np.eye(3)[np.argmin(np.abs(u))]
    e1 = np.cross(u, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return e1, e2


def hausdorff(
    a: Body,
    b: Body,
    grid: SphericalGrid | None = None,
    refine: bool = True,
) -> float:
    """Hausdorff distance via the sup-norm of the support difference.

    The grid maximum is always a lower bound; for exactly evaluable
    representations the sup is refined by local maximization (exact arc
    search for polygon pairs, golden section / Nelder-Mead otherwise), so
    the reported value is >= the grid maximum.
    """
    if body_dim(a) != body_dim(b):
        raise DimensionMismatchError("bodies live in different dimensions")
    dim = body_dim(a)
    grid = grid or default_grid(dim)
    va = support_values(a, grid.nodes)
    vb = support_values(b, grid.nodes)
    diffs = np.abs(va - vb)
    best = float(diffs.max())
    if not refine or sampled_cell_angle(a) > 0.0 or sampled_cell_angle(b) > 0.0:
        return best

    exact = exact_hausdorff(a, b)
    if exact is not None:
        return max(best, exact)

    order = np.argsort(diffs)[::-1]
    starts = grid.nodes[order[:_REFINE_STARTS]]
    for extra in (_refine_candidates(a, dim), _refine_candidates(b, dim)):
        if extra is not None and extra.size:
            vals = np.abs(
                support_values(a, extra) - support_values(b, extra)
            )
            best = max(best, float(vals.max()))
            starts = np.vstack([starts, extra[np.argsort(vals)[::-1][:2]]])

    spacing = grid.max_cell_angle
    if dim == 2:
        def neg(theta):
            u = np.array([[math.cos(theta), math.sin(theta)]])
            return -abs(float(support_values(a, u)[0] - support_values(b, u)[0]))

        for u0 in starts:
            t0 = math.atan2(u0[1], u0[0])
            best = max(best, -golden_section_min(neg, t0 - spacing, t0 + spacing)[1])
        return best

    if dim == 3:
        for u0 in starts:
            e1, e2 = _tangent_frame(u0)

            def neg(st):
                u = u0 + st[0] * e1 + st[1] * e2
                u = (u / np.linalg.norm(u))[None, :]
                return -abs(float(support_values(a, u)[0] - support_values(b, u)[0]))

            simplex = np.array([[0.0, 0.0], [spacing, 0.0], [0.0, spacing]])
            best = max(best, -float(nelder_mead(neg, simplex, 1e-10, 1e-14, 400)[1]))
        return best

    return best


def width(body: Body, u: np.ndarray) -> float:
    """Extent of the body along direction u: h(u) + h(-u)."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise InvalidArgumentError("direction must be finite")
    vals = support_values(body, np.vstack([u, -u]))
    return float(vals[0] + vals[1])
