"""Hausdorff metric, Steiner point and re-centering.

The Hausdorff distance between convex bodies equals the sup-norm distance
of their support functions on the unit sphere, so both metrics here are
computed in support-function space.

The Steiner point  s(D) = (1/vol B^n) * integral over S^{n-1} of u h_D(u)
is evaluated exactly for polytopes by integrating over the normal fan
(closed forms on circular arcs for n=2, per-vertex spherical-polygon
quadrature for n=3, the only user of it, with the cone rims ordered and
the cone triangles subdivided for all vertices at once, bit-identical to
a per-triangle recursion).  The second moment of a
polytope, integral of u u^T h_D(u), comes in closed form from its first
area measure, a sum over edges.  Grid quadrature is the fallback for sampled
bodies.  Both routes keep rigid-motion equivariance at floating-point
level, which plain grid quadrature cannot do for kinked integrands.

Every polytope routine here reads the hull combinatorics (CCW ring,
edges, facet normals, vertex normal cones) from ``Polytope.hull``, which
is computed once per polytope and carried through rigid motions
(``translate``, ``rigid_motion``), so rotating a body never calls qhull.

Exact Hausdorff distances come from one kernel, ``_stacked_gap``, the
largest support gap over critical directions (``_stacked_gaps``) for a
stack of orthogonal maps of one body: ``congruence`` evaluates it at many
maps and ``exact_hausdorff`` at the identity.  It covers 2-D and 3-D
bodies whose terms are polytopes and balls; polygon pairs keep an arc
form, and 3-D pairs past the kernel's size rule take signed vertex
distances instead.

Non-exact pairs are polished from their grid maximum by Nelder-Mead
(``nelder_mead``, a port of scipy's that returns the same bits, over the
generator ``nelder_mead_steps``, which ``congruence`` drives for several
starts at once as the basin finder of its 3-D search) in the tangent
plane, in 2-D and 3-D alike.  Golden section (the generator
``golden_section_steps``) serves only the 2-D congruence refinement, which
drives its starts together too.  Nothing loads ``scipy.optimize``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache, reduce
from operator import add
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .bodies import (
    Ball,
    Body,
    Ellipsoid,
    Polytope,
    Sampled,
    as_polytope,
    body_dim,
    polytope_of_terms,
    ring_normal_angles,
    sampled_cell_angle,
    support_values,
    terms,
    translate,
)
from .errors import DimensionMismatchError, InvalidArgumentError
from .quadrature import SphericalGrid, ball_volume, default_grid, sphere_area

_TWO_PI = 2.0 * math.pi
_K_PI = np.array([-0.0, math.pi, -math.pi, _TWO_PI, 3.0 * math.pi])  # x + -0.0 is x, even -0.0
_REFINE_STARTS = 5  # hausdorff refines from the largest grid differences
# largest exact kernel (directions x points): a 600-vertex 3-D polytope
# against a ball is about 2.2M, two 60-vertex ones about 1.5M
_EXACT_ENTRIES = 2_500_000
# points x facets per block of the vertex-distance form of larger 3-D pairs
_DISTANCE_ENTRIES = 16_384


# ---------------------------------------------------------------------------
# polygon helpers (n = 2)
# ---------------------------------------------------------------------------

def _steiner_polygon(poly: Polytope) -> np.ndarray:
    """Sum over the ring of M(a, b) p for each vertex p and its normal-cone
    arc [a, b], over vol B^2, with M(a, b) the integral of u u^T over the
    arc in closed form.  The moments come from ``math`` in lists, one
    product of contiguous (k, 2, 2) and (k, 2, 1) stacks calls BLAS gemv per
    vertex as a 2 x 2 matrix times a vector does, and the products add up
    in ring order from zero: the bits of a loop over the ring."""
    sin, cos = math.sin, math.cos
    moments = [[(0.5 * b + 0.25 * sin(2.0 * b)) - (0.5 * a + 0.25 * sin(2.0 * a)),
                (-0.25 * cos(2.0 * b)) - (-0.25 * cos(2.0 * a)),
                (-0.25 * cos(2.0 * b)) - (-0.25 * cos(2.0 * a)),
                (0.5 * b - 0.25 * sin(2.0 * b)) - (0.5 * a - 0.25 * sin(2.0 * a))]
               for a, b in zip(*(x.tolist() for x in poly.hull.arcs))]
    terms = np.array(moments).reshape(-1, 2, 2) @ poly.hull.polygon[:, :, None]
    return np.cumsum(np.vstack((np.zeros((1, 2)), terms[:, :, 0])), axis=0)[-1] / ball_volume(2)


# ---------------------------------------------------------------------------
# normal-fan quadrature (n = 3)
# ---------------------------------------------------------------------------

_GL_TRI = 12  # tensor Gauss-Legendre order per spherical-triangle chart
_SPLIT_ANGLE = 0.45  # subdivide spherical triangles wider than this (radians)
_SPLIT_DEPTH = 4  # ... at most this many times
_LEAF_BLOCK = 32  # leaf triangles whose quadrature nodes are built at once
# children (a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca) of (a, b, c, mab, mbc, mca)
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


# a side is wider than _SPLIT_ANGLE exactly when its cosine is below
# _SPLIT_COS, the least double whose math.acos is at most _SPLIT_ANGLE
_SPLIT_COS = math.cos(_SPLIT_ANGLE)
while math.acos(_SPLIT_COS) > _SPLIT_ANGLE:
    _SPLIT_COS = math.nextafter(_SPLIT_COS, 1.0)
while math.acos(math.nextafter(_SPLIT_COS, 0.0)) <= _SPLIT_ANGLE:
    _SPLIT_COS = math.nextafter(_SPLIT_COS, 0.0)


@lru_cache(maxsize=1)
def _tri_rule():
    """Nodes (xi, xi eta) and weights w xi of the chart a + xi ab + xi eta bc."""
    x, w = np.polynomial.legendre.leggauss(_GL_TRI)
    xi, eta = np.meshgrid(0.5 * (x + 1.0), 0.5 * (x + 1.0), indexing="ij")
    return xi.ravel(), (xi * eta).ravel(), np.outer(0.5 * w, 0.5 * w).ravel() * xi.ravel()


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a[k] @ b[k] as BLAS rounds it (einsum and sums round differently)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _split_triangles(tris: np.ndarray):
    """Leaves of the subdivision of spherical triangles ``tris[k] = (a, b, c)``.

    A triangle whose widest side exceeds ``_SPLIT_ANGLE`` (whose least
    side cosine is below ``_SPLIT_COS``) is split into ``_CHILDREN`` at
    its normalized edge midpoints, up to ``_SPLIT_DEPTH`` times; each
    level splits all its triangles at once.  Returns the leaves, in
    depth-first order, and the triangle each came from.
    """
    key = np.arange(len(tris)) * 4**_SPLIT_DEPTH  # the triangle, then child digits in base 4
    leaves, keys = [], []
    for depth in range(_SPLIT_DEPTH):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        split = np.minimum(np.minimum(_dots(a, b), _dots(b, c)), _dots(c, a)) < _SPLIT_COS
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


def _cone_rims(hull):
    """(rims, sizes, axes, vertices) of the vertex cones with at least three
    normals and a mean normal of length at least 1e-12; None if none has.

    ``rims`` holds each cone's normals ordered by angle around its unit
    mean normal in ``axes``, cone after cone.  All cones are done at once
    with the roundings of a per-cone loop: an axis adds its rows one after
    another, as ``normals.sum(axis=0)`` does, and norms are ``_dots``.
    """
    owner, cones = hull.cone_owner, hull.cones
    first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    count = np.diff(np.r_[first, len(owner)])
    axes = cones[first]
    for p in range(1, count.max()):
        more = count > p
        axes[more] += cones[first[more] + p]
    norm = np.sqrt(_dots(axes, axes))
    kept = (count >= 3) & ~(norm < 1e-12)
    if not kept.any():
        return None
    axes, sizes = axes[kept] / norm[kept, None], count[kept]
    t1 = np.cross(axes, np.eye(3)[np.argmin(np.abs(axes), axis=1)])
    t1 /= np.sqrt(_dots(t1, t1))[:, None]
    t2 = np.cross(axes, t1)
    rows, cone = cones[np.repeat(kept, count)], np.repeat(np.arange(len(sizes)), sizes)
    ang = np.arctan2(_dots(rows, t2[cone]), _dots(rows, t1[cone]))
    return rows[np.lexsort((ang, cone))], sizes, axes, hull.points[owner[first[kept]]]


def _steiner_polytope_3d(poly: Polytope) -> np.ndarray | None:
    """Steiner point by quadrature over the normal fan.

    Each vertex cone is cut into spherical triangles (axis, n_i, n_i+1)
    around its mean normal, ordered for all cones at once (``_cone_rims``).
    The triangles are subdivided while a side cosine is below
    ``_SPLIT_COS`` and integrated with a tensor Gauss-Legendre rule through
    the radial projection of the flat triangle, dOmega = dist(0, plane) /
    ||x||^3 dA, with the nodes of each block of leaves built in buffers
    allocated once per call.  The nodes come from the cone geometry, so
    they co-rotate with the body and the integral is equivariant to
    rounding.  Python loops only over the per-vertex products, whose BLAS
    sums fix the bits.  None when the hull has no facets or no vertex cone
    with three normals (a sliver hull of a flat set).
    """
    hull = poly.hull
    rims = None if hull.normals is None else _cone_rims(hull)
    if rims is None:
        return None
    rim, sizes, axes, points = rims
    stops = np.cumsum(sizes)
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
    ends = np.searchsorted(np.repeat(np.arange(len(sizes)), sizes)[owner[keep]], np.arange(len(sizes)), "right")
    xi, xi_eta, w_xi = _tri_rule()
    # a block is at most _LEAF_BLOCK leaves or one vertex's leaves
    most = max(_LEAF_BLOCK, int(np.diff(ends, prepend=0).max()))
    pts_buf, tmp_buf = np.empty((2, 3, most, len(xi)))
    norms_buf, weights_buf = np.empty((2, most, len(xi)))
    dirs_buf = np.empty((most, len(xi), 3))
    s = np.zeros(3)
    ends = ends.tolist()
    built = 0  # nodes exist for the leaves base:built, whole vertices at a time
    for v, (lo, hi, p) in enumerate(zip([0] + ends, ends, points)):
        if lo == hi:
            continue
        if hi > built:
            base = lo
            built = ends[max(v, bisect_right(ends, lo + _LEAF_BLOCK) - 1)]
            blk, n = slice(base, built), built - base
            # coordinates first, (3, leaves, nodes), for speed; each operation
            # rounds as a + xi ab + xi_eta bc, sqrt((pts * pts).sum(axis=0)) and
            # w_xi * two_area * dist / norms**3 do
            pts, tmp, norms, weights = pts_buf[:, :n], tmp_buf[:, :n], norms_buf[:n], weights_buf[:n]
            np.multiply(xi, ab[:, blk, None], out=pts)
            pts += a[:, blk, None]
            pts += np.multiply(xi_eta, bc[:, blk, None], out=tmp)
            np.multiply(pts, pts, out=tmp)
            np.add(tmp[0], tmp[1], out=norms)
            norms += tmp[2]
            np.sqrt(norms, out=norms)
            np.multiply(w_xi, two_area[blk, None], out=weights)
            weights *= dist[blk, None]
            weights /= np.power(norms, 3, out=tmp[0])
            dirs = dirs_buf[:n]
            np.divide(pts, norms, out=dirs.transpose(2, 0, 1))
        # one product per vertex, over its nodes in depth-first order, as the sums round
        d = dirs[lo - base : hi - base].reshape(-1, 3)
        s += (weights[lo - base : hi - base].ravel() * (d @ p)) @ d
    return s / ball_volume(3)


def _steiner_exact(poly: Polytope) -> np.ndarray | None:
    """Exact Steiner point (a segment's midpoint, else over the normal fan) or None."""
    hull = poly.hull
    if hull.rank <= 1:
        return hull.points[hull.extreme].mean(axis=0)
    return _steiner_polygon(poly) if poly.dim == 2 else _steiner_polytope_3d(poly)


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
        s = body.memo("steiner", _steiner_exact)
        if s is not None:  # else flat 3-D: the grid's value, never kept
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
        m = body.memo("moment", lambda p: _polytope_moment(p.hull))
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

def golden_section_steps(lo: float, hi: float, tol: float = 1e-12):
    """Golden-section minimization (Kiefer, Proc. AMS 4, 1953) of a scalar
    function on [lo, hi] as a generator, so a caller can evaluate the
    points of several runs together: it yields each point, receives its
    value, and returns the midpoint of the final bracket, whose width is
    at most tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = yield c
    fd = yield d
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = yield d
    return 0.5 * (a + b)


def nelder_mead(f, simplex, xatol: float, fatol: float, maxiter: int):
    """Nelder-Mead minimization (Nelder & Mead, Comput. J. 7, 1965) of f from
    an initial simplex of n + 1 rows: ``nelder_mead_steps`` with every
    point it asks for evaluated by f, one at a time.

    A port of scipy's ``minimize(method="Nelder-Mead")`` for its standard
    coefficients (reflection 1, expansion 2, contraction and shrink 1/2),
    no bounds and no evaluation cap; every step rounds as scipy's does, so
    both return the same bits.  Stops once every vertex lies within xatol
    of the best one and every value within fatol of the best value, or
    after maxiter iterations.  Returns the best vertex and the least value.
    """
    steps = nelder_mead_steps(simplex, xatol, fatol, maxiter)
    try:
        points = next(steps)
        while True:
            points = steps.send([f(x) for x in points])
    except StopIteration as done:
        return done.value


def nelder_mead_steps(simplex, xatol: float, fatol: float, maxiter: int):
    """``nelder_mead`` as a generator, so a caller can evaluate the points of
    several runs together: it yields the rows it needs evaluated (the
    n + 1 simplex rows, one reflection, expansion or contraction point, or
    the n shrink rows), receives their values in that order, and returns
    (best vertex, least value)."""
    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.array((yield sim), dtype=float)
    # sorted twice as in scipy: argsort need not keep the order of ties
    sim, fsim = by_value(*by_value(sim, fsim))
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = (yield xr[None])[0]
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = (yield xe[None])[0]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = (yield xc[None])[0]
            accept = fxc <= fxr if outside else fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:]
        iterations += 1
        sim, fsim = by_value(sim, fsim)
    return sim[0], np.min(fsim)


def _fan(ring: np.ndarray) -> np.ndarray:
    """Kinks of h for the 2-D hull ring ``Hull.polygon``, or for each ring of
    a stack (count, m, 2): none for a point."""
    return ring_normal_angles(ring) if ring.shape[-2] > 1 else np.empty(ring.shape[:-2] + (0,))


def _cos_sin(t: np.ndarray) -> np.ndarray:
    """Rows (cos t, sin t), shape t.shape + (2,): numpy's float64 cos and sin
    call the C library's, as ``math`` does, the rounding the arc form keeps."""
    u = np.empty(t.shape + (2,))
    np.cos(t, out=u[..., 0])
    np.sin(t, out=u[..., 1])
    return u


def _arc_hausdorff(va: np.ndarray, ang_a: np.ndarray, vb: np.ndarray, ang_b: np.ndarray) -> np.ndarray:
    """Exact sup of |h_A - h_B| for each polygon A of a stack against one
    polygon B: vertices ``va[s]`` (count, n, 2) and ``vb``, kinks ``ang_a[s]``
    and ``ang_b`` (``_fan``).  On each arc [a, b] of a common fan one vertex
    of each wins (at the midpoint), and <w, u(t)> = |w| cos(t - phi) for
    their difference w peaks at an end or at phi + k pi, k = -1..3 as arcs
    lie in [0, 4 pi).  All arcs of all entries at once, each entry rounded
    as if alone: stacked (n x 2)(2 x 1) and (1 x 2)(2 x 1) products call
    BLAS gemv and ddot as single vectors do, and phi goes through ``math``
    (numpy's atan2 may round otherwise).  Two points have no arcs: the
    distance of their first vertices rounded as ``Hull``.
    """
    kb = ang_b.tolist()
    fans = [sorted({*row, *kb}) for row in ang_a.tolist()]
    if not fans[0]:  # every entry's fan is empty with the first's
        return np.array([np.linalg.norm(np.round(v[0], 12) - np.round(vb[0], 12)) for v in va])
    # each fan's arcs, the last one wrapping (a fan is sorted), padded to a
    # common width with copies of the last arc, which leave its max alone
    width = max(map(len, fans))
    a, b = np.array(([fan + fan[-1:] * (width - len(fan)) for fan in fans],
                     [fan[1:] + [fan[0] + _TWO_PI] * (width - len(fan) + 1) for fan in fans]))
    u = _cos_sin(0.5 * (a + b))[..., None]
    ia = (va[:, None] @ u).argmax(axis=2)[..., 0]
    w = va[np.arange(len(va))[:, None], ia] - vb[(vb @ u).argmax(axis=2)[..., 0]]
    wx, wy = w.reshape(-1, 2).T.tolist()
    a, b = a[..., None], b[..., None]
    phi = np.array(list(map(math.atan2, wy, wx))).reshape(a.shape) + _K_PI
    # a peak outside its arc is moved to the nearer end, a candidate already
    t = np.concatenate((a, b, np.minimum(np.maximum(phi, a), b)), axis=2)
    return np.abs(w[:, :, None, None, :] @ _cos_sin(t)[..., None]).reshape(len(va), -1).max(axis=1)


class _Side(NamedTuple):
    """A body of the exact kernel in its own frame: h(u) = max <p, u> +
    radius over ``points``, ``normals`` of facets (3-D) or edges (2-D).
    In 3-D each edge (first end p, unit e) has a 3 x 3 block of
    ``projector`` P = I - e e^T, and P p in ``base``, and ``facets[f]``
    indexes the triangle of ``points`` with normal ``normals[f]`` (None
    for a body of balls alone, whose one point has no facets)."""

    points: np.ndarray
    radius: float
    normals: np.ndarray
    units: np.ndarray | None = None
    projector: np.ndarray | None = None
    base: np.ndarray | None = None
    facets: np.ndarray | None = None


def _side(body: Body) -> _Side | None:
    """The kernel's side of a 2-D or 3-D body whose terms are polytopes and balls.

    On unit vectors h = h_P + <c, u> + r for the polytope part P, the
    balls' centres c = sum a G c_i and r = sum a r_i, so the points are
    those of P shifted by c; a body of balls alone is one point, c.  None
    for any other body, and in 3-D when P has no facets (a flat set).
    """
    n = body_dim(body)
    parts = terms(body)
    if n not in (2, 3) or not all(isinstance(t.leaf, (Polytope, Ball)) for t in parts):
        return None
    balls = [t for t in parts if isinstance(t.leaf, Ball)]
    polys = [t for t in parts if isinstance(t.leaf, Polytope)]
    radius = float(sum(t.factor * t.leaf.radius for t in balls))
    shift = reduce(add, [t.push(t.leaf.center) for t in balls], np.zeros(n))
    if balls and not polys:  # any unit vector is a ball normal; one stands in for all
        none = np.empty((0, n))
        return _Side(shift[None, :], radius, np.eye(n)[:1], none, none.T, none)
    poly = polytope_of_terms(polys, n)
    hull = poly.hull
    pts = poly.vertices[hull.index] + shift
    if n == 2:
        e = np.roll(pts[hull.ring], -1, axis=0) - pts[hull.ring]
        return _Side(pts, radius, np.column_stack([-e[:, 1], e[:, 0]]))
    if hull.normals is None:
        return None
    first = pts[hull.edges[:, 0]]
    e = pts[hull.edges[:, 1]] - first
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    proj = np.eye(3) - e[:, :, None] * e[:, None, :]
    return _Side(pts, radius, hull.normals, e, proj.transpose(1, 0, 2).reshape(3, -1),
                 np.einsum("eij,ej->ei", proj, first), hull.facets)


def _kernel_size(d: _Side, k: _Side) -> int:
    """Directions x points: the entries of ``_stacked_gap``'s products per matrix."""
    dirs = len(d.normals) + len(k.normals) + len(d.points) * len(k.points)
    if d.points.shape[1] == 3:
        dirs += len(d.units) * len(k.points) + len(k.units) * len(d.points)
    return dirs * max(len(d.points), len(k.points))


def _ridges(side: _Side, targets: np.ndarray) -> np.ndarray:
    """(I - e e^T)(p - t) for each edge (p, e) of ``side`` and stacked target t."""
    return side.base - (targets @ side.projector).reshape(*targets.shape[:2], -1, 3)


def _stacked_gap(d: _Side, k: _Side, mats: np.ndarray) -> np.ndarray:
    """sup over u of |h_{g D}(u) - h_K(u)| for each g in the stack ``mats``:
    the row max of ``_stacked_gaps``."""
    return _stacked_gaps(d, k, mats).max(axis=1)


def _stacked_gaps(d: _Side, k: _Side, mats: np.ndarray) -> np.ndarray:
    """|h_{g D}(u) - h_K(u)| at each critical direction u and its opposite,
    (count, 2 x directions) for the stack ``mats``.

    The sup is attained in a superset of critical directions: normals of
    both bodies, g p - q for points p of D and q of K, and in 3-D the ridge
    criticals of each body's edges against the other's points.  Crossings
    (g e) x f of two edges are left out: along the arc normal to f,
    h_gD - h_K is a maximum of two sinusoids (a minimum along the arc
    normal to g e), so it has an extremum at the crossing only where both
    one-sided derivatives vanish, at a ridge critical already in the set.
    The vertex-axis min of the same product gives h(-u); h is positively
    homogeneous, so each gap is divided by its direction's length instead,
    and (near-)zero directions drop out.
    """
    count, n = mats.shape[:2]
    rot = mats.transpose(0, 2, 1)  # row vectors: x @ g^T = g x
    dp = d.points @ rot
    parts = [d.normals @ rot, np.broadcast_to(k.normals, (count, *k.normals.shape)),
             dp[:, :, None, :] - k.points]
    if n == 3:
        local = k.points @ mats  # g^T q: K's points in D's frame
        parts += [_ridges(d, local).reshape(count, -1, 3) @ rot, _ridges(k, dp)]
    v = np.concatenate([p.reshape(count, -1, n) for p in parts], axis=1)
    norms = np.sqrt(np.einsum("bji,bji->bj", v, v))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 1e-12)
    hd, hk = dp @ v.transpose(0, 2, 1), k.points @ v.transpose(0, 2, 1)
    dr = (d.radius - k.radius) * norms
    # a positive scale commutes with max under rounding: the row max keeps its bits
    return np.concatenate((np.abs(hd.max(axis=1) - hk.max(axis=1) + dr) * scale,
                           np.abs(hd.min(axis=1) - hk.min(axis=1) - dr) * scale), axis=1)


def _triangle_distances(p: np.ndarray, tri: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Distance from each point p[k] to the triangle tri[k] (corners a_i)
    with unit normal ``normal[k]``: the plane distance when p projects into
    the triangle (the products <n x (a_i+1 - a_i), p - a_i> share a sign,
    whichever way the corners turn), else the least distance to its three
    edges (Ericson, Real-Time Collision Detection, 2005, section 5.1.5)."""
    w = p[:, None, :] - tri
    edge = np.roll(tri, -1, axis=1) - tri
    turn = np.einsum("pij,pij->pi", np.cross(normal[:, None, :], edge), w)
    inside = (turn >= 0.0).all(axis=1) | (turn <= 0.0).all(axis=1)
    t = np.einsum("pij,pij->pi", edge, w) / np.einsum("pij,pij->pi", edge, edge)
    w -= np.clip(t, 0.0, 1.0)[:, :, None] * edge
    to_edges = np.sqrt(np.einsum("pij,pij->pi", w, w).min(axis=1))
    to_plane = np.abs(np.einsum("pj,pj->p", normal, p - tri[:, 0]))
    return np.where(inside, to_plane, to_edges)


def _farthest(x: np.ndarray, side: _Side) -> float:
    """max over the rows v of ``x`` of the signed distance sd(v, Q) to the
    3-D polytope Q of ``side``'s points: the distance outside Q, minus the
    distance to its boundary inside.

    sd(v) is at least the largest facet-plane violation, and equal to it
    inside Q; it is at most the distance to the nearest point of Q.  A
    point outside Q whose upper bound beats the best lower bound gets its
    exact distance, the least over the facets visible from it of the
    distance to the facet's triangle.  Points x facets are taken in blocks
    of at most ``_DISTANCE_ENTRIES``.
    """
    if side.facets is None:  # a body of balls alone: one point
        return float(np.linalg.norm(x - side.points[0], axis=1).max())
    normal, tri = side.normals, side.points[side.facets]
    offset = np.einsum("fj,fcj->fc", normal, tri).max(axis=1)
    rows = max(1, _DISTANCE_ENTRIES // len(normal))
    lower = np.concatenate([(x[i:i + rows] @ normal.T - offset).max(axis=1)
                            for i in range(0, len(x), rows)])
    upper = cKDTree(side.points).query(x)[0]
    best = float(np.minimum(lower, upper).max())
    todo = np.flatnonzero((lower > 0.0) & (upper > best))
    for i in range(0, len(todo), rows):
        pts = x[todo[i:i + rows]]
        # pv ascends; a block product may round a violation of about 1e-16
        # to zero, so a block can come out with no visible facet
        pv, pf = np.nonzero(pts @ normal.T - offset > 0.0)
        if pv.size:
            d = _triangle_distances(pts[pv], tri[pf], normal[pf])
            starts = np.flatnonzero(np.r_[True, pv[1:] != pv[:-1]])
            best = max(best, float(np.minimum.reduceat(d, starts).max()))
    return best


def _vertex_hausdorff(d: _Side, k: _Side) -> float:
    """Hausdorff distance of two 3-D kernel sides from vertex distances.

    For convex bodies the sup of h_D - h_K over unit vectors is the
    largest signed distance sd(v, K) over D, attained at a vertex, so for
    parallel bodies d_H(P + rB, Q + sB) = max(0, max_v sd(v, Q) + r - s,
    max_w sd(w, P) + s - r) (Atallah, IPL 17, 1983, for polygons;
    Schneider, Convex Bodies, section 1.8).  O(V F) work, against the
    kernel's O(V^3) entries.
    """
    return max(0.0, _farthest(d.points, k) + d.radius - k.radius,
               _farthest(k.points, d) + k.radius - d.radius)


def exact_hausdorff(a: Body, b: Body) -> float | None:
    """Exact Hausdorff distance of two 2-D or 3-D bodies whose terms are
    polytopes and balls (so parallel bodies P + rB too), else None.

    A 2-D polygon pair takes the sup over the arcs of its common normal
    fan (``_arc_hausdorff``).  That path stays only because the
    benchmark's ``cli`` reference records its last bits: it reads the arc
    ends from hull points rounded to 12 decimals, so it can differ from
    the kernel by about 1e-13.  Every other pair is ``_stacked_gap`` at the
    identity, a stack of one, when its size (``_kernel_size``) is at most
    ``_EXACT_ENTRIES``; larger 3-D pairs take vertex distances
    (``_vertex_hausdorff``), so 3-D polytope/ball pairs are exact at any
    size.  None for larger 2-D pairs with ball terms, for 3-D bodies whose
    polytope part is flat, and for bodies with ellipsoid or sampled terms.
    """
    if body_dim(a) == 2:
        pa, pb = as_polytope(a), as_polytope(b)
        if pa is not None and pb is not None:
            return float(_arc_hausdorff(pa.vertices[None], _fan(pa.hull.polygon)[None],
                                        pb.vertices, _fan(pb.hull.polygon))[0])
    d, k = _side(a), _side(b)
    if d is None or k is None:
        return None
    if _kernel_size(d, k) <= _EXACT_ENTRIES:
        return float(_stacked_gap(d, k, np.eye(body_dim(a))[None])[0])
    return _vertex_hausdorff(d, k) if body_dim(a) == 3 else None


def _tangent_basis(u: np.ndarray) -> np.ndarray:
    """The n - 1 rows of an orthonormal basis of the tangent plane at the
    unit vector u: the quarter turn of u for n = 2; for n = 3, u x e (e the
    axis least aligned with u, normalized) and u times that."""
    if len(u) == 2:
        return np.array([[-u[1], u[0]]])
    e1 = np.cross(u, np.eye(3)[np.argmin(np.abs(u))])
    e1 /= np.linalg.norm(e1)
    return np.array([e1, np.cross(u, e1)])


def hausdorff(
    a: Body,
    b: Body,
    grid: SphericalGrid | None = None,
    refine: bool = True,
) -> float:
    """Hausdorff distance via the sup-norm of the support difference.

    Pairs that ``exact_hausdorff`` covers (polygon pairs, 3-D
    polytope/ball pairs of any size, smaller 2-D parallel bodies) return
    its exact value and sample no grid.  Every other pair, and every pair
    with ``refine=False``, takes the grid maximum, a lower bound.  Unless
    ``refine`` is False, a term is Sampled or n > 3, Nelder-Mead in the
    tangent plane (``_tangent_basis``) polishes it from each of the
    ``_REFINE_STARTS`` largest nodes (ellipsoid terms, flat 3-D
    polytopes, large 2-D parallel bodies).  Every polished value is
    |h_A(u) - h_B(u)| at a unit u, so the result stays a lower bound.
    """
    if body_dim(a) != body_dim(b):
        raise DimensionMismatchError("bodies live in different dimensions")
    dim = body_dim(a)
    if grid is not None and grid.dim != dim:
        raise DimensionMismatchError(f"directions have dim {grid.dim}, body has dim {dim}")
    coarse = not refine or sampled_cell_angle(a) > 0.0 or sampled_cell_angle(b) > 0.0
    exact = None if coarse else exact_hausdorff(a, b)
    if exact is not None:
        return exact

    grid = grid or default_grid(dim)
    diffs = np.abs(support_values(a, grid.nodes) - support_values(b, grid.nodes))
    best = float(diffs.max())
    if coarse or dim > 3:
        return best

    simplex = np.vstack([np.zeros(dim - 1), grid.max_cell_angle * np.eye(dim - 1)])
    for u0 in grid.nodes[np.argsort(diffs)[::-1][:_REFINE_STARTS]]:
        basis = _tangent_basis(u0)

        def neg(st):
            u = u0
            for s, e in zip(st, basis):  # u0 + s_1 e_1 + s_2 e_2, left to right
                u = u + s * e
            u = (u / np.linalg.norm(u))[None, :]
            return -abs(float(support_values(a, u)[0] - support_values(b, u)[0]))

        best = max(best, -float(nelder_mead(neg, simplex, 1e-10, 1e-14, 400)[1]))
    return best


def width(body: Body, u: np.ndarray) -> float:
    """Extent of the body along direction u: h(u) + h(-u)."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise InvalidArgumentError("direction must be finite")
    vals = support_values(body, np.vstack([u, -u]))
    return float(vals[0] + vals[1])
