"""Finite subsets of O(n): candidate scans and exact maps between polytopes.

n=2: equally spaced rotations, optionally with the reflection coset.
n=3: a near-uniform super-Fibonacci spiral over SO(3) plus the rotation
groups of the platonic solids (useful exact symmetry candidates), again
optionally doubled into the improper coset.

``orthogonal_maps`` enumerates instead of scanning: every orthogonal g
that carries the hull vertices of one polytope onto those of another
(Alt, Mehlhorn, Wagner & Welzl, DCG 3, 1988), polished by an orthogonal
Procrustes fit (Umeyama, IEEE TPAMI 13, 1991).
"""

from __future__ import annotations

import functools
import math
from itertools import permutations

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from .bodies import Polytope
from .errors import DimensionMismatchError, InvalidArgumentError

_MATCH_ENTRIES = 1 << 18  # candidate x vertex entries per matching block
_PHI = math.sqrt(2.0)
_PSI = 1.533751168755204288118041


def rotation_matrix_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def quaternion_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def so3_fibonacci(count: int) -> np.ndarray:
    """Near-uniform deterministic SO(3) sample (super-Fibonacci spiral)."""
    i = np.arange(count, dtype=float)
    s = i + 0.5
    t = s / count
    d = 2.0 * math.pi * s
    r = np.sqrt(t)
    big_r = np.sqrt(1.0 - t)
    alpha = d / _PHI
    beta = d / _PSI
    quats = np.column_stack(
        [r * np.sin(alpha), r * np.cos(alpha), big_r * np.sin(beta), big_r * np.cos(beta)]
    )
    return np.asarray([quaternion_matrix(q) for q in quats])


def octahedral_rotations() -> np.ndarray:
    """The 24 rotations of the cube: signed permutations with det 1."""
    mats = []
    for perm in permutations(range(3)):
        p = np.zeros((3, 3))
        p[np.arange(3), perm] = 1.0
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                for sz in (-1.0, 1.0):
                    m = p * np.array([sx, sy, sz])[:, None]
                    if np.linalg.det(m) > 0:
                        mats.append(m)
    return np.asarray(mats)


@functools.cache
def icosahedral_rotations() -> np.ndarray:
    """The 60 rotations of the icosahedron, built from its hull geometry.

    Built once and shared: the result is a cached read-only array.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.extend([[0.0, a, b], [a, b, 0.0], [b, 0.0, a]])
    verts = np.asarray(verts)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    hull = ConvexHull(verts)

    mats = [np.eye(3)]
    seen_axes: list[np.ndarray] = []

    def add_axis(axis, order):
        axis = axis / np.linalg.norm(axis)
        for a in seen_axes:
            if abs(float(a @ axis)) > 1.0 - 1e-9:
                return
        seen_axes.append(axis)
        for k in range(1, order):
            mats.append(axis_angle_matrix(axis, 2.0 * math.pi * k / order))

    for v in verts:
        add_axis(v, 5)
    for simplex in hull.simplices:
        add_axis(verts[simplex].mean(axis=0), 3)
    edges = set()
    for simplex in hull.simplices:
        for i in range(3):
            e = tuple(sorted((simplex[i], simplex[(i + 1) % 3])))
            edges.add(e)
    for i, j in sorted(edges):
        add_axis(0.5 * (verts[i] + verts[j]), 2)
    mats = np.asarray(mats)
    mats.setflags(write=False)
    return mats


def _dedup(mats: np.ndarray) -> np.ndarray:
    seen = {}
    for m in mats:
        seen.setdefault(tuple(np.round(m, 9).ravel()), m)
    return np.asarray(list(seen.values()))


@functools.lru_cache(maxsize=8)
def circle_candidates(n_angles: int = 720, reflections: bool = True) -> np.ndarray:
    """Rotation (and optionally reflection) grid over O(2); one shared
    read-only array per argument tuple."""
    mats = np.asarray(
        [rotation_matrix_2d(2.0 * math.pi * k / n_angles) for k in range(n_angles)]
    )
    if reflections:
        mats = np.concatenate([mats, mats @ np.diag([1.0, -1.0])])
    mats.setflags(write=False)
    return mats


@functools.lru_cache(maxsize=8)
def sphere_candidates(grid_size: int = 576, reflections: bool = True) -> np.ndarray:
    """Rotation grid over SO(3) / O(3) with platonic symmetry candidates;
    one shared read-only array per argument tuple."""
    parts = [so3_fibonacci(grid_size), octahedral_rotations(), icosahedral_rotations()]
    mats = _dedup(np.concatenate(parts))
    if reflections:
        mats = np.concatenate([mats, -mats])
    mats.setflags(write=False)
    return mats


def default_candidates(dim: int, reflections: bool = True) -> np.ndarray:
    if dim == 2:
        return circle_candidates(720, reflections)
    if dim == 3:
        return sphere_candidates(576, reflections)
    raise InvalidArgumentError("candidate sets provided for n = 2 and n = 3 only")


def _extreme_points(poly: Polytope) -> np.ndarray:
    """Unrounded hull vertices, in 2-D in counterclockwise ring order."""
    return poly.vertices[poly.hull.index[poly.hull.extreme]]


def _frames(first: np.ndarray, second: np.ndarray | None, sign: float) -> np.ndarray:
    """Orthonormal frames (columns) from stacked first and second vectors;
    ``sign`` multiplies the last column (the orientation).  A zero first
    vector or a parallel second one gives a NaN frame, which callers drop."""
    with np.errstate(invalid="ignore", divide="ignore"):
        e1 = first / np.linalg.norm(first, axis=-1, keepdims=True)
        if second is None:  # n = 2: e1 and its quarter turn
            return np.stack([e1, sign * np.stack([-e1[..., 1], e1[..., 0]], axis=-1)], axis=-1)
        e2 = second - np.sum(second * e1, axis=-1, keepdims=True) * e1
        e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    return np.stack([e1, e2, sign * np.cross(e1, e2)], axis=-1)


def _basis_images(a, b, na, nb, i1, i2, first, tol, step):
    """Index arrays of images (w_1, w_2) in b of the basis (a_i1, a_i2),
    at most ``step`` pairs at a time: w_1 from ``first``, w_2 of the norm
    of a_i2, and the Gram entry w_1 . w_2 within what tol allows.  The
    Gram rows are formed in blocks of about ``_MATCH_ENTRIES`` entries."""
    if i2 is None:  # n = 2: the image of a_i1 fixes g up to orientation
        for i in range(0, len(first), step):
            yield first[i:i + step], None
        return
    gap = tol * (na[i1] + na[i2]) + tol * tol
    dot = a[i1] @ a[i2]
    near = np.flatnonzero(np.abs(nb - na[i2]) <= tol)
    # b.T made contiguous: OpenBLAS took 16 ms on the view, 0.4 ms on a copy
    # (512 points, 2-vCPU VM)
    bt = np.ascontiguousarray(b[near].T)
    rows = max(1, _MATCH_ENTRIES // max(1, len(near)))
    for i in range(0, len(first), rows):
        r, c = np.nonzero(np.abs(b[first[i:i + rows]] @ bt - dot) <= gap)
        for j in range(0, len(r), step):
            yield first[i:i + rows][r[j:j + step]], near[c[j:j + step]]


def _vertex_images(tree: cKDTree, radius: float, a: np.ndarray, order: np.ndarray,
                   mats: np.ndarray) -> np.ndarray:
    """Rows of vertex indices pi with g a_i within ``radius`` of b_pi(i),
    one row per g in ``mats`` that sends every point of a near a distinct
    point of b (``tree`` of b; the others are dropped after probing the
    first four points of ``order``)."""
    idx = np.empty((len(mats), len(a)), dtype=int)
    for part in (order[:4], order[4:]):
        hit = tree.query(a[part] @ mats.transpose(0, 2, 1), distance_upper_bound=radius)[1]
        keep = (hit < len(a)).all(axis=1)
        mats, idx = mats[keep], idx[keep]
        idx[:, part] = hit[keep]
    return idx[(np.diff(np.sort(idx, axis=1), axis=1) > 0).all(axis=1)]


def orthogonal_maps(p: Polytope, q: Polytope, tol: float) -> np.ndarray:
    """Every orthogonal g that maps the hull vertices of P onto those of Q.

    Returns the stacked matrices g whose smallest matched displacement
    max_i |g v_i - w_pi(i)| over a bijection pi of the hull vertices is
    below ``tol``.  That displacement bounds |h_gP - h_Q| everywhere, so
    hausdorff(g P, Q) < tol for every member; the converse fails: a map
    that meets tol only by moving a vertex onto an edge or facet of Q, not
    onto a vertex, is not found, and neither, once tol nears a hundredth
    of the median nearest-vertex distance, is one whose first guess moves
    a vertex by more than a third of that distance.  Members are ordered
    by their vertex permutation (the identity first when P is Q).

    A basis v_1 (rarest norm among vertices of at least a quarter of the
    largest norm) and, in 3-D, v_2 (farthest from the line through v_1)
    is matched to every image tuple of Q with the same norms and Gram
    entries within what tol allows; each tuple and an orientation fix g
    on orthonormal frames.  A candidate is kept when a KD-tree of Q's
    vertices finds every vertex near a distinct vertex, and an orthogonal
    Procrustes fit over all matched pairs polishes it.  Work is done in
    blocks of about ``_MATCH_ENTRIES`` entries; the candidate count, and
    so the time, grows with tol on bodies with many equal Gram entries.
    """
    n = p.dim
    if q.dim != n:
        raise DimensionMismatchError("polytopes live in different dimensions")
    if n not in (2, 3):
        raise InvalidArgumentError("orthogonal maps computed for n = 2 and n = 3 only")
    if not (p.is_full_dimensional and q.is_full_dimensional):
        raise InvalidArgumentError("orthogonal maps need full-dimensional polytopes")
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError("tol must be positive and finite")
    a, b = _extreme_points(p), _extreme_points(q)
    if len(a) != len(b):
        return np.empty((0, n, n))
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    big = na >= 0.25 * na.max()
    sb = np.sort(nb)
    count = np.searchsorted(sb, na + tol, "right") - np.searchsorted(sb, na - tol, "left")
    i1 = int(np.lexsort((-na, np.where(big, count, len(a) + 1)))[0])
    first = np.flatnonzero(np.abs(nb - na[i1]) <= tol)
    if n == 2:
        i2, span = None, na[i1]
    else:
        # v_2: the vertex farthest from the line through v_1
        cross = np.linalg.norm(np.cross(a[i1], a), axis=1)
        i2 = int(np.argmax(cross))
        span = min(na[i1], cross[i2] / na[i1])
    base = _frames(a[i1], None if i2 is None else a[i2], 1.0)
    # the frames' directions are off by a few tol / span, so g0 moves a
    # vertex well within tol * (1 + 32 R / span) of where the true map
    # does; a third of the typical vertex spacing caps it, so that a large
    # tol does not let one lookup reach several vertices
    tree = cKDTree(b)
    spacing = float(np.median(tree.query(b, k=2)[0][:, 1]))
    radius = min(tol * (1.0 + 32.0 * na.max() / span), spacing / 3.0)
    order = np.argsort(-na, kind="stable")
    step = max(1, _MATCH_ENTRIES // len(a))
    rows = [np.empty((0, len(a)), dtype=int)]
    for j1, j2 in _basis_images(a, b, na, nb, i1, i2, first, tol, step):
        for sign in (1.0, -1.0):
            mats = _frames(b[j1], None if j2 is None else b[j2], sign) @ base.T
            mats = mats[np.isfinite(mats).all(axis=(1, 2))]
            rows.append(_vertex_images(tree, radius, a, order, mats))
    idx = np.unique(np.concatenate(rows), axis=0)
    if len(idx) == 0:
        return np.empty((0, n, n))
    u, _, vt = np.linalg.svd(b[idx].transpose(0, 2, 1) @ a)
    mats = u @ vt
    diff = a @ mats.transpose(0, 2, 1) - b[idx]
    disp = np.sqrt(np.einsum("cmi,cmi->cm", diff, diff).max(axis=1))
    return mats[disp < tol]
