"""Support-function smoothing: mollification plus ball addition.

``mollify`` convolves the support function with a radial bump supported
on the shell t <= ||z|| <= 2t, producing a smooth support function;
``regularize`` adds a ball of radius t on top and re-centers, which makes
the boundary curvature strictly positive while staying Hausdorff-close to
the input (distance -> 0 as t -> 0, with t = 0 the identity).

The kernel's radial profile is one fixed bump, exp(-1/((s-1)(2-s))) on
1 < s < 2, and ``kernel_rule`` rescales its weights to unit mass, so
linear support functions (point bodies) are reproduced exactly and the
bump's own normalizing constant, which would cancel, is never computed.
Kernel directions are expressed in a body-intrinsic orthonormal frame
built from the exact second moment of the support function; this makes
the smoothing map O(n)-equivariant to floating-point accuracy even at
modest quadrature resolution.  The frame is degenerate for highly
symmetric bodies (ball, cube), which then fall back to the ambient frame;
for those the residual is governed by the quadrature error instead.

The kernel h -> sum_k w_k h(u + z_k) is linear in h, so a body is
smoothed term by term (``bodies.terms``): a term a G L with L a polytope
uses the vertices a V G^T, with L a ball or ellipsoid the center a G c
and matrix a G A G^T (A = rI for a ball), and only ``Sampled`` leaves
form the point cloud u + z_k.  A polytope takes
max_v (<v, u> + <v, z_k>) over the vertices that can still win at u: with
v* the maximizer at u, v survives only if <v* - v, u> <= ||v - v*|| R,
R = max_k ||z_k||, and a direction where v* alone survives is exact in
one product.  The other directions are sorted by candidate set, so rows
with equal sets sit side by side, and a row block takes the max over the
union of its rows' sets, one vertex at a time, with no per-row gather: a
superset of the candidates holds the winner, so no entry changes.  Balls
and ellipsoids sum ||M u + M z_k|| with the squared norm built coordinate
by coordinate (no Gram expansion, which cancels where u + z_k is near
zero).  Every directions x kernel intermediate is blocked to ``_BLOCK``
entries, the package's cache-sized block (``bodies._BLOCK_ENTRIES``):
each kernel allocates its block buffers once per call and reuses them for
every block, so the inner steps run in cache rather than streaming from
memory.  A row's kernel sum is one BLAS
product over its block, so the values can differ in the last bits between
block shapes and row orders, never more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bodies import (
    _BLOCK_ENTRIES as _BLOCK,
    Body,
    Ball,
    Ellipsoid,
    Polytope,
    Sampled,
    Sum,
    as_polytope,
    body_dim,
    support_values,
    terms,
    terms_support,
)
from .errors import DimensionMismatchError, InvalidArgumentError
from .metrics import recenter, support_moment_matrix
from .quadrature import _MAX_GRID_NODES, SphericalGrid, default_grid, make_grid_2d, make_grid_3d

_MAX_RADIAL = 256  # Gauss-Legendre radial nodes; the bump needs far fewer


def _bump_raw(s):
    """exp(-1/((s-1)(2-s))) on (1, 2), zero elsewhere; not normalized."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 1.0) & (s < 2.0)
    si = s[inside]
    out[inside] = np.exp(-1.0 / ((si - 1.0) * (2.0 - si)))
    return out


@dataclass(frozen=True)
class RegularizationParams:
    """Smoothing scale t plus convolution quadrature resolution.

    ``t`` in [0, 1]; t = 0 means the identity map (no integral involved).
    ``angular_nodes`` is the size of the kernel's spherical rule: a node
    count for n=2, and a total budget split into a lat x lon product for
    n=3 (2048 -> 32 x 64).  Node counts are integers, ``radial_nodes`` in
    [4, 256] and ``angular_nodes`` >= 8, with at most 2^20 kernel nodes
    ``radial_nodes x angular_nodes``; larger kernels are refused, not
    allocated.
    """

    t: float
    radial_nodes: int = 16
    angular_nodes: int | None = None

    def __post_init__(self):
        if isinstance(self.t, bool) or not isinstance(self.t, (int, float, np.integer, np.floating)):
            raise InvalidArgumentError("t must be a number")
        if not 0.0 <= self.t <= 1.0:
            raise InvalidArgumentError("t must lie in [0, 1]")
        counts = (self.radial_nodes, 8 if self.angular_nodes is None else self.angular_nodes)
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in counts):
            raise InvalidArgumentError("radial_nodes and angular_nodes must be integers")
        if not 4 <= self.radial_nodes <= _MAX_RADIAL:
            raise InvalidArgumentError(f"need 4 to {_MAX_RADIAL} radial nodes")
        if self.angular_nodes is not None and self.angular_nodes < 8:
            raise InvalidArgumentError("need at least 8 angular nodes")
        if int(self.radial_nodes) * int(self.angular_nodes or 0) > _MAX_GRID_NODES:
            raise InvalidArgumentError(f"the kernel may have at most {_MAX_GRID_NODES} nodes")

    def angular_grid(self, dim: int) -> SphericalGrid:
        target = self.angular_nodes
        if dim == 2:
            return make_grid_2d(target or 512)
        if dim == 3:
            n_lat = max(4, math.isqrt((target or 2048) // 2))
            return make_grid_3d(n_lat, 2 * n_lat)
        return default_grid(dim)


def kernel_rule(params: RegularizationParams, dim: int):
    """Unit-mass product rule for the shell convolution.

    Returns (offsets, weights), read-only and shared per node counts and
    dimension: points of the shell 1 <= ||z|| <= 2 (to be scaled by t)
    and weights summing to one.
    """
    return _kernel_rule(replace(params, t=0.0), dim)


@functools.lru_cache(maxsize=8)
def _kernel_rule(params: RegularizationParams, dim: int):
    s, glw = np.polynomial.legendre.leggauss(params.radial_nodes)
    s = 1.5 + 0.5 * s
    glw = 0.5 * glw
    radial = glw * _bump_raw(s) * s ** (dim - 1)
    ang = params.angular_grid(dim)
    weights = np.outer(radial, ang.weights).ravel()
    weights /= weights.sum()
    offsets = (s[:, None, None] * ang.nodes[None, :, :]).reshape(-1, dim)
    for array in (offsets, weights):
        array.setflags(write=False)
    return offsets, weights


def canonical_frame(body: Body) -> np.ndarray:
    """Body-intrinsic orthonormal frame from support-moment diagonalization.

    Columns are eigenvectors of the exact second moment of h, ordered by
    descending eigenvalue, signs fixed by third moments.  Covariant under
    O(n) for bodies with simple moment spectrum; identity fallback when the
    spectrum or a sign functional degenerates.  Kept on a polytope.
    """
    if isinstance(body, Polytope):
        return body.memo("frame", _canonical_frame)
    return _canonical_frame(body)


def _canonical_frame(body: Body) -> np.ndarray:
    n = body_dim(body)
    m = support_moment_matrix(body)
    evals, evecs = np.linalg.eigh(m)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    scale = max(abs(evals[0]), 1.0)
    gaps = np.diff(evals)
    if np.any(np.abs(gaps) < 1e-9 * scale):
        return np.eye(n)
    ref = default_grid(n)
    h = support_values(body, ref.nodes)
    wh = ref.weights * h
    for i in range(n):
        third = float(wh @ (ref.nodes @ evecs[:, i]) ** 3)
        if abs(third) < 1e-9 * scale:
            return np.eye(n)
        if third < 0:
            evecs[:, i] = -evecs[:, i]
    return evecs


def _block_rows(k: int) -> int:
    return max(1, _BLOCK // k)


def _row_blocks(n_rows: int, k: int):
    block = _block_rows(k)
    for start in range(0, n_rows, block):
        yield start, min(start + block, n_rows)


def _polytope_kernel(vertices, dirs, offsets, weights, out):
    """Add sum_k w_k max_v <v, u + z_k> to ``out``, pruning vertices per row.

    With v* the vertex maximizing <v, u>, a vertex v can win at u + z only
    if <v* - v, u> <= ||v - v*|| max_k ||z_k||; rows left with v* alone
    are linear over the kernel and cost one product; a block of the other
    rows maximizes over the union of its rows' candidates.
    """
    a = dirs @ vertices.T
    b_t = np.ascontiguousarray((offsets @ vertices.T).T)
    best = a.argmax(axis=1)
    top = a[np.arange(dirs.shape[0]), best]
    winners, best_of_row = np.unique(best, return_inverse=True)
    gap = np.zeros((winners.size, vertices.shape[0]))
    for j in range(vertices.shape[1]):
        gap += (vertices[winners, j, None] - vertices[None, :, j]) ** 2
    reach = float(np.linalg.norm(offsets, axis=1).max())
    size = float(np.linalg.norm(vertices, axis=1).max())
    slack = 8.0 * np.finfo(float).eps * (1.0 + reach) * size
    cand = (top[:, None] - a) <= np.sqrt(gap)[best_of_row] * reach + slack
    single = cand.sum(axis=1) == 1
    out[single] += top[single] + (b_t @ weights)[best[single]]
    multi = np.flatnonzero(~single)
    if multi.size == 0:
        return
    # equal candidate sets side by side, so a block's union stays small
    multi = multi[np.lexsort(np.packbits(cand[multi], axis=1).T[::-1])]
    k = offsets.shape[0]
    acc = np.empty((min(_block_rows(k), multi.size), k))
    tmp = np.empty_like(acc)
    for start, stop in _row_blocks(multi.size, k):
        rows = multi[start:stop]
        a_rows, hi, cur = a[rows], acc[: rows.size], tmp[: rows.size]
        first, *union = np.flatnonzero(cand[rows].any(axis=0))
        np.add(a_rows[:, first, None], b_t[first], out=hi)
        for v in union:
            np.add(a_rows[:, v, None], b_t[v], out=cur)
            np.maximum(hi, cur, out=hi)
        out[rows] += hi @ weights


def _norm_kernel(center, matrix, dirs, offsets, weights, out):
    """Add sum_k w_k (<c, u + z_k> + ||M (u + z_k)||) to ``out``; M = rI for a ball.

    The squared norm is accumulated one coordinate at a time from
    (Mu)_j + (Mz_k)_j; expanding it through the Gram terms would cancel
    catastrophically where u + z_k is near zero (t >= 1/2).
    """
    mu = dirs @ matrix
    mz_t = np.ascontiguousarray((offsets @ matrix).T)
    out += dirs @ center + (weights @ offsets) @ center
    k = offsets.shape[0]
    sq = np.empty((min(_block_rows(k), dirs.shape[0]), k))
    tmp = np.empty_like(sq)
    for start, stop in _row_blocks(dirs.shape[0], k):
        s, t = sq[: stop - start], tmp[: stop - start]
        np.add(mu[start:stop, 0, None], mz_t[0], out=s)
        s *= s
        for j in range(1, mz_t.shape[0]):
            np.add(mu[start:stop, j, None], mz_t[j], out=t)
            t *= t
            s += t
        np.sqrt(s, out=s)
        out[start:stop] += s @ weights


def mollified_support_values(
    body: Body,
    params: RegularizationParams,
    directions: np.ndarray,
    frame: np.ndarray | None = None,
) -> np.ndarray:
    """Smoothed support values at the given (finite) unit directions.

    T(D)(u) = sum_ij  c_ij h_D(u + t s_i v_j)  with the kernel directions
    v_j expressed in the body's canonical frame.  The map is linear in h,
    so the body is smoothed term by term: polytope, ball and ellipsoid
    terms in closed vectorized form, sampled leaves through support values
    of the point cloud u + t s_i v_j.  Overflowing kernel sums raise.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if not np.isfinite(dirs).all():
        raise InvalidArgumentError("directions must be finite")
    if params.t == 0.0:
        return support_values(body, dirs)
    n = body_dim(body)
    if dirs.shape[1] != n:
        raise DimensionMismatchError(f"directions have dim {dirs.shape[1]}, body has dim {n}")
    if frame is None:
        frame = canonical_frame(body)
    offsets, weights = kernel_rule(params, n)
    offsets = params.t * (offsets @ frame.T)
    k = offsets.shape[0]
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = np.zeros(dirs.shape[0])
            rest = []
            for term in terms(body):
                a, g, leaf = term
                if isinstance(leaf, Polytope):
                    verts = leaf.vertices if g is None else leaf.vertices @ g.T
                    _polytope_kernel(a * verts, dirs, offsets, weights, out)
                elif isinstance(leaf, Ball):
                    matrix = a * leaf.radius * np.eye(n)
                    _norm_kernel(term.push(leaf.center), matrix, dirs, offsets, weights, out)
                elif isinstance(leaf, Ellipsoid):
                    matrix = term.push_moment(leaf.matrix)
                    _norm_kernel(term.push(leaf.center), matrix, dirs, offsets, weights, out)
                else:
                    rest.append(term)
            if not rest:
                return out
            for start, stop in _row_blocks(dirs.shape[0], k):
                pts = (dirs[start:stop, None, :] + offsets[None, :, :]).reshape(-1, n)
                vals = terms_support(rest, pts).reshape(stop - start, k)
                out[start:stop] += vals @ weights
            return out
    except FloatingPointError:
        raise InvalidArgumentError("directions too large: the kernel sums overflow") from None


def mollify(
    body: Body,
    params: RegularizationParams,
    grid: SphericalGrid,
) -> Sampled:
    """Smooth the support function; result sampled on the given grid."""
    values = mollified_support_values(body, params, grid.nodes)
    return Sampled(grid, values)


def _check_full_dimensional(body: Body, grid: SphericalGrid):
    poly = as_polytope(body)
    if poly is not None:
        flat = not poly.is_full_dimensional
    else:
        widths = support_values(body, grid.nodes) + support_values(body, -grid.nodes)
        flat = float(widths.min()) <= 1e-12
    if flat:
        raise InvalidArgumentError("regularize needs a full-dimensional body")


def regularize(
    body: Body,
    params: RegularizationParams,
    grid: SphericalGrid,
) -> Body:
    """Smooth, add a ball of radius t, and re-center.

    The output is Sum(sampled smooth part, Ball(o, t)) translated so its
    Steiner point is at the origin; it passes the curvature positivity
    test with margin scaling like t and converges to recenter(body) in
    Hausdorff distance as t -> 0.
    """
    if grid.dim != body_dim(body):
        raise DimensionMismatchError("grid dimension does not match body")
    if params.t == 0.0:
        return recenter(body, grid)
    _check_full_dimensional(body, grid)
    smooth = mollify(body, params, grid)
    fat = Sum(smooth, Ball(np.zeros(body_dim(body)), params.t))
    return recenter(fat, grid)
