"""Convex-body representations and support-function evaluation.

A body is a symbolic expression tree: explicit leaves (``Polytope``,
``Ball``, ``Ellipsoid``, ``Sampled(grid, values)``) combined by ``Sum``
(Minkowski sum), ``Scaled`` and ``Rotated`` nodes; the node classes are
the constructors.  Everything is evaluated lazily through its support
function h(x) = sup { <p, x> : p in body }, extended positively
homogeneously off the unit sphere.

Support functions are Minkowski-linear, h_{aG K + L}(x) = a h_K(G^T x) +
h_L(x), so ``terms`` flattens any tree once into the list of its terms
(a_i, G_i, L_i); every evaluation is a loop over that list with a
dispatch on the leaf type.  Only ``terms`` and the structural maps
(``translate`` here, the serializer) look at the tree itself.

Long direction arrays run in ``row_blocks`` of 65,536 entries (512 KiB).
BLAS rounds a row alike in any product of two or more rows, and a one-row
product differently, so no block is one row of many: values keep their bits.

All values are immutable; operations are pure functions and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from operator import add
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidBodyError,
)
from .quadrature import SphericalGrid

# Entries (rows x width) of a row block, 512 KiB of float64, shared with regularization's
# kernels: on a 2 MiB-L2 Xeon 32k-64k ran fastest, 16k paid overhead, 256k+ streamed.
_BLOCK_ENTRIES = 65_536
# Largest hull coordinate magnitude: from about 4e76 qhull reads full-rank sets as flat.
MAX_EXTENT = 1e76


def unit_vector(x) -> np.ndarray:
    """Validate that x is a unit vector and return it as a float array."""
    u = np.asarray(x, dtype=float)
    if u.ndim != 1:
        raise InvalidArgumentError("direction must be a 1-D vector")
    if not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
        raise InvalidArgumentError(f"direction must be unit length, got {u!r}")
    return u


@dataclass(frozen=True)
class Rotation:
    """Element of O(n): an orthogonal matrix with det +-1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("rotation matrix must be square")
        eye = np.eye(m.shape[0])
        # np.allclose(m^T m, eye, atol=1e-10) at a fraction of its cost
        if not (np.abs(m.T @ m - eye) <= 1e-10 + 1e-5 * eye).all():
            raise InvalidArgumentError("matrix is not orthogonal")
        if abs(abs(np.linalg.det(m)) - 1.0) > 1e-10:
            raise InvalidArgumentError("matrix determinant must be +-1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class Body:
    """Marker base class for body representation nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Hull:
    """Face structure of a polytope; a rigid motion moves it without qhull.

    ``points`` are the distinct vertices rounded to 12 decimals (point i
    is row ``index[i]`` of the vertex array), ``rank`` their affine rank,
    the one rank rule of the package (``Polytope.is_full_dimensional``
    reads it), and ``extreme`` indexes the extreme points: the single
    point, the two ends of a segment, qhull's vertices of a full-rank set
    (ascending in 3-D, the order of the cones), or the hull in the plane
    of a flat one.  In 2-D ``extreme`` is the counterclockwise ``ring`` (a
    reflection reverses it; a cut clips its parent's ring into a record
    without qhull, ``ring_polytope``), with the normal cone arcs ``arcs``.  In 3-D ``edges`` are sorted index pairs in
    lexicographic order (with the diagonals of triangulated flat faces),
    ``normals`` the unit outward facet normals, ``facets[f]`` the three
    point indices of the triangle with normal ``normals[f]`` (qhull's
    simplices, in no consistent orientation; a rigid motion leaves them
    unchanged), ``edge_facets[e]`` the two rows of ``normals`` that meet at
    edge e, and row k of ``cones`` is a unit normal in the normal cone of
    hull vertex ``cone_owner[k]`` (rows grouped by vertex, duplicates
    removed); these are None when qhull fails (fewer than four points,
    exactly coplanar sets) and kept for the sliver hulls qhull builds
    around nearly flat ones.  All arrays are read-only.
    """

    points: np.ndarray
    index: np.ndarray
    rank: int
    extreme: np.ndarray
    edges: np.ndarray | None = None
    edge_facets: np.ndarray | None = None
    normals: np.ndarray | None = None
    facets: np.ndarray | None = None
    cone_owner: np.ndarray | None = None
    cones: np.ndarray | None = None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def ring(self) -> np.ndarray | None:
        """2-D hull vertex indices in counterclockwise order (None in 3-D)."""
        return self.extreme if self.points.shape[1] == 2 else None

    @property
    def polygon(self) -> np.ndarray:
        """2-D hull vertices in counterclockwise order."""
        return self.points[self.ring]

    @property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the normal-cone arc of each 2-D ring vertex, from the
        normal angle of the edge into it to that of the edge out of it, hi
        lifted by 2 pi past the wrap; a point's arc is the whole circle."""
        if len(self.ring) == 1:
            return np.zeros(1), np.full(1, 2.0 * math.pi)
        hi = ring_normal_angles(self.polygon)
        lo = np.concatenate((hi[-1:], hi[:-1]))
        return lo, np.where(hi < lo, hi + 2.0 * math.pi, hi)

    def vertex_cones(self):
        """(point index, unit normals of its normal cone) per 3-D hull vertex."""
        cut = np.flatnonzero(np.diff(self.cone_owner)) + 1
        owners = self.cone_owner[np.concatenate([[0], cut])].tolist()
        return zip(owners, np.split(self.cones, cut))


@lru_cache(maxsize=64)
def _successors(m: int) -> np.ndarray:
    """1, 2, ..., m - 1, 0: the next index around a ring of m points (read-only)."""
    succ = np.roll(np.arange(m), -1)
    succ.flags.writeable = False
    return succ


def ring_normal_angles(ring: np.ndarray) -> np.ndarray:
    """Outward-normal angle of each edge k -> k+1 of a CCW 2-D ring, in [0, 2 pi),
    or of each ring of a stack (count, m, 2)."""
    edges = ring.take(_successors(ring.shape[-2]), axis=-2) - ring
    return np.mod(np.arctan2(-edges[..., 0], edges[..., 1]), 2.0 * math.pi)


def _noise(points: np.ndarray) -> float:
    """Rank tolerance: the Frobenius norm of rounding to 12 decimals (plus a few ulps),
    which bounds the singular values the rounding can add to a lower-rank set."""
    return math.sqrt(points.size) * (1e-12 + 16.0 * np.finfo(float).eps * np.abs(points).max())


def _rank(points: np.ndarray):
    """(rank, centered, the point or the segment's ends or None): the package's one rank rule."""
    centered = points - points.mean(axis=0)
    rank = int(np.linalg.matrix_rank(centered, tol=_noise(points))) if len(points) > 1 else 0
    if rank != 1:
        return rank, centered, np.zeros(1, dtype=int) if rank == 0 else None
    proj = centered @ centered[np.argmax(np.linalg.norm(centered, axis=1))]
    return rank, centered, np.array([proj.argmin(), proj.argmax()])


def _distinct_rows(points: np.ndarray):
    """``np.unique(points, axis=0, return_index=True)`` bit for bit, by one stable lexsort."""
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    return ranked[first], order[first]


def _extremes(vertices: np.ndarray):
    """(points, index, rank, qhull hull or None, extreme) of a vertex array.

    The distinct points rounded to 12 decimals, row ``index[i]`` of the
    input for point i, their affine rank above the rounding noise, and
    the indices of the extreme points (see ``Hull``).  qhull is tried on
    every set of more than ``dim`` points; a full-rank set takes its
    vertices, a lower-rank one its extreme points in its own subspace.
    """
    points, index = _distinct_rows(np.round(vertices, 12))
    n, dim = points.shape
    rank, centered, extreme = _rank(points)
    try:
        qh = ConvexHull(points) if dim > 1 and n > dim else None
    except QhullError:
        qh = None
    if rank == dim and qh is not None:
        extreme = qh.vertices
    elif rank >= 2:  # the hull in the subspace of the points
        basis = np.linalg.svd(centered, full_matrices=False)[2][:rank]
        try:
            extreme = ConvexHull(centered @ basis.T).vertices
        except QhullError:
            extreme = np.arange(n)
    return points, index, rank, qh, extreme


def _build_hull(vertices: np.ndarray) -> Hull:
    points, index, rank, qh, extreme = _extremes(vertices)
    if points.shape[1] != 3 or qh is None:
        return Hull(points, index, rank, extreme)
    eq = qh.equations[:, :3]
    s, nb = qh.simplices, qh.neighbors
    # the edge opposite corner c of simplex f is shared with simplex nb[f, c]
    f, c = np.nonzero(np.arange(s.shape[0])[:, None] < nb)
    ends = np.sort(np.column_stack([s[f, (c + 1) % 3], s[f, (c + 2) % 3]]), axis=1)
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    owner, cones = _vertex_cones(eq, s)
    normals = eq / np.linalg.norm(eq, axis=1, keepdims=True)
    return Hull(points, index, rank, extreme, edges=ends[order],
                edge_facets=np.column_stack([f, nb[f, c]])[order], normals=normals,
                cone_owner=owner, cones=cones, facets=s)


def _vertex_cones(eq: np.ndarray, simplices: np.ndarray):
    """(owner, unit normal) rows of the vertex normal cones of a 3-D hull.

    Rows are grouped by vertex in ascending order, each vertex's facets
    in ascending order; a row is dropped when its facet normal dots an
    earlier kept row of its vertex above 1 - 1e-12.  Stacked (1 x 3)(3 x 1)
    products call BLAS ddot as 1-D dots and norms do, so the rows round as
    a per-vertex loop's ``n / np.linalg.norm(n)`` and ``n @ k``.
    """
    corners = simplices.ravel()
    order = np.argsort(corners, kind="stable")
    owner = corners[order]
    rows = np.ascontiguousarray(eq[order // 3])
    unit = rows / np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0])
    first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    pos = np.arange(len(owner)) - np.repeat(first, np.diff(np.r_[first, len(owner)]))
    # every pair (i, j) with row i before row j in one vertex's group
    j = np.repeat(np.arange(len(owner)), pos)
    i = j - np.repeat(pos, pos) + (np.arange(len(j)) - np.repeat(np.cumsum(pos) - pos, pos))
    dup = np.matmul(rows[j, None, :], unit[i, :, None])[:, 0, 0] > 1.0 - 1e-12
    i, j = i[dup], j[dup]
    keep = np.ones(len(owner), dtype=bool)
    for p in np.unique(pos[j]).tolist():  # greedy: earlier positions are final
        at = pos[j] == p
        keep[j[at][keep[i[at]]]] = False
    return owner[keep].astype(int), unit[keep]


@dataclass(frozen=True)
class Polytope(Body):
    """Convex hull of a finite vertex set (redundant vertices allowed).

    Lower-dimensional compacta (segments, points) are permitted; use
    ``is_full_dimensional`` to distinguish them.  The vertices are a
    private read-only copy, so the cached ``hull`` and ``memo`` cannot go stale.
    """

    vertices: np.ndarray
    _hull: Hull | None = field(default=None, init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, order="C", ndmin=2)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        if v.size == 0:
            raise InvalidBodyError("polytope needs at least one vertex")
        if v.ndim != 2:
            raise InvalidBodyError("vertices must be a 2-D array")
        if not np.isfinite(v).all():
            raise InvalidBodyError("vertices must be finite")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def is_full_dimensional(self) -> bool:
        """Whether the hull's ``rank`` (above the rounding noise) is ``dim``."""
        return self.hull.rank == self.dim

    @property
    def hull(self) -> Hull:
        """Face structure, built with qhull on first use and then cached;
        ``InvalidBodyError`` for a coordinate beyond ``MAX_EXTENT``."""
        if self._hull is None:
            if not np.abs(self.vertices).max() <= MAX_EXTENT:
                raise InvalidBodyError(f"polytope has coordinates beyond {MAX_EXTENT:g} in magnitude")
            object.__setattr__(self, "_hull", _build_hull(self.vertices))
        return self._hull

    def memo(self, key: str, compute):
        """``compute(self)`` on first use, then kept (an array comes back as a copy);
        only for values the vertices alone fix: moved copies start empty."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        value = self._memo[key]
        return value.copy() if isinstance(value, np.ndarray) else value


def rigid_motion(poly: Polytope, matrix: np.ndarray | None = None, shift=None) -> Polytope:
    """The polytope g P + shift for an orthogonal g (identity when None).

    A cached hull is carried over (up to ``MAX_EXTENT``) instead of rebuilt: the
    points, facet normals and cones move, and a reflection reverses the 2-D ring.
    """
    v = poly.vertices if matrix is None else poly.vertices @ matrix.T
    moved = Polytope(v if shift is None else v + shift)
    hull = poly._hull
    if hull is not None and np.abs(moved.vertices).max() <= MAX_EXTENT:
        extreme, normals, cones = hull.extreme, hull.normals, hull.cones
        if matrix is not None:
            if poly.dim == 2 and np.linalg.det(matrix) < 0:
                extreme = extreme[::-1]
            if normals is not None:
                normals, cones = normals @ matrix.T, cones @ matrix.T
        points = np.round(moved.vertices[hull.index], 12)
        carried = replace(hull, points=points, extreme=extreme, normals=normals, cones=cones)
        object.__setattr__(moved, "_hull", carried)
    return moved


@dataclass(frozen=True)
class Ball(Body):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if c.ndim != 1:
            raise InvalidBodyError("ball center must be a vector")
        if not np.isfinite(np.append(c, self.radius)).all():
            raise InvalidBodyError("ball center and radius must be finite")
        if self.radius <= 0:
            raise InvalidBodyError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class Ellipsoid(Body):
    """Image of the unit ball: center + A * B^n with A symmetric positive-definite."""

    center: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.center, dtype=float))
        a = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "matrix", a)
        n = c.shape[0]
        if a.shape != (n, n):
            raise InvalidBodyError("ellipsoid matrix must be n x n")
        if not np.isfinite(np.append(c, a)).all():
            raise InvalidBodyError("ellipsoid center and matrix must be finite")
        if not np.allclose(a, a.T, atol=1e-10 * max(1.0, np.abs(a).max())):
            raise InvalidBodyError("ellipsoid matrix must be symmetric")
        if np.linalg.eigvalsh(a).min() <= 0:
            raise InvalidBodyError("ellipsoid matrix must be positive definite")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class Sum(Body):
    """Minkowski sum of two bodies (its dimension stored, not walked down to)."""

    left: Body
    right: Body
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if body_dim(self.left) != body_dim(self.right):
            raise DimensionMismatchError(
                "cannot sum bodies of different dimensions"
            )
        object.__setattr__(self, "dim", body_dim(self.left))


@dataclass(frozen=True)
class Scaled(Body):
    factor: float
    inner: Body
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factor", float(self.factor))
        object.__setattr__(self, "dim", body_dim(self.inner))
        if not math.isfinite(self.factor):
            raise InvalidArgumentError("scale factor must be finite")
        if self.factor < 0:
            raise InvalidArgumentError("scale factor must be nonnegative")


@dataclass(frozen=True)
class Rotated(Body):
    rotation: Rotation
    inner: Body
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", body_dim(self.inner))
        if self.rotation.dim != self.dim:
            raise DimensionMismatchError("rotation dimension mismatch")


@dataclass(frozen=True)
class Sampled(Body):
    """Body reconstructed from support samples: ``values[i]`` is h at
    node i of ``grid`` (finite, one value per node).

    Off-node directions are interpolated: piecewise linear in angle for
    2-D uniform grids, bilinear in (theta, phi) on 3-D product grids
    (clamped at the polar caps), nearest node otherwise.  The error is
    O(cell^2) for smooth bodies.
    """

    grid: SphericalGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)
        if v.shape != (len(self.grid),):
            raise InvalidArgumentError("values must match grid node count")
        if not np.isfinite(v).all():
            raise InvalidArgumentError("support values must be finite")

    @property
    def dim(self) -> int:
        return self.grid.dim


def body_dim(body: Body) -> int:
    return body.dim


class Term(NamedTuple):
    """One summand a G L of a flattened body: ``factor`` a >= 0, ``matrix``
    G orthogonal (None for the identity), ``leaf`` L a Polytope, Ball,
    Ellipsoid or Sampled.  The maps skip arithmetic for a = 1 or G = I."""

    factor: float
    matrix: np.ndarray | None
    leaf: Body

    def pull(self, u: np.ndarray) -> np.ndarray:
        """G^T u: a direction in the leaf's frame."""
        return u if self.matrix is None else self.matrix.T @ u

    def push(self, x: np.ndarray) -> np.ndarray:
        """a G x: a point of the leaf's frame in the body's."""
        if self.matrix is not None:
            x = self.matrix @ x
        return x if self.factor == 1.0 else self.factor * x

    def push_moment(self, m: np.ndarray) -> np.ndarray:
        """a G m G^T: a second moment of the leaf's frame in the body's."""
        if self.matrix is not None:
            m = self.matrix @ m @ self.matrix.T
        return m if self.factor == 1.0 else self.factor * m


def terms(body: Body) -> list[Term]:
    """The body as the Minkowski sum of its terms, left to right.

    Scaled factors multiply and Rotated matrices compose on the way down;
    summands with factor zero are dropped, so a body whose summands are
    all scaled by zero (the origin) has no terms.
    """
    if not isinstance(body, (Sum, Scaled, Rotated)):
        return [Term(1.0, None, body)]
    out, stack = [], [(1.0, None, body)]
    while stack:
        a, g, node = stack.pop()
        if isinstance(node, Sum):
            stack += [(a, g, node.right), (a, g, node.left)]
        elif isinstance(node, Scaled):
            if node.factor != 0.0:
                stack.append((a * node.factor, g, node.inner))
        elif isinstance(node, Rotated):
            m = node.rotation.matrix
            stack.append((a, m if g is None else g @ m, node.inner))
        else:
            out.append(Term(a, g, node))
    return out


def sampled_cell_angle(body: Body) -> float:
    """Largest interpolation cell angle among Sampled leaves (0 if none)."""
    cells = [t.leaf.grid.max_cell_angle for t in terms(body) if isinstance(t.leaf, Sampled)]
    return max(cells, default=0.0)


def row_blocks(n_rows: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) blocks of ``_BLOCK_ENTRIES // width`` rows, at least 2, covering
    n_rows (one block for zero rows); a one-row remainder joins the block before."""
    step = max(2, _BLOCK_ENTRIES // max(width, 1))
    bounds = [*range(0, max(n_rows - 1, 1), step), n_rows]
    return list(zip(bounds[:-1], bounds[1:]))


def _polytope_support(vertices: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    # a contiguous vertices.T multiplies faster than the transposed view, and
    # in 2-D and 3-D rounds the same for two or more rows (one row does not)
    vt = np.ascontiguousarray(vertices.T) if dirs.shape[0] > 1 and vertices.shape[1] <= 3 else vertices.T
    return (dirs @ vt).max(axis=1)


def _interp_uniform_2d(grid: SphericalGrid, values: np.ndarray, units: np.ndarray) -> np.ndarray:
    m = len(grid.angles)
    theta = np.mod(np.arctan2(units[:, 1], units[:, 0]), 2.0 * math.pi)
    pos = theta * m / (2.0 * math.pi)
    k0 = np.floor(pos).astype(int) % m
    frac = pos - np.floor(pos)
    k1 = (k0 + 1) % m
    return (1.0 - frac) * values[k0] + frac * values[k1]


def _interp_lonlat_3d(grid: SphericalGrid, values: np.ndarray, units: np.ndarray) -> np.ndarray:
    thetas = grid.thetas
    n_lat = len(thetas)
    n_lon = len(grid.phis)
    table = values.reshape(n_lat, n_lon)

    theta = np.arccos(np.clip(units[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(units[:, 1], units[:, 0]), 2.0 * math.pi)

    pos_p = phi * n_lon / (2.0 * math.pi)
    j0 = np.floor(pos_p).astype(int) % n_lon
    fp = pos_p - np.floor(pos_p)
    j1 = (j0 + 1) % n_lon

    i1 = np.searchsorted(thetas, theta)
    # clamp polar caps onto the extreme rings
    i1 = np.clip(i1, 1, n_lat - 1)
    i0 = i1 - 1
    span = thetas[i1] - thetas[i0]
    ft = np.clip((theta - thetas[i0]) / span, 0.0, 1.0)

    v00 = table[i0, j0]
    v01 = table[i0, j1]
    v10 = table[i1, j0]
    v11 = table[i1, j1]
    return (1.0 - ft) * ((1.0 - fp) * v00 + fp * v01) + ft * ((1.0 - fp) * v10 + fp * v11)


def _interp_nearest(grid: SphericalGrid, values: np.ndarray, units: np.ndarray) -> np.ndarray:
    return values[np.argmax(units @ grid.nodes.T, axis=1)]


_INTERPOLATED = {"uniform-2d": _interp_uniform_2d, "gauss-lonlat-3d": _interp_lonlat_3d}


def _sampled_support(body: Sampled, dirs: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(dirs, axis=1)
    out = np.zeros(dirs.shape[0])
    nz = norms > 0
    if not np.any(nz):
        return out
    units = dirs[nz] / norms[nz, None]
    interp = _INTERPOLATED.get(body.grid.kind, _interp_nearest)
    out[nz] = interp(body.grid, body.values, units) * norms[nz]
    return out


def support_values(body: Body, dirs: np.ndarray) -> np.ndarray:
    """Vectorized support function: h(body) at each row of ``dirs``.

    Directions need not be unit vectors; the positively homogeneous
    extension is used.  Exact for every representation except ``Sampled``,
    which interpolates.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[1] != body_dim(body):
        raise DimensionMismatchError(
            f"directions have dim {dirs.shape[1]}, body has dim {body_dim(body)}"
        )
    return terms_support(terms(body), dirs)


def terms_support(parts: list[Term], dirs: np.ndarray) -> np.ndarray:
    """Summed support values of the terms at each row of ``dirs``, in ``row_blocks`` sized
    for the widest term: a polytope's vertex count, a nearest lookup's grid size, else 1."""
    n_rows = dirs.shape[0]  # up to 3 rows make one block at any width; most calls have 1 or 2
    blocks = row_blocks(n_rows, max(map(_row_width, parts), default=1)) if n_rows > 3 else [(0, n_rows)]
    out = np.empty(n_rows)
    for start, stop in blocks:
        values = [term_support(term, dirs[start:stop]) for term in parts]
        out[start:stop] = reduce(add, values) if values else 0.0
    return out


def _row_width(term: Term) -> int:
    """Entries per direction of a term's widest intermediate."""
    if isinstance(term.leaf, Polytope):
        return term.leaf.vertices.shape[0]
    if isinstance(term.leaf, Sampled) and term.leaf.grid.kind not in _INTERPOLATED:
        return len(term.leaf.grid)
    return 1


def term_support(term: Term, dirs: np.ndarray) -> np.ndarray:
    """a h_L(dirs G) for one term (a, G, L) at each row of ``dirs``."""
    a, g, leaf = term
    if g is not None:
        dirs = dirs @ g
    if isinstance(leaf, Polytope):
        h = _polytope_support(leaf.vertices, dirs)
    elif isinstance(leaf, Ball):
        h = dirs @ leaf.center + leaf.radius * np.linalg.norm(dirs, axis=1)
    elif isinstance(leaf, Ellipsoid):
        h = dirs @ leaf.center + np.linalg.norm(dirs @ leaf.matrix, axis=1)
    elif isinstance(leaf, Sampled):
        h = _sampled_support(leaf, dirs)
    else:
        raise InvalidBodyError(f"unknown body representation {type(leaf).__name__}")
    return h if a == 1.0 else a * h


def eval_support(body: Body, x) -> float:
    """Support function h(body) at a single point x."""
    return float(support_values(body, np.asarray(x, dtype=float)[None, :])[0])


def sample_support(body: Body, grid: SphericalGrid) -> Sampled:
    """The body sampled at every grid node."""
    if grid.dim != body_dim(body):
        raise DimensionMismatchError("grid dimension does not match body")
    return Sampled(grid, support_values(body, grid.nodes))


def translate(body: Body, shift) -> Body:
    """Exact translate: h(u) picks up <u, shift> with no quadrature involved.
    Only the leftmost leaf moves, reached in a loop, so any depth works."""
    w = np.asarray(shift, dtype=float)
    if w.shape != (body_dim(body),):
        raise DimensionMismatchError("shift dimension does not match body")
    above = []  # the nodes over the moved leaf, outermost first
    while isinstance(body, (Sum, Rotated)) or isinstance(body, Scaled) and body.factor != 0.0:
        above.append(body)
        if isinstance(body, Scaled):
            w = w / body.factor
        elif isinstance(body, Rotated):
            w = body.rotation.matrix.T @ w
        body = body.left if isinstance(body, Sum) else body.inner
    if isinstance(body, Polytope):
        moved = rigid_motion(body, shift=w)
    elif isinstance(body, Ball):
        moved = Ball(body.center + w, body.radius)
    elif isinstance(body, Ellipsoid):
        moved = Ellipsoid(body.center + w, body.matrix)
    elif isinstance(body, Sampled):
        moved = Sampled(body.grid, body.values + body.grid.nodes @ w)
    elif isinstance(body, Scaled):  # factor 0: the body is the origin
        moved = Polytope(w[None, :])
    else:
        raise InvalidBodyError(f"unknown body representation {type(body).__name__}")
    for node in reversed(above):
        moved = replace(node, **{"left" if isinstance(node, Sum) else "inner": moved})
    return moved


def convex_hull_vertices(points: np.ndarray) -> np.ndarray:
    """Extreme points of a finite point set, rounded to 12 decimals, in
    ascending row order: those of ``Hull.extreme``, so a point, segment or
    flat set gives its own extreme points.  Builds no facets or cones."""
    pts, _, _, _, extreme = _extremes(np.asarray(points, dtype=float))
    return pts[np.sort(extreme)]


def ring_polytope(ring: np.ndarray) -> Polytope:
    """The convex polygon on the counterclockwise points ``ring``, its hull record set
    without qhull: points rounded to 12 decimals and ascending, ``extreme`` the ring from
    its lowest index.  A repeat or a point within the rank noise of its neighbours' chord
    is dropped, flattest first; a sliver (rank below 2) is ``convex_hull_vertices``."""
    pts = np.round(ring, 12)
    noise = _noise(pts)
    while len(pts) > 2:
        ext = np.concatenate((pts[-1:], pts, pts[:1]))
        prev, chord = ext[:-2], ext[2:] - ext[:-2]
        lift = (pts[:, 0] - prev[:, 0]) * chord[:, 1] - (pts[:, 1] - prev[:, 1]) * chord[:, 0]
        height = lift / np.maximum(np.hypot(chord[:, 0], chord[:, 1]), 1e-300)
        if height.min() > noise:
            break
        pts = np.delete(pts, height.argmin(), axis=0)
    order = np.lexsort(pts.T[::-1])
    rank, at = _rank(pts[order])[0], np.argsort(order)
    if rank < 2:
        return Polytope(convex_hull_vertices(ring))
    poly = Polytope(pts[order])
    hull = Hull(poly.vertices, np.arange(len(pts)), rank, at[(np.arange(len(pts)) + at.argmin()) % len(pts)])
    object.__setattr__(poly, "_hull", hull)
    return poly


def polytope_sum(a: Polytope, b: Polytope) -> Polytope:
    """Explicit vertex representation of a Minkowski sum of polytopes.

    Convex hull of all pairwise vertex sums; equivalent to ``Sum(a, b)``
    but with the vertices materialized.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError("cannot sum polytopes of different dims")
    sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    return Polytope(convex_hull_vertices(sums))


def as_polytope(body: Body) -> Polytope | None:
    """Flatten an expression tree to an explicit Polytope when possible.

    A bare polytope is returned as it is, any other body whose leaves
    are all polytopes through ``polytope_of_terms``.  Returns None when
    some leaf is a Ball, Ellipsoid or Sampled.
    """
    if isinstance(body, Polytope):  # the congruence objective's hot path
        return body
    parts = terms(body)
    if not all(isinstance(leaf, Polytope) for _, _, leaf in parts):
        return None
    return polytope_of_terms(parts, body_dim(body))


def polytope_of_terms(parts: list[Term], dim: int) -> Polytope:
    """The sum of polytope terms a G P as one Polytope: each term is
    ``rigid_motion(P, G)`` (the hull is carried) scaled by a, summed with
    ``polytope_sum``; one term 1 P is P itself, and no terms the origin."""
    polys = []
    for a, g, leaf in parts:
        poly = leaf if g is None else rigid_motion(leaf, g)
        polys.append(poly if a == 1.0 else Polytope(poly.vertices * a))
    return reduce(polytope_sum, polys) if polys else Polytope(np.zeros((1, dim)))


def sublinearity_violation(body: Sampled, n_trials: int = 64, seed: int = 0) -> float:
    """Largest observed  h(u+v) - h(u) - h(v)  over random node pairs.

    Nonpositive (up to interpolation error) for genuine support samples.
    """
    rng = np.random.default_rng(seed)
    n = len(body.grid)
    i = rng.integers(0, n, size=n_trials)
    j = rng.integers(0, n, size=n_trials)
    u = body.grid.nodes[i]
    v = body.grid.nodes[j]
    lhs = support_values(body, u + v)
    rhs = body.values[i] + body.values[j]
    return float(np.max(lhs - rhs))
