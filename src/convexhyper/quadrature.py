"""Spherical grids with quadrature weights on S^{n-1}.

Two deterministic constructions carry the library:

* ``make_grid_2d`` -- m equally spaced angles with the periodic trapezoid
  rule, exact for trigonometric polynomials of degree < m.
* ``make_grid_3d`` -- Gauss-Legendre nodes in cos(latitude) crossed with
  uniform longitudes, spectrally accurate for smooth integrands.

For n > 3 only a Monte-Carlo grid is provided (``make_grid_nd``), of lower
accuracy.  Each constructor (``default_grid`` too) returns one shared
read-only grid per argument tuple, from a cache of its last 8 grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

DEFAULT_NODES_2D = 2048
DEFAULT_LAT_3D = 64
DEFAULT_LON_3D = 128
_MAX_GRID_NODES = 1 << 20  # larger structured grids are refused, not allocated
_MAX_LAT_3D = 1024  # Gauss-Legendre latitudes solve an n_lat x n_lat eigenproblem


def sphere_area(n: int) -> float:
    """Surface measure of S^{n-1}: 2*pi for n=2, 4*pi for n=3."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi for n=2, 4*pi/3 for n=3."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class SphericalGrid:
    """Quadrature nodes and positive weights on S^{n-1}.

    Immutable (private read-only arrays), so grids are shared and read
    concurrently.  ``kind`` and the structure fields (``angles``, ``thetas``,
    ``phis``) describe the layout of a structured product grid;
    interpolation uses them, else nearest-node lookups.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "unstructured"
    angles: np.ndarray | None = field(default=None, compare=False)
    thetas: np.ndarray | None = field(default=None, compare=False)
    phis: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("nodes", "weights", "angles", "thetas", "phis"):
            if getattr(self, name) is not None:
                value = np.array(getattr(self, name), dtype=float, order="C")
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        nodes, weights = self.nodes, self.weights
        if nodes.ndim != 2 or nodes.shape[1] != self.dim:
            raise InvalidArgumentError(
                f"nodes must have shape (N, {self.dim}), got {nodes.shape}"
            )
        if weights.shape != (nodes.shape[0],):
            raise InvalidArgumentError("weights must match node count")
        if not np.all(weights > 0):
            raise InvalidArgumentError("all quadrature weights must be positive")
        norms = np.linalg.norm(nodes, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise InvalidArgumentError("grid nodes must be unit vectors")
        total = weights.sum()
        area = sphere_area(self.dim)
        if self.kind != "monte-carlo" and abs(total - area) > 1e-10 * area:
            raise InvalidArgumentError(
                f"weights sum to {total!r}, expected {area!r}"
            )
        order = np.lexsort(nodes.T)
        diffs = np.linalg.norm(np.diff(nodes[order], axis=0), axis=1)
        if diffs.size and diffs.min() < 1e-13:
            raise InvalidArgumentError("grid nodes must be pairwise distinct")

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @property
    def max_cell_angle(self) -> float:
        """Largest angular spacing between neighbouring nodes.

        Used to clamp finite-difference steps when differentiating
        interpolated support samples.
        """
        if self.kind == "uniform-2d":
            return 2.0 * math.pi / len(self.angles)
        if self.kind == "gauss-lonlat-3d":
            dth = float(np.max(np.diff(self.thetas)))
            dph = 2.0 * math.pi / len(self.phis)
            return max(dth, dph, float(self.thetas[0]))
        # crude fallback: average spacing for N roughly uniform points
        return math.sqrt(sphere_area(self.dim) / max(len(self), 1))


@functools.lru_cache(maxsize=8)
def make_grid_2d(m: int) -> SphericalGrid:
    """Trapezoid-rule grid of m equally spaced directions on the circle."""
    if not 4 <= m <= _MAX_GRID_NODES:
        raise InvalidArgumentError(f"need 4 to {_MAX_GRID_NODES} nodes, got {m}")
    angles = 2.0 * math.pi * np.arange(m) / m
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(m, 2.0 * math.pi / m)
    return SphericalGrid(2, nodes, weights, kind="uniform-2d", angles=angles)


@functools.lru_cache(maxsize=8)
def make_grid_3d(n_lat: int, n_lon: int) -> SphericalGrid:
    """Gauss-Legendre x uniform-longitude product grid on S^2.

    Latitude nodes are GL points in z = cos(theta); each node's weight is
    the GL weight times 2*pi/n_lon, so constants integrate to 4*pi exactly.
    """
    if n_lat < 2 or n_lon < 4:
        raise InvalidArgumentError(
            f"need n_lat >= 2 and n_lon >= 4, got {n_lat} x {n_lon}"
        )
    if n_lat > _MAX_LAT_3D or n_lat * n_lon > _MAX_GRID_NODES:
        raise InvalidArgumentError(
            f"need n_lat <= {_MAX_LAT_3D} and at most {_MAX_GRID_NODES} nodes, got {n_lat} x {n_lon}"
        )
    z, glw = np.polynomial.legendre.leggauss(n_lat)
    # descending z = ascending polar angle theta
    z = z[::-1]
    glw = glw[::-1]
    thetas = np.arccos(z)
    phis = 2.0 * math.pi * np.arange(n_lon) / n_lon
    sin_t = np.sin(thetas)
    x = np.outer(sin_t, np.cos(phis))
    y = np.outer(sin_t, np.sin(phis))
    zz = np.repeat(z, n_lon).reshape(n_lat, n_lon)
    nodes = np.column_stack([x.ravel(), y.ravel(), zz.ravel()])
    weights = np.repeat(glw * (2.0 * math.pi / n_lon), n_lon)
    return SphericalGrid(
        3, nodes, weights, kind="gauss-lonlat-3d", thetas=thetas, phis=phis
    )


@functools.lru_cache(maxsize=8)
def make_grid_nd(n: int, count: int, seed: int = 0) -> SphericalGrid:
    """Monte-Carlo grid for n > 3: uniform random directions, equal weights.

    Lower accuracy than the structured grids; documented for completeness.
    """
    if n < 2:
        raise InvalidArgumentError("dimension must be at least 2")
    if count < n + 1:
        raise InvalidArgumentError("need at least n+1 nodes")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    weights = np.full(count, sphere_area(n) / count)
    return SphericalGrid(n, pts, weights, kind="monte-carlo")


def default_grid(dim: int) -> SphericalGrid:
    """Library default resolution: 2048 nodes (n=2), 64x128 (n=3); shared."""
    if dim == 2:
        return make_grid_2d(DEFAULT_NODES_2D)
    if dim == 3:
        return make_grid_3d(DEFAULT_LAT_3D, DEFAULT_LON_3D)
    return make_grid_nd(dim, 4096)


def rotate_grid(matrix: np.ndarray, grid: SphericalGrid) -> SphericalGrid:
    """Grid with every node rotated by ``matrix``; weights unchanged.

    The product structure does not survive a rotation, so the result is
    unstructured (nearest-node interpolation only).
    """
    nodes = grid.nodes @ np.asarray(matrix, dtype=float).T
    return SphericalGrid(grid.dim, nodes, grid.weights, kind="rotated")


def integrate(grid: SphericalGrid, f) -> float:
    """Quadrature sum of f over the grid: sum_k w_k f(u_k).

    ``f`` maps a direction (1-D array of length dim) to a scalar.
    """
    values = np.fromiter(
        (f(u) for u in grid.nodes), dtype=float, count=len(grid)
    )
    return float(grid.weights @ values)


def integrate_values(grid: SphericalGrid, values: np.ndarray) -> float:
    """Quadrature sum for precomputed node values."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(grid),):
        raise InvalidArgumentError("values must match node count")
    return float(grid.weights @ values)
