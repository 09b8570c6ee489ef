"""Gauss-map inversion and positive-curvature tests.

For a strictly convex body the boundary point with outward normal u is
the gradient of the support function's homogeneous extension at u.  The
curvature tests check positive definiteness of the support function's
restricted Hessian: in the plane the classical radius of curvature
rho = h + h'' must exceed the margin; on S^2 the 2x2 matrix of second
tangential differences plus h*I must be positive definite.

Finite-difference steps are clamped to the interpolation cell size when
the body contains sampled leaves, since differencing a piecewise-linear
interpolant below its own resolution only measures interpolation kinks.
The stencils run in ``bodies.row_blocks`` of grid nodes, one ``support_values``
call per block, so a whole-grid test holds a few MB at any grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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
    row_blocks,
    sampled_cell_angle,
    support_values,
    terms,
    unit_vector,
)
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidBodyError,
    NotStrictlyConvexError,
)
from .quadrature import SphericalGrid

_FACE_TOL = 1e-9


def gauss_preimage(body: Body, u) -> np.ndarray:
    """Boundary point of the body whose outward normal is u.

    ``support_point`` with a strictness check: raises
    NotStrictlyConvexError when a polytope term exposes a whole face in
    direction u (the face, moved into the body's frame, is attached).
    Exact for balls, ellipsoids and polytope vertices, central finite
    differences of the homogeneous extension for sampled leaves.
    """
    u = unit_vector(u)
    if u.shape[0] != body_dim(body):
        raise DimensionMismatchError("direction dimension does not match body")
    for term in terms(body):
        if isinstance(term.leaf, Polytope):
            verts = term.leaf.vertices
            dots = verts @ term.pull(u)
            top = dots.max()
            face = verts[dots >= top - _FACE_TOL * (1.0 + abs(top))]
            face = np.unique(np.round(face, 12), axis=0)
            if face.shape[0] > 1:
                raise NotStrictlyConvexError(
                    f"support set in direction {u.tolist()} is a face "
                    f"with {face.shape[0]} vertices",
                    face_vertices=term.push(face.T).T,
                )
    return support_point(body, u)


def _gradient_point(body: Sampled, u: np.ndarray) -> np.ndarray:
    """grad of the homogeneous extension at u by central differences."""
    n, step = body.dim, max(1e-5, 0.5 * body.grid.max_cell_angle)
    dirs = np.vstack([u + step * np.eye(n), u - step * np.eye(n)])
    vals = support_values(body, dirs)
    return (vals[:n] - vals[n:]) / (2.0 * step)


def support_point(body: Body, u) -> np.ndarray:
    """Some maximizer of <., u> over the body (face-tolerant).

    The sum of a G p_L(G^T u) over the terms (a, G, L).  Like
    gauss_preimage but deterministically picks a vertex instead of
    raising when the support set is a face; used for polytope
    approximation and truncation bookkeeping.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (body_dim(body),):
        raise DimensionMismatchError("direction dimension does not match body")
    parts = [term.push(_leaf_point(term.leaf, term.pull(u))) for term in terms(body)]
    return reduce(add, parts) if parts else np.zeros(body_dim(body))


def _leaf_point(body: Body, u: np.ndarray) -> np.ndarray:
    if isinstance(body, Polytope):
        return body.vertices[int(np.argmax(body.vertices @ u))].copy()
    if isinstance(body, Ball):
        return body.center + body.radius * u / np.linalg.norm(u)
    if isinstance(body, Ellipsoid):
        au = body.matrix @ u
        return body.center + body.matrix @ au / np.linalg.norm(au)
    if isinstance(body, Sampled):
        return _gradient_point(body, u / np.linalg.norm(u))
    raise InvalidBodyError(f"unknown body representation {type(body).__name__}")


def curvature_radius_2d(body: Body, theta: float, step: float = 1e-3) -> float:
    """Radius of curvature h + h'' at normal angle theta (n=2 only)."""
    if body_dim(body) != 2:
        raise InvalidArgumentError("curvature_radius_2d needs a planar body")
    if not 0 < step <= math.pi or step * step == 0.0:  # wider wraps; step**2 must not underflow
        raise InvalidArgumentError("step must be positive and at most pi, with a nonzero square")
    if not math.isfinite(theta):
        raise InvalidArgumentError("theta must be finite")
    step = _effective_step(body, step)
    t = np.array([theta - step, theta, theta + step])
    dirs = np.column_stack([np.cos(t), np.sin(t)])
    _reject_collapsed(dirs[:, None], 1, step)
    h = support_values(body, dirs)
    return float((h[0] + h[2] - 2.0 * h[1]) / step**2 + h[1])


def _reject_collapsed(stencil: np.ndarray, centre: int, step: float):
    """Refuse a step so small that a direction of the stencil (points along
    axis 0) rounds onto its centre: the differences there read 0, and the
    test would see h alone, positive for any body around the origin.  A
    step of 1e-12 or more moves every direction by about that much, far
    beyond rounding, so only smaller steps are compared."""
    if step >= 1e-12:
        return
    same = stencil[..., 0] == stencil[centre, :, 0]
    for i in range(1, stencil.shape[-1]):
        same &= stencil[..., i] == stencil[centre, :, i]
    same[centre] = False
    if same.any():
        raise InvalidArgumentError("step too small: a stencil direction rounds onto its centre")


def _reject_lower_dimensional(body: Body):
    """Curvature tests are defined for full-dimensional bodies only."""
    poly = as_polytope(body)
    if poly is not None and not poly.is_full_dimensional:
        raise InvalidArgumentError(
            "curvature test needs a full-dimensional body"
        )


# Differencing window for interpolated 3-D bodies.  Piecewise-bilinear
# interpolants cannot be differenced below their own kink scale; a wide
# window turns the test into a certified window-average of the curvature
# form, which is what positivity needs.  Calibrated on mollified random
# polytopes at t = 0.05 (smaller windows read interpolation noise).
_ABS_WINDOW_3D = 0.8


def _effective_step(body: Body, step: float) -> float:
    """Clamp the FD step to the sampling resolution of interpolated parts.

    For 2-D uniform sample grids the step is snapped to a node multiple,
    so stencils centred on nodes evaluate exact sample values.
    """
    cell = sampled_cell_angle(body)
    if cell == 0.0:
        return step
    if body_dim(body) == 2:
        return cell * max(1, round(step / cell))
    return max(step, 6.0 * cell, _ABS_WINDOW_3D)


@dataclass(frozen=True)
class CurvatureReport:
    ok: bool
    min_value: float
    failing_node: np.ndarray | None
    failing_index: int | None


def curvature_report(
    body: Body,
    grid: SphericalGrid,
    step: float = 1e-3,
    margin: float = 1e-6,
) -> CurvatureReport:
    """Evaluate the restricted-Hessian positivity test at every grid node, in
    ``row_blocks`` of nodes; the first node with the least value fails."""
    if not 0 < step <= math.pi or step * step == 0.0:  # wider wraps; step**2 must not underflow
        raise InvalidArgumentError("step must be positive and at most pi, with a nonzero square")
    if not math.isfinite(margin):
        raise InvalidArgumentError("margin must be finite")
    n = body_dim(body)
    if grid.dim != n:
        raise DimensionMismatchError("grid dimension does not match body")
    _reject_lower_dimensional(body)
    step = _effective_step(body, step)
    if n not in (2, 3):
        raise InvalidArgumentError("curvature test supports n = 2 and n = 3 only")
    points, stencil, k = grid.nodes, _eig_min_3d, 9  # k directions per node
    if n == 2:
        points = grid.angles if grid.kind == "uniform-2d" else np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
        stencil, k = _radius_2d, 3
    values = np.empty(len(points))
    for start, stop in row_blocks(len(points), 4 * k * n):  # a node's stencil arrays: about 4 k n entries
        values[start:stop] = stencil(body, points[start:stop], step)
    return _report(values, grid, margin)


def _radius_2d(body: Body, t: np.ndarray, step: float) -> np.ndarray:
    stack = np.concatenate([t - step, t, t + step])
    dirs = np.column_stack([np.cos(stack), np.sin(stack)])
    _reject_collapsed(dirs.reshape(3, -1, 2), 1, step)
    h = support_values(body, dirs).reshape(3, -1)
    return (h[0] + h[2] - 2.0 * h[1]) / step**2 + h[1]


def _eig_min_3d(body: Body, u: np.ndarray, step: float) -> np.ndarray:
    """Least eigenvalue of the nine-point tangential Hessian plus h I at the nodes u."""
    ref = np.eye(3)[np.argmin(np.abs(u), axis=1)]
    e1 = np.cross(u, ref)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(u, e1)
    offsets = [
        u + step * e1, u - step * e1,
        u + step * e2, u - step * e2,
        u + step * (e1 + e2), u + step * (e1 - e2),
        u + step * (-e1 + e2), u - step * (e1 + e2),
        u,
    ]
    dirs = np.concatenate(offsets)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    _reject_collapsed(dirs.reshape(9, -1, 3), 8, step)
    h = support_values(body, dirs).reshape(9, -1)
    h0 = h[8]
    s2 = step**2
    m11 = (h[0] + h[1] - 2.0 * h0) / s2 + h0
    m22 = (h[2] + h[3] - 2.0 * h0) / s2 + h0
    m12 = (h[4] - h[5] - h[6] + h[7]) / (4.0 * s2)
    tr = m11 + m22
    disc = np.sqrt((m11 - m22) ** 2 + 4.0 * m12**2)
    return 0.5 * (tr - disc)


def _report(values: np.ndarray, grid: SphericalGrid, margin: float) -> CurvatureReport:
    idx = int(np.argmin(values))
    ok = bool(values[idx] > margin)
    return CurvatureReport(
        ok=ok,
        min_value=float(values[idx]),
        failing_node=None if ok else grid.nodes[idx].copy(),
        failing_index=None if ok else idx,
    )


def curvature_positive(
    body: Body,
    grid: SphericalGrid,
    step: float = 1e-3,
    margin: float = 1e-6,
) -> bool:
    """True iff the curvature test passes at every grid node."""
    return curvature_report(body, grid, step=step, margin=margin).ok
