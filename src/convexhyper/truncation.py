"""Slab truncation and symmetry destruction.

``truncate`` removes the open eps-slab below the support hyperplane with
normal u (an exact halfspace clip of a polytope) and re-centers at the
Steiner point.  ``desymmetrize`` applies one truncation per coordinate
axis; both work in n = 2 and 3 only and raise ``RepresentationError``
for any other dimension.  Each fresh face is at most ``_SHRINK`` (0.9)
times as wide as the one before, and the cut regions stay
``_SEPARATION`` (1e-3) times the body's diameter apart.  A body whose
flat faces all have different diameters admits no nontrivial orthogonal
symmetry, which ``isotropy_estimate`` verifies: for a full-dimensional
polytope by the orthogonal maps that move each hull vertex within tol of
a distinct one (exact, but blind to a near-symmetry that changes how
vertices pair up), by a finite candidate scan for every other body.
Diameters difference one block of points against all points at a time
(``bodies.row_blocks``), never all pairs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    Body,
    Polytope,
    Rotation,
    as_polytope,
    body_dim,
    convex_hull_vertices,
    ring_polytope,
    row_blocks,
    support_values,
    translate,
    unit_vector,
)
from .curvature import support_point
from .errors import (
    EmptyResultError,
    InfeasibleBudgetError,
    InvalidArgumentError,
    RepresentationError,
)
from .metrics import hausdorff, recenter, steiner
from .quadrature import SphericalGrid, default_grid, make_grid_2d, make_grid_3d
from .rotations import default_candidates, orthogonal_maps

_FACE_TOL = 1e-9
# desymmetrize: cut regions stay _SEPARATION * diameter apart, and each
# fresh face is at most _SHRINK times as wide as the one before
_SEPARATION = 1e-3
_SHRINK = 0.9


@dataclass(frozen=True)
class TruncationSpec:
    """Cut parameters: outward normal u and slab depth eps >= 0."""

    u: np.ndarray
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "u", unit_vector(self.u))
        object.__setattr__(self, "eps", float(self.eps))
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise InvalidArgumentError("eps must be finite and nonnegative")


@dataclass(frozen=True)
class FaceRecord:
    """A flat face created by truncation."""

    normal: np.ndarray
    diameter: float
    vertex_set: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        object.__setattr__(
            self, "vertex_set", np.asarray(self.vertex_set, dtype=float)
        )


def _pairwise_diameter(points: np.ndarray) -> float:
    """Largest distance of two points, a ``row_blocks`` block against all at a time."""
    best = 0.0
    for start, stop in row_blocks(points.shape[0], points.size):
        diffs = points[start:stop, None, :] - points[None, :, :]
        best = max(best, float(np.sqrt((diffs**2).sum(axis=2)).max(initial=0.0)))
    return best


def _clip(poly: Polytope, u: np.ndarray, cut: float) -> Polytope:
    """The polytope intersected with {<x,u> <= cut}.

    Vertices at most ``_FACE_TOL`` * scale above the plane stay, and hull
    edges add their crossings.  A 2-D ring is clipped in order, each kept
    vertex before the crossing on its edge out (Sutherland-Hodgman), with
    no qhull; 3-D points take qhull twice (their extreme points, the hull).
    A 3-D polytope must be full-dimensional, so that its hull has edges.
    """
    verts = poly.vertices
    d = verts @ u - cut
    scale = 1.0 + float(np.abs(verts).max())
    kept = d <= _FACE_TOL * scale
    if kept.all():
        return poly
    if not kept.any():
        raise EmptyResultError("cut removes the whole body")
    hull = poly.hull
    if hull.ring is not None:
        ring = hull.index[hull.ring]
        edges = np.stack([ring, np.concatenate((ring[1:], ring[:1]))], axis=1)
    else:
        edges = hull.index[hull.edges]
    di, dj = d[edges[:, 0]], d[edges[:, 1]]
    cross = ((di > 0) != (dj > 0)) & (np.abs(di - dj) > 1e-15)
    t = np.divide(di, di - dj, out=np.zeros(len(edges)), where=cross)
    cross &= (t >= 0.0) & (t <= 1.0)
    i, j, t = edges[cross, 0], edges[cross, 1], t[cross, None]
    crossings = verts[i] + t * (verts[j] - verts[i])
    if hull.ring is None:
        return Polytope(convex_hull_vertices(np.vstack([verts[kept], crossings])))
    points = np.repeat(verts[ring], 2, axis=0)  # ring vertex k, then the crossing on its edge out
    points[1::2][cross] = crossings
    return ring_polytope(points[np.column_stack([kept[ring], cross]).ravel()])


def _require_polytope(body: Body) -> Polytope:
    poly = as_polytope(body)
    if poly is None:
        raise RepresentationError(
            "truncation needs a polytope representation; approximate smooth "
            "bodies first (polytope_approximation)"
        )
    if poly.dim not in (2, 3):
        raise RepresentationError("exact clipping implemented for n = 2, 3")
    if not poly.is_full_dimensional:
        raise RepresentationError(
            "truncation rejects lower-dimensional bodies (segments, points)"
        )
    return poly


def truncate(body: Body, spec: TruncationSpec, grid: SphericalGrid | None = None) -> Polytope:
    """Clip the eps-slab below the support plane with normal u, re-center.

    eps = 0 returns the re-centered body unchanged; eps >= width along u
    raises EmptyResultError.
    """
    poly = _require_polytope(body)
    u = spec.u
    h_u = float(support_values(poly, u[None, :])[0])
    w = h_u + float(support_values(poly, -u[None, :])[0])
    if spec.eps >= w:
        raise EmptyResultError(
            f"eps={spec.eps} is not smaller than the width {w} along u"
        )
    if spec.eps == 0.0:
        return recenter(poly, grid)
    return recenter(_clip(poly, u, h_u - spec.eps), grid)


def is_c1_violated(body: Body, tol_angle: float) -> bool:
    """True iff some vertex has a normal cone of angular width > tol_angle."""
    poly = _require_polytope(body)
    hull = poly.hull
    if poly.dim == 2:  # a full-dimensional ring has at least three vertices
        lo, hi = hull.arcs
        return bool(np.any(hi - lo > tol_angle))
    if hull.normals is None:
        return True
    for _, normals in hull.vertex_cones():
        if normals.shape[0] < 2:
            continue
        gram = np.clip(normals @ normals.T, -1.0, 1.0)
        if math.acos(float(gram.min())) > tol_angle:
            return True
    return False


def polytope_approximation(body: Body, n_dirs: int = 512) -> Polytope:
    """Inner polytope approximation: hull of support points.

    Directions come from a structured grid; the approximation error is the
    caller's to measure (e.g. via hausdorff against the original).
    """
    if isinstance(n_dirs, bool) or not isinstance(n_dirs, (int, np.integer)) or n_dirs < 1:
        raise InvalidArgumentError("n_dirs must be an integer of at least 1")
    n = body_dim(body)
    if n == 2:
        grid = make_grid_2d(max(16, n_dirs))
    elif n == 3:
        lat = max(8, math.isqrt(n_dirs // 2))
        grid = make_grid_3d(lat, 2 * lat)
    else:
        grid = default_grid(n)
    pts = np.asarray([support_point(body, u) for u in grid.nodes])
    return Polytope(convex_hull_vertices(pts))


def _vertex_cone_direction(poly: Polytope, i: int) -> np.ndarray | None:
    """A direction in the interior of the normal cone at hull vertex ``i``
    (position i of ``Hull.extreme``): the midpoint of its 2-D arc, or the
    mean of its 3-D cone's unit normals (None when they cancel)."""
    hull = poly.hull
    if poly.dim == 2:
        lo, hi = hull.arcs
        mid = 0.5 * (lo[i] + hi[i])
        return np.array([math.cos(mid), math.sin(mid)])
    mean = hull.cones[hull.cone_owner == hull.extreme[i]].sum(axis=0)
    nrm = np.linalg.norm(mean)
    return mean / nrm if nrm > 1e-12 else None


def _uniquely_exposes(verts: np.ndarray, u: np.ndarray, idx: int, scale: float) -> bool:
    dots = verts @ u
    exposed = np.flatnonzero(dots >= dots.max() - _FACE_TOL * scale)
    return exposed.size == 1 and exposed[0] == idx


def _plan_cuts(poly: Polytope, margin: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Assign each coordinate axis a cut direction u exposing a unique
    hull vertex v; returns the (u, v) pairs.

    Slab cuts only shrink to a point when the cut direction's support set
    is a single vertex; flat faces normal to an axis (cube, square) make
    that impossible, so such axes fall back to the normal-cone center of
    a not-yet-used vertex with maximal support (ties to the lower row).
    The chosen vertices must additionally sit several margins inside each
    other's cut halfspaces, otherwise a fresh face near one vertex would
    unavoidably invade a later cap (two near-co-maximal vertices).
    """
    verts, hull = poly.vertices, poly.hull
    rows = hull.index[hull.extreme]
    scale = 1.0 + float(np.abs(verts).max())
    gap = 8.0 * margin
    plan: list = []
    used: set = set()
    for e in np.eye(poly.dim):
        choice = None
        for i in np.lexsort((rows, -(verts @ e)[rows])).tolist():
            if i in used:
                continue
            v = verts[rows[i]]
            for u in (e, _vertex_cone_direction(poly, i)):
                if u is None or not _uniquely_exposes(verts, u, rows[i], scale):
                    continue
                h_u = float((verts @ u).max())
                if all(float(v_j @ u) <= h_u - gap and float(v @ u_j) <= float((verts @ u_j).max()) - gap
                       for u_j, v_j in plan):
                    choice = (u, v)
                    break
            if choice is not None:
                used.add(i)
                break
        if choice is None:
            raise InfeasibleBudgetError(
                "could not find cut directions exposing distinct separated vertices"
            )
        plan.append(choice)
    return plan


def desymmetrize(
    body: Body,
    budget: float,
    grid: SphericalGrid | None = None,
) -> tuple[Polytope, list[FaceRecord]]:
    """Destroy all orthogonal symmetries by n successive truncations (n = 2, 3).

    Cuts near the coordinate axes (nudged into vertex normal cones when an
    axis exposes a whole face) with depths chosen by halving, at most 60
    times per cut, so that (a) each fresh-face diameter is at most
    ``_SHRINK`` times the previous one, (b) cut regions stay
    ``_SEPARATION`` times the diameter clear of earlier faces and of the
    later cut vertices, and (c) the total Hausdorff displacement from the
    re-centered input stays within ``budget``.
    When a later cut cannot satisfy the separation no matter how shallow
    (an earlier face reaches into its cap), the whole cut sequence is
    retried at half the starting depths, 8 trials in all; small enough
    depths always admit a solution for the separated vertex plan.  A body
    of another dimension raises ``RepresentationError`` before anything
    is computed.  ``InfeasibleBudgetError.min_displacement`` is the
    displacement of the polytope approximation when it alone exceeds the
    budget, else the one reached before the failing cut of the last trial.
    """
    if not (math.isfinite(budget) and budget > 0):
        raise InvalidArgumentError("budget must be finite and positive")
    n = body_dim(body)
    if n not in (2, 3):
        raise RepresentationError("exact clipping implemented for n = 2, 3")
    grid = grid or default_grid(n)

    target = recenter(body, grid)
    poly = as_polytope(body)
    if poly is None:
        poly = polytope_approximation(body)
    start = target if poly is body else recenter(poly, grid)
    if not start.is_full_dimensional:
        raise InvalidArgumentError("desymmetrize needs a full-dimensional body")

    margin = _SEPARATION * _pairwise_diameter(start.vertices)
    plan = _plan_cuts(start, margin)
    base_disp = 0.0 if start is target else hausdorff(start, target, grid)
    if base_disp > budget:
        raise InfeasibleBudgetError(
            "polytope approximation alone exceeds the budget",
            min_displacement=base_disp,
        )

    for trial in range(8):
        current, disp, prev_diam = start, base_disp, math.inf
        later = [v for _, v in plan]  # the cut vertices, shifted with the body
        faces: list[np.ndarray] = []  # earlier fresh faces, shifted with the body
        records: list[FaceRecord] = []
        for k, (u, _) in enumerate(plan):
            h_u = float(support_values(current, u[None, :])[0])
            w = h_u + float(support_values(current, -u[None, :])[0])
            # eps <= w/4 keeps the lowest vertex, so the clip is never empty
            eps = min(w / 4.0, budget) * 0.5**trial
            for _ in range(60):
                cut = h_u - eps
                eps *= 0.5
                # separation: earlier faces and later cut vertices stay clear
                if any(np.any(f @ u >= cut - margin) for f in faces) or any(
                    float(p @ u) >= cut - margin for p in later[k + 1:]
                ):
                    continue
                clipped = _clip(current, u, cut)
                face = clipped.vertices[clipped.vertices @ u >= cut - _FACE_TOL * (1 + abs(cut))]
                face_diam = _pairwise_diameter(face)
                # the rank check builds the hull, which steiner then reuses
                if face_diam <= 0 or face_diam > prev_diam * _SHRINK or not clipped.is_full_dimensional:
                    continue
                shift = steiner(clipped, grid)
                centered = translate(clipped, -shift)
                cut_disp = hausdorff(centered, target, grid)
                if cut_disp <= budget:
                    break
            else:
                break  # no feasible depth for cut k: retry shallower
            faces = [f - shift for f in faces] + [face - shift]
            later = [p - shift for p in later]
            records.append(FaceRecord(normal=u.copy(), diameter=face_diam, vertex_set=faces[-1]))
            current, disp, prev_diam = centered, cut_disp, face_diam
        else:
            return current, records
    raise InfeasibleBudgetError(
        f"no feasible cut sequence within budget {budget}", min_displacement=disp
    )


def isotropy_estimate(
    body: Body,
    tol: float = 1e-6,
    grid: SphericalGrid | None = None,
) -> list[Rotation]:
    """Orthogonal g (about the origin, so the body is assumed centered)
    that move the body by less than tol.

    A full-dimensional polytope gets every g that moves each hull vertex
    within tol of a distinct hull vertex (``orthogonal_maps``), identity
    first; ``grid`` is not used.  These form a subset of
    {g : hausdorff(gD, D) < tol}: a map that moves D by less than tol but
    changes how vertices pair up (a cube with one corner cut far below
    tol keeps 6 of its 48 maps) is left out.  Other bodies (balls,
    ellipsoids, sampled bodies, segments) are scanned: candidates g whose
    support on ``grid`` moves by less than tol.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError("tol must be positive and finite")
    poly = as_polytope(body)
    if poly is not None and poly.is_full_dimensional:
        return [Rotation(g) for g in orthogonal_maps(poly, poly, tol)]
    return _isotropy_scan(body, tol, grid)


def _isotropy_scan(body: Body, tol: float, grid: SphericalGrid | None) -> list[Rotation]:
    """Candidates g of ``default_candidates(n)`` (a dense circle for n=2,
    an SO(3) spiral plus platonic groups for n=3, both doubled into the
    improper coset) whose support on the grid moves by less than tol."""
    n = body_dim(body)
    grid = grid or default_grid(n)
    base = support_values(body, grid.nodes)
    kept = []
    for g in default_candidates(n):
        vals = support_values(body, grid.nodes @ g)
        if float(np.abs(vals - base).max()) < tol:
            kept.append(Rotation(g))
    return kept
