"""Congruence testing: distance between bodies modulo rigid motions.

Translations are removed by Steiner re-centering; what remains is the
orbit distance  d([D], [K]) = min over g in O(n) of hausdorff(gD, K),
estimated by a coarse grid over the group followed by local derivative-free
refinement from the best grid points.  The result is an upper bound on the
true orbit distance together with the coarse evaluations as an audit
certificate.

The objective maps a stack of orthogonal matrices to one exact Hausdorff
value each: the coarse scan is one call, each 3-D Nelder-Mead step
(``metrics.nelder_mead``, bit-identical to scipy's) a stack of one, and 2-D
golden section keeps calling ``exact_hausdorff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bodies import Ball, Body, Rotation, as_polytope, body_dim, rigid_motion, support_values
from .errors import DimensionMismatchError, InvalidArgumentError
from .metrics import exact_hausdorff, nelder_mead, recenter, support_moment_matrix
# the 2-D refinement calls golden section by this module-level name, so
# perfbench's tracer can wrap it here without touching hausdorff's use
from .metrics import golden_section_min as _golden_min
from .quadrature import SphericalGrid, default_grid
from .rotations import axis_angle_matrix, circle_candidates, rotation_matrix_2d, sphere_candidates

_EXACT_VERTEX_LIMIT = 60
_REFINE_TOL = 1e-9  # refinement tolerance: golden section at 1e-2 of it
_EARLY_EXIT = 1e-9  # no further refinement once the best value is below this
_STACK_ENTRIES = 16_000  # rotation x vertex x direction entries per objective block
_MAX_COARSE = 1 << 16  # larger coarse grids are refused, not allocated


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the O(n) search.

    ``coarse`` is the number of coarse angles (n=2) or SO(3) grid points
    (n=3); ``starts`` is how many best coarse points seed local
    refinement; ``include_reflections`` searches O(n) rather than SO(n);
    ``max_iterations`` caps each Nelder-Mead run (n=3).  Starts are
    chosen with a mutual-separation filter so several coarse points of
    one basin do not crowd out the others, and refinement stops once a
    value drops below ``_EARLY_EXIT``.
    """

    coarse: int | None = None
    starts: int = 5
    include_reflections: bool = True
    max_iterations: int = 800

    def __post_init__(self):
        if self.coarse is not None and not 4 <= self.coarse <= _MAX_COARSE:
            raise InvalidArgumentError(f"coarse grid must have 4 to {_MAX_COARSE} points")
        if self.starts < 1:
            raise InvalidArgumentError("need at least one refinement start")


@dataclass(frozen=True)
class CongruenceResult:
    """``candidates`` are the coarse matrices and ``values`` the objective
    at each; ``certificate`` pairs them as (Rotation, value), built on
    first access."""

    distance: float
    optimizer: Rotation
    candidates: np.ndarray
    values: np.ndarray

    @cached_property
    def certificate(self) -> tuple:
        return tuple((Rotation(g), float(v)) for g, v in zip(self.candidates, self.values))

    @property
    def certificate_size(self) -> int:
        return len(self.values)


def _canonical_key(body: Body) -> tuple:
    """Rotation-invariant ordering key (exact support-moment spectrum)."""
    m = support_moment_matrix(body)
    evals = np.sort(np.linalg.eigvalsh(m))[::-1]
    return tuple(np.round(np.concatenate([[np.trace(m)], evals]), 9).tolist())


def _rotatable(body: Body):
    """(kind, payload) when g |-> g body admits an exact-hausdorff form."""
    poly = as_polytope(body)
    if poly is not None and poly.vertices.shape[0] <= _EXACT_VERTEX_LIMIT:
        poly.hull  # built once here; the objective only carries it
        return "polytope", poly
    if isinstance(body, Ball):
        return "ball", body
    return None


class _Side(NamedTuple):
    """A rotatable body in its own frame: h(u) = max <p, u> + radius over
    ``points`` (a ball is its centre), ``normals`` of facets (3-D) or edges
    (2-D).  In 3-D each edge (first end p, unit e) has a 3 x 3 block of
    ``projector`` P = I - e e^T, and P p in ``base``."""

    points: np.ndarray
    radius: float
    normals: np.ndarray
    units: np.ndarray | None = None
    projector: np.ndarray | None = None
    base: np.ndarray | None = None


def _side(rot) -> _Side | None:
    """The pieces of a ``_rotatable`` body, or None when it has no exact form."""
    if rot is None:
        return None
    kind, payload = rot
    n = payload.dim
    if kind == "ball":  # any unit vector is a ball normal; one stands in for all
        none = np.empty((0, n))
        return _Side(payload.center[None, :], payload.radius, np.eye(n)[:1],
                     none, none.T, none)
    hull = payload.hull
    pts = payload.vertices[hull.index]
    if n == 2:
        e = np.roll(pts[hull.ring], -1, axis=0) - pts[hull.ring]
        return _Side(pts, 0.0, np.column_stack([-e[:, 1], e[:, 0]]))
    if hull.normals is None:
        return None
    first = pts[hull.edges[:, 0]]
    e = pts[hull.edges[:, 1]] - first
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    proj = np.eye(3) - e[:, :, None] * e[:, None, :]
    return _Side(pts, 0.0, hull.normals, e, proj.transpose(1, 0, 2).reshape(3, -1),
                 np.einsum("eij,ej->ei", proj, first))


def _ridges(side: _Side, targets: np.ndarray) -> np.ndarray:
    """(I - e e^T)(p - t) for each edge (p, e) of ``side`` and stacked target t."""
    return side.base - (targets @ side.projector).reshape(*targets.shape[:2], -1, 3)


def _stacked_gap(d: _Side, k: _Side, mats: np.ndarray) -> np.ndarray:
    """sup over u of |h_{g D}(u) - h_K(u)| for each g in the stack ``mats``.

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
    gap = np.maximum(np.abs(hd.max(axis=1) - hk.max(axis=1) + dr),
                     np.abs(hd.min(axis=1) - hk.min(axis=1) - dr))
    return (gap * scale).max(axis=1)


def _objective(d_rot, k_rot, d_body: Body, k_values: np.ndarray, nodes: np.ndarray):
    """values[b] = hausdorff(mats[b] D, K) for a stack ``mats`` of orthogonal
    matrices: exact for polytope and ball pairs (``_stacked_gap``, in blocks
    of at most ``_STACK_ENTRIES`` entries), which keeps the metric symmetric
    and O(n)-invariant at refinement accuracy; else the grid max (sampled or
    large bodies), exact at the identity and a lower bound elsewhere."""
    d, k = _side(d_rot), _side(k_rot)
    if d is None or k is None:
        return lambda mats: np.array(
            [np.abs(support_values(d_body, nodes @ g) - k_values).max() for g in mats]
        )
    dirs = len(d.normals) + len(k.normals) + len(d.points) * len(k.points)
    if nodes.shape[1] == 3:
        dirs += len(d.units) * len(k.points) + len(k.units) * len(d.points)
    block = max(1, _STACK_ENTRIES // (dirs * max(len(d.points), len(k.points))))
    return lambda mats: np.concatenate(
        [_stacked_gap(d, k, mats[i:i + block]) for i in range(0, len(mats), block)]
    )


def _scalar_2d(d_rot, k_rot, objective):
    """The objective at one 2-D matrix for golden section: ``exact_hausdorff``
    for polytope and ball pairs, whose byte-exact outputs the benchmark
    records (a stack of one once they are re-recorded)."""
    if d_rot is None or k_rot is None:
        return lambda g: float(objective(g[None])[0])
    if d_rot[0] == "ball":
        return lambda g: exact_hausdorff(Ball(g @ d_rot[1].center, d_rot[1].radius), k_rot[1])
    return lambda g: exact_hausdorff(rigid_motion(d_rot[1], g), k_rot[1])


def congruence_distance(
    d: Body,
    k: Body,
    grid: SphericalGrid | None = None,
    search: SearchParams | None = None,
) -> CongruenceResult:
    """Minimize hausdorff(g D, K) over O(n) after re-centering both bodies.

    The coarse scan is one stacked objective call and Nelder-Mead (n=3)
    evaluates stacks of one; golden section (n=2) calls ``exact_hausdorff``
    per angle for polytope and ball pairs, bit-identical to earlier outputs.

    The reported distance is the smallest of the coarse minimum and the
    value each refinement returns: in 3-D the lowest value Nelder-Mead
    reached, in 2-D the objective at the midpoint of the final
    golden-section bracket, which can lie slightly above the lowest probe
    (up to about 1e-12).  So it never exceeds the coarse minimum, and the
    identity candidate bounds it by hausdorff(recenter D, recenter K).

    The metric is a function of the unordered pair, so the arguments are
    put into a canonical order first; this makes d(D, K) = d(K, D) exact
    rather than accurate only to the sup-estimation resolution.
    """
    if body_dim(d) != body_dim(k):
        raise DimensionMismatchError("bodies live in different dimensions")
    n = body_dim(d)
    if n not in (2, 3):
        raise InvalidArgumentError("congruence search supports n = 2 and 3")
    grid = grid or default_grid(n)
    search = search or SearchParams()

    dc = recenter(d, grid)
    kc = recenter(k, grid)
    swapped = _canonical_key(kc) < _canonical_key(dc)
    if swapped:
        dc, kc = kc, dc
    k_values = support_values(kc, grid.nodes)
    d_rot, k_rot = _rotatable(dc), _rotatable(kc)
    objective = _objective(d_rot, k_rot, dc, k_values, grid.nodes)

    if n == 2:
        coarse_n = search.coarse or 360
        mats = circle_candidates(coarse_n, search.include_reflections)
    else:
        coarse_n = search.coarse or 576
        mats = sphere_candidates(coarse_n, search.include_reflections)

    values = objective(mats)
    order = np.argsort(values, kind="stable")
    best_val = float(values[order[0]])
    best_mat = mats[order[0]]

    if n == 2:
        min_sep = 1.5 * (2.0 * math.pi / coarse_n)
        scalar = _scalar_2d(d_rot, k_rot, objective)
    else:
        min_sep = 1.2 * (8.0 * math.pi**2 / coarse_n) ** (1.0 / 3.0)
    start_indices = _diverse_starts(mats, order, search.starts, min_sep)

    for idx in start_indices:
        if best_val < _EARLY_EXIT:
            break
        g0 = mats[idx]
        if n == 2:
            improper = np.linalg.det(g0) < 0
            theta0 = math.atan2(g0[1, 0], g0[0, 0])
            span = 2.0 * math.pi / coarse_n

            def f_theta(t, _improper=improper):
                g = rotation_matrix_2d(t)
                if _improper:
                    g = g @ np.diag([1.0, -1.0])
                return scalar(g)

            # the estimate is the final bracket's midpoint, not the best
            # probe, so 2-D results match the recorded perfbench outputs
            t_star = _golden_min(
                f_theta, theta0 - span, theta0 + span, tol=_REFINE_TOL * 1e-2
            )[2]
            v_star = f_theta(t_star)
            g_star = rotation_matrix_2d(t_star)
            if improper:
                g_star = g_star @ np.diag([1.0, -1.0])
        else:
            spacing = (8.0 * math.pi**2 / coarse_n) ** (1.0 / 3.0)

            def f_w(w, _g0=g0):
                return float(objective((_g0 @ axis_angle_matrix_safe(w))[None])[0])

            # a second run restarts from the incumbent with a tighter simplex
            runs, x0, scale = [], np.zeros(3), spacing * 0.5
            for xatol, fatol in ((1.0, 1e-3), (1e-2, 1e-4)):
                runs.append(nelder_mead(f_w, x0 + _initial_simplex(scale), _REFINE_TOL * xatol,
                                        _REFINE_TOL * fatol, search.max_iterations))
                x0, scale = runs[-1][0], 1e-4
            (w1, v1), (w2, v2) = runs
            w_star = w2 if v2 <= v1 else w1
            v_star = float(min(v1, v2))
            g_star = g0 @ axis_angle_matrix_safe(w_star)
        if v_star < best_val:
            best_val = v_star
            best_mat = g_star

    if swapped:
        best_mat = best_mat.T
        mats = mats.transpose(0, 2, 1)
    return CongruenceResult(distance=best_val, optimizer=Rotation(best_mat),
                            candidates=mats, values=values)


def _rotation_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle between two orthogonal matrices (inf across cosets)."""
    if np.linalg.det(a) * np.linalg.det(b) < 0:
        return math.inf
    rel = a.T @ b
    n = rel.shape[0]
    cos = (np.trace(rel) - (n - 2)) / 2.0
    return math.acos(min(1.0, max(-1.0, cos)))


def _diverse_starts(mats, order, starts: int, min_sep: float) -> list:
    """Best coarse points filtered so no two starts share a basin."""
    chosen: list = []
    for idx in order:
        if len(chosen) >= starts:
            break
        if all(_rotation_gap(mats[idx], mats[j]) > min_sep for j in chosen):
            chosen.append(int(idx))
    return chosen


def _initial_simplex(scale: float) -> np.ndarray:
    base = np.zeros((4, 3))
    base[1:, :] = np.eye(3) * scale
    return base


def axis_angle_matrix_safe(w: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(w))
    if angle < 1e-16:
        return np.eye(3)
    return axis_angle_matrix(w, angle)


def same_congruence_class(
    d: Body,
    k: Body,
    tol: float,
    grid: SphericalGrid | None = None,
    search: SearchParams | None = None,
) -> bool:
    """True iff the congruence distance falls below tol."""
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError("tol must be positive and finite")
    return congruence_distance(d, k, grid, search).distance < tol
