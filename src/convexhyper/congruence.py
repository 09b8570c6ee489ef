"""Congruence testing: distance between bodies modulo rigid motions.

Translations are removed by Steiner re-centering; what remains is the
orbit distance  d([D], [K]) = min over g in O(n) of hausdorff(gD, K),
estimated by a coarse grid over the group followed by local derivative-free
refinement from the best grid points.  The result is an upper bound on the
true orbit distance together with the coarse evaluations as an audit
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .bodies import Ball, Body, Rotation, as_polytope, body_dim, rigid_motion, support_values
from .errors import DimensionMismatchError, InvalidArgumentError
from .metrics import exact_hausdorff, recenter, support_moment_matrix
# the 2-D refinement calls golden section by this module-level name, so
# perfbench's tracer can wrap it here without touching hausdorff's use
from .metrics import golden_section_min as _golden_min
from .quadrature import SphericalGrid, default_grid
from .rotations import axis_angle_matrix, circle_candidates, rotation_matrix_2d, sphere_candidates

_EXACT_VERTEX_LIMIT = 60
_REFINE_TOL = 1e-9  # refinement tolerance: golden section at 1e-2 of it
_EARLY_EXIT = 1e-9  # no further refinement once the best value is below this


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
        if self.coarse is not None and self.coarse < 4:
            raise InvalidArgumentError("coarse grid must have at least 4 points")
        if self.starts < 1:
            raise InvalidArgumentError("need at least one refinement start")


@dataclass(frozen=True)
class CongruenceResult:
    distance: float
    optimizer: Rotation
    certificate: tuple

    @property
    def certificate_size(self) -> int:
        return len(self.certificate)


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


def _objective_factory(d_body: Body, k_body: Body, k_values: np.ndarray, nodes: np.ndarray):
    """Objective f(g) = hausdorff(g D, K), exact for polytope/ball pairs.

    The exact evaluator is parametrization-free, which keeps the metric
    symmetric and O(n)-invariant at refinement accuracy; the grid-max
    fallback (sampled or large bodies) is exact at the identity and a
    lower bound elsewhere.
    """
    d_rot = _rotatable(d_body)
    k_rot = _rotatable(k_body)
    if d_rot is not None and k_rot is not None:
        def f_exact(g: np.ndarray) -> float:
            if d_rot[0] == "polytope":
                moved: Body = rigid_motion(d_rot[1], g)
            else:
                moved = Ball(g @ d_rot[1].center, d_rot[1].radius)
            value = exact_hausdorff(moved, k_rot[1])
            if value is None:  # pragma: no cover - guarded by _rotatable
                vals = support_values(d_body, nodes @ g)
                return float(np.abs(vals - k_values).max())
            return value

        return f_exact

    def f_grid(g: np.ndarray) -> float:
        vals = support_values(d_body, nodes @ g)
        return float(np.abs(vals - k_values).max())

    return f_grid


def congruence_distance(
    d: Body,
    k: Body,
    grid: SphericalGrid | None = None,
    search: SearchParams | None = None,
) -> CongruenceResult:
    """Minimize hausdorff(g D, K) over O(n) after re-centering both bodies.

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
    objective = _objective_factory(dc, kc, k_values, grid.nodes)

    if n == 2:
        coarse_n = search.coarse or 360
        mats = circle_candidates(coarse_n, search.include_reflections)
    else:
        coarse_n = search.coarse or 576
        mats = sphere_candidates(coarse_n, search.include_reflections)

    values = np.asarray([objective(g) for g in mats])
    certificate = tuple(
        (Rotation(g), float(v)) for g, v in zip(mats, values)
    )
    order = np.argsort(values, kind="stable")
    best_val = float(values[order[0]])
    best_mat = mats[order[0]]

    if n == 2:
        min_sep = 1.5 * (2.0 * math.pi / coarse_n)
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
                return objective(g)

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
                return objective(_g0 @ axis_angle_matrix_safe(w))

            res = minimize(
                f_w,
                np.zeros(3),
                method="Nelder-Mead",
                options={
                    "xatol": _REFINE_TOL,
                    "fatol": _REFINE_TOL * 1e-3,
                    "maxiter": search.max_iterations,
                    "initial_simplex": _initial_simplex(spacing * 0.5),
                },
            )
            # restart once from the incumbent with a tighter simplex
            res2 = minimize(
                f_w,
                res.x,
                method="Nelder-Mead",
                options={
                    "xatol": _REFINE_TOL * 1e-2,
                    "fatol": _REFINE_TOL * 1e-4,
                    "maxiter": search.max_iterations,
                    "initial_simplex": res.x + _initial_simplex(1e-4),
                },
            )
            w_star = res2.x if res2.fun <= res.fun else res.x
            v_star = float(min(res.fun, res2.fun))
            g_star = g0 @ axis_angle_matrix_safe(w_star)
        if v_star < best_val:
            best_val = v_star
            best_mat = g_star

    if swapped:
        best_mat = best_mat.T
        certificate = tuple((Rotation(r.matrix.T), v) for r, v in certificate)
    return CongruenceResult(
        distance=best_val,
        optimizer=Rotation(best_mat),
        certificate=certificate,
    )


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
    if not math.isfinite(tol):
        raise InvalidArgumentError("tol must be finite")
    return congruence_distance(d, k, grid, search).distance < tol
