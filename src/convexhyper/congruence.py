"""Congruence testing: distance between bodies modulo rigid motions.

Translations are removed by Steiner re-centering; what remains is the
orbit distance  d([D], [K]) = min over g in O(n) of hausdorff(gD, K).
Two full-dimensional polytopes that ``rotations.orthogonal_maps`` maps onto
each other within ``_EARLY_EXIT`` take the exact value at those maps.  Any
other pair is estimated by a coarse grid over the group followed by local
refinement from the best grid points, with the coarse evaluations as an
audit certificate.

The objective maps a stack of orthogonal matrices to one exact Hausdorff
value each (``metrics._stacked_gap``) when both bodies are ``_rotatable``:
the coarse scan is one call, and the starts refine in lockstep
(``_lockstep``), one call per round for all they ask for.  In 2-D each
start is golden section in the angle, whose probes of a polygon pair take
the arc form for the whole stack (``_probe_2d``); in 3-D loose
Nelder-Mead finds a start's basin, a minimax trust-region step on the
gaps at the critical directions (``metrics._stacked_gaps``) its bottom.
The result is then an upper bound on the orbit distance.  Other bodies
use the grid maximum, a lower bound at each rotation, so theirs is a
minimum of lower bounds.
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
from .metrics import (golden_section_steps, _arc_hausdorff, _fan, _kernel_size, _side, _Side,
                      _stacked_gap, _stacked_gaps)
from .quadrature import SphericalGrid, default_grid
from .rotations import (axis_angle_matrix, circle_candidates, orthogonal_maps, rotation_matrix_2d,
                        sphere_candidates)

_EXACT_VERTEX_LIMIT = 60
_REFINE_TOL = 1e-9  # refinement tolerance: golden section at 1e-2 of it
_EARLY_EXIT = 1e-9  # exact-map tolerance; no further refinement once the best value is below it
_STACK_ENTRIES = 50_000  # rotation x vertex x direction entries per objective block
_MAX_COARSE = 1 << 16  # larger coarse grids are refused, not allocated
_BASIN_TOL = (1e-5, 1e-8)  # Nelder-Mead (xatol in radians, fatol) of the basin finder
_TIGHT_TOL = (1e-11, 1e-13)  # ... and of the run after a stalled polish
_POLISH_FLOOR, _MIN_RADIUS = 1e-13, 1e-12  # polish: least predicted decrease, trust radius
_MIRROR = np.diag([1.0, -1.0])  # a 2-D rotation times it is an improper start's matrix


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the O(n) search.

    ``coarse`` is the number of coarse angles (n=2) or SO(3) grid points
    (n=3); ``starts`` is how many best coarse points seed local refinement;
    ``include_reflections`` searches O(n) rather than SO(n);
    ``max_iterations`` caps each stage of a 3-D start (each Nelder-Mead run,
    the polish steps).  Starts are chosen with a mutual-separation filter
    so several coarse points of one basin do not crowd out the others, and
    refinement stops once a value drops below ``_EARLY_EXIT``: the starts
    run in lockstep, and the later ones pause once a start is given such a
    value and are cancelled once it ends below it.
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
    """``candidates`` are the coarse matrices (read-only: the candidate
    grids are shared), or the exact maps of a congruent polytope pair,
    and ``values`` the objective at each;
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


def _objective(d, k, d_body: Body, k_values: np.ndarray, nodes: np.ndarray, pieces=False):
    """values[b] = hausdorff(mats[b] D, K) for a stack ``mats`` of orthogonal
    matrices: exact when both bodies are ``_rotatable`` (``_stacked_gap``, in
    blocks of at most ``_STACK_ENTRIES`` entries), which keeps the metric
    symmetric and O(n)-invariant at refinement accuracy; else the grid max
    (ellipsoids, sampled or large bodies), exact at the identity and a lower
    bound elsewhere.  With ``pieces``, row b holds the gaps
    |h_{g D}(u) - h_K(u)| at each direction u the sup is taken over
    (``_stacked_gaps`` or the grid nodes), whose max is values[b]."""
    if d is None or k is None:
        def rows(mats):
            return np.abs(np.array([support_values(d_body, nodes @ g) for g in mats]) - k_values)

        return rows if pieces else lambda mats: np.array([rows(g[None]).max() for g in mats])
    kernel = _stacked_gaps if pieces else _stacked_gap
    block = max(1, _STACK_ENTRIES // _kernel_size(d, k))
    return lambda mats: np.concatenate(
        [kernel(d, k, mats[i:i + block]) for i in range(0, len(mats), block)]
    )


def _probe_2d(dc: Body, kc: Body, objective):
    """The objective at a stack of 2-D matrices for golden section.

    Polygon pairs of at most ``_EXACT_VERTEX_LIMIT`` vertices take the arc
    form, whose bits the benchmark records, against K's side built once
    per search.  A probe moves D's vertices and hull rings for the whole
    stack as ``rigid_motion`` does for one matrix and builds no polytope,
    so entry s is exact_hausdorff(rigid_motion(pd, mats[s]), pk) bit for
    bit.  Other pairs take the objective itself.
    """
    pd, pk = as_polytope(dc), as_polytope(kc)
    if pd is None or pk is None or max(len(pd.vertices), len(pk.vertices)) > _EXACT_VERTEX_LIMIT:
        return objective
    vk, ang_k, hull = pk.vertices, _fan(pk.hull.polygon), pd.hull
    rings = np.stack((hull.index[hull.ring], hull.index[hull.ring[::-1]]))  # proper, improper

    def probe(mats):
        v = pd.vertices @ mats.transpose(0, 2, 1)
        flips = [int(g[0][0] * g[1][1] < g[0][1] * g[1][0]) for g in mats.tolist()]  # det(g) < 0
        moved = v[np.arange(len(v))[:, None], rings[flips]]
        return _arc_hausdorff(v, _fan(np.round(moved, 12)), vk, ang_k)

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

    Otherwise the coarse scan is one stacked objective call, and the
    starts refine in lockstep (``_lockstep``): every round evaluates the
    matrices all running starts ask for in one call, which gives each
    start the values it would get alone.  A 3-D start runs Nelder-Mead to
    its basin, a minimax trust-region polish, and a tight Nelder-Mead run
    if the polish stalls (``_refine_3d``); a 2-D start runs golden section
    in the angle (``_golden_2d``), whose probes take the arc form for
    polygon pairs (``_probe_2d``), bit-identical to ``exact_hausdorff`` of
    the moved polygon, and the objective for every other pair.

    The reported distance is the smallest of the coarse minimum and the
    value each refinement returns, in start order, until one falls below
    ``_EARLY_EXIT`` (the starts after it are paused once it is given such
    a value, and cancelled once it ends below it): in 3-D the lowest
    value a start was given, in 2-D the objective at the midpoint of the
    final golden-section bracket, which can lie slightly above the lowest
    probe (up to about 1e-12).  So it never exceeds the coarse
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
    sides = _rotatable(dc), _rotatable(kc)
    objective = _objective(*sides, dc, k_values, grid.nodes)
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
            outcomes = _golden_min(_probe_2d(dc, kc, objective), starts, 2.0 * math.pi / coarse_n)
        else:
            reach = max(np.abs(k_values).max(), np.abs(support_values(dc, grid.nodes)).max())
            pieces = _objective(*sides, dc, k_values, grid.nodes, pieces=True)
            outcomes = _lockstep(pieces, [_refine_3d(g0, spacing, reach, search.max_iterations)
                                          for g0 in starts])
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


def _golden_min(probe, starts, span: float) -> list:
    """(value, matrix) of ``_golden_2d`` from each 2-D start, in start order,
    run in lockstep: one ``probe`` call per round.  The whole 2-D
    refinement of a search, under one name that perfbench's tracer wraps."""
    return _lockstep(lambda mats: probe(mats)[:, None], [_golden_2d(g0, span) for g0 in starts])


def _golden_2d(g0: np.ndarray, span: float):
    """Golden section (``golden_section_steps``) in the angle within ``span``
    of the coarse matrix g0, in g0's coset: yields stacks of one matrix,
    receives their rows of one value; returns (value, matrix) at the
    final bracket's midpoint."""
    improper = np.linalg.det(g0) < 0
    theta0 = math.atan2(g0[1, 0], g0[0, 0])

    def matrix(t):
        g = rotation_matrix_2d(t)
        return (g @ _MIRROR if improper else g)[None]

    steps = golden_section_steps(theta0 - span, theta0 + span, tol=_REFINE_TOL * 1e-2)
    try:
        t = next(steps)
        while True:
            t = steps.send(float((yield matrix(t))[0, 0]))
    except StopIteration as done:
        g = matrix(done.value)
    # the estimate is the final bracket's midpoint, not the best probe, so
    # 2-D results match the recorded perfbench outputs
    return float((yield g)[0, 0]), g[0]


def _nelder_mead_3d(g0: np.ndarray, scale: float, tols: tuple, max_iterations: int):
    """Nelder-Mead in w of g0 exp(w) from the simplex of side ``scale`` at 0: yields
    matrices, receives their pieces (``_objective``); returns (least value, matrix)."""
    steps = nelder_mead_steps(_initial_simplex(scale), *tols, max_iterations)
    try:
        points = next(steps)
        while True:
            rows = yield np.array([g0 @ axis_angle_matrix_safe(w) for w in points])
            points = steps.send(rows.max(axis=1))
    except StopIteration as done:
        w, value = done.value
    return float(value), g0 @ axis_angle_matrix_safe(w)


def _polish_3d(g: np.ndarray, value: float, reach: float, delta: float, max_iterations: int):
    """Minimax trust-region polish (Madsen & Schjaer-Jacobsen, Math. Programming
    14, 1978) of f(exp(w) g), the max of the pieces f_i: each round evaluates a
    trial matrix and exp(+-h e_i) of it for central-difference gradients G_i,
    and ``_minimax_step`` minimizes the linearized max of the pieces within
    4 sqrt(3) ``reach`` delta of f whose |G_i| is at most 2 ``reach`` (a gap at
    a fixed direction moves no faster; a larger G_i follows a direction that
    swings fast, g p - q near 0).  A step that gains a tenth of the predicted
    decrease is taken, doubling delta if it reached the box |w_j| <= delta;
    else delta is quartered.  Yields and receives like ``_nelder_mead_3d``;
    returns (least value of any row, its matrix, stalled: delta fell below
    ``_MIN_RADIUS`` with a predicted decrease above ``_POLISH_FLOOR``)."""
    best, cap, trial, w = (value, g), 20.0 * delta, g, None
    for _ in range(max_iterations + 1):
        if not 0.0 < value < math.inf:
            break
        h = min(1e-6, 1e-2 * value / reach)
        probes = np.array([trial] + [axis_angle_matrix(e, sign * h) @ trial
                                     for e in np.eye(3) for sign in (1.0, -1.0)])
        rows = yield probes
        values = rows.max(axis=1)
        least = int(np.argmin(values))
        if values[least] < best[0]:
            best = (float(values[least]), probes[least])
        if w is None or value - values[0] >= 0.1 * predicted:
            if w is not None and np.abs(w).max() >= delta * (1.0 - 1e-9):
                delta = min(2.0 * delta, cap)
            g, value, f = trial, float(values[0]), rows[0]
            grad = (rows[1::2] - rows[2::2]).T / (2.0 * h)
        else:
            delta *= 0.25
            if delta < _MIN_RADIUS:
                return best[0], best[1], True
        near = ((f >= value - 4.0 * math.sqrt(3.0) * reach * delta)
                & (np.linalg.norm(grad, axis=1) <= 2.0 * reach))
        near[np.argmax(f)] = True  # the model's max at w = 0 is f
        w, t = _minimax_step(f[near], grad[near], delta)
        predicted = value - t
        if predicted <= _POLISH_FLOOR:
            break
        trial = axis_angle_matrix_safe(w) @ g
    return best[0], best[1], False


def _minimax_step(f: np.ndarray, grad: np.ndarray, delta: float):
    """(w, t) minimizing t subject to f_i + grad_i . w <= t and |w_j| <= delta:
    a dense tableau simplex with Bland's rule on the 8 highest pieces, adding
    the 8 that its solution violates most until it violates none.  With
    w = y - delta and t = top - tau, top bounding the model on the box, the
    rows read grad_i . y + tau <= top - f_i + delta sum_j grad_ij and
    y_j <= 2 delta, all right sides >= 0: the slack basis is feasible."""
    rows, n = np.argsort(-f)[:8], grad.shape[1]
    eps = 1e-12 * max(1.0, float(np.abs(grad).max(initial=0.0)))
    while True:
        fr, gr, m = f[rows], grad[rows], len(rows)
        top = float((fr + delta * np.abs(gr).sum(axis=1)).max())
        tab = np.zeros((m + n + 1, 2 * n + m + 2))
        tab[:m, :n], tab[:m, n], tab[m:m + n, :n] = gr, 1.0, np.eye(n)
        tab[:-1, n + 1:-1] = np.eye(m + n)
        tab[:m, -1] = np.maximum(top - fr + delta * gr.sum(axis=1), 0.0)
        tab[m:m + n, -1], tab[-1, n] = 2.0 * delta, -1.0
        basis = np.arange(n + 1, 2 * n + m + 1)
        while (entering := np.flatnonzero(tab[-1, :-1] < -eps)).size:
            col = entering[0]
            rise = np.flatnonzero(tab[:-1, col] > eps)
            ratios = tab[rise, -1] / tab[rise, col]
            ties = rise[ratios <= ratios.min()]
            row = ties[np.argmin(basis[ties])]
            pivot = tab[row] / tab[row, col]
            tab -= np.outer(tab[:, col], pivot)
            tab[row], basis[row] = pivot, col
        x = np.zeros(tab.shape[1] - 1)
        x[basis] = tab[:-1, -1]
        w, t = x[:n] - delta, top - x[n]
        excess = f + grad @ w - t
        excess[rows] = 0.0
        worst = np.argsort(-excess)[:8]
        worst = worst[excess[worst] > 1e-14 * (1.0 + abs(t))]
        if not worst.size:
            return w, t
        rows = np.concatenate((rows, worst))


def _refine_3d(g0: np.ndarray, spacing: float, reach: float, max_iterations: int):
    """(least value, its matrix) from the coarse matrix g0: a loose Nelder-Mead
    run finds the basin, ``_polish_3d`` its bottom, and a tight Nelder-Mead
    run follows a stalled polish.  Yields and receives like the stages."""
    v1, g1 = yield from _nelder_mead_3d(g0, 0.5 * spacing, _BASIN_TOL, max_iterations)
    v2, g2, stalled = yield from _polish_3d(g1, v1, reach, spacing / 20.0, max_iterations)
    if not stalled:
        return v2, g2
    v3, g3 = yield from _nelder_mead_3d(g2, 1e-4, _TIGHT_TOL, max_iterations)
    return (v3, g3) if v3 <= v2 else (v2, g2)


def _lockstep(evaluate, runs: list) -> list:
    """(value, matrix) that each run returns, in start order; None for a
    cancelled one.

    A run (``_refine_3d``, ``_golden_2d``) yields stacks of matrices and
    receives their rows, ``evaluate`` of the stack, whose row max is the
    objective.  Each round stacks the matrices every running start asks
    for into one ``evaluate`` call.  A row does not depend on the rest of
    its stack, so each start sees the rows it would get alone.  Early exit
    pauses, it does not cancel: once start j is given a value below
    ``_EARLY_EXIT``, the later starts keep the rows of that round unsent.
    They resume if j ends at or above it, and are cancelled if j ends
    below it, where the search stops at j or before.  So every start up
    to the one the search stops at runs as it would alone.  A 3-D start
    returns the least value it was given, so there a pause is a cancel;
    a 2-D start returns its midpoint value, which can lie above the least.
    """
    asked = {j: next(run) for j, run in enumerate(runs)}
    held, low, outcomes = {}, set(), [None] * len(runs)
    while asked:
        active = sorted(asked)
        stack = [asked.pop(j) for j in active]
        rows = evaluate(np.concatenate(stack))
        values, hi = rows.max(axis=1).tolist(), 0
        for j, mats in zip(active, stack):
            lo, hi = hi, hi + len(mats)
            held[j] = rows[lo:hi], min(values[lo:hi])
        for j in sorted(held):
            if j not in held or (low and j > min(low)):
                continue  # cancelled, or paused behind a start given a low value
            answer, least = held.pop(j)
            if least < _EARLY_EXIT:
                low.add(j)
            try:
                asked[j] = runs[j].send(answer)
            except StopIteration as stop:
                outcomes[j] = stop.value
                if stop.value[0] < _EARLY_EXIT:  # the later starts are never needed
                    held = {i: kept for i, kept in held.items() if i < j}
                else:
                    low.discard(j)
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
