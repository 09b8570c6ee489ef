"""Outside-in tracer: spans around convexhyper's public functions.

Nothing in ``src/`` knows about this module.  ``install_qhull_hook`` must
run before ``convexhyper`` is imported, because the library binds
``scipy.spatial.ConvexHull`` at import time.  ``install_library_hooks``
runs after the import and replaces each named function at every module
attribute that holds it (aliases such as ``cli.hausdorff_fn`` included),
so the wrapper sits exactly where the caller looks the function up.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op, rows,
cols]`` and summarised (self time, counts) at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (span name, defining module, attributes, outermost_only, record_rows)
# outermost_only: a call made while a span of the same name is open runs
# untraced, so recursion (support_values over Sum trees, steiner over
# Minkowski sums, default_grid -> make_grid_3d) counts once.
LIBRARY_HOOKS = [
    ("bodies.support_values", "bodies", ("support_values",), True, True),
    ("bodies.convex_hull_vertices", "bodies", ("convex_hull_vertices",), True, False),
    ("metrics.exact_hausdorff", "metrics", ("exact_hausdorff",), False, False),
    ("metrics.hausdorff", "metrics", ("hausdorff",), False, False),
    ("metrics.steiner", "metrics", ("steiner",), True, False),
    ("metrics.support_moment_matrix", "metrics", ("support_moment_matrix",), True, False),
    ("regularization.mollify", "regularization", ("mollify",), False, False),
    ("regularization.canonical_frame", "regularization", ("canonical_frame",), False, False),
    ("curvature.curvature_report", "curvature", ("curvature_report",), False, False),
    ("truncation.truncate", "truncation", ("truncate",), False, False),
    ("truncation.desymmetrize", "truncation", ("desymmetrize",), False, False),
    ("truncation.isotropy_estimate", "truncation", ("isotropy_estimate",), False, False),
    (
        "quadrature.grids",
        "quadrature",
        ("make_grid_2d", "make_grid_3d", "make_grid_nd", "default_grid", "rotate_grid"),
        True,
        False,
    ),
    ("serialization.parse_body", "serialization", ("parse_body",), False, False),
    ("serialization.serialize_body", "serialization", ("serialize_body",), False, False),
]

# Hooks placed only at one module's binding: (span name, module, attribute).
# The congruence objective is the exact_hausdorff call the search makes;
# refinement is Nelder-Mead (n=3) or golden section (n=2).
LOCAL_HOOKS = [
    ("congruence.objective", "congruence", "exact_hausdorff"),
    ("congruence.refine", "congruence", "minimize"),
    ("congruence.refine", "congruence", "_golden_min"),
    ("truncation.isotropy.candidates", "truncation", "default_candidates"),
]


class Tracer:
    """In-memory span recorder; ``enabled`` gates all recording."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[int] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, outermost_only=False, record_rows=False, count_result=False):
        nid = self._intern(name)
        spans, stack, opened = self.spans, self.stack, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (outermost_only and opened[nid]):
                return fn(*args, **kwargs)
            rec = [nid, clock(), 0, stack[-1] if stack else -1, self.op, 0, 0]
            if record_rows:
                shape = np.shape(args[1] if len(args) > 1 else kwargs["dirs"])
                rec[5] = shape[0] if len(shape) > 1 else 1
                rec[6] = shape[-1]
            index = len(spans)
            spans.append(rec)
            stack.append(index)
            opened[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                opened[nid] -= 1
                stack.pop()
                rec[2] = clock()
            if count_result:
                rec[5] = len(result)
            return result

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "missing": self.missing}


def install_qhull_hook(tracer: Tracer):
    """Count and time every scipy.spatial.ConvexHull construction."""
    import scipy.spatial

    original = scipy.spatial.ConvexHull
    init = tracer.wrap("qhull", original.__init__)

    class ConvexHull(original):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)

    ConvexHull.__name__ = ConvexHull.__qualname__ = "ConvexHull"
    scipy.spatial.ConvexHull = ConvexHull


def _library_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "convexhyper" or name.startswith("convexhyper."))
    ]


def _rebind(original, replacement):
    for module in _library_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install_library_hooks(tracer: Tracer):
    """Wrap the named functions at every binding in loaded library modules."""
    for name, module_name, attrs, outermost, rows in LIBRARY_HOOKS:
        module = sys.modules.get("convexhyper." + module_name)
        for attr in attrs:
            original = getattr(module, attr, None) if module else None
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            _rebind(original, tracer.wrap(name, original, outermost, rows))
    for name, module_name, attr in LOCAL_HOOKS:
        module = sys.modules.get("convexhyper." + module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        counted = name == "truncation.isotropy.candidates"
        setattr(module, attr, tracer.wrap(name, original, count_result=counted))


def summarize(dumps: list[dict]) -> dict:
    """Per-name totals over one or more process dumps.

    Returns {name: {"calls", "incl_s", "self_s", "rows", "row_bytes"}} plus
    the congruence split: objective time under a refine span counts as
    refinement, the rest as the coarse scan.
    """
    totals: dict[str, dict] = {}
    coarse_s = 0.0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        if not spans:
            continue
        arr = np.asarray(spans, dtype=np.int64)
        nid, start, end, parent = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
        incl = (end - start).astype(float) * 1e-9
        child = np.zeros(len(arr))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], incl[has_parent])
        self_t = incl - child
        rows, cols = arr[:, 5], arr[:, 6]
        for i, name in enumerate(names):
            mask = nid == i
            if not mask.any():
                continue
            entry = totals.setdefault(
                name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "rows": 0, "row_bytes": 0}
            )
            entry["calls"] += int(mask.sum())
            entry["incl_s"] += float(incl[mask].sum())
            entry["self_s"] += float(self_t[mask].sum())
            entry["rows"] += int(rows[mask].sum())
            entry["row_bytes"] += int((rows[mask] * (cols[mask] + 1) * 8).sum())
        if "congruence.objective" in names:
            obj = names.index("congruence.objective")
            refine = names.index("congruence.refine") if "congruence.refine" in names else -1
            under_refine = np.zeros(len(arr), dtype=bool)
            # parents precede children, so one forward pass propagates the flag
            for i in range(len(arr)):
                p = parent[i]
                under_refine[i] = nid[i] == refine or (p >= 0 and under_refine[p])
            coarse_s += float(incl[(nid == obj) & ~under_refine].sum())
        if "regularization.mollify" in names and "bodies.support_values" in names:
            mol = names.index("regularization.mollify")
            sv = names.index("bodies.support_values")
            kernel = (nid == sv) & has_parent
            kernel[kernel] = nid[parent[kernel]] == mol
            entry = totals.setdefault(
                "kernel", {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "rows": 0, "row_bytes": 0}
            )
            entry["calls"] += int(kernel.sum())
            entry["rows"] += int(rows[kernel].sum())
            entry["row_bytes"] += int((rows[kernel] * (cols[kernel] + 1) * 8).sum())
    totals["_coarse_s"] = coarse_s
    return totals
