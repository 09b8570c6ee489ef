"""SVG emission for planar bodies (developer aid, display only)."""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .bodies import Body, Polytope, body_dim, support_values
from .errors import InvalidArgumentError

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_OUTLINE_POINTS = 512  # support points traced around a non-polytope
_SIZE_PX = 640  # longer side of the SVG viewBox


def boundary_points_2d(body: Body) -> np.ndarray:
    """Closed boundary polyline traced through support points.

    Polytopes use their hull vertices; everything else is traced at
    ``_OUTLINE_POINTS`` angles via x(theta) = h u + h' u_perp with h' from
    central differences.
    """
    if body_dim(body) != 2:
        raise InvalidArgumentError("plotting supports planar bodies only")
    if isinstance(body, Polytope):
        return body.hull.polygon
    count = _OUTLINE_POINTS
    theta = 2.0 * math.pi * np.arange(count) / count
    step = math.pi / count
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    up = np.column_stack([np.cos(theta + step), np.sin(theta + step)])
    um = np.column_stack([np.cos(theta - step), np.sin(theta - step)])
    h = support_values(body, u)
    dh = (support_values(body, up) - support_values(body, um)) / (2.0 * step)
    perp = np.column_stack([-u[:, 1], u[:, 0]])
    return u * h[:, None] + perp * dh[:, None]


def atomic_write_text(path: str, text: str):
    """Write-temp-then-rename so readers never observe partial files."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def plot_svg_2d(bodies, path: str):
    """Write one closed SVG path per body, auto-scaled viewBox."""
    outlines = [boundary_points_2d(b) for b in bodies]
    if outlines:
        allpts = np.vstack(outlines)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
        pad = 0.05 * max(float((hi - lo).max()), 1e-9)
        lo -= pad
        hi += pad
    else:
        lo = np.array([-1.0, -1.0])
        hi = np.array([1.0, 1.0])
    span = hi - lo
    scale = _SIZE_PX / max(span[0], span[1])

    def to_px(p):
        # SVG y runs downward
        return (p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale

    paths = []
    for i, pts in enumerate(outlines):
        coords = " ".join(
            f"{x:.3f},{y:.3f}" for x, y in (to_px(p) for p in pts)
        )
        color = _PALETTE[i % len(_PALETTE)]
        paths.append(
            f'<path d="M {coords} Z" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    w = span[0] * scale
    h = span[1] * scale
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w:.3f} {h:.3f}" '
        f'width="{w:.0f}" height="{h:.0f}">\n' + "\n".join(paths) + "\n</svg>\n"
    )
    atomic_write_text(path, svg)
