"""Umbrella command-line interface.

Exit codes: 0 success, 2 validation/parse error, 3 infeasible request
(empty truncation, impossible budget), 4 I/O failure.  All numbers print
with 17 significant digits.  Grid resolution resolves flag > env var
CONVEXHYPER_GRID ("M", "LATxLON", or "M,LATxLON") > library default.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import click
import numpy as np

from . import congruence as congruence_mod
from .bodies import Sum, body_dim, sample_support, support_values
from .corpus import Corpus
from .curvature import curvature_report
from .errors import (
    ConvexHyperError,
    EmptyResultError,
    InfeasibleBudgetError,
    InvalidArgumentError,
)
from .metrics import hausdorff as hausdorff_fn
from .metrics import recenter as recenter_fn
from .metrics import steiner as steiner_fn
from .plotting import atomic_write_text, plot_svg_2d
from .quadrature import (
    DEFAULT_LAT_3D,
    DEFAULT_LON_3D,
    DEFAULT_NODES_2D,
    make_grid_2d,
    make_grid_3d,
    make_grid_nd,
)
from .regularization import RegularizationParams, regularize as regularize_fn
from .serialization import BodyDocument, parse_body, serialize_body
from .truncation import (
    TruncationSpec,
    desymmetrize as desymmetrize_fn,
    isotropy_estimate,
    truncate as truncate_fn,
)

_NUM = "{:.17g}"
_MAX_EXTENT = 1e100  # squared norms and moments of larger input bodies overflow


def _fmt(x: float) -> str:
    return _NUM.format(float(x))


def _parse_ints(text: str, count: int, source: str) -> list[int]:
    """``count`` integers separated by "x" ("M" or "LATxLON")."""
    try:
        values = [int(p) for p in text.lower().split("x")]
    except ValueError:
        values = []
    if len(values) != count:
        shape = "M" if count == 1 else "LATxLON"
        raise InvalidArgumentError(f"{source} expects {shape}, got {text!r}")
    return values


def _parse_grid_env():
    raw = os.environ.get("CONVEXHYPER_GRID", "")
    m2, lat_lon = None, None
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "x" in part:
            lat_lon = _parse_ints(part, 2, "CONVEXHYPER_GRID")
        else:
            (m2,) = _parse_ints(part, 1, "CONVEXHYPER_GRID")
    return m2, lat_lon


def _resolve_grid(dim: int, grid_2d: int | None, grid_3d: str | None):
    env_m2, env_lat_lon = _parse_grid_env()
    if dim == 2:
        if grid_2d is not None:
            return make_grid_2d(grid_2d)
        return make_grid_2d(env_m2 if env_m2 is not None else DEFAULT_NODES_2D)
    if dim == 3:
        if grid_3d is not None:
            lat, lon = _parse_ints(grid_3d, 2, "--grid-3d")
        elif env_lat_lon is not None:
            lat, lon = env_lat_lon
        else:
            lat, lon = DEFAULT_LAT_3D, DEFAULT_LON_3D
        return make_grid_3d(lat, lon)
    return make_grid_nd(dim, 4096)


def _read_doc(path: str) -> BodyDocument:
    with open(path, "r") as fh:
        doc = parse_body(fh.read())
    axes = np.eye(body_dim(doc.body))
    with np.errstate(all="ignore"):  # max |x_i| over the body is max h(+-e_i)
        if not support_values(doc.body, np.r_[axes, -axes]).max() <= _MAX_EXTENT:
            raise InvalidArgumentError(f"body has coordinates beyond {_MAX_EXTENT:g} in magnitude")
    return doc


def _write_doc(path: str, doc: BodyDocument):
    atomic_write_text(path, serialize_body(doc) + "\n")


def _parse_vector(text: str) -> np.ndarray:
    try:
        x = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad vector {text!r}: {exc}") from None
    if not np.isfinite(x).all():
        raise InvalidArgumentError(f"bad vector {text!r}: entries must be finite")
    return x


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (EmptyResultError, InfeasibleBudgetError) as exc:
            click.echo(f"infeasible: {exc}", err=True)
            sys.exit(3)
        except ConvexHyperError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _grid_options(fn):
    fn = click.option("--grid-2d", type=int, default=None, help="2-D node count")(fn)
    fn = click.option(
        "--grid-3d", type=str, default=None, metavar="LATxLON", help="3-D grid size"
    )(fn)
    return fn


@click.group()
def main():
    """Convex bodies via support functions: metrics, smoothing, symmetry."""


@main.command()
@click.argument("body", type=click.Path(exists=True, dir_okay=False))
@click.option("--dir", "direction", required=True, help="direction X,Y[,Z,...]")
@_handle_errors
def support(body, direction):
    """Print the support value h(body) at a direction."""
    doc = _read_doc(body)
    x = _parse_vector(direction)
    from .bodies import eval_support

    with np.errstate(all="ignore"):  # h is positively homogeneous: scale x if it overflows
        value = eval_support(doc.body, x)
        if not math.isfinite(value):
            value = eval_support(doc.body, x / np.abs(x).max()) * float(np.abs(x).max())
    if not math.isfinite(value):
        raise InvalidArgumentError(f"support value at {direction!r} is not a finite float")
    click.echo(_fmt(value))


@main.command()
@click.argument("body", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_grid_options
@_handle_errors
def sample(body, out, grid_2d, grid_3d):
    """Sample the support function on a grid; write a sampled body."""
    doc = _read_doc(body)
    grid = _resolve_grid(body_dim(doc.body), grid_2d, grid_3d)
    sampled = sample_support(doc.body, grid)
    _write_doc(out, BodyDocument(body=sampled, metadata=doc.metadata))


@main.command()
@click.argument("body_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("body_b", type=click.Path(exists=True, dir_okay=False))
@_grid_options
@_handle_errors
def hausdorff(body_a, body_b, grid_2d, grid_3d):
    """Hausdorff distance between two bodies."""
    a = _read_doc(body_a).body
    b = _read_doc(body_b).body
    grid = _resolve_grid(body_dim(a), grid_2d, grid_3d)
    click.echo(_fmt(hausdorff_fn(a, b, grid)))


@main.command()
@click.argument("body", type=click.Path(exists=True, dir_okay=False))
@_grid_options
@_handle_errors
def steiner(body, grid_2d, grid_3d):
    """Steiner point coordinates."""
    doc = _read_doc(body)
    grid = _resolve_grid(body_dim(doc.body), grid_2d, grid_3d)
    s = steiner_fn(doc.body, grid)
    click.echo(" ".join(_fmt(v) for v in s))


@main.command()
@click.argument("body", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_grid_options
@_handle_errors
def recenter(body, out, grid_2d, grid_3d):
    """Translate the body so its Steiner point is the origin."""
    doc = _read_doc(body)
    grid = _resolve_grid(body_dim(doc.body), grid_2d, grid_3d)
    _write_doc(out, BodyDocument(body=recenter_fn(doc.body, grid), metadata=doc.metadata))


@main.command()
@click.argument("body_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("body_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--explicit", is_flag=True, help="materialize the vertex-sum polytope")
@_handle_errors
def minkowski(body_a, body_b, out, explicit):
    """Minkowski sum of two bodies."""
    a = _read_doc(body_a).body
    b = _read_doc(body_b).body
    if explicit:
        from .bodies import as_polytope, polytope_sum

        pa, pb = as_polytope(a), as_polytope(b)
        if pa is None or pb is None:
            raise InvalidArgumentError("--explicit needs polytope inputs")
        result = polytope_sum(pa, pb)
    else:
        result = Sum(a, b)
    _write_doc(out, BodyDocument(body=result))


@main.command()
@click.option("--t", "t_value", type=float, required=True)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--radial", type=int, default=16, show_default=True)
@click.option("--angular", type=int, default=None, help="kernel angular nodes")
@_grid_options
@_handle_errors
def regularize(t_value, in_path, out, radial, angular, grid_2d, grid_3d):
    """Smooth a body: mollify its support function and add a t-ball."""
    doc = _read_doc(in_path)
    grid = _resolve_grid(body_dim(doc.body), grid_2d, grid_3d)
    params = RegularizationParams(t=t_value, radial_nodes=radial, angular_nodes=angular)
    _write_doc(out, BodyDocument(body=regularize_fn(doc.body, params, grid)))


@main.command()
@click.option("--u", "direction", required=True, help="outward normal X,Y[,Z]")
@click.option("--eps", type=float, required=True)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_grid_options
@_handle_errors
def truncate(direction, eps, in_path, out, grid_2d, grid_3d):
    """Cut the eps-slab below the support plane with normal u, re-center."""
    doc = _read_doc(in_path)
    grid = _resolve_grid(body_dim(doc.body), grid_2d, grid_3d)
    u = _parse_vector(direction)
    peak = np.abs(u).max()
    if peak == 0.0:
        raise InvalidArgumentError(f"bad vector {direction!r}: direction must not be zero")
    if not 1e-150 < peak < 1e150:  # its plain norm would underflow or overflow
        u = u / peak
    u = u / np.linalg.norm(u)
    result = truncate_fn(doc.body, TruncationSpec(u, eps), grid)
    _write_doc(out, BodyDocument(body=result))


@main.command()
@click.option("--budget", type=float, required=True)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_grid_options
@_handle_errors
def desymmetrize(budget, in_path, out, grid_2d, grid_3d):
    """Destroy all orthogonal symmetries within a Hausdorff budget."""
    doc = _read_doc(in_path)
    grid = _resolve_grid(body_dim(doc.body), grid_2d, grid_3d)
    result, faces = desymmetrize_fn(doc.body, budget, grid)
    _write_doc(out, BodyDocument(body=result))
    for rec in faces:
        click.echo(
            "face normal=("
            + ",".join(_fmt(v) for v in rec.normal)
            + ") diameter="
            + _fmt(rec.diameter)
        )


@main.command()
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_grid_options
@_handle_errors
def symmetries(tol, in_path, grid_2d, grid_3d):
    """Orthogonal symmetries of a centered body.

    For a polytope: the maps moving each hull vertex within tol of a
    distinct hull vertex (the grid options are not used).  Other bodies:
    a scan of the default O(n) candidates on the grid."""
    doc = _read_doc(in_path)
    grid = _resolve_grid(body_dim(doc.body), grid_2d, grid_3d)
    kept = isotropy_estimate(doc.body, tol=tol, grid=grid)
    click.echo(
        json.dumps(
            {
                "count": len(kept),
                "elements": [r.matrix.tolist() for r in kept],
            }
        )
    )


@main.command()
@click.argument("body_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("body_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=None, help="also report same-class verdict")
@click.option("--so-n", "proper_only", is_flag=True, help="restrict to SO(n)")
@click.option("--coarse", type=int, default=None)
@_grid_options
@_handle_errors
def congruence(body_a, body_b, tol, proper_only, coarse, grid_2d, grid_3d):
    """Distance between congruence classes, minimized over O(n)."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise InvalidArgumentError("--tol must be positive and finite")
    a = _read_doc(body_a).body
    b = _read_doc(body_b).body
    grid = _resolve_grid(body_dim(a), grid_2d, grid_3d)
    params = congruence_mod.SearchParams(
        coarse=coarse, include_reflections=not proper_only
    )
    result = congruence_mod.congruence_distance(a, b, grid, params)
    payload = {
        "distance": result.distance,
        "rotation_matrix": result.optimizer.matrix.tolist(),
        "certificate_size": result.certificate_size,
    }
    if tol is not None:
        payload["same_class"] = bool(result.distance < tol)
    click.echo(json.dumps(payload))


@main.command()
@click.argument("out", type=click.Path(dir_okay=False))
@click.argument("bodies", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@_handle_errors
def plot(out, bodies):
    """Write an SVG overlay of planar bodies."""
    plot_svg_2d([_read_doc(p).body for p in bodies], out)


@main.command()
@click.option("--seed", type=int, required=True)
@click.option("--spec", "spec_str", required=True, help="e.g. poly:n=2,verts=12,count=8")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@_handle_errors
def corpus(seed, spec_str, out_dir):
    """Generate a reproducible corpus of random bodies."""
    made = Corpus.generate(seed, spec_str)
    os.makedirs(out_dir, exist_ok=True)
    for i, doc in enumerate(made.bodies):
        _write_doc(os.path.join(out_dir, f"body_{i:04d}.json"), doc)
    click.echo(f"wrote {len(made.bodies)} bodies to {out_dir}")


@main.command("curvature")
@click.argument("body", type=click.Path(exists=True, dir_okay=False))
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option("--margin", type=float, default=1e-6, show_default=True)
@_grid_options
@_handle_errors
def curvature_cmd(body, step, margin, grid_2d, grid_3d):
    """Check positive curvature of the boundary via the support Hessian."""
    doc = _read_doc(body)
    grid = _resolve_grid(body_dim(doc.body), grid_2d, grid_3d)
    rep = curvature_report(doc.body, grid, step=step, margin=margin)
    payload = {"positive": rep.ok, "min_value": rep.min_value}
    if not rep.ok:
        payload["failing_node"] = rep.failing_node.tolist()
    click.echo(json.dumps(payload))


if __name__ == "__main__":
    main()
