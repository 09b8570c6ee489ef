"""Body JSON schema: parsing, validation and round-trip serialization.

Schema (one object per body node, discriminated by "type"):

    {"type": "polytope", "vertices": [[...], ...]}
    {"type": "ball", "center": [...], "radius": r}
    {"type": "ellipsoid", "center": [...], "matrix": [[...], ...]}
    {"type": "sum", "left": ..., "right": ...}
    {"type": "scaled", "factor": a, "inner": ...}
    {"type": "rotated", "matrix": [[...], ...], "inner": ...}
    {"type": "sampled", "grid": {...}, "values": [...]}

Documents wrap a body with a schema version and free-form metadata.  All
reals serialize through Python's shortest round-trip repr, so
parse(serialize(doc)) reproduces every IEEE-754 double bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bodies import (
    Ball,
    Body,
    Ellipsoid,
    Polytope,
    Rotated,
    Rotation,
    Sampled,
    Scaled,
    Sum,
)
from .errors import ConvexHyperError, ParseError, ValidationError
from .quadrature import SphericalGrid, make_grid_2d, make_grid_3d

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BodyDocument:
    body: Body
    metadata: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise ParseError("expected an object", path)
    if key not in obj:
        raise ParseError(f"missing key {key!r}", path)
    return obj[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # bool is an int


def _number(obj, key, path, kind=float):
    """``kind(obj[key])`` for a JSON number, integral for ``int``, else ParseError."""
    value = _require(obj, key, path)
    try:
        if _is_number(value) and (kind is float or float(value).is_integer()):
            return kind(value)
    except OverflowError:
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ParseError(f"not {what}: {json.dumps(value)}", f"{path}/{key}")


def _matrix(value, path):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"not a numeric array: {exc}", path) from None
    if not all(map(_is_number, np.asarray(value, dtype=object).ravel())):
        raise ParseError("not a numeric array: only numbers, no booleans or strings", path)
    return arr


def _grid_to_obj(grid: SphericalGrid) -> dict:
    if grid.kind == "uniform-2d":
        return {"type": "uniform-2d", "m": len(grid.angles)}
    if grid.kind == "gauss-lonlat-3d":
        return {
            "type": "gauss-lonlat-3d",
            "n_lat": len(grid.thetas),
            "n_lon": len(grid.phis),
        }
    return {
        "type": "explicit",
        "dim": grid.dim,
        "nodes": grid.nodes.tolist(),
        "weights": grid.weights.tolist(),
    }


def _grid_from_obj(obj, path) -> SphericalGrid:
    kind = _require(obj, "type", path)
    try:
        if kind == "uniform-2d":
            return make_grid_2d(_number(obj, "m", path, int))
        if kind == "gauss-lonlat-3d":
            n_lat, n_lon = _number(obj, "n_lat", path, int), _number(obj, "n_lon", path, int)
            return make_grid_3d(n_lat, n_lon)
        if kind == "explicit":
            return SphericalGrid(
                _number(obj, "dim", path, int),
                _matrix(_require(obj, "nodes", path), path + "/nodes"),
                _matrix(_require(obj, "weights", path), path + "/weights"),
                kind="unstructured",
            )
    except ParseError:
        raise
    except ConvexHyperError as exc:
        raise ValidationError(str(exc), path) from None
    raise ParseError(f"unknown grid type {kind!r}", path)


def body_to_obj(body: Body) -> dict:
    if isinstance(body, Polytope):
        return {"type": "polytope", "vertices": body.vertices.tolist()}
    if isinstance(body, Ball):
        return {"type": "ball", "center": body.center.tolist(), "radius": body.radius}
    if isinstance(body, Ellipsoid):
        return {
            "type": "ellipsoid",
            "center": body.center.tolist(),
            "matrix": body.matrix.tolist(),
        }
    if isinstance(body, Sum):
        return {
            "type": "sum",
            "left": body_to_obj(body.left),
            "right": body_to_obj(body.right),
        }
    if isinstance(body, Scaled):
        return {"type": "scaled", "factor": body.factor, "inner": body_to_obj(body.inner)}
    if isinstance(body, Rotated):
        return {
            "type": "rotated",
            "matrix": body.rotation.matrix.tolist(),
            "inner": body_to_obj(body.inner),
        }
    if isinstance(body, Sampled):
        return {
            "type": "sampled",
            "grid": _grid_to_obj(body.grid),
            "values": body.values.tolist(),
        }
    raise ValidationError(f"cannot serialize {type(body).__name__}", "")


def body_from_obj(obj, path="") -> Body:
    kind = _require(obj, "type", path)
    try:
        if kind == "polytope":
            return Polytope(_matrix(_require(obj, "vertices", path), path + "/vertices"))
        if kind == "ball":
            return Ball(
                _matrix(_require(obj, "center", path), path + "/center"),
                _number(obj, "radius", path),
            )
        if kind == "ellipsoid":
            return Ellipsoid(
                _matrix(_require(obj, "center", path), path + "/center"),
                _matrix(_require(obj, "matrix", path), path + "/matrix"),
            )
        if kind == "sum":
            return Sum(
                body_from_obj(_require(obj, "left", path), path + "/left"),
                body_from_obj(_require(obj, "right", path), path + "/right"),
            )
        if kind == "scaled":
            return Scaled(
                _number(obj, "factor", path),
                body_from_obj(_require(obj, "inner", path), path + "/inner"),
            )
        if kind == "rotated":
            return Rotated(
                Rotation(_matrix(_require(obj, "matrix", path), path + "/matrix")),
                body_from_obj(_require(obj, "inner", path), path + "/inner"),
            )
        if kind == "sampled":
            grid = _grid_from_obj(_require(obj, "grid", path), path + "/grid")
            values = _matrix(_require(obj, "values", path), path + "/values")
            return Sampled(grid, values)
    except ParseError:
        raise
    except ConvexHyperError as exc:
        raise ValidationError(str(exc), path) from None
    raise ParseError(f"unknown body type {kind!r}", path)


def document_to_obj(doc: BodyDocument) -> dict:
    return {
        "schema_version": doc.schema_version,
        "body": body_to_obj(doc.body),
        "metadata": dict(doc.metadata),
    }


def document_from_obj(obj, path="") -> BodyDocument:
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", path)
    if "type" in obj:  # bare body, no envelope
        return BodyDocument(body=body_from_obj(obj, path))
    version = _require(obj, "schema_version", path)
    if not _is_number(version) or version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}", path)
    meta = obj.get("metadata", {})
    if not isinstance(meta, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()
    ):
        raise ParseError("metadata must map strings to strings", path + "/metadata")
    return BodyDocument(
        body=body_from_obj(_require(obj, "body", path), path + "/body"),
        metadata=meta,
    )


def serialize_body(doc: BodyDocument) -> str:
    return json.dumps(document_to_obj(doc), indent=None, separators=(",", ":"))


def _reject_constant(name):
    raise ParseError(f"non-finite number {name} is not allowed", "")


def parse_body(text: str) -> BodyDocument:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
        return document_from_obj(obj)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "") from None
    except RecursionError:
        raise ParseError("body nested too deeply", "") from None


def body_equal(a: Body, b: Body) -> bool:
    """Structural equality with bit-exact float comparison."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Polytope):
        return np.array_equal(a.vertices, b.vertices)
    if isinstance(a, Ball):
        return np.array_equal(a.center, b.center) and a.radius == b.radius
    if isinstance(a, Ellipsoid):
        return np.array_equal(a.center, b.center) and np.array_equal(a.matrix, b.matrix)
    if isinstance(a, Sum):
        return body_equal(a.left, b.left) and body_equal(a.right, b.right)
    if isinstance(a, Scaled):
        return a.factor == b.factor and body_equal(a.inner, b.inner)
    if isinstance(a, Rotated):
        return np.array_equal(a.rotation.matrix, b.rotation.matrix) and body_equal(
            a.inner, b.inner
        )
    if isinstance(a, Sampled):
        # grids are behaviorally equal when nodes/weights match and they
        # interpolate the same way (structured kinds serialize by size;
        # everything else round-trips through explicit nodes and uses
        # nearest-node interpolation either way)
        def family(grid):
            if grid.kind in ("uniform-2d", "gauss-lonlat-3d"):
                return grid.kind
            return "nearest"

        return (
            family(a.grid) == family(b.grid)
            and np.array_equal(a.grid.nodes, b.grid.nodes)
            and np.array_equal(a.grid.weights, b.grid.weights)
            and np.array_equal(a.values, b.values)
        )
    return False


def document_equal(a: BodyDocument, b: BodyDocument) -> bool:
    return (
        a.schema_version == b.schema_version
        and a.metadata == b.metadata
        and body_equal(a.body, b.body)
    )
