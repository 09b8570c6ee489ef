"""Body JSON schema: parsing, validation and round-trip serialization.

Schema (one object per body node, discriminated by "type"):

    {"type": "polytope", "vertices": [[...], ...]}
    {"type": "ball", "center": [...], "radius": r}
    {"type": "ellipsoid", "center": [...], "matrix": [[...], ...]}
    {"type": "sum", "left": ..., "right": ...}
    {"type": "scaled", "factor": a, "inner": ...}
    {"type": "rotated", "matrix": [[...], ...], "inner": ...}
    {"type": "sampled", "grid": {...}, "values": [...]}

``_NODES`` is the one description of a node: its class and, per
constructor argument, the JSON key, the attribute and how the value is
read and written.  ``body_to_obj`` and ``body_from_obj`` loop over it, and
``body_equal`` compares what ``body_to_obj`` writes.  Documents wrap a body
with a schema version and free-form metadata.  All reals serialize
through Python's shortest round-trip repr, so parse(serialize(doc))
reproduces every IEEE-754 double bit-exactly.
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


def _number(value, path, kind=float):
    """``kind(value)`` for a JSON number, integral for ``int``, else ParseError."""
    try:
        if _is_number(value) and (kind is float or float(value).is_integer()):
            return kind(value)
    except OverflowError:
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ParseError(f"not {what}: {json.dumps(value)}", path)


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
    def size(key):
        return _number(_require(obj, key, path), f"{path}/{key}", int)

    kind = _require(obj, "type", path)
    try:
        if kind == "uniform-2d":
            return make_grid_2d(size("m"))
        if kind == "gauss-lonlat-3d":
            return make_grid_3d(size("n_lat"), size("n_lon"))
        if kind == "explicit":
            return SphericalGrid(
                size("dim"),
                _matrix(_require(obj, "nodes", path), path + "/nodes"),
                _matrix(_require(obj, "weights", path), path + "/weights"),
                kind="unstructured",
            )
    except ParseError:
        raise
    except ConvexHyperError as exc:
        raise ValidationError(str(exc), path) from None
    raise ParseError(f"unknown grid type {kind!r}", path)


_ARRAY = (_matrix, np.ndarray.tolist)
_REAL = (_number, float)
_CHILD = (None, None)  # a child body: body_from_obj / body_to_obj

# JSON "type" -> (node class, one (JSON key, attribute, reader, writer) per
# constructor argument, in order).  A reader takes (value, JSON path).
_NODES = {
    "polytope": (Polytope, [("vertices", "vertices", *_ARRAY)]),
    "ball": (Ball, [("center", "center", *_ARRAY), ("radius", "radius", *_REAL)]),
    "ellipsoid": (Ellipsoid, [("center", "center", *_ARRAY), ("matrix", "matrix", *_ARRAY)]),
    "sum": (Sum, [("left", "left", *_CHILD), ("right", "right", *_CHILD)]),
    "scaled": (Scaled, [("factor", "factor", *_REAL), ("inner", "inner", *_CHILD)]),
    "rotated": (Rotated, [
        ("matrix", "rotation", lambda value, path: Rotation(_matrix(value, path)),
         lambda rotation: rotation.matrix.tolist()),
        ("inner", "inner", *_CHILD),
    ]),
    "sampled": (Sampled, [("grid", "grid", _grid_from_obj, _grid_to_obj),
                          ("values", "values", *_ARRAY)]),
}


def body_to_obj(body: Body) -> dict:
    for kind, (cls, args) in _NODES.items():
        if isinstance(body, cls):
            obj = {"type": kind}
            for key, attr, _, write in args:
                obj[key] = (write or body_to_obj)(getattr(body, attr))
            return obj
    raise ValidationError(f"cannot serialize {type(body).__name__}", "")


def body_from_obj(obj, path="") -> Body:
    kind = _require(obj, "type", path)
    if not isinstance(kind, str) or kind not in _NODES:
        raise ParseError(f"unknown body type {kind!r}", path)
    cls, args = _NODES[kind]
    try:
        values = []  # a plain loop keeps one stack frame per level of nesting
        for key, _, read, _ in args:
            values.append((read or body_from_obj)(_require(obj, key, path), f"{path}/{key}"))
        return cls(*values)
    except ParseError:
        raise
    except ConvexHyperError as exc:
        raise ValidationError(str(exc), path) from None


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
    """Compact JSON of a document; ValidationError if too deep to read back."""
    try:
        return json.dumps(document_to_obj(doc), indent=None, separators=(",", ":"))
    except RecursionError:
        raise ValidationError("body nested too deeply", "") from None


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
    """Structural equality: equal JSON objects, so floats compare with ``==``
    (-0.0 equals 0.0) and grids as they serialize (structured ones by size)."""
    return body_to_obj(a) == body_to_obj(b)


def document_equal(a: BodyDocument, b: BodyDocument) -> bool:
    return (
        a.schema_version == b.schema_version
        and a.metadata == b.metadata
        and body_equal(a.body, b.body)
    )
