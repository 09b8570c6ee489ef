import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexhyper import (
    Ball,
    BodyDocument,
    Corpus,
    Ellipsoid,
    ParseError,
    Polytope,
    Rotated,
    Rotation,
    Scaled,
    Sum,
    ValidationError,
    body_from_obj,
    document_equal,
    parse_body,
    sample_support,
    serialize_body,
)

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6, width=64
)


def vectors(n):
    return st.lists(finite, min_size=n, max_size=n).map(np.asarray)


def rotations(n):
    if n == 2:
        return st.floats(0, 2 * math.pi).map(
            lambda t: Rotation(
                np.array(
                    [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
                )
            )
        )
    return st.integers(0, 2**31 - 1).map(
        lambda s: __import__("convexhyper").random_rotation(s, n)
    )


def leaf_bodies(n):
    polytopes = st.lists(vectors(n), min_size=1, max_size=6).map(
        lambda vs: Polytope(np.asarray(vs))
    )
    balls = st.tuples(vectors(n), st.floats(1e-6, 1e3)).map(lambda t: Ball(*t))
    ellipsoids = st.tuples(vectors(n), st.floats(0.1, 10.0), st.floats(0.1, 10.0)).map(
        lambda t: Ellipsoid(t[0], np.diag([t[1], t[2]]) if n == 2 else np.diag([t[1], t[2], 1.0]))
    )
    return st.one_of(polytopes, balls, ellipsoids)


def bodies(n, depth=2):
    if depth == 0:
        return leaf_bodies(n)
    sub = bodies(n, depth - 1)
    return st.one_of(
        leaf_bodies(n),
        st.tuples(sub, sub).map(lambda t: Sum(*t)),
        st.tuples(st.floats(0, 5), sub).map(lambda t: Scaled(*t)),
        st.tuples(rotations(n), sub).map(lambda t: Rotated(*t)),
    )


@settings(max_examples=60, deadline=None)
@given(bodies(2))
def test_round_trip_random_trees(body):
    doc = BodyDocument(body=body, metadata={"k": "v"})
    again = parse_body(serialize_body(doc))
    assert document_equal(doc, again)


def test_round_trip_simple_ball():
    obj = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}
    body = body_from_obj(obj)
    assert isinstance(body, Ball)
    assert body.radius == 1.0


def test_round_trip_sampled(grid2):
    body = sample_support(Ball(np.zeros(2), 1.5), grid2)
    doc = BodyDocument(body=body)
    again = parse_body(serialize_body(doc))
    assert document_equal(doc, again)


def test_round_trip_nested_depth_three(grid2):
    inner = Sum(
        Scaled(2.0, Polytope([[0.25, 0.125], [1.0, 0.0], [0.1, 0.7]])),
        Ball(np.array([0.1, -0.2]), 0.5),
    )
    body = Rotated(Rotation(np.eye(2)), inner)
    doc = BodyDocument(body=body)
    again = parse_body(serialize_body(doc))
    assert document_equal(doc, again)


def test_bad_rotation_matrix_rejected():
    obj = {
        "type": "rotated",
        "matrix": [[1.0, 1e-6], [0.0, 1.0]],
        "inner": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
    }
    with pytest.raises(ValidationError):
        body_from_obj(obj)


def test_parse_error_carries_path():
    with pytest.raises(ParseError) as info:
        body_from_obj({"type": "sum", "left": {"type": "ball", "center": [0, 0], "radius": 1}})
    assert "right" in str(info.value) or "missing" in str(info.value)


def test_negative_radius_names_node():
    with pytest.raises(ValidationError):
        body_from_obj(
            {
                "type": "sum",
                "left": {"type": "ball", "center": [0, 0], "radius": -1.0},
                "right": {"type": "ball", "center": [0, 0], "radius": 1.0},
            }
        )


def test_integral_float_grid_size_accepted():
    obj = {"type": "sampled", "grid": {"type": "uniform-2d", "m": 8.0}, "values": [1.0] * 8}
    assert len(body_from_obj(obj).grid) == 8


@pytest.mark.parametrize(
    "obj, where",
    [
        ({"type": "sampled", "grid": {"type": "uniform-2d", "m": 8.9}, "values": [1.0] * 8},
         "/grid/m"),
        ({"type": "ball", "center": [0.0, 0.0], "radius": True}, "/radius"),
        ({"type": "ball", "center": [0.0, False], "radius": 1.0}, "/center"),
        ({"type": "scaled", "factor": True,
          "inner": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}}, "/factor"),
    ],
    ids=["fraction", "bool-radius", "bool-center", "bool-factor"],
)
def test_coercible_scalars_rejected(obj, where):
    with pytest.raises(ParseError) as info:
        body_from_obj(obj)
    assert info.value.path == where


def test_unknown_type():
    with pytest.raises(ParseError):
        body_from_obj({"type": "torus"})


def test_invalid_json():
    with pytest.raises(ParseError):
        parse_body("{not json")


def test_floats_survive_bit_exactly():
    tricky = [0.1, 1e-308, 1.7976931348623157e308, math.pi, -0.0]
    body = Polytope(np.array([tricky[:2], tricky[2:4], [tricky[4], 1.0]]))
    text = serialize_body(BodyDocument(body=body))
    again = parse_body(text)
    assert np.array_equal(again.body.vertices, body.vertices)


def test_corpus_regeneration_identical():
    spec = "poly:n=2,verts=10,count=3;sym:n=3,verts=8,count=2"
    a = Corpus.generate(7, spec)
    b = Corpus.generate(7, spec)
    assert len(a.bodies) == 5
    texts_a = [serialize_body(d) for d in a.bodies]
    texts_b = [serialize_body(d) for d in b.bodies]
    assert texts_a == texts_b


def test_corpus_bad_spec():
    with pytest.raises(ParseError):
        Corpus.generate(1, "nope")


def test_random_polytope_examples():
    from convexhyper import random_polytope

    a = random_polytope(9, 2, 50)
    b = random_polytope(9, 2, 50)
    assert np.array_equal(a.vertices, b.vertices)
    assert a.vertices.shape[0] <= 50

    c = random_polytope(10, 3, 100)
    centered = c.vertices - c.vertices.mean(axis=0)
    assert np.linalg.matrix_rank(centered, tol=1e-9) == 3
