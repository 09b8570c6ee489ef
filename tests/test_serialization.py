import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from convexhyper import (
    Ball,
    BodyDocument,
    Corpus,
    Ellipsoid,
    ParseError,
    Polytope,
    Rotated,
    Rotation,
    Sampled,
    Scaled,
    Sum,
    ValidationError,
    body_equal,
    body_from_obj,
    document_equal,
    make_grid_2d,
    make_grid_3d,
    parse_body,
    rotate_grid,
    sample_support,
    serialize_body,
)
from convexhyper.serialization import _grid_to_obj
from convexhyper.bodies import Body
from convexhyper.cli import main
from oracles import ladder_body_equal, ladder_body_from_obj, ladder_body_to_obj

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


def grids(n):
    """The three grid kinds: uniform-2d or gauss-lonlat-3d, and a rotated
    copy of either, which serializes as explicit nodes and weights."""
    if n == 2:
        structured = st.integers(4, 24).map(make_grid_2d)
    else:
        structured = st.tuples(st.integers(2, 5), st.integers(4, 8)).map(
            lambda t: make_grid_3d(*t)
        )
    rotated = st.tuples(rotations(n), structured).map(lambda t: rotate_grid(t[0].matrix, t[1]))
    return st.one_of(structured, rotated)


def sampled_bodies(n):
    return grids(n).flatmap(
        lambda g: st.lists(finite, min_size=len(g), max_size=len(g)).map(
            lambda vs: Sampled(g, np.asarray(vs))
        )
    )


def leaf_bodies(n):
    polytopes = st.lists(vectors(n), min_size=1, max_size=6).map(
        lambda vs: Polytope(np.asarray(vs))
    )
    balls = st.tuples(vectors(n), st.floats(1e-6, 1e3)).map(lambda t: Ball(*t))
    ellipsoids = st.tuples(vectors(n), st.floats(0.1, 10.0), st.floats(0.1, 10.0)).map(
        lambda t: Ellipsoid(t[0], np.diag([t[1], t[2]]) if n == 2 else np.diag([t[1], t[2], 1.0]))
    )
    return st.one_of(polytopes, balls, ellipsoids, sampled_bodies(n))


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


def _flip_zeros(obj):
    """The JSON object with the sign of every 0.0 flipped."""
    if isinstance(obj, dict):
        return {k: _flip_zeros(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_flip_zeros(v) for v in obj]
    return -obj if isinstance(obj, float) and obj == 0.0 else obj


def _float_slots(obj):
    """(container, key) of every float in a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, float):
            yield obj, key
        elif isinstance(value, (dict, list)):
            yield from _float_slots(value)


@st.composite
def body_pairs(draw):
    """A body tree and a second one: the same, its zeros' signs flipped, one
    float nudged by an ulp, or an independent draw."""
    n = draw(st.sampled_from([2, 3]))
    a = draw(bodies(n))
    how = draw(st.sampled_from(["same", "signed-zeros", "nudged", "other"]))
    if how == "same":
        return a, a
    if how == "other":
        return a, draw(bodies(n))
    obj = ladder_body_to_obj(a)
    if how == "signed-zeros":
        obj = _flip_zeros(obj)
    else:
        slots = list(_float_slots(obj))
        where, key = slots[draw(st.integers(0, len(slots) - 1))]
        where[key] = float(np.nextafter(where[key], math.inf))
    try:
        return a, ladder_body_from_obj(obj)
    except ValidationError:
        assume(False)  # the nudge broke an invariant (say, ellipsoid symmetry)


@settings(max_examples=80, deadline=None)
@given(body_pairs())
def test_table_matches_ladders(pair):
    # every node type and grid kind writes the ladder's bytes and compares
    # with its verdict
    for body in pair:
        doc = BodyDocument(body=body, metadata={"k": "v"})
        ladder = {"schema_version": 1, "body": ladder_body_to_obj(body), "metadata": {"k": "v"}}
        assert serialize_body(doc) == json.dumps(ladder, separators=(",", ":"))
    assert body_equal(*pair) == ladder_body_equal(*pair)


def test_body_equal_rejects_unknown_node():
    class Point(Body):
        dim = 2

    with pytest.raises(ValidationError):
        body_equal(Point(), Point())


def test_round_trip_simple_ball():
    obj = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}
    body = body_from_obj(obj)
    assert isinstance(body, Ball)
    assert body.radius == 1.0


def test_round_trip_sampled(grid2):
    rotated_2d = rotate_grid(np.eye(2)[::-1], make_grid_2d(16))
    rotated_3d = rotate_grid(np.eye(3)[[1, 2, 0]], make_grid_3d(3, 6))
    for grid in (grid2, make_grid_3d(4, 8), rotated_2d, rotated_3d):
        doc = BodyDocument(body=sample_support(Ball(np.full(grid.dim, 0.25), 1.5), grid))
        text = serialize_body(doc)
        again = parse_body(text)
        assert document_equal(doc, again)
        # a rotated grid comes back as explicit nodes: unstructured
        assert again.body.grid.kind == ("unstructured" if grid.kind == "rotated" else grid.kind)
        assert np.array_equal(again.body.grid.nodes, grid.nodes)
        assert np.array_equal(again.body.grid.weights, grid.weights)
        assert serialize_body(again) == text


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


@pytest.mark.parametrize("seed, n, verts", [(-1, 2, 5), (1, 7, 50), (1, 2, 4097)],
                         ids=["seed=-1", "n=7", "verts=4097"])
def test_random_polytope_refuses_out_of_bounds(seed, n, verts):
    from convexhyper import InvalidArgumentError, random_polytope

    with pytest.raises(InvalidArgumentError):
        random_polytope(seed, n, verts)
    with pytest.raises(InvalidArgumentError):
        Corpus.generate(seed, f"sym:n={n},verts={verts},count=1")


def test_random_polytope_examples():
    from convexhyper import random_polytope

    a = random_polytope(9, 2, 50)
    b = random_polytope(9, 2, 50)
    assert np.array_equal(a.vertices, b.vertices)
    assert a.vertices.shape[0] <= 50

    c = random_polytope(10, 3, 100)
    centered = c.vertices - c.vertices.mean(axis=0)
    assert np.linalg.matrix_rank(centered, tol=1e-9) == 3


# JSON schema fuzz: trees with the schema's keys and type names, either
# shaped at random or schema-shaped with some keys dropped or spoiled.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=2),
    st.floats(-3.0, 3.0), st.sampled_from([-0.0, 1e-300, 1e300, 2.0**63]),
)
_VECTORS = st.lists(_SCALARS, max_size=3)
_JUNK = st.one_of(_SCALARS, _VECTORS, st.lists(_VECTORS, max_size=3))
_BODY_TYPES = ["polytope", "ball", "ellipsoid", "sum", "scaled", "rotated", "sampled"]
_TYPE_NAMES = st.one_of(
    st.sampled_from(_BODY_TYPES), st.sampled_from(["explicit", "torus", None, 1, [], {}])
)


def _random_nodes(children):
    return st.fixed_dictionaries(
        {"type": _TYPE_NAMES},
        optional={key: _JUNK for key in ("vertices", "center", "radius", "matrix", "factor",
                                         "values", "m", "n_lat", "n_lon", "nodes", "weights")}
        | {"grid": children, "left": children, "right": children, "inner": children},
    )


_RANDOM_TREES = st.recursive(
    _random_nodes(_JUNK), lambda c: st.one_of(_random_nodes(c), st.lists(c, max_size=2)),
    max_leaves=6,
)


@st.composite
def _schema_trees(draw, n, depth=2):
    """A body object of dimension ``n``; each key is dropped or spoiled
    with junk now and then."""
    floats = st.floats(-3.0, 3.0)
    leaves, inner = ["polytope", "ball", "ellipsoid", "sampled"], ["sum", "scaled", "rotated"]
    kind = draw(st.sampled_from(leaves + inner if depth > 0 else leaves))
    grid = draw(st.sampled_from([make_grid_2d(8), rotate_grid(np.eye(2)[::-1], make_grid_2d(4))]
                                if n == 2 else [make_grid_3d(2, 4)]))
    rotation = np.eye(n)[draw(st.permutations(range(n)))]
    child = _schema_trees(n, depth - 1)
    fields = {
        "polytope": {"vertices": st.lists(st.lists(floats, min_size=n, max_size=n),
                                          min_size=1, max_size=5)},
        "ball": {"center": st.lists(floats, min_size=n, max_size=n), "radius": floats},
        "ellipsoid": {"center": st.lists(floats, min_size=n, max_size=n),
                      "matrix": st.just((np.eye(n) * draw(floats)).tolist())},
        "sum": {"left": child, "right": child},
        "scaled": {"factor": floats, "inner": child},
        "rotated": {"matrix": st.just(rotation.tolist()), "inner": child},
        "sampled": {"grid": st.just(_grid_to_obj(grid)),
                    "values": st.lists(floats, min_size=len(grid), max_size=len(grid))},
    }[kind]
    obj = {"type": kind}
    for key, value in fields.items():
        spoil = draw(st.integers(0, 15))
        if spoil:
            obj[key] = draw(value if spoil > 1 else _JUNK)
    return obj


_DOCUMENT_LIKE = st.one_of(
    _RANDOM_TREES,
    st.sampled_from([2, 3]).flatmap(_schema_trees),
    st.fixed_dictionaries(
        {"schema_version": st.sampled_from([1, 2, "1"]), "body": _schema_trees(2)},
        optional={"metadata": st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2)},
    ),
)


def _outcome(parse, obj):
    """(error class, message, JSON path), or the parsed body's JSON object."""
    try:
        return ladder_body_to_obj(parse(obj))
    except ParseError as exc:
        return type(exc), str(exc), exc.path


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "body.json"


@settings(max_examples=250, deadline=None)
@given(obj=_DOCUMENT_LIKE, through_cli=st.integers(0, 9))
def test_json_fuzz(obj, through_cli, fuzz_file):
    # a body-like tree parses or raises ParseError (ValidationError is one),
    # with the ladder's error class, message and JSON path
    text = json.dumps(obj)
    try:
        parse_body(text)
    except ParseError:
        pass
    if isinstance(obj, dict) and "type" in obj:
        assert _outcome(body_from_obj, obj) == _outcome(ladder_body_from_obj, obj)
    if through_cli == 0:
        fuzz_file.write_text(text)
        res = CliRunner().invoke(
            main, ["steiner", str(fuzz_file), "--grid-2d", "64", "--grid-3d", "4x8"]
        )
        assert res.exit_code in (0, 2), res.output
        assert "Traceback" not in res.output


def test_serialize_refuses_a_tree_too_deep_to_read_back():
    ball = Ball(np.zeros(2), 0.5)
    body = ball
    for _ in range(2000):
        body = Sum(body, ball)
    with pytest.raises(ValidationError, match="nested too deeply"):
        serialize_body(BodyDocument(body))
