"""The tree fold: ``terms`` against the recursive ladder oracle, and a
guard that keeps Sum/Scaled/Rotated walks out of the evaluation code."""

import ast
import pathlib

import numpy as np
from hypothesis import given, settings, strategies as st

import convexhyper
from convexhyper import (
    Ball,
    Ellipsoid,
    Polytope,
    Rotated,
    Rotation,
    Scaled,
    Sum,
    as_polytope,
    make_grid_2d,
    make_grid_3d,
    sample_support,
    steiner,
    support_point,
    support_values,
)
from convexhyper.bodies import Term, terms
from convexhyper.metrics import support_moment_matrix
from oracles import ladder

GRIDS = {2: make_grid_2d(48), 3: make_grid_3d(8, 16)}
KINDS = ("polytope", "ball", "ellipsoid", "sampled")


def _orthogonal(seed: int, dim: int, improper: bool) -> Rotation:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if (np.linalg.det(q) < 0) != improper:
        q[:, 0] = -q[:, 0]
    return Rotation(q)


def _leaf(kind: str, seed: int, dim: int):
    rng = np.random.default_rng(seed)
    center = 0.3 * rng.standard_normal(dim)
    if kind == "polytope":
        return Polytope(rng.standard_normal((dim + 4, dim)))
    if kind == "ball":
        return Ball(center, rng.uniform(0.2, 1.0))
    a = rng.standard_normal((dim, dim))
    ellipsoid = Ellipsoid(center, a @ a.T + 0.3 * np.eye(dim))
    if kind == "ellipsoid":
        return ellipsoid
    return sample_support(ellipsoid, GRIDS[dim])


@st.composite
def trees(draw, dim: int, depth: int):
    """Random body trees with at most ``depth`` Sum/Scaled/Rotated levels."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return _leaf(draw(st.sampled_from(KINDS)), draw(st.integers(0, 999)), dim)
    op = draw(st.sampled_from(("sum", "scaled", "rotated")))
    inner = draw(trees(dim, depth - 1))
    if op == "sum":
        return Sum(inner, draw(trees(dim, depth - 1)))
    if op == "scaled":
        return Scaled(draw(st.one_of(st.just(0.0), st.floats(0.25, 2.0))), inner)
    rotation = _orthogonal(draw(st.integers(0, 999)), dim, draw(st.booleans()))
    return Rotated(rotation, inner)


def _depth(body) -> int:
    if isinstance(body, Sum):
        return 1 + max(_depth(body.left), _depth(body.right))
    if isinstance(body, (Scaled, Rotated)):
        return 1 + _depth(body.inner)
    return 0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]))
def test_fold_matches_ladder(data, dim):
    body = data.draw(trees(dim, 3))
    grid = GRIDS[dim]
    dirs = np.random.default_rng(dim).standard_normal((64, dim))
    u = dirs[0] / np.linalg.norm(dirs[0])
    checks = [
        ("support", support_values(body, dirs), dirs),
        ("steiner", steiner(body, grid), None),
        ("moment", support_moment_matrix(body, grid), None),
        ("point", support_point(body, u), u),
    ]
    for kind, got, x in checks:
        want = ladder(body, kind, x, grid)
        if _depth(body) <= 1:
            assert np.array_equal(got, want), kind
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=kind)


def test_terms_compose_and_drop_zero_factors():
    p = _leaf("polytope", 1, 3)
    b = _leaf("ball", 2, 3)
    g, h = _orthogonal(3, 3, False), _orthogonal(4, 3, True)
    body = Scaled(2.0, Rotated(g, Sum(Rotated(h, p), Scaled(0.0, b))))
    (term,) = terms(body)
    assert term.factor == 2.0 and term.leaf is p
    np.testing.assert_array_equal(term.matrix, g.matrix @ h.matrix)
    assert terms(p) == [Term(1.0, None, p)]
    assert terms(Scaled(0.0, p)) == []


def test_zero_scaled_body_is_the_origin():
    origin = as_polytope(Scaled(0.0, Ball(np.ones(2), 1.0)))
    np.testing.assert_array_equal(origin.vertices, np.zeros((1, 2)))
    np.testing.assert_array_equal(support_values(Scaled(0.0, _leaf("sampled", 5, 2)),
                                                 np.eye(2)), np.zeros(2))


# Only these may look at the tree itself: the fold, and the structural
# maps whose outputs keep the tree shape.  The serializer keeps it too, but
# through its table of node classes, with no isinstance test of its own.
TREE_WALKERS = {("bodies.py", "terms"), ("bodies.py", "translate")}
TREE_NODES = {"Sum", "Scaled", "Rotated"}


def _tree_isinstance_sites():
    """(file, top-level definition) of each isinstance(..., Sum|Scaled|Rotated)."""
    sites = set()
    for path in sorted(pathlib.Path(convexhyper.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and TREE_NODES & {n.id for n in ast.walk(node.args[1])
                                      if isinstance(n, ast.Name)}
                ):
                    sites.add((path.name, owner))
    return sites


def test_tree_walks_stay_in_terms():
    sites = _tree_isinstance_sites()
    assert ("bodies.py", "terms") in sites  # the scan sees the fold itself
    assert sites <= TREE_WALKERS, sorted(sites - TREE_WALKERS)
