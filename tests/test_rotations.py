import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from convexhyper import (
    DimensionMismatchError,
    InvalidArgumentError,
    Polytope,
    random_polytope,
    random_rotation,
)
from convexhyper.bodies import rigid_motion
from convexhyper.metrics import exact_hausdorff
from convexhyper.rotations import circle_candidates, orthogonal_maps, sphere_candidates

_SQUARE = Polytope([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


@pytest.mark.parametrize("dim, seeds", [(2, (9000, 9100)), (3, (9200, 9300))])
def test_recovers_criterion_8_motions(dim, seeds):
    # the 25 + 25 motions of criterion 8, without their translations
    improper = []
    for i in range(25):
        body = random_polytope(seeds[0] + i, dim, 10 if dim == 2 else 12)
        g = random_rotation(seeds[1] + i, dim, proper=False).matrix
        moved = rigid_motion(body, g)
        mats = orthogonal_maps(body, moved, 1e-6)
        assert len(mats) == 1
        np.testing.assert_allclose(mats[0], g, rtol=0.0, atol=1e-12)
        assert np.linalg.norm(body.vertices @ mats[0].T - moved.vertices, axis=1).max() < 1e-9
        improper.append(np.linalg.det(g) < 0)
    assert any(improper) and not all(improper)


def test_no_map_between_independent_pairs():
    # the first 20 pairs of criterion 8's 2-D triangle families
    for i in range(20):
        p, q = random_polytope(9400 + 3 * i, 2, 9), random_polytope(9401 + 3 * i, 2, 9)
        assert len(orthogonal_maps(p, q, 1e-6)) == 0


def test_no_map_to_scaled_or_perturbed_copy():
    body = random_polytope(77, 3, 12)
    assert len(orthogonal_maps(body, Polytope(body.vertices * 1.001), 1e-6)) == 0
    moved = body.vertices.copy()
    moved[0] += 1e-3
    assert len(orthogonal_maps(body, Polytope(moved), 1e-6)) == 0


def test_displacement_bounds_hausdorff():
    # one corner moved by 1e-7: all 8 square symmetries hold at tol 1e-6,
    # only the identity at 1e-9, and each member's displacement bounds
    # its exact Hausdorff distance
    verts = _SQUARE.vertices.copy()
    verts[0] += [3e-8, -9e-8]
    body = Polytope(verts)
    mats = orthogonal_maps(body, body, 1e-6)
    assert len(mats) == 8
    for g in mats:
        # each corner's nearest image is its matched one (spacing 2)
        disp = cKDTree(verts).query(verts @ g.T)[0].max()
        assert exact_hausdorff(rigid_motion(body, g), body) <= disp + 1e-15
        assert disp < 1e-6
    mats = orthogonal_maps(body, body, 1e-9)
    assert len(mats) == 1
    np.testing.assert_allclose(mats[0], np.eye(2), rtol=0.0, atol=1e-15)


def test_only_hull_vertices_count():
    # an interior point and an edge midpoint do not break the square's group
    body = Polytope(np.vstack([_SQUARE.vertices, [[0.3, 0.1], [1.0, 0.0]]]))
    assert len(orthogonal_maps(body, body, 1e-9)) == 8


def test_members_ordered_identity_first():
    hexagon = Polytope([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)])
    mats = orthogonal_maps(hexagon, hexagon, 1e-9)
    assert len(mats) == 12
    np.testing.assert_allclose(mats[0], np.eye(2), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(mats @ mats.transpose(0, 2, 1),
                               np.broadcast_to(np.eye(2), mats.shape), atol=1e-14)


def test_cospherical_memory_bounded():
    # all 2,000 vertices of a Fibonacci sphere share one norm, so every
    # vertex is a candidate image of the basis; the Gram filter runs in
    # blocks (one 2,000 x 2,000 Gram matrix and its masks peaked at 96 MB)
    n = 2000
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    t = math.pi * (3.0 - math.sqrt(5.0)) * i
    r = np.sqrt(1.0 - z * z)
    body = Polytope(np.column_stack([r * np.cos(t), r * np.sin(t), z]))
    body.hull
    tracemalloc.start()
    try:
        mats = orthogonal_maps(body, body, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(mats[0], np.eye(3), rtol=0.0, atol=1e-12)
    assert peak < 16e6


def test_rejects_invalid_input():
    cube = Polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    with pytest.raises(DimensionMismatchError):
        orthogonal_maps(_SQUARE, cube, 1e-6)
    with pytest.raises(InvalidArgumentError):
        orthogonal_maps(_SQUARE, _SQUARE, math.nan)
    segment = Polytope([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        orthogonal_maps(segment, segment, 1e-6)
    body4 = Polytope(np.random.default_rng(4).normal(size=(12, 4)))
    with pytest.raises(InvalidArgumentError):
        orthogonal_maps(body4, body4, 1e-6)
    for tol in (-1.0, 0.0, math.inf):
        with pytest.raises(InvalidArgumentError):
            orthogonal_maps(_SQUARE, _SQUARE, tol)


@pytest.mark.parametrize("build, args", [(circle_candidates, (180, True)), (sphere_candidates, (64, False))],
                         ids=["circle", "sphere"])
def test_candidate_sets_built_once(build, args):
    # one shared read-only array per argument tuple, with a fresh build's bits
    mats = build(*args)
    assert build(*args) is mats and not mats.flags.writeable
    assert mats.tobytes() == build.__wrapped__(*args).tobytes()
