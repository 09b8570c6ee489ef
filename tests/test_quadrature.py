import math

import numpy as np
import pytest

from convexhyper import (
    InvalidArgumentError,
    integrate,
    integrate_values,
    make_grid_2d,
    make_grid_3d,
    make_grid_nd,
    rotate_grid,
    sphere_area,
)


def test_grid_2d_minimal_nodes():
    g = make_grid_2d(4)
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    np.testing.assert_allclose(g.nodes, expected, atol=1e-15)
    np.testing.assert_allclose(g.weights, math.pi / 2)


def test_grid_2d_rejects_small():
    with pytest.raises(InvalidArgumentError):
        make_grid_2d(3)


def test_grid_2d_weight_sum(grid2):
    assert abs(grid2.weights.sum() - 2 * math.pi) < 1e-12


def test_grid_2d_integrates_cos_squared(grid2):
    # closed form: integral of cos^2 over the circle is pi
    val = integrate_values(grid2, grid2.nodes[:, 0] ** 2)
    assert abs(val - math.pi) < 1e-10


def test_trig_exactness_all_degrees_below_m():
    m = 64
    g = make_grid_2d(m)
    ang = np.arctan2(g.nodes[:, 1], g.nodes[:, 0])
    for k in range(m):
        c = integrate_values(g, np.cos(k * ang))
        s = integrate_values(g, np.sin(k * ang))
        expected = 2 * math.pi if k == 0 else 0.0
        assert abs(c - expected) < 1e-12
        assert abs(s) < 1e-12


def test_grid_3d_weight_sum(grid3):
    assert abs(grid3.weights.sum() - 4 * math.pi) < 1e-10 * 4 * math.pi


def test_grid_3d_rejects_small():
    with pytest.raises(InvalidArgumentError):
        make_grid_3d(1, 8)
    with pytest.raises(InvalidArgumentError):
        make_grid_3d(8, 3)


@pytest.mark.parametrize(
    "make", [lambda: make_grid_2d(2**20 + 1), lambda: make_grid_2d(10**30),
             lambda: make_grid_3d(1025, 4), lambda: make_grid_3d(1024, 1025)],
)
def test_huge_grids_rejected_before_allocation(make):
    # 10**30 nodes once ended in numpy's "Maximum allowed size exceeded"
    with pytest.raises(InvalidArgumentError):
        make()


def test_grid_3d_constant(grid3):
    assert abs(integrate(grid3, lambda u: 1.0) - 4 * math.pi) < 1e-10


def test_grid_3d_z_squared(grid3):
    # closed form: integral of u3^2 over the sphere is 4*pi/3
    val = integrate_values(grid3, grid3.nodes[:, 2] ** 2)
    assert abs(val - 4 * math.pi / 3) < 1e-10


def test_odd_function_vanishes(grid2, grid3):
    for g in (grid2, grid3):
        assert abs(integrate_values(g, g.nodes[:, 0])) < 1e-12


def test_antipodal_symmetry(grid2, grid3):
    # even node counts make the grid invariant under u -> -u
    for g in (grid2, grid3):
        nodes = set(map(tuple, np.round(g.nodes, 9)))
        flipped = set(map(tuple, np.round(-g.nodes, 9)))
        assert nodes == flipped


def test_monte_carlo_grid():
    g = make_grid_nd(4, 512, seed=3)
    assert abs(g.weights.sum() - sphere_area(4)) < 1e-12
    g_again = make_grid_nd(4, 512, seed=3)
    np.testing.assert_array_equal(g.nodes, g_again.nodes)


def test_rotate_grid_preserves_weights(grid2):
    th = 0.3
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    rg = rotate_grid(rot, grid2)
    np.testing.assert_array_equal(rg.weights, grid2.weights)
    np.testing.assert_allclose(rg.nodes, grid2.nodes @ rot.T)


def test_integrate_callable(grid2):
    assert abs(integrate(grid2, lambda u: 1.0) - 2 * math.pi) < 1e-12
