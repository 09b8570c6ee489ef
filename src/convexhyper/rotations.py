"""Deterministic finite subsets of O(n) used for scans and searches.

n=2: equally spaced rotations, optionally with the reflection coset.
n=3: a near-uniform super-Fibonacci spiral over SO(3) plus the rotation
groups of the platonic solids (useful exact symmetry candidates), again
optionally doubled into the improper coset.
"""

from __future__ import annotations

import functools
import math
from itertools import permutations

import numpy as np
from scipy.spatial import ConvexHull

from .errors import InvalidArgumentError

_PHI = math.sqrt(2.0)
_PSI = 1.533751168755204288118041


def rotation_matrix_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def quaternion_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def so3_fibonacci(count: int) -> np.ndarray:
    """Near-uniform deterministic SO(3) sample (super-Fibonacci spiral)."""
    i = np.arange(count, dtype=float)
    s = i + 0.5
    t = s / count
    d = 2.0 * math.pi * s
    r = np.sqrt(t)
    big_r = np.sqrt(1.0 - t)
    alpha = d / _PHI
    beta = d / _PSI
    quats = np.column_stack(
        [r * np.sin(alpha), r * np.cos(alpha), big_r * np.sin(beta), big_r * np.cos(beta)]
    )
    return np.asarray([quaternion_matrix(q) for q in quats])


def octahedral_rotations() -> np.ndarray:
    """The 24 rotations of the cube: signed permutations with det 1."""
    mats = []
    for perm in permutations(range(3)):
        p = np.zeros((3, 3))
        p[np.arange(3), perm] = 1.0
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                for sz in (-1.0, 1.0):
                    m = p * np.array([sx, sy, sz])[:, None]
                    if np.linalg.det(m) > 0:
                        mats.append(m)
    return np.asarray(mats)


@functools.cache
def icosahedral_rotations() -> np.ndarray:
    """The 60 rotations of the icosahedron, built from its hull geometry.

    Built once and shared: the result is a cached read-only array.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.extend([[0.0, a, b], [a, b, 0.0], [b, 0.0, a]])
    verts = np.asarray(verts)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    hull = ConvexHull(verts)

    mats = [np.eye(3)]
    seen_axes: list[np.ndarray] = []

    def add_axis(axis, order):
        axis = axis / np.linalg.norm(axis)
        for a in seen_axes:
            if abs(float(a @ axis)) > 1.0 - 1e-9:
                return
        seen_axes.append(axis)
        for k in range(1, order):
            mats.append(axis_angle_matrix(axis, 2.0 * math.pi * k / order))

    for v in verts:
        add_axis(v, 5)
    for simplex in hull.simplices:
        add_axis(verts[simplex].mean(axis=0), 3)
    edges = set()
    for simplex in hull.simplices:
        for i in range(3):
            e = tuple(sorted((simplex[i], simplex[(i + 1) % 3])))
            edges.add(e)
    for i, j in sorted(edges):
        add_axis(0.5 * (verts[i] + verts[j]), 2)
    mats = np.asarray(mats)
    mats.setflags(write=False)
    return mats


def _dedup(mats: np.ndarray) -> np.ndarray:
    seen = {}
    for m in mats:
        seen.setdefault(tuple(np.round(m, 9).ravel()), m)
    return np.asarray(list(seen.values()))


def circle_candidates(n_angles: int = 720, reflections: bool = True) -> np.ndarray:
    """Rotation (and optionally reflection) grid over O(2)."""
    rots = np.asarray(
        [rotation_matrix_2d(2.0 * math.pi * k / n_angles) for k in range(n_angles)]
    )
    if not reflections:
        return rots
    flip = np.diag([1.0, -1.0])
    return np.concatenate([rots, rots @ flip])


def sphere_candidates(grid_size: int = 576, reflections: bool = True) -> np.ndarray:
    """Rotation grid over SO(3) / O(3) with platonic symmetry candidates."""
    parts = [so3_fibonacci(grid_size), octahedral_rotations(), icosahedral_rotations()]
    mats = _dedup(np.concatenate(parts))
    if reflections:
        mats = np.concatenate([mats, -mats])
    return mats


def default_candidates(dim: int, reflections: bool = True) -> np.ndarray:
    if dim == 2:
        return circle_candidates(720, reflections)
    if dim == 3:
        return sphere_candidates(576, reflections)
    raise InvalidArgumentError("candidate sets provided for n = 2 and n = 3 only")
