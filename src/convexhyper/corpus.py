"""Deterministic random bodies and reproducible corpora for testing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import Polytope, Rotation, convex_hull_vertices
from .errors import InvalidArgumentError, ParseError
from .serialization import BodyDocument

_MAX_RESAMPLE = 64
# larger requests are refused, not allocated: qhull's cost grows fast with
# n (6-D with 4096 points takes about 2 s)
_MAX_DIM = 6
_MAX_VERTICES = 1 << 12
_MAX_COUNT = 1 << 12  # bodies per corpus clause


def random_polytope(seed: int, n: int, vertex_count: int) -> Polytope:
    """Convex hull of vertex_count i.i.d. uniform points in [-1, 1]^n.

    Full-dimensionality is enforced by resampling; the same seed always
    reproduces the same vertex list.  The seed must be nonnegative, n at
    most ``_MAX_DIM`` (6) and vertex_count at most ``_MAX_VERTICES`` (4096).
    """
    if seed < 0:
        raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")
    if not 2 <= n <= _MAX_DIM:
        raise InvalidArgumentError(f"random polytopes need 2 <= n <= {_MAX_DIM}, got {n}")
    if not n + 1 <= vertex_count <= _MAX_VERTICES:
        raise InvalidArgumentError(f"need n+1 to {_MAX_VERTICES} points, got {vertex_count}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESAMPLE):
        poly = Polytope(convex_hull_vertices(rng.uniform(-1.0, 1.0, size=(vertex_count, n))))
        if poly.is_full_dimensional:
            return poly
    raise InvalidArgumentError("could not draw a full-dimensional point set")


def random_symmetric_polytope(seed: int, n: int, vertex_count: int) -> Polytope:
    """Centrally symmetric random polytope (hull of points and their negatives)."""
    base = random_polytope(seed, n, vertex_count)
    pts = np.vstack([base.vertices, -base.vertices])
    return Polytope(convex_hull_vertices(pts))


def random_rotation(seed_or_rng, n: int, proper: bool = True) -> Rotation:
    """Haar-ish random element of SO(n) (or O(n) with proper=False)."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if proper and np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    if not proper and rng.integers(2) == 1:
        q[:, 0] = -q[:, 0]
    return Rotation(q)


@dataclass(frozen=True)
class Corpus:
    """A reproducible list of bodies: regeneration from (seed, spec) is exact."""

    seed: int
    generator_spec: str
    bodies: tuple

    @staticmethod
    def generate(seed: int, generator_spec: str) -> "Corpus":
        """Build a corpus from a spec string.

        The spec is semicolon-separated clauses ``kind:n=N,verts=V,count=C``
        with kind in {poly, sym}; e.g. ``poly:n=2,verts=12,count=8``.  The
        seed must be nonnegative, n and V within ``random_polytope``'s bounds
        and C at most ``_MAX_COUNT`` (4096).
        """
        if seed < 0:
            raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")
        docs = []
        stream = seed
        for clause in generator_spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            try:
                kind, args = clause.split(":", 1)
                kv = dict(part.split("=", 1) for part in args.split(","))
                n = int(kv["n"])
                verts = int(kv["verts"])
                count = int(kv["count"])
            except (ValueError, KeyError) as exc:
                raise ParseError(f"bad corpus clause {clause!r}: {exc}") from None
            if not 0 <= count <= _MAX_COUNT:
                raise ParseError(f"bad corpus clause {clause!r}: count must be 0 to {_MAX_COUNT}")
            maker = {
                "poly": random_polytope,
                "sym": random_symmetric_polytope,
            }.get(kind.strip())
            if maker is None:
                raise ParseError(f"unknown corpus generator {kind!r}")
            for _ in range(count):
                body = maker(stream, n, verts)
                docs.append(
                    BodyDocument(
                        body=body,
                        metadata={"generator": kind, "seed": str(stream)},
                    )
                )
                stream += 1
        return Corpus(seed=seed, generator_spec=generator_spec, bodies=tuple(docs))
