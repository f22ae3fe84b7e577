"""Generators for the randomized property suites.

Everything draws from an explicit ``random.Random`` so runs are
reproducible; the suites seed it from DUALCHECK_SEED (default 0).
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from dualcheck import setexpr as se
from dualcheck.engine import AffineMap, FenchelInstance, LagrangeInstance
from dualcheck.funcexpr import Affine, IndicatorOf, Sum
from dualcheck.polyhedra import Polyhedron, poly
from dualcheck.spaces import finite

ZERO = Fraction(0)
ONE = Fraction(1)


def suite_seed(default: int = 0) -> int:
    raw = os.environ.get("DUALCHECK_SEED", "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


def random_polyhedron_with_origin(rng: random.Random, n: int) -> Polyhedron:
    """Random H-representation guaranteed to contain the origin."""
    rows = []
    for _ in range(rng.randint(1, n + 3)):
        a = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        rows.append((a, Fraction(rng.randint(0, 3))))
    eqs = []
    if rng.random() < 0.3:
        e = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        eqs.append((e, ZERO))
    return poly(n, rows, eqs)


def _box(ends) -> Polyhedron:
    """The box with bounds (lo, hi) on each coordinate."""
    n = len(ends)
    rows = []
    for j, (lo, hi) in enumerate(ends):
        e = [ZERO] * n
        e[j] = ONE
        rows.append((tuple(e), Fraction(hi)))
        rows.append((tuple(-c for c in e), Fraction(-lo)))
    return poly(n, rows)


def random_box(rng: random.Random, n: int) -> Polyhedron:
    """A random box with the origin in its interior."""
    return _box([(rng.randint(-3, -1), rng.randint(1, 3)) for _ in range(n)])


def random_fenchel_core_instance(rng: random.Random, tag: str) -> FenchelInstance:
    """Random pair whose domains are boxes around a shared center, so the
    origin is interior to the domain difference."""
    n = rng.randint(1, 2)
    center = [rng.randint(-2, 2) for _ in range(n)]
    f_box = _box_around(rng, center)
    g_box = _box_around(rng, center)
    f = Sum(Affine(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)), ZERO), IndicatorOf(se.PolyAtom(f_box)))
    g = Sum(Affine(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)), ZERO), IndicatorOf(se.PolyAtom(g_box)))
    return FenchelInstance(instance_id=tag, space=finite(n), f=f, g=g)


def _box_around(rng: random.Random, center) -> Polyhedron:
    return _box([(c - rng.randint(1, 2), c + rng.randint(1, 2)) for c in center])


def random_lagrange_slater_instance(rng: random.Random, tag: str) -> LagrangeInstance:
    """Random cone-constrained instance with a built-in strict point: the
    origin sits inside S and maps strictly into -C."""
    n = rng.randint(1, 2)
    m = rng.randint(1, 2)
    s_box = random_box(rng, n)
    rows = tuple(
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m)
    )
    shift = tuple(Fraction(-rng.randint(1, 2)) for _ in range(m))  # g(0) < 0
    gmap = AffineMap(rows, shift)
    cone_rows = [(tuple(-ONE if j == k else ZERO for j in range(m)), ZERO) for k in range(m)]
    cone = se.PolyAtom(poly(m, cone_rows))  # the nonnegative orthant
    f = Affine(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)), ZERO)
    fobj = Sum(f, IndicatorOf(se.PolyAtom(random_box(rng, n))))
    return LagrangeInstance(
        instance_id=tag,
        xspace=finite(n),
        zspace=finite(m),
        f=fobj,
        sset=se.PolyAtom(s_box),
        gmap=gmap,
        cone=cone,
    )
