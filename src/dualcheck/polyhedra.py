"""Exact computations on H-representation polyhedra.

A :class:`Polyhedron` is ``{x : a.x <= b for every inequality row,
e.x = d for every equality row}`` in a fixed finite dimension.  Emptiness
is always computed, never stored.  Every geometric question below reduces
to a handful of exact LPs:

* implicit equalities / affine hull — one LP per inequality row,
* relative-interior points — a single max-slack LP,
* the six interiority notions, which collapse in finite dimension to the
  interior test (Int, Core, Qi) and the relative-interior test (Sqri,
  Icr, Qri),
* normal cones from active rows, duals of finitely generated cones,
* projections by Fourier-Motzkin with LP-backed redundancy pruning.  Each
  step eliminates a coordinate that an equality contains (a substitution)
  if there is one, else the one whose Fourier-Motzkin step makes the fewest
  new rows, ``|pos|*|neg| - |pos| - |neg|``, lowest index first.  A row is
  kept exactly when a witness point satisfies the equalities and every
  other kept row but violates it.  A row's LP supplies its witness, and
  witnesses carry through later steps wherever the step itself proves them
  still valid; a row that has one skips its LP,
* Minkowski sums via an extended system and projection.

Lifted systems are written with :class:`BlockRows`, which lays out named
blocks of variables and pulls a polyhedron back along an affine map of
them, keeping rows in insertion order and pinning undeclared blocks to
zero.  The Minkowski sums and products here, the lowering of sums and the
conjugates in ``funcexpr``, and every LP and projection of the numeric
model in ``engine`` are built that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyPolyhedronError,
    MalformedInputError,
    MembershipError,
)
from .exactlp import (
    EQ,
    LE,
    LinearProgram,
    Optimal,
    Row,
    Unbounded,
    Vec,
    dot,
    solve_lp,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class Notion(Enum):
    """Interiority notions; values fix the canonical report order."""

    INT = "int"
    CORE = "core"
    QI = "qi"
    SQRI = "sqri"
    ICR = "icr"
    QRI = "qri"


def _fvec(xs: Sequence) -> Vec:
    return tuple(Fraction(x) for x in xs)


def _primitive(row: Sequence) -> tuple[int, ...]:
    """Scale rational entries by a positive factor to coprime integers."""
    mul = 1
    for c in row:
        mul = mul * c.denominator // gcd(mul, c.denominator)
    ints = [c.numerator * (mul // c.denominator) for c in row]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


@dataclass(frozen=True)
class Polyhedron:
    n: int
    ineqs: tuple[tuple[Vec, Fraction], ...]
    eqs: tuple[tuple[Vec, Fraction], ...]

    def __post_init__(self):
        for a, _ in self.ineqs:
            if len(a) != self.n:
                raise DimensionMismatchError("inequality row length != n")
        for e, _ in self.eqs:
            if len(e) != self.n:
                raise DimensionMismatchError("equality row length != n")


def poly(n: int, ineqs: Iterable = (), eqs: Iterable = ()) -> Polyhedron:
    """Canonicalizing constructor: drops vacuous rows, keeps contradictions."""
    cin = []
    for a, b in ineqs:
        a, b = _fvec(a), Fraction(b)
        if all(c == 0 for c in a) and b >= 0:
            continue  # vacuous 0.x <= b
        cin.append((a, b))
    ceq = []
    for e, d in eqs:
        e, d = _fvec(e), Fraction(d)
        if all(c == 0 for c in e) and d == 0:
            continue
        ceq.append((e, d))
    return Polyhedron(n, tuple(cin), tuple(ceq))


def whole_space(n: int) -> Polyhedron:
    return poly(n)


def interval(lo, hi) -> Polyhedron:
    return poly(1, ineqs=[((1,), hi), ((-1,), -Fraction(lo))])


def orthant(n: int) -> Polyhedron:
    return poly(n, ineqs=[(tuple(-ONE if j == k else ZERO for j in range(n)), ZERO) for k in range(n)])


def cube(n: int) -> Polyhedron:
    """The box {x : |x_k| <= 1}: the rows x_k <= 1, then the rows -x_k <= 1."""
    unit = [tuple(ONE if j == k else ZERO for j in range(n)) for k in range(n)]
    return poly(n, ineqs=[(e, ONE) for e in unit] + [(tuple(-c for c in e), ONE) for e in unit])


def singleton(pt: Sequence) -> Polyhedron:
    pt = _fvec(pt)
    n = len(pt)
    return poly(n, eqs=[(tuple(ONE if j == k else ZERO for j in range(n)), pt[k]) for k in range(n)])


def contains(p: Polyhedron, x: Sequence) -> bool:
    x = _fvec(x)
    if len(x) != p.n:
        raise DimensionMismatchError("point dimension mismatch")
    return all(dot(a, x) <= b for a, b in p.ineqs) and all(
        dot(e, x) == d for e, d in p.eqs
    )


def at_most(b) -> Polyhedron:
    """The half-line {s : s <= b} of R^1."""
    return Polyhedron(1, (((ONE,), Fraction(b)),), ())


def columns(rows: Sequence, n: int) -> tuple[Vec, ...]:
    """The n columns of the coefficient vectors of rows ``(a, ...)``."""
    return tuple(tuple(r[0][c] for r in rows) for c in range(n))


class BlockRows:
    """Rows over named blocks of variables, kept in insertion order.

    ``BlockRows(("x", n), ("t", 1))`` lays its blocks out left to right.
    ``pull(p, *slices, shift=c)`` adds every row of ``p`` (inequalities,
    then equalities) at ``z = (s_1, ..., s_k) + c``: the pullback of ``p``
    along that affine map.  A slice is ``(size, terms)``, where ``terms``
    maps a block name to its coefficient, a scalar (that multiple of the
    identity) or a matrix with ``size`` rows.  A block that this builder
    does not declare is pinned to zero, so ``p`` restricted to ``y = 0``
    is ``p`` pulled back by a builder without ``y``.  Nothing is dropped:
    a row whose coefficients all vanish stays as it is.
    """

    def __init__(self, *blocks: tuple[str, int]):
        self.at: dict[str, int] = {}
        self.n = 0
        for name, size in blocks:
            self.at[name] = self.n
            self.n += size
        self.rows: list[tuple[Vec, str, Fraction]] = []

    def pull(self, p: Polyhedron, *slices, shift: Optional[Sequence] = None) -> "BlockRows":
        parts = []
        start = 0
        for size, terms in slices:
            parts += [(start, size, self.at[k], c) for k, c in terms.items() if k in self.at]
            start += size
        if start != p.n:
            raise DimensionMismatchError("slices do not cover the polyhedron")
        for rows, rel in ((p.ineqs, LE), (p.eqs, EQ)):
            for a, b in rows:
                coeff = [ZERO] * self.n
                for s, size, at, c in parts:
                    seg = a[s : s + size]
                    if isinstance(c, tuple):  # a matrix
                        for j in range(len(c[0]) if c else 0):
                            coeff[at + j] += sum(seg[i] * c[i][j] for i in range(size))
                    else:
                        for j in range(size):
                            coeff[at + j] += seg[j] * c
                self.rows.append((tuple(coeff), rel, b - dot(a, shift) if shift is not None else b))
        return self

    def lp_rows(self) -> tuple[Row, ...]:
        return tuple(Row(a, rel, b) for a, rel, b in self.rows)

    def polyhedron(self) -> Polyhedron:
        return Polyhedron(
            self.n,
            tuple((a, b) for a, rel, b in self.rows if rel == LE),
            tuple((a, b) for a, rel, b in self.rows if rel == EQ),
        )


def _rows(p: Polyhedron) -> list[tuple[Vec, str, Fraction]]:
    out = [(a, LE, b) for a, b in p.ineqs]
    out += [(e, EQ, d) for e, d in p.eqs]
    return out


def _solve_over(p: Polyhedron, obj: Vec, sense: str):
    prog = LinearProgram(p.n, obj, sense, tuple(Row(a, rel, b) for a, rel, b in _rows(p)))
    return solve_lp(prog)


def is_empty(p: Polyhedron) -> bool:
    out = _solve_over(p, tuple(ZERO for _ in range(p.n)), "min")
    return not isinstance(out, (Optimal, Unbounded))


def extremum(p: Polyhedron, obj: Sequence, sense: str):
    """LP outcome of optimizing obj over p."""
    return _solve_over(p, _fvec(obj), sense)


def implicit_rows(p: Polyhedron) -> tuple[int, ...]:
    """Indices of inequality rows satisfied with equality by every point.

    Row a.x <= b is implicit exactly when min a.x over p equals b (the
    maximum is always <= b, so this pins a.x = b on all of p).
    """
    out = []
    for idx, (a, b) in enumerate(p.ineqs):
        res = _solve_over(p, a, "min")
        if isinstance(res, Optimal) and res.value == b:
            out.append(idx)
    return tuple(out)


@dataclass(frozen=True)
class AffineSubspace:
    """Consistent system of equalities in reduced row-echelon form."""

    n: int
    eqs: tuple[tuple[Vec, Fraction], ...]

    def rank(self) -> int:
        return len(self.eqs)

    def dim(self) -> int:
        return self.n - self.rank()

    def is_whole(self) -> bool:
        return self.rank() == 0

    def contains(self, x: Sequence) -> bool:
        x = _fvec(x)
        return all(dot(e, x) == d for e, d in self.eqs)

    def basis(self) -> tuple[Vec, ...]:
        """Spanning directions of the subspace (null space of the rows)."""
        leads = set()
        for e, _ in self.eqs:
            leads.add(next(j for j, c in enumerate(e) if c != 0))
        out = []
        for j in range(self.n):
            if j in leads:
                continue
            v = [ZERO] * self.n
            v[j] = ONE
            for e, _ in self.eqs:
                lead = next(k for k, c in enumerate(e) if c != 0)
                v[lead] = -e[j]
            out.append(tuple(v))
        return tuple(out)


def _echelon(eqs: Sequence[tuple[Vec, Fraction]], n: int) -> tuple[tuple[Vec, Fraction], ...]:
    rows = [list(e) + [d] for e, d in eqs]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    out = []
    for i in range(len(rows)):
        e, d = tuple(rows[i][:n]), rows[i][n]
        if all(c == 0 for c in e):
            if d != 0:
                raise EmptyPolyhedronError("inconsistent equality system")
            continue
        out.append((e, d))
    return tuple(out)


def affine_hull(p: Polyhedron) -> AffineSubspace:
    """Stored equalities plus all implicit inequality rows, reduced."""
    if is_empty(p):
        raise EmptyPolyhedronError("affine hull of an empty polyhedron")
    eqs = list(p.eqs)
    for idx in implicit_rows(p):
        a, b = p.ineqs[idx]
        eqs.append((a, b))
    return AffineSubspace(p.n, _echelon(eqs, p.n))


def relative_interior_point(p: Polyhedron) -> Optional[Vec]:
    """A point satisfying every non-implicit inequality strictly, or None."""
    if is_empty(p):
        return None
    imp = set(implicit_rows(p))
    n = p.n
    rows = []
    for idx, (a, b) in enumerate(p.ineqs):
        if idx in imp:
            rows.append(Row(a + (ZERO,), EQ, b))
        else:
            rows.append(Row(a + (ONE,), LE, b))
    for e, d in p.eqs:
        rows.append(Row(e + (ZERO,), EQ, d))
    t_up = tuple(ZERO for _ in range(n)) + (ONE,)
    rows.append(Row(t_up, LE, ONE))
    obj = t_up
    prog = LinearProgram(n + 1, obj, "max", tuple(rows))
    out = solve_lp(prog)
    assert isinstance(out, Optimal) and out.value > 0, "nonempty polyhedra have relative interior"
    return out.point[:n]


def zero_in(notion: Notion, p: Polyhedron) -> bool:
    """Does the origin belong to notion(p)?

    In finite dimension Int, Core and Qi coincide with the interior and
    Sqri, Icr, Qri with the relative interior, so exactly two tests exist.
    """
    zero = tuple(ZERO for _ in range(p.n))
    if not contains(p, zero):
        return False
    if notion in (Notion.INT, Notion.CORE, Notion.QI):
        if p.eqs:
            return False
        # all rows strict at 0 already rules out implicit equalities:
        # an implicit row through 0 would have rhs 0
        return all(b > 0 for _, b in p.ineqs)
    imp = set(implicit_rows(p))
    return all(b > 0 for idx, (_, b) in enumerate(p.ineqs) if idx not in imp)


@dataclass(frozen=True)
class FinitelyGeneratedCone:
    """cone = {sum lambda_i g_i + sum mu_j l_j : lambda >= 0, mu free}."""

    n: int
    generators: tuple[Vec, ...]
    lineality: tuple[Vec, ...]


def normal_cone(p: Polyhedron, x: Sequence) -> FinitelyGeneratedCone:
    x = _fvec(x)
    if not contains(p, x):
        raise MembershipError("normal cone requested at a point outside the set")
    gens = tuple(a for a, b in p.ineqs if dot(a, x) == b)
    lin = tuple(e for e, _ in p.eqs)
    return FinitelyGeneratedCone(p.n, gens, lin)


def cone_member(k: FinitelyGeneratedCone, v: Sequence) -> bool:
    """Exact membership: does v = sum lambda g + sum mu l have a solution?"""
    v = _fvec(v)
    gens, lin = k.generators, k.lineality
    m = len(gens) + len(lin)
    if m == 0:
        return all(c == 0 for c in v)
    rows = []
    for coord in range(k.n):
        coeffs = tuple(g[coord] for g in gens) + tuple(l[coord] for l in lin)
        rows.append(Row(coeffs, EQ, v[coord]))
    bounds = tuple((ZERO, None) for _ in gens) + tuple((None, None) for _ in lin)
    prog = LinearProgram(m, tuple(ZERO for _ in range(m)), "min", tuple(rows), bounds)
    return isinstance(solve_lp(prog), (Optimal, Unbounded))


def is_linear_subspace(k: FinitelyGeneratedCone) -> bool:
    """True iff -g lies back in the cone for every generator."""
    return all(cone_member(k, tuple(-c for c in g)) for g in k.generators)


def is_trivial_cone(k: FinitelyGeneratedCone) -> bool:
    """True iff the cone is exactly {0}."""
    return all(all(c == 0 for c in g) for g in k.generators) and all(
        all(c == 0 for c in l) for l in k.lineality
    )


def dual_cone(k: FinitelyGeneratedCone) -> Polyhedron:
    """{y : <y,g> >= 0 for generators, <y,l> = 0 for lineality}."""
    return poly(
        k.n,
        ineqs=[(tuple(-c for c in g), ZERO) for g in k.generators],
        eqs=[(l, ZERO) for l in k.lineality],
    )


# -- projection ------------------------------------------------------------


def _dedupe(rows):
    """Scale rows to primitive form, dropping vacuous and repeated ones.

    Rows are ``(a, b, witness)``; each surviving row keeps its witness.
    """
    seen = set()
    out = []
    for a, b, w in rows:
        key = _primitive((*a, b))
        if key in seen or (not any(key[:-1]) and key[-1] >= 0):
            continue
        seen.add(key)
        out.append((tuple(Fraction(c) for c in key[:-1]), Fraction(key[-1]), w))
    return out


def _prune_lp(rows, eqs, n: int):
    """Drop rows implied by the rest, in order.

    Row i stays exactly when some point satisfies the equalities and every
    other kept row but violates row i.  Rows are ``(a, b, witness)``: a row
    whose witness is such a point stays without an LP, and every other row
    gets one max-LP over the rest, whose optimum or ray supplies the
    witness it carries on.  Dropping a row only enlarges the set the
    others must satisfy, so a witness stays valid to the end of the loop.
    """
    kept = list(rows)
    i = 0
    while i < len(kept):
        a, b, w = kept[i]
        if w is not None:
            i += 1
            continue
        others = tuple((a2, b2) for a2, b2, _ in kept[:i] + kept[i + 1 :])
        res = _solve_over(Polyhedron(n, others, tuple(eqs)), a, "max")
        if isinstance(res, Optimal) and res.value > b:
            kept[i] = (a, b, res.point)
            i += 1
        elif isinstance(res, Unbounded):
            # a.ray > 0, so a step of t past the LP point crosses a.x = b
            t = max(ZERO, (b - dot(a, res.point)) / dot(a, res.ray)) + 1
            kept[i] = (a, b, tuple(x + t * r for x, r in zip(res.point, res.ray)))
            i += 1
        else:  # implied by the rest, or the rest is already infeasible
            kept.pop(i)
    return kept


def _next_var(rows, eqs, drop: Sequence[int]) -> int:
    """The dropped coordinate to eliminate next.

    One that an equality contains is a pure substitution; otherwise the one
    whose Fourier-Motzkin step makes the fewest new rows, lowest index first.
    """
    for k in drop:
        if any(e[k] != 0 for e, _ in eqs):
            return k

    def growth(k):
        pos = sum(1 for a, _, _ in rows if a[k] > 0)
        neg = sum(1 for a, _, _ in rows if a[k] < 0)
        return pos * neg - pos - neg

    return min(drop, key=lambda k: (growth(k), k))


def _eliminate(rows, eqs, k):
    """Remove variable k from the system (substitution or Fourier-Motzkin).

    A substitution rewrites every row by a multiple of an equality, which
    leaves its value unchanged on the equalities, so every witness stays
    valid.  A Fourier-Motzkin step keeps the rows without k, with their
    witnesses: each new row is a nonnegative combination of other rows,
    which such a witness satisfies.  The new rows have none.
    """
    for idx, (e, d) in enumerate(eqs):
        if e[k] != 0:
            piv, pd = e, d
            rest = eqs[:idx] + eqs[idx + 1 :]
            new_eqs = []
            for e2, d2 in rest:
                if e2[k] != 0:
                    f = e2[k] / piv[k]
                    e2 = tuple(x - f * y for x, y in zip(e2, piv))
                    d2 = d2 - f * pd
                new_eqs.append((e2, d2))
            new_rows = []
            for a, b, w in rows:
                if a[k] != 0:
                    f = a[k] / piv[k]
                    a = tuple(x - f * y for x, y in zip(a, piv))
                    b = b - f * pd
                new_rows.append((a, b, w))
            return new_rows, new_eqs
    pos = [row for row in rows if row[0][k] > 0]
    neg = [row for row in rows if row[0][k] < 0]
    combined = [row for row in rows if row[0][k] == 0]
    heirs = _heirs(pos, neg, k)
    # the rows are primitive, so each combination is taken in integers;
    # _dedupe scales it back to primitive form
    for i, (ap, bp, _) in enumerate(pos):
        mp = ap[k].numerator
        for j, (an, bn, _) in enumerate(neg):
            mn = -an[k].numerator
            coeff = tuple(mn * x.numerator + mp * y.numerator for x, y in zip(ap, an))
            combined.append((coeff, mn * bp.numerator + mp * bn.numerator, heirs.get((i, j))))
    return combined, list(eqs)


def _heirs(pos, neg, k):
    """Witnesses that pass to the new rows of a Fourier-Motzkin step on k.

    Let w witness row p of one side, and let row q of the other side have
    slack s_q at w; p exceeds its bound at w by e.  The combination of p
    and q is violated at w exactly when s_q / |q_k| < e / |p_k|.  Every
    other new row is a nonnegative combination of rows w satisfies, so
    when exactly one q passes that test, w witnesses the combination of p
    and q.  Rows are primitive, so the test runs on integers.
    """
    out = {}
    for mine, theirs, swap in ((pos, neg, False), (neg, pos, True)):
        for i, (a, b, w) in enumerate(mine):
            if w is None:
                continue
            *pt, den = _primitive((*w, ONE))
            excess = sum(c.numerator * x for c, x in zip(a, pt)) - b.numerator * den
            pk = abs(a[k].numerator)
            hits = [
                j
                for j, (a2, b2, _) in enumerate(theirs)
                if (b2.numerator * den - sum(c.numerator * x for c, x in zip(a2, pt))) * pk
                < excess * abs(a2[k].numerator)
            ]
            if len(hits) == 1:
                out.setdefault((hits[0], i) if swap else (i, hits[0]), w)
    return out


def _project_full(ineqs, eqs, drop: Sequence[int], n: int):
    rows = _dedupe([(a, b, None) for a, b in ineqs])
    eqs = list(eqs)
    drop = sorted(drop)
    while drop:
        k = _next_var(rows, eqs, drop)
        drop.remove(k)
        rows, eqs = _eliminate(rows, eqs, k)
        rows = _dedupe(rows)
        if len(rows) > 1:
            rows = _prune_lp(rows, eqs, n)
    return [(a, b) for a, b, _ in rows], eqs


def project(p: Polyhedron, keep: Sequence[int]) -> Polyhedron:
    """Coordinate projection onto the (sorted) kept coordinates."""
    keep = sorted(set(keep))
    if any(k < 0 or k >= p.n for k in keep):
        raise DimensionMismatchError("projection index out of range")
    drop = [k for k in range(p.n) if k not in keep]
    ineqs, eqs = _project_full(p.ineqs, p.eqs, drop, p.n)
    for a, _ in ineqs:
        assert all(a[k] == 0 for k in drop)
    for e, _ in eqs:
        assert all(e[k] == 0 for k in drop)
    new_in = [(tuple(a[k] for k in keep), b) for a, b in ineqs]
    new_eq = [(tuple(e[k] for k in keep), d) for e, d in eqs]
    return poly(len(keep), new_in, new_eq)


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """H-representation of {u + v : u in p, v in q}."""
    if p.n != q.n:
        raise DimensionMismatchError("Minkowski sum needs equal dimensions")
    n = p.n
    b = BlockRows(("z", n), ("u", n), ("v", n))
    b.pull(p, (n, {"u": 1})).pull(q, (n, {"v": 1}))
    b.pull(singleton((ZERO,) * n), (n, {"z": 1, "u": -1, "v": -1}))  # z = u + v
    return project(b.polyhedron(), range(n))


def neg(p: Polyhedron) -> Polyhedron:
    return poly(
        p.n,
        ineqs=[(tuple(-c for c in a), b) for a, b in p.ineqs],
        eqs=[(tuple(-c for c in e), d) for e, d in p.eqs],
    )


def translate(p: Polyhedron, t: Sequence) -> Polyhedron:
    t = _fvec(t)
    return poly(
        p.n,
        ineqs=[(a, b + dot(a, t)) for a, b in p.ineqs],
        eqs=[(e, d + dot(e, t)) for e, d in p.eqs],
    )


def scale(p: Polyhedron, lam) -> Polyhedron:
    lam = Fraction(lam)
    if lam <= 0:
        raise MalformedInputError("scale expects a positive factor")
    return poly(
        p.n,
        ineqs=[(a, lam * b) for a, b in p.ineqs],
        eqs=[(e, lam * d) for e, d in p.eqs],
    )


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.n != q.n:
        raise DimensionMismatchError("intersection needs equal dimensions")
    return poly(p.n, p.ineqs + q.ineqs, p.eqs + q.eqs)


def product(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    b = BlockRows(("u", p.n), ("v", q.n))
    return b.pull(p, (p.n, {"u": 1})).pull(q, (q.n, {"v": 1})).polyhedron()


def strictly_feasible_point(strict: Polyhedron, weak: Optional[Polyhedron] = None) -> Optional[Vec]:
    """A point of ``weak`` satisfying every inequality of ``strict`` strictly.

    Returns None when no such point exists (in particular when ``strict``
    has a nontrivial equality row, which kills the interior).
    """
    n = strict.n
    if weak is not None and weak.n != n:
        raise DimensionMismatchError("mismatched dimensions")
    if strict.eqs:
        return None
    rows = [Row(a + (ONE,), LE, b) for a, b in strict.ineqs]
    if weak is not None:
        rows += [Row(a + (ZERO,), LE, b) for a, b in weak.ineqs]
        rows += [Row(e + (ZERO,), EQ, d) for e, d in weak.eqs]
    t_up = tuple(ZERO for _ in range(n)) + (ONE,)
    rows.append(Row(t_up, LE, ONE))
    prog = LinearProgram(n + 1, t_up, "max", tuple(rows))
    out = solve_lp(prog)
    if isinstance(out, Optimal) and out.value > 0:
        return out.point[:n]
    return None
