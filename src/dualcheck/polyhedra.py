"""Exact computations on lifted H-representation polyhedra.

A :class:`Polyhedron` is an H-system ``{z : a.z <= b for every inequality
row, e.z = d for every equality row}`` over ``n`` kept coordinates followed
by ``aux`` auxiliary ones, and it denotes the projection of that system
onto the kept coordinates.  Sums, differences, images and epigraphs of
sums and conjugates are therefore written by stacking rows (the calculus
of polyhedral representations, Ben-Tal and Nemirovski, *Lectures on Modern
Convex Optimization*, ch. 1): :func:`project` only reorders columns and
marks the dropped ones auxiliary.  Emptiness is always computed, never
stored.

Every row has one form, made by :func:`int_row`: a dense tuple of ``int``s
and an ``int`` right-hand side with gcd 1, the positive multiple of the
row it stands for (so an equality row keeps its sign; a zero row stays
zero).  Rows are built, compared, hashed and pulled back in integer
arithmetic and go to the exact LP as they stand.  ``Fraction`` is kept for
what is read off the rows: points, values, multipliers and the affine
hull's echelon form, and every division of row entries builds one.  Every
question is answered on the lifted rows with a handful of exact LPs:

* emptiness and membership in the projection: one feasibility LP each;
* implicit equalities: the single LP of Freund, Roundy and Todd (1985),
  max sum(s) subject to A z + s <= b tau, E z = d tau, 0 <= s <= 1,
  tau >= 1, whose optimum has s_i = 1 exactly on the rows that some point
  satisfies strictly, and whose point z / tau lies in the relative
  interior;
* the affine hull of the projection: the equalities plus the implicit
  rows with the auxiliary coordinates removed by exact Gaussian
  elimination, no LP;
* relative-interior points meeting further rows, by :func:`ri_point`: one
  strict-feasibility LP over ri P, pulled back along the caller's map,
  after the implicit rows are known.  It
  decides the six interiority notions, which collapse in finite dimension
  to the relative interior (Sqri, Icr, Qri) and the interior (Int, Core,
  Qi): ri pi(P) = pi(ri P) (Rockafellar, *Convex Analysis*, Thm 6.6), and
  int pi(P) is ri pi(P) when the affine hull of pi(P) is everything.

Lifted systems are written with :class:`BlockRows`, which lays out named
blocks of variables and pulls a polyhedron back along an affine map of
them, keeping rows in insertion order, pinning undeclared blocks to zero
and giving each pulled polyhedron's auxiliaries fresh columns at the end.
The Minkowski sums, intersections and products here, the lowering and
conjugation in ``funcexpr`` and every LP of the numeric model in
``engine`` are built that way.  The only elimination is :func:`trim`,
the one-sided step of Fourier-Motzkin elimination, which deletes an
auxiliary column with the rows that use it and never combines rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyPolyhedronError,
    MalformedInputError,
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
    rat,
    solve_lp,
    vec,
)
from .frozen import frozen_node

IntRow = tuple[tuple[int, ...], int]

# One diagnosis asks the same lifted system some questions twice: the
# membership rule and the attributes both ask for membership, and the
# interior and relative-interior tests both need the implicit rows.  Those
# two LP-backed answers are remembered, at most LP_MEMO entries each.
LP_MEMO = 1024


class Notion(Enum):
    """Interiority notions; values fix the canonical report order."""

    INT = "int"
    CORE = "core"
    QI = "qi"
    SQRI = "sqri"
    ICR = "icr"
    QRI = "qri"


@frozen_node
class Polyhedron:
    """The projection onto the first n coordinates of the rows over n + aux.

    The rows are primitive int rows (see :func:`int_row`); the constructor
    takes them as given, and :func:`poly` makes them from any exact rows."""

    n: int
    ineqs: tuple[IntRow, ...]
    eqs: tuple[IntRow, ...]
    aux: int = 0

    def __post_init__(self):
        w = self.n + self.aux
        for a, _ in chain(self.ineqs, self.eqs):
            if len(a) != w:
                raise DimensionMismatchError("row length != n + aux")

    @property
    def width(self) -> int:
        return self.n + self.aux


def _reduced(a: Sequence[int], b: int) -> IntRow:
    """The int row (a, b) divided by its gcd."""
    g = gcd(b, *a)
    return (tuple(a), b) if g < 2 else (tuple(c // g for c in a), b // g)


def int_row(a: Sequence, b) -> IntRow:
    """The row (a, b) in primitive int form: its positive multiple whose
    entries are ints with gcd 1.  Entries go through ``rat``, so a float
    is refused."""
    if not {int}.issuperset(map(type, (*a, b))):
        a, b = [c if type(c) is int else rat(c) for c in a], rat(b)
        d = lcm(b.denominator, *(c.denominator for c in a))
        a, b = [c.numerator * (d // c.denominator) for c in a], b.numerator * (d // b.denominator)
    return _reduced(a, b)


def poly(n: int, ineqs: Iterable = (), eqs: Iterable = (), aux: int = 0) -> Polyhedron:
    """Canonicalizing constructor: writes every row as an ``int_row``,
    drops vacuous rows, keeps contradictions."""
    cin = tuple(r for r in (int_row(a, b) for a, b in ineqs) if r[1] < 0 or any(r[0]))  # vacuous: 0.x <= b >= 0
    ceq = tuple(r for r in (int_row(e, d) for e, d in eqs) if r[1] or any(r[0]))  # vacuous: 0.x = 0
    return Polyhedron(n, cin, ceq, aux)


def whole_space(n: int) -> Polyhedron:
    return poly(n)


def interval(lo, hi) -> Polyhedron:
    return poly(1, ineqs=[((1,), hi), ((-1,), -rat(lo))])


def _unit(n: int, k: int, c: int = 1) -> tuple[int, ...]:
    return tuple(c if j == k else 0 for j in range(n))


def orthant(n: int) -> Polyhedron:
    return Polyhedron(n, tuple((_unit(n, k, -1), 0) for k in range(n)), ())


def cube(n: int) -> Polyhedron:
    """The box {x : |x_k| <= 1}: the rows x_k <= 1, then the rows -x_k <= 1."""
    return Polyhedron(n, tuple((_unit(n, k, c), 1) for c in (1, -1) for k in range(n)), ())


def singleton(pt: Sequence) -> Polyhedron:
    n = len(pt)
    return poly(n, eqs=[(_unit(n, k), c) for k, c in enumerate(pt)])


def contains(p: Polyhedron, x: Sequence) -> bool:
    """Is x in the projection?  Arithmetic without auxiliaries, else one LP."""
    x = vec(x)
    if len(x) != p.n:
        raise DimensionMismatchError("point dimension mismatch")
    if p.aux:
        return _in_projection(p, x)
    return all(dot(a, x) <= b for a, b in p.ineqs) and all(
        dot(e, x) == d for e, d in p.eqs
    )


@lru_cache(maxsize=LP_MEMO)
def _in_projection(p: Polyhedron, x: Vec) -> bool:
    """Is the fiber of the lifted rows over x nonempty?  One LP."""
    return not is_empty(fiber(p, x))


def fiber(p: Polyhedron, x: Vec) -> Polyhedron:
    """The lifted rows with the first len(x) kept coordinates fixed at x,
    over the other kept coordinates and the auxiliaries: each row times
    the lcm d of x's denominators, so x enters as the ints d x."""
    k, d = len(x), lcm(*(c.denominator for c in x))
    dx = [c.numerator * (d // c.denominator) for c in x]
    rows = (tuple(_reduced([d * c for c in a[k:]], d * b - sum(map(mul, a, dx))) for a, b in rs) for rs in (p.ineqs, p.eqs))
    return Polyhedron(p.n - k, *rows, p.aux)


def at_most(b) -> Polyhedron:
    """The half-line {s : s <= b} of R^1."""
    return Polyhedron(1, (int_row((1,), b),), ())


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
    identity, so ``size`` must be the block's size) or a matrix with
    ``size`` rows, each as long as the block; any other shape is refused.
    The slices cover the kept coordinates of ``p``; its auxiliaries get a
    fresh block of columns at the end of the builder, so the rows pulled
    back are those of the lifted set.  A block that this builder does not
    declare is pinned to zero, so ``p`` restricted to ``y = 0`` is ``p``
    pulled back by a builder without ``y``.  Nothing is dropped: a row
    whose coefficients all vanish stays a row.

    The rows are written in ints.  One positive factor d per pull, the
    lcm of the denominators of every coefficient and of the shift, turns
    them into ints once; each row of ``p`` then pulls back by int products
    to d times its rational pullback, which is divided by its gcd (see
    ``int_row``).  A matrix is kept as the nonzero cells of its rows, and
    a zero scalar is dropped.
    """

    def __init__(self, *blocks: tuple[str, int]):
        self.at: dict[str, int] = {}
        self.size = dict(blocks)
        self.n = 0
        for name, size in blocks:
            self.at[name] = self.n
            self.n += size
        self.rows: list[tuple[tuple[int, ...], str, int]] = []

    def pull(self, p: Polyhedron, *slices, shift: Optional[Sequence] = None) -> "BlockRows":
        # (start in a row of p, size, first column, coefficient), a matrix as its
        # rows' nonzero (column, entry) cells; ints: no coefficient or shift is a Fraction
        scalars, matrices, ints = [], [], shift is None or {int}.issuperset(map(type, shift))
        start = 0
        for size, terms in slices:
            for k, c in terms.items():
                if k not in self.at:
                    continue
                if isinstance(c, tuple):
                    if len(c) != size or any(len(r) != self.size[k] for r in c):
                        raise DimensionMismatchError(f"a matrix on block {k!r} must be {size} x {self.size[k]}")
                    matrices.append((start, size, [[(j, x) for j, x in enumerate(r, self.at[k]) if x] for r in c]))
                    ints = ints and {int}.issuperset(map(type, chain.from_iterable(c)))
                elif size != self.size[k]:
                    raise DimensionMismatchError(f"a scalar on block {k!r} needs a slice of size {self.size[k]}")
                elif c:
                    scalars.append((start, size, self.at[k], c))
                    ints = ints and type(c) is int
            start += size
        if start != p.n:
            raise DimensionMismatchError("slices do not cover the polyhedron")
        shift, d = shift or (), 1
        if not ints:  # one factor d > 0 clears every denominator
            values = [t[3] for t in scalars] + [x for t in matrices for r in t[2] for _, x in r] + list(shift)
            d = lcm(*(x.denominator for x in values))

            def scaled(x):
                return x.numerator * (d // x.denominator)

            scalars = [(s, size, at, scaled(c)) for s, size, at, c in scalars]
            matrices = [(s, size, [[(j, scaled(x)) for j, x in r] for r in m]) for s, size, m in matrices]
            shift = [scaled(x) for x in shift]
        if p.aux:
            scalars.append((p.n, p.aux, self.n, d))
            self.n += p.aux
        for rows, rel in ((p.ineqs, LE), (p.eqs, EQ)):
            for a, b in rows:
                coeff = [0] * self.n
                for s, size, at, c in scalars:
                    for j, v in enumerate(a[s : s + size], at):
                        if v:
                            coeff[j] += v * c
                for s, size, m in matrices:
                    for i, v in enumerate(a[s : s + size]):
                        if v:
                            for j, cij in m[i]:
                                coeff[j] += v * cij
                coeff, r = _reduced(coeff, d * b - sum(map(mul, a, shift)) if shift else d * b)
                self.rows.append((coeff, rel, r))
        return self

    def full_rows(self) -> list[tuple[tuple[int, ...], str, int]]:
        """The rows in insertion order, those written before a later
        auxiliary block padded with zeros to the final width."""
        return [(a + (0,) * (self.n - len(a)), rel, b) for a, rel, b in self.rows]

    def lp_rows(self) -> tuple[Row, ...]:
        return tuple(Row(a, rel, b) for a, rel, b in self.full_rows())

    def polyhedron(self) -> Polyhedron:
        rows = self.full_rows()
        return Polyhedron(
            self.n,
            tuple((a, b) for a, rel, b in rows if rel == LE),
            tuple((a, b) for a, rel, b in rows if rel == EQ),
        )


def _solve_over(p: Polyhedron, obj: Vec, sense: str):
    """Optimize obj, over the kept coordinates or all columns, on p's rows."""
    obj = tuple(obj) + (0,) * (p.width - len(obj))
    rows = tuple(Row(a, LE, b) for a, b in p.ineqs) + tuple(Row(e, EQ, d) for e, d in p.eqs)
    return solve_lp(LinearProgram(p.width, obj, sense, rows))


def is_empty(p: Polyhedron) -> bool:
    out = _solve_over(p, (), "min")
    return not isinstance(out, (Optimal, Unbounded))


def extremum(p: Polyhedron, obj: Sequence, sense: str):
    """LP outcome of optimizing obj, a linear form on the kept coordinates, over p."""
    return _solve_over(p, vec(obj), sense)


@lru_cache(maxsize=LP_MEMO)
def _frt(p: Polyhedron) -> Optional[tuple[frozenset, Vec]]:
    """The implicit inequality rows of p and a point of ri p, or None if p is empty.

    One LP over (z, s, tau) (Freund, Roundy and Todd 1985): maximize sum(s)
    subject to a_i.z + s_i <= b_i tau, e.z = d tau, 0 <= s <= 1, tau >= 1.
    Averaging points that satisfy each non-implicit row strictly and
    scaling up gives a solution with s_i = 1 on every such row, while an
    implicit row forces s_i = 0, so every optimum marks exactly the
    implicit rows, and z / tau satisfies every other row strictly.  Each
    s_i is a signed column of the exact simplex: its bound s_i >= 0 is no
    tableau row, so besides the system's rows the tableau has only the
    rows s_i <= 1 and tau >= 1.
    """
    w, m, k = p.width, len(p.ineqs), len(p.eqs)
    b = BlockRows(("z", w), ("s", m), ("tau", 1))
    a_z = {"z": tuple(a for a, _ in p.ineqs), "s": 1, "tau": tuple((-r,) for _, r in p.ineqs)}
    b.pull(neg(orthant(m)), (m, a_z))
    b.pull(singleton((0,) * k), (k, {"z": tuple(e for e, _ in p.eqs), "tau": tuple((-d,) for _, d in p.eqs)}))
    bounds = ((None, None),) * w + ((0, 1),) * m + ((1, None),)
    out = solve_lp(LinearProgram(b.n, (0,) * w + (1,) * m + (0,), "max", b.lp_rows(), bounds))
    if not isinstance(out, Optimal):
        return None
    z, s, tau = out.point[:w], out.point[w : w + m], out.point[-1]
    return frozenset(i for i in range(m) if s[i] == 0), tuple(c / tau for c in z)


def implicit_rows(p: Polyhedron) -> tuple[int, ...]:
    """Indices of inequality rows satisfied with equality by every point
    of the lifted system (one LP, see ``_frt``); () when it is empty."""
    frt = _frt(p)
    return tuple(sorted(frt[0])) if frt is not None else ()


@dataclass(frozen=True)
class AffineSubspace:
    """Consistent system of equalities in reduced row-echelon form."""

    n: int
    eqs: tuple[tuple[Vec, Fraction], ...]

    def rank(self) -> int:
        return len(self.eqs)

    def is_whole(self) -> bool:
        return self.rank() == 0


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
        pv = Fraction(rows[r][col])  # so that an int row divides into Fractions
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


def _hull(p: Polyhedron, implicit) -> AffineSubspace:
    """The affine hull of the projection from the equalities and the implicit
    rows: reduce with the auxiliary columns first, so the rows whose leading
    entry is a kept column are free of auxiliaries and cut out pi(aff p)."""
    eqs = list(p.eqs) + [p.ineqs[i] for i in sorted(implicit)]
    moved = [(e[p.n :] + e[: p.n], d) for e, d in eqs]
    kept = [(e[p.aux :], d) for e, d in _echelon(moved, p.width) if not any(e[: p.aux])]
    return AffineSubspace(p.n, _echelon(kept, p.n))


def affine_hull(p: Polyhedron) -> AffineSubspace:
    """The affine hull of the projection: exact elimination after one LP."""
    frt = _frt(p)
    if frt is None:
        raise EmptyPolyhedronError("affine hull of an empty polyhedron")
    return _hull(p, frt[0])


def ri_point(p: Polyhedron, pulled: Optional[BlockRows] = None, free: Iterable[int] = ()) -> Optional[Vec]:
    """A point of ri p, or of ``pulled``'s columns mapped into ri p; or None.

    ``pulled`` is a builder that pulled p first, along the caller's map,
    then any further rows: p's coordinates are substituted, not pinned by
    rows.  ``free`` lists kept coordinates j whose unit direction must lie
    in the linear part of the affine hull of pi(p), else the answer is
    None; with every kept coordinate free, pi(z) lies in int pi(p).  One
    LP finds the implicit rows and a relative-interior point (``_frt``);
    with ``pulled``, one more LP maximizes the common slack t <= 1 of p's
    other rows, the implicit ones held as equalities.  Every point of
    pi(ri p) = ri pi(p) comes this way (Rockafellar, *Convex Analysis*,
    Thm 6.6).
    """
    frt = _frt(p)
    if frt is None:
        return None
    implicit, z = frt
    free = tuple(free)
    if free and any(e[j] for e, _ in _hull(p, implicit).eqs for j in free):
        return None
    if pulled is None:
        return z
    m = len(p.ineqs)
    rows = [Row(a + (int(i < m and i not in implicit),), EQ if i in implicit else rel, r) for i, (a, rel, r) in enumerate(pulled.full_rows())]
    t_up = (0,) * pulled.n + (1,)
    rows.append(Row(t_up, LE, 1))
    out = solve_lp(LinearProgram(pulled.n + 1, t_up, "max", tuple(rows)))
    return out.point[:-1] if isinstance(out, Optimal) and out.value > 0 else None


def recession_cone(p: Polyhedron) -> Polyhedron:
    """The lifted rows with zero right-hand sides: rec pi(p) = pi(rec p) when p is nonempty."""
    return poly(p.n, [(a, 0) for a, _ in p.ineqs], [(e, 0) for e, _ in p.eqs], p.aux)


def zero_in(notion: Notion, p: Polyhedron) -> bool:
    """Does the origin belong to notion(pi(p))?

    In finite dimension Int, Core and Qi coincide with the interior and
    Sqri, Icr, Qri with the relative interior, so exactly two tests exist.
    The relative-interior test is one strict LP, "some z in ri p with
    pi z = 0" (see ``ri_point``) over the auxiliaries alone, with x = 0
    substituted, and the interior test is the same LP
    behind the gate "aff pi(p) is everything", which the memoised implicit
    rows decide without another LP.  That LP does not depend on the
    notion, so its answer is kept on ``p`` itself, the way the hash is:
    the relative-interior and the interior question on one object solve
    it once.
    """
    if notion in (Notion.INT, Notion.CORE, Notion.QI) and ri_point(p, free=range(p.n)) is None:
        return False
    inside = p.__dict__.get("_zero_in_ri")
    if inside is None:
        inside = ri_point(p, BlockRows().pull(p, (p.n, {}))) is not None
        object.__setattr__(p, "_zero_in_ri", inside)
    return inside


# -- lifted set operations -------------------------------------------------


def project(p: Polyhedron, keep: Sequence[int]) -> Polyhedron:
    """Coordinate projection onto the (sorted) kept coordinates: the kept
    columns move to the front and every other column becomes auxiliary."""
    keep = sorted(set(keep))
    if any(k < 0 or k >= p.n for k in keep):
        raise DimensionMismatchError("projection index out of range")
    order = keep + [k for k in range(p.width) if k not in keep]

    def moved(rows):
        return tuple((tuple(map(a.__getitem__, order)), b) for a, b in rows)

    return Polyhedron(len(keep), moved(p.ineqs), moved(p.eqs), p.width - len(keep))


def trim(p: Polyhedron) -> Polyhedron:
    """p without its one-sided auxiliary columns, the one-sided step of
    Fourier-Motzkin elimination: an auxiliary that no equality uses and
    whose inequality entries share one sign (or all vanish) can always be
    sent far enough to meet every row that uses it, so it goes with those
    rows, repeated to a fixed point.  No rows are combined, so the system
    never grows, and pi(p) does not change."""
    ineqs, gone = p.ineqs, set()
    free = [j for j in range(p.n, p.width) if not any(e[j] for e, _ in p.eqs)]
    while dead := {j for j in free if j not in gone and len({a[j] > 0 for a, _ in ineqs if a[j]}) < 2}:
        gone |= dead
        ineqs = tuple(r for r in ineqs if not any(r[0][j] for j in dead))
    cols = [j for j in range(p.width) if j not in gone]

    def cut(rows):
        return tuple((tuple(map(a.__getitem__, cols)), b) for a, b in rows)

    return Polyhedron(p.n, cut(ineqs), cut(p.eqs), p.aux - len(gone)) if gone else p


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """{u + v : u in p, v in q}, lifted over (z, v): z - v in p and v in q."""
    if p.n != q.n:
        raise DimensionMismatchError("Minkowski sum needs equal dimensions")
    n = p.n
    b = BlockRows(("z", n), ("v", n))
    b.pull(p, (n, {"z": 1, "v": -1})).pull(q, (n, {"v": 1}))
    return project(b.polyhedron(), range(n))


def neg(p: Polyhedron) -> Polyhedron:
    n = p.n
    return poly(
        n,
        ineqs=[(tuple(-c for c in a[:n]) + a[n:], b) for a, b in p.ineqs],
        eqs=[(tuple(-c for c in e[:n]) + e[n:], d) for e, d in p.eqs],
        aux=p.aux,
    )


def translate(p: Polyhedron, t: Sequence) -> Polyhedron:
    t = vec(t)
    if len(t) != p.n:
        raise DimensionMismatchError(f"a shift of length {len(t)} cannot move a set of R^{p.n}")
    return poly(
        p.n,
        ineqs=[(a, b + dot(a, t)) for a, b in p.ineqs],
        eqs=[(e, d + dot(e, t)) for e, d in p.eqs],
        aux=p.aux,
    )


def scale(p: Polyhedron, lam) -> Polyhedron:
    """lam * pi(p): the auxiliaries scale with the kept coordinates."""
    lam = rat(lam)
    if lam <= 0:
        raise MalformedInputError("scale expects a positive factor")
    return poly(
        p.n,
        ineqs=[(a, lam * b) for a, b in p.ineqs],
        eqs=[(e, lam * d) for e, d in p.eqs],
        aux=p.aux,
    )


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.n != q.n:
        raise DimensionMismatchError("intersection needs equal dimensions")
    b = BlockRows(("x", p.n)).pull(p, (p.n, {"x": 1})).pull(q, (q.n, {"x": 1}))
    both = b.polyhedron()
    return poly(p.n, both.ineqs, both.eqs, p.aux + q.aux)


def product(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    b = BlockRows(("u", p.n), ("v", q.n))
    return project(b.pull(p, (p.n, {"u": 1})).pull(q, (q.n, {"v": 1})).polyhedron(), range(p.n + q.n))
