"""Exact linear programming over the rationals.

Two-phase simplex with Bland's pivot rule (smallest eligible index
enters, smallest-index basic variable leaves on ratio ties; Bland 1977),
which makes every solve deterministic and cycle-free.  The indices are
those of the textbook standard form: split free variables x+ and x-,
one slack per inequality, one artificial per row.  The stored tableau is
narrower than that form: one column per variable (the x- column is the
negated x+ column), artificial columns for the equality rows only, and
the entry of a basic artificial kept as one cell per row; the
multipliers of inequality rows are read off their slacks' reduced costs.
Inputs and outputs are ``fractions.Fraction``; inside the solver the
tableau is fraction-free: each row is a primitive integer vector, built
directly from the LP's rows and bounds and stored sparse (its nonzero
cells only, so a pivot works on the pivot row's support), and the cost
row is integer over one common denominator (fraction-free elimination in
the sense of Edmonds 1967 and Bareiss 1968).  Pivot choices depend only
on signs and on ratio comparisons, which cross-multiplication decides
exactly, so the pivot sequence is the one a rational tableau in the
textbook form would take (``tests/oracles.rational_bland_simplex`` is
that tableau).  There is no tolerance anywhere.

Every outcome carries a certificate that :func:`verify_certificate` can
replay independently of the solver:

* ``Optimal`` — a feasible point plus dual multipliers that reproduce the
  optimal value exactly (LP strong duality),
* ``Infeasible`` — a Farkas combination of the rows yielding 0 <= negative,
* ``Unbounded`` — a feasible point plus an improving recession ray.

Dual-multiplier sign convention, for ``min`` problems: y_i <= 0 on <=-rows,
y_i >= 0 on >=-rows, free on =-rows, sum_i y_i a_i = c and y.b = value.
For ``max`` problems all signs flip (so y_i >= 0 on <=-rows) and
y.b = value still holds.  Multipliers are indexed by ``expanded_rows``,
i.e. the stored rows followed by one row per finite variable bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import DimensionMismatchError, MalformedInputError, SolverLimitError

Rat = Fraction
Vec = tuple[Rat, ...]

LE = "<="
EQ = "="
GE = ">="
_RELS = (LE, EQ, GE)

MIN = "min"
MAX = "max"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Rat:
    """Coerce ints, strings like ``3/2``, and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise MalformedInputError("bool is not a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise MalformedInputError(f"floats are not exact: {x!r}")
    raise MalformedInputError(f"cannot interpret {x!r} as a rational")


def rat_str(q: Rat) -> str:
    """Canonical ``p/q`` rendering (plain integer when the denominator is 1)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(xs: Sequence) -> Vec:
    return tuple(rat(x) for x in xs)


def dot(a: Sequence[Rat], b: Sequence[Rat]) -> Rat:
    return sum((x * y for x, y in zip(a, b)), _ZERO)


@dataclass(frozen=True)
class Row:
    coeffs: Vec
    rel: str
    rhs: Rat

    def __post_init__(self):
        if self.rel not in _RELS:
            raise MalformedInputError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class LinearProgram:
    n: int
    objective: Vec
    sense: str
    rows: tuple[Row, ...]
    # per-variable (lower, upper); None entries mean free in that direction
    bounds: Optional[tuple[tuple[Optional[Rat], Optional[Rat]], ...]] = None

    def __post_init__(self):
        if self.sense not in (MIN, MAX):
            raise MalformedInputError(f"sense must be min or max, got {self.sense!r}")
        if len(self.objective) != self.n:
            raise DimensionMismatchError("objective length != n")
        for r in self.rows:
            if len(r.coeffs) != self.n:
                raise DimensionMismatchError("row length != n")
        if self.bounds is not None and len(self.bounds) != self.n:
            raise DimensionMismatchError("bounds length != n")


def lp(
    sense: str,
    objective: Sequence,
    rows: Sequence[tuple[Sequence, str, object]],
    bounds: Optional[Sequence[tuple[Optional[object], Optional[object]]]] = None,
) -> LinearProgram:
    """Convenience constructor coercing entries to rationals."""
    n = len(objective)
    rws = tuple(Row(vec(a), rel, rat(b)) for a, rel, b in rows)
    bds = None
    if bounds is not None:
        bds = tuple(
            (None if lo is None else rat(lo), None if hi is None else rat(hi))
            for lo, hi in bounds
        )
    return LinearProgram(n, vec(objective), sense, rws, bds)


def expanded_rows(p: LinearProgram) -> tuple[Row, ...]:
    """Stored rows followed by bound rows, in the order the dual multipliers use."""
    out = list(p.rows)
    if p.bounds is not None:
        for j, (lo, hi) in enumerate(p.bounds):
            e = tuple(_ONE if k == j else _ZERO for k in range(p.n))
            if lo is not None:
                out.append(Row(e, GE, lo))
            if hi is not None:
                out.append(Row(e, LE, hi))
    return tuple(out)


@dataclass(frozen=True)
class Optimal:
    point: Vec
    value: Rat
    dual: Vec  # one multiplier per expanded row


@dataclass(frozen=True)
class Infeasible:
    farkas: Vec  # one coefficient per expanded row


@dataclass(frozen=True)
class Unbounded:
    point: Vec
    ray: Vec


LpOutcome = Union[Optimal, Infeasible, Unbounded]


def _max_pivots() -> int:
    raw = os.environ.get("DUALCHECK_MAX_PIVOTS", "")
    if not raw:
        return 200_000
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise MalformedInputError(f"DUALCHECK_MAX_PIVOTS must be a positive integer, got {raw!r}")
    return budget


class _Simplex:
    """Two-phase tableau simplex on the standard form derived from an LP.

    Standard form (the *wide* layout, which fixes the pivot rule): free
    variables split x = x+ - x-, one slack per inequality row, rows
    sign-flipped so the right-hand side is >= 0, one artificial per row as
    the starting basis.  Columns are numbered x+ 0..n-1, x- 0..n-1, the
    slacks in row order, then the artificials; Bland's rule enters the
    smallest such index with a negative reduced cost and breaks ratio ties
    by the smallest basic index.  Artificials never enter.

    The tableau stores less than that layout:

    * one column per variable: the x- column is the negation of the x+
      column, so it is never stored and enters (reduced cost -z_j < 0)
      with its signs flipped;
    * artificial columns for the equality rows only.  Any basic column is
      a unit column, so while row i's own artificial is basic the row
      keeps that artificial's positive entry as one more cell ``d[i]``
      (stored column K + 1, gone once the artificial has left);
    * the multiplier of an inequality row is read off its slack's reduced
      cost (-z_slack on a ``<=`` row, +z_slack on a ``>=`` row), since the
      slack column is plus or minus the artificial's; an equality row's is
      sigma_i (c_art - z_art) on its stored artificial.

    Row i is the sparse ``R[i] = {column: nonzero entry}`` over the x
    columns, slacks, equality artificials, the rhs K and ``d[i]`` K + 1, a
    primitive integer vector whose entry in its basic column is positive;
    the rational tableau row is ``R[i]`` over that entry.  The reduced-cost
    row is the dense integer list ``Z`` (columns 0..K) over one positive
    common denominator ``D``.  Signs are read straight off the integers and
    ratio tests compare by cross-multiplication, so the pivots are the
    ones a rational tableau in the wide layout would take; rationals are
    rebuilt only when a point, ray, dual vector or value is read out, and
    they are exact.  ``basis`` holds wide indices.
    """

    def __init__(self, p: LinearProgram):
        self.lp = p
        n = self.n = p.n
        self.max_pivots = _max_pivots()
        self.pivots = 0
        # the expanded rows as (nonzero (column, coefficient) pairs, rel, rhs)
        rows = [([(j, a) for j, a in enumerate(r.coeffs) if a], r.rel, r.rhs) for r in p.rows]
        if p.bounds is not None:
            for j, (lo, hi) in enumerate(p.bounds):
                if lo is not None:
                    rows.append(([(j, _ONE)], GE, lo))
                if hi is not None:
                    rows.append(([(j, _ONE)], LE, hi))
        self.m = len(rows)
        self.nslack = sum(1 for _, rel, _ in rows if rel != EQ)
        self.N = 2 * n + self.nslack  # wide structural columns
        self.K = K = n + len(rows)  # stored columns; the rhs cell is K, d[i] is K + 1
        self.rels = [rel for _, rel, _ in rows]
        self.sigma: list[int] = []
        self.own: list[int] = []  # the stored column that carries row i's multiplier
        self.R: list[dict[int, int]] = []
        slack, art = n, n + self.nslack
        for a, rel, b in rows:
            # clear denominators; flip so the right-hand side is >= 0
            s = 1 if b >= 0 else -1
            scale = lcm(b.denominator, *(c.denominator for _, c in a))
            flip = s * scale
            row = {j: c.numerator * flip // c.denominator for j, c in a}
            if rel == EQ:
                row[art] = scale
                self.own.append(art)
                art += 1
            else:
                row[slack] = flip if rel == LE else -flip
                self.own.append(slack)
                slack += 1
            if b:
                row[K] = b.numerator * flip // b.denominator
            row[K + 1] = scale  # the artificial, basic
            g = gcd(*row.values())
            self.sigma.append(s)
            self.R.append(row if g == 1 else {k: v // g for k, v in row.items()})
        self.basis = [self.N + i for i in range(self.m)]

    def _column(self, w: int) -> tuple[int, int]:
        """The stored column and sign of the non-artificial wide column w."""
        n = self.n
        if w < n:
            return w, 1
        if w < 2 * n:
            return w - n, -1
        return w - n, 1

    # -- tableau mechanics ------------------------------------------------

    def _pivot(self, r: int, w: int):
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise SolverLimitError(
                f"pivot budget exceeded ({self.max_pivots}); "
                "raise DUALCHECK_MAX_PIVOTS"
            )
        col, sg = self._column(w)
        R = self.R
        pr = R[r]
        pr.pop(self.K + 1, None)  # the leaving artificial, if any, is not read again
        if sg * pr[col] < 0:
            pr = R[r] = {k: -b for k, b in pr.items()}
        piv = sg * pr[col]
        # row_i - (t_ij / t_rj) row_r, scaled by piv times row i's basic entry
        for i, row in enumerate(R):
            f = row.get(col)
            if f is not None and i != r:
                # dividing piv and f by their gcd changes the row only by a
                # positive factor, which the division by the row's gcd removes
                g = gcd(piv, f)
                p, f = piv // g, sg * f // g
                if p != 1:
                    row = {k: p * a for k, a in row.items()}
                for k, b in pr.items():
                    a = row.get(k, 0) - f * b
                    if a:
                        row[k] = a
                    else:
                        del row[k]
                g = gcd(*row.values())
                R[i] = row if g == 1 else {k: a // g for k, a in row.items()}
        if self.Z[col] != 0:
            self._sub_cost(piv, sg * self.Z[col], pr)
        self.basis[r] = w

    def _sub_cost(self, scale: int, f: int, row: dict[int, int]):
        """z <- z - f / (scale * D) * row, keeping Z / D in lowest terms;
        ``row`` has no ``d`` cell."""
        g = gcd(scale, f)
        scale, f = scale // g, f // g
        Z = self.Z if scale == 1 else [scale * a for a in self.Z]
        for k, b in row.items():
            Z[k] -= f * b
        D = self.D * scale
        g = gcd(D, *Z) if D != 1 else 1
        self.Z = Z if g == 1 else [a // g for a in Z]
        self.D = D // g

    def _set_costs(self, cost: list[Rat], art: Rat):
        """Reduced costs z_j = c_j - c_B . T[:,j] for the stored costs ``cost``
        and cost ``art`` on every artificial; the last cell is -objective.
        The sum over the basic rows runs over one common denominator and is
        reduced once."""
        terms = []
        for i, b in enumerate(self.basis):
            if b >= self.N:
                cb, entry = art, self.R[i][self.K + 1]
            else:
                col, sg = self._column(b)
                cb, entry = sg * cost[col], sg * self.R[i][col]
            if cb != 0:
                terms.append((cb.numerator, cb.denominator * entry, self.R[i]))
        D = lcm(*(c.denominator for c in cost), *(q for _, q, _ in terms))
        Z = [c.numerator * (D // c.denominator) for c in cost] + [0, 0]
        for p, q, row in terms:
            f = p * (D // q)
            for k, a in row.items():
                Z[k] -= f * a
        Z.pop()  # the cell that took the rows' d entries
        g = gcd(D, *Z)
        self.Z = Z if g == 1 else [a // g for a in Z]
        self.D = D // g

    def _entering(self) -> Optional[int]:
        """Bland's rule over the wide columns: x+ j has reduced cost z_j, x- j
        has -z_j, and the slacks follow."""
        Z, n = self.Z, self.n
        for j in range(n):
            if Z[j] < 0:
                return j
        for j in range(n):
            if Z[j] > 0:
                return n + j
        for k in range(n, n + self.nslack):
            if Z[k] < 0:
                return n + k
        return None

    def _iterate(self) -> Optional[int]:
        """Run simplex to optimality; return entering column on unboundedness."""
        R, basis, K = self.R, self.basis, self.K
        while True:
            enter = self._entering()
            if enter is None:
                return None
            col, sg = self._column(enter)
            leave = None
            for i, row in enumerate(R):
                t = sg * row.get(col, 0)
                if t > 0:
                    rhs = row.get(K, 0)
                    if leave is None:
                        leave, best_rhs, best_t = i, rhs, t
                        continue
                    # rhs / t against best_rhs / best_t, both denominators > 0
                    lhs, cur = rhs * best_t, best_rhs * t
                    if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                        leave, best_rhs, best_t = i, rhs, t
            if leave is None:
                return enter
            self._pivot(leave, enter)

    # -- certificate extraction -------------------------------------------

    def _z(self, col: int) -> Rat:
        return Fraction(self.Z[col], self.D)

    def _duals(self, art: Rat) -> Vec:
        # flipped system: y_i = sigma_i (c_art_i - z_art_i), which an
        # inequality row's slack, +-sigma_i times its artificial, gives as -+z_slack
        out = []
        for i, rel in enumerate(self.rels):
            z = self._z(self.own[i])
            out.append(-z if rel == LE else z if rel == GE else self.sigma[i] * (art - z))
        return tuple(out)

    def _point(self) -> Vec:
        # x_j = x+_j - x-_j; the basic one of the two is rhs / R[i][j] either way
        x = [_ZERO] * self.n
        for i, b in enumerate(self.basis):
            if b < 2 * self.n:
                j = b % self.n
                x[j] = Fraction(self.R[i].get(self.K, 0), self.R[i][j])
        return tuple(x)

    def _ray(self, enter: int) -> Vec:
        n = self.n
        x = [_ZERO] * n
        if enter < 2 * n:
            x[enter % n] = _ONE if enter < n else -_ONE
        col, sg = self._column(enter)
        for i, b in enumerate(self.basis):
            if b < 2 * n:
                j = b % n
                x[j] += Fraction(-sg * self.R[i].get(col, 0), self.R[i][j])
        return tuple(x)

    # -- driver -------------------------------------------------------------

    def solve(self) -> LpOutcome:
        m, n, K = self.m, self.n, self.K
        if m > 0:
            self._set_costs([_ZERO] * (n + self.nslack) + [_ONE] * (m - self.nslack), _ONE)
            unb = self._iterate()
            assert unb is None, "phase one is bounded below by zero"
            if self.Z[K] < 0:  # objective = -last cell of cost row
                return Infeasible(tuple(-y for y in self._duals(_ONE)))
            # drive surviving artificials out of the basis where possible;
            # x+ j comes before x- j, so the first nonzero stored column decides
            for i in range(m):
                if self.basis[i] >= self.N and K not in self.R[i]:
                    for col in range(n + self.nslack):
                        if col in self.R[i]:
                            self._pivot(i, col if col < n else col + n)
                            break
        c = self.lp.objective
        if self.lp.sense == MAX:
            c = tuple(-x for x in c)
        self._set_costs(list(c) + [_ZERO] * (K - n), _ZERO)
        enter = self._iterate()
        if enter is not None:
            return Unbounded(self._point(), self._ray(enter))
        point = self._point()
        value_min = -self._z(K)
        y = self._duals(_ZERO)
        if self.lp.sense == MAX:
            return Optimal(point, -value_min, tuple(-v for v in y))
        return Optimal(point, value_min, y)


def solve_lp(p: LinearProgram) -> LpOutcome:
    """Solve exactly; deterministic for identical inputs."""
    if not isinstance(p, LinearProgram):
        raise MalformedInputError("solve_lp expects a LinearProgram")
    return _Simplex(p).solve()


def _row_holds(r: Row, x: Vec) -> bool:
    lhs = dot(r.coeffs, x)
    if r.rel == LE:
        return lhs <= r.rhs
    if r.rel == GE:
        return lhs >= r.rhs
    return lhs == r.rhs


def verify_certificate(p: LinearProgram, out: LpOutcome) -> bool:
    """Replay the certificate in ``out`` with independent exact arithmetic."""
    exp = expanded_rows(p)
    n = p.n

    if isinstance(out, Optimal):
        if len(out.point) != n or len(out.dual) != len(exp):
            return False
        if not all(_row_holds(r, out.point) for r in exp):
            return False
        if dot(p.objective, out.point) != out.value:
            return False
        # sign conditions (min: y<=0 on <=, y>=0 on >=; max: flipped)
        flip = -1 if p.sense == MAX else 1
        for r, y in zip(exp, out.dual):
            s = flip * y
            if r.rel == LE and s > 0:
                return False
            if r.rel == GE and s < 0:
                return False
        combo = [_ZERO] * n
        ybr = _ZERO
        for r, y in zip(exp, out.dual):
            for j, a in enumerate(r.coeffs):
                combo[j] += y * a
            ybr += y * r.rhs
        if tuple(combo) != tuple(p.objective):
            return False
        return ybr == out.value

    if isinstance(out, Infeasible):
        if len(out.farkas) != len(exp):
            return False
        for r, lam in zip(exp, out.farkas):
            if r.rel == LE and lam < 0:
                return False
            if r.rel == GE and lam > 0:
                return False
        combo = [_ZERO] * n
        lb = _ZERO
        for r, lam in zip(exp, out.farkas):
            for j, a in enumerate(r.coeffs):
                combo[j] += lam * a
            lb += lam * r.rhs
        return all(c == 0 for c in combo) and lb < 0

    if isinstance(out, Unbounded):
        if len(out.point) != n or len(out.ray) != n:
            return False
        if not all(_row_holds(r, out.point) for r in exp):
            return False
        if all(x == 0 for x in out.ray):
            return False
        for r in exp:
            d = dot(r.coeffs, out.ray)
            if r.rel == LE and d > 0:
                return False
            if r.rel == GE and d < 0:
                return False
            if r.rel == EQ and d != 0:
                return False
        drift = dot(p.objective, out.ray)
        return drift < 0 if p.sense == MIN else drift > 0

    return False
