"""Exact linear programming over the rationals.

Two-phase simplex with Bland's pivot rule (smallest eligible index
enters, smallest-index basic variable leaves on ratio ties; Bland 1977),
which makes every solve deterministic and cycle-free.  The indices are
those of the textbook standard form: a variable whose lower bound is 0
is a signed column, one nonnegative column whose bound is no row (the
bounded-variable form of Dantzig 1955, for the bound 0 only), every
other variable is split into x+ and x-, one slack per inequality, rows
flipped so that the right-hand side is >= 0 (a >= row with right-hand
side 0 is flipped too).  The starting basis takes a row's slack where
its coefficient is +1 after the flip, and an artificial on every other
row: the equality rows and the rows whose slack has the wrong sign
(Chvatal, *Linear Programming*, 1983, ch. 8); phase one minimizes their
sum and stops once it is 0, and does not run when it starts at 0.  The
stored tableau is narrower than that form: one column per variable (the
x- column is the negated x+ column), artificial columns for the equality
rows only, and the entry of a basic artificial kept as one cell per row;
the multipliers of inequality rows are read off their slacks' reduced
costs, and the multiplier of a signed column's bound off that column's
reduced cost.
Row entries are ``int``s or ``fractions.Fraction``s; points, values and
multipliers come out as ``Fraction``s.  Inside the solver the tableau is
fraction-free: each row is a primitive integer vector, stored sparse (its
nonzero cells only, so a pivot works on the pivot row's support), and
the cost row is integer over one common denominator (fraction-free
elimination in the sense of Edmonds 1967 and Bareiss 1968).  An LP row
of ints, the form every ``polyhedra`` row takes, is a tableau row as it
stands: its slack or artificial cell is +-1, so it needs no common
denominator and no gcd; a ``Fraction`` row is first multiplied by the
least common multiple of its denominators.  Pivot choices depend only
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

An optimum is not always a single point.  A program may name linear
forms on its point (``lex``) and on its multipliers (``dual_lex``); the
reported optimum is then the one whose images under them are
lexicographically smallest over the optimal face, which no pivot path
can move.  The final tableau usually shows that its own vertex is that
optimum; otherwise a walk of small LPs over the face finds it.

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
from itertools import chain
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
    """The inner product, a Fraction; zero terms build none."""
    return sum((x * y for x, y in zip(a, b) if x and y), _ZERO)


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
    # linear forms on the point, then on the multipliers (one entry per
    # expanded row), whose images pick the reported optimum: the
    # lexicographically smallest over the optimal face
    lex: tuple[Vec, ...] = ()
    dual_lex: tuple[Vec, ...] = ()

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
        if any(len(f) != self.n for f in self.lex):
            raise DimensionMismatchError("lex form length != n")
        if self.dual_lex:
            m = len(self.rows) + sum(b is not None for pair in self.bounds or () for b in pair)
            if any(len(f) != m for f in self.dual_lex):
                raise DimensionMismatchError("dual lex form length != number of expanded rows")


def expanded_rows(p: LinearProgram) -> tuple[Row, ...]:
    """Stored rows followed by bound rows, in the order the dual multipliers use."""
    out = list(p.rows)
    if p.bounds is not None:
        for j, (lo, hi) in enumerate(p.bounds):
            e = tuple(int(k == j) for k in range(p.n))
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

    Standard form (the *wide* layout, which fixes the pivot rule): a
    variable with lower bound 0 is a signed column x = x+ >= 0, whose
    bound gets no row; every other variable is split x = x+ - x-.  The
    rows are the LP's rows, then one per other finite bound, in
    ``expanded_rows`` order; one slack per inequality row, rows
    sign-flipped so the right-hand side is >= 0 and a >= row with
    right-hand side 0 flipped so its slack is +1.  The starting basis is
    that slack on every row where it is +1, and an artificial on every
    other row (the equality rows and those whose slack is -1).  Columns
    are numbered x+ 0..n-1, x- 0..n-1, the slacks in row order, then one
    artificial per row (N + i for row i, used only where row i needs
    one); a signed column keeps its x- number, which never enters, so
    the numbering does not depend on which columns are signed.  Bland's
    rule enters the smallest such index with a negative reduced cost and
    breaks ratio ties by the smallest basic index.  Artificials never
    enter.  Phase one stops once the artificial sum (the last cost cell)
    is 0, and is skipped when every artificial starts at 0; the zero
    artificials left basic are then driven out if they can.

    The tableau stores less than that layout:

    * one column per variable: the x- column is the negation of the x+
      column, so it is never stored and enters (reduced cost -z_j < 0)
      with its signs flipped;
    * artificial columns for the equality rows only.  Any basic column is
      a unit column, so while row i's own artificial is basic the row
      keeps that artificial's positive entry as one more cell ``d[i]``
      (stored column K + 1, gone once the artificial has left, and never
      there on a row whose slack starts basic);
    * the multiplier of an inequality row is read off its slack's reduced
      cost (-z_slack on a ``<=`` row, +z_slack on a ``>=`` row), since the
      slack column is plus or minus the artificial's; an equality row's is
      sigma_i (c_art - z_art) on its stored artificial; and the multiplier
      of a signed column's bound x_j >= 0 is +z_j, as for a ``>=`` row
      whose slack is x_j itself.  ``rels``, ``sigma`` and ``own`` say how
      to read each multiplier, in ``expanded_rows`` order.

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
    phase_one = False  # set while phase one runs: _iterate stops at a zero artificial sum

    def __init__(self, p: LinearProgram):
        self.lp = p
        n = self.n = p.n
        self.max_pivots = _max_pivots()
        self.pivots = 0
        # the tableau rows as (nonzero (column, coefficient) pairs, rel, rhs),
        # and per multiplier its tableau row, or ~j for the bound of a signed
        # column j
        rows = [([(j, a) for j, a in enumerate(r.coeffs) if a], r.rel, r.rhs) for r in p.rows]
        at = list(range(len(rows)))
        self.signed = [False] * n
        if p.bounds is not None:
            for j, (lo, hi) in enumerate(p.bounds):
                if lo == 0:
                    self.signed[j] = True
                    at.append(~j)
                elif lo is not None:
                    at.append(len(rows))
                    rows.append(([(j, 1)], GE, lo))
                if hi is not None:
                    at.append(len(rows))
                    rows.append(([(j, 1)], LE, hi))
        self.minus = [j for j in range(n) if not self.signed[j]]  # the x- columns that can enter
        self.m = len(rows)
        self.nslack = sum(1 for _, rel, _ in rows if rel != EQ)
        self.N = 2 * n + self.nslack  # wide structural columns
        self.K = K = n + len(rows)  # stored columns; the rhs cell is K, d[i] is K + 1
        sigma: list[int] = []
        own: list[int] = []  # the stored column that carries row i's multiplier
        self.R: list[dict[int, int]] = []
        self.basis: list[int] = []
        slack, art = n, n + self.nslack
        for i, (a, rel, b) in enumerate(rows):
            # a row with a Fraction is multiplied by the lcm d of its
            # denominators, and so are its slack and artificial cells
            d = 1
            if type(b) is not int or not all(type(c) is int for _, c in a):
                d = lcm(b.denominator, *(c.denominator for _, c in a))
                a, b = [(j, c.numerator * (d // c.denominator)) for j, c in a], b.numerator * (d // b.denominator)
            # flip so the right-hand side is >= 0, and a >= row with b = 0 so
            # that its slack is +1
            s = -1 if b < 0 or (b == 0 and rel == GE) else 1
            row = dict(a) if s == 1 else {j: -c for j, c in a}
            if rel == EQ:
                row[art] = d
                own.append(art)
                art += 1
            else:
                row[slack] = s * d if rel == LE else -s * d
                own.append(slack)
                slack += 1
            if b:
                row[K] = s * b
            if rel != EQ and row[slack - 1] > 0:
                self.basis.append(slack - 1 + n)  # the slack starts basic
            else:
                row[K + 1] = d  # the artificial, basic
                self.basis.append(self.N + i)
            # with d = 1 the slack or artificial cell is +-1, so the gcd is 1
            g = gcd(*row.values()) if d != 1 else 1
            sigma.append(s)
            self.R.append(row if g == 1 else {k: v // g for k, v in row.items()})
        # per multiplier, in expanded_rows order: the relation, flip sign and
        # stored column it is read by; a signed column's bound reads as a >= row
        self.rels = [GE if i < 0 else rows[i][1] for i in at]
        self.sigma = [1 if i < 0 else sigma[i] for i in at]
        self.own = [~i if i < 0 else own[i] for i in at]

    def _column(self, w: int) -> tuple[int, int]:
        """The stored column and sign of the non-artificial wide column w."""
        n = self.n
        if w < n:
            return w, 1
        if w < 2 * n:
            return w - n, -1
        return w - n, 1

    # -- tableau mechanics ------------------------------------------------

    def _pivot(self, r: int, w: int, rows: Optional[list[int]] = None):
        """Pivot wide column w into row r's basis; ``rows``, when given,
        are the rows with a nonzero entry in w's stored column."""
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
        if rows is None:
            rows = [i for i, row in enumerate(R) if col in row]
        for i in rows:
            if i != r:
                row = R[i]
                f = row[col]
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
                # the signs of a split column's cost and entry cancel
                col, _ = self._column(b)
                cb, entry = cost[col], self.R[i][col]
            if cb:
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
        (of an unsigned column only) has -z_j, and the slacks follow."""
        Z, n = self.Z, self.n
        for j in range(n):
            if Z[j] < 0:
                return j
        for j in self.minus:
            if Z[j] > 0:
                return n + j
        for k in range(n, n + self.nslack):
            if Z[k] < 0:
                return n + k
        return None

    def _iterate(self) -> Optional[int]:
        """Run simplex to optimality, phase one only to a zero artificial sum;
        return the entering column on unboundedness."""
        R, basis, K = self.R, self.basis, self.K
        while True:
            enter = None if self.phase_one and not self.Z[K] else self._entering()
            if enter is None:
                return None
            col, sg = self._column(enter)
            leave, hits = None, []
            for i, row in enumerate(R):
                t = row.get(col)
                if t is None:
                    continue
                hits.append(i)
                t *= sg
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
            self._pivot(leave, enter, hits)

    # -- certificate extraction -------------------------------------------

    def _duals(self, art: int) -> Vec:
        # flipped system: y_i = sigma_i (c_art_i - z_art_i), which an
        # inequality row's slack, +-sigma_i times its artificial, gives as -+z_slack
        Z, D, out = self.Z, self.D, []
        for i, rel in enumerate(self.rels):
            z = Z[self.own[i]]
            out.append(Fraction(-z if rel == LE else z if rel == GE else self.sigma[i] * (art * D - z), D))
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

    # -- alternative optima -------------------------------------------------

    def point_is_lex_min(self, forms: Sequence[Vec]) -> bool:
        """After an optimum: are this point's images under ``forms`` the
        lexicographically smallest over the optimal face?  Every direction
        into the face is a nonnegative combination of the edges along the
        nonbasic columns with a zero reduced cost, so it suffices that no
        such edge has a lexicographically negative image.  The twin of a
        basic split column is skipped, since its edge is 0, and so is the
        x- column of a signed one, which has no edge."""
        n, basic = self.n, set(self.basis)
        for w in chain(range(n), (n + j for j in self.minus), range(2 * n, self.N)):
            col, _ = self._column(w)
            if self.Z[col] != 0 or w in basic or (w < 2 * n and (w + n) % (2 * n) in basic):
                continue
            edge = self._ray(w)
            if _lex_negative(dot(f, edge) for f in forms):
                return False
        return True

    def duals_are_lex_min(self, forms: Sequence[Vec]) -> bool:
        """After an optimum: are these multipliers' images under ``forms``
        the lexicographically smallest over the optimal multipliers?  Other
        optimal multipliers shift the reduced costs by a combination of
        tableau rows with weights w, and only rows whose basic variable is a
        slack, a signed column or an artificial at value 0 take part: a
        basic split column pins its row's weight to 0 through its twin, and
        a positive right-hand side through the value.  The reduced cost
        -w_r of a basic slack or signed column must stay >= 0, so w_r <= 0;
        an artificial's weight is free.  Row r moves multiplier i by w_r
        times its entry in column ``own[i]``, signed as ``_duals`` reads it
        (so the bound of a basic signed column moves with its row), and it
        suffices that no row of the first kind moves an image
        lexicographically down and no artificial row moves one at all."""
        K, n = self.K, self.n
        down = 1 if self.lp.sense == MAX else -1  # the image of w_r = -1
        for r, b in enumerate(self.basis):
            row = self.R[r]
            if K in row or (b < 2 * n and (b >= n or not self.signed[b])):
                continue
            move = []
            for i, rel in enumerate(self.rels):
                a = down * row.get(self.own[i], 0)
                move.append(a if rel == LE else -a if rel == GE else self.sigma[i] * a)
            image = [dot(f, move) for f in forms]
            if _lex_negative(image) or (b >= self.N and any(image)):
                return False
        return True

    # -- driver -------------------------------------------------------------

    def solve(self) -> LpOutcome:
        m, n, K = self.m, self.n, self.K
        # phase one runs only when an artificial starts positive, on a row
        # with a right-hand side; at a zero artificial sum it would stop
        # before its first pivot, so the drive-outs then carry a zero cost row
        self.Z = [0] * (K + 1)
        if any(b >= self.N and K in self.R[i] for i, b in enumerate(self.basis)):
            self.phase_one = True
            self._set_costs([0] * (n + self.nslack) + [1] * (m - self.nslack), 1)
            unb = self._iterate()
            self.phase_one = False
            assert unb is None, "phase one is bounded below by zero"
            if self.Z[K] < 0:  # objective = -last cell of cost row
                return Infeasible(tuple(-y for y in self._duals(1)))
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
        self._set_costs(list(c) + [0] * (K - n), 0)
        enter = self._iterate()
        if enter is not None:
            return Unbounded(self._point(), self._ray(enter))
        # the last cost cell is minus the value of the min problem; a max
        # problem negates that value and the multipliers
        y = self._duals(0)
        if self.lp.sense == MAX:
            return Optimal(self._point(), Fraction(self.Z[K], self.D), tuple(-v for v in y))
        return Optimal(self._point(), Fraction(-self.Z[K], self.D), y)


def solve_lp(p: LinearProgram) -> LpOutcome:
    """Solve exactly; deterministic for identical inputs.

    An optimum is reported at a canonical point: the images of its point
    under ``p.lex`` and of its multipliers under ``p.dual_lex`` are the
    lexicographically smallest over the optimal face (see ``_lex_min``), so
    no pivot path can move them.  The walk is skipped where the final
    tableau shows that no optimum has smaller images.
    """
    if not isinstance(p, LinearProgram):
        raise MalformedInputError("solve_lp expects a LinearProgram")
    s = _Simplex(p)
    out = s.solve()
    if isinstance(out, Optimal):
        if p.lex and not s.point_is_lex_min(p.lex):
            face = p.rows + (Row(p.objective, EQ, out.value),)
            out = Optimal(_lex_min(p.n, face, p.bounds, p.lex), out.value, out.dual)
        if p.dual_lex and not s.duals_are_lex_min(p.dual_lex):
            out = Optimal(out.point, out.value, _lex_min(*_dual_face(p, out.value), p.dual_lex))
    return out


def _lex_negative(image) -> bool:
    """Is the first nonzero entry negative?"""
    return next((v < 0 for v in image if v), False)


def _dual_face(p: LinearProgram, value: Rat):
    """The optimal multipliers of p, as (n, rows, bounds) over one variable
    per expanded row: sum_i y_i a_i = c and y.b = value, with the signs of
    the module's convention as bounds."""
    exp = expanded_rows(p)
    rows = tuple(Row(tuple(r.coeffs[j] for r in exp), EQ, c) for j, c in enumerate(p.objective))
    rows += (Row(tuple(r.rhs for r in exp), EQ, value),)
    on_le, on_ge = (None, 0), (0, None)
    if p.sense == MAX:
        on_le, on_ge = on_ge, on_le
    bounds = tuple(on_le if r.rel == LE else on_ge if r.rel == GE else (None, None) for r in exp)
    return len(exp), rows, bounds


def _lex_min(n: int, rows: tuple[Row, ...], bounds, forms: Sequence[Vec]) -> Vec:
    """The point of the nonempty set {rows, bounds} whose images under
    ``forms`` are lexicographically smallest.  Each form in turn is
    minimized, or maximized where it is unbounded below, or set to 0 where
    it is unbounded both ways (it then takes every value), and held at
    that value from then on."""
    point = None
    for f in forms:
        out = solve_lp(LinearProgram(n, f, MIN, rows, bounds))
        if isinstance(out, Unbounded):
            up = solve_lp(LinearProgram(n, f, MAX, rows, bounds))
            if isinstance(up, Unbounded):
                # walk from the point along a ray that moves f towards 0
                x = out.point
                ray = out.ray if dot(f, x) > 0 else up.ray
                t = dot(f, x) / dot(f, ray)
                point = tuple(a - t * b for a, b in zip(x, ray))
                rows += (Row(f, EQ, 0),)
                continue
            out = up
        assert isinstance(out, Optimal), "the set is nonempty"
        point = out.point
        rows += (Row(f, EQ, out.value),)
    return point


def _row_holds(r: Row, x: Sequence, scale: Rat = 1) -> bool:
    """a.x against scale * b in r's relation: x over the denominator scale, or a direction for 0."""
    lhs, rhs = sum(c * v for c, v in zip(r.coeffs, x) if c), r.rhs * scale
    return lhs <= rhs if r.rel == LE else lhs >= rhs if r.rel == GE else lhs == rhs


def _scaled(xs: Sequence[Rat]) -> tuple[list[int], int]:
    """The entries of xs as integers over their least common denominator d, and d."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _combination(exp: Sequence[Row], n: int, ys: Vec, flip: int) -> Optional[tuple[list, Rat, int]]:
    """d * sum_i y_i a_i, d * sum_i y_i b_i and d, d the denominator of the y_i, over the
    nonzero y_i; None if a sign is wrong: flip * y_i <= 0 on <= rows, >= 0 on >= rows."""
    ys, d = _scaled(ys)
    combo, rhs = [0] * n, 0
    for r, y in zip(exp, ys):
        if not y:
            continue
        if r.rel == LE and flip * y > 0 or r.rel == GE and flip * y < 0:
            return None
        for j, c in enumerate(r.coeffs):
            if c:
                combo[j] += y * c
        rhs += y * r.rhs
    return combo, rhs, d


def verify_certificate(p: LinearProgram, out: LpOutcome) -> bool:
    """Replay the certificate in ``out`` with independent exact arithmetic, on integers
    over one denominator.  Signs and combinations take one pass over the nonzero
    multipliers (min: y <= 0 on <= rows, y >= 0 on >= rows; max and Farkas: flipped)."""
    exp = expanded_rows(p)
    n = p.n
    if isinstance(out, Optimal):
        if len(out.point) != n or len(out.dual) != len(exp):
            return False
        x, d = _scaled(out.point)
        if not all(_row_holds(r, x, d) for r in exp) or sum(c * v for c, v in zip(p.objective, x)) != out.value * d:
            return False
        got = _combination(exp, n, out.dual, -1 if p.sense == MAX else 1)
        return got is not None and got[:2] == ([c * got[2] for c in p.objective], out.value * got[2])

    if isinstance(out, Infeasible):
        got = _combination(exp, n, out.farkas, -1) if len(out.farkas) == len(exp) else None
        return got is not None and not any(got[0]) and got[1] < 0

    if isinstance(out, Unbounded):
        if len(out.point) != n or len(out.ray) != n:
            return False
        if not all(_row_holds(r, out.point) for r in exp):
            return False
        # a nonzero ray of the recession cone: the rows with right-hand side 0 hold
        if not any(out.ray) or not all(_row_holds(r, out.ray, 0) for r in exp):
            return False
        drift = dot(p.objective, out.ray)
        return drift < 0 if p.sense == MIN else drift > 0

    return False
