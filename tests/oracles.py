"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the solver machinery under test: vertex enumeration
goes through plain Gaussian elimination, membership checks are direct
arithmetic, and the reference simplex runs on a textbook ``Fraction``
tableau.  The exceptions are ``prune_lp_reference``, which asks the
package's exact LP one question per row,
``slice_interior_point_reference``, which asks it one question over all
sign vectors, ``meets_ri_reference``, which asks it one strict question
after ``fm_flatten``, ``recover_dual_reference``, which projects with
``fm_project``, ``dual_reference``, which solves the conjugate-based dual
LP, and the Fourier-Motzkin projection ``fm_project`` with the queries
built on it, which eliminates with ``eliminate`` below.  They check the
logic around the LP, not the LP: the lifted queries, which eliminate
nothing, and the dual point read off the primal LP.  So do the normal
cone route of ``normal_cone``, whose ``cone_member`` asks the LP for a
conic combination, and ``biconjugate_check``, which lowers and conjugates
through the package and reads each value off one LP (``pf_value``).
"""

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Optional, Sequence

from dualcheck.errors import MalformedInputError, MembershipError
from dualcheck.exactlp import EQ, GE, LE, LinearProgram, Optimal, Row, Unbounded, dot, expanded_rows, solve_lp, vec
from dualcheck.funcexpr import MINF, PINF, conjugate_polyfunc, er, er_add, er_le, lower
from dualcheck.polyhedra import Notion, Polyhedron, _solve_over, contains, extremum, fiber, poly, project
from dualcheck.setexpr import FAILS, HOLDS, UNKNOWN, normalize

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_square(rows, rhs):
    """Solve a square rational system; None if singular."""
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = Fraction(a[col][col])  # int rows divide into Fractions
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def enumerate_vertices(ineqs, eqs, n):
    """All basic feasible points of {a.x <= b} ∩ {e.x = d} by brute force."""
    rows = [(tuple(a), Fraction(b), "<=") for a, b in ineqs]
    rows += [(tuple(e), Fraction(d), "=") for e, d in eqs]
    verts = set()
    idx = range(len(rows))
    for chosen in combinations(idx, n):
        mat = [rows[i][0] for i in chosen]
        rhs = [rows[i][1] for i in chosen]
        x = solve_square(mat, rhs)
        if x is None:
            continue
        ok = True
        for a, b, rel in rows:
            lhs = sum(c * v for c, v in zip(a, x))
            if rel == "<=" and lhs > b:
                ok = False
                break
            if rel == "=" and lhs != b:
                ok = False
                break
        if ok:
            verts.add(x)
    return sorted(verts)


def brute_min_over_vertices(obj, ineqs, eqs, n):
    verts = enumerate_vertices(ineqs, eqs, n)
    assert verts, "oracle expects a nonempty, pointed feasible set"
    return min(sum(c * v for c, v in zip(obj, x)) for x in verts)


def grid(lo, hi, step, dim):
    """Exact rational grid over [lo, hi]^dim with the given step."""
    pts = []
    k = int((Fraction(hi) - Fraction(lo)) / Fraction(step))
    axis = [Fraction(lo) + i * Fraction(step) for i in range(k + 1)]
    for tup in product(axis, repeat=dim):
        pts.append(tuple(tup))
    return pts


def rational_bland_simplex(sense, objective, rows, bounds=None):
    """Reference two-phase simplex on a plain ``Fraction`` tableau.

    ``rows`` are ``(coeffs, rel, rhs)`` and ``bounds`` the per-variable
    ``(lower, upper)`` pairs, as ``dualcheck.exactlp.lp`` takes them.  The
    standard form and the pivot rules are the ones ``dualcheck.exactlp``
    documents: a variable with lower bound 0 is a signed column, one
    nonnegative column whose bound is no row, and every other variable is
    split; each other bound is a row after the stored rows; one slack per
    inequality, right-hand sides made >= 0 and >= rows with right-hand
    side 0 flipped, a starting basis of the slacks that are +1 and
    artificials on the other rows, Bland's rule with ties to the smallest
    basic index, and a phase one that ends as soon as the artificial sum
    is 0, then drives each zero artificial out on its row's first nonzero
    column where the row has one.  So the solver's pivot path must
    return the very same point, ray, value and multipliers.  This tableau
    stores that wide layout whole: both halves of every split variable and
    one artificial column per row; the x- column of a signed variable is
    all zeros with cost 0, so it never enters, and the artificial of a row
    whose slack starts basic is a column like any nonbasic one, which
    never enters.  A signed variable's bound multiplier is its x+ column's
    reduced cost.  Multipliers and Farkas coefficients follow
    ``expanded_rows``: the stored rows, then each variable's lower and
    upper bound.  Returns ``("optimal", point, value, duals)``,
    ``("infeasible", farkas)`` or ``("unbounded", point, ray)``.
    """
    n = len(objective)
    rows = list(rows)
    at = list(range(len(rows)))  # per multiplier: its row, or ~j for a signed variable j
    signed = set()
    for j, (lo, hi) in enumerate(bounds or ()):
        e = [ZERO] * n
        e[j] = Fraction(1)
        if lo == 0:
            signed.add(j)
            at.append(~j)
        elif lo is not None:
            at.append(len(rows))
            rows.append((e, ">=", lo))
        if hi is not None:
            at.append(len(rows))
            rows.append((e, "<=", hi))
    m = len(rows)
    nslack = sum(1 for _, rel, _ in rows if rel != "=")
    N = 2 * n + nslack
    T, sigma, basis, slack = [], [], [], 2 * n
    for i, (a, rel, b) in enumerate(rows):
        row = [ZERO] * (N + m + 1)
        for j, c in enumerate(a):
            row[j] = Fraction(c)
            if j not in signed:
                row[n + j] = -Fraction(c)
        if rel != "=":
            row[slack] = Fraction(1 if rel == "<=" else -1)
            slack += 1
        row[-1] = Fraction(b)
        s = -1 if row[-1] < 0 or (row[-1] == 0 and rel == ">=") else 1
        row = [s * x for x in row]
        row[N + i] = Fraction(1)
        T.append(row)
        sigma.append(s)
        basis.append(slack - 1 if rel != "=" and row[slack - 1] > 0 else N + i)

    def pivot(r, j):
        T[r] = [x / T[r][j] for x in T[r]]
        for i in range(m):
            f = T[i][j]
            if i != r and f != 0:
                T[i] = [x - f * y if y else x for x, y in zip(T[i], T[r])]
        basis[r] = j

    def reduced(cost):
        z = list(cost) + [ZERO]
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                z = [x - cb * y if y else x for x, y in zip(z, T[i])]
        return z

    def run(cost, phase_one=False):
        while True:
            z = reduced(cost)
            enter = next((j for j in range(N) if z[j] < 0), None)
            if enter is None or phase_one and z[-1] == 0:
                return z, None
            rows_in = [i for i in range(m) if T[i][enter] > 0]
            if not rows_in:
                return z, enter
            leave = min(rows_in, key=lambda i: (T[i][-1] / T[i][enter], basis[i]))
            pivot(leave, enter)

    def point(extra=None):
        v = [ZERO] * (N + m)
        for i, b in enumerate(basis):
            v[b] = T[i][-1] if extra is None else -T[i][extra]
        if extra is not None:
            v[extra] = Fraction(1)
        return tuple(v[j] - v[n + j] for j in range(n))

    def duals(cost, z):
        return tuple(z[~i] if i < 0 else sigma[i] * (cost[N + i] - z[N + i]) for i in at)

    if m:
        cost1 = [ZERO] * N + [Fraction(1)] * m
        z, _ = run(cost1, phase_one=True)
        if z[-1] < 0:
            return ("infeasible", tuple(-y for y in duals(cost1, z)))
        for i in range(m):
            if basis[i] >= N and T[i][-1] == 0:
                j = next((j for j in range(N) if T[i][j] != 0), None)
                if j is not None:
                    pivot(i, j)
    flip = -1 if sense == "max" else 1
    c = [flip * Fraction(x) for x in objective]
    cost2 = c + [ZERO if j in signed else -x for j, x in enumerate(c)] + [ZERO] * (nslack + m)
    z, enter = run(cost2)
    if enter is not None:
        return ("unbounded", point(), point(enter))
    y = duals(cost2, z)
    return ("optimal", point(), -flip * z[-1], tuple(flip * v for v in y))


def optimal_certificate_reference(p: LinearProgram, out: Optimal) -> bool:
    """The dense replay of an optimum: a point that keeps every expanded row
    and has the stated value, multipliers of the right signs (min: y <= 0
    on <= rows and y >= 0 on >= rows; max: flipped), and sum_i y_i a_i = c
    and sum_i y_i b_i = value, each column summed over every row."""
    exp = expanded_rows(p)
    if len(out.point) != p.n or len(out.dual) != len(exp):
        return False
    for r in exp:
        lhs = dot(r.coeffs, out.point)
        if not (lhs <= r.rhs if r.rel == LE else lhs >= r.rhs if r.rel == GE else lhs == r.rhs):
            return False
    if dot(p.objective, out.point) != out.value:
        return False
    flip = -1 if p.sense == "max" else 1
    if any(r.rel == LE and flip * y > 0 or r.rel == GE and flip * y < 0 for r, y in zip(exp, out.dual)):
        return False
    combo = tuple(dot(out.dual, [r.coeffs[j] for r in exp]) for j in range(p.n))
    return combo == tuple(p.objective) and dot(out.dual, [r.rhs for r in exp]) == out.value


def prune_lp_reference(ineqs, eqs, n):
    """Redundancy pruning with one max-LP per candidate row, in order.

    The loop ``polyhedra._prune_lp`` ran before it carried irredundancy
    witnesses; with witnesses it must keep the same rows in the same
    order.  ``ineqs`` are ``(a, b)`` pairs.
    """

    kept = list(ineqs)
    i = 0
    while i < len(kept):
        a, b = kept[i]
        others = kept[:i] + kept[i + 1 :]
        q = Polyhedron(n, tuple(others), tuple(eqs))
        res = _solve_over(q, a, "max")
        if isinstance(res, Optimal) and res.value <= b:
            kept.pop(i)
        elif isinstance(res, Optimal):
            i += 1
        elif isinstance(res, Unbounded):
            i += 1
        else:  # remaining system already infeasible; the row adds nothing
            kept.pop(i)
    return kept


def slice_interior_point_reference(dom, nx, ny):
    """Is there x' with (x', y) in dom for all y in a small box around 0?

    The enumeration ``dualcheck.conditions._slice_interior_point`` ran
    before it wrote one row per domain row: each domain row is written out
    at every sign vector of the box corner, 2^ny copies, and one max-LP asks
    for a positive box half-width.
    """
    from itertools import product as iproduct

    from dualcheck.exactlp import LE, LinearProgram, Optimal, Row, solve_lp

    rows = []
    for signs in iproduct((Fraction(1), Fraction(-1)), repeat=ny):
        for a, b in dom.ineqs:
            drift = sum(a[nx + j] * signs[j] for j in range(ny))
            rows.append(Row(a[:nx] + (drift,), LE, b))
    for e, d in dom.eqs:
        if any(e[nx + j] != 0 for j in range(ny)):
            return False  # an equality in y kills the slice interior
        rows.append(Row(e[:nx] + (Fraction(0),), "=", d))
    t_up = tuple(Fraction(0) for _ in range(nx)) + (Fraction(1),)
    rows.append(Row(t_up, LE, Fraction(1)))
    out = solve_lp(LinearProgram(nx + 1, t_up, "max", tuple(rows)))
    return isinstance(out, Optimal) and out.value > 0


def recover_dual_reference(instance, vp):
    """Separation recovery through two projections.

    The route ``dualcheck.engine.recover_dual_via_separation`` took before
    it solved its LP over the lifted polar: project the shifted epigraph,
    project the polar of that projection, and optimize over the boxed
    polar.  Both routes find a separator of the same value, so they agree
    on the outcome class and on max(1, ||y||_inf) of the recovered point.
    """
    from dualcheck import polyhedra as pg
    from dualcheck.engine import NumericModel, is_numeric
    from dualcheck.errors import (
        DegenerateSeparationError,
        InconsistencyError,
        QriMembershipError,
        RegimeError,
    )
    from dualcheck.exactlp import Optimal
    from dualcheck.funcexpr import er

    ONE = Fraction(1)

    def _polar_of_hull(e_poly):
        """{u : <u, p> <= 0 for every p in E}, via LP-dual multipliers."""
        d, G, E = e_poly.n, e_poly.ineqs, e_poly.eqs
        b = pg.BlockRows(("u", d), ("lam", len(G)), ("mu", len(E)))
        b.pull(pg.singleton((ZERO,) * d), (d, {"u": -ONE, "lam": pg.columns(G, d), "mu": pg.columns(E, d)}))
        b.pull(pg.at_most(0), (1, {"lam": (tuple(h for _, h in G),), "mu": (tuple(h for _, h in E),)}))
        b.pull(pg.orthant(len(G)), (len(G), {"lam": ONE}))
        return fm_project(b.polyhedron(), range(d))

    vp = Fraction(vp)
    if not is_numeric(instance):
        raise RegimeError("separation recovery runs in the numeric regime")
    model = NumericModel(instance)
    e_poly = fm_flatten(model.shifted_epi(vp))
    d = e_poly.n
    polar = _polar_of_hull(e_poly)
    eye = [tuple(ONE if j == i else ZERO for j in range(d)) for i in range(d)]
    box = [(e, ONE) for e in eye] + [(tuple(-c for c in e), ONE) for e in eye]
    boxed = pg.poly(d, tuple(polar.ineqs) + tuple(box), polar.eqs)
    out = pg.extremum(boxed, tuple(-c for c in eye[-1]), "max")
    assert isinstance(out, Optimal)
    if out.value > 0:
        sep = out.point
        r_star = sep[d - 1]
        # the perturbation dual optimizer is -y*/r*; the family's dual point
        # is that times -pairing
        dual = tuple(model.pairing * c / r_star for c in sep[: d - 1])
        val = model.dual_value(dual)
        if val != er(vp):
            raise InconsistencyError(f"recovered dual point misses the primal value: {val} != {vp}")
        return dual
    # no separator with negative last component; classify the failure
    flat = pg.poly(d, boxed.ineqs, boxed.eqs + ((eye[-1], ZERO),))
    for i in range(d - 1):
        for sense in ("max", "min"):
            probe = pg.extremum(flat, eye[i], sense)
            if isinstance(probe, Optimal) and probe.value != 0:
                raise DegenerateSeparationError("only separators with vanishing value component exist")
    raise QriMembershipError("the origin admits no nonzero separator")

# -- Fourier-Motzkin projection ---------------------------------------------
#
# ``fm_project`` is the elimination ``dualcheck.polyhedra.project`` ran
# before polyhedra were kept lifted: it reads a lifted input with every
# column, reorders as ``project`` does and eliminates the dropped columns
# with ``eliminate``, the same steps and pruning.  With the per-row
# ``implicit_rows`` and the ``zero_in`` built on it, it is the reference
# for the queries on lifted rows.


def eliminate(p: Polyhedron) -> Polyhedron:
    """pi(p) written without auxiliaries, by Fourier-Motzkin elimination.

    The elimination ``dualcheck.polyhedra.eliminate`` ran for the
    conjugate-based dual LP (``dual_reference``) before the dual point was
    read off the primal LP.  Each step removes the auxiliary ``_next_var``
    picks; rows are kept primitive and deduplicated, and a row that the
    others imply is dropped (``_prune_lp``, which carries irredundancy
    witnesses so that most kept rows need no LP).
    """
    if not p.aux:
        return p
    rows, eqs = _dedupe([(a, b, None) for a, b in p.ineqs]), list(p.eqs)
    drop = list(range(p.n, p.width))
    while drop:
        k = _next_var(rows, eqs, drop)
        drop.remove(k)
        rows, eqs = _eliminate(rows, eqs, k)
        rows = _dedupe(rows)
        if len(rows) > 1:
            rows = _prune_lp(rows, eqs, p.width)
    return poly(p.n, [(a[: p.n], b) for a, b, _ in rows], [(e[: p.n], d) for e, d in eqs])


def _primitive(row: Sequence) -> tuple[int, ...]:
    """Scale rational entries by a positive factor to coprime integers."""
    mul = 1
    for c in row:
        mul = mul * c.denominator // gcd(mul, c.denominator)
    ints = [c.numerator * (mul // c.denominator) for c in row]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


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
    """The auxiliary to eliminate next.

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
    which such a witness satisfies.  The new rows get witnesses from
    ``_heirs`` where one passes on, else none.
    """
    for idx, (e, d) in enumerate(eqs):
        if e[k] != 0:
            piv, pd = e, d
            rest = eqs[:idx] + eqs[idx + 1 :]
            new_eqs = []
            for e2, d2 in rest:
                if e2[k] != 0:
                    f = Fraction(e2[k], piv[k])
                    e2 = tuple(x - f * y for x, y in zip(e2, piv))
                    d2 = d2 - f * pd
                new_eqs.append((e2, d2))
            new_rows = []
            for a, b, w in rows:
                if a[k] != 0:
                    f = Fraction(a[k], piv[k])
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


def fm_project(p: Polyhedron, keep: Sequence[int]) -> Polyhedron:
    """Coordinate projection onto the (sorted) kept coordinates, written
    without auxiliaries."""
    return eliminate(project(Polyhedron(p.width, p.ineqs, p.eqs), keep))


def implicit_rows_reference(p: Polyhedron) -> tuple[int, ...]:
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



def zero_in_reference(notion: Notion, p: Polyhedron) -> bool:
    """Does the origin belong to notion(p)?

    In finite dimension Int, Core and Qi coincide with the interior and
    Sqri, Icr, Qri with the relative interior, so exactly two tests exist.
    The origin is in the relative interior when every inequality row that
    is not implicit is strict there.  It is in the interior when, besides,
    the affine hull is the whole space: every equation and implicit row has
    a zero normal.
    """
    zero = tuple(ZERO for _ in range(p.n))
    if not contains(p, zero):
        return False
    imp = set(implicit_rows_reference(p))
    if not all(b > 0 for idx, (_, b) in enumerate(p.ineqs) if idx not in imp):
        return False
    if notion in (Notion.INT, Notion.CORE, Notion.QI):
        return not any(any(a) for a, _ in list(p.eqs) + [p.ineqs[i] for i in imp])
    return True


def fm_flatten(p: Polyhedron) -> Polyhedron:
    """The set a lifted system denotes, written without auxiliaries."""
    return fm_project(p, range(p.n))


def meets_ri_reference(dom_f: Polyhedron, dom_g: Polyhedron, amap=None, interior: bool = False) -> bool:
    """Is there x in dom f with Ax in ri(dom g), or in int(dom g) when
    ``interior``?  (A is the identity when None.)

    Both domains are written without auxiliaries by ``fm_flatten``.  The
    implicit rows of dom g (``implicit_rows_reference``) are held as
    equalities at Ax, and one LP over (x, t) maximizes the common slack
    t <= 1 of its other rows there, with x in dom f: ri(dom g) is dom g
    with every other row strict.  int(dom g) is ri(dom g) when no implicit
    row or equality of dom g has a nonzero normal, and empty otherwise.
    """
    from dualcheck.exactlp import EQ, LE, LinearProgram, Row, solve_lp

    f, g = fm_flatten(dom_f), fm_flatten(dom_g)
    n = f.n
    a = amap or tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))

    def pulled(c):  # c.(Ax) as a row over x
        return tuple(sum((c[i] * a[i][j] for i in range(g.n)), ZERO) for j in range(n))

    implicit = set(implicit_rows_reference(g))
    if interior and any(any(c) for c, _ in list(g.eqs) + [g.ineqs[i] for i in implicit]):
        return False
    rows = [Row(c + (ZERO,), LE, b) for c, b in f.ineqs] + [Row(e + (ZERO,), EQ, d) for e, d in f.eqs]
    for idx, (c, b) in enumerate(g.ineqs):
        rows.append(Row(pulled(c) + (ZERO,), EQ, b) if idx in implicit else Row(pulled(c) + (ONE,), LE, b))
    rows += [Row(pulled(e) + (ZERO,), EQ, d) for e, d in g.eqs]
    t_up = (ZERO,) * n + (ONE,)
    rows.append(Row(t_up, LE, ONE))
    out = solve_lp(LinearProgram(n + 1, t_up, "max", tuple(rows)))
    return isinstance(out, Optimal) and out.value > 0


# -- conjugate-based dual LP -------------------------------------------------
#
# ``dual_reference`` is the dual LP ``dualcheck.engine.NumericModel.dual``
# solved before the dual point was read off the primal LP's multipliers:
# the sum and perturbation families maximize -sum(s) over the eliminated
# epigraphs of the conjugates, the cone family folds sup over z in C* of
# the inner problem's LP dual into one LP.  Both give the value
# sup -Phi*(0, .) that the read-out must reproduce, including +-inf.


def dual_reference(instance):
    """The dual value and an optimal dual point, from the conjugates."""
    from dualcheck import engine as eng
    from dualcheck import polyhedra as pg
    from dualcheck.exactlp import LinearProgram, solve_lp
    from dualcheck.funcexpr import conjugate_polyfunc

    model = eng.NumericModel(instance)
    if model.cone is not None:
        return _cone_dual_reference(model)
    if isinstance(instance, eng.FenchelInstance):
        n, m = model.nx, model.ny
        amap = ONE if instance.amap is None else tuple(tuple(map(Fraction, r)) for r in instance.amap)
        adjoint = -ONE if amap is ONE else tuple(tuple(-r[j] for r in amap) for j in range(n))
        epi_f, epi_g = model.lowered
        conjugated = ((epi_f, ((n, {"y": adjoint}),)), (epi_g, ((m, {"y": ONE}),)))
    else:
        conjugated = ((model.lowered[0], ((model.nx, {"x": ONE}), (model.ny, {"y": ONE}))),)
    names = tuple(f"s{i}" for i in range(len(conjugated)))
    b = pg.BlockRows(("y", model.ny), *((s, 1) for s in names))
    for (epi, slices), s in zip(conjugated, names):
        star = conjugate_polyfunc(eliminate(epi))
        b.pull(eliminate(star), *slices, (1, {s: ONE}))
    obj = eng._padded((ZERO,) * model.ny + (-ONE,) * len(names), b)
    return _sup(solve_lp(LinearProgram(b.n, obj, "max", b.lp_rows())), model.ny)


def _cone_dual_reference(model):
    """sup over z* in C* of the inner LP value, folded into one LP via the
    inner problem's dual: multipliers y of the rows of epi f and S."""
    from dualcheck import polyhedra as pg
    from dualcheck.exactlp import LE, LinearProgram, solve_lp

    nx, m, c = model.nx, model.ny, model.cone
    ib = model.system(("x", nx), ("t", 1), pieces=(0, 1))
    inner = ib.full_rows()
    g_t = tuple(tuple(-row[j] for row in model.gmap.rows) for j in range(nx))
    cols = pg.columns(inner, ib.n)
    w = ib.n - nx - 1  # the auxiliaries of epi f and S
    b = pg.BlockRows(("z", m), ("y", len(inner)), ("lam", len(c.ineqs)), ("mu", len(c.eqs)))
    # the inner multipliers: y <= 0 on <=-rows (min sense), lam >= 0
    sign = tuple((tuple(ONE if k == i else ZERO for k in range(len(inner))), ZERO)
                 for i, (_, rel, _) in enumerate(inner) if rel == LE)
    b.pull(poly(len(inner), sign), (len(inner), {"y": ONE}))
    b.pull(pg.orthant(len(c.ineqs)), (len(c.ineqs), {"lam": ONE}))
    # sum_i y_i row_i = (G^T z, 1, 0)
    b.pull(pg.singleton((ZERO,) * nx + (ONE,) + (ZERO,) * w),
           (nx, {"y": cols[:nx], "z": g_t}), (1, {"y": cols[nx : nx + 1]}), (w, {"y": cols[nx + 1 :]}))
    # z in C*: z + A_u^T lam + E_u^T mu = 0 and A_w^T lam + E_w^T mu = 0
    # for the lifted H-form C = pi {(u, w) : A(u, w) <= 0, E(u, w) = 0}
    ca, ce = pg.columns(c.ineqs, c.width), pg.columns(c.eqs, c.width)
    b.pull(pg.singleton((ZERO,) * c.width), (m, {"z": ONE, "lam": ca[:m], "mu": ce[:m]}), (c.aux, {"lam": ca[m:], "mu": ce[m:]}))
    obj = tuple(model.gmap.shift) + tuple(r for _, _, r in inner) + (ZERO,) * (len(c.ineqs) + len(c.eqs))
    return _sup(solve_lp(LinearProgram(b.n, obj, "max", b.lp_rows())), m)


def _sup(out, k: int):
    if isinstance(out, Optimal):
        return er(out.value), out.point[:k]
    return (PINF if isinstance(out, Unbounded) else MINF), None


def pull_reference(blocks, pulls):
    """The rows ``polyhedra.BlockRows(*blocks)`` holds after each
    ``pull(p, *slices, shift=shift)`` of ``pulls``, padded to the final width.

    Each pull writes the rows of p at z = M s + shift, where the dense
    matrix M has one row per kept coordinate of p and one column per
    declared variable: a scalar term is that multiple of the identity, a
    matrix term is copied, and a term on an undeclared block is dropped.
    p's auxiliaries get new columns after every earlier column.
    """
    sizes, at, width = dict(blocks), {}, 0
    for name, size in blocks:
        at[name], width = width, width + size
    out = []
    for p, slices, shift in pulls:
        m = [[ZERO] * width for _ in range(p.n)]
        first = 0
        for size, terms in slices:
            for name, c in terms.items():
                if name not in at:
                    continue
                for i in range(size):
                    for j in range(sizes[name]):
                        m[first + i][at[name] + j] += c[i][j] if isinstance(c, tuple) else (c if i == j else 0)
            first += size
        kept = width
        width += p.aux
        for rows, rel in ((p.ineqs, "<="), (p.eqs, "=")):
            for a, b in rows:
                coeff = [sum((a[i] * m[i][j] for i in range(p.n)), ZERO) for j in range(kept)]
                rhs = b if shift is None else b - sum((a[i] * shift[i] for i in range(p.n)), ZERO)
                out.append((coeff + list(a[p.n :]), rel, rhs))
    return [(tuple(a + [ZERO] * (width - len(a))), rel, b) for a, rel, b in out]


@dataclass(frozen=True)
class FinitelyGeneratedCone:
    """cone = {sum lambda_i g_i + sum mu_j l_j : lambda >= 0, mu free}."""

    n: int
    generators: tuple
    lineality: tuple


def normal_cone(p: Polyhedron, x: Sequence) -> FinitelyGeneratedCone:
    """The normal cone of p at x, generated by the active rows of a
    system without auxiliaries."""
    if p.aux:
        raise MalformedInputError("normal cones are read off systems without auxiliaries")
    x = vec(x)
    if not contains(p, x):
        raise MembershipError("normal cone requested at a point outside the set")
    gens = tuple(a for a, b in p.ineqs if dot(a, x) == b)
    return FinitelyGeneratedCone(p.n, gens, tuple(e for e, _ in p.eqs))


def cone_member(k: FinitelyGeneratedCone, v: Sequence) -> bool:
    """Exact membership: does v = sum lambda g + sum mu l have a solution?"""
    v = vec(v)
    gens, lin = k.generators, k.lineality
    m = len(gens) + len(lin)
    if m == 0:
        return all(c == 0 for c in v)
    rows = tuple(Row(tuple(g[c] for g in gens) + tuple(l[c] for l in lin), EQ, v[c]) for c in range(k.n))
    bounds = ((0, None),) * len(gens) + ((None, None),) * len(lin)
    return isinstance(solve_lp(LinearProgram(m, (0,) * m, "min", rows, bounds)), (Optimal, Unbounded))


def is_linear_subspace(k: FinitelyGeneratedCone) -> bool:
    """True iff -g lies back in the cone for every generator."""
    return all(cone_member(k, tuple(-c for c in g)) for g in k.generators)


def is_trivial_cone(k: FinitelyGeneratedCone) -> bool:
    """True iff the cone is exactly {0}."""
    return not any(any(g) for g in k.generators + k.lineality)


def dual_cone(k: FinitelyGeneratedCone) -> Polyhedron:
    """{y : <y,g> >= 0 for generators, <y,l> = 0 for lineality}."""
    return poly(k.n, [(tuple(-c for c in g), 0) for g in k.generators], [(l, 0) for l in k.lineality])


def hull_dim(h) -> int:
    """The dimension of an ``AffineSubspace``."""
    return h.n - h.rank()


def hull_contains(h, x: Sequence) -> bool:
    return all(dot(e, vec(x)) == d for e, d in h.eqs)


def hull_basis(h) -> tuple:
    """Spanning directions of an ``AffineSubspace`` (the null space of its
    reduced row-echelon rows)."""
    leads = [next(j for j, c in enumerate(e) if c != 0) for e, _ in h.eqs]
    out = []
    for j in range(h.n):
        if j in leads:
            continue
        v = [ZERO] * h.n
        v[j] = ONE
        for (e, _), lead in zip(h.eqs, leads):
            v[lead] = -e[j]
        out.append(tuple(v))
    return tuple(out)


def pf_value(epi: Polyhedron, x: Sequence):
    """f(x), the bottom of the epigraph's fiber over x: one LP."""
    out = extremum(fiber(epi, vec(x)), (1,), "min")
    if isinstance(out, Optimal):
        return er(out.value)
    return MINF if isinstance(out, Unbounded) else PINF


def biconjugate_check(f, samples: Sequence[Sequence]) -> bool:
    """f** = f at every sample and Young-Fenchel on all sample pairs."""
    if not samples:
        return True
    epi = lower(f, len(samples[0]))
    star = conjugate_polyfunc(epi)
    star2 = conjugate_polyfunc(star)
    values = [pf_value(epi, x) for x in samples]
    if any(pf_value(star2, x) != fx for x, fx in zip(samples, values)):
        return False
    star_values = [pf_value(star, y) for y in samples]
    return all(
        er_le(er(dot(vec(x), vec(y))), er_add(fx, fy))
        for x, fx in zip(samples, values)
        for y, fy in zip(samples, star_values)
    )


def cone_test_all_rules(engine, kind: str, point, s) -> list:
    """Every rule of ``inference._RULES`` that decides ``kind`` at (point, s),
    in the engine's rule order, and last the inclusion scheme's verdicts
    from the other kinds (for the never-both and confluence checks)."""
    s = normalize(s)
    outs = [(name, rule(engine, kind, point, s)) for name, rule in engine._rules]
    outs += [("inclusion-scheme", engine._implied(kind, point, s, st)) for st in (HOLDS, FAILS)]
    return [(name, got) for name, got in outs if got is not None and got.status is not UNKNOWN]


# -- closures of set terms of R^n --------------------------------------------
#
# A set term is ``(name, n, *args)``: a constructor of
# ``dualcheck.probfile._SETS``, the dimension of the set it denotes, and the
# constructor's arguments (subterms, rationals, dimensions, and points as
# coordinate tuples).  ``set_closure`` writes the lifted rows of the closure
# of the term's set straight from each constructor's definition, without
# ``dualcheck.setexpr``.  In R^n a convex set and its closure have the same
# interior and relative interior (Rockafellar 1970, Thm 6.3), and int = core
# = qi, sqri = icr = qri = ri there, so ``set_notions`` reads the six notions
# at the origin off the closure: ``fm_flatten``, then the implicit rows of
# ``zero_in_reference``.


@dataclass(frozen=True)
class SetClosure:
    rows: Polyhedron  # lifted rows whose projection is the closure
    exact: bool  # the set is the projection itself, not only its closure


def _placed(p: Polyhedron, width: int, cols, shift=()) -> tuple[list, list]:
    """p's rows over ``width`` columns, column j of p being the combination
    ``cols[j]`` ({column: coefficient}) plus ``shift[j]``."""

    def put(rows):
        out = []
        for a, b in rows:
            row = [ZERO] * width
            for j, c in enumerate(a):
                for k, m in cols[j].items():
                    row[k] += c * m
            out.append((tuple(row), b - sum((c * s for c, s in zip(a, shift)), ZERO)))
        return out

    return put(p.ineqs), put(p.eqs)


def _stacked(n: int, width: int, *placed) -> Polyhedron:
    return poly(n, [r for i, _ in placed for r in i], [r for _, e in placed for r in e], width - n)


def _own(p: Polyhedron, at: int) -> list:
    """p's auxiliary columns, moved to the columns from ``at`` on."""
    return [{at + k: 1} for k in range(p.aux)]


def _unit_rows(n: int, c) -> list:
    return [(tuple(c if j == k else 0 for j in range(n)), 0) for k in range(n)]


def _is_empty_reference(p: Polyhedron) -> bool:
    rows = [(a, "<=", b) for a, b in p.ineqs] + [(e, "=", d) for e, d in p.eqs]
    return rational_bland_simplex("min", [ZERO] * p.width, rows)[0] == "infeasible"


def _homogenized(p: Polyhedron, top) -> Polyhedron:
    """{(x, w, tau) : (x, w) in tau p, 0 <= tau (<= top)}: its projection is
    cl cone p (``top`` None) or cl co(p u {0}) (``top`` 1), for p nonempty."""
    w = p.width + 1
    ineqs = [(a + (-b,), 0) for a, b in p.ineqs] + [((0,) * p.width + (-1,), 0)]
    if top is not None:
        ineqs.append(((0,) * p.width + (1,), top))
    return poly(p.n, ineqs, [(e + (-d,), 0) for e, d in p.eqs], w - p.n)


@lru_cache(maxsize=4096)
def set_closure(term) -> Optional[SetClosure]:
    """The closure of the set of a term, or None when the closures of the
    operands do not tell it: an intersection of operands that are not
    closed, whose relative interiors do not meet (Rockafellar 1970, Thm 6.5)."""
    name, n, *args = term
    if name in ("whole", "rn"):
        return SetClosure(poly(n), True)
    if name == "origin_set":
        return SetClosure(poly(n, eqs=_unit_rows(n, 1)), True)
    if name == "interval":
        return SetClosure(poly(1, [((1,), args[1]), ((-1,), -args[0])]), True)
    if name == "orthant":
        return SetClosure(poly(n, _unit_rows(n, -1)), True)
    subs = [set_closure(a) for a in args if isinstance(a, tuple) and isinstance(a[0], str)]
    if any(s is None for s in subs):
        return None
    p = subs[0].rows
    exact = all(s.exact for s in subs)
    if name == "neg":
        return SetClosure(_stacked(n, p.width, _placed(p, p.width, [{j: -1 if j < n else 1} for j in range(p.width)])), exact)
    if name == "scale":
        q = args[0]
        return SetClosure(_stacked(n, p.width, _placed(p, p.width, [{j: 1 / q if j < n else 1} for j in range(p.width)])), exact)
    if name == "translate":
        return SetClosure(_stacked(n, p.width, _placed(p, p.width, [{j: 1} for j in range(p.width)], tuple(-c for c in args[1]))), exact)
    if name in ("minksum", "diff"):
        # x = z + v: z in the first set, v in the second (or -v, for diff)
        q, sign = subs[1].rows, (1 if name == "minksum" else -1)
        v = n + p.aux
        w = v + n + q.aux
        first = [{j: 1, v + j: -sign} for j in range(n)] + _own(p, n)
        second = [{v + j: 1} for j in range(n)] + _own(q, v + n)
        return SetClosure(_stacked(n, w, _placed(p, w, first), _placed(q, w, second)), exact)
    if name in ("product", "intersect"):
        q = subs[1].rows
        w = n + p.aux + q.aux
        right = [{(p.n if name == "product" else 0) + j: 1} for j in range(q.n)]
        out = _stacked(n, w, _placed(p, w, [{j: 1} for j in range(p.n)] + _own(p, n)), _placed(q, w, right + _own(q, n + p.aux)))
        if name == "intersect" and not exact:
            # cl(A n B) = cl A n cl B when ri A meets ri B, that is when 0 is
            # in ri(cl A - cl B) (Rockafellar 1970, Cor. 6.6.2)
            gap = set_closure(("diff", n, *args))
            if not zero_in_reference(Notion.QRI, fm_flatten(gap.rows)):
                return None
        return SetClosure(out, exact)
    if name == "closure":
        return SetClosure(p, True)
    # cone_hull and co0: cone(empty) is empty, co(empty u {0}) = {0}
    if _is_empty_reference(p):
        return SetClosure(p if name == "cone_hull" else poly(n, eqs=_unit_rows(n, 1)), exact)
    # over a closed set that holds 0, or any closed set of R^1, cone and co0 stay closed
    exact = exact and (n == 1 or contains(fm_flatten(p), (ZERO,) * n))
    return SetClosure(_homogenized(p, None if name == "cone_hull" else 1), exact)


def set_has_origin(term) -> Optional[bool]:
    """Does the set of a term hold the origin?  None when its closure does
    not tell: the origin on the boundary of a set that may not be closed."""
    name, n, *args = term
    if name == "co0":
        return True
    if name == "cone_hull":
        return not _is_empty_reference(set_closure(args[0]).rows)
    if name in ("neg", "scale"):
        return set_has_origin(args[-1])
    c = set_closure(term)
    flat = fm_flatten(c.rows)
    inside = contains(flat, (ZERO,) * n)
    if c.exact or not inside:
        return inside
    return True if zero_in_reference(Notion.QRI, flat) else None


def set_notions(term) -> Optional[dict]:
    """Notion -> does the origin lie in notion(S), for the set S of a term;
    None when ``set_closure`` cannot tell."""
    c = set_closure(term)
    if c is None:
        return None
    flat = fm_flatten(c.rows)
    return {notion: zero_in_reference(notion, flat) for notion in Notion}
