"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the solver machinery under test: vertex enumeration
goes through plain Gaussian elimination, membership checks are direct
arithmetic, and the reference simplex runs on a textbook ``Fraction``
tableau.  The exceptions are ``prune_lp_reference``, which asks the
package's exact LP one question per row,
``slice_interior_point_reference``, which asks it one question over all
sign vectors, ``recover_dual_reference``, which projects with
``fm_project``, and the Fourier-Motzkin projection ``fm_project`` with
the queries built on it, which eliminates with the package's
``polyhedra.eliminate``; what they check is the logic around the LP, not
the LP, and the lifted queries, which eliminate nothing.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from dualcheck.exactlp import Optimal, Unbounded
from dualcheck.polyhedra import Notion, Polyhedron, _solve_over, contains, eliminate, poly, project

ZERO = Fraction(0)


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
        pv = a[col][col]
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


def rational_bland_simplex(sense, objective, rows):
    """Reference two-phase simplex on a plain ``Fraction`` tableau.

    ``rows`` are ``(coeffs, rel, rhs)`` with every variable bound already
    written as a row.  The standard form and the pivot rules are the ones
    ``dualcheck.exactlp`` documents (split free variables, one slack per
    inequality, right-hand sides made >= 0, artificial basis, Bland's rule
    with ties to the smallest basic index), so the solver must return the
    very same point, ray, value and multipliers.  Returns
    ``("optimal", point, value, duals)``, ``("infeasible", farkas)`` or
    ``("unbounded", point, ray)``.
    """
    n, m = len(objective), len(rows)
    nslack = sum(1 for _, rel, _ in rows if rel != "=")
    N = 2 * n + nslack
    T, sigma, slack = [], [], 2 * n
    for i, (a, rel, b) in enumerate(rows):
        row = [ZERO] * (N + m + 1)
        for j, c in enumerate(a):
            row[j], row[n + j] = Fraction(c), -Fraction(c)
        if rel != "=":
            row[slack] = Fraction(1 if rel == "<=" else -1)
            slack += 1
        row[-1] = Fraction(b)
        s = 1 if row[-1] >= 0 else -1
        row = [s * x for x in row]
        row[N + i] = Fraction(1)
        T.append(row)
        sigma.append(s)
    basis = [N + i for i in range(m)]

    def pivot(r, j):
        T[r] = [x / T[r][j] for x in T[r]]
        for i in range(m):
            if i != r and T[i][j] != 0:
                T[i] = [x - T[i][j] * y for x, y in zip(T[i], T[r])]
        basis[r] = j

    def reduced(cost):
        z = list(cost) + [ZERO]
        for i in range(m):
            z = [x - cost[basis[i]] * y for x, y in zip(z, T[i])]
        return z

    def run(cost):
        while True:
            z = reduced(cost)
            enter = next((j for j in range(N) if z[j] < 0), None)
            if enter is None:
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
        return tuple(sigma[i] * (cost[N + i] - z[N + i]) for i in range(m))

    if m:
        cost1 = [ZERO] * N + [Fraction(1)] * m
        z, _ = run(cost1)
        if z[-1] < 0:
            return ("infeasible", tuple(-y for y in duals(cost1, z)))
        for i in range(m):
            if basis[i] >= N and T[i][-1] == 0:
                j = next((j for j in range(N) if T[i][j] != 0), None)
                if j is not None:
                    pivot(i, j)
    flip = -1 if sense == "max" else 1
    c = [flip * Fraction(x) for x in objective]
    cost2 = c + [-x for x in c] + [ZERO] * (nslack + m)
    z, enter = run(cost2)
    if enter is not None:
        return ("unbounded", point(), point(enter))
    y = duals(cost2, z)
    return ("optimal", point(), -flip * z[-1], tuple(flip * v for v in y))


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
# with ``polyhedra.eliminate``, the same steps and pruning.  With the
# per-row ``implicit_rows`` and the ``zero_in`` built on it, it is the
# reference for the queries on lifted rows.


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
    imp = set(implicit_rows_reference(p))
    return all(b > 0 for idx, (_, b) in enumerate(p.ineqs) if idx not in imp)


def fm_flatten(p: Polyhedron) -> Polyhedron:
    """The set a lifted system denotes, written without auxiliaries."""
    return fm_project(p, range(p.n))
