import random
from dataclasses import astuple, replace
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from dualcheck import conditions, engine
from dualcheck import polyhedra as pg
from dualcheck import setexpr as se

from dualcheck.errors import DimensionMismatchError, MalformedInputError, SolverLimitError
from dualcheck.exactlp import (
    GE,
    LE,
    Infeasible,
    LinearProgram,
    Optimal,
    Row,
    Unbounded,
    _Simplex,
    dot,
    expanded_rows,
    rat,
    rat_str,
    solve_lp,
    vec,
    verify_certificate,
)
from dualcheck.funcexpr import Affine, IndicatorOf, NormAtom, Sum
from dualcheck.spaces import finite

from oracles import brute_min_over_vertices, rational_bland_simplex


def lp(sense, objective, rows, bounds=None) -> LinearProgram:
    """A ``LinearProgram`` from plain rows ``(coefficients, relation, rhs)``,
    every entry coerced to a rational."""
    rws = tuple(Row(vec(a), rel, rat(b)) for a, rel, b in rows)
    bds = None
    if bounds is not None:
        bds = tuple((None if lo is None else rat(lo), None if hi is None else rat(hi)) for lo, hi in bounds)
    return LinearProgram(len(objective), vec(objective), sense, rws, bds)


def test_single_bound_maximum():
    p = lp("max", [1], [([1], LE, 1)])
    out = solve_lp(p)
    assert isinstance(out, Optimal)
    assert out.point == (Fraction(1),)
    assert out.value == 1
    assert verify_certificate(p, out)


def test_trivial_infeasibility_certificate():
    # x <= -1 together with -x <= 0 is the 0 <= -1 contradiction
    p = lp("min", [0], [([1], LE, -1), ([-1], LE, 0)])
    out = solve_lp(p)
    assert isinstance(out, Infeasible)
    assert out.farkas == (Fraction(1), Fraction(1))
    assert verify_certificate(p, out)


def test_box_minimum_matches_vertex_oracle():
    # frozen via brute force over the four vertices of the unit square: 0 at the origin
    obj = [Fraction(1), Fraction(1)]
    ineqs = [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)]
    expected = brute_min_over_vertices(obj, ineqs, [], 2)
    assert expected == 0
    p = lp(
        "min",
        [1, 1],
        [],
        bounds=[(0, 1), (0, 1)],
    )
    out = solve_lp(p)
    assert isinstance(out, Optimal)
    assert out.value == expected == 0
    assert out.point == (Fraction(0), Fraction(0))
    assert verify_certificate(p, out)


def test_certificate_rejects_wrong_optimum():
    p = lp("max", [1], [([1], LE, 1)])
    fake = Optimal((Fraction(2),), Fraction(2), (Fraction(1),))
    assert not verify_certificate(p, fake)


def test_certificate_rejects_wrong_dual():
    p = lp("max", [1], [([1], LE, 1)])
    fake = Optimal((Fraction(1),), Fraction(1), (Fraction(2),))
    assert not verify_certificate(p, fake)


def test_unbounded_certificate():
    p = lp("max", [1, 0], [([0, 1], LE, 1), ([0, -1], LE, 0)])
    out = solve_lp(p)
    assert isinstance(out, Unbounded)
    assert verify_certificate(p, out)


def test_no_constraints_unbounded():
    p = lp("max", [1], [])
    out = solve_lp(p)
    assert isinstance(out, Unbounded)
    assert verify_certificate(p, out)


def test_equality_rows_and_duals():
    # min x + y  s.t.  x + y = 2, x >= 0, y >= 0
    p = lp("min", [1, 1], [([1, 1], "=", 2)], bounds=[(0, None), (0, None)])
    out = solve_lp(p)
    assert isinstance(out, Optimal)
    assert out.value == 2
    assert verify_certificate(p, out)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        lp("min", [1, 2], [([1], LE, 0)])


def test_fractional_data_stays_exact():
    p = lp(
        "max",
        ["1/3", "1/7"],
        [(["2/3", 1], LE, "5/3"), ([1, 0], GE, "1/9"), ([0, 1], GE, 0)],
    )
    out = solve_lp(p)
    assert isinstance(out, Optimal)
    assert verify_certificate(p, out)
    assert out.value.denominator > 1  # genuinely fractional optimum


def test_random_lps_self_verify_and_permutation_invariant():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = []
        # random box keeps everything bounded, plus a few random cuts
        for j in range(n):
            e = [0] * n
            e[j] = 1
            rows.append((tuple(e), LE, rng.randint(1, 4)))
            rows.append((tuple(-x for x in e), LE, rng.randint(0, 3)))
        for _ in range(rng.randint(0, 3)):
            a = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            rows.append((a, LE, rng.randint(-1, 5)))
        obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        sense = rng.choice(["min", "max"])
        p = lp(sense, obj, rows)
        out = solve_lp(p)
        assert verify_certificate(p, out)
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        p2 = lp(sense, obj, [rows[i] for i in perm])
        out2 = solve_lp(p2)
        assert verify_certificate(p2, out2)
        assert type(out) is type(out2)
        if isinstance(out, Optimal):
            assert out.value == out2.value


def _matches_reference(p):
    out = solve_lp(p)
    assert verify_certificate(p, out)
    # the reference follows the pivot path; a program with lex forms may
    # leave its last vertex for the lex-smallest optimum afterwards
    path = _Simplex(p).solve()
    ref = rational_bland_simplex(p.sense, p.objective, [(r.coeffs, r.rel, r.rhs) for r in p.rows], p.bounds)
    assert (type(path).__name__.lower(),) + astuple(path) == ref
    return ref[0]


def _note_paths(monkeypatch) -> set:
    """Note the rarer tableau paths that later solves take: a slack in the
    starting basis, a >= row with right-hand side 0 flipped, a virtual x-
    column entering, a signed column entering, an artificial driven out
    after phase one, and a nonzero bound multiplier read off a signed
    column's reduced cost."""
    seen = set()
    real_init, real_pivot, real_duals = _Simplex.__init__, _Simplex._pivot, _Simplex._duals

    def init(self, p):
        real_init(self, p)
        if any(b < self.N for b in self.basis):
            seen.add("slack starts basic")
        # a slack column meets only its own row before the first pivot
        for rel, s, col in zip(self.rels, self.sigma, self.own):
            if rel == GE and s < 0 and col >= self.n and self.K not in next(r for r in self.R if col in r):
                seen.add(">= row with b = 0 flipped")

    def pivot(self, r, w, *rows):
        if self.n <= w < 2 * self.n:
            assert not self.signed[w - self.n]
            seen.add("x- enters")
        if w < self.n and self.signed[w]:
            seen.add("signed column enters")
        if not self.phase_one and self.basis[r] >= self.N:  # outside phase one only a drive-out does
            seen.add("artificial driven out")
        return real_pivot(self, r, w, *rows)

    def duals(self, art):
        out = real_duals(self, art)
        if any(col < self.n and y for col, y in zip(self.own, out)):
            seen.add("bound multiplier read off a reduced cost")
        return out

    monkeypatch.setattr(_Simplex, "__init__", init)
    monkeypatch.setattr(_Simplex, "_pivot", pivot)
    monkeypatch.setattr(_Simplex, "_duals", duals)
    return seen


def _check_rows_after_pivots(monkeypatch) -> list:
    """Check the sparse rows after every pivot: no stored zero, each row
    primitive with a positive basic entry, and no ``d`` cell (column K + 1)
    once the row's artificial has left the basis.  Returns a one-cell pivot
    count."""
    count = [0]
    real_pivot = _Simplex._pivot

    def pivot(self, r, w, *rows):
        real_pivot(self, r, w, *rows)
        count[0] += 1
        for row, b in zip(self.R, self.basis):
            assert 0 not in row.values()
            assert gcd(*row.values()) == 1
            if b >= self.N:
                assert row[self.K + 1] > 0
            else:
                assert self.K + 1 not in row
                col, sg = self._column(b)
                assert sg * row[col] > 0

    monkeypatch.setattr(_Simplex, "_pivot", pivot)
    return count


ALL_PATHS = {
    "slack starts basic",
    ">= row with b = 0 flipped",
    "x- enters",
    "signed column enters",
    "artificial driven out",
    "bound multiplier read off a reduced cost",
}


def _random_bounds(rng, q, n):
    """Bounds for n variables; one in four has lower bound 0 (a signed column)."""
    return [(0 if rng.random() < 0.25 else rng.choice([None, q()]), rng.choice([None, q()])) for _ in range(n)]


def _random_lp(rng, q):
    """A seeded LP with bounds, all three relations and fractional data."""
    n, m = rng.randint(1, 4), rng.randint(0, 6)
    rows = [
        ([q() if rng.random() < 0.7 else 0 for _ in range(n)], rng.choice([LE, LE, GE, "="]), q() if rng.random() < 0.8 else 0)
        for _ in range(m)
    ]
    bounds = None
    if rng.random() < 0.5:
        bounds = _random_bounds(rng, q, n)
    return lp(rng.choice(["min", "max"]), [q() for _ in range(n)], rows, bounds)


def test_4000_random_lps_keep_the_reference_outcome_and_a_valid_certificate(monkeypatch):
    # the slack start takes another pivot path than an all-artificial one,
    # but never another outcome class or value
    rng = random.Random(18)

    def q():
        return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7]))

    seen = _note_paths(monkeypatch)
    kinds = {}
    for _ in range(4000):
        p = _random_lp(rng, q)
        out = solve_lp(p)
        assert verify_certificate(p, out)
        ref = rational_bland_simplex(p.sense, p.objective, [(r.coeffs, r.rel, r.rhs) for r in p.rows], p.bounds)
        assert type(out).__name__.lower() == ref[0]
        if isinstance(out, Optimal):
            assert out.value == ref[2]
        kinds[ref[0]] = kinds.get(ref[0], 0) + 1
    assert min(kinds.values()) > 400 and len(kinds) == 3
    assert seen == ALL_PATHS


def test_lex_forms_pick_the_lex_smallest_optimum(monkeypatch):
    # the tableau's certificate that the images are already lex-smallest
    # must agree with a walk that always runs, on point and multipliers
    rng = random.Random(1977)

    def q():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))

    def images(forms, v):
        return tuple(dot(f, v) for f in forms)

    def signed_lp():
        # every variable a signed column and half the right-hand sides 0, so
        # that signed columns are often basic at 0
        n = rng.randint(1, 4)
        rows = [
            ([q() if rng.random() < 0.7 else 0 for _ in range(n)], rng.choice([LE, GE, "="]), q() if rng.random() < 0.5 else 0)
            for _ in range(rng.randint(1, 5))
        ]
        bounds = [(0, rng.choice([None, None, abs(q()) + 1])) for _ in range(n)]
        return lp(rng.choice(["min", "max"]), [q() for _ in range(n)], rows, bounds)

    walks, signed_at_zero = [0, 0], 0
    for k in range(2800):
        p = _random_lp(rng, q) if k < 2000 else signed_lp()
        m = len(expanded_rows(p))
        lex = tuple(tuple(rng.choice([0, 0, q()]) for _ in range(p.n)) for _ in range(rng.randint(1, 3)))
        dual_lex = tuple(tuple(rng.choice([0, 0, q()]) for _ in range(m)) for _ in range(rng.randint(1, 3)))
        p = replace(p, lex=lex, dual_lex=dual_lex)
        out = solve_lp(p)
        assert verify_certificate(p, out)
        if not isinstance(out, Optimal):
            continue
        with monkeypatch.context() as patch:
            patch.setattr(_Simplex, "point_is_lex_min", lambda self, forms: False)
            patch.setattr(_Simplex, "duals_are_lex_min", lambda self, forms: False)
            walked = solve_lp(p)
        assert verify_certificate(p, walked)
        assert images(lex, out.point) == images(lex, walked.point)
        assert images(dual_lex, out.dual) == images(dual_lex, walked.dual)
        s = _Simplex(p)
        s.solve()
        walks[0] += not s.point_is_lex_min(lex)
        walks[1] += not s.duals_are_lex_min(dual_lex)
        signed_at_zero += any(b < s.n and s.signed[b] and s.K not in row for b, row in zip(s.basis, s.R))
    # both certificates are refused often enough that the walks are tested,
    # and a signed column basic at 0 often gives duals_are_lex_min a row
    # whose weight moves a bound multiplier
    assert min(walks) > 15
    assert signed_at_zero > 100


def test_outcomes_match_rational_reference_tableau(monkeypatch):
    # the narrow fraction-free tableau must take exactly the pivots of a
    # rational one in the wide layout, and keep its rows sparse and primitive
    rng = random.Random(11)

    def q():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    checked = _check_rows_after_pivots(monkeypatch)
    seen = _note_paths(monkeypatch)
    kinds = set()
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(0, 5)
        rows = [
            ([q() if rng.random() < 0.7 else 0 for _ in range(n)], rng.choice([LE, LE, GE, "="]), q())
            for _ in range(m)
        ]
        bounds = None
        if rng.random() < 0.5:
            bounds = _random_bounds(rng, q, n)
        kinds.add(_matches_reference(lp(rng.choice(["min", "max"]), [q() for _ in range(n)], rows, bounds)))
    assert kinds == {"optimal", "infeasible", "unbounded"}
    assert seen == ALL_PATHS

    # free variables pushed below zero: only x- columns can improve
    seen.clear()
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [([q() for _ in range(n)], LE, abs(q()) + 1) for _ in range(rng.randint(0, 2))]
        rows += [([-1 if k == j else 0 for k in range(n)], LE, rng.randint(0, 3)) for j in range(n)]
        assert _matches_reference(lp("min", [rng.randint(1, 3) for _ in range(n)], rows)) == "optimal"
    assert "x- enters" in seen

    # all-equality systems; in half of them every right-hand side is 0 and
    # the last row is minus the sum of the others, so phase one starts at
    # an artificial sum of 0, takes no pivot, and leaves degenerate
    # artificials to drive out
    seen.clear()
    kinds = set()
    early = []  # the pivots taken in phase one on systems whose right-hand sides are all 0
    checked_pivot = _Simplex._pivot

    def pivot(self, r, w, *rows):
        if zero and self.phase_one:
            early.append(w)
        return checked_pivot(self, r, w, *rows)

    monkeypatch.setattr(_Simplex, "_pivot", pivot)
    for _ in range(120):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [([q() for _ in range(n)], "=", q()) for _ in range(m)]
        zero = rng.random() < 0.5
        if zero:
            rows = [(a, "=", 0) for a, _, _ in rows]
            rows.append(([-sum(col) for col in zip(*(a for a, _, _ in rows))], "=", 0))
        kinds.add(_matches_reference(lp(rng.choice(["min", "max"]), [q() for _ in range(n)], rows)))
    assert kinds == {"optimal", "infeasible", "unbounded"}
    assert seen == {"x- enters", "artificial driven out"}
    assert early == []
    assert checked[0] > 1000


def test_a_zero_artificial_start_builds_only_the_phase_two_cost_row(monkeypatch):
    # the one artificial sits on x1 - x2 = 0, so phase one would stop before
    # its first pivot: its cost row is never built, the artificial is still
    # driven out, and the pivots are the reference tableau's
    costs = []
    real = _Simplex._set_costs
    monkeypatch.setattr(_Simplex, "_set_costs", lambda self, cost, art: costs.append(art) or real(self, cost, art))
    p = lp("max", [1, 2], [([1, -1], "=", 0), ([1, 1], LE, 2), ([-1, 1], GE, 0)])
    s = _Simplex(p)
    starts = [s.K in s.R[i] for i, b in enumerate(s.basis) if b >= s.N]
    assert starts == [False]
    out = s.solve()
    assert costs == [0]
    assert all(b < s.N for b in s.basis)
    assert out.point == (1, 1) and out.value == 3 and verify_certificate(p, out)
    assert _matches_reference(p) == "optimal"


def test_noted_paths_do_not_depend_on_the_solve_order(monkeypatch):
    # the zero-artificial-start LP above drives its artificial out with no
    # phase one, and is noted so whether it is solved first or after another
    zero_start = lp("max", [1, 2], [([1, -1], "=", 0), ([1, 1], LE, 2), ([-1, 1], GE, 0)])
    other = lp("min", [1, 1], [([1, 1], GE, 1), ([1, -1], "=", 1)])
    seen = _note_paths(monkeypatch)
    solve_lp(zero_start)
    first = set(seen)
    solve_lp(other)
    seen.clear()
    solve_lp(zero_start)
    assert seen == first and "artificial driven out" in first


def test_malformed_pivot_budget_is_malformed_input(monkeypatch):
    p = lp("max", [1], [([1], LE, 1)])
    for raw in ("many", "1.5", "0", "-2"):
        monkeypatch.setenv("DUALCHECK_MAX_PIVOTS", raw)
        with pytest.raises(MalformedInputError, match="DUALCHECK_MAX_PIVOTS"):
            solve_lp(p)


def test_pivot_budget_raises_solver_limit(monkeypatch):
    # the optimum (1, 1) needs a pivot per coordinate, so one pivot cannot reach it
    p = lp("max", [1, 1], [([1, 0], LE, 1), ([0, 1], LE, 1)])
    monkeypatch.setenv("DUALCHECK_MAX_PIVOTS", "1")
    with pytest.raises(SolverLimitError, match="DUALCHECK_MAX_PIVOTS"):
        solve_lp(p)
    monkeypatch.delenv("DUALCHECK_MAX_PIVOTS")
    out = solve_lp(p)
    assert isinstance(out, Optimal)
    assert out.value == 2


def test_rat_str_canonical():
    assert rat_str(Fraction(3, 2)) == "3/2"
    assert rat_str(Fraction(-4, 2)) == "-2"
    assert rat_str(Fraction(0)) == "0"


def _solved_lps(monkeypatch, work) -> list:
    """Every LP that ``work()`` solves, with the package's memos emptied first."""
    pg._frt.cache_clear()
    pg._in_projection.cache_clear()
    se._ATTR_MEMO.clear()
    se._NORM_MEMO.clear()
    progs = []
    real = _Simplex.solve
    monkeypatch.setattr(_Simplex, "solve", lambda self: progs.append(self.lp) or real(self))
    work()
    monkeypatch.setattr(_Simplex, "solve", real)
    return progs


def _box_l1(lo, hi, c) -> engine.FenchelInstance:
    """inf c.x + indicator of the box [lo, hi] + ||x||_1."""
    n = len(c)
    rows = []
    for j in range(n):
        e = tuple(Fraction(int(k == j)) for k in range(n))
        rows.append((e, Fraction(hi[j])))
        rows.append((tuple(-v for v in e), Fraction(-lo[j])))
    f = Sum(Affine(tuple(Fraction(v) for v in c), Fraction(0)), IndicatorOf(se.PolyAtom(pg.poly(n, rows))))
    return engine.FenchelInstance(instance_id=f"box-l1-{n}", space=finite(n), f=f, g=NormAtom("l1"))


def _diagnose_and_recover(instance):
    d = conditions.diagnose(instance)
    if d.verdict("6").status is se.HOLDS and d.values.vp.is_finite():
        engine.recover_dual_via_separation(instance, d.values.vp.value)


def test_bench_and_golden_lps_replay_on_the_reference_tableau(monkeypatch):
    # the LPs the package really solves: a cold diagnosis, report and
    # recovery of both l1-ladder rungs on two seeds, a cold box+l1 diagnosis
    # and recovery at n = 3 and 4 (wider and sparser lifted systems), and a
    # seeded sample of the golden instances' LPs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    from test_numeric_golden import _answer, _instances

    progs = []
    for seed in (1, 2718):
        ladder = workloads.L1Ladder(seed)
        progs += _solved_lps(monkeypatch, lambda: [ladder.run(item) for item in ladder.items])
    assert len(progs) >= 40
    for n in (3, 4):
        # the box [-(1 + j), 2 + j], with cost 2 on the even coordinates
        box = _box_l1([-1 - j for j in range(n)], [2 + j for j in range(n)], [2 * (1 - j % 2) for j in range(n)])
        wide = _solved_lps(monkeypatch, lambda: _diagnose_and_recover(box))
        assert max(p.n for p in wide) > 20
        progs += wide
    rng = random.Random(10)
    golden = _solved_lps(monkeypatch, lambda: [_answer(inst) for inst in rng.sample(_instances(), 12)])
    progs += rng.sample(golden, 60)
    kinds = {_matches_reference(p) for p in progs}
    assert {"optimal", "infeasible"} <= kinds


def test_coefficients_up_to_2_to_the_64_replay_on_the_reference_tableau(monkeypatch):
    # box bounds and costs of 64 bits: every LP of a cold diagnosis and
    # recovery still takes the reference pivots and carries a valid certificate
    rng = random.Random(64)
    big = [2**63, 2**64]
    for n in (1, 2, 3):
        lo = [-rng.randint(*big) for _ in range(n)]
        hi = [rng.randint(*big) for _ in range(n)]
        c = [rng.choice((-1, 1)) * rng.randint(*big) for _ in range(n)]
        progs = _solved_lps(monkeypatch, lambda: _diagnose_and_recover(_box_l1(lo, hi, c)))
        assert progs
        assert "optimal" in {_matches_reference(p) for p in progs}


def test_row_factors_leave_the_slack_start_path_and_scale_only_the_multipliers():
    # Multiplying row i by c_i > 0 multiplies its slack column by 1 / c_i
    # in the tableau: Bland's signs and ratio order stay, so from a slack
    # start the pivots, the point and the value stay and multiplier i is
    # divided by c_i.  A start whose artificials all sit on rows with
    # right-hand side 0 takes no phase-one pivot, since its artificial sum
    # is 0 already, and drives each artificial out on the first nonzero
    # column of its row, which no factor moves: it is held to the same
    # standard.  Phase one weighs each artificial in its own row's units,
    # so a start with an artificial at a positive level may take another
    # path; its outcome class and value still stay.
    rng = random.Random(21)

    def q():
        return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))

    def check(p):
        factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in p.rows]
        scaled = replace(p, rows=tuple(replace(r, coeffs=tuple(c * x for x in r.coeffs), rhs=c * r.rhs) for c, r in zip(factors, p.rows)))
        s, t = _Simplex(p), _Simplex(scaled)
        if all(b < s.N for b in s.basis):
            start = "slack"
        elif all(b < s.N or s.K not in row for b, row in zip(s.basis, s.R)):
            start = "artificials at 0"
        else:
            start = "an artificial above 0"
        out, got = s.solve(), t.solve()
        assert verify_certificate(scaled, got)
        assert type(got) is type(out)
        if isinstance(out, Optimal):
            assert got.value == out.value
        starts[start] += 1
        if start == "an artificial above 0":
            return
        assert t.pivots == s.pivots and got.point == out.point
        # the multipliers of the bound rows keep their scale
        factors += [1] * (len(expanded_rows(p)) - len(p.rows))
        if isinstance(out, Optimal):
            assert got.dual == tuple(y / c for y, c in zip(out.dual, factors))
        else:  # such a start is feasible, so unbounded: the ray keeps its direction
            mu = next(b / a for a, b in zip(out.ray, got.ray) if a)
            assert mu > 0 and got.ray == tuple(mu * a for a in out.ray)

    starts = {"slack": 0, "artificials at 0": 0, "an artificial above 0": 0}
    for _ in range(700):
        p = _random_lp(rng, q)
        if rng.random() < 0.5:  # rows a slack can start on: b >= 0 on <= rows, b <= 0 on >= rows
            rels = [rng.choice([LE, GE]) for _ in p.rows]
            p = replace(p, rows=tuple(replace(r, rel=rel, rhs=abs(r.rhs) if rel == LE else -abs(r.rhs)) for r, rel in zip(p.rows, rels)))
        check(p)
    # every right-hand side 0: the equality rows start on artificials at 0
    for _ in range(700):
        p = _random_lp(rng, q)
        check(replace(p, rows=tuple(replace(r, rhs=0) for r in p.rows)))
    assert min(starts.values()) > 200
