import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcheck import setexpr as se
from dualcheck.conditions import diagnose
from dualcheck.engine import (
    AffineMap,
    FenchelInstance,
    IdentityMap,
    NegIdentityMap,
    LagrangeInstance,
    NumericModel,
    PerturbationInstance,
    dual_objective_value,
    is_numeric,
    recover_dual_via_separation,
    solve_dual,
    solve_primal,
    to_perturbation,
    value_report,
)
from dualcheck.errors import (
    ConeMembershipError,
    DegenerateSeparationError,
    DimensionMismatchError,
    DualcheckError,
    ImproperFunctionError,
    MalformedInputError,
    QriMembershipError,
    UndecidableValueError,
)
from dualcheck.funcexpr import (
    Affine,
    IndicatorOf,
    MINF,
    NormAtom,
    PINF,
    Sum,
    er,
)
from dualcheck.exactlp import verify_certificate
from dualcheck.polyhedra import contains, interval, orthant, poly, singleton
from dualcheck.spaces import finite, lp_space

import test_numeric_golden as golden
from oracles import dual_reference, enumerate_vertices, recover_dual_reference
from randgen import random_fenchel_core_instance, random_lagrange_slater_instance

F = Fraction


def ind(p):
    return IndicatorOf(se.PolyAtom(p))


def fenchel(f, g, n=1, iid="t", amap=None, gn=None):
    return FenchelInstance(
        instance_id=iid,
        space=finite(n),
        f=f,
        g=g,
        amap=amap,
        gspace=finite(gn) if gn is not None else None,
    )


def test_primal_indicator_overlap():
    inst = fenchel(ind(interval(0, 1)), ind(interval(1, 2)))
    vp, x = solve_primal(inst)
    assert vp == er(0)
    assert x == (F(1),)


def test_numeric_model_checks_the_shapes_of_its_maps_and_spaces():
    # shapes a problem file cannot state; tests/test_cli.py runs the others
    l1 = NormAtom("l1")
    for inst in (
        FenchelInstance("no-a", finite(2), l1, l1, gspace=finite(1)),
        LagrangeInstance("neg-id", finite(2), finite(1), l1, se.PolyAtom(orthant(2)),
                         NegIdentityMap(), se.PolyAtom(orthant(1))),
    ):
        with pytest.raises(DimensionMismatchError):
            NumericModel(inst)


def test_perturbation_view_interval_difference():
    inst = fenchel(ind(interval(0, 1)), ind(interval(1, 2)))
    view = to_perturbation(inst)
    p = view.pr_dom.poly
    for pt, inside in [((-2,), True), ((0,), True), ((-1,), True), ((1,), False), ((-3,), False)]:
        assert contains(p, pt) is inside


def test_dual_matches_primal_on_polyhedral_pair():
    f = ind(interval(-1, 1))
    g = ind(interval(-1, 1))
    inst = fenchel(f, g)
    vp, _ = solve_primal(inst)
    vd, y = solve_dual(inst)
    assert vp == er(0) and vd == er(0)
    assert y is not None
    assert dual_objective_value(inst, y) == er(0)


def test_dual_hand_oracle_halfline_plus_tilt():
    # f = delta_{[0,inf)}, g = x + delta_{[0,inf)}: vP = 0;
    # conjugates by hand give vD = 0 with optimizers y in [0, 1]
    half = poly(1, ineqs=[((-1,), 0)])
    f = ind(half)
    g = Sum(Affine((F(1),), F(0)), ind(half))
    inst = fenchel(f, g)
    vp, x = solve_primal(inst)
    assert vp == er(0) and x == (F(0),)
    vd, y = solve_dual(inst)
    assert vd == er(0)
    assert dual_objective_value(inst, y) == er(0)


def test_separation_recovery_trivial_point():
    f = ind(singleton((F(0),)))
    inst = fenchel(f, f)
    vp, _ = solve_primal(inst)
    assert vp == er(0)
    dual = recover_dual_via_separation(inst, 0)
    assert dual_objective_value(inst, dual) == er(0)


def test_separation_recovery_halfline_tilt():
    half = poly(1, ineqs=[((-1,), 0)])
    f = ind(half)
    g = Sum(Affine((F(1),), F(0)), ind(half))
    inst = fenchel(f, g)
    dual = recover_dual_via_separation(inst, 0)
    assert dual_objective_value(inst, dual) == er(0)
    vd, _ = solve_dual(inst)
    assert vd == er(0)


def test_separation_recovery_matches_dual_on_random_instances():
    rng = random.Random(2718)
    hits = 0
    for _ in range(25):
        n = rng.randint(1, 2)
        f = ind(_random_box(rng, n))
        tilt = Affine(tuple(F(rng.randint(-2, 2)) for _ in range(n)), F(rng.randint(-1, 1)))
        g = Sum(tilt, ind(_random_box(rng, n)))
        inst = fenchel(f, g, n=n)
        vp, _ = solve_primal(inst)
        if not vp.is_finite():
            continue
        view = to_perturbation(inst)
        # only instances with 0 interior to the domain difference (the
        # separation needs the first clause)
        from dualcheck.polyhedra import zero_in, Notion

        if not zero_in(Notion.QI, view.pr_dom.poly):
            continue
        hits += 1
        dual = recover_dual_via_separation(inst, vp.value)
        vd, _ = solve_dual(inst)
        assert vd == vp
        assert dual_objective_value(inst, dual) == vp
    assert hits >= 5


def _random_box(rng, n):
    lo = [rng.randint(-3, 0) for _ in range(n)]
    hi = [rng.randint(0, 3) for _ in range(n)]
    rows = []
    for j in range(n):
        e = [F(0)] * n
        e[j] = F(1)
        rows.append((tuple(e), F(hi[j])))
        rows.append((tuple(-c for c in e), F(-lo[j])))
    return poly(n, rows)


def test_weak_duality_randomized():
    rng = random.Random(31415)
    from dualcheck.funcexpr import er_le

    for _ in range(30):
        n = rng.randint(1, 2)
        f = Sum(
            Affine(tuple(F(rng.randint(-2, 2)) for _ in range(n))),
            ind(_random_box(rng, n)),
        )
        g = Sum(
            Affine(tuple(F(rng.randint(-2, 2)) for _ in range(n))),
            ind(_random_box(rng, n)),
        )
        inst = fenchel(f, g, n=n)
        vp, _ = solve_primal(inst)
        vd, _ = solve_dual(inst)
        assert er_le(vd, vp)


def test_fenchel_with_operator():
    # f = delta_{[0,2]} on R, g = delta_{[1,3]} on R, A = multiplication by 2
    inst = fenchel(
        ind(interval(0, 2)),
        ind(interval(1, 3)),
        n=1,
        amap=((F(2),),),
        gn=1,
    )
    vp, x = solve_primal(inst)
    assert vp == er(0)
    assert F(1, 2) <= x[0] <= F(3, 2)
    view = to_perturbation(inst)
    # A(dom f) - dom g = [0,4] - [1,3] = [-3, 3]
    for pt, inside in [((-3,), True), ((3,), True), ((F(7, 2),), False)]:
        assert contains(view.pr_dom.poly, pt) is inside
    vd, _ = solve_dual(inst)
    assert vd == er(0)


def test_lagrange_primal_dual_and_slater():
    # min x1 + x2 over the unit box under x1 + x2 - 1 <= 0
    box = _unit_box2()
    gmap = AffineMap(((F(1), F(1)),), (F(-1),))
    cone = se.PolyAtom(poly(1, ineqs=[((-1,), 0)]))  # R_+
    inst = LagrangeInstance(
        instance_id="lag",
        xspace=finite(2),
        zspace=finite(1),
        f=Affine((F(1), F(1)), F(0)),
        sset=se.PolyAtom(box),
        gmap=gmap,
        cone=cone,
    )
    assert is_numeric(inst)
    vp, x = solve_primal(inst)
    assert vp == er(0) and x == (F(0), F(0))
    vd, z = solve_dual(inst)
    assert vd == er(0)
    assert dual_objective_value(inst, z) == er(0)
    dual = recover_dual_via_separation(inst, 0)
    assert dual_objective_value(inst, dual) == er(0)


def _unit_box2():
    return poly(
        2,
        ineqs=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)],
    )


def test_lagrange_view_projection():
    box = _unit_box2()
    gmap = AffineMap(((F(1), F(0)),), (F(-2),))
    cone = se.PolyAtom(poly(1, ineqs=[((-1,), 0)]))
    inst = LagrangeInstance(
        instance_id="lagv",
        xspace=finite(2),
        zspace=finite(1),
        f=Affine((F(0), F(0)), F(0)),
        sset=se.PolyAtom(box),
        gmap=gmap,
        cone=cone,
    )
    view = to_perturbation(inst)
    # g(box) + R_+ = [-2, -1] + [0, inf) = [-2, inf)
    assert contains(view.pr_dom.poly, (-2,)) and contains(view.pr_dom.poly, (5,))
    assert not contains(view.pr_dom.poly, (F(-5, 2),))
    # the view's sets: the image g(box) = [-2, -1] and the cone itself
    image, c = view.sets
    assert [contains(image.poly, (F(z),)) for z in (-3, -2, -1, 0)] == [False, True, True, False]
    assert c.poly == cone.poly


def test_symbolic_values_come_from_declarations():
    from dualcheck.engine import DeclaredValues

    plus = se.CatalogAtom(se.LP_PLUS, lp_space(), ())
    inst = FenchelInstance(
        instance_id="sym",
        space=lp_space(),
        f=IndicatorOf(plus),
        g=IndicatorOf(se.Neg(plus)),
        values=DeclaredValues(vp=er(0), vp_attained=True, vd=er(0), vd_attained=True),
    )
    assert not is_numeric(inst)
    vp, _ = solve_primal(inst)
    vd, _ = solve_dual(inst)
    assert vp == er(0) and vd == er(0)
    bare = FenchelInstance("bare", lp_space(), IndicatorOf(plus), IndicatorOf(plus))
    with pytest.raises(UndecidableValueError):
        solve_primal(bare)


def test_perturbation_instance_roundtrip():
    # Phi(x, y) = delta_{[0,1]}(x) + delta_{[x-1, x+1]}-ish coupling:
    # use Phi(x,y) = delta(|x| <= 1) + delta(|x - y| <= 1) via polyhedron
    phi_dom = poly(
        2,
        ineqs=[((1, 0), 1), ((-1, 0), 1), ((1, -1), 1), ((-1, 1), 1)],
    )
    phi = IndicatorOf(se.PolyAtom(phi_dom))
    inst = PerturbationInstance(instance_id="phi", nx=1, ny=1, phi=phi)
    vp, x = solve_primal(inst)
    assert vp == er(0)
    vd, y = solve_dual(inst)
    assert vd == er(0)
    view = to_perturbation(inst)
    assert contains(view.pr_dom.poly, (0,)) and contains(view.pr_dom.poly, (2,))
    assert not contains(view.pr_dom.poly, (3,))
    rep = value_report(inst)
    assert rep.gap == er(0) and rep.gap_applicable


def test_value_report_gap_not_applicable_for_doubly_infinite():
    f = Affine((F(1),), F(0))  # unbounded below on the line
    g = Affine((F(1),), F(0))
    inst = fenchel(f, g)
    rep = value_report(inst)
    assert rep.vp == MINF and rep.vd == MINF
    assert rep.gap is None and not rep.gap_applicable


def _lagrange(cone, f=Affine((F(1),), F(0)), sset=interval(-1, 1), gmap=IdentityMap()):
    return LagrangeInstance("lag", finite(1), finite(1), f, se.PolyAtom(sset), gmap, se.PolyAtom(cone))


def test_lagrange_rejects_an_ordering_set_that_is_no_cone():
    # inf x over [-1, 1] with x in -C, C = {z <= 1}: C holds 0 but is no
    # cone, and reading it as one broke weak duality
    inst = _lagrange(poly(1, ineqs=[((1,), 1)]))
    with pytest.raises(MalformedInputError):
        solve_primal(inst)
    with pytest.raises(MalformedInputError):
        diagnose(inst)
    with pytest.raises(MalformedInputError):  # and one without the origin
        solve_primal(_lagrange(poly(1, ineqs=[((-1,), -1)])))


def test_dual_objective_keeps_its_typed_errors():
    empty = interval(1, 0)
    with pytest.raises(ImproperFunctionError):
        dual_objective_value(fenchel(ind(empty), ind(interval(0, 1))), (F(0),))
    with pytest.raises(ImproperFunctionError):
        dual_objective_value(fenchel(ind(interval(0, 1)), ind(empty)), (F(0),))
    phi = PerturbationInstance("phi", 1, 1, ind(poly(2, ineqs=[((1, 0), 0), ((-1, 0), -1)])))
    with pytest.raises(ImproperFunctionError):
        dual_objective_value(phi, (F(0),))
    inst = _lagrange(orthant(1))  # C = R_+, so C* = R_+
    assert dual_objective_value(inst, (F(0),)) == er(-1)
    with pytest.raises(ConeMembershipError):
        dual_objective_value(inst, (F(-1),))


def test_floats_are_refused_at_the_numeric_entry_points():
    # a float is a binary fraction, not the decimal it prints as
    inst = fenchel(ind(interval(-1, 1)), ind(interval(-1, 1)))
    with pytest.raises(MalformedInputError):
        dual_objective_value(inst, (0.1,))
    with pytest.raises(MalformedInputError):
        recover_dual_via_separation(inst, 0.0)
    with pytest.raises(MalformedInputError):
        NumericModel(fenchel(ind(interval(-1, 1)), ind(interval(-1, 1)), amap=((0.5,),)))


def test_an_infeasible_primal_stops_the_diagnosis_before_any_dual_lp(monkeypatch):
    # the standing assumption is checked on the primal LP alone, so an
    # improper function in an infeasible pair is reported as the infeasible
    # primal, not as the ImproperFunctionError of the dual
    programs = _record_lps(monkeypatch)
    empty_phi = PerturbationInstance("phi", 1, 1, ind(poly(2, ineqs=[((1, 0), 0), ((-1, 0), -1)])))
    for inst in (fenchel(ind(interval(0, 1)), ind(interval(2, 3))), fenchel(ind(interval(1, 0)), ind(interval(0, 1))), empty_phi):
        before = len(programs)
        with pytest.raises(MalformedInputError):
            diagnose(inst)
        assert len(programs) - before == 1


# the Fourier-Motzkin routines, which now live only in tests/oracles.py
FM_NAMES = ("eliminate", "_eliminate", "_prune_lp", "_dedupe", "_next_var", "_heirs", "fm_project")


def _record_lps(monkeypatch) -> list:
    """Record every LP that any module of the package solves."""
    from dualcheck import exactlp

    real, programs = exactlp.solve_lp, []

    def recording_solve(p):
        programs.append(p)
        return real(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("dualcheck") and getattr(module, "solve_lp", None) is real:
            monkeypatch.setattr(module, "solve_lp", recording_solve)
    return programs


def test_one_diagnosis_lowers_each_function_once_and_solves_the_primal_once(monkeypatch):
    from dualcheck import conditions, engine, funcexpr

    f = Sum(Affine((F(2), F(0)), F(0)), ind(_unit_box2()))
    inst = fenchel(f, NormAtom("l1"), n=2)
    model = engine.NumericModel(inst)
    rows = model.system(("x", 2), *model.epis).lp_rows()
    lowered, conjugated, value_lps = [], [], []
    real_lower, real_conjugate, real_report = funcexpr.lower, funcexpr.conjugate_polyfunc, engine.value_report
    programs = _record_lps(monkeypatch)

    def counting_lower(h, n):
        lowered.append(h)
        return real_lower(h, n)

    def counting_conjugate(pf):
        conjugated.append(pf)
        return real_conjugate(pf)

    def counting_report(instance, model=None):
        out = real_report(instance, model)
        value_lps.extend(programs)  # the standing-assumption check solves the primal first
        return out

    for module in (funcexpr, engine, conditions.fx):
        monkeypatch.setattr(module, "lower", counting_lower)
    for name, module in list(sys.modules.items()):
        if name.startswith("dualcheck") and getattr(module, "conjugate_polyfunc", None) is real_conjugate:
            monkeypatch.setattr(module, "conjugate_polyfunc", counting_conjugate)
    monkeypatch.setattr(engine, "value_report", counting_report)
    d = conditions.diagnose(inst)
    assert d.values.vp == er(0) and d.values.vd == er(0) and d.values.dual_solution is not None
    assert lowered.count(f) == 1 and lowered.count(NormAtom("l1")) == 1
    # both values come from the primal LP alone, with no conjugate
    assert len(value_lps) == 1
    primal = value_lps[0]
    assert primal.rows == rows and primal.sense == "min"
    assert sum(1 for p in programs if p == primal) == 1
    assert not conjugated
    for name, module in list(sys.modules.items()):
        if name.startswith("dualcheck"):
            assert not [a for a in FM_NAMES if hasattr(module, a)], name


@pytest.mark.parametrize(
    "inst, vd",
    [
        (fenchel(Affine((F(1),), F(0)), Affine((F(1),), F(0))), MINF),  # unbounded primal
        (fenchel(Affine((F(2),), F(0)), NormAtom("l1")), MINF),
        (fenchel(ind(interval(0, 1)), ind(interval(2, 3))), PINF),  # disjoint domains
        (fenchel(Sum(Affine((F(3),), F(0)), ind(interval(0, 1))), Sum(NormAtom("l1"), ind(interval(2, 3)))), PINF),
        # Phi(x, y) = x on y = 1: infeasible at y = 0, and v(1) = -inf
        (PerturbationInstance("phi", 1, 1, Sum(Affine((F(1), F(0)), F(0)), ind(poly(2, eqs=[((0, 1), 1)])))), MINF),
    ],
)
def test_an_infinite_primal_value_costs_at_most_two_more_value_lps(monkeypatch, inst, vd):
    from dualcheck import funcexpr

    programs, guard = _record_lps(monkeypatch), []
    real_improper = funcexpr.pf_is_improper

    def counted_improper(pf):  # the properness test, not a value LP
        before = len(programs)
        out = real_improper(pf)
        guard.extend(programs[before:])
        return out

    monkeypatch.setattr(funcexpr, "pf_is_improper", counted_improper)
    rep = value_report(inst)
    assert len(programs) - len(guard) <= 3
    assert rep.vd == vd and rep.dual_solution is None
    assert rep.vd == dual_reference(inst)[0]


def _recovery_outcome(recover, inst, vp):
    try:
        return recover(inst, vp)
    except (DegenerateSeparationError, QriMembershipError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(golden.FAMILIES)), st.integers(0, 2**32), st.integers(0, 11), st.sampled_from((0, 1)))
def test_recovery_matches_the_projected_reference(family, seed, i, raise_vp):
    """Random instances of every family, recovered at vp (a point) and at
    vp + 1 (no separator with a value component): the lifted route agrees
    with the projected one on the outcome class and the separation value."""
    inst = golden.FAMILIES[family][0](random.Random(seed), i)
    try:
        vp, _ = solve_primal(inst)
    except DualcheckError:
        return
    if not vp.is_finite():
        return
    v = vp.value + raise_vp
    ref = _recovery_outcome(recover_dual_reference, inst, v)
    got = _recovery_outcome(recover_dual_via_separation, inst, v)
    if not isinstance(ref, tuple):
        assert got is ref
        return
    assert isinstance(got, tuple)
    # the LP optimum is 1 / max(1, ||y||_inf) on either route
    assert max([1] + [abs(c) for c in got]) == max([1] + [abs(c) for c in ref])
    assert dual_objective_value(inst, got) == vp


@pytest.mark.parametrize("family", sorted(golden.FAMILIES))
def test_separation_lp_and_its_probes_read_lam_signs_as_bounds(monkeypatch, family):
    """Every lam of the separation LP is a signed column: lower bound 0 and
    no sign row.  At vp + 1 the failure is classified by probes over the
    same polar, so they carry the same bounds; the outcome matches the
    projected reference at vp and at vp + 1."""
    probed = 0
    for i in range(4):
        inst = golden.FAMILIES[family][0](random.Random(i), i)
        try:
            vp, _ = solve_primal(inst)
        except DualcheckError:
            continue
        if not vp.is_finite():
            continue
        for v in (vp.value, vp.value + 1):
            with monkeypatch.context() as patch:
                lps = _record_lps(patch)
                got = _recovery_outcome(recover_dual_via_separation, inst, v)
            sep = next(q for q in lps if q.lex)
            probes = [q for q in lps if q.rows[:-1] == sep.rows]
            model = NumericModel(inst)
            p, d = model.lifted_epi(v), model.ny + 1
            assert sep.bounds == ((0, None),) * len(p.ineqs) + ((None, None),) * len(p.eqs)
            # the zero rows of the dropped columns, the value row and the box
            assert len(sep.rows) == (p.n - d) + 1 + 2 * d
            assert all(q.bounds == sep.bounds for q in probes)
            probed += len(probes)
            ref = _recovery_outcome(recover_dual_reference, inst, v)
            assert isinstance(got, tuple) if isinstance(ref, tuple) else got is ref
    assert probed


def test_recovery_eliminates_nothing_and_solves_at_most_seven_lps(monkeypatch):
    f = Sum(Affine((F(2), F(0)), F(0)), ind(poly(2, [((1, 0), 1), ((-1, 0), 2), ((0, 1), 3), ((0, -1), 1)])))
    inst = fenchel(f, NormAtom("l1"), n=2)
    vp, _ = solve_primal(inst)
    lps = _record_lps(monkeypatch)
    dual = recover_dual_via_separation(inst, vp.value)
    assert dual == (F(-1), F(0))
    assert len(lps) <= 7


def test_recovery_with_the_diagnosis_model_lowers_nothing(monkeypatch):
    from dualcheck import engine, funcexpr

    f = Sum(Affine((F(2), F(0)), F(0)), ind(poly(2, [((1, 0), 1), ((-1, 0), 2), ((0, 1), 3), ((0, -1), 1)])))
    inst = fenchel(f, NormAtom("l1"), n=2)
    model = engine.NumericModel(inst)
    vp, _ = model.primal
    real_lower, lowered = funcexpr.lower, []

    def counting_lower(h, n):
        lowered.append(h)
        return real_lower(h, n)

    monkeypatch.setattr(engine, "lower", counting_lower)
    assert recover_dual_via_separation(inst, vp.value, model) == (F(-1), F(0))
    assert not lowered
    assert recover_dual_via_separation(inst, vp.value) == (F(-1), F(0))
    assert lowered == [f, NormAtom("l1")]


def _dual_or_error(solve, inst):
    try:
        return solve(inst)
    except DualcheckError as exc:
        return type(exc)


def _check_dual_against_the_reference(inst):
    """The read-out dual has the conjugate LP's value, its point attains
    that value, and the primal LP's certificate replays."""
    ref = _dual_or_error(dual_reference, inst)
    try:
        model = NumericModel(inst)
        vd, point = model.dual
    except DualcheckError as exc:
        assert ref is type(exc)
        return None
    assert isinstance(ref, tuple) and vd == ref[0]
    prog, out = model._primal_lp
    assert verify_certificate(prog, out)
    if vd.is_finite():
        assert model.dual_value(point) == vd
    else:
        assert point is None
    return vd


def test_dual_of_every_golden_instance_matches_the_conjugate_dual_lp():
    values = [_check_dual_against_the_reference(inst) for inst in golden._instances()]
    infinite = [v for v in values if v is not None and not v.is_finite()]
    assert infinite.count(PINF) == 5 and infinite.count(MINF) == 4


# the golden generators and the two generators of acceptance criteria 3 and 4
DUAL_FAMILIES = {
    **{name: make for name, (make, _) in golden.FAMILIES.items()},
    "core-fenchel": lambda rng, i: random_fenchel_core_instance(rng, f"core-{i}"),
    "slater-lagrange": lambda rng, i: random_lagrange_slater_instance(rng, f"slater-{i}"),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DUAL_FAMILIES)), st.integers(0, 2**32), st.integers(0, 11))
def test_dual_read_off_the_primal_matches_the_conjugate_dual_lp(family, seed, i):
    _check_dual_against_the_reference(DUAL_FAMILIES[family](random.Random(seed), i))


def test_every_golden_point_and_value_leaves_the_model_as_fractions():
    # the model's rows are ints, but its values and points are Fractions
    def fractions(*vectors):
        return all(type(c) is Fraction for v in vectors if v is not None for c in v)

    finite = 0
    for inst in golden._instances():
        try:
            model = NumericModel(inst)
            (vp, x), (vd, y) = model.primal, model.dual
        except DualcheckError:
            continue
        assert fractions(x, y)
        if vp.is_finite():
            finite += 1
            assert fractions((vp.value, vd.value))
            assert fractions(recover_dual_via_separation(inst, vp.value, model), (model.dual_value(y).value,))
    assert finite > 50
