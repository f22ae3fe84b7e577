import random
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualcheck import conditions
from dualcheck import corpus
from dualcheck import polyhedra as pg
from dualcheck import setexpr as se
from dualcheck.conditions import (
    Clause,
    ConditionId,
    ConditionVerdict,
    DiagnosisContext,
    FAMILY_FENCHEL,
    _BASE_EDGES,
    _implied_fails,
    _implied_holds,
    _refuted_by_gap,
    _slice_interior_point,
    check_rc8,
    consistency_check,
    diagnose,
    evaluate_condition,
    family_indices,
)
from dualcheck.engine import (
    AffineMap,
    DeclaredValues,
    FenchelInstance,
    LagrangeInstance,
    NumericModel,
)
from dualcheck.errors import ApplicabilityError, DualcheckError, MalformedInputError
from dualcheck.funcexpr import (
    Affine,
    ArgTranslate,
    ConjugateOf,
    IndicatorOf,
    InfConv,
    NormAtom,
    PINF,
    PlusConst,
    PrecomposeLinear,
    Sum,
    SupOfAffine,
    er,
    lower,
    pf_domain,
)
from dualcheck.polyhedra import Notion, contains, interval, orthant, poly
from dualcheck.probfile import SetFactsInstance
from dualcheck.setexpr import FAILS, HOLDS, UNKNOWN
from dualcheck.spaces import finite, lp_space

from oracles import fm_flatten, meets_ri_reference, slice_interior_point_reference, zero_in_reference

import test_numeric_golden as golden
from test_exactlp import _box_l1

F = Fraction


def ind(p):
    return IndicatorOf(se.PolyAtom(p))


def _numeric_pair(f, g, n=1):
    return FenchelInstance("t", finite(n), f, g)


def test_rc3_holds_for_symmetric_intervals():
    # dom f - dom g = [-2, 2]: the origin is in the core
    inst = _numeric_pair(ind(interval(-1, 1)), ind(interval(-1, 1)))
    v = evaluate_condition("3", inst)
    assert v.status is HOLDS
    d = diagnose(inst)
    assert d.strong_duality[0] == "guaranteed-by"
    assert d.verdict("2").status is HOLDS
    assert d.verdict("8").status is HOLDS
    assert d.consistency[0]
    assert d.reverse_check is not None and d.reverse_check[0]


def test_rc_conditions_fail_for_touching_intervals():
    # dom f - dom g = [-1, 1] shifted: f on [0,1], g on [1,2]:
    # difference [-2, 0], the origin is on the boundary
    inst = _numeric_pair(ind(interval(0, 1)), ind(interval(1, 2)))
    d = diagnose(inst)
    assert d.verdict("2").status is FAILS
    assert d.verdict("3").status is FAILS
    # relative interiority also fails at a boundary point of a full-dim set
    assert d.verdict("5").status is FAILS
    # the numeric closedness condition always holds
    assert d.verdict("8").status is HOLDS
    # values still agree (polyhedral strong duality)
    assert d.values.vp == d.values.vd == er(0)
    assert d.strong_duality[0] in ("guaranteed-by", "verified-numerically")
    assert d.consistency[0]


def test_rc4_rc5_on_lower_dimensional_overlap():
    # dom f = dom g = {0}: difference {0}: relative interior holds,
    # interior fails
    point = poly(1, eqs=[((1,), 0)])
    inst = _numeric_pair(ind(point), ind(point))
    d = diagnose(inst)
    assert d.verdict("2").status is FAILS
    assert d.verdict("4").status is HOLDS
    assert d.verdict("5").status is HOLDS
    assert d.verdict("6").status is FAILS  # qi fails in the flat direction
    assert d.consistency[0]


def test_rc1_numeric_continuity():
    inst = _numeric_pair(Sum(NormAtom("l1"), ind(interval(-1, 1))), ind(interval(0, 2)))
    v = evaluate_condition("1", inst)
    assert v.status is HOLDS
    flat = poly(1, eqs=[((1,), 0)])
    inst2 = _numeric_pair(ind(flat), ind(flat))
    assert evaluate_condition("1", inst2).status is FAILS


def test_rc1_for_a_finite_everywhere_g_solves_no_strict_lp(monkeypatch):
    # inf c.x + indicator_B(x) + ||x||_1: dom g has no rows once trimmed, so
    # the feasible x of the standing assumption has Ax interior to dom g
    box = poly(2, [((1, 0), 1), ((-1, 0), 2), ((0, 1), 3), ((0, -1), 1)])
    inst = _numeric_pair(Sum(Affine((F(2), F(0)), F(0)), ind(box)), NormAtom("l1"), 2)

    def refuse(*args):
        raise AssertionError("a strict-feasibility LP was asked for")

    monkeypatch.setattr(conditions, "_meets", refuse)
    assert evaluate_condition("1", inst).status is HOLDS
    d = diagnose(inst)
    assert d.verdict("1").status is HOLDS and d.consistency == (True, ())
    # the continuity clause and RC6''s meets-qri clause name the no-LP route
    for index in ("1", "6'"):
        details = [s.detail for c in d.verdict(index).clauses for s in c.prov if s.rule == "clause"]
        assert conditions.EVERYWHERE in details, index


def test_rc6_numeric_and_separation_consistency():
    inst = _numeric_pair(ind(interval(-1, 1)), ind(interval(-1, 1)))
    v6 = evaluate_condition("6", inst)
    assert v6.status is HOLDS
    from dualcheck.engine import recover_dual_via_separation, dual_objective_value, solve_dual

    dual = recover_dual_via_separation(inst, 0)
    vd, _ = solve_dual(inst)
    assert vd == er(0)
    assert dual_objective_value(inst, dual) == er(0)


def test_phi_family_rejects_primed_and_closedness():
    with pytest.raises(ApplicabilityError):
        ConditionId("phi", "6'")
    with pytest.raises(ApplicabilityError):
        ConditionId("phi", "8")


def test_corrupted_diagnosis_detected():
    inst = _numeric_pair(ind(interval(-1, 1)), ind(interval(-1, 1)))
    d = diagnose(inst)
    assert d.consistency[0]
    # flip RC6 to fails while RC3 holds: the edge RC3 => RC6 must fire
    bad_clause = Clause("forced failure", FAILS)
    tampered = []
    for idx, v in d.verdicts:
        if idx == "6":
            v = ConditionVerdict(v.cid, v.clauses + (bad_clause,))
        tampered.append((idx, v))
    from dataclasses import replace

    bad = replace(d, verdicts=tuple(tampered))
    ok, violations = consistency_check(bad)
    assert not ok
    assert any("RC3" in msg and "RC6" in msg for msg in violations)


def test_consistency_check_respects_edge_hypotheses():
    from dataclasses import replace

    from dualcheck import corpus

    # l2: RC6 holds while RC8 fails, and the finite-dimensional edge does not apply
    d = diagnose(corpus.load("ex-5.6-two-dense-subspaces").instance)
    assert "finite_dim" not in d.hypotheses
    assert d.verdict("6").status is HOLDS and d.verdict("8").status is FAILS
    assert consistency_check(d) == d.consistency == (True, ())
    # in finite dimension the same pattern violates the collapse edge RC6 => RC8
    numeric = diagnose(_numeric_pair(ind(interval(-1, 1)), ind(interval(-1, 1))))
    assert "finite_dim" in numeric.hypotheses
    forced = Clause("forced failure", FAILS)
    tampered = tuple(
        (idx, ConditionVerdict(v.cid, (forced,)) if idx == "8" else v) for idx, v in numeric.verdicts
    )
    ok, violations = consistency_check(replace(numeric, verdicts=tampered))
    assert not ok
    assert "RC6 holds but RC8 fails (finite-dimensional collapse)" in violations


def test_lagrange_slater_numeric():
    box = poly(2, ineqs=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)])
    gmap = AffineMap(((F(1), F(1)),), (F(-1),))
    cone = se.PolyAtom(poly(1, ineqs=[((-1,), 0)]))
    inst = LagrangeInstance(
        instance_id="lag",
        xspace=finite(2),
        zspace=finite(1),
        f=Affine((F(1), F(1)), F(0)),
        sset=se.PolyAtom(box),
        gmap=gmap,
        cone=cone,
    )
    d = diagnose(inst)
    assert d.verdict("1").status is HOLDS  # g(0,0) = -1 is interior to -R_+
    assert d.strong_duality[0] == "guaranteed-by"
    assert d.values.vp == d.values.vd == er(0)
    assert d.consistency[0]


def test_lagrange_zero_cone_blocks_slater():
    # C = {0} and S a proper subspace: Slater impossible, the projected
    # set is {0}, so the relative notions hold while the quasi-interior fails
    sub = poly(2, eqs=[((0, 1), 0)])  # the x1-axis inside R^2
    gmap = AffineMap(((F(1), F(0)), (F(0), F(1))), (F(0), F(0)))
    cone = se.PolyAtom(poly(2, eqs=[((1, 0), 0), ((0, 1), 0)]))
    inst = LagrangeInstance(
        instance_id="lag0",
        xspace=finite(2),
        zspace=finite(2),
        f=NormAtom("l1"),
        sset=se.PolyAtom(sub),
        gmap=gmap,
        cone=cone,
    )
    d = diagnose(inst)
    assert d.verdict("1").status is FAILS
    # pr set = S + {0} = the x1-axis: relative notions hold at the origin
    assert d.verdict("4").status is HOLDS
    assert d.verdict("5").status is HOLDS
    assert d.verdict("6").status is FAILS
    assert d.verdict("6'").status is FAILS  # cl(C - C) = {0} is not the space
    assert d.consistency[0]


def test_symbolic_dense_subspace_pair():
    # indicator pair on the interleaved dense subspaces: the quasi-interior
    # condition holds, the closedness one fails (declared witness)
    from dualcheck.engine import SpecialFact

    c_atom = se.CatalogAtom(se.SUBSPACE_C, lp_space(), ())
    s_atom = se.CatalogAtom(se.SUBSPACE_S, lp_space(), ())
    inst = FenchelInstance(
        instance_id="dense-pair",
        space=lp_space(),
        f=IndicatorOf(c_atom),
        g=IndicatorOf(s_atom),
        values=DeclaredValues(
            vp=er(0), vp_attained=True, vp_solution="0",
            vd=er(0), vd_attained=True, vd_solution="{0}",
        ),
    )
    d = diagnose(inst)
    assert d.verdict("6").status is HOLDS
    assert d.verdict("6'").status is FAILS
    assert d.verdict("2").status is FAILS
    assert d.verdict("5").status is FAILS
    assert d.verdict("8").status is FAILS  # derived: the perp sum is not closed
    assert d.strong_duality == ("guaranteed-by", "RC6")
    assert d.consistency[0]


def test_check_rc8_declared_witness_wins():
    from dualcheck.engine import SpecialFact

    c_atom = se.CatalogAtom(se.SUBSPACE_C, lp_space(), ())
    s_atom = se.CatalogAtom(se.SUBSPACE_S, lp_space(), ())
    inst = FenchelInstance(
        instance_id="witnessed",
        space=lp_space(),
        f=IndicatorOf(c_atom),
        g=IndicatorOf(s_atom),
        rc8_fact=SpecialFact(
            FAILS,
            ("Gowda-Teboulle 1990, Ex. 3.3", "(e^1 + S-perp) cap C-perp is empty"),
            "witness e^1: the infimal convolution of the conjugates jumps to +inf",
        ),
        values=DeclaredValues(vp=er(0), vp_attained=True, vd=er(0), vd_attained=True),
    )
    v = check_rc8(inst)
    assert v.status is FAILS
    assert any("e^1" in (c.prov[0].detail if c.prov else "") for c in v.clauses if c.status is FAILS)


def test_gap_propagates_failures():
    # declared gap: every sufficient condition must come out failed
    c_atom = se.CatalogAtom(se.SUBSPACE_C, lp_space(), ())
    s_atom = se.CatalogAtom(se.SUBSPACE_S, lp_space(), ())
    e1 = se.SymPoint("e1", frozenset({"coordinate", "continuous"}))
    from dualcheck.funcexpr import SymVec

    inst = FenchelInstance(
        instance_id="gap",
        space=lp_space(),
        f=IndicatorOf(c_atom),
        g=Sum(Affine(SymVec("e1", frozenset({"coordinate", "continuous"}))), IndicatorOf(s_atom)),
        values=DeclaredValues(vp=er(0), vp_attained=True, vd=None),
    )
    from dataclasses import replace
    from dualcheck.funcexpr import MINF

    inst = replace(inst, values=replace(inst.values, vd=MINF))
    d = diagnose(inst)
    assert d.strong_duality[0] == "gap-detected"
    for idx, v in d.verdicts:
        assert v.status is FAILS, idx
    assert d.consistency[0]


@st.composite
def _slice_domains(draw):
    nx, ny = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    n = nx + ny
    row = st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(-2, 4))
    eq = st.tuples(st.tuples(*[st.integers(-1, 1)] * nx + [st.just(0)] * ny), st.integers(-1, 1))
    return nx, ny, draw(st.lists(row, max_size=6)), draw(st.lists(eq, max_size=1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_slice_domains())
@example((1, 2, [((0, 1, 1), 0)], []))  # the slice is a half-plane through 0
@example((1, 1, [((1, 0), 1)], [((0, 1), 0)]))  # an equality in y
def test_slice_interior_point_matches_sign_enumeration(system):
    nx, ny, ineqs, eqs = system
    dom = poly(nx + ny, ineqs, eqs)
    assert _slice_interior_point(dom, nx, ny) == slice_interior_point_reference(dom, nx, ny)


@st.composite
def _lifted_slice_domains(draw):
    nx, ny, aux = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    w = nx + ny + aux
    row = st.tuples(st.tuples(*[st.integers(-2, 2)] * w), st.integers(-1, 3))
    eq = st.tuples(st.tuples(*[st.integers(-1, 1)] * w), st.integers(-1, 1))
    return nx, ny, poly(nx + ny, draw(st.lists(row, max_size=6)), draw(st.lists(eq, max_size=1)), aux)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_lifted_slice_domains())
@example((1, 1, poly(2, [((0, 1, -1), 0), ((0, -1, -1), 0)], [((1, 0, 0), 0)], 1)))  # |y| <= w, w free
def test_slice_interior_point_on_lifted_domains_matches_the_eliminated_one(system):
    # the lifted test (affine hull plus one ri point at y = 0) against the
    # sign enumeration on the Fourier-Motzkin projection of the domain
    nx, ny, dom = system
    assert _slice_interior_point(dom, nx, ny) == slice_interior_point_reference(fm_flatten(dom), nx, ny)


def test_continuity_with_an_operator_needs_ax_in_the_interior_of_dom_g():
    # f = indicator of {0}, g = indicator of (-inf, 0], A = 0: A x = 0 sits on
    # the boundary of dom g, so neither summand is continuous anywhere on
    # the joint domain; a vanishing row of dom g pulled back by A must stay
    inst = FenchelInstance(
        "zero-map", finite(1), ind(poly(1, eqs=[((1,), 0)])), ind(poly(1, ineqs=[((1,), 0)])),
        amap=((F(0),),), gspace=finite(1),
    )
    d = diagnose(inst)
    assert d.verdict("1").status is FAILS
    assert d.consistency == (True, ())


def _zoo(n):
    """Twelve numeric function forms on R^n, by name.  The box is [0, 1]^n
    and the translated box [1, 2]^n, so the two only touch."""
    def box():
        rows = [(tuple(F(int(k == j)) for k in range(n)), F(1)) for j in range(n)]
        return ind(poly(n, rows + [(tuple(-c for c in e), F(0)) for e, _ in rows]))

    e1 = tuple(F(int(k == 0)) for k in range(n))
    half, ones = (F(1, 2),) * n, (F(1),) * n
    shear = tuple(tuple(F(2 if j == i else int(j == i + 1)) for j in range(n)) for i in range(n))
    return {
        "norm1": NormAtom("l1"),
        "norminf": NormAtom("linf"),
        "box": box(),
        "maxaff": SupOfAffine(((e1, F(0)), ((F(-1),) * n, F(1)))),
        "sum": Sum(NormAtom("l1"), box()),
        "tilt": Sum(Affine(half, F(1)), box()),
        "infconv": InfConv(NormAtom("l1"), box()),
        "plusconst": PlusConst(NormAtom("linf"), F(1)),
        "argtranslate": ArgTranslate(box(), ones),
        "precompose": PrecomposeLinear(shear, NormAtom("l1")),
        "conjugate(norm1)": ConjugateOf(NormAtom("l1")),
        "conjugate(box)": ConjugateOf(box()),
    }


ZOO_NAMES = tuple(_zoo(1))


@st.composite
def _zoo_pairs(draw):
    n = draw(st.integers(1, 2))
    f = _zoo(n)[draw(st.sampled_from(ZOO_NAMES))]
    if not draw(st.booleans()):
        return FenchelInstance("zoo", finite(n), f, _zoo(n)[draw(st.sampled_from(ZOO_NAMES))])
    m = draw(st.integers(1, 2))
    amap = tuple(tuple(F(draw(st.integers(-2, 2))) for _ in range(n)) for _ in range(m))
    g = _zoo(m)[draw(st.sampled_from(ZOO_NAMES))]
    return FenchelInstance("zoo", finite(n), f, g, amap=amap, gspace=finite(m))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_zoo_pairs())
@example(FenchelInstance("conj", finite(1), ConjugateOf(NormAtom("l1")), Affine((F(1, 2),), F(0))))
@example(FenchelInstance("neg", finite(1), ind(interval(1, 2)), ind(interval(-2, 1)), amap=((F(-1),),), gspace=finite(1)))
@example(FenchelInstance("zero-map", finite(1), NormAtom("l1"), ind(interval(0, 1)), amap=((F(0),),), gspace=finite(1)))
@example(  # A(dom f) meets ri(dom g) but dom g, a segment in R^2, has no interior
    FenchelInstance(
        "flat-g", finite(1), NormAtom("l1"), ind(poly(2, [((1, 0), 1), ((-1, 0), 0)], [((0, 1), 0)])),
        amap=((F(1),), (F(0),)), gspace=finite(2),
    )
)
def test_numeric_zoo_pairs_diagnose_and_meet_qri_as_the_reference(inst):
    # every form diagnoses (conjugates and precompositions included); the
    # meets-qri clause is A(dom f) against ri(dom g), operator included, and
    # RC1's continuity clause is A(dom f) against int(dom g); with A = 0 the
    # continuity of f at x' puts no point of A(dom f) - dom g in its
    # interior, so it no longer makes RC1 hold against RC2-RC7
    try:
        ctx = DiagnosisContext(inst)
    except MalformedInputError:  # the standing assumption: a feasible primal
        assert NumericModel(inst).primal[0] == PINF
        return
    d = diagnose(inst, ctx)
    assert consistency_check(d) == (True, ())
    meets = evaluate_condition("6'", inst, ctx).clauses[0]
    dom_f = pf_domain(lower(inst.f, inst.space.dim))
    dom_g = pf_domain(lower(inst.g, inst.yspace.dim))
    assert meets.status is (HOLDS if meets_ri_reference(dom_f, dom_g, inst.amap) else FAILS)
    assert ctx.g_continuous == meets_ri_reference(dom_f, dom_g, inst.amap, interior=True)


STATUSES = st.sampled_from((HOLDS, FAILS, UNKNOWN))


def _status_reference(clauses) -> se.FactStatus:
    statuses = [c.status for c in clauses]
    if FAILS in statuses:
        return FAILS
    return HOLDS if all(x is HOLDS for x in statuses) else UNKNOWN


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(STATUSES, max_size=6).map(tuple), st.sampled_from(_BASE_EDGES))
def test_a_verdict_status_is_its_clauses_conjunction(statuses, edge):
    v = ConditionVerdict(ConditionId(FAMILY_FENCHEL, edge.dst), tuple(Clause(f"c{i}", x) for i, x in enumerate(statuses)))
    assert v.status is _status_reference(v.clauses)
    assert vars(v)["status"] is v.status  # stored by the first read
    # the verdicts the closure derives from one whose status was already read
    for derived in (_implied_holds(v, edge), _implied_fails(v, edge), _refuted_by_gap(v)):
        assert derived.status is _status_reference(derived.clauses)
    assert _implied_holds(v, edge).status is HOLDS
    assert _implied_fails(v, edge).status is FAILS and _refuted_by_gap(v).status is FAILS


def _corpus_instances():
    for entry in corpus.list_entries():
        instance = corpus.load(entry).instance
        if not isinstance(instance, SetFactsInstance):
            yield instance


def test_shared_clauses_are_built_once_per_context(monkeypatch):
    # RC2-RC5, RC8 and the lsc hypothesis share the lsc clauses; RC6', RC6
    # and RC7 share the exclusion clause
    calls = []

    def counted(name, build):
        def wrapper(ctx):
            calls.append((name, ctx))
            return build(ctx)

        return wrapper

    monkeypatch.setattr(conditions, "_lsc_clauses", counted("lsc", conditions._lsc_clauses))
    monkeypatch.setattr(conditions, "_exclusion_clause", counted("exclusion", conditions._exclusion_clause))
    diagnosed = 0
    for instance in (*_corpus_instances(), *golden._instances()):
        calls.clear()
        try:
            ctx = DiagnosisContext(instance)
            diagnose(instance, ctx)
        except DualcheckError:
            continue
        assert sorted(name for name, _ in calls) == ["exclusion", "lsc"], instance.instance_id
        assert all(seen is ctx for _, seen in calls)
        diagnosed += 1
    assert diagnosed > 100


def test_a_condition_without_a_context_is_the_diagnosis_verdict():
    for instance in _corpus_instances():
        ctx = DiagnosisContext(instance)
        diagnose(instance, ctx)
        for index in family_indices(ctx.family):
            alone = evaluate_condition(index, instance)
            assert alone == evaluate_condition(index, instance, ctx), (instance.instance_id, index)
            assert alone.status is evaluate_condition(index, instance, ctx).status
        if ctx.family != conditions.FAMILY_PHI:
            assert check_rc8(instance) == check_rc8(instance, ctx)


# -- the shifted epigraph, decided by the primal certificate ---------------------


EXCLUSION = "the origin pair avoids the quasi-relative interior of the shifted epigraph projection"


def _exclusion(d):
    return next(c for c in d.verdict("6").clauses if c.text == EXCLUSION)


def test_a_primal_certificate_that_does_not_replay_declares_nothing(monkeypatch):
    # one primal multiplier moved: no qri fact on E, the reverse check fails
    # and says why, and the strict LP on E decides the exclusion clause, as
    # it did before the certificate did
    inst = _box_l1([-2, -1], [1, 3], [2, 0])
    sound = diagnose(inst)
    real = NumericModel._primal_lp.func

    def corrupted(model):
        prog, out = real(model)
        k = next(i for i, y in enumerate(out.dual) if y)
        return prog, replace(out, dual=out.dual[:k] + (out.dual[k] + 1,) + out.dual[k + 1 :])

    prop = cached_property(corrupted)
    prop.__set_name__(NumericModel, "_primal_lp")
    monkeypatch.setattr(NumericModel, "_primal_lp", prop)
    ctx = DiagnosisContext(inst)
    d = diagnose(inst, ctx)
    assert not ctx.model.certified
    assert not any(notion is Notion.QRI for notion, _, _ in ctx.engine.declared)
    assert d.reverse_check == (False, "the primal multipliers did not replay, so nothing keeps the origin pair from the quasi-interior")
    assert sound.reverse_check == (True, "the origin pair avoids the quasi-interior, as strong duality demands")
    clause, before = _exclusion(d), _exclusion(sound)
    assert clause.status is before.status is HOLDS
    assert [s.rule for s in clause.prov] == ["declared", "finite-dim"]
    assert [s.rule for s in before.prov] == ["declared", "declared"]
    assert [(i, v.status) for i, v in d.verdicts] == [(i, v.status) for i, v in sound.verdicts]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(golden.FAMILIES)), st.integers(0, 2**16), st.integers(0, 11))
def test_the_certified_qri_fact_agrees_with_the_flattened_epigraph(family, seed, i):
    # for every finite v(0) the origin pair lies in E but in neither ri E nor
    # int E, read off E written without auxiliaries
    inst = golden.FAMILIES[family][0](random.Random(seed), i)
    try:
        ctx = DiagnosisContext(inst)
    except DualcheckError:
        return
    if not ctx.values.vp.is_finite():
        return
    epi = ctx.view.epi_pr
    assert ctx.model.certified
    assert ctx.engine.declared[(Notion.QRI, se.ORIGIN, epi)].status is FAILS
    flat = fm_flatten(epi.poly)
    assert contains(flat, (0,) * flat.n)
    assert not zero_in_reference(Notion.QRI, flat) and not zero_in_reference(Notion.INT, flat)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_cold_box_l1_diagnosis_solves_no_lp_on_the_shifted_epigraph(n, monkeypatch):
    def refuse(notion, p):
        raise AssertionError("an interiority LP")

    monkeypatch.setattr(pg, "zero_in", refuse)
    golden._clear_memos()
    d = diagnose(_box_l1([-1 - j for j in range(n)], [2 + j for j in range(n)], [2 * (1 - j % 2) for j in range(n)]))
    assert d.reverse_check[0] and _exclusion(d).status is HOLDS
