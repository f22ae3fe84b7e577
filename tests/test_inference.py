import random
from fractions import Fraction

from dualcheck import conditions, corpus
from dualcheck import inference as inf
from dualcheck import setexpr as se
from dualcheck.funcexpr import Affine, IndicatorOf, NormAtom, Sum, SymVec
from dualcheck.inference import (
    DeclaredFact,
    Engine,
    interior_is_empty,
    meets_qri,
    nonneg_certificate,
    _RULE_NAMES,
)
from dualcheck.polyhedra import Notion, interval, orthant, poly
from dualcheck.setexpr import FAILS, HOLDS, UNKNOWN, ORIGIN
from dualcheck.spaces import banach, lp_space, lp_uncountable

from oracles import cone_test_all_rules

F = Fraction
L2 = lp_space()
L2R = lp_uncountable()

PLUS = se.CatalogAtom(se.LP_PLUS, L2, ())
PLUS_UNC = se.CatalogAtom(se.LP_PLUS_UNC, L2R, ())
SUB_C = se.CatalogAtom(se.SUBSPACE_C, L2, ())
SUB_S = se.CatalogAtom(se.SUBSPACE_S, L2, ())
KER = se.CatalogAtom(se.KERNEL, banach("X"), ())
POS_SEQ = se.SymPoint("xpos", frozenset({"strictly_positive"}))
KINDS = ("int", "whole_alg", "whole_cl", "sub_closed", "sub_alg", "sub_cl")


def test_positive_cone_catalog_facts():
    # strictly positive sequences sit in the quasi-relative interior
    assert Engine().infer(Notion.QRI, POS_SEQ, PLUS).status is HOLDS
    assert Engine().infer(Notion.QI, POS_SEQ, PLUS).status is HOLDS
    # but every stronger notion set is empty
    for notion in (Notion.INT, Notion.CORE, Notion.SQRI, Notion.ICR):
        assert Engine().infer(notion, POS_SEQ, PLUS).status is FAILS
        assert Engine().infer(notion, ORIGIN, se.CatalogAtom(se.LP_PLUS, L2, ())).status is FAILS
    assert Engine().infer(Notion.QRI, ORIGIN, PLUS).status is FAILS


def test_uncountable_positive_cone_everything_empty():
    assert Engine().infer(Notion.QRI, ORIGIN, se.CatalogAtom(se.LP_PLUS_UNC, L2R, ())).status is FAILS
    assert Engine().infer(Notion.QRI, POS_SEQ, PLUS_UNC).status is FAILS
    assert Engine().infer(Notion.QI, ORIGIN, PLUS_UNC).status is FAILS


def test_cone_difference_is_whole_space():
    diff = se.MinkSum((PLUS, se.Neg(PLUS)))
    out = Engine().infer(Notion.QI, ORIGIN, diff)
    assert out.status is HOLDS
    assert Engine().infer(Notion.INT, ORIGIN, diff).status is HOLDS


def test_closed_subspace_facts():
    assert Engine().infer(Notion.SQRI, ORIGIN, KER).status is HOLDS
    assert Engine().infer(Notion.ICR, ORIGIN, KER).status is HOLDS
    assert Engine().infer(Notion.QRI, ORIGIN, KER).status is HOLDS
    assert Engine().infer(Notion.QI, ORIGIN, KER).status is FAILS
    assert Engine().infer(Notion.CORE, ORIGIN, KER).status is FAILS
    closed = se.CatalogAtom(se.CLOSED_SUBSPACE, banach("X"), (("dense", False), ("whole", False)))
    assert Engine().infer(Notion.QI, ORIGIN, closed).status is FAILS


def test_dense_nonclosed_subspace_difference():
    # C - S for the two interleaved subspaces: dense proper subspace
    d = se.MinkSum((SUB_C, se.Neg(SUB_S)))
    assert Engine().infer(Notion.QI, ORIGIN, d).status is HOLDS
    assert Engine().infer(Notion.SQRI, ORIGIN, d).status is FAILS
    assert Engine().infer(Notion.CORE, ORIGIN, d).status is FAILS
    assert Engine().infer(Notion.ICR, ORIGIN, d).status is HOLDS


def test_polyatom_fallback_matches_zero_in():
    box = se.PolyAtom(poly(2, ineqs=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1)]))
    assert Engine().infer(Notion.QI, ORIGIN, box).status is HOLDS
    corner = se.PolyAtom(orthant(2))
    assert Engine().infer(Notion.QI, ORIGIN, corner).status is FAILS
    assert Engine().infer(Notion.QRI, ORIGIN, corner).status is FAILS
    seg = se.PolyAtom(poly(1, ineqs=[((1,), 1), ((-1,), 1)]))
    assert Engine().infer(Notion.QRI, ORIGIN, seg).status is HOLDS


def test_singleton_facts():
    s0 = se.Singleton(ORIGIN, banach("Z"))
    assert Engine().infer(Notion.QRI, ORIGIN, s0).status is HOLDS
    assert Engine().infer(Notion.SQRI, ORIGIN, s0).status is HOLDS
    assert Engine().infer(Notion.QI, ORIGIN, s0).status is FAILS


def test_product_rule_kills_vertical_ray():
    ray = se.PolyAtom(poly(1, ineqs=[((-1,), 0)]))
    d = se.MinkSum((SUB_C, se.Neg(SUB_S)))
    e = se.Product(d, ray)
    assert Engine().infer(Notion.QRI, ORIGIN, e).status is FAILS
    assert Engine().infer(Notion.QI, ORIGIN, e).status is FAILS


def test_declared_facts_are_terminal():
    c_set = se.CatalogAtom(se.ABSTRACT_CONVEX, banach("X"), (("label", "C"), ("closed", True)))
    x0 = se.SymPoint("x0", frozenset())
    facts = [
        DeclaredFact(
            Notion.QI, x0, c_set, HOLDS, ("Simons 1998, Ex. 11.3", "x0 is not a support point of C")
        )
    ]
    eng = Engine(facts)
    assert eng.infer(Notion.QI, x0, c_set).status is HOLDS
    # chain: qi at x0 implies qri at x0
    assert eng.infer(Notion.QRI, x0, c_set).status is HOLDS
    # a declared qi point of C makes C - C dense
    diff = se.MinkSum((c_set, se.Neg(c_set)))
    assert eng.infer(Notion.QI, ORIGIN, diff).status is HOLDS
    # provenance carries the citation
    prov = eng.infer(Notion.QI, x0, c_set).prov
    assert any("Simons" in c[0] for st in prov for c in st.cites)


def test_nonneg_certificate_positive_cases():
    cvec = SymVec("c", frozenset({"nonneg", "continuous"}))
    f = Sum(NormAtom("l2"), IndicatorOf(se.Translate(se.Neg(PLUS), se.SymPoint("x0", frozenset({"strictly_positive"})))))
    g = Sum(Affine(cvec), IndicatorOf(PLUS))
    st, _ = nonneg_certificate(f, g, 0)
    assert st is HOLDS
    fi = IndicatorOf(SUB_C)
    gi = IndicatorOf(SUB_S)
    st2, _ = nonneg_certificate(fi, gi, 0)
    assert st2 is HOLDS


def test_nonneg_certificate_unknown_when_decoupled_bound_fails():
    e1 = SymVec("e1", frozenset({"coordinate", "continuous"}))
    f = IndicatorOf(SUB_C)
    g = Sum(Affine(e1), IndicatorOf(SUB_S))
    st, _ = nonneg_certificate(f, g, 0)
    assert st is UNKNOWN


def test_epi_diff_cone_exclusion_via_certificate():
    cvec = SymVec("c", frozenset({"nonneg", "continuous"}))
    f = Sum(NormAtom("l2"), IndicatorOf(se.Translate(se.Neg(PLUS), POS_SEQ)))
    g = Sum(Affine(cvec), IndicatorOf(PLUS))
    node = se.EpiDiffSet(f, g, F(0), L2)
    eng = Engine()
    assert eng.cone_test("sub_cl", ORIGIN, node).status is FAILS
    assert eng.cone_test("whole_cl", ORIGIN, node).status is FAILS


def test_interior_is_empty():
    assert interior_is_empty(PLUS) is HOLDS
    assert interior_is_empty(SUB_C) is HOLDS
    assert interior_is_empty(se.Translate(se.Neg(PLUS), POS_SEQ)) is HOLDS
    assert interior_is_empty(se.WholeSpace(L2)) is FAILS
    assert interior_is_empty(se.PolyAtom(interval(0, 1))) is FAILS
    flat = se.PolyAtom(poly(2, eqs=[((0, 1), 0)], ineqs=[((1, 0), 1)]))
    assert interior_is_empty(flat) is HOLDS


def test_meets_qri():
    eng = Engine()
    # origin witness: 0 in Ker and 0 in qri(Ker)
    out = meets_qri(eng, KER, KER)
    assert out.status is HOLDS
    # empty qri refutes
    out2 = meets_qri(eng, se.WholeSpace(L2R), PLUS_UNC)
    assert out2.status is FAILS
    # the origin witnesses polyhedra too; without it the symbolic route
    # stays unknown (numeric instances are decided in conditions by an LP)
    b = se.PolyAtom(interval(-1, F(1, 2)))
    assert meets_qri(eng, se.PolyAtom(interval(0, 1)), b).status is HOLDS
    assert meets_qri(eng, se.PolyAtom(interval(2, 3)), b).status is UNKNOWN


def test_chain_monotonicity_randomized():
    rng = random.Random(5)
    stronger_to_weaker = [
        (Notion.INT, Notion.CORE),
        (Notion.CORE, Notion.SQRI),
        (Notion.SQRI, Notion.ICR),
        (Notion.ICR, Notion.QRI),
        (Notion.CORE, Notion.QI),
        (Notion.QI, Notion.QRI),
    ]
    sets = [
        PLUS,
        PLUS_UNC,
        SUB_C,
        KER,
        se.MinkSum((PLUS, se.Neg(PLUS))),
        se.MinkSum((SUB_C, se.Neg(SUB_S))),
        se.WholeSpace(L2),
        se.Singleton(ORIGIN, L2),
        se.PolyAtom(orthant(2)),
        se.PolyAtom(interval(-1, 1)),
    ]
    for s in sets:
        eng = Engine()
        for strong, weak in stronger_to_weaker:
            a = eng.infer(strong, ORIGIN, s).status
            b = eng.infer(weak, ORIGIN, s).status
            if a is HOLDS:
                assert b is HOLDS, (s, strong, weak)
            if b is FAILS:
                assert a is FAILS, (s, strong, weak)


def test_confluence_under_rule_shuffles():
    rng = random.Random(11)
    sets = [
        PLUS,
        PLUS_UNC,
        SUB_C,
        KER,
        se.MinkSum((SUB_C, se.Neg(SUB_S))),
        se.PolyAtom(orthant(2)),
        se.Singleton(ORIGIN, L2),
        se.WholeSpace(L2),
    ]
    base = {}
    for s in sets:
        for notion in Notion:
            base[(s, notion)] = Engine().infer(notion, ORIGIN, s).status
    for _ in range(6):
        order = list(_RULE_NAMES)
        rng.shuffle(order)
        for s in sets:
            eng = Engine(rule_order=order)
            for notion in Notion:
                assert eng.infer(notion, ORIGIN, s).status is base[(s, notion)], (s, notion, order)


def test_never_both_holds_and_fails():
    sets = [
        PLUS,
        SUB_C,
        KER,
        se.MinkSum((SUB_C, se.Neg(SUB_S))),
        se.PolyAtom(orthant(2)),
        se.WholeSpace(L2),
    ]
    # the ex-5.7 queries carry declared facts, from which the closure decides
    declared, pairs = _ex57_queries()
    cases = [((), ORIGIN, s) for s in sets] + [(declared, p, s) for p, s in pairs]
    closed_by_scheme = 0
    for facts, point, s in cases:
        eng = Engine(facts)
        for kind in KINDS:
            outs = cone_test_all_rules(eng, kind, point, se.normalize(s))
            statuses = {f.status for _, f in outs}
            assert not (HOLDS in statuses and FAILS in statuses), (s, kind, outs)
            # a fact the closure decides is among the facts reported
            fact = eng.cone_test(kind, point, s)
            if fact.prov and fact.prov[-1].rule == "inclusion-scheme":
                assert ("inclusion-scheme", fact) in outs, (s, kind, outs)
                closed_by_scheme += 1
    assert closed_by_scheme > 0


def test_qi_lemma_consistency_where_decided():
    # qi(U) holds iff qri(U) holds and qi(U - U) holds, on decided triples
    sets = [PLUS, SUB_C, KER, se.WholeSpace(L2), se.PolyAtom(interval(-1, 1))]
    for u in sets:
        eng = Engine()
        qi_u = eng.infer(Notion.QI, ORIGIN, u).status
        qri_u = eng.infer(Notion.QRI, ORIGIN, u).status
        diff = se.MinkSum((u, se.Neg(u)))
        qi_d = eng.infer(Notion.QI, ORIGIN, diff).status
        if UNKNOWN not in (qi_u, qri_u, qi_d):
            assert (qi_u is HOLDS) == (qri_u is HOLDS and qi_d is HOLDS), u


def test_set_memos_stay_bounded_and_answer_as_uncached(monkeypatch):
    monkeypatch.setattr(se, "_NORM_MEMO", {})
    monkeypatch.setattr(se, "_ATTR_MEMO", {})
    cap = se.MEMO_CAPACITY
    sets = [se.Neg(se.PolyAtom(interval(-k, k + 1))) for k in range(cap + 100)]
    for s in sets:
        se.normalize(s)
        se.attrs(s)
    assert len(se._NORM_MEMO) == cap and len(se._ATTR_MEMO) == cap
    assert sets[0] not in se._NORM_MEMO and sets[-1] in se._NORM_MEMO
    for s in sets[:50] + sets[-50:]:
        assert se.normalize(s) == se._normalize(s)
        assert se.attrs(s) == se._attrs(s)
    assert len(se._NORM_MEMO) == cap and len(se._ATTR_MEMO) == cap


def test_qi_of_a_polyatom_missing_the_point_fails_under_every_rule_order():
    # the qi lemma leaves polyhedra to the finite-dimensional rule: on an
    # empty set, U - U is empty again and the lemma would recurse for ever
    rng = random.Random(5)
    orders = [list(_RULE_NAMES)]
    for _ in range(6):
        orders.append(list(_RULE_NAMES))
        rng.shuffle(orders[-1])
    for s in (se.PolyAtom(interval(1, 0)), se.PolyAtom(interval(1, 2))):
        for order in orders:
            assert Engine(rule_order=order).infer(Notion.QI, ORIGIN, s).status is FAILS, (s, order)


def test_empty_qri_cite_looks_through_negation_translation_and_scaling():
    wrapped = se.Neg(se.Translate(se.Scale(F(2), PLUS_UNC), se.SymPoint("x0", frozenset())))
    cite = se.catalog_cite(se.LP_PLUS_UNC)
    assert cite and se.empty_qri_cite(PLUS_UNC) == cite
    assert se.empty_qri_cite(wrapped) == cite
    assert se.empty_qri_cite(PLUS) is None
    assert se.empty_qri_cite(se.Closure(PLUS_UNC)) is None
    # meets_qri refutes on the same lookup, citing it
    fact = meets_qri(Engine(), PLUS, wrapped)
    assert fact.status is FAILS and fact.prov[0].cites == (cite,)


def _ex57_queries():
    """The declared facts of the ex-5.7 diagnosis and every (point, set)
    its engine was asked about."""
    pf = corpus.load("ex-5.7-extreme-point-ball")
    ctx = conditions.DiagnosisContext(pf.instance)
    conditions.diagnose(pf.instance, ctx)
    pairs = sorted({(p, s) for _, p, s in ctx.engine._memo}, key=repr)
    return list(ctx.engine.declared.values()), pairs


def test_profiles_are_order_free():
    # every (point, set) the ex-5.7 diagnosis asks about, with its declared
    # facts: each kind's status is the same under shuffled rule orders
    declared, pairs = _ex57_queries()
    assert len({s for _, s in pairs}) == 12
    assert {str(p) for p, _ in pairs} == {"0", "x0", "-x0"}
    queries = [(kind, p, s) for p, s in pairs for kind in KINDS]
    base = Engine(declared)
    expected = [base.cone_test(*q).status for q in queries]
    assert HOLDS in expected and FAILS in expected
    rng = random.Random(7)
    for _ in range(6):
        order = list(_RULE_NAMES)
        rng.shuffle(order)
        eng = Engine(declared, rule_order=order)
        # asked in reverse order too: no answer may lean on the order of queries
        got = [eng.cone_test(*q).status for q in reversed(queries)][::-1]
        assert got == expected, order


def test_each_rule_runs_once_per_query_key(monkeypatch):
    evaluated = []
    for name, rule in inf._RULES.items():
        def counted(e, kind, point, s, name=name, rule=rule):
            evaluated.append((name, kind, point, s))
            return rule(e, kind, point, s)

        monkeypatch.setitem(inf._RULES, name, counted)
    _ex57_queries()
    assert evaluated and len(evaluated) == len(set(evaluated))


def test_a_cone_hull_is_not_proper_for_a_proper_generator():
    # cone(B) = l2 for the unit ball B, though B itself is not dense
    hull = se.ConeHull(se.CatalogAtom(se.DUAL_BALL, L2, ()))
    assert {Engine().infer(notion, ORIGIN, hull).status for notion in Notion} == {UNKNOWN}


def test_subspace_rule_answers_only_at_points_of_the_subspace():
    # co(U u {0}) at 0 asks for the cone of U = w + C at 0, the cone of C at
    # -w; for w outside C that cone closes to a half-space of span(C, w)
    w = se.SymPoint("w")
    assert Engine().cone_test("sub_cl", se.pneg(w), SUB_C).status is UNKNOWN
    assert Engine().infer(Notion.QRI, ORIGIN, se.ConvexHullWithOrigin(se.Translate(SUB_C, w))).status is UNKNOWN
    assert Engine().infer(Notion.QRI, ORIGIN, se.ConvexHullWithOrigin(SUB_C)).status is HOLDS
