from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcheck import inference
from dualcheck import polyhedra as pg
from dualcheck import setexpr as se
from dualcheck.errors import ImproperFunctionError, MalformedInputError, RegimeError
from dualcheck.funcexpr import (
    Affine,
    ArgTranslate,
    ConjugateOf,
    IndicatorOf,
    InfConv,
    MINF,
    NormAtom,
    PINF,
    PlusConst,
    Sum,
    SupOfAffine,
    SymVec,
    conjugate,
    conjugate_polyfunc,
    continuous_everywhere,
    domain,
    domain_lower_bound,
    epi_diff_set,
    er,
    er_add,
    er_le,
    lower,
    lower_set,
    pf_domain,
    pf_falls_forever,
)
from dualcheck.polyhedra import contains, interval, minkowski_sum, poly, whole_space, zero_in, Notion
from dualcheck.spaces import finite, lp_space
from dualcheck.setexpr import HOLDS, FAILS

from oracles import biconjugate_check, fm_flatten, grid, pf_value

F = Fraction


def ind_interval(lo, hi):
    return IndicatorOf(se.PolyAtom(interval(lo, hi)))


def test_extended_real_conventions():
    assert er_add(PINF, MINF) == PINF
    assert er_add(MINF, er(3)) == MINF
    assert er_add(er(2), er(5)) == er(7)
    assert er_le(MINF, er(0)) and er_le(er(0), PINF)


def test_evaluate_indicator():
    f = ind_interval(0, 1)
    assert pf_value(lower(f, 1), (F(1, 2),)) == er(0)
    assert pf_value(lower(f, 1), (F(2),)) == PINF


def test_evaluate_l1_norm():
    f = NormAtom("l1")
    assert pf_value(lower(f, 2), (1, -2)) == er(3)
    assert pf_value(lower(f, 2), (0, 0)) == er(0)


def test_infconv_of_l1_norms_grid_oracle():
    # (||.||_1 box ||.||_1)(1, 0): brute force over an exact grid gives 1
    pts = grid(-2, 2, F(1, 4), 2)
    x = (F(1), F(0))
    best = min(
        sum(abs(c) for c in u) + sum(abs(a - b) for a, b in zip(x, u)) for u in pts
    )
    assert best == 1
    f = InfConv(NormAtom("l1"), NormAtom("l1"))
    assert pf_value(lower(f, 2), x) == er(best) == er(1)


def test_sum_lowering():
    f = Sum(ind_interval(0, 1), ind_interval(1, 2))
    assert pf_value(lower(f, 1), (1,)) == er(0)
    assert pf_value(lower(f, 1), (F(1, 2),)) == PINF
    d = domain(f, finite(1))
    assert isinstance(d, se.PolyAtom)
    assert contains(d.poly, (1,)) and not contains(d.poly, (0,))


@st.composite
def _lifted_boxes(draw, n):
    """A box of R^n written lifted, as the Minkowski sum of two random
    boxes, and its bounds per coordinate."""
    boxes, bounds = [], [(0, 0)] * n
    for _ in range(2):
        ends = [sorted(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))) for _ in range(n)]
        boxes.append(poly(n, [(tuple(s * (k == j) for k in range(n)), s * e[s > 0]) for j, e in enumerate(ends) for s in (1, -1)]))
        bounds = [(lo + c, hi + d) for (lo, hi), (c, d) in zip(bounds, ends)]
    return minkowski_sum(*boxes), bounds


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2).flatmap(_lifted_boxes), st.integers(1, 2).flatmap(_lifted_boxes))
def test_lowered_product_of_boxes_matches_grid_membership(left, right):
    # indicator(product(U, V)) on R^n lowers through polyhedra.product
    (u, ubounds), (v, vbounds) = left, right
    bounds = ubounds + vbounds
    prod = lower_set(se.Product(se.PolyAtom(u), se.PolyAtom(v)), u.n + v.n)
    assert prod.n == u.n + v.n and prod.aux == u.aux + v.aux
    flat = fm_flatten(prod)
    for x in grid(-5, 5, 1, prod.n):
        inside = all(lo <= c <= hi for c, (lo, hi) in zip(x, bounds))
        assert contains(flat, x) == inside
    corners = [tuple(b[k] for b in bounds) for k in (0, 1)]
    for x in corners + [tuple(c + 1 for c in corners[1]), tuple(c - 1 for c in corners[0])]:
        assert contains(prod, x) == contains(flat, x)


@pytest.mark.parametrize("kind", ["l1", "linf"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_trimmed_domain_of_a_norm_has_no_rows(kind, n):
    dom = pf_domain(lower(NormAtom(kind), n))
    assert (dom.n, dom.ineqs, dom.eqs) == (n, (), ())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_tilted_box_keeps_exactly_its_box_rows(n):
    box = poly(n, [(tuple(s * (k == j) for k in range(n)), j + 1 + (s > 0)) for s in (1, -1) for j in range(n)])
    dom = pf_domain(lower(Sum(Affine((F(2),) * n, F(1)), IndicatorOf(se.PolyAtom(box))), n))
    assert (dom.ineqs, dom.eqs, dom.aux) == (box.ineqs, (), 0)


@pytest.mark.parametrize("n", [1, 2])
def test_tilted_and_shared_u_sums_lower_to_their_closed_forms(n):
    # an affine summand without an indicator tilts the other epigraph, and
    # two norms share one auxiliary u; both domains are the whole space
    c, alpha = (F(1, 2), F(-1))[:n], F(1, 2)

    def l1(x):
        return sum(map(abs, x))

    cases = (
        (Sum(Affine(c, alpha), NormAtom("l1")), lambda x: sum(a * b for a, b in zip(c, x)) + alpha + l1(x)),
        (Sum(NormAtom("l1"), NormAtom("linf")), lambda x: l1(x) + max(map(abs, x))),
    )
    for f, value in cases:
        epi = lower(f, n)
        assert epi.n == n + 1
        for x in grid(-1, 1, F(1, 2), n):
            v = value(x)
            for (t,) in grid(-1, 3, F(1, 2), 1) + [(v,), (v - F(1, 4),)]:
                assert contains(epi, x + (t,)) == (t >= v), (f, x, t)
        dom = pf_domain(epi)
        assert (dom.ineqs, dom.eqs) == ((), ())
        for q in (fm_flatten(dom), fm_flatten(pg.project(epi, range(n)))):
            assert (q.ineqs, q.eqs) == ((), ())


def test_domain_rules():
    assert isinstance(domain(NormAtom("l1"), finite(2)), se.WholeSpace)
    dom = domain(ind_interval(0, 1), finite(1))
    assert isinstance(dom, se.PolyAtom)


def test_conjugate_affine_is_point_indicator():
    c = conjugate(Affine((F(2),), F(0)))
    assert isinstance(c, IndicatorOf)
    inner = se.normalize(c.set_)
    assert isinstance(inner, se.PolyAtom)
    assert contains(inner.poly, (2,)) and not contains(inner.poly, (0,))


def test_conjugate_tilted_cone_indicator():
    # (delta_{l2+} + <c,.>)* = delta_{c - l2+}
    cvec = SymVec("c", frozenset({"nonneg", "continuous"}))
    g = Sum(IndicatorOf(se.CatalogAtom(se.LP_PLUS, lp_space(), ())), Affine(cvec))
    gc = conjugate(g)
    assert isinstance(gc, IndicatorOf)
    s = se.normalize(gc.set_)
    assert isinstance(s, se.Translate)
    assert isinstance(s.inner, se.Neg)
    assert isinstance(s.inner.inner, se.CatalogAtom) and s.inner.inner.cid == se.LP_PLUS
    assert isinstance(s.offset, se.SymPoint) and s.offset.name == "c"


def test_conjugate_subspace_indicator():
    f = IndicatorOf(se.CatalogAtom(se.SUBSPACE_C, lp_space(), ()))
    fc = conjugate(f)
    assert isinstance(fc, IndicatorOf)
    assert isinstance(fc.set_, se.CatalogAtom) and fc.set_.cid == se.SUBSPACE_C_PERP


def test_conjugate_norm_plus_kernel_indicator():
    # (||.|| + delta_Ker)* = delta_{B*(0,1) + R x0*}
    from dualcheck.spaces import banach

    g = Sum(NormAtom("l2"), IndicatorOf(se.CatalogAtom(se.KERNEL, banach("X"), ())))
    gc = conjugate(g)
    assert isinstance(gc, IndicatorOf)
    s = gc.set_
    assert isinstance(s, se.MinkSum)
    cids = {op.cid for op in s.operands}
    assert cids == {se.DUAL_BALL, se.FUNCTIONAL_LINE}


def test_conjugate_sum_without_qualification_is_flagged_inexact():
    f = Sum(ind_interval(0, 1), ind_interval(0, 2))
    fc = conjugate(f)
    assert isinstance(fc, InfConv)
    assert not fc.exact
    g = Sum(NormAtom("l1"), ind_interval(0, 1))
    gc = conjugate(g)
    # a continuous summand is an established qualification
    assert not isinstance(gc, InfConv) or gc.exact


def test_biconjugate_involution_on_samples():
    pts1 = grid(-2, 2, F(1, 2), 1)
    f = SupOfAffine((((F(1),), F(0)), ((F(2),), F(-1))))
    # hand oracle: f*(y) = y - 1 on [1, 2], +inf elsewhere
    pf = lower(f, 1)
    star = conjugate_polyfunc(pf)
    for (y,) in grid(-1, 3, F(1, 2), 1):
        expected = er(y - 1) if 1 <= y <= 2 else PINF
        assert pf_value(star, (y,)) == expected
    assert biconjugate_check(f, pts1)
    pts2 = grid(-1, 1, F(1, 2), 2)
    assert biconjugate_check(NormAtom("l1"), pts2)
    assert biconjugate_check(ind_interval(0, 1), pts1)


def test_conjugate_domain_of_bounded_set_support_is_whole_space():
    pf = lower(IndicatorOf(se.PolyAtom(interval(-1, 1))), 1)
    star = conjugate_polyfunc(pf)
    dom = pf_domain(star)
    assert se.attrs(se.PolyAtom(dom)).whole is se.HOLDS
    flat = fm_flatten(dom)
    assert flat.ineqs == () and flat.eqs == ()
    # support function values: |y|
    assert pf_value(star, (3,)) == er(3)
    assert pf_value(star, (-2,)) == er(2)


# epigraphs over (x, t), by hand: without auxiliaries, then lifted over w
FREE_T = poly(2, [((1, 0), 1), ((-1, 0), 1)])  # |x| <= 1, t free
FREE_T_LIFTED = poly(2, [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, -1, 1), 0)], aux=1)  # t >= w, w free
FIXED_T = poly(2, [((1, 0), 1)], [((-2, 1), 3)])  # t = 2x + 3 on x <= 1
FIXED_T_LIFTED = poly(2, [((1, 0, 0), 1)], [((0, 1, -1), 0), ((-2, 0, 1), 3)], aux=1)  # t = w = 2x + 3


@pytest.mark.parametrize(
    "epi, x, value, falls",
    [
        (FREE_T, (0,), MINF, True),
        (FREE_T_LIFTED, (0,), MINF, True),
        (FREE_T, (2,), PINF, True),
        (FREE_T_LIFTED, (2,), PINF, True),
        (FIXED_T, (F(1, 2),), er(4), False),
        (FIXED_T_LIFTED, (F(1, 2),), er(4), False),
        (FIXED_T, (2,), PINF, False),
        (FIXED_T_LIFTED, (2,), PINF, False),
    ],
)
def test_pf_value_and_pf_falls_forever(epi, x, value, falls):
    assert pf_value(epi, x) == value
    assert pf_falls_forever(epi) is falls


def test_conjugate_improper_raises():
    empty = IndicatorOf(se.PolyAtom(poly(1, ineqs=[((1,), -1), ((-1,), 0)])))
    with pytest.raises(ImproperFunctionError):
        conjugate_polyfunc(lower(empty, 1))


def test_l2_norm_is_symbolic_only():
    with pytest.raises(RegimeError):
        lower(NormAtom("l2"), 2)


def test_epi_diff_set_point_indicators():
    f = IndicatorOf(se.PolyAtom(poly(1, eqs=[((1,), 0)])))
    e = epi_diff_set(f, f, 0, finite(1))
    assert isinstance(e, se.PolyAtom)
    assert contains(e.poly, (0, 0)) and contains(e.poly, (0, 5))
    assert not contains(e.poly, (0, -1)) and not contains(e.poly, (1, 0))


def test_epi_diff_set_intervals_vertex_oracle():
    f = ind_interval(0, 1)
    e = epi_diff_set(f, f, 0, finite(1)).poly
    # [-1,1] x [0, inf): check the corner structure
    for pt, inside in [
        ((-1, 0), True),
        ((1, 0), True),
        ((0, 7), True),
        ((F(3, 2), 0), False),
        ((0, -1), False),
    ]:
        assert contains(e, pt) is inside


def test_epi_diff_contains_vertical_ray_at_zero():
    f = ind_interval(-1, 1)
    g = ind_interval(0, 2)
    e = epi_diff_set(f, g, 0, finite(1))
    assert contains(e.poly, (0, 1))  # (0, r) with r > 0


def test_epi_diff_symbolic_indicator_pair_becomes_product():
    c = IndicatorOf(se.CatalogAtom(se.SUBSPACE_C, lp_space(), ()))
    s = IndicatorOf(se.CatalogAtom(se.SUBSPACE_S, lp_space(), ()))
    e = epi_diff_set(c, s, 0, lp_space())
    assert isinstance(e, se.Product)
    base = e.left
    assert isinstance(base, se.MinkSum)


def test_domain_lower_bound():
    assert domain_lower_bound(NormAtom("l2")) == 0
    assert domain_lower_bound(ind_interval(0, 1)) == 0
    cvec = SymVec("c", frozenset({"nonneg", "continuous"}))
    g = Sum(Affine(cvec), IndicatorOf(se.CatalogAtom(se.LP_PLUS, lp_space(), ())))
    assert domain_lower_bound(g) == 0
    e1 = SymVec("e1", frozenset({"coordinate", "continuous"}))
    h = Sum(Affine(e1), IndicatorOf(se.CatalogAtom(se.SUBSPACE_S, lp_space(), ())))
    assert domain_lower_bound(h) is None


def test_continuity_attribute():
    assert continuous_everywhere(NormAtom("l2")) is HOLDS
    f = IndicatorOf(se.CatalogAtom(se.LP_PLUS, lp_space(), ()))
    assert continuous_everywhere(f) is FAILS
    assert continuous_everywhere(Sum(NormAtom("l2"), f)) is FAILS


def test_normalize_cone_absorption_and_eq1():
    plus = se.CatalogAtom(se.LP_PLUS, lp_space(), ())
    assert se.normalize(se.MinkSum((plus, plus))) == plus
    assert se.normalize(se.MinkSum((plus, se.Neg(plus)))) == se.WholeSpace(lp_space())
    u = se.CatalogAtom(se.ABSTRACT_CONVEX, lp_space(), (("label", "U"),))
    via_hull = se.normalize(se.ConeHull(se.ConvexHullWithOrigin(u)))
    direct = se.normalize(se.ConeHull(u))
    assert via_hull == direct


def test_normalize_translate_merge():
    plus = se.CatalogAtom(se.LP_PLUS, lp_space(), ())
    x0 = se.SymPoint("x0", frozenset({"strictly_positive"}))
    nested = se.Translate(se.Translate(plus, x0), se.pneg(x0))
    assert se.normalize(nested) == plus
    numeric = se.Translate(
        se.Translate(se.PolyAtom(interval(0, 1)), se.VecPoint((F(1),))),
        se.VecPoint((F(2),)),
    )
    out = se.normalize(numeric)
    assert isinstance(out, se.PolyAtom)
    assert contains(out.poly, (3,)) and contains(out.poly, (4,)) and not contains(out.poly, (0,))


def test_normalize_subspace_self_difference():
    c = se.CatalogAtom(se.SUBSPACE_C, lp_space(), ())
    assert se.normalize(se.MinkSum((c, se.Neg(c)))) == c


@pytest.mark.parametrize(
    "call",
    [
        lambda: lower(Affine((0.5,), F(0)), 1),
        lambda: lower(Affine((F(1),), 0.1), 1),
        lambda: pf_value(lower(Sum(Affine((0.1,), F(0)), NormAtom("l1")), 1), (F(1),)),
        lambda: lower(SupOfAffine((((F(1),), 0.5),)), 1),
        lambda: lower(PlusConst(NormAtom("l1"), 0.5), 1),
        lambda: pf_value(lower(NormAtom("l1"), 1), (0.1,)),
    ],
)
def test_floats_are_refused_in_affine_data_and_points(call):
    with pytest.raises(MalformedInputError):
        call()


NONNEG = SymVec("v", frozenset({"nonneg"}))
LP_PLUS = IndicatorOf(se.CatalogAtom(se.LP_PLUS, lp_space(), ()))


@pytest.mark.parametrize(
    "call",
    [
        lambda: er(0.1),
        lambda: domain_lower_bound(Affine((0.0,), F(1))),
        lambda: domain_lower_bound(Affine((F(0),), 0.5)),
        lambda: domain_lower_bound(Affine(SymVec("z", frozenset({"zero"})), 0.5)),
        lambda: domain_lower_bound(Sum(Affine(NONNEG, 0.5), LP_PLUS)),
        lambda: biconjugate_check(NormAtom("l1"), [(0.5,)]),
        lambda: inference.nonneg_certificate(LP_PLUS, LP_PLUS, 0.1),
        lambda: inference.conic_nonneg_certificate(NormAtom("l2"), se.CatalogAtom(se.LP_PLUS, lp_space(), ()), 0.1),
    ],
)
def test_floats_are_refused_in_values_and_bounds(call):
    # a float would become a binary fraction: er(0.1) was 3602879701896397/36028797018963968
    with pytest.raises(MalformedInputError):
        call()
