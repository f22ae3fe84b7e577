import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualcheck import exactlp
from dualcheck import polyhedra as pg
from dualcheck import setexpr as se
from dualcheck.errors import DimensionMismatchError, EmptyPolyhedronError, MalformedInputError, MembershipError
from dualcheck.exactlp import Optimal, dot
from dualcheck.funcexpr import NormAtom, lower, pf_domain
from dualcheck.polyhedra import (
    Notion,
    affine_hull,
    contains,
    extremum,
    implicit_rows,
    interval,
    intersect,
    is_empty,
    minkowski_sum,
    neg,
    orthant,
    poly,
    project,
    ri_point,
    singleton,
    translate,
    whole_space,
    zero_in,
)

import oracles
from oracles import (
    FinitelyGeneratedCone,
    cone_member,
    dual_cone,
    enumerate_vertices,
    fm_flatten,
    fm_project,
    hull_basis,
    hull_contains,
    hull_dim,
    implicit_rows_reference,
    is_linear_subspace,
    is_trivial_cone,
    normal_cone,
    prune_lp_reference,
    pull_reference,
    zero_in_reference,
)

F = Fraction


def square():
    return poly(2, ineqs=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)])


def test_affine_hull_forced_equality():
    p = poly(2, ineqs=[((-1, 0), 0), ((1, 0), 0)])  # x1 >= 0 and x1 <= 0
    hull = affine_hull(p)
    assert hull.rank() == 1
    assert hull_contains(hull, (0, 5))
    assert not hull_contains(hull, (1, 0))


def test_affine_hull_full_dimensional_square():
    assert affine_hull(square()).is_whole()


def test_affine_hull_vertex_pinned_by_three_rows():
    # x1+x2 <= 0, -x1 <= 0, -x2 <= 0 pins the origin; frozen from the
    # sign-pattern enumeration: only (0,0) satisfies all three.
    p = poly(2, ineqs=[((1, 1), 0), ((-1, 0), 0), ((0, -1), 0)])
    verts = enumerate_vertices(p.ineqs, [], 2)
    assert verts == [(F(0), F(0))]
    hull = affine_hull(p)
    assert hull_dim(hull) == 0
    assert hull_contains(hull, (0, 0))
    assert set(implicit_rows(p)) == {0, 1, 2}


def test_affine_hull_empty_raises():
    p = poly(1, ineqs=[((1,), -1), ((-1,), 0)])
    with pytest.raises(EmptyPolyhedronError):
        affine_hull(p)


def test_relative_interior_point_interval():
    p = interval(-2, 0)
    x = ri_point(p)[: p.n]
    assert x is not None
    assert -2 < x[0] < 0


def test_relative_interior_point_respects_implicit_rows():
    p = poly(
        2,
        ineqs=[((-1, 0), 0), ((1, 0), 0), ((0, -1), 0), ((0, 1), 1)],
    )
    x = ri_point(p)[: p.n]
    assert x[0] == 0
    assert 0 < x[1] < 1
    # every non-implicit row strict
    imp = set(implicit_rows(p))
    for idx, (a, b) in enumerate(p.ineqs):
        if idx not in imp:
            assert dot(a, x) < b


def test_relative_interior_point_empty():
    p = poly(1, ineqs=[((1,), -1), ((-1,), 0)])
    assert ri_point(p) is None


def test_zero_in_qri_examples():
    assert not zero_in(Notion.QRI, orthant(2))  # vertex of the orthant
    segment = poly(2, ineqs=[((1, 0), 1), ((-1, 0), 1)], eqs=[((0, 1), 0)])
    assert zero_in(Notion.QRI, segment)


def test_zero_in_qi_box_examples():
    sym = poly(2, ineqs=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1)])
    assert zero_in(Notion.QI, sym)
    assert not zero_in(Notion.QI, square())


VACUOUS_ROWS = [
    # [-1, 1] with a vacuous 0 = 0 equation, then a vacuous 0 <= 0 inequality
    # (int rows written raw: ``poly`` would drop the vacuous ones)
    pg.Polyhedron(1, (((1,), 1), ((-1,), 1)), (((0,), 0),)),
    pg.Polyhedron(1, (((1,), 1), ((-1,), 1), ((0,), 0)), ()),
    # the same interval lifted over a free auxiliary, with 0 = 0
    pg.Polyhedron(1, (((1, 0), 1), ((-1, 0), 1)), (((0, 0), 0),), 1),
]


@pytest.mark.parametrize("p", VACUOUS_ROWS)
@pytest.mark.parametrize("notion", list(Notion))
def test_zero_in_ignores_vacuous_rows(p, notion):
    assert zero_in(notion, p)


def test_translate_and_pull_refuse_misshapen_vectors():
    with pytest.raises(DimensionMismatchError):
        translate(interval(-1, 1), (1, 2))
    b = pg.BlockRows(("x", 2), ("t", 1))
    with pytest.raises(DimensionMismatchError):
        b.pull(interval(-1, 1), (1, {"x": ((F(1), F(0), F(0)),)}))
    with pytest.raises(DimensionMismatchError):
        b.pull(interval(-1, 1), (1, {"x": ((F(1), F(0)), (F(0), F(1)))}))
    with pytest.raises(DimensionMismatchError):  # a scalar is a square block
        b.pull(interval(-1, 1), (1, {"x": 1}))


@pytest.mark.parametrize(
    "call",
    [
        lambda: poly(1, [((0.5,), 1)]),
        lambda: poly(1, [((1,), 0.1)]),
        lambda: poly(1, eqs=[((1,), 0.1)]),
        lambda: contains(interval(0, 1), (0.1,)),
        lambda: interval(0.1, 1),
        lambda: pg.at_most(0.1),
        lambda: pg.scale(interval(0, 1), 0.5),
        lambda: extremum(interval(0, 1), (0.5,), "max"),
    ],
)
def test_floats_are_refused_not_made_binary_fractions(call):
    with pytest.raises(MalformedInputError):
        call()


def test_zero_in_monotone_chain():
    rng = random.Random(7)
    order_a = [Notion.INT, Notion.CORE, Notion.SQRI, Notion.ICR, Notion.QRI]
    order_b = [Notion.CORE, Notion.QI, Notion.QRI]
    for _ in range(40):
        p = _random_poly_containing_zero(rng, rng.randint(1, 3))
        for chain in (order_a, order_b):
            vals = [zero_in(nt, p) for nt in chain]
            for stronger, weaker in zip(vals, vals[1:]):
                assert not (stronger and not weaker)


def test_normal_cone_orthant():
    p = orthant(2)
    k0 = normal_cone(p, (0, 0))
    assert set(k0.generators) == {(F(-1), F(0)), (F(0), F(-1))}
    k_in = normal_cone(p, (1, 1))
    assert is_trivial_cone(k_in)
    k_edge = normal_cone(p, (1, 0))
    assert k_edge.generators == ((F(0), F(-1)),)
    # definition check on sample points y of the set
    for y in [(F(0), F(0)), (F(2), F(0)), (F(0), F(3)), (F(1), F(1))]:
        for g in k_edge.generators:
            assert dot(g, (y[0] - 1, y[1] - 0)) <= 0


def test_normal_cone_outside_point_raises():
    with pytest.raises(MembershipError):
        normal_cone(orthant(2), (-1, 0))


def test_is_linear_subspace():
    line = FinitelyGeneratedCone(2, ((F(1), F(0)), (F(-1), F(0))), ())
    assert is_linear_subspace(line)
    quadrant = FinitelyGeneratedCone(2, ((F(1), F(0)), (F(0), F(1))), ())
    assert not is_linear_subspace(quadrant)
    # four generators spanning the whole plane
    plane = FinitelyGeneratedCone(
        2,
        ((F(1), F(1)), (F(-1), F(-1)), (F(1), F(-1)), (F(-1), F(1))),
        (),
    )
    assert is_linear_subspace(plane)
    for g in plane.generators:
        assert cone_member(plane, tuple(-c for c in g))


def test_dual_cone():
    orth = FinitelyGeneratedCone(2, ((F(1), F(0)), (F(0), F(1))), ())
    d = dual_cone(orth)
    assert contains(d, (1, 1)) and contains(d, (0, 0))
    assert not contains(d, (-1, 0))
    trivial = FinitelyGeneratedCone(2, (), ())
    assert dual_cone(trivial).ineqs == () and dual_cone(trivial).eqs == ()
    ray = FinitelyGeneratedCone(2, ((F(1), F(1)),), ())
    dr = dual_cone(ray)
    assert contains(dr, (1, 0)) and contains(dr, (0, 1))
    assert not contains(dr, (-1, 0))


def test_project_equality_substitution():
    p = poly(2, ineqs=[((0, 1), 1), ((0, -1), 0)], eqs=[((1, -1), 0)])  # x=y, 0<=y<=1
    for q in (project(p, [0]), fm_project(p, [0])):
        assert contains(q, (0,)) and contains(q, (1,)) and contains(q, (F(1, 2),))
        assert not contains(q, (2,)) and not contains(q, (-1,))
    assert project(p, [0]).aux == 1 and fm_project(p, [0]).aux == 0


def test_project_cube_to_square():
    cube = poly(
        3,
        ineqs=[
            ((1, 0, 0), 1),
            ((0, 1, 0), 1),
            ((0, 0, 1), 1),
            ((-1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 0, -1), 0),
        ],
    )
    for q in (project(cube, [0, 1]), fm_project(cube, [0, 1])):
        for pt, inside in [((0, 0), True), ((1, 1), True), ((F(1, 2), 1), True), ((2, 0), False)]:
            assert contains(q, pt) is inside


def test_project_matches_lp_bounds():
    # x1+x2 <= 1, x2 >= 0 projected to x1 is exactly {x1 <= 1}
    p = poly(2, ineqs=[((1, 1), 1), ((0, -1), 0)])
    q = fm_project(p, [0])
    assert isinstance(extremum(project(p, [0]), (1,), "max"), Optimal)
    hi = extremum(p, (1, 0), "max")
    assert isinstance(hi, Optimal) and hi.value == 1
    assert q.eqs == ()
    assert len(q.ineqs) == 1
    a, b = q.ineqs[0]
    assert b / a[0] == 1 and a[0] > 0
    lo = extremum(p, (1, 0), "min")
    assert not isinstance(lo, Optimal)  # unbounded below, so one-sided H-rep

    # x2 makes fewer Fourier-Motzkin rows than x1, so it goes first
    p = poly(
        4,
        ineqs=[
            ((1, 1, 0, 0), 3),
            ((-1, 1, 0, 1), 3),
            ((0, 1, 1, 0), 2),
            ((1, -1, 0, -1), 3),
            ((-1, -1, 0, 0), 3),
            ((0, 0, -1, 1), 1),
            ((0, 0, 0, -1), 2),
        ],
    )
    rows = oracles._dedupe([(a, b, None) for a, b in p.ineqs])
    assert oracles._next_var(rows, [], [1, 2]) == 2
    for q in (project(p, [0, 3]), fm_project(p, [0, 3])):
        for d in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (2, -1), (-1, -3)]:
            for sense in ("max", "min"):
                got = extremum(q, d, sense)
                want = extremum(p, (d[0], 0, 0, d[1]), sense)
                assert type(got) is type(want)
                if isinstance(want, Optimal):
                    assert got.value == want.value


def _violates_only(rows, eqs, i, w):
    """Does w satisfy the equalities and every row but row i, which it violates?"""
    return all(dot(e, w) == d for e, d in eqs) and all(
        (dot(a, w) <= b) != (j == i) for j, (a, b, _) in enumerate(rows)
    )


@st.composite
def _int_systems(draw):
    n = draw(st.integers(1, 4))

    def rows(coeff, rhs, most):
        row = st.tuples(st.tuples(*[st.integers(-coeff, coeff)] * n), st.integers(-rhs, rhs))
        return st.lists(row, max_size=most)

    return n, draw(rows(3, 4, 8)), draw(rows(2, 2, 2)), draw(st.integers(0, n - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_int_systems())
@example((2, [((1, 0), -1), ((-1, 0), 0), ((0, 1), 1), ((1, 1), 2)], [], 1))  # empty
@example((2, [((1, 1), 1), ((1, -1), 1), ((0, 1), 2), ((1, 2), 4)], [], 1))  # unbounded
@example((3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((-1, -1, 1), 0), ((0, 0, -1), 0)], [((1, 1, 1), 1)], 0))
def test_prune_with_witnesses_matches_lp_per_row(system):
    # prune once for witnesses, eliminate x_k carrying them, prune again:
    # every carried witness must be valid, and the second prune must keep
    # exactly the rows, in order, that one LP per row keeps
    n, ineqs, eqs, k = system
    p = poly(n, ineqs, eqs)
    rows = oracles._dedupe([(a, b, None) for a, b in p.ineqs])
    eqs = list(p.eqs)
    if len(rows) > 1:
        rows = oracles._prune_lp(rows, eqs, n)
    rows, eqs = oracles._eliminate(rows, eqs, k)
    rows = oracles._dedupe(rows)
    for i, (_, _, w) in enumerate(rows):
        assert w is None or _violates_only(rows, eqs, i, w)
    got = oracles._prune_lp(rows, eqs, n)
    assert [(a, b) for a, b, _ in got] == prune_lp_reference([(a, b) for a, b, _ in rows], eqs, n)
    for i, (_, _, w) in enumerate(got):
        assert _violates_only(got, eqs, i, w)


def test_minkowski_interval_sums():
    a = interval(0, 1)
    b = interval(0, 1)
    s = minkowski_sum(a, b)
    assert contains(s, (0,)) and contains(s, (2,)) and contains(s, (F(3, 2),))
    assert not contains(s, (F(-1, 10),)) and not contains(s, (F(21, 10),))


def test_minkowski_ray_difference_whole_line():
    plus = poly(1, ineqs=[((-1,), 0)])
    s = fm_flatten(minkowski_sum(plus, neg(plus)))
    assert s.ineqs == () and s.eqs == ()


def test_minkowski_triangle_plus_segment_vertex_oracle():
    tri = poly(2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    seg = poly(2, ineqs=[((1, 0), 1), ((-1, 0), 0)], eqs=[((0, 1), 0)])
    lifted = minkowski_sum(tri, seg)
    s = fm_flatten(lifted)
    tri_v = enumerate_vertices(tri.ineqs, tri.eqs, 2)
    seg_v = enumerate_vertices(seg.ineqs, seg.eqs, 2)
    sums = {tuple(x + y for x, y in zip(u, v)) for u in tri_v for v in seg_v}
    for pt in sums:
        assert contains(s, pt)
    res_v = enumerate_vertices(s.ineqs, s.eqs, 2)
    # every vertex of the sum is a sum of vertices (zonotope-style cross-check)
    assert set(res_v) <= sums
    mid = (F(1, 2), F(1, 4))
    for q in (s, lifted):
        assert contains(q, mid)
        assert not contains(q, (3, 0)) and not contains(q, (0, 2))
        assert all(contains(q, pt) for pt in sums)


def test_membership_transport_between_source_and_projection():
    rng = random.Random(99)
    for _ in range(20):
        p = _random_poly_containing_zero(rng, 3)
        q = project(p, [0, 1])
        x = ri_point(p)
        if x is not None:
            assert contains(q, (x[0], x[1]))
        y = ri_point(q)
        if y is not None:
            # lift: some x3 must complete y; search by LP on the slice
            slice_rows = [((a[2],), b - a[0] * y[0] - a[1] * y[1]) for a, b in p.ineqs]
            slice_eqs = [((e[2],), d - e[0] * y[0] - e[1] * y[1]) for e, d in p.eqs]
            sl = poly(1, slice_rows, slice_eqs)
            assert not is_empty(sl)


def _random_poly_containing_zero(rng, n):
    rows = []
    for _ in range(rng.randint(1, 5)):
        a = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        rows.append((a, F(rng.randint(0, 3))))  # rhs >= 0 keeps 0 feasible
    eqs = []
    if rng.random() < 0.3:
        e = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        eqs.append((e, F(0)))
    return poly(n, rows, eqs)


def test_dual_route_agreement_randomized():
    # the normal-cone characterizations and the implicit-equality route
    # must agree on zero membership for Qri and Qi
    rng = random.Random(123)
    for _ in range(80):
        p = _random_poly_containing_zero(rng, rng.randint(1, 4))
        zero = tuple(F(0) for _ in range(p.n))
        assert contains(p, zero)
        k = normal_cone(p, zero)
        assert zero_in(Notion.QRI, p) == is_linear_subspace(k)
        assert zero_in(Notion.QI, p) == is_trivial_cone(k)


def test_translate_and_intersect_and_singleton():
    sq = square()
    moved = translate(sq, (1, 1))
    assert contains(moved, (2, 2)) and not contains(moved, (0, 0))
    both = intersect(sq, moved)
    assert contains(both, (1, 1))
    pt = singleton((F(1), F(2)))
    assert contains(pt, (1, 2)) and not contains(pt, (1, 1))
    assert whole_space(2).ineqs == ()


def test_strictly_feasible_point():
    # interior points come from ri_point with every coordinate free
    sq = square()
    x = ri_point(sq, free=range(2))
    assert x is not None
    for a, b in sq.ineqs:
        assert dot(a, x) < b
    flat = poly(2, ineqs=[((1, 0), 1)], eqs=[((0, 1), 0)])
    assert ri_point(flat, free=range(2)) is None
    assert ri_point(flat, free=[0]) is not None  # flat only along x2
    # strict rows against a weak ambient set, pulled after sq
    weak = pg.BlockRows(("x", 2)).pull(sq, (2, {"x": 1})).pull(interval_box(), (2, {"x": 1}))
    y = ri_point(sq, weak, range(2))
    assert y is not None and contains(interval_box(), y) and all(dot(a, y) < b for a, b in sq.ineqs)
    # ...and an ambient set that only touches the boundary
    edge = pg.BlockRows(("x", 2)).pull(sq, (2, {"x": 1})).pull(poly(2, eqs=[((1, 0), 1)]), (2, {"x": 1}))
    assert ri_point(sq, edge, range(2)) is None


def interval_box():
    return poly(2, ineqs=[((1, 0), F(1, 2)), ((-1, 0), 0), ((0, 1), F(1, 2)), ((0, -1), 0)])


@st.composite
def _lifted_systems(draw):
    """A small lifted system: 1-3 kept and 1-3 auxiliary coordinates."""
    n, aux = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = n + aux
    row = st.tuples(st.tuples(*[st.integers(-2, 2)] * w), st.integers(-1, 3))
    ineqs = draw(st.lists(row, max_size=6))
    eqs = draw(st.lists(st.tuples(st.tuples(*[st.integers(-1, 1)] * w), st.integers(-1, 1)), max_size=1))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=3))
    return poly(n, ineqs, eqs, aux), points


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_lifted_systems())
@example((poly(1, [((1, -1), 0), ((-1, -1), 0)], aux=1), [(0,), (5,)]))  # a cone over the line: everything
@example((poly(1, [((1, 0), 1), ((-1, 0), 1)], [((0, 1), 0)], aux=1), [(1,), (2,)]))  # an interval, aux pinned
@example((pg.Polyhedron(1, (((1,), 1), ((-1,), 1)), (((0,), 0),)), [(0,), (2,)]))  # a vacuous 0 = 0 row
@example((pg.Polyhedron(1, (((1, 0), 1), ((-1, 0), 1), ((0, 0), 0)), (), 1), [(0,), (2,)]))  # a lifted 0 <= 0 row
def test_lifted_queries_match_fourier_motzkin(system):
    # every query on the lifted rows against the Fourier-Motzkin projection
    # followed by the queries on an unlifted system
    p, points = system
    q = fm_flatten(p)
    assert q.aux == 0 and q.n == p.n
    for x in points:
        assert contains(p, x) == contains(q, x)
    for notion in Notion:
        assert zero_in(notion, p) == zero_in_reference(notion, q)
    empty = is_empty(q)
    assert is_empty(p) == empty
    if not empty:
        imp = implicit_rows_reference(q)
        hull = pg.AffineSubspace(q.n, pg._echelon(list(q.eqs) + [q.ineqs[i] for i in imp], q.n))
        assert hull_dim(affine_hull(p)) == hull_dim(hull)
    whole = not q.ineqs and not q.eqs  # the eliminated rows of a whole space all vanish
    assert (se.attrs(se.PolyAtom(p)).whole is se.HOLDS) == whole


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_lifted_systems())
@example((poly(1, [((1, -1), 0), ((-1, -1), 0)], aux=1), []))  # 0 in int and ri
@example((poly(1, [((1, 0), 1), ((-1, 0), 1)], [((0, 1), 0)], aux=1), []))  # 0 in int and ri
@example((poly(2, [((1, 0, 1), 1), ((-1, 0, 1), 1)], [((0, 1, 0), 0)], aux=1), []))  # 0 in ri only
def test_zero_in_solves_the_strict_lp_once_per_object(system):
    # the relative-interior and interior questions share one strict LP,
    # kept on the object: asked in either order, and asked again, they give
    # what fresh objects give, and the object solves that LP at most once
    p, _ = system

    def fresh():
        return pg.Polyhedron(p.n, p.ineqs, p.eqs, p.aux)

    want = {notion: zero_in(notion, fresh()) for notion in (Notion.QRI, Notion.QI)}
    for order in ((Notion.QRI, Notion.QI), (Notion.QI, Notion.QRI)):
        q, strict = fresh(), []
        real = pg.ri_point

        def counted(p, extra=None, free=()):
            if extra is not None:
                strict.append(p)
            return real(p, extra, free)

        pg.ri_point = counted
        try:
            got = [zero_in(notion, q) for notion in order * 2]
        finally:
            pg.ri_point = real
        assert got == [want[notion] for notion in order * 2]
        assert len(strict) <= 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_int_systems())
def test_implicit_rows_take_one_lp_and_match_the_per_row_loop(system):
    n, ineqs, eqs, _ = system
    p = poly(n, ineqs, eqs)
    pg._frt.cache_clear()
    calls = []
    real = pg.solve_lp
    pg.solve_lp = lambda prog: calls.append(prog) or real(prog)
    try:
        got = implicit_rows(p)
    finally:
        pg.solve_lp = real
    # a system without rows is the whole space, answered with no LP
    assert len(calls) == (1 if p.ineqs or p.eqs else 0)
    assert got == implicit_rows_reference(p)
    x = ri_point(p)
    if x is not None:
        assert all((dot(a, x) == b) == (i in got) for i, (a, b) in enumerate(p.ineqs))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_system_without_rows_needs_no_lp(n, monkeypatch):
    # dom ||.||_1 keeps no row: it is all of R^n, with no implicit row and
    # 0 in its relative interior, and no LP is asked
    dom = pf_domain(lower(NormAtom("l1"), n))
    assert not dom.ineqs and not dom.eqs

    def refuse(prog):
        raise AssertionError("an LP over a system without rows")

    monkeypatch.setattr(exactlp, "solve_lp", refuse)
    monkeypatch.setattr(pg, "solve_lp", refuse)
    pg._frt.cache_clear()
    assert implicit_rows(dom) == oracles.implicit_rows_reference(dom) == ()
    assert pg.affine_hull(dom).is_whole()
    assert ri_point(dom) == (0,) * dom.width
    assert ri_point(dom, free=range(dom.n)) == (0,) * dom.width


def _int_row_form(a, b):
    """The primitive int form of the row (a, b): the only row of ints with
    gcd 1 that is a positive multiple of it (the zero row stays zero)."""
    *a, b = oracles._primitive((*map(Fraction, a), Fraction(b)))
    return tuple(a), b


def _assert_int_rows(got, ref):
    """The rows ``got`` are made of ints and are the int forms of ``ref``."""
    assert all(type(c) is int for a, b in got for c in (*a, b))
    assert list(got) == [_int_row_form(a, b) for a, b in ref]


# scalars and matrix entries with 0 and +-1 among them, as ints and Fractions
_SCALARS = st.sampled_from([1, -1, 0, F(1), F(-1), F(0), 2, F(2, 3), F(-5, 2)])
_ENTRIES = st.sampled_from([0, 1, -1, F(0), F(1), F(-1), 3, F(-1, 2)])


@st.composite
def _pulls(draw):
    """Blocks, then one or two pulls over them, each with its slices."""
    blocks = tuple((name, draw(st.integers(1, 3))) for name in draw(st.sampled_from(["x", "xt", "xyt"])))
    sizes = dict(blocks, w=draw(st.integers(1, 2)))  # w is never declared
    pulls = []
    for _ in range(draw(st.integers(1, 2))):
        cut = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        n, aux = sum(cut), draw(st.integers(0, 2))
        row = st.tuples(st.tuples(*[st.integers(-2, 2)] * (n + aux)), st.integers(-2, 2))
        p = poly(n, draw(st.lists(row, max_size=4)), draw(st.lists(row, max_size=2)), aux)
        slices = []
        for size in cut:
            terms = {}
            for name in draw(st.lists(st.sampled_from(sorted(sizes)), max_size=3, unique=True)):
                if sizes[name] == size and draw(st.booleans()):
                    terms[name] = draw(_SCALARS)
                else:
                    terms[name] = tuple(tuple(draw(_ENTRIES) for _ in range(sizes[name])) for _ in range(size))
            slices.append((size, terms))
        shift = draw(st.none() | st.tuples(*[st.integers(-2, 2).map(F)] * n))
        pulls.append((p, tuple(slices), shift))
    return blocks, pulls


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_pulls())
# three scalar terms on one cell: 1 - 1 + 2, the cell emptied on the way
@example(((("x", 1),), [(poly(3, [((1, 1, 1), 1)]), ((1, {"x": 1}), (1, {"x": -1}), (1, {"x": 2})), None)]))
# a matrix onto a cell a scalar wrote, an undeclared block, auxiliaries and a shift
@example((
    (("x", 2), ("t", 1)),
    [
        (poly(2, [((1, 2, 1), 3)], [((0, 1, -1), 1)], aux=1), ((2, {"x": F(2, 3), "w": 1}),), None),
        (poly(3, [((1, -1, 2), 0)]), ((2, {"x": -1, "t": ((1,), (-1,))}), (1, {"t": ((F(1, 2),),)})), (F(1), F(0), F(-2))),
    ],
))
def test_pull_matches_the_dense_reference(case):
    blocks, pulls = case
    b = pg.BlockRows(*blocks)
    for p, slices, shift in pulls:
        b.pull(p, *slices, shift=shift)
    rows = b.full_rows()
    ref = pull_reference(blocks, pulls)
    assert [rel for _, rel, _ in rows] == [rel for _, rel, _ in ref]
    _assert_int_rows([(a, r) for a, _, r in rows], [(a, r) for a, _, r in ref])
    # poly drops exactly the vacuous rows, 0.z <= b with b >= 0 and 0.z = 0
    ineqs = [(a, r) for a, rel, r in rows if rel == "<="]
    eqs = [(a, r) for a, rel, r in rows if rel == "="]
    q = poly(b.n, ineqs, eqs)
    assert q.ineqs == tuple((a, r) for a, r in ineqs if any(c != 0 for c in a) or r < 0)
    assert q.eqs == tuple((a, r) for a, r in eqs if any(c != 0 for c in a) or r != 0)


_RATS = st.sampled_from([0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(3, 4), F(-5, 6)])


@st.composite
def _rat_rows(draw, n, aux):
    """Rows over n + aux columns with int and Fraction entries, a few of them vacuous."""
    row = st.tuples(st.tuples(*[_RATS] * (n + aux)), _RATS)
    return draw(st.lists(row, max_size=4)), draw(st.lists(row, max_size=2))


def _kept(ineqs, eqs):
    """The reference rows without the vacuous ones, which ``poly`` drops."""
    return (
        [(a, b) for a, b in ineqs if any(a) or b < 0],
        [(e, d) for e, d in eqs if any(e) or d],
    )


def _assert_system(p, ineqs, eqs):
    _assert_int_rows(p.ineqs, ineqs)
    _assert_int_rows(p.eqs, eqs)


def _split(rows):
    return [(a, r) for a, rel, r in rows if rel == "<="], [(a, r) for a, rel, r in rows if rel == "="]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_operation_writes_primitive_int_rows(data):
    # each operation's rows, against the Fraction rows it stands for
    n, aux = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    ineqs, eqs = data.draw(_rat_rows(n, aux))
    p = poly(n, ineqs, eqs, aux)
    _assert_system(p, *_kept(ineqs, eqs))
    q_aux = data.draw(st.integers(0, 2))
    q = poly(n, *data.draw(_rat_rows(n, q_aux)), aux=q_aux)
    x = data.draw(st.tuples(*[_RATS.map(F)] * n))
    k = data.draw(st.integers(0, n))
    lam = data.draw(st.sampled_from([1, 2, F(2, 3), F(7, 2)]))

    def each(f):
        return [f(a, b) for a, b in p.ineqs], [f(e, d) for e, d in p.eqs]

    _assert_system(pg.fiber(p, x[:k]), *each(lambda a, b: (a[k:], b - dot(a[:k], x[:k]))))
    _assert_system(translate(p, x), *_kept(*each(lambda a, b: (a, b + dot(a, x)))))
    _assert_system(pg.scale(p, lam), *_kept(*each(lambda a, b: (a, lam * b))))
    _assert_system(neg(p), *_kept(*each(lambda a, b: (tuple(-c for c in a[:n]) + a[n:], b))))
    _assert_system(pg.recession_cone(p), *_kept(*each(lambda a, b: (a, 0))))
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    order = keep + [j for j in range(p.width) if j not in keep]
    _assert_system(project(p, keep), *each(lambda a, b: (tuple(a[j] for j in order), b)))
    both = pull_reference((("x", n),), [(p, ((n, {"x": 1}),), None), (q, ((n, {"x": 1}),), None)])
    _assert_system(intersect(p, q), *_kept(*_split(both)))
    summed = pull_reference((("z", n), ("v", n)), [(p, ((n, {"z": 1, "v": -1}),), None), (q, ((n, {"v": 1}),), None)])
    _assert_system(minkowski_sum(p, q), *_split(summed))


def _fractions(*vectors) -> bool:
    return all(type(c) is Fraction for v in vectors for c in v)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_lifted_systems())
def test_points_values_and_multipliers_leave_as_fractions(system):
    # rows are ints inside, but what is read off them is a Fraction
    p, points = system
    z = ri_point(p)
    assert z is None or _fractions(z[: p.n])
    if z is not None:
        hull = affine_hull(p)
        assert _fractions(*(e + (d,) for e, d in hull.eqs), *hull_basis(hull))
        extra = pg.BlockRows(("x", p.n)).pull(pg.singleton(points[0]), (p.n, {"x": 1}))
        pt = ri_point(p, extra)
        assert pt is None or _fractions(pt)
    for sense in ("min", "max"):
        out = extremum(p, (1,) * p.n, sense)
        if isinstance(out, Optimal):
            assert _fractions(out.point, (out.value,), out.dual)
        elif isinstance(out, pg.Unbounded):
            assert _fractions(out.point, out.ray)
        else:
            assert _fractions(out.farkas)


# each auxiliary column of a trimming case: one sign, both signs, used by
# the equality, or only zeros
_AUX_ENTRIES = {"+": st.integers(0, 2), "-": st.integers(-2, 0), "+-": st.integers(-2, 2), "=": st.integers(-2, 2), "0": st.just(0)}


@st.composite
def _trimming_cases(draw):
    """A small lifted system and the kind of each of its auxiliary columns."""
    n = draw(st.integers(1, 2))
    kinds = draw(st.lists(st.sampled_from(sorted(_AUX_ENTRIES)), min_size=1, max_size=4))
    row = st.tuples(st.tuples(*[st.integers(-2, 2)] * n, *map(_AUX_ENTRIES.get, kinds)), st.integers(-1, 3))
    ineqs = draw(st.lists(row, max_size=6))
    eqs = []
    if "=" in kinds:
        cells = (st.sampled_from([-1, 1]) if k == "=" else st.just(0) for k in kinds)
        eqs.append(draw(st.tuples(st.tuples(*[st.integers(-1, 1)] * n, *cells), st.integers(-1, 1))))
    return poly(n, ineqs, eqs, len(kinds)), kinds


def _within(p, q) -> bool:
    """Is the nonempty unlifted p inside q?  One LP per direction of a row of q."""
    def at_most(a, b):
        out = extremum(p, a, "max")
        return isinstance(out, Optimal) and out.value <= b

    return all(at_most(a, b) for a, b in q.ineqs) and all(
        at_most(e, d) and at_most(tuple(-c for c in e), -d) for e, d in q.eqs
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_trimming_cases())
@example((poly(1, [((1, 1, 0), 1), ((-1, 1, 1), 0), ((0, 0, -1), 2)], aux=2), ["+", "+-"]))  # the first frees the second
@example((poly(1, [((1, -1), 0), ((-1, -1), 0)], [((0, 1), 1)], aux=1), ["="]))  # one sign, kept by the equality
def test_trim_keeps_the_projection_and_never_grows_the_system(case):
    p, kinds = case
    t = pg.trim(p)
    assert t.n == p.n
    assert len(t.ineqs) <= len(p.ineqs) and len(t.eqs) == len(p.eqs)
    assert kinds.count("=") <= t.aux <= kinds.count("=") + kinds.count("+-")
    for a, b in t.ineqs + t.eqs:  # primitive int rows
        assert all(type(c) is int for c in (*a, b)) and pg.int_row(a, b) == (a, b)
    # nothing one-sided is left: a second trim is the identity
    assert pg.trim(t) is t
    q, r = fm_flatten(p), fm_flatten(t)
    assert is_empty(q) == is_empty(r)
    if not is_empty(q):
        assert _within(q, r) and _within(r, q)
