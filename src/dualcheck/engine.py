"""Primal-dual pairs through the perturbation lens.

Three instance families: the sum problem inf f + g (optionally with a
linear operator, inf f + g∘A), the cone-constrained problem
inf {f(x) : x in S, g(x) in -C}, and a raw bivariate perturbation
function.  In the numeric regime every value is an exact LP; dual
solutions can be recovered constructively by separating the origin from
the projected shifted epigraph and rescaling the separator.  In the
symbolic regime values come from declared certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional, Sequence, Union

from . import funcexpr as fx
from . import polyhedra as pg
from . import setexpr as se
from .errors import (
    ConeMembershipError,
    DegenerateSeparationError,
    InconsistencyError,
    MalformedInputError,
    QriMembershipError,
    RegimeError,
    UndecidableValueError,
)
from .exactlp import EQ, LE, LinearProgram, Optimal, Row, Unbounded, dot, solve_lp
from .funcexpr import (
    ExtReal,
    FunctionExpr,
    MINF,
    PINF,
    PolyFunc,
    conjugate_polyfunc,
    er,
    er_add,
    er_neg,
    er_sub,
    lower,
    lower_set,
    pf_value,
)
from .polyhedra import Notion, Polyhedron
from .setexpr import FactStatus, Point, SetExpr, normalize
from .spaces import SpaceTag

ZERO = Fraction(0)
ONE = Fraction(1)


# -- constraint maps -----------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    rows: tuple[tuple[Fraction, ...], ...]
    shift: tuple[Fraction, ...]
    kind: ClassVar[str] = "affine"

    def apply(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(dot(r, x) + s for r, s in zip(self.rows, self.shift))


@dataclass(frozen=True)
class IdentityMap:
    kind: ClassVar[str] = "identity"


@dataclass(frozen=True)
class NegIdentityMap:
    kind: ClassVar[str] = "neg_identity"


@dataclass(frozen=True)
class ShiftMap:
    offset: Point
    kind: ClassVar[str] = "shift"


@dataclass(frozen=True)
class NamedMap:
    label: str
    kind: ClassVar[str] = "named"


GMap = Union[AffineMap, IdentityMap, NegIdentityMap, ShiftMap, NamedMap]


# -- declared data ---------------------------------------------------------------


@dataclass(frozen=True)
class FactSpec:
    """Declared membership certificate; ref names the set it binds to
    ("epidiff", "prdom", "domf", "domg") or is a set expression."""

    notion: Optional[Notion]
    point: Point
    ref: object
    status: FactStatus
    cite: tuple[str, str] = ("", "")


@dataclass(frozen=True)
class SpecialFact:
    status: FactStatus
    cite: tuple[str, str] = ("", "")
    note: str = ""


@dataclass(frozen=True)
class DeclaredValues:
    vp: Optional[ExtReal] = None
    vp_attained: Optional[bool] = None
    vp_solution: str = ""
    vd: Optional[ExtReal] = None
    vd_attained: Optional[bool] = None
    vd_solution: str = ""
    cites: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class FenchelInstance:
    instance_id: str
    space: SpaceTag
    f: FunctionExpr
    g: FunctionExpr
    amap: Optional[tuple[tuple[Fraction, ...], ...]] = None
    gspace: Optional[SpaceTag] = None
    flags: tuple[tuple[str, bool], ...] = ()
    fact_specs: tuple[FactSpec, ...] = ()
    meets_qri_fact: Optional[SpecialFact] = None
    rc8_fact: Optional[SpecialFact] = None
    values: DeclaredValues = DeclaredValues()

    def flag(self, name: str) -> Optional[bool]:
        for k, v in self.flags:
            if k == name:
                return v
        return None

    @property
    def yspace(self) -> SpaceTag:
        return self.gspace if self.gspace is not None else self.space


@dataclass(frozen=True)
class LagrangeInstance:
    instance_id: str
    xspace: SpaceTag
    zspace: SpaceTag
    f: FunctionExpr
    sset: SetExpr
    gmap: GMap
    cone: SetExpr
    flags: tuple[tuple[str, bool], ...] = ()
    fact_specs: tuple[FactSpec, ...] = ()
    slater_qri_fact: Optional[SpecialFact] = None
    rc8_fact: Optional[SpecialFact] = None
    values: DeclaredValues = DeclaredValues()

    def flag(self, name: str) -> Optional[bool]:
        for k, v in self.flags:
            if k == name:
                return v
        return None


@dataclass(frozen=True)
class PerturbationInstance:
    instance_id: str
    nx: int
    ny: int
    phi: FunctionExpr  # on R^{nx+ny}
    flags: tuple[tuple[str, bool], ...] = ()
    values: DeclaredValues = DeclaredValues()

    def flag(self, name: str) -> Optional[bool]:
        for k, v in self.flags:
            if k == name:
                return v
        return None


Instance = Union[FenchelInstance, LagrangeInstance, PerturbationInstance]


def is_numeric(instance: Instance) -> bool:
    if isinstance(instance, PerturbationInstance):
        return True
    if isinstance(instance, FenchelInstance):
        return instance.space.finite_dim and instance.yspace.finite_dim
    return instance.xspace.finite_dim and instance.zspace.finite_dim


@dataclass(frozen=True)
class PerturbationView:
    pr_dom: SetExpr
    pr_dom_poly: Optional[Polyhedron]
    epi_pr: Optional[SetExpr]
    epi_pr_poly: Optional[Polyhedron]
    vp: Optional[ExtReal]
    vp_attained: Optional[bool]


@dataclass(frozen=True)
class ValueReport:
    vp: Optional[ExtReal]
    vp_attained: Optional[bool]
    primal_solution: Optional[object]
    vd: Optional[ExtReal]
    vd_attained: Optional[bool]
    dual_solution: Optional[object]
    gap: Optional[ExtReal]
    gap_applicable: bool = True


# -- numeric builders ------------------------------------------------------------


def _rows_of(p: Polyhedron):
    out = [Row(a, LE, b) for a, b in p.ineqs]
    out += [Row(e, EQ, d) for e, d in p.eqs]
    return out


def _embed_row(coeffs, positions, total):
    full = [ZERO] * total
    for pos, c in zip(positions, coeffs):
        full[pos] += c
    return tuple(full)


def _amap_rows(instance: FenchelInstance) -> Optional[tuple]:
    if instance.amap is None:
        return None
    return tuple(tuple(Fraction(c) for c in row) for row in instance.amap)


def _fenchel_polyfuncs(instance: FenchelInstance) -> tuple[PolyFunc, PolyFunc]:
    n = instance.space.dim
    m = instance.yspace.dim
    return lower(instance.f, n), lower(instance.g, m)


def _lagrange_ground(instance: LagrangeInstance):
    nx = instance.xspace.dim
    m = instance.zspace.dim
    pf_f = lower(instance.f, nx)
    s_poly = lower_set(instance.sset, nx)
    c_poly = lower_set(instance.cone, m)
    if not isinstance(instance.gmap, AffineMap):
        if isinstance(instance.gmap, IdentityMap):
            gmap = AffineMap(
                tuple(tuple(ONE if i == j else ZERO for j in range(nx)) for i in range(m)),
                tuple(ZERO for _ in range(m)),
            )
        elif isinstance(instance.gmap, NegIdentityMap):
            gmap = AffineMap(
                tuple(tuple(-ONE if i == j else ZERO for j in range(nx)) for i in range(m)),
                tuple(ZERO for _ in range(m)),
            )
        elif isinstance(instance.gmap, ShiftMap) and isinstance(instance.gmap.offset, se.VecPoint):
            gmap = AffineMap(
                tuple(tuple(ONE if i == j else ZERO for j in range(nx)) for i in range(m)),
                instance.gmap.offset.coords,
            )
        else:
            raise RegimeError("constraint map has no affine realization")
    else:
        gmap = instance.gmap
    return pf_f, s_poly, c_poly, gmap


def _feasible_rows_lagrange(pf_f, s_poly, c_poly, gmap, with_epi=True):
    """Rows over (x, t) (or (x,) when with_epi is False) describing
    dom-f/epigraph, S, and g(x) in -C."""
    nx = s_poly.n
    total = nx + (1 if with_epi else 0)
    rows = []
    if with_epi:
        for a, b in pf_f.epi.ineqs:
            rows.append(Row(a, LE, b))
        for e, d in pf_f.epi.eqs:
            rows.append(Row(e, EQ, d))
        for a, b in s_poly.ineqs:
            rows.append(Row(a + (ZERO,), LE, b))
        for e, d in s_poly.eqs:
            rows.append(Row(e + (ZERO,), EQ, d))
    else:
        for a, b in s_poly.ineqs:
            rows.append(Row(a, LE, b))
        for e, d in s_poly.eqs:
            rows.append(Row(e, EQ, d))
    # -(Gx + h) in C: apply every C row to -(Gx + h)
    for a, b in c_poly.ineqs:
        coeff = [ZERO] * total
        rhs = b
        for i, ai in enumerate(a):
            for j in range(nx):
                coeff[j] += -ai * gmap.rows[i][j]
            rhs += ai * gmap.shift[i]
        rows.append(Row(tuple(coeff), LE, rhs))
    for e, d in c_poly.eqs:
        coeff = [ZERO] * total
        rhs = d
        for i, ei in enumerate(e):
            for j in range(nx):
                coeff[j] += -ei * gmap.rows[i][j]
            rhs += ei * gmap.shift[i]
        rows.append(Row(tuple(coeff), EQ, rhs))
    return rows


# -- perturbation views ------------------------------------------------------------


def _declared_vp(instance) -> tuple[Optional[ExtReal], Optional[bool]]:
    return instance.values.vp, instance.values.vp_attained


def to_perturbation(instance: Instance) -> PerturbationView:
    if isinstance(instance, FenchelInstance):
        return _fenchel_view(instance)
    if isinstance(instance, LagrangeInstance):
        return _lagrange_view(instance)
    return _phi_view(instance)


def _fenchel_view(instance: FenchelInstance) -> PerturbationView:
    if is_numeric(instance):
        pf_f, pf_g = _fenchel_polyfuncs(instance)
        dom_f = fx.pf_domain(pf_f)
        dom_g = fx.pf_domain(pf_g)
        amap = _amap_rows(instance)
        if amap is None:
            pr_poly = pg.minkowski_sum(dom_f, pg.neg(dom_g))
        else:
            m, n = len(amap), instance.space.dim
            total = m + n + m
            rows = []
            for a, b in dom_f.ineqs:
                rows.append((_embed_row(a, range(m, m + n), total), b))
            for a, b in dom_g.ineqs:
                rows.append((_embed_row(a, range(m + n, total), total), b))
            eqs = []
            for e, d in dom_f.eqs:
                eqs.append((_embed_row(e, range(m, m + n), total), d))
            for e, d in dom_g.eqs:
                eqs.append((_embed_row(e, range(m + n, total), total), d))
            for i in range(m):
                coeff = [ZERO] * total
                coeff[i] = ONE
                coeff[m + n + i] = ONE  # z = Ax - y
                for j in range(n):
                    coeff[m + j] = -amap[i][j]
                eqs.append((tuple(coeff), ZERO))
            pr_poly = pg.project(pg.poly(total, rows, eqs), range(m))
        vp, x_opt = solve_primal(instance)
        attained = x_opt is not None
        epi_poly = None
        if vp is not None and vp.is_finite():
            epi_poly = _fenchel_epi_diff_poly(instance, vp.value)
        return PerturbationView(
            pr_dom=se.PolyAtom(pr_poly),
            pr_dom_poly=pr_poly,
            epi_pr=se.PolyAtom(epi_poly) if epi_poly is not None else None,
            epi_pr_poly=epi_poly,
            vp=vp,
            vp_attained=attained,
        )
    dom_f = fx.domain(instance.f, instance.space)
    dom_g = fx.domain(instance.g, instance.space)
    pr_dom = normalize(se.MinkSum((dom_f, se.Neg(dom_g))))
    vp, vp_att = _declared_vp(instance)
    epi = None
    if vp is not None and vp.is_finite():
        epi = fx.epi_diff_set(instance.f, instance.g, vp.value, instance.space).realized
    return PerturbationView(
        pr_dom=pr_dom,
        pr_dom_poly=None,
        epi_pr=epi,
        epi_pr_poly=None,
        vp=vp,
        vp_attained=vp_att,
    )


def _fenchel_epi_diff_poly(instance: FenchelInstance, v: Fraction) -> Polyhedron:
    pf_f, pf_g = _fenchel_polyfuncs(instance)
    amap = _amap_rows(instance)
    if amap is None:
        return fx.epi_diff_poly(pf_f, pf_g, v)
    n = instance.space.dim
    m = instance.yspace.dim
    # coordinates: w (m), r, x (n), y (m), tf, tg
    total = m + 1 + n + m + 2
    W, R, X, Y, TF, TG = 0, m, m + 1, m + 1 + n, m + 1 + n + m, m + 1 + n + m + 1
    rows = []
    eqs = []
    for a, b in pf_f.epi.ineqs:
        coeff = [ZERO] * total
        for j in range(n):
            coeff[X + j] = a[j]
        coeff[TF] = a[n]
        rows.append((tuple(coeff), b))
    for e, d in pf_f.epi.eqs:
        coeff = [ZERO] * total
        for j in range(n):
            coeff[X + j] = e[j]
        coeff[TF] = e[n]
        eqs.append((tuple(coeff), d))
    for a, b in pf_g.epi.ineqs:
        coeff = [ZERO] * total
        for j in range(m):
            coeff[Y + j] = a[j]
        coeff[TG] = a[m]
        rows.append((tuple(coeff), b))
    for e, d in pf_g.epi.eqs:
        coeff = [ZERO] * total
        for j in range(m):
            coeff[Y + j] = e[j]
        coeff[TG] = e[m]
        eqs.append((tuple(coeff), d))
    for i in range(m):  # w = Ax - y
        coeff = [ZERO] * total
        coeff[W + i] = ONE
        coeff[Y + i] = ONE
        for j in range(n):
            coeff[X + j] = -amap[i][j]
        eqs.append((tuple(coeff), ZERO))
    coeff = [ZERO] * total  # eps >= 0
    coeff[R] = -ONE
    coeff[TF] = ONE
    coeff[TG] = ONE
    rows.append((tuple(coeff), v))
    return pg.project(pg.poly(total, rows, eqs), range(m + 1))


def _lagrange_view(instance: LagrangeInstance) -> PerturbationView:
    if is_numeric(instance):
        pf_f, s_poly, c_poly, gmap = _lagrange_ground(instance)
        nx, m = instance.xspace.dim, instance.zspace.dim
        dom_f = fx.pf_domain(pf_f)
        ground = pg.intersect(dom_f, s_poly)
        # z = Gx + h + u, x in dom f cap S, u in C
        total = m + nx + m
        rows = [(_embed_row(a, range(m, m + nx), total), b) for a, b in ground.ineqs]
        rows += [(_embed_row(a, range(m + nx, total), total), b) for a, b in c_poly.ineqs]
        eqs = [(_embed_row(e, range(m, m + nx), total), d) for e, d in ground.eqs]
        eqs += [(_embed_row(e, range(m + nx, total), total), d) for e, d in c_poly.eqs]
        for i in range(m):
            coeff = [ZERO] * total
            coeff[i] = ONE
            coeff[m + nx + i] = -ONE
            for j in range(nx):
                coeff[m + j] = -gmap.rows[i][j]
            eqs.append((tuple(coeff), gmap.shift[i]))
        pr_poly = pg.project(pg.poly(total, rows, eqs), range(m))
        vp, x_opt = solve_primal(instance)
        epi_poly = None
        if vp is not None and vp.is_finite():
            epi_poly = _lagrange_conic_extension_poly(instance, vp.value)
        return PerturbationView(
            pr_dom=se.PolyAtom(pr_poly),
            pr_dom_poly=pr_poly,
            epi_pr=se.PolyAtom(epi_poly) if epi_poly is not None else None,
            epi_pr_poly=epi_poly,
            vp=vp,
            vp_attained=x_opt is not None,
        )
    dom_f = fx.domain(instance.f, instance.xspace)
    ground = normalize(se.Intersect(dom_f, instance.sset))
    image = se.ImageSet(instance.gmap, ground, instance.zspace)
    pr_dom = normalize(se.MinkSum((image, instance.cone)))
    vp, vp_att = _declared_vp(instance)
    epi = None
    if vp is not None and vp.is_finite():
        epi = se.ConicExtension(
            instance.f, ground, instance.gmap, instance.cone, vp.value, instance.zspace
        )
    return PerturbationView(
        pr_dom=pr_dom,
        pr_dom_poly=None,
        epi_pr=epi,
        epi_pr_poly=None,
        vp=vp,
        vp_attained=vp_att,
    )


def _lagrange_conic_extension_poly(instance: LagrangeInstance, v: Fraction) -> Polyhedron:
    pf_f, s_poly, c_poly, gmap = _lagrange_ground(instance)
    nx, m = instance.xspace.dim, instance.zspace.dim
    # coordinates: w (m), r, x (nx), t, u (m): w = Gx + h + u, r >= t - v
    total = m + 1 + nx + 1 + m
    W, R, X, T, U = 0, m, m + 1, m + 1 + nx, m + 2 + nx
    rows = []
    eqs = []
    for a, b in pf_f.epi.ineqs:
        coeff = [ZERO] * total
        for j in range(nx):
            coeff[X + j] = a[j]
        coeff[T] = a[nx]
        rows.append((tuple(coeff), b))
    for e, d in pf_f.epi.eqs:
        coeff = [ZERO] * total
        for j in range(nx):
            coeff[X + j] = e[j]
        coeff[T] = e[nx]
        eqs.append((tuple(coeff), d))
    for a, b in s_poly.ineqs:
        rows.append((_embed_row(a, range(X, X + nx), total), b))
    for e, d in s_poly.eqs:
        eqs.append((_embed_row(e, range(X, X + nx), total), d))
    for a, b in c_poly.ineqs:
        rows.append((_embed_row(a, range(U, U + m), total), b))
    for e, d in c_poly.eqs:
        eqs.append((_embed_row(e, range(U, U + m), total), d))
    for i in range(m):
        coeff = [ZERO] * total
        coeff[W + i] = ONE
        coeff[U + i] = -ONE
        for j in range(nx):
            coeff[X + j] = -gmap.rows[i][j]
        eqs.append((tuple(coeff), gmap.shift[i]))
    coeff = [ZERO] * total  # r >= t - v
    coeff[R] = -ONE
    coeff[T] = ONE
    rows.append((tuple(coeff), v))
    return pg.project(pg.poly(total, rows, eqs), range(m + 1))


def _phi_view(instance: PerturbationInstance) -> PerturbationView:
    nx, ny = instance.nx, instance.ny
    pf = lower(instance.phi, nx + ny)
    dom = fx.pf_domain(pf)
    pr_poly = pg.project(dom, range(nx, nx + ny))
    vp, x_opt = solve_primal(instance)
    epi_poly = None
    if vp is not None and vp.is_finite():
        shifted = pg.translate(pf.epi, tuple(ZERO for _ in range(nx + ny)) + (-vp.value,))
        epi_poly = pg.project(shifted, range(nx, nx + ny + 1))
    return PerturbationView(
        pr_dom=se.PolyAtom(pr_poly),
        pr_dom_poly=pr_poly,
        epi_pr=se.PolyAtom(epi_poly) if epi_poly is not None else None,
        epi_pr_poly=epi_poly,
        vp=vp,
        vp_attained=x_opt is not None,
    )


# -- solving ------------------------------------------------------------------------


def solve_primal(instance: Instance) -> tuple[ExtReal, Optional[object]]:
    if not is_numeric(instance):
        vp = instance.values.vp
        if vp is None:
            raise UndecidableValueError("no declared primal value for a symbolic instance")
        sol = instance.values.vp_solution or None
        return vp, (sol if instance.values.vp_attained else None)
    if isinstance(instance, FenchelInstance):
        pf_f, pf_g = _fenchel_polyfuncs(instance)
        amap = _amap_rows(instance)
        n = instance.space.dim
        m = instance.yspace.dim
        total = n + 2  # x, tf, tg
        rows = []
        for a, b in pf_f.epi.ineqs:
            rows.append(Row(a[:n] + (a[n], ZERO), LE, b))
        for e, d in pf_f.epi.eqs:
            rows.append(Row(e[:n] + (e[n], ZERO), EQ, d))
        for a, b in pf_g.epi.ineqs:
            if amap is None:
                coeff = list(a[:m])
            else:
                coeff = [ZERO] * n
                for i in range(m):
                    for j in range(n):
                        coeff[j] += a[i] * amap[i][j]
            rows.append(Row(tuple(coeff) + (ZERO, a[m]), LE, b))
        for e, d in pf_g.epi.eqs:
            if amap is None:
                coeff = list(e[:m])
            else:
                coeff = [ZERO] * n
                for i in range(m):
                    for j in range(n):
                        coeff[j] += e[i] * amap[i][j]
            rows.append(Row(tuple(coeff) + (ZERO, e[m]), EQ, d))
        obj = tuple(ZERO for _ in range(n)) + (ONE, ONE)
        out = solve_lp(LinearProgram(total, obj, "min", tuple(rows)))
        if isinstance(out, Optimal):
            return er(out.value), out.point[:n]
        if isinstance(out, Unbounded):
            return MINF, None
        return PINF, None
    if isinstance(instance, LagrangeInstance):
        pf_f, s_poly, c_poly, gmap = _lagrange_ground(instance)
        nx = instance.xspace.dim
        rows = _feasible_rows_lagrange(pf_f, s_poly, c_poly, gmap, with_epi=True)
        obj = tuple(ZERO for _ in range(nx)) + (ONE,)
        out = solve_lp(LinearProgram(nx + 1, obj, "min", tuple(rows)))
        if isinstance(out, Optimal):
            return er(out.value), out.point[:nx]
        if isinstance(out, Unbounded):
            return MINF, None
        return PINF, None
    pf = lower(instance.phi, instance.nx + instance.ny)
    nx, ny = instance.nx, instance.ny
    rows = []
    for a, b in pf.epi.ineqs:
        rows.append(Row(a[:nx] + (a[nx + ny],), LE, b))  # y fixed to 0
        # y-part contributes nothing at y = 0
    for e, d in pf.epi.eqs:
        rows.append(Row(e[:nx] + (e[nx + ny],), EQ, d))
    obj = tuple(ZERO for _ in range(nx)) + (ONE,)
    out = solve_lp(LinearProgram(nx + 1, obj, "min", tuple(rows)))
    if isinstance(out, Optimal):
        return er(out.value), out.point[:nx]
    if isinstance(out, Unbounded):
        return MINF, None
    return PINF, None


def solve_dual(instance: Instance) -> tuple[ExtReal, Optional[object]]:
    if not is_numeric(instance):
        vd = instance.values.vd
        if vd is None:
            raise UndecidableValueError("no declared dual value for a symbolic instance")
        sol = instance.values.vd_solution or None
        return vd, (sol if instance.values.vd_attained else None)
    if isinstance(instance, FenchelInstance):
        pf_f, pf_g = _fenchel_polyfuncs(instance)
        star_f = conjugate_polyfunc(pf_f)
        star_g = conjugate_polyfunc(pf_g)
        amap = _amap_rows(instance)
        n = instance.space.dim
        m = instance.yspace.dim
        total = m + 2  # y, s1, s2
        rows = []
        for a, b in star_f.epi.ineqs:  # at (-A* y, s1)
            coeff = [ZERO] * total
            for j in range(n):
                if amap is None:
                    coeff[j] += -a[j]
                else:
                    for i in range(m):
                        coeff[i] += -a[j] * amap[i][j]
            coeff[m] = a[n]
            rows.append(Row(tuple(coeff), LE, b))
        for e, d in star_f.epi.eqs:
            coeff = [ZERO] * total
            for j in range(n):
                if amap is None:
                    coeff[j] += -e[j]
                else:
                    for i in range(m):
                        coeff[i] += -e[j] * amap[i][j]
            coeff[m] = e[n]
            rows.append(Row(tuple(coeff), EQ, d))
        for a, b in star_g.epi.ineqs:  # at (y, s2)
            rows.append(Row(a[:m] + (ZERO, a[m]), LE, b))
        for e, d in star_g.epi.eqs:
            rows.append(Row(e[:m] + (ZERO, e[m]), EQ, d))
        obj = tuple(ZERO for _ in range(m)) + (-ONE, -ONE)
        out = solve_lp(LinearProgram(total, obj, "max", tuple(rows)))
        if isinstance(out, Optimal):
            return er(out.value), out.point[:m]
        if isinstance(out, Unbounded):
            return PINF, None
        return MINF, None
    if isinstance(instance, LagrangeInstance):
        return _solve_dual_lagrange(instance)
    # perturbation: sup_y -Phi*(0, y*)
    pf = lower(instance.phi, instance.nx + instance.ny)
    star = conjugate_polyfunc(pf)
    nx, ny = instance.nx, instance.ny
    total = ny + 1  # y, s
    rows = []
    for a, b in star.epi.ineqs:  # at (0, y, s)
        rows.append(Row(a[nx : nx + ny] + (a[nx + ny],), LE, b))
    for e, d in star.epi.eqs:
        rows.append(Row(e[nx : nx + ny] + (e[nx + ny],), EQ, d))
    obj = tuple(ZERO for _ in range(ny)) + (-ONE,)
    out = solve_lp(LinearProgram(total, obj, "max", tuple(rows)))
    if isinstance(out, Optimal):
        return er(out.value), out.point[:ny]
    if isinstance(out, Unbounded):
        return PINF, None
    return MINF, None


def _solve_dual_lagrange(instance: LagrangeInstance) -> tuple[ExtReal, Optional[object]]:
    """sup over z* in C* of the inner LP value, folded into one LP via the
    inner problem's dual."""
    pf_f, s_poly, c_poly, gmap = _lagrange_ground(instance)
    nx, m = instance.xspace.dim, instance.zspace.dim
    inner_rows = []
    for a, b in pf_f.epi.ineqs:
        inner_rows.append((a, LE, b))
    for e, d in pf_f.epi.eqs:
        inner_rows.append((e, EQ, d))
    for a, b in s_poly.ineqs:
        inner_rows.append((a + (ZERO,), LE, b))
    for e, d in s_poly.eqs:
        inner_rows.append((e + (ZERO,), EQ, d))
    k = len(inner_rows)
    # variables: z (m), y (k), lam (#C-ineqs), mu (#C-eqs); z = -A^T lam - E^T mu in C*
    kc, lc = len(c_poly.ineqs), len(c_poly.eqs)
    total = m + k + kc + lc
    rows = []
    eqs = []
    # sum_i y_i row_i = (G^T z, 1)
    for j in range(nx):
        coeff = [ZERO] * total
        for i, (a, _, _) in enumerate(inner_rows):
            coeff[m + i] = a[j]
        for zi in range(m):
            coeff[zi] -= gmap.rows[zi][j]
        eqs.append((tuple(coeff), ZERO))
    coeff = [ZERO] * total
    for i, (a, _, _) in enumerate(inner_rows):
        coeff[m + i] = a[nx]
    eqs.append((tuple(coeff), ONE))
    # sign conditions on the inner multipliers (min sense: y <= 0 on <=-rows)
    for i, (_, rel, _) in enumerate(inner_rows):
        if rel == LE:
            coeff = [ZERO] * total
            coeff[m + i] = ONE
            rows.append((tuple(coeff), ZERO))
    # z in C* via the polar representation of the H-form cone
    for zi in range(m):
        coeff = [ZERO] * total
        coeff[zi] = ONE
        for i, (a, _) in enumerate(c_poly.ineqs):
            coeff[m + k + i] += a[zi]
        for j, (e, _) in enumerate(c_poly.eqs):
            coeff[m + k + kc + j] += e[zi]
        eqs.append((tuple(coeff), ZERO))  # z + A^T lam + E^T mu = 0
    for i in range(kc):
        coeff = [ZERO] * total
        coeff[m + k + i] = -ONE
        rows.append((tuple(coeff), ZERO))  # lam >= 0
    # objective: y.b + z.h
    obj = [ZERO] * total
    for i, (_, _, b) in enumerate(inner_rows):
        obj[m + i] = b
    for zi in range(m):
        obj[zi] = gmap.shift[zi]
    prog = LinearProgram(
        total,
        tuple(obj),
        "max",
        tuple(Row(a, LE, b) for a, b in rows) + tuple(Row(e, EQ, d) for e, d in eqs),
    )
    out = solve_lp(prog)
    if isinstance(out, Optimal):
        return er(out.value), out.point[:m]
    if isinstance(out, Unbounded):
        return PINF, None
    return MINF, None


# -- separation-based dual recovery ---------------------------------------------


def _polar_of_hull(e_poly: Polyhedron) -> Polyhedron:
    """{u : <u, p> <= 0 for every p in E}, via LP-dual multipliers."""
    d = e_poly.n
    G, E = e_poly.ineqs, e_poly.eqs
    k, l = len(G), len(E)
    total = d + k + l
    eqs = []
    for coord in range(d):
        coeff = [ZERO] * total
        coeff[coord] = -ONE
        for i, (a, _) in enumerate(G):
            coeff[d + i] = a[coord]
        for j, (e, _) in enumerate(E):
            coeff[d + k + j] = e[coord]
        eqs.append((tuple(coeff), ZERO))
    rows = []
    coeff = [ZERO] * total
    for i, (_, b) in enumerate(G):
        coeff[d + i] = b
    for j, (_, dd) in enumerate(E):
        coeff[d + k + j] = dd
    rows.append((tuple(coeff), ZERO))  # lam.h + mu.d <= 0
    for i in range(k):
        coeff = [ZERO] * total
        coeff[d + i] = -ONE
        rows.append((tuple(coeff), ZERO))
    return pg.project(pg.poly(total, rows, eqs), range(d))


def recover_dual_via_separation(instance: Instance, vp) -> tuple:
    """Constructive dual solution: separate the origin from the projected
    shifted epigraph, certify a negative value component, rescale."""
    vp = Fraction(vp)
    if not is_numeric(instance):
        raise RegimeError("separation recovery runs in the numeric regime")
    if isinstance(instance, FenchelInstance):
        e_poly = _fenchel_epi_diff_poly(instance, vp)
    elif isinstance(instance, LagrangeInstance):
        e_poly = _lagrange_conic_extension_poly(instance, vp)
    else:
        view = _phi_view(instance)
        e_poly = view.epi_pr_poly
        if e_poly is None:
            raise UndecidableValueError("no finite primal value to shift by")
    d = e_poly.n
    polar = _polar_of_hull(e_poly)
    box = [(tuple(ONE if j == i else ZERO for j in range(d)), ONE) for i in range(d)]
    box += [(tuple(-ONE if j == i else ZERO for j in range(d)), ONE) for i in range(d)]
    boxed = pg.poly(d, tuple(polar.ineqs) + tuple(box), polar.eqs)
    obj = tuple(ZERO for _ in range(d - 1)) + (-ONE,)
    out = pg.extremum(boxed, obj, "max")
    assert isinstance(out, Optimal)
    if out.value > 0:
        sep = out.point
        r_star = sep[d - 1]
        # the perturbation dual optimizer is -y*/r*; the sum and
        # cone-constrained conventions flip the variable once more
        if isinstance(instance, PerturbationInstance):
            dual = tuple(-c / r_star for c in sep[: d - 1])
        else:
            dual = tuple(c / r_star for c in sep[: d - 1])
        _verify_recovered(instance, vp, dual)
        return dual
    # no separator with negative last component; classify the failure
    for i in range(d - 1):
        for sense in ("max", "min"):
            o = tuple(ONE if j == i else ZERO for j in range(d))
            probe = pg.extremum(
                pg.poly(d, boxed.ineqs, boxed.eqs + ((tuple(ZERO for _ in range(d - 1)) + (ONE,), ZERO),)),
                o,
                sense,
            )
            if isinstance(probe, Optimal) and probe.value != 0:
                raise DegenerateSeparationError(
                    "only separators with vanishing value component exist"
                )
    raise QriMembershipError("the origin admits no nonzero separator")


def _verify_recovered(instance, vp: Fraction, dual: tuple):
    val = dual_objective_value(instance, dual)
    if val != er(vp):
        raise InconsistencyError(
            f"recovered dual point misses the primal value: {val} != {vp}"
        )


def dual_objective_value(instance: Instance, point: Sequence[Fraction]) -> ExtReal:
    """Exact dual objective at a concrete dual point."""
    point = tuple(Fraction(c) for c in point)
    if isinstance(instance, FenchelInstance):
        pf_f, pf_g = _fenchel_polyfuncs(instance)
        star_f = conjugate_polyfunc(pf_f)
        star_g = conjugate_polyfunc(pf_g)
        amap = _amap_rows(instance)
        if amap is None:
            minus_arg = tuple(-c for c in point)
        else:
            n = instance.space.dim
            minus_arg = tuple(
                -sum(amap[i][j] * point[i] for i in range(len(amap))) for j in range(n)
            )
        a = pf_value(star_f, minus_arg)
        b = pf_value(star_g, point)
        return er_neg(er_add(a, b))
    if isinstance(instance, LagrangeInstance):
        pf_f, s_poly, c_poly, gmap = _lagrange_ground(instance)
        if not _in_dual_cone(c_poly, point):
            raise ConeMembershipError("multiplier outside the dual cone")
        nx = instance.xspace.dim
        rows = []
        for a, b in pf_f.epi.ineqs:
            rows.append(Row(a, LE, b))
        for e, d in pf_f.epi.eqs:
            rows.append(Row(e, EQ, d))
        for a, b in s_poly.ineqs:
            rows.append(Row(a + (ZERO,), LE, b))
        for e, d in s_poly.eqs:
            rows.append(Row(e + (ZERO,), EQ, d))
        lin = [ZERO] * nx
        const = ZERO
        for i in range(len(point)):
            for j in range(nx):
                lin[j] += point[i] * gmap.rows[i][j]
            const += point[i] * gmap.shift[i]
        obj = tuple(lin) + (ONE,)
        out = solve_lp(LinearProgram(nx + 1, obj, "min", tuple(rows)))
        if isinstance(out, Optimal):
            return er(out.value + const)
        if isinstance(out, Unbounded):
            return MINF
        return PINF
    # perturbation family: -Phi*(0, y*)
    pf = lower(instance.phi, instance.nx + instance.ny)
    star = conjugate_polyfunc(pf)
    arg = tuple(ZERO for _ in range(instance.nx)) + point
    return er_neg(pf_value(star, arg))


def _in_dual_cone(c_poly: Polyhedron, z: Sequence[Fraction]) -> bool:
    out = pg.extremum(c_poly, z, "min")
    if isinstance(out, Optimal):
        return out.value >= 0
    return False  # unbounded below: some cone direction pays negatively


def scalarize(z_star, gmap: GMap, cone: SetExpr) -> FunctionExpr:
    """x -> <z*, g(x)>, +inf outside dom g; requires z* in the dual cone."""
    if isinstance(z_star, (tuple, list)):
        z = tuple(Fraction(c) for c in z_star)
        if not isinstance(gmap, AffineMap):
            raise RegimeError("numeric multiplier needs an affine constraint map")
        c_poly = lower_set(cone, len(z))
        if not _in_dual_cone(c_poly, z):
            raise ConeMembershipError("multiplier outside the dual cone")
        n = len(gmap.rows[0]) if gmap.rows else 0
        lin = tuple(
            sum(z[i] * gmap.rows[i][j] for i in range(len(z))) for j in range(n)
        )
        const = sum((z[i] * gmap.shift[i] for i in range(len(z))), ZERO)
        return fx.Affine(lin, const)
    if isinstance(z_star, se.SymPoint):
        if "not_in_space" in z_star.attrs:
            raise ConeMembershipError(
                f"{z_star.name} lies outside the dual space"
            )
        if "zero" in z_star.attrs or z_star.name == "0":
            return fx.Affine(fx.SymVec("0", frozenset({"zero", "continuous"})), ZERO)
        if "nonneg" in z_star.attrs:
            return fx.Affine(fx.SymVec(f"({z_star.name} . g)", z_star.attrs), ZERO)
        raise ConeMembershipError("membership in the dual cone is undecided")
    if isinstance(z_star, se._Origin):
        return fx.Affine(fx.SymVec("0", frozenset({"zero", "continuous"})), ZERO)
    raise MalformedInputError("unsupported multiplier representation")


# -- report assembly ----------------------------------------------------------------


def value_report(instance: Instance) -> ValueReport:
    try:
        vp, xsol = solve_primal(instance)
    except UndecidableValueError:
        vp, xsol = None, None
    try:
        vd, ysol = solve_dual(instance)
    except UndecidableValueError:
        vd, ysol = None, None
    gap = None
    applicable = True
    if vp is not None and vd is not None:
        if vp == MINF and vd == MINF:
            applicable = False
        else:
            gap = er_sub(vp, vd)
    vp_att = instance.values.vp_attained if not is_numeric(instance) else (xsol is not None)
    vd_att = instance.values.vd_attained if not is_numeric(instance) else (ysol is not None)
    return ValueReport(
        vp=vp,
        vp_attained=vp_att,
        primal_solution=xsol,
        vd=vd,
        vd_attained=vd_att,
        dual_solution=ysol,
        gap=gap,
        gap_applicable=applicable,
    )
