"""Primal-dual pairs through the perturbation lens.

Three instance families: the sum problem inf f + g (optionally with a
linear operator, inf f + g∘A), the cone-constrained problem
inf {f(x) : x in S, g(x) in -C}, and a raw bivariate perturbation
function Phi.  In the numeric regime an instance becomes one
:class:`NumericModel`, which lowers its functions once and states Phi as
pieces over the blocks x, y and one epigraph variable per function.  All
three families then share one code path, built from the pieces with
``polyhedra.BlockRows``: the primal LP inf Phi(x, 0), the projected domain
pr_y dom Phi, the projected shifted epigraph, and the dual objective at a
point, one LP inf Phi(x, y) + <±y*, y>.  The domain and the shifted
epigraph stay lifted: their rows are Phi's rows with x, the epigraph
variables and every auxiliary of the lowered pieces kept as auxiliary
columns, and every interiority query runs on those rows.  Both values
come from the primal LP: the multipliers of Phi's rows, summed over their
y columns, are an optimal dual point (``NumericModel.dual``), so a finite
value costs one LP and no conjugate is built.  Dual solutions can be
recovered constructively by separating the origin from the projected
shifted epigraph and rescaling the separator.  The separator comes from one LP over the polar
of the lifted shifted epigraph, written in the multipliers of its rows,
so recovery projects nothing.  In the symbolic regime values come from
declared certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import ClassVar, Optional, Sequence, Union

from . import funcexpr as fx
from . import polyhedra as pg
from . import setexpr as se
from .errors import (
    ConeMembershipError,
    DegenerateSeparationError,
    DimensionMismatchError,
    ImproperFunctionError,
    InconsistencyError,
    MalformedInputError,
    QriMembershipError,
    RegimeError,
    UndecidableValueError,
)
from .exactlp import EQ, LinearProgram, LpOutcome, Optimal, Row, Unbounded, Vec, dot, rat, solve_lp, vec, verify_certificate
from .funcexpr import (
    ExtReal,
    FunctionExpr,
    MINF,
    PINF,
    er,
    er_sub,
    lower,
    lower_set,
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


class _Flagged:
    def flag(self, name: str) -> Optional[bool]:
        return next((v for k, v in self.flags if k == name), None)


@dataclass(frozen=True)
class FenchelInstance(_Flagged):
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

    @property
    def yspace(self) -> SpaceTag:
        return self.gspace if self.gspace is not None else self.space


@dataclass(frozen=True)
class LagrangeInstance(_Flagged):
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


@dataclass(frozen=True)
class PerturbationInstance(_Flagged):
    instance_id: str
    nx: int
    ny: int
    phi: FunctionExpr  # on R^{nx+ny}
    flags: tuple[tuple[str, bool], ...] = ()
    values: DeclaredValues = DeclaredValues()


Instance = Union[FenchelInstance, LagrangeInstance, PerturbationInstance]


def is_numeric(instance: Instance) -> bool:
    if isinstance(instance, PerturbationInstance):
        return True
    if isinstance(instance, FenchelInstance):
        return instance.space.finite_dim and instance.yspace.finite_dim
    return instance.xspace.finite_dim and instance.zspace.finite_dim


@dataclass(frozen=True)
class PerturbationView:
    """The sets a diagnosis asks about, built once: the projected domain
    pr_y dom Phi, the shifted epigraph projection (None without a finite
    primal value) and the family's own ``sets``: (dom f, dom g) for the sum
    problem, (g(dom f ∩ S), C) for the cone-constrained one, (dom Phi,) for
    a perturbation function.  Numeric sets are ``PolyAtom``s over the
    model's polyhedra."""

    pr_dom: SetExpr
    epi_pr: Optional[SetExpr]
    sets: tuple[SetExpr, ...]


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


# -- the numeric model ---------------------------------------------------------------


def _as_affine(gmap: GMap, nx: int, m: int) -> AffineMap:
    """The constraint map as x -> Gx + h, from R^nx to R^m."""
    if isinstance(gmap, AffineMap):
        g = gmap
    elif isinstance(gmap, NamedMap) or (isinstance(gmap, ShiftMap) and not isinstance(gmap.offset, se.VecPoint)):
        raise RegimeError("constraint map has no affine realization")
    elif nx != m:
        raise DimensionMismatchError(f"the {gmap.kind} map needs equal dimensions, not {nx} and {m}")
    else:
        sign = -ONE if isinstance(gmap, NegIdentityMap) else ONE
        rows = tuple(tuple(sign if i == j else ZERO for j in range(nx)) for i in range(m))
        g = AffineMap(rows, gmap.offset.coords if isinstance(gmap, ShiftMap) else (ZERO,) * m)
    if len(g.rows) != m or len(g.shift) != m or any(len(r) != nx for r in g.rows):
        raise DimensionMismatchError(f"the constraint map sends R^{nx} to R^{m}: G must be {m} x {nx} and h of length {m}")
    return g


def _check_cone(c: Polyhedron) -> None:
    """C must be a convex cone: it holds 0, and a row with b > 0 stays
    at most 0 on C (a row with b = 0 already is a cone's row).

    The test is exact on a system without auxiliaries.  A lifted C (a
    Minkowski sum or difference) is accepted when its lifted system, all
    columns kept, passes the same test: a cone projects onto a cone.
    Otherwise whether pi(C) is a cone is left undecided, a RegimeError.
    """
    flat = Polyhedron(c.width, c.ineqs, c.eqs)
    if not pg.contains(flat, (ZERO,) * flat.n):
        if c.aux:
            raise RegimeError("the lifted ordering set C is no cone over its auxiliaries; cone test undecided")
        raise MalformedInputError("the ordering set C does not contain the origin, so it is no cone")
    for a, b in c.ineqs:
        if b > 0:
            out = pg.extremum(flat, a, "max")
            if not isinstance(out, Optimal) or out.value > 0:
                if c.aux:
                    raise RegimeError("the lifted ordering set C is no cone over its auxiliaries; cone test undecided")
                raise MalformedInputError("the ordering set C is not a cone")


class NumericModel:
    """One numeric instance as its perturbation function Phi, lowered once.

    Phi is a sum of pieces over the blocks x (nx), y (ny) and one epigraph
    variable per function.  A piece is ``(p, slices, t, shift)``: the
    polyhedron p pulled back along ``slices`` (see ``polyhedra.BlockRows``),
    an epigraph whose last coordinate is the block ``t``, or a set when
    ``t`` is None, whose argument is moved by ``shift``:

    * the sum problem:        Phi(x, y) = f(x) + g(Ax - y);
    * the cone-constrained:   Phi(x, y) = f(x) + delta_S(x) + delta_C(y - Gx - h);
    * a perturbation function: Phi itself.

    The dual objective at a dual point q is inf Phi(x, y) + pairing * <q, y>,
    that is -Phi*(0, -pairing * q).  ``lowered`` lists the epigraphs of the
    functions whose conjugates that objective is made of; a cone-constrained model
    has none and keeps C.  A sum model keeps its operator A as ``amap``,
    a matrix, or 1 for the identity.
    """

    def __init__(self, instance: Instance):
        if not is_numeric(instance):
            raise RegimeError("the numeric model needs a finite-dimensional instance")
        self.cone: Optional[Polyhedron] = None
        self.gmap: Optional[AffineMap] = None
        self.lowered: tuple = ()
        if isinstance(instance, FenchelInstance):
            n, m = instance.space.dim, instance.yspace.dim
            if instance.amap is None and n != m:
                raise DimensionMismatchError(f"without A, f and g need one space, not R^{n} and R^{m}")
            if instance.amap is not None and (len(instance.amap) != m or any(len(r) != n for r in instance.amap)):
                raise DimensionMismatchError(f"A sends R^{n} to R^{m}, so it must be {m} x {n}")
            epi_f, epi_g = lower(instance.f, n), lower(instance.g, m)
            self.amap = 1 if instance.amap is None else tuple(map(vec, instance.amap))
            self.nx, self.ny, self.pairing = n, m, 1
            self.pieces = (
                (epi_f, ((n, {"x": 1}),), "tf", None),
                (epi_g, ((m, {"x": self.amap, "y": -1}),), "tg", None),
            )
            self.lowered = (epi_f, epi_g)
        elif isinstance(instance, LagrangeInstance):
            nx, m = instance.xspace.dim, instance.zspace.dim
            epi_f = lower(instance.f, nx)
            s_poly = lower_set(instance.sset, nx)
            self.cone = lower_set(instance.cone, m)
            _check_cone(self.cone)
            g = self.gmap = _as_affine(instance.gmap, nx, m)
            minus_g = tuple(tuple(-c for c in row) for row in g.rows)
            self.nx, self.ny, self.pairing = nx, m, 1
            self.pieces = (
                (epi_f, ((nx, {"x": 1}),), "t", None),
                (s_poly, ((nx, {"x": 1}),), None, None),
                (self.cone, ((m, {"y": 1, "x": minus_g}),), None, tuple(-c for c in g.shift)),
            )
        else:
            nx, ny = instance.nx, instance.ny
            epi = lower(instance.phi, nx + ny)
            self.nx, self.ny, self.pairing = nx, ny, -1
            self.pieces = ((epi, ((nx, {"x": 1}), (ny, {"y": 1})), "t", None),)
            self.lowered = (epi,)
        self.epis = tuple((t, 1) for _, _, t, _ in self.pieces if t is not None)
        self._domains: dict[int, Polyhedron] = {}

    def domain(self, i: int) -> Polyhedron:
        """The domain of piece i, over the piece's own coordinates."""
        if i not in self._domains:
            p, slices, t, _ = self.pieces[i]
            self._domains[i] = fx.pf_domain(p) if t is not None else p
        return self._domains[i]

    def system(self, *blocks, pieces: Optional[Sequence[int]] = None, domains: bool = False) -> pg.BlockRows:
        """The rows of Phi's pieces (their domains when asked) over blocks."""
        b = pg.BlockRows(*blocks)
        for i in range(len(self.pieces)) if pieces is None else pieces:
            p, slices, t, shift = self.pieces[i]
            if t is None:
                b.pull(p, *slices, shift=shift)
            elif domains:
                b.pull(self.domain(i), *slices)
            else:
                b.pull(p, *slices, (1, {t: 1}))
        return b

    @cached_property
    def sets(self) -> tuple[Polyhedron, ...]:
        """dom f and dom g, g(dom f ∩ S) and C, or dom Phi (see
        ``PerturbationView``); the image keeps x as auxiliary columns."""
        if self.cone is None:
            return tuple(self.domain(i) for i in range(len(self.pieces)))
        b = self.system(("z", self.ny), ("x", self.nx), pieces=(0, 1), domains=True)
        g = self.gmap
        b.pull(pg.singleton(tuple(-c for c in g.shift)), (self.ny, {"z": -1, "x": g.rows}))  # Gx - z = -h
        return pg.project(b.polyhedron(), range(self.ny)), self.cone

    @cached_property
    def _phi(self) -> pg.BlockRows:
        """Phi's rows over (x, y, t..., auxiliaries)."""
        return self.system(("x", self.nx), ("y", self.ny), *self.epis)

    @cached_property
    def _primal_lp(self) -> tuple[LinearProgram, LpOutcome]:
        """The primal LP inf Phi(x, 0), on Phi's rows with the y columns
        dropped, and its outcome at the optimum whose x and dual point
        (see ``dual``) are lexicographically smallest."""
        b, y0, y1 = self._phi, self.nx, self.nx + self.ny
        n, full = b.n - self.ny, b.full_rows()
        obj = (0,) * self.nx + (1,) * len(self.epis)
        rows = tuple(Row(a[:y0] + a[y1:], rel, r) for a, rel, r in full)
        x = tuple(tuple(int(k == j) for k in range(n)) for j in range(y0))
        # the dual point's coordinates, pairing * mu (see ``dual``), as forms on the multipliers
        y = tuple(tuple(self.pairing * a[k] for a, _, _ in full) for k in range(y0, y1))
        prog = LinearProgram(n, obj + (0,) * (n - len(obj)), "min", rows, lex=x, dual_lex=y)
        return prog, solve_lp(prog)

    @cached_property
    def primal(self) -> tuple[ExtReal, Optional[tuple]]:
        """inf Phi(x, 0) and a minimizer."""
        _, out = self._primal_lp
        if isinstance(out, Optimal):
            return er(out.value), out.point[: self.nx]
        return (MINF if isinstance(out, Unbounded) else PINF), None

    @cached_property
    def certified(self) -> bool:
        """Does the primal LP's optimum replay under ``verify_certificate``?
        Its multipliers then prove inf Phi(., 0) >= v(0) (see
        ``conditions.DiagnosisContext._build_engine``)."""
        prog, out = self._primal_lp
        return isinstance(out, Optimal) and verify_certificate(prog, out)

    @cached_property
    def pr_dom(self) -> Polyhedron:
        """dom Phi projected onto y."""
        b = self.system(("y", self.ny), ("x", self.nx), domains=True)
        return pg.project(b.polyhedron(), range(self.ny))

    def lifted_epi(self, v: Fraction) -> Polyhedron:
        """The shifted epigraph over (y, r, x, t...), before projection:
        the rows of Phi's pieces and sum(t) - r <= v."""
        b = self.system(("y", self.ny), ("r", 1), ("x", self.nx), *self.epis)
        b.pull(pg.at_most(v), (1, {"r": -1, **{t: 1 for t, _ in self.epis}}))
        return b.polyhedron()

    def shifted_epi(self, v: Fraction) -> Polyhedron:
        """{(y, r) : Phi(x, y) - v <= r for some x}."""
        return pg.project(self.lifted_epi(v), range(self.ny + 1))

    @cached_property
    def dual(self) -> tuple[ExtReal, Optional[tuple]]:
        """The dual value and an optimal dual point, read off the primal LP.

        The dual sup_q -Phi*(0, -pairing * q) is the LP dual of the primal
        (Rockafellar, *Convex Analysis*, sections 29-30).  The primal's
        multipliers lam (min sense: lam <= 0 on inequality rows) give
        sum(t) + <mu, y> >= vp on Phi's rows with y free, for
        mu = sum_i lam_i (row i's y coefficients), so the dual objective at
        q = pairing * mu is at least vp, hence vp.  An unbounded primal
        gives -inf, an infeasible one ``_closure_at_zero``.  Conjugates of
        improper functions are undefined, as in ``conjugate_polyfunc``;
        they occur only when the primal value is infinite.
        """
        prog, out = self._primal_lp
        if isinstance(out, Optimal):
            return er(out.value), tuple(dot(out.dual, q) for q in prog.dual_lex)
        if any(fx.pf_is_improper(epi) for epi in self.lowered):
            raise ImproperFunctionError("conjugate of an improper polyhedral function")
        if isinstance(out, Unbounded):
            return MINF, None
        return self._closure_at_zero(), None

    def _closure_at_zero(self) -> ExtReal:
        """v**(0) when Phi(., 0) is nowhere finite.

        v is polyhedral.  If it is proper it is closed, and v**(0) = v(0) =
        +inf; if dom Phi is empty, v* = -inf and v** = +inf.  Otherwise v is
        -inf somewhere, so v* = +inf and v** = -inf: exactly when some
        direction of Phi's rows with y held fixed lowers sum(t).  One
        feasibility LP on Phi's rows with y free, one LP on the primal's
        homogeneous rows.
        """
        prog, _ = self._primal_lp
        if pg.is_empty(self._phi.polyhedron()):
            return PINF
        cone = tuple(Row(r.coeffs, r.rel, 0) for r in prog.rows)
        out = solve_lp(LinearProgram(prog.n, prog.objective, "min", cone))
        return MINF if isinstance(out, Unbounded) else PINF

    def dual_value(self, q: Sequence[Fraction]) -> ExtReal:
        """The dual objective at q: one LP, inf Phi(x, y) + pairing * <q, y>."""
        q = vec(q)
        if self.cone is not None and not _in_dual_cone(self.cone, q):
            raise ConeMembershipError("multiplier outside the dual cone")
        if any(fx.pf_falls_forever(epi) for epi in self.lowered):
            raise ImproperFunctionError("conjugate of an improper polyhedral function")
        b = self._phi
        obj = _padded((0,) * self.nx + tuple(self.pairing * c for c in q) + (1,) * len(self.epis), b)
        out = solve_lp(LinearProgram(b.n, obj, "min", b.lp_rows()))
        if isinstance(out, Optimal):
            return er(out.value)
        if isinstance(out, Unbounded):
            return MINF
        if self.lowered:  # some epigraph is empty
            raise ImproperFunctionError("conjugate of an improper polyhedral function")
        return PINF


def _padded(obj: tuple, b: pg.BlockRows) -> tuple:
    """An objective over the declared blocks, zero on the auxiliary columns."""
    return obj + (0,) * (b.n - len(obj))


# -- perturbation views ------------------------------------------------------------


def to_perturbation(instance: Instance, model: Optional[NumericModel] = None) -> PerturbationView:
    if is_numeric(instance):
        model = model or NumericModel(instance)
        vp, _ = model.primal
        epi = se.PolyAtom(model.shifted_epi(vp.value)) if vp.is_finite() else None
        return PerturbationView(se.PolyAtom(model.pr_dom), epi, tuple(map(se.PolyAtom, model.sets)))
    vp = instance.values.vp
    finite_vp = vp is not None and vp.is_finite()
    epi = None
    if isinstance(instance, FenchelInstance):
        sets = (fx.domain(instance.f, instance.space), fx.domain(instance.g, instance.yspace))
        pr_dom = normalize(se.MinkSum((sets[0], se.Neg(sets[1]))))
        if finite_vp:
            epi = fx.epi_diff_set(instance.f, instance.g, vp.value, instance.space)
    else:
        ground = normalize(se.Intersect(fx.domain(instance.f, instance.xspace), instance.sset))
        image = se.ImageSet(instance.gmap, ground, instance.zspace)
        sets = (normalize(image), normalize(instance.cone))
        pr_dom = normalize(se.MinkSum((image, instance.cone)))
        if finite_vp:
            epi = se.ConicExtension(
                instance.f, ground, instance.gmap, instance.cone, vp.value, instance.zspace
            )
    return PerturbationView(pr_dom, epi, sets)


# -- solving ------------------------------------------------------------------------


def solve_primal(instance: Instance, model: Optional[NumericModel] = None) -> tuple[ExtReal, object]:
    if is_numeric(instance):
        return (model or NumericModel(instance)).primal
    vp = instance.values.vp
    if vp is None:
        raise UndecidableValueError("no declared primal value for a symbolic instance")
    sol = instance.values.vp_solution or None
    return vp, (sol if instance.values.vp_attained else None)


def solve_dual(instance: Instance, model: Optional[NumericModel] = None) -> tuple[ExtReal, object]:
    if is_numeric(instance):
        return (model or NumericModel(instance)).dual
    vd = instance.values.vd
    if vd is None:
        raise UndecidableValueError("no declared dual value for a symbolic instance")
    sol = instance.values.vd_solution or None
    return vd, (sol if instance.values.vd_attained else None)


# -- separation-based dual recovery ---------------------------------------------


def _boxed_polar(p: Polyhedron, d: int) -> tuple[tuple[Row, ...], tuple, tuple[Vec, ...]]:
    """The polar of p's projection onto its first d coordinates, cut to the
    box |u_i| <= 1, written over the LP-dual multipliers (lam, mu) of p's rows.

    For p = {Gz <= h, Ez = e} nonempty, LP duality puts u in that polar
    exactly when u = G_K^T lam + E_K^T mu for some lam >= 0 and mu with
    G_D^T lam + E_D^T mu = 0 and h.lam + e.mu <= 0, where K marks the first
    d (kept) columns and D the rest.  Returns the rows, the variable bounds
    and u as d linear forms in (lam, mu).  The signs lam >= 0 are bounds,
    not rows, so each lam is one signed column of the exact simplex.
    """
    cg, ce = pg.columns(p.ineqs, p.n), pg.columns(p.eqs, p.n)
    b = pg.BlockRows(("lam", len(p.ineqs)), ("mu", len(p.eqs)))
    b.pull(pg.singleton((0,) * (p.n - d)), (p.n - d, {"lam": cg[d:], "mu": ce[d:]}))
    b.pull(pg.at_most(0), (1, {"lam": (tuple(h for _, h in p.ineqs),), "mu": (tuple(e for _, e in p.eqs),)}))
    b.pull(pg.cube(d), (d, {"lam": cg[:d], "mu": ce[:d]}))
    bounds = ((0, None),) * len(p.ineqs) + ((None, None),) * len(p.eqs)
    return b.lp_rows(), bounds, tuple(g + e for g, e in zip(cg[:d], ce[:d]))


def recover_dual_via_separation(instance: Instance, vp, model: Optional[NumericModel] = None) -> tuple:
    """Constructive dual solution: separate the origin from the projected
    shifted epigraph, certify a negative value component, rescale.  The
    separator is an optimal point of one LP over the lifted polar (see
    ``_boxed_polar``), so the shifted epigraph is never projected.  A
    diagnosis passes its model, which saves lowering the functions again."""
    vp = rat(vp)
    if not is_numeric(instance):
        raise RegimeError("separation recovery runs in the numeric regime")
    model = model or NumericModel(instance)
    d = model.ny + 1
    rows, bounds, u = _boxed_polar(model.lifted_epi(vp), d)
    out = solve_lp(LinearProgram(len(u[-1]), tuple(-c for c in u[-1]), "max", rows, bounds, lex=u[:-1]))
    assert isinstance(out, Optimal)
    if out.value > 0:
        sep = tuple(dot(c, out.point) for c in u)
        r_star = sep[d - 1]
        # the perturbation dual optimizer is -y*/r*; the family's dual point
        # is that times -pairing
        dual = tuple(model.pairing * c / r_star for c in sep[: d - 1])
        val = model.dual_value(dual)
        if val != er(vp):
            raise InconsistencyError(f"recovered dual point misses the primal value: {val} != {vp}")
        return dual
    # no separator with negative last component; classify the failure over
    # the same polar, so with the same bounds
    flat = rows + (Row(u[-1], EQ, 0),)
    for i in range(d - 1):
        for sense in ("max", "min"):
            probe = solve_lp(LinearProgram(len(u[i]), u[i], sense, flat, bounds))
            if isinstance(probe, Optimal) and probe.value != 0:
                raise DegenerateSeparationError("only separators with vanishing value component exist")
    raise QriMembershipError("the origin admits no nonzero separator")


def dual_objective_value(instance: Instance, point: Sequence[Fraction]) -> ExtReal:
    """Exact dual objective at a concrete dual point."""
    return NumericModel(instance).dual_value(point)


def _in_dual_cone(c_poly: Polyhedron, z: Sequence[Fraction]) -> bool:
    out = pg.extremum(c_poly, z, "min")
    if isinstance(out, Optimal):
        return out.value >= 0
    return False  # unbounded below: some cone direction pays negatively


# -- report assembly ----------------------------------------------------------------


def value_report(instance: Instance, model: Optional[NumericModel] = None) -> ValueReport:
    if model is None and is_numeric(instance):
        model = NumericModel(instance)
    try:
        vp, xsol = solve_primal(instance, model)
    except UndecidableValueError:
        vp, xsol = None, None
    try:
        vd, ysol = solve_dual(instance, model)
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
