"""Regularity-condition evaluation and diagnosis assembly.

Every condition is a conjunction of clauses; clauses resolve through the
inference engine, the exact polyhedral backend, or declared certificates,
and carry provenance.  A diagnosis evaluates all conditions of the
instance's family, closes the verdict set under the implication graph
(forward for Holds, contrapositive for Fails, and the weak-duality
contrapositive when a gap is certified), decides the strong-duality
verdict, and re-checks the whole picture for consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import engine as eng
from . import funcexpr as fx
from . import inference as inf
from . import polyhedra as pg
from . import setexpr as se
from .errors import ApplicabilityError, InconsistencyError, MalformedInputError
from .funcexpr import MINF, PINF, er_lt
from .inference import DeclaredFact, Engine, Step
from .polyhedra import Notion
from .setexpr import (
    FAILS,
    HOLDS,
    UNKNOWN,
    FactStatus,
    ORIGIN,
    and3,
    normalize,
    not3,
)

FAMILY_PHI = "phi"
FAMILY_FENCHEL = "fenchel"
FAMILY_LAGRANGE = "lagrange"

INDEX_ORDER = ("1", "2", "3", "4", "5", "6'", "6", "7", "8")


@dataclass(frozen=True)
class ConditionId:
    family: str
    index: str

    def __post_init__(self):
        if self.index not in INDEX_ORDER:
            raise ApplicabilityError(f"unknown condition index {self.index!r}")
        if self.family == FAMILY_PHI and self.index in ("6'", "8"):
            raise ApplicabilityError(
                "the perturbation family carries neither the primed nor the closedness condition"
            )


def family_indices(family: str) -> tuple[str, ...]:
    if family == FAMILY_PHI:
        return tuple(i for i in INDEX_ORDER if i not in ("6'", "8"))
    return INDEX_ORDER


@dataclass(frozen=True)
class Clause:
    text: str
    status: FactStatus
    prov: tuple[Step, ...] = ()


@dataclass(frozen=True)
class ConditionVerdict:
    cid: ConditionId
    clauses: tuple[Clause, ...]

    @cached_property
    def status(self) -> FactStatus:
        """Decided once: a verdict is frozen, and the closure and the report
        read it many times."""
        if any(c.status is FAILS for c in self.clauses):
            return FAILS
        if all(c.status is HOLDS for c in self.clauses):
            return HOLDS
        return UNKNOWN

    def blocking_clause(self) -> Optional[Clause]:
        for c in self.clauses:
            if c.status is FAILS:
                return c
        for c in self.clauses:
            if c.status is UNKNOWN:
                return c
        return None


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    hyps: frozenset
    cite: str


_BASE_EDGES = (
    Edge("1", "2", frozenset({"frechet", "lsc", "convex"}), "classical chain"),
    Edge("2", "3", frozenset({"frechet", "lsc", "convex"}), "interior inside the core"),
    Edge("3", "2", frozenset({"frechet", "lsc", "convex"}), "core equals interior for li-convex value functions"),
    Edge("3", "4", frozenset({"frechet", "lsc", "convex"}), "classical chain"),
    Edge("4", "5", frozenset({"frechet", "lsc", "convex"}), "intrinsic-core with closed affine hull"),
    Edge("5", "4", frozenset({"frechet", "lsc", "convex"}), "same equivalence"),
    Edge("3", "6", frozenset({"frechet", "lsc", "convex"}), "core condition implies the quasi-interior one"),
    Edge("6", "7", frozenset({"convex"}), "quasi-interior pair equivalence"),
    Edge("7", "6", frozenset({"convex"}), "quasi-interior pair equivalence"),
    Edge("1", "6", frozenset({"convex"}), "continuity implies the quasi-interior condition"),
)

_EDGES = {
    FAMILY_PHI: _BASE_EDGES,
    FAMILY_FENCHEL: _BASE_EDGES
    + (
        Edge("5", "8", frozenset({"frechet", "lsc", "convex"}), "interior-point conditions force closedness"),
        Edge("1", "8", frozenset({"lsc", "convex"}), "continuity forces closedness"),
        Edge("6'", "6", frozenset({"convex"}), "the primed condition is stronger"),
        Edge("6", "8", frozenset({"finite_dim", "lsc", "convex"}), "finite-dimensional collapse"),
    ),
    FAMILY_LAGRANGE: _BASE_EDGES
    + (
        Edge("5", "8", frozenset({"frechet", "lsc", "convex"}), "interior-point conditions force closedness"),
        Edge("1", "8", frozenset({"lsc", "convex"}), "continuity forces closedness"),
        Edge("6'", "6", frozenset({"convex"}), "the primed condition is stronger"),
    ),
}

_SUFFICIENCY_HYPS = {
    "1": frozenset({"convex"}),
    "2": frozenset({"frechet", "lsc", "convex"}),
    "3": frozenset({"frechet", "lsc", "convex"}),
    "4": frozenset({"frechet", "lsc", "convex"}),
    "5": frozenset({"frechet", "lsc", "convex"}),
    "6'": frozenset({"convex"}),
    "6": frozenset({"convex"}),
    "7": frozenset({"convex"}),
    "8": frozenset({"lsc", "convex"}),
}

_AFFINE_MAPS = (eng.AffineMap, eng.IdentityMap, eng.NegIdentityMap, eng.ShiftMap)

# the ambient hypotheses that edges and sufficiency results may require
HYPOTHESES = ("frechet", "finite_dim", "lsc", "convex")

# a convex function finite on all of R^n is continuous (Rockafellar, Convex Analysis, Cor. 10.1.1)
EVERYWHERE = "one summand is finite and continuous everywhere"


# -- context -----------------------------------------------------------------------


class DiagnosisContext:
    def __init__(self, instance: eng.Instance):
        self.instance = instance
        if isinstance(instance, eng.FenchelInstance):
            self.family = FAMILY_FENCHEL
        elif isinstance(instance, eng.LagrangeInstance):
            self.family = FAMILY_LAGRANGE
        else:
            self.family = FAMILY_PHI
        self.numeric = eng.is_numeric(instance)
        self.model = eng.NumericModel(instance) if self.numeric else None
        self._check_precondition()
        self.values = eng.value_report(instance, self.model)
        self.view = eng.to_perturbation(instance, self.model)
        self.engine = self._build_engine()

    # the paper's standing assumption: the primal problem is feasible; checked
    # on the primal value alone, before any dual LP is built
    def _check_precondition(self):
        vp = self.model.primal[0] if self.numeric else self.instance.values.vp
        if vp is not None and vp == PINF:
            raise MalformedInputError(
                "the primal problem is infeasible; the pair violates the standing "
                "nonempty-domain assumption"
            )

    def _build_engine(self) -> Engine:
        facts = []
        instance = self.instance
        specs = getattr(instance, "fact_specs", ())
        for spec in specs:
            target = self._resolve_ref(spec.ref)
            if target is None:
                continue
            facts.append(
                DeclaredFact(spec.notion, spec.point, target, spec.status, spec.cite)
            )
        vp = self.values.vp
        if self.view.epi_pr is not None and vp is not None and vp.is_finite() and self.values.vp_attained:
            facts.append(
                DeclaredFact(
                    None,
                    ORIGIN,
                    self.view.epi_pr,
                    HOLDS,
                    ("", "the primal optimum is attained, so the origin pair lies in the set"),
                )
            )
        return Engine(facts)

    def _resolve_ref(self, ref):
        if not isinstance(ref, str):
            return ref
        if ref in ("domf", "domg"):
            return self.view.sets[ref == "domg"] if self.family == FAMILY_FENCHEL else None
        return {"epidiff": self.view.epi_pr, "conic": self.view.epi_pr, "prdom": self.view.pr_dom}.get(ref)

    # -- ambient hypothesis predicates --------------------------------------

    def hyp(self, name: str) -> FactStatus:
        instance = self.instance
        if name == "frechet":
            if isinstance(instance, eng.FenchelInstance):
                ok = instance.space.frechet and instance.yspace.frechet
            elif isinstance(instance, eng.LagrangeInstance):
                ok = instance.xspace.frechet and instance.zspace.frechet
            else:
                ok = True
            return HOLDS if ok else FAILS
        if name == "finite_dim":
            return HOLDS if self.numeric else FAILS
        if name == "lsc":
            return and3(*(c.status for c in self.lsc_clauses))
        if name == "convex":
            return self.convexity()
        raise KeyError(name)

    @cached_property
    def g_continuous(self) -> bool:
        """Numeric sum instance: is Ax in int(dom g), where g is continuous,
        for some x in dom f?  RC1 asks it first, and when it holds it also
        proves the meets-qri clause of RC6', since int lies in ri.  A dom g
        without rows is the whole space, so the feasible x that the standing
        assumption gives will do, with no LP."""
        dom_f, dom_g = (s.poly for s in self.view.sets)
        return self.g_everywhere or _meets(dom_g, self.model.amap, dom_f, 1, True)

    @property
    def g_everywhere(self) -> bool:
        """Numeric sum instance: is g finite, and so continuous, everywhere?"""
        dom_g = self.view.sets[1].poly
        return not dom_g.ineqs and not dom_g.eqs

    @cached_property
    def lsc_clauses(self) -> tuple[Clause, ...]:
        """The lower-semicontinuity clauses that RC2-RC5 and RC8 share."""
        return _lsc_clauses(self)

    @cached_property
    def exclusion_clause(self) -> Clause:
        """The clause that RC6', RC6 and RC7 share."""
        return _exclusion_clause(self)

    @cached_property
    def held(self) -> frozenset:
        """The ambient hypotheses that hold for this instance."""
        return frozenset(h for h in HYPOTHESES if self.hyp(h) is HOLDS)

    def _g_epiclosed(self) -> FactStatus:
        instance = self.instance
        declared = instance.flag("g_epiclosed")
        if declared is not None:
            return HOLDS if declared else FAILS
        if isinstance(instance.gmap, _AFFINE_MAPS):
            return HOLDS  # continuous affine maps have closed epigraphs
        return UNKNOWN

    def convexity(self) -> FactStatus:
        instance = self.instance
        declared = instance.flag("convex")
        if declared is not None:
            return HOLDS if declared else FAILS
        if isinstance(instance, eng.FenchelInstance):
            return and3(fx.is_convex(instance.f), fx.is_convex(instance.g))
        if isinstance(instance, eng.LagrangeInstance):
            linear_map = isinstance(instance.gmap, _AFFINE_MAPS)
            return and3(
                fx.is_convex(instance.f),
                se.attrs(normalize(instance.sset)).convex,
                HOLDS if linear_map else UNKNOWN,
            )
        return fx.is_convex(instance.phi)

    def _flag_or(self, name: str, fallback: FactStatus) -> FactStatus:
        declared = self.instance.flag(name)
        if declared is not None:
            return HOLDS if declared else FAILS
        return fallback


# -- clause evaluators ----------------------------------------------------------------


def _fact_clause(text: str, fact: inf.Fact) -> Clause:
    return Clause(text, fact.status, fact.prov)


def _status_clause(text: str, status: FactStatus, detail: str = "", cites=()) -> Clause:
    prov = (Step("clause", detail or text, tuple(cites)),) if detail or cites else ()
    return Clause(text, status, prov)


def _frechet_clause(ctx: DiagnosisContext) -> Clause:
    return _status_clause(
        "the underlying spaces are Frechet",
        ctx.hyp("frechet"),
        "space tags",
    )


def _lsc_clauses(ctx: DiagnosisContext) -> tuple[Clause, ...]:
    instance = ctx.instance
    if isinstance(instance, eng.FenchelInstance):
        return (
            _status_clause("f is lower semicontinuous", ctx._flag_or("lsc_f", HOLDS if ctx.numeric else fx.is_lsc(instance.f))),
            _status_clause("g is lower semicontinuous", ctx._flag_or("lsc_g", HOLDS if ctx.numeric else fx.is_lsc(instance.g))),
        )
    if isinstance(instance, eng.LagrangeInstance):
        return (
            _status_clause("S is closed", ctx._flag_or("s_closed", HOLDS if ctx.numeric else se.attrs(normalize(instance.sset)).closed)),
            _status_clause("f is lower semicontinuous", ctx._flag_or("lsc_f", HOLDS if ctx.numeric else fx.is_lsc(instance.f))),
            _status_clause("the constraint map has a closed ordering epigraph", HOLDS if ctx.numeric else ctx._g_epiclosed()),
        )
    return (_status_clause("the perturbation function is lower semicontinuous", HOLDS if ctx.numeric else fx.is_lsc(instance.phi)),)


def _pr_notion_clause(ctx: DiagnosisContext, notion: Notion, text: str) -> Clause:
    fact = ctx.engine.infer(notion, ORIGIN, ctx.view.pr_dom)
    return _fact_clause(text, fact)


def _aff_closed_clause(ctx: DiagnosisContext) -> Clause:
    text = "the affine hull of the projected domain is a closed subspace"
    if ctx.numeric:
        return _status_clause(text, HOLDS, "finite-dimensional affine hulls are closed")
    a = se.attrs(normalize(ctx.view.pr_dom))
    if a.aff_whole is HOLDS:
        return _status_clause(text, HOLDS, "the affine hull is the whole space")
    if a.subspace is HOLDS and a.contains_origin is HOLDS:
        if a.closed is HOLDS:
            return _status_clause(text, HOLDS, "the set is a closed subspace, its own affine hull")
        if a.closed is FAILS:
            return _status_clause(text, FAILS, "the set is a non-closed subspace, its own affine hull")
    return _status_clause(text, UNKNOWN, "no affine-hull rule applies")


def _exclusion_clause(ctx: DiagnosisContext) -> Clause:
    text = "the origin pair avoids the quasi-relative interior of the shifted epigraph projection"
    if ctx.view.epi_pr is None:
        return _status_clause(text, UNKNOWN, "no finite primal value to shift by")
    hull = se.ConvexHullWithOrigin(ctx.view.epi_pr)
    fact = ctx.engine.infer(Notion.QRI, ORIGIN, hull)
    return Clause(text, not3(fact.status), fact.prov)


def _continuity_clause(ctx: DiagnosisContext) -> Clause:
    text = "some common domain point where one summand is continuous"
    instance = ctx.instance
    if ctx.family == FAMILY_FENCHEL:
        dom_f, dom_g = ctx.view.sets
        if ctx.numeric:
            # continuity of g at Ax', or of f at x', over the joint domain; f's
            # puts Ax' in int A(dom f) only when A maps onto the space of g
            amap = ctx.model.amap
            hit = ctx.g_continuous or (_onto(amap) and _meets(dom_f.poly, 1, dom_g.poly, amap, True))
            detail = EVERYWHERE if ctx.g_everywhere else "strict-feasibility LP over the joint domain"
            return _status_clause(text, HOLDS if hit else FAILS, detail)
        if fx.continuous_everywhere(instance.f) is HOLDS or fx.continuous_everywhere(instance.g) is HOLDS:
            return _status_clause(text, HOLDS, EVERYWHERE)
        f_thin = inf.interior_is_empty(dom_f)
        g_thin = inf.interior_is_empty(dom_g)
        if f_thin is HOLDS and g_thin is HOLDS:
            return _status_clause(
                text, FAILS, "both domains have empty interior, so neither summand is continuous anywhere"
            )
        return _status_clause(text, UNKNOWN, "continuity undecided")
    if ctx.family == FAMILY_LAGRANGE:
        return _slater_clause(ctx)
    # perturbation family: continuity of Phi(x', .) at 0
    hit = _slice_interior_point(ctx.view.sets[0].poly, instance.nx, instance.ny)
    return _status_clause(
        "some x' with the slice y -> Phi(x', y) continuous at 0",
        HOLDS if hit else FAILS,
        "Freund-Roundy-Todd implicit-row LP and a strict-feasibility LP at y = 0",
    )


def _onto(amap) -> bool:
    """Does the operator, 1 or an m x n matrix, map onto R^m?  Exactly when
    its kernel has codimension m."""
    if not isinstance(amap, tuple):
        return True
    return pg.affine_hull(pg.poly(len(amap[0]), eqs=[(r, 0) for r in amap])).rank() == len(amap)


def _meets(p: pg.Polyhedron, to_p, q: pg.Polyhedron, to_q, interior: bool) -> bool:
    """Is there x with to_p x in int pi(p) (ri pi(p) unless interior) and
    to_q x in pi(q)?  The maps are a scalar or a matrix, as
    ``polyhedra.BlockRows`` slices take them; p is pulled back along to_p."""
    n = len(to_p[0]) if isinstance(to_p, tuple) else p.n
    b = pg.BlockRows(("x", n)).pull(p, (p.n, {"x": to_p})).pull(q, (q.n, {"x": to_q}))
    return pg.ri_point(p, b, range(p.n) if interior else ()) is not None


def _slice_interior_point(dom: pg.Polyhedron, nx: int, ny: int) -> bool:
    """Is there x' with (x', y) in dom for all y in a small box around 0?

    Exactly when the linear part of aff(dom) contains {0} x R^ny and some
    (x'', 0) lies in ri(dom): from such a point the affine hull, and so
    dom, extends in every y direction; conversely, a slice interior at x'
    puts those directions in the hull, and the segment from a point of
    ri(dom) to (x', y') for a small y' against it crosses y = 0 inside
    ri(dom) (Rockafellar, *Convex Analysis*, Thm 6.1).  With no block y
    declared, the strict LP substitutes y = 0.
    """
    at_y0 = pg.BlockRows(("x", nx)).pull(dom, (nx, {"x": 1}), (ny, {"y": 1}))
    return pg.ri_point(dom, at_y0, range(nx, nx + ny)) is not None


def _cone_meets(ctx: DiagnosisContext, interior: bool) -> bool:
    """Is there z in g(dom f ∩ S) with -z in int C (ri C unless interior)?"""
    image, c = (s.poly for s in ctx.view.sets)
    return _meets(c, -1, image, 1, interior)


def _slater_clause(ctx: DiagnosisContext) -> Clause:
    text = "a feasible point maps into the negative interior of the ordering cone"
    cone = ctx.view.sets[1]
    if ctx.numeric:
        if cone.poly.eqs and not cone.poly.aux:
            return _status_clause(text, FAILS, "the cone carries equalities, so its interior is empty")
        return _status_clause(text, HOLDS if _cone_meets(ctx, True) else FAILS, "strict-feasibility LP")
    if inf.interior_is_empty(cone) is HOLDS:
        return _status_clause(text, FAILS, "the ordering cone has empty interior")
    return _status_clause(text, UNKNOWN, "cone interior undecided")


def _lp_clause(text: str, declared: Optional[eng.SpecialFact], status: FactStatus, detail: str) -> Clause:
    """A numeric clause decided by its exact LP; a declared status must agree."""
    if declared is not None and declared.status is not UNKNOWN and declared.status is not status:
        found = "holds" if status is HOLDS else "fails"
        raise InconsistencyError(f"the declared fact contradicts the exact LP, by which '{text}' {found}")
    return _status_clause(text, status, detail)


def _slater_qri_clause(ctx: DiagnosisContext) -> Clause:
    text = "a feasible point maps into minus the quasi-relative interior of the cone"
    declared = ctx.instance.slater_qri_fact
    if ctx.numeric:
        hit = _cone_meets(ctx, False)
        return _lp_clause(text, declared, HOLDS if hit else FAILS, "relative-interior LP on the cone rows")
    if declared is not None:
        return _status_clause(text, declared.status, declared.note or "declared certificate", (declared.cite,))
    image, cone = ctx.view.sets
    cite = se.empty_qri_cite(cone)
    if cite is not None:
        return _status_clause(text, FAILS, "the cone's quasi-relative interior is empty", (cite,))
    if isinstance(cone, se.Singleton) and se.is_origin(cone.point):
        fact = ctx.engine.member(ORIGIN, image)
        return Clause(text, fact.status, fact.prov + (Step("zero-cone", "qri({0}) = {0}: the map must hit zero"),))
    return _status_clause(text, UNKNOWN, "no rule for this cone")


def _meets_qri_clause(ctx: DiagnosisContext) -> Clause:
    text = "dom f meets the quasi-relative interior of dom g"
    declared = ctx.instance.meets_qri_fact
    dom_f, dom_g = ctx.view.sets
    if ctx.numeric:
        # in finite dimension qri is ri: some x in dom f with Ax in ri(dom g)
        hit = ctx.g_continuous or _meets(dom_g.poly, ctx.model.amap, dom_f.poly, 1, False)
        detail = EVERYWHERE if ctx.g_everywhere else "strict-feasibility LP: A(dom f) meets ri(dom g)"
        return _lp_clause(text, declared, HOLDS if hit else FAILS, detail)
    if declared is not None:
        return _status_clause(text, declared.status, declared.note or "declared certificate", (declared.cite,))
    return _fact_clause(text, inf.meets_qri(ctx.engine, dom_f, dom_g))


def _qi_diff_clause(ctx: DiagnosisContext, text: str, u: se.SetExpr) -> Clause:
    """Is the origin quasi-interior to U - U?

    A numeric U is a ``PolyAtom`` over the model's polyhedron, nonempty
    and convex.  Then U - U is symmetric, so the origin lies in its
    relative interior, and its affine hull is the linear space parallel to
    aff U: the origin is interior to U - U exactly when aff U is the whole
    space.  That takes the implicit rows of U (one LP) and exact
    elimination, and builds no difference.  A symbolic U goes to the rule
    engine on U - U.
    """
    if ctx.numeric:
        whole = pg.affine_hull(u.poly).is_whole()
        detail = "the origin is interior to U - U exactly when aff U is the whole space"
        return _status_clause(text, HOLDS if whole else FAILS, detail)
    return _fact_clause(text, ctx.engine.infer(Notion.QI, ORIGIN, normalize(se.MinkSum((u, se.Neg(u))))))


def check_rc8(instance: eng.Instance, ctx: Optional[DiagnosisContext] = None) -> ConditionVerdict:
    """Closedness of the conjugate-epigraph sum."""
    if isinstance(instance, eng.PerturbationInstance):
        raise ApplicabilityError("no closedness condition for the perturbation family")
    ctx = ctx or DiagnosisContext(instance)
    cid = ConditionId(ctx.family, "8")
    clauses = list(ctx.lsc_clauses)
    text = "the conjugate-epigraph sum is weak*-closed"
    declared = getattr(instance, "rc8_fact", None)
    if ctx.numeric:
        clauses.append(
            _status_clause(text, HOLDS, "sums of polyhedral epigraphs are polyhedral, hence closed")
        )
        return ConditionVerdict(cid, tuple(clauses))
    if declared is not None:
        clauses.append(
            _status_clause(text, declared.status, declared.note or "declared certificate", (declared.cite,))
        )
        return ConditionVerdict(cid, tuple(clauses))
    if ctx.family == FAMILY_FENCHEL and isinstance(instance.f, fx.IndicatorOf) and isinstance(
        instance.g, fx.IndicatorOf
    ):
        cf = fx.conjugate(instance.f)
        cg = fx.conjugate(instance.g)
        if isinstance(cf, fx.IndicatorOf) and isinstance(cg, fx.IndicatorOf):
            total = normalize(se.MinkSum((cf.set_, cg.set_)))
            closed = se.attrs(total).closed
            if closed is not UNKNOWN:
                clauses.append(
                    _status_clause(
                        text,
                        closed,
                        "the sum of the conjugate indicator domains decides closedness",
                    )
                )
                return ConditionVerdict(cid, tuple(clauses))
    clauses.append(_status_clause(text, UNKNOWN, "no certificate"))
    return ConditionVerdict(cid, tuple(clauses))


def evaluate_condition(
    cid_or_index, instance: eng.Instance, ctx: Optional[DiagnosisContext] = None
) -> ConditionVerdict:
    ctx = ctx or DiagnosisContext(instance)
    index = cid_or_index.index if isinstance(cid_or_index, ConditionId) else str(cid_or_index)
    cid = ConditionId(ctx.family, index)
    if index == "1":
        return ConditionVerdict(cid, (_continuity_clause(ctx),))
    if index in ("2", "3", "4", "5"):
        clauses = [_frechet_clause(ctx), *ctx.lsc_clauses]
        if index == "2":
            clauses.append(_pr_notion_clause(ctx, Notion.INT, "the origin is interior to the projected domain"))
        elif index == "3":
            clauses.append(_pr_notion_clause(ctx, Notion.CORE, "the origin is in the core of the projected domain"))
        elif index == "4":
            clauses.append(_aff_closed_clause(ctx))
            clauses.append(_pr_notion_clause(ctx, Notion.ICR, "the origin is in the intrinsic core of the projected domain"))
        else:
            clauses.append(_pr_notion_clause(ctx, Notion.SQRI, "the origin is in the strong quasi-relative interior of the projected domain"))
        return ConditionVerdict(cid, tuple(clauses))
    if index == "6'":
        # the second clause asks about dom g, or about C, the view's second set
        if ctx.family == FAMILY_FENCHEL:
            first, text = _meets_qri_clause(ctx), "the origin is quasi-interior to dom g - dom g"
        elif ctx.family == FAMILY_LAGRANGE:
            first, text = _slater_qri_clause(ctx), "the cone spans a dense subspace: cl(C - C) is the whole space"
        else:
            raise ApplicabilityError("no primed condition for the perturbation family")
        clauses = (first, _qi_diff_clause(ctx, text, ctx.view.sets[1]), ctx.exclusion_clause)
        return ConditionVerdict(cid, clauses)
    if index == "6":
        clauses = [
            _pr_notion_clause(ctx, Notion.QI, "the origin is quasi-interior to the projected domain"),
            ctx.exclusion_clause,
        ]
        return ConditionVerdict(cid, tuple(clauses))
    if index == "7":
        clauses = [
            _qi_diff_clause(
                ctx,
                "the origin is quasi-interior to the difference of the projected domain with itself",
                ctx.view.pr_dom,
            ),
            _pr_notion_clause(ctx, Notion.QRI, "the origin is in the quasi-relative interior of the projected domain"),
            ctx.exclusion_clause,
        ]
        return ConditionVerdict(cid, tuple(clauses))
    if index == "8":
        return check_rc8(instance, ctx)
    raise ApplicabilityError(f"unknown condition index {index!r}")


# -- diagnosis ------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnosis:
    instance_id: str
    family: str
    verdicts: tuple[tuple[str, ConditionVerdict], ...]
    values: eng.ValueReport
    strong_duality: tuple[str, str]  # (kind, detail)
    consistency: tuple[bool, tuple[str, ...]]
    hypotheses: frozenset  # the ambient hypotheses that held (see HYPOTHESES)
    reverse_check: Optional[tuple[bool, str]] = None

    def verdict(self, index: str) -> ConditionVerdict:
        for idx, v in self.verdicts:
            if idx == index:
                return v
        raise KeyError(index)


def _gap_detected(values: eng.ValueReport) -> bool:
    if values.vp is None or values.vd is None:
        return False
    return er_lt(values.vd, values.vp)


def diagnose(instance: eng.Instance, ctx: Optional[DiagnosisContext] = None) -> Diagnosis:
    ctx = ctx or DiagnosisContext(instance)
    verdicts: dict[str, ConditionVerdict] = {}
    for index in family_indices(ctx.family):
        verdicts[index] = evaluate_condition(index, instance, ctx)
    _close_under_implications(ctx, verdicts)
    strong = _strong_duality_verdict(ctx, verdicts)
    reverse = _reverse_check(ctx)
    violations = _violations(ctx.family, verdicts, strong[0], ctx.held)
    return Diagnosis(
        instance_id=getattr(instance, "instance_id", ""),
        family=ctx.family,
        verdicts=tuple((i, verdicts[i]) for i in family_indices(ctx.family)),
        values=ctx.values,
        strong_duality=strong,
        consistency=(not violations, violations),
        hypotheses=ctx.held,
        reverse_check=reverse,
    )


def _close_under_implications(ctx: DiagnosisContext, verdicts: dict):
    edges = [e for e in _EDGES[ctx.family] if e.hyps <= ctx.held]
    gap = _gap_detected(ctx.values)
    changed = True
    while changed:
        changed = False
        for e in edges:
            src, dst = verdicts.get(e.src), verdicts.get(e.dst)
            if src is None or dst is None:
                continue
            if src.status is HOLDS and dst.status is UNKNOWN:
                verdicts[e.dst] = _implied_holds(dst, e)
                changed = True
            elif dst.status is FAILS and src.status is UNKNOWN:
                verdicts[e.src] = _implied_fails(src, e)
                changed = True
        if gap:
            for index, v in list(verdicts.items()):
                if v.status is UNKNOWN and _SUFFICIENCY_HYPS[index] <= ctx.held:
                    verdicts[index] = _refuted_by_gap(v)
                    changed = True


def _implied_holds(v: ConditionVerdict, e: Edge) -> ConditionVerdict:
    step = Step("implication", f"implied by RC{e.src} ({e.cite})")
    new_clauses = tuple(
        Clause(c.text, HOLDS, c.prov + (step,)) if c.status is not HOLDS else c
        for c in v.clauses
    )
    return ConditionVerdict(v.cid, new_clauses)


def _implied_fails(v: ConditionVerdict, e: Edge) -> ConditionVerdict:
    step = Step("contrapositive", f"RC{e.src} implies RC{e.dst}, and RC{e.dst} fails ({e.cite})")
    derived = Clause("derived refutation along the implication graph", FAILS, (step,))
    return ConditionVerdict(v.cid, v.clauses + (derived,))


def _refuted_by_gap(v: ConditionVerdict) -> ConditionVerdict:
    step = Step(
        "weak-duality-contrapositive",
        "a duality gap is certified, so no sufficient condition can hold",
    )
    derived = Clause("derived refutation from the certified gap", FAILS, (step,))
    return ConditionVerdict(v.cid, v.clauses + (derived,))


def _strong_duality_verdict(ctx: DiagnosisContext, verdicts: dict) -> tuple[str, str]:
    values = ctx.values
    if _gap_detected(values):
        return ("gap-detected", f"vP = {values.vp}, vD = {values.vd}")
    for index in family_indices(ctx.family):
        v = verdicts.get(index)
        if v is not None and v.status is HOLDS and _SUFFICIENCY_HYPS[index] <= ctx.held:
            return ("guaranteed-by", f"RC{index}")
    if values.vp is not None and values.vp == MINF:
        return ("verified-numerically", "the primal value is -inf; weak duality forces equality")
    if (
        values.vp is not None
        and values.vd is not None
        and values.vp == values.vd
        and values.vd_attained
    ):
        return ("verified-numerically", "equal exact values with dual attainment")
    return ("undecided", "no sufficient condition established and values incomplete")


def _reverse_check(ctx: DiagnosisContext) -> Optional[tuple[bool, str]]:
    """With certified strong duality and dual attainment the origin pair
    cannot be quasi-interior to the hull of the shifted epigraph projection."""
    values = ctx.values
    if not ctx.numeric or values.vp is None or not values.vp.is_finite():
        return None
    if values.vd != values.vp or not values.vd_attained:
        return None
    if ctx.view.epi_pr is None:
        return None
    inside = pg.zero_in(Notion.QI, ctx.view.epi_pr.poly)
    if inside:
        return (False, "strong duality holds yet the origin pair is quasi-interior to the projection")
    return (True, "the origin pair avoids the quasi-interior, as strong duality demands")


def consistency_check(d: Diagnosis) -> tuple[bool, tuple[str, ...]]:
    """Re-check a finished diagnosis against the implication graph."""
    violations = _violations(d.family, dict(d.verdicts), d.strong_duality[0], d.hypotheses)
    return (not violations, violations)


def _violations(family: str, verdicts: dict, strong_kind: str, held: frozenset) -> tuple[str, ...]:
    """Edges and sufficiency results whose hypotheses hold yet the verdicts contradict."""
    violations = []
    for e in _EDGES[family]:
        if not e.hyps <= held:
            continue
        src, dst = verdicts.get(e.src), verdicts.get(e.dst)
        if src is None or dst is None:
            continue
        if src.status is HOLDS and dst.status is FAILS:
            violations.append(f"RC{e.src} holds but RC{e.dst} fails ({e.cite})")
    if strong_kind == "gap-detected":
        for index, v in verdicts.items():
            if v.status is HOLDS and _SUFFICIENCY_HYPS[index] <= held:
                violations.append(f"gap detected while RC{index} holds")
    return tuple(violations)
