"""Rule engine for interiority queries on set expressions.

``Engine.infer(notion, point, set)`` answers "does the point belong to
notion(set)?" with a three-valued status and a replayable provenance
chain.  A query splits into plain membership plus a test on the cone
generated by the set minus the point:

    int        point in the interior
    whole_alg  cone(S - p) is the whole space            (core)
    whole_cl   cl cone(S - p) is the whole space         (qi)
    sub_closed cone(S - p) is a closed linear subspace   (sqri)
    sub_alg    cone(S - p) is a linear subspace          (icr)
    sub_cl     cl cone(S - p) is a linear subspace       (qri)

Each kind of a (point, set) has a direct status: the first decided
named rule in rule order (catalog tables, subspace and cone arguments,
product splitting, dense-subspace arguments, the nonnegativity
certificate for epigraph-difference sets, declared certificates with
citations, and the exact finite-dimensional fallback).  An engine
computes each direct status at most once, when a query first needs it.
A kind left undecided is closed under the paper's inclusion scheme, a
small DAG over the kinds: it holds when a stronger kind holds directly,
and fails when a weaker kind fails directly.  Both walks follow the DAG
one way, so the answers do not depend on the order of the queries, and
the rule order can be permuted to check confluence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import funcexpr as fx
from . import polyhedra as pg
from . import setexpr as se
from .exactlp import rat
from .polyhedra import Notion
from .setexpr import (
    FAILS,
    HOLDS,
    UNKNOWN,
    FactStatus,
    ORIGIN,
    Point,
    SetExpr,
    and3,
    attrs,
    normalize,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class Step:
    rule: str
    detail: str
    cites: tuple[tuple[str, str], ...] = ()


Provenance = tuple[Step, ...]


@dataclass(frozen=True)
class Fact:
    status: FactStatus
    prov: Provenance = ()


_UNKNOWN_FACT = Fact(UNKNOWN)
_MISS = object()  # absent from a memo

_KIND_OF_NOTION = {
    Notion.INT: "int",
    Notion.CORE: "whole_alg",
    Notion.QI: "whole_cl",
    Notion.SQRI: "sub_closed",
    Notion.ICR: "sub_alg",
    Notion.QRI: "sub_cl",
}
_NOTION_OF_KIND = {v: k for k, v in _KIND_OF_NOTION.items()}

# cone-kind DAG edges: stronger -> weaker (membership in the stronger
# notion implies membership in the weaker one)
_WEAKER = {
    "int": ("whole_alg",),
    "whole_alg": ("whole_cl", "sub_closed"),
    "whole_cl": ("sub_cl",),
    "sub_closed": ("sub_alg",),
    "sub_alg": ("sub_cl",),
    "sub_cl": (),
}
_STRONGER = {k: tuple(s for s, ws in _WEAKER.items() if k in ws) for k in _WEAKER}


@dataclass(frozen=True)
class DeclaredFact:
    """Externally certified membership fact, carried with its citation."""

    notion: Optional[Notion]  # None: plain membership in the set
    point: Point
    set_: SetExpr
    status: FactStatus
    cite: tuple[str, str] = ("", "")


def _zero_vec(n: int) -> tuple:
    return tuple(ZERO for _ in range(n))


def _point_vec(p: Point, n: int) -> Optional[tuple]:
    if isinstance(p, se._Origin):
        return _zero_vec(n)
    if isinstance(p, se.VecPoint):
        return p.coords
    return None


def _split_pair_point(p: Point) -> Optional[tuple[Point, Point]]:
    """Split a point of a product space into its two factors."""
    if isinstance(p, se._Origin):
        return ORIGIN, ORIGIN
    return None


class Engine:
    def __init__(self, declared: Sequence[DeclaredFact] = (), rule_order: Optional[Sequence[str]] = None):
        self.declared: dict = {(d.notion, d.point, normalize(d.set_)): d for d in declared}
        names = list(rule_order) if rule_order is not None else list(_RULE_NAMES)
        self._rules = [(nm, _RULES[nm]) for nm in names]
        self._memo: dict = {}  # (kind or "member", point, set) -> direct fact

    # -- public api ---------------------------------------------------------

    def infer(self, notion: Notion, point: Point, s: SetExpr) -> Fact:
        s = normalize(s)
        m = self.member(point, s)
        c = self.cone_test(_KIND_OF_NOTION[notion], point, s)
        status = and3(m.status, c.status)
        return Fact(status, m.prov + c.prov)

    def member(self, point: Point, s: SetExpr) -> Fact:
        return self._direct("member", point, normalize(s))

    def cone_test(self, kind: str, point: Point, s: SetExpr) -> Fact:
        """The fact for ``kind`` (membership for ``"member"``).  The kind's
        direct status, the first decided rule's fact, is computed at most
        once per engine.  When no rule decides it, the inclusion scheme
        does: the kind holds if a stronger kind holds directly and fails if
        a weaker kind fails directly, reached through undecided kinds."""
        return self._closed(kind, point, normalize(s))

    # -- direct statuses and their closure ----------------------------------

    def _direct(self, kind: str, point: Point, s: SetExpr) -> Fact:
        key = (kind, point, s)
        out = self._memo.get(key, _MISS)
        if out is _MISS:
            if kind == "member":
                out = self._member(point, s)
            else:
                out = _UNKNOWN_FACT
                for _, rule in self._rules:
                    got = rule(self, kind, point, s)
                    if got is not None and got.status is not UNKNOWN:
                        out = got
                        break
            self._memo[key] = out
        return out

    def _closed(self, kind: str, point: Point, s: SetExpr, skip: Optional[str] = None) -> Fact:
        """``cone_test`` on a normalized set, with the stronger kind
        ``skip`` left out of the upward walk."""
        out = self._direct(kind, point, s)
        if out.status is UNKNOWN and kind in _WEAKER:
            out = self._implied(kind, point, s, HOLDS, skip) or self._implied(kind, point, s, FAILS) or out
        return out

    def _implied(
        self, kind: str, point: Point, s: SetExpr, status: FactStatus, skip: Optional[str] = None
    ) -> Optional[Fact]:
        """HOLDS from the first stronger kind in ``_STRONGER`` order that
        holds, or FAILS from the first weaker kind in ``_WEAKER`` order that
        fails, directly or through its own undecided neighbours."""
        holds = status is HOLDS
        for other in (_STRONGER if holds else _WEAKER)[kind]:
            if other == skip:
                continue
            got = self._direct(other, point, s)
            if got.status is UNKNOWN:
                got = self._implied(other, point, s, status)
            if got is not None and got.status is status:
                text = f"{other} implies {kind}" if holds else f"failing {other} refutes {kind}"
                return Fact(status, got.prov + (Step("inclusion-scheme", text),))
        return None

    # -- membership ----------------------------------------------------------

    def _member(self, point: Point, s: SetExpr) -> Fact:
        d = self._declared_any_notion(point, s)
        if d is not None:
            return d
        if isinstance(s, se.ConvexHullWithOrigin) and se.is_origin(point):
            return Fact(HOLDS, (Step("hull-origin", "the hull includes the origin"),))
        if isinstance(s, se.PolyAtom):
            v = _point_vec(point, s.poly.n)
            if v is not None:
                ok = pg.contains(s.poly, v)
                return Fact(
                    HOLDS if ok else FAILS,
                    (Step("poly-membership", "exact H-representation membership"),),
                )
        if isinstance(s, se.Translate):
            shifted = se.padd(point, se.pneg(s.offset))
            if shifted is not None:
                inner = self.member(shifted, s.inner)
                if inner.status is not UNKNOWN:
                    return Fact(inner.status, inner.prov + (Step("translate", "membership shifts with translation"),))
        if isinstance(s, se.Neg):
            inner = self.member(se.pneg(point), s.inner)
            if inner.status is not UNKNOWN:
                return Fact(inner.status, inner.prov + (Step("negate", "membership reflects through negation"),))
        if isinstance(s, se.Singleton):
            if point == s.point or (se.is_origin(point) and se.is_origin(s.point)):
                return Fact(HOLDS, (Step("singleton", "the point is the singleton"),))
            if isinstance(point, se.VecPoint) and isinstance(s.point, se.VecPoint):
                return Fact(FAILS, (Step("singleton", "distinct exact points"),))
        if isinstance(s, se.Product):
            pair = _split_pair_point(point)
            if pair is not None:
                l = self.member(pair[0], s.left)
                r = self.member(pair[1], s.right)
                st = and3(l.status, r.status)
                if st is not UNKNOWN:
                    return Fact(st, l.prov + r.prov + (Step("product", "componentwise membership"),))
        if isinstance(s, se.CatalogAtom):
            if s.cid in (se.LP_PLUS, se.LP_PLUS_UNC):
                if se.is_origin(point):
                    return Fact(HOLDS, (Step("catalog", "the positive cone contains the origin"),))
                if isinstance(point, se.SymPoint) and (
                    "strictly_positive" in point.attrs or "nonneg" in point.attrs
                ):
                    return Fact(HOLDS, (Step("catalog", "nonnegative sequences lie in the positive cone"),))
        if se.is_origin(point):
            a = attrs(s).contains_origin
            if a is not UNKNOWN:
                return Fact(a, (Step("attrs", "structural origin membership"),))
        return _UNKNOWN_FACT

    def _declared_any_notion(self, point: Point, s: SetExpr) -> Optional[Fact]:
        d = self.declared.get((None, point, s))
        if d is not None:
            return Fact(d.status, (Step("declared", "declared membership", (d.cite,)),))
        for notion in Notion:
            d = self.declared.get((notion, point, s))
            if d is not None and d.status is HOLDS:
                # membership in any notion set implies membership in the set
                return Fact(HOLDS, (Step("declared", f"declared {notion.value} membership", (d.cite,)),))
        return None

    def _declared_cone(self, kind: str, point: Point, s: SetExpr) -> Optional[Fact]:
        d = self.declared.get((_NOTION_OF_KIND[kind], point, s))
        if d is None:
            return None
        return Fact(d.status, (Step("declared", f"declared {_NOTION_OF_KIND[kind].value} status", (d.cite,)),))

    def _declared_holds_somewhere(self, notion: Notion, s: SetExpr) -> Optional[tuple[Point, Fact]]:
        for (nt, pt, st), d in self.declared.items():
            if nt is notion and st == s and d.status is HOLDS:
                return pt, Fact(HOLDS, (Step("declared", f"declared {notion.value} point", (d.cite,)),))
        return None


# -- rules ---------------------------------------------------------------------
# Each rule returns a decisive Fact or None/Unknown.  Names are stable; the
# confluence test shuffles their order.


def _r_declared(e: Engine, kind, point, s):
    got = e._declared_cone(kind, point, s)
    if got is not None and got.status is HOLDS:
        return got
    if got is not None and got.status is FAILS:
        # a declared negative notion fact refutes the conjunction, not
        # necessarily the cone part; usable only when membership holds
        m = e.member(point, s)
        if m.status is HOLDS:
            return got
    return None


def _r_whole_space(e: Engine, kind, point, s):
    if attrs(s).whole is HOLDS:
        return Fact(HOLDS, (Step("whole-space", "every point is interior to the whole space"),))
    return None


def _r_polyatom(e: Engine, kind, point, s):
    if not isinstance(s, se.PolyAtom):
        return None
    v = _point_vec(point, s.poly.n)
    if v is None:
        return None
    moved = pg.translate(s.poly, tuple(-c for c in v)) if any(c != 0 for c in v) else s.poly
    if not pg.contains(moved, _zero_vec(s.poly.n)):
        return None  # cone tests at outside points stay undecided
    ok = pg.zero_in(_NOTION_OF_KIND[kind], moved)
    return Fact(
        HOLDS if ok else FAILS,
        (Step("finite-dim", "exact interiority test on the H-representation"),),
    )


def _r_rewrite(e: Engine, kind, point, s):
    if isinstance(s, se.Translate):
        shifted = se.padd(point, se.pneg(s.offset))
        if shifted is not None:
            inner = e.cone_test(kind, shifted, s.inner)
            if inner.status is not UNKNOWN:
                return Fact(inner.status, inner.prov + (Step("translate", "interiority is translation invariant"),))
    if isinstance(s, se.Neg):
        inner = e.cone_test(kind, se.pneg(point), s.inner)
        if inner.status is not UNKNOWN:
            return Fact(inner.status, inner.prov + (Step("negate", "interiority is symmetric under negation"),))
    if isinstance(s, se.Scale) and se.is_origin(point) and s.factor > 0:
        inner = e.cone_test(kind, point, s.inner)
        if inner.status is not UNKNOWN:
            return Fact(inner.status, inner.prov + (Step("scale", "positive scaling preserves cones"),))
    if isinstance(s, se.ConvexHullWithOrigin) and se.is_origin(point):
        inner = e.cone_test(kind, ORIGIN, s.inner)
        if inner.status is not UNKNOWN:
            return Fact(
                inner.status,
                inner.prov
                + (Step("cone-of-hull", "the conic hull of co(U u {0}) equals the conic hull of U"),),
            )
    if isinstance(s, se.Closure) and kind in ("whole_cl", "sub_cl"):
        inner = e.cone_test(kind, point, s.inner)
        if inner.status is not UNKNOWN:
            return Fact(inner.status, inner.prov + (Step("closure", "closures do not change closed conic hulls"),))
    return None


def _r_singleton(e: Engine, kind, point, s):
    if not isinstance(s, se.Singleton):
        return None
    same = point == s.point or (se.is_origin(point) and se.is_origin(s.point))
    if not same:
        return None
    if kind in ("sub_closed", "sub_alg", "sub_cl"):
        return Fact(HOLDS, (Step("singleton", "the trivial cone is a closed linear subspace"),))
    if s.space.is_zero:
        return Fact(HOLDS, (Step("singleton", "zero space"),))
    return Fact(FAILS, (Step("singleton", "a single point spans nothing in a nonzero space"),))


def _r_catalog_table(e: Engine, kind, point, s):
    if not isinstance(s, se.CatalogAtom):
        return None
    notion = _NOTION_OF_KIND[kind]
    desc = se.catalog_notion_set(s.cid, notion.value, s.params)
    if desc is None:
        return None
    cite = se.catalog_cite(s.cid) or ("", "")
    if desc == se.EMPTY_SET:
        return Fact(FAILS, (Step("catalog", f"{notion.value} set of {s.cid} is empty", (cite,)),))
    if desc == se.PRED_STRICTLY_POSITIVE:
        if se.is_origin(point):
            return Fact(FAILS, (Step("catalog", "the origin is not strictly positive", (cite,)),))
        if isinstance(point, se.SymPoint):
            if "strictly_positive" in point.attrs:
                return Fact(HOLDS, (Step("catalog", "strictly positive sequences fill the set", (cite,)),))
            if "not_strictly_positive" in point.attrs:
                return Fact(FAILS, (Step("catalog", "some coordinate vanishes", (cite,)),))
        if isinstance(point, se.NegPoint) and "strictly_positive" in point.base.attrs:
            return Fact(FAILS, (Step("catalog", "negatives of positive sequences leave the set", (cite,)),))
    return None


def _r_subspace(e: Engine, kind, point, s):
    a = attrs(s)
    # at a member point the generated cone is the subspace itself; at any
    # other point it is a half-space of a larger one
    if a.subspace is not HOLDS or e.member(point, s).status is not HOLDS:
        return None
    cites = (se.catalog_cite(s.cid),) if isinstance(s, se.CatalogAtom) and se.catalog_cite(s.cid) else ()
    sub_cites = tuple(c for c in cites if c)
    if kind == "sub_alg" or kind == "sub_cl":
        return Fact(HOLDS, (Step("subspace", "a linear subspace is its own conic hull", sub_cites),))
    if kind == "sub_closed":
        if a.closed is HOLDS:
            return Fact(HOLDS, (Step("subspace", "closed linear subspace", sub_cites),))
        if a.closed is FAILS:
            return Fact(FAILS, (Step("subspace", "the subspace is not closed", sub_cites),))
    if kind == "whole_cl":
        if a.whole is HOLDS or a.dense is HOLDS:
            return Fact(HOLDS, (Step("dense-subspace", "the subspace is dense, its closure is everything", sub_cites),))
        if a.dense is FAILS or (a.closed is HOLDS and a.whole is FAILS):
            return Fact(FAILS, (Step("subspace", "the closure stays a proper subspace", sub_cites),))
    if kind in ("whole_alg", "int"):
        if a.whole is HOLDS:
            return Fact(HOLDS, (Step("subspace", "the subspace is the whole space", sub_cites),))
        if a.whole is FAILS:
            return Fact(FAILS, (Step("subspace", "a proper subspace has no interior points", sub_cites),))
    return None


def _r_convex_cone(e: Engine, kind, point, s):
    if not se.is_origin(point):
        return None
    a = attrs(s)
    if a.cone is not HOLDS or a.convex is not HOLDS:
        return None
    # cone(S - 0) = S for a convex cone
    if kind == "whole_alg" or kind == "int":
        if a.whole is HOLDS:
            return Fact(HOLDS, (Step("cone", "the cone is the whole space"),))
        if a.whole is FAILS:
            return Fact(FAILS, (Step("cone", "a proper cone cannot have the origin interior"),))
    if kind == "whole_cl":
        if a.dense is HOLDS or a.whole is HOLDS:
            return Fact(HOLDS, (Step("cone", "the cone is dense"),))
        if a.dense is FAILS:
            return Fact(FAILS, (Step("cone", "the closure stays proper"),))
        if a.closed is HOLDS and a.whole is FAILS:
            return Fact(FAILS, (Step("cone", "a closed proper cone stays proper"),))
    if kind == "sub_alg":
        if a.subspace is not UNKNOWN:
            return Fact(a.subspace, (Step("cone", "the cone is (not) a linear subspace"),))
    if kind == "sub_closed":
        if a.subspace is FAILS:
            return Fact(FAILS, (Step("cone", "not a linear subspace"),))
        if a.subspace is HOLDS and a.closed is not UNKNOWN:
            return Fact(a.closed, (Step("cone", "subspace; closedness decides"),))
    if kind == "sub_cl":
        if a.subspace is HOLDS:
            return Fact(HOLDS, (Step("cone", "subspaces close to subspaces"),))
        if a.dense is HOLDS:
            return Fact(HOLDS, (Step("cone", "dense cone closes to the whole space"),))
        if a.closed is HOLDS and a.subspace is FAILS:
            return Fact(FAILS, (Step("cone", "the closed cone is not a linear subspace"),))
    return None


def _r_product(e: Engine, kind, point, s):
    if not isinstance(s, se.Product):
        return None
    pair = _split_pair_point(point)
    if pair is None:
        return None
    lm = e.member(pair[0], s.left)
    rm = e.member(pair[1], s.right)
    if lm.status is not HOLDS or rm.status is not HOLDS:
        return None
    if attrs(s.left).convex is not HOLDS or attrs(s.right).convex is not HOLDS:
        return None
    l = e.cone_test(kind, pair[0], s.left)
    r = e.cone_test(kind, pair[1], s.right)
    st = and3(l.status, r.status)
    if st is UNKNOWN:
        return None
    return Fact(
        st,
        l.prov + r.prov + (Step("product", "cones of convex products split componentwise"),),
    )


def _r_vertical_ray(e: Engine, kind, point, s):
    """A product of a nonempty set with an upward ray starting at or above
    zero generates a cone inside the closed upper half-space that still
    contains the vertical direction, so it is neither a subspace nor the
    whole space."""
    if not (isinstance(s, se.Product) and se.is_origin(point)):
        return None
    right = s.right
    if not isinstance(right, se.PolyAtom) or right.poly.n != 1 or right.poly.eqs or right.poly.aux:
        return None
    lo = None
    for a, b in right.poly.ineqs:
        if a[0] > 0:
            return None  # bounded above: not a ray
        lo = Fraction(b, a[0]) if lo is None else max(lo, Fraction(b, a[0]))
    if lo is None or lo < 0:
        return None
    if attrs(s.left).nonempty is not HOLDS:
        return None
    return Fact(
        FAILS,
        (
            Step(
                "vertical-ray",
                "the conic hull stays in the closed upper half-space and contains "
                "the vertical ray, so it is not a linear subspace",
            ),
        ),
    )


def _r_epi_nonneg(e: Engine, kind, point, s):
    """Nonnegativity certificate: if the decoupled infimum stays at or
    above the optimal value, the generated cone lies in the upper closed
    half-space and contains the vertical ray, so it is neither a linear
    subspace nor the whole space."""
    if not se.is_origin(point):
        return None
    cert = None
    if isinstance(s, se.EpiDiffSet):
        cert = nonneg_certificate(s.f, s.g, s.v)
    elif isinstance(s, se.ConicExtension):
        cert = conic_nonneg_certificate(s.f, s.sset, s.v)
    if cert is None or cert[0] is not HOLDS:
        return None
    if kind in ("whole_alg", "whole_cl", "sub_alg", "sub_closed", "sub_cl", "int"):
        return Fact(FAILS, cert[1])
    return None


def _r_qi_lemma(e: Engine, kind, point, s):
    if kind != "whole_cl":
        return None
    if isinstance(s, se.PolyAtom):
        # the finite-dimensional rule decides this exactly at points of the
        # set, and lifted differences U - U never repeat (nor stop being
        # empty), so the lemma would not end
        return None
    # qi(U) at p  <=>  qri(U) at p  and  qi(U - U) at 0
    # (skipped when U is itself a sum, which would expand without end)
    diff = normalize(se.MinkSum((s, se.Neg(s))))
    if diff != s and not isinstance(s, se.MinkSum):
        # the lemma is whole_cl's own rule: qri is read from every kind but whole_cl
        qri_here = e._closed("sub_cl", point, s, skip="whole_cl")
        qi_diff = e.cone_test("whole_cl", ORIGIN, diff)
        if qri_here.status is HOLDS and qi_diff.status is HOLDS:
            return Fact(
                HOLDS,
                qri_here.prov
                + qi_diff.prov
                + (Step("qi-from-qri", "quasi interior from quasi-relative interior plus dense difference"),),
            )
        if qi_diff.status is FAILS:
            return Fact(
                FAILS,
                qi_diff.prov + (Step("qi-needs-dense-difference", "the difference set is not dense"),),
            )
    # forward direction on difference sets: a known qi point of U makes
    # cone(U - U) dense
    if isinstance(s, se.MinkSum) and len(s.operands) == 2 and se.is_origin(point):
        a, b = s.operands
        base = None
        if normalize(se.Neg(a)) == b:
            base = a
        elif normalize(se.Neg(b)) == a:
            base = b
        if base is not None:
            hit = e._declared_holds_somewhere(Notion.QI, normalize(base))
            if hit is not None:
                return Fact(
                    HOLDS,
                    hit[1].prov
                    + (Step("qi-point-spreads", "a quasi-interior point of U makes U - U dense"),),
                )
    return None


_RULES: dict[str, Callable] = {
    "declared": _r_declared,
    "whole-space": _r_whole_space,
    "finite-dim": _r_polyatom,
    "rewrite": _r_rewrite,
    "singleton": _r_singleton,
    "catalog": _r_catalog_table,
    "subspace": _r_subspace,
    "convex-cone": _r_convex_cone,
    "product": _r_product,
    "vertical-ray": _r_vertical_ray,
    "epi-nonneg": _r_epi_nonneg,
    "qi-lemma": _r_qi_lemma,
}
_RULE_NAMES = tuple(_RULES)


# -- public operations ----------------------------------------------------------


def nonneg_certificate(f, g, v) -> tuple[FactStatus, Provenance]:
    """Certifies (0,0) outside qri(co(E u {(0,0)})) for the epigraph
    difference set E of (f, g, v) via the decoupled lower bound."""
    v = rat(v)
    lf = fx.domain_lower_bound(f)
    lg = fx.domain_lower_bound(g)
    if lf is None or lg is None:
        return UNKNOWN, (Step("nonneg-certificate", "no decoupled lower bound derived"),)
    if lf + lg >= v:
        return HOLDS, (
            Step(
                "nonneg-certificate",
                "decoupled infimum stays above the optimal value; the conic hull "
                "sits in the upper half-space and contains the vertical ray",
            ),
        )
    return UNKNOWN, (Step("nonneg-certificate", "decoupled bound falls below the value"),)


def conic_nonneg_certificate(f, sset: SetExpr, v) -> tuple[FactStatus, Provenance]:
    """Same certificate for the cone-constrained projected epigraph."""
    v = rat(v)
    restricted = fx.Sum(f, fx.IndicatorOf(sset))
    lb = fx.domain_lower_bound(restricted)
    if lb is None:
        return UNKNOWN, (Step("nonneg-certificate", "no lower bound over the ground set"),)
    if lb >= v:
        return HOLDS, (
            Step(
                "nonneg-certificate",
                "objective minus value is nonnegative on the ground set; the conic "
                "hull stays in the upper half-space",
            ),
        )
    return UNKNOWN, (Step("nonneg-certificate", "bound below the value"),)


def interior_is_empty(s: SetExpr) -> FactStatus:
    """Whether int(S) is empty; used by the continuity clause."""
    s = normalize(s)
    a = attrs(s)
    if a.whole is HOLDS:
        return FAILS
    if isinstance(s, se.PolyAtom):
        pt = pg.ri_point(s.poly, free=range(s.poly.n))
        return FAILS if pt is not None else HOLDS
    if isinstance(s, (se.Translate, se.Neg, se.Scale)):
        return interior_is_empty(s.inner)
    if a.subspace is HOLDS and a.whole is FAILS:
        return HOLDS
    if isinstance(s, se.CatalogAtom):
        desc = se.catalog_notion_set(s.cid, "int", s.params)
        if desc == se.EMPTY_SET:
            return HOLDS
    if isinstance(s, se.Intersect):
        if interior_is_empty(s.left) is HOLDS or interior_is_empty(s.right) is HOLDS:
            return HOLDS  # int of a subset of a thin set stays empty
    return UNKNOWN


def meets_qri(engine: Engine, a: SetExpr, b: SetExpr) -> Fact:
    """Is A ∩ qri(B) nonempty, for symbolic sets?

    Refuted outright when B is a catalog set with an empty quasi-relative
    interior, wherever B sits; proved when the origin lies in A and in
    qri(B); unknown otherwise.  Numeric instances do not come here: their
    sets are polyhedra of the numeric model, decided by one strict
    feasibility LP in ``conditions``.
    """
    a = normalize(a)
    b = normalize(b)
    # an empty quasi-relative interior refutes outright, wherever B sits
    cite = se.empty_qri_cite(b)
    if cite is not None:
        return Fact(FAILS, (Step("catalog", "the quasi-relative interior is empty", (cite,)),))
    # origin witness
    am = engine.member(ORIGIN, a)
    bq = engine.infer(Notion.QRI, ORIGIN, b)
    if am.status is HOLDS and bq.status is HOLDS:
        return Fact(HOLDS, am.prov + bq.prov + (Step("witness", "the origin witnesses the intersection"),))
    return Fact(UNKNOWN, ())
