"""Convex function expression trees and Fenchel conjugation.

Functions are immutable trees.  In the numeric regime every tree on R^n
lowers to its epigraph, a lifted ``Polyhedron`` whose n + 1 kept
coordinates are (x, t): sums, infimal convolutions and the l1 norm stack
rows over auxiliary columns, an affine summand tilts the other epigraph,
and the conjugate is the LP-dual multiplier system of the epigraph with
the multipliers kept as auxiliaries, so epi f* is again a lifted
polyhedron and nothing is eliminated; only ``pf_domain`` drops the
auxiliaries of one sign.  In the symbolic regime conjugation is a rule
table (indicators of subspaces and cones, norms, tilts, translations).

Extended-real arithmetic uses the convex-analysis conventions
(+inf) + (-inf) = +inf and 0 * (+inf) = +inf, 0 * (-inf) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import polyhedra as pg
from . import setexpr as se
from .errors import (
    DimensionMismatchError,
    ImproperFunctionError,
    RegimeError,
    UndecidableValueError,
)
from .exactlp import rat, rat_str, vec
from .setexpr import (
    FAILS,
    HOLDS,
    UNKNOWN,
    FactStatus,
    Point,
    SetExpr,
    and3,
    attrs,
    normalize,
)
from .spaces import SpaceTag, banach

ZERO = Fraction(0)


# -- extended reals -----------------------------------------------------------


@dataclass(frozen=True)
class ExtReal:
    kind: str  # "num" | "pinf" | "minf"
    value: Fraction = ZERO

    def is_finite(self) -> bool:
        return self.kind == "num"

    def __repr__(self):
        if self.kind == "pinf":
            return "+inf"
        if self.kind == "minf":
            return "-inf"
        return rat_str(self.value)


PINF = ExtReal("pinf")
MINF = ExtReal("minf")


def er(x) -> ExtReal:
    if isinstance(x, ExtReal):
        return x
    return ExtReal("num", rat(x))


def er_add(a: ExtReal, b: ExtReal) -> ExtReal:
    if a.kind == "pinf" or b.kind == "pinf":
        return PINF  # includes (+inf) + (-inf) = +inf
    if a.kind == "minf" or b.kind == "minf":
        return MINF
    return ExtReal("num", a.value + b.value)


def er_neg(a: ExtReal) -> ExtReal:
    if a.kind == "pinf":
        return MINF
    if a.kind == "minf":
        return PINF
    return ExtReal("num", -a.value)


def er_sub(a: ExtReal, b: ExtReal) -> ExtReal:
    return er_add(a, er_neg(b))


def er_le(a: ExtReal, b: ExtReal) -> bool:
    order = {"minf": 0, "num": 1, "pinf": 2}
    if a.kind == "num" and b.kind == "num":
        return a.value <= b.value
    return order[a.kind] <= order[b.kind]


def er_lt(a: ExtReal, b: ExtReal) -> bool:
    return er_le(a, b) and a != b


# -- function expressions -----------------------------------------------------


@dataclass(frozen=True)
class SymVec:
    """Named vector of an infinite-dimensional space; attrs are predicates
    such as 'nonneg', 'coordinate', 'continuous'."""

    name: str
    attrs: frozenset[str] = frozenset()

    def __repr__(self):
        return self.name


VecOrSym = Union[tuple, SymVec]


@dataclass(frozen=True)
class Affine:
    c: VecOrSym
    alpha: Fraction = ZERO


@dataclass(frozen=True)
class IndicatorOf:
    set_: SetExpr


@dataclass(frozen=True)
class NormAtom:
    kind: str  # "l1" | "l2" | "linf"


@dataclass(frozen=True)
class SupOfAffine:
    pieces: tuple[tuple[tuple, Fraction], ...]


@dataclass(frozen=True)
class Sum:
    a: "FunctionExpr"
    b: "FunctionExpr"


@dataclass(frozen=True)
class InfConv:
    a: "FunctionExpr"
    b: "FunctionExpr"
    exact: bool = False
    exact_reason: str = ""


@dataclass(frozen=True)
class ArgTranslate:
    """x maps to f(x - shift)."""

    f: "FunctionExpr"
    shift: VecOrSym


@dataclass(frozen=True)
class PrecomposeLinear:
    matrix: tuple  # rows of the map, domain -> function space
    f: "FunctionExpr"


@dataclass(frozen=True)
class PlusConst:
    f: "FunctionExpr"
    const: Fraction


@dataclass(frozen=True)
class ConjugateOf:
    f: "FunctionExpr"


FunctionExpr = Union[
    Affine,
    IndicatorOf,
    NormAtom,
    SupOfAffine,
    Sum,
    InfConv,
    ArgTranslate,
    PrecomposeLinear,
    PlusConst,
    ConjugateOf,
]


# -- attribute derivation -----------------------------------------------------


def is_convex(f: FunctionExpr) -> FactStatus:
    if isinstance(f, (Affine, NormAtom, SupOfAffine, ConjugateOf)):
        return HOLDS
    if isinstance(f, IndicatorOf):
        return attrs(normalize(f.set_)).convex
    if isinstance(f, (Sum, InfConv)):
        return and3(is_convex(f.a), is_convex(f.b))
    if isinstance(f, (ArgTranslate, PlusConst, PrecomposeLinear)):
        return is_convex(f.f)
    return UNKNOWN


def is_lsc(f: FunctionExpr) -> FactStatus:
    if isinstance(f, (Affine, NormAtom, SupOfAffine, ConjugateOf)):
        return HOLDS
    if isinstance(f, IndicatorOf):
        return attrs(normalize(f.set_)).closed
    if isinstance(f, Sum):
        return and3(is_lsc(f.a), is_lsc(f.b))
    if isinstance(f, (ArgTranslate, PlusConst, PrecomposeLinear)):
        return is_lsc(f.f)
    return UNKNOWN


def continuous_everywhere(f: FunctionExpr) -> FactStatus:
    if isinstance(f, (NormAtom, SupOfAffine)):
        return HOLDS
    if isinstance(f, Affine):
        if isinstance(f.c, SymVec):
            return HOLDS if "continuous" in f.c.attrs else UNKNOWN
        return HOLDS
    if isinstance(f, IndicatorOf):
        return attrs(normalize(f.set_)).whole
    if isinstance(f, Sum):
        return and3(continuous_everywhere(f.a), continuous_everywhere(f.b))
    if isinstance(f, (ArgTranslate, PlusConst)):
        return continuous_everywhere(f.f)
    return UNKNOWN


def domain(f: FunctionExpr, space: Optional[SpaceTag] = None) -> SetExpr:
    """Structural domain as a set expression."""
    if isinstance(f, (Affine, NormAtom, SupOfAffine)):
        if space is None:
            raise UndecidableValueError("full-domain atom needs a space tag")
        return se.WholeSpace(space)
    if isinstance(f, IndicatorOf):
        return normalize(f.set_)
    if isinstance(f, Sum):
        return normalize(se.Intersect(domain(f.a, space), domain(f.b, space)))
    if isinstance(f, InfConv):
        return normalize(se.MinkSum((domain(f.a, space), domain(f.b, space))))
    if isinstance(f, ArgTranslate):
        return normalize(se.Translate(domain(f.f, space), _as_point(f.shift)))
    if isinstance(f, PlusConst):
        return domain(f.f, space)
    if isinstance(f, ConjugateOf):
        simplified = conjugate(f.f)
        if not isinstance(simplified, ConjugateOf):
            return domain(simplified, space)
        raise UndecidableValueError("no structural domain rule for this conjugate")
    raise UndecidableValueError("no structural domain rule for this node")


def _as_point(v: VecOrSym) -> Point:
    if isinstance(v, SymVec):
        return se.SymPoint(v.name, v.attrs)
    return se.VecPoint(vec(v))


# -- symbolic conjugation -----------------------------------------------------


def _annihilator(s: SetExpr) -> Optional[SetExpr]:
    if isinstance(s, se.CatalogAtom):
        table = {
            se.SUBSPACE_C: se.SUBSPACE_C_PERP,
            se.SUBSPACE_S: se.SUBSPACE_S_PERP,
            se.KERNEL: se.FUNCTIONAL_LINE,
        }
        if s.cid in table:
            return se.CatalogAtom(table[s.cid], s.space_tag, s.params)
        if s.cid == se.CLOSED_SUBSPACE and s.param("whole", False):
            return se.Singleton(se.ORIGIN, s.space_tag)
    if isinstance(s, se.WholeSpace):
        return se.Singleton(se.ORIGIN, s.space_tag)
    return None


def _polar(s: SetExpr) -> Optional[SetExpr]:
    if isinstance(s, se.CatalogAtom) and s.cid in (se.LP_PLUS, se.LP_PLUS_UNC):
        return se.Neg(s)
    if isinstance(s, se.Neg):
        inner = _polar(s.inner)
        if inner is not None:
            return normalize(se.Neg(inner))
    if attrs(s).subspace is HOLDS:
        return _annihilator(s)
    return None


def conjugate(f: FunctionExpr) -> FunctionExpr:
    """Rule-table Fenchel conjugate.

    Falls back to an unevaluated ConjugateOf node when no rule applies;
    the numeric backend can still evaluate such nodes through the
    epigraph machinery.
    """
    if is_proper(f) is FAILS:
        raise ImproperFunctionError("conjugate of an improper function")

    if isinstance(f, Affine):
        if isinstance(f.c, SymVec):
            target: SetExpr = se.Singleton(se.SymPoint(f.c.name, f.c.attrs), banach("X*"))
        else:
            target = se.PolyAtom(pg.singleton(f.c))
        out: FunctionExpr = IndicatorOf(target)
        return PlusConst(out, -f.alpha) if f.alpha != 0 else out

    if isinstance(f, NormAtom):
        if f.kind in ("l1", "linf"):
            return ConjugateOf(f)  # dual box; the numeric backend evaluates it
        return IndicatorOf(se.CatalogAtom(se.DUAL_BALL, banach("X*"), ()))

    if isinstance(f, IndicatorOf):
        s = normalize(f.set_)
        ann = _annihilator(s) if attrs(s).subspace is HOLDS else None
        if ann is not None:
            return IndicatorOf(normalize(ann))
        if attrs(s).cone is HOLDS:
            pol = _polar(s)
            if pol is not None:
                return IndicatorOf(normalize(pol))
        if isinstance(s, se.Singleton):
            if isinstance(s.point, se.VecPoint):
                return Affine(s.point.coords, ZERO)
            if isinstance(s.point, se._Origin):
                return Affine(SymVec("0", frozenset({"zero", "continuous"})), ZERO)
            if isinstance(s.point, se.SymPoint):
                return Affine(SymVec(s.point.name, s.point.attrs | {"continuous"}), ZERO)
        if isinstance(s, se.Translate):
            # delta_{U + a})* = delta_U* + <., a>
            inner_conj = conjugate(IndicatorOf(s.inner))
            shift_vec = _point_as_vec(s.offset)
            if shift_vec is not None:
                return Sum(inner_conj, Affine(shift_vec, ZERO))
        return ConjugateOf(f)

    if isinstance(f, Sum):
        for fn, other in ((f.a, f.b), (f.b, f.a)):
            if isinstance(fn, Affine):
                # tilt rule, exact unconditionally:
                # (g + <c,.> + alpha)*(y) = g*(y - c) - alpha
                inner = conjugate(other)
                shifted = ArgTranslate(inner, fn.c)
                shifted = _push_argtranslate(shifted)
                return PlusConst(shifted, -fn.alpha) if fn.alpha != 0 else shifted
        ca = conjugate(f.a)
        cb = conjugate(f.b)
        exact = continuous_everywhere(f.a) is HOLDS or continuous_everywhere(f.b) is HOLDS
        reason = "one summand is finite and continuous everywhere" if exact else ""
        if isinstance(ca, IndicatorOf) and isinstance(cb, IndicatorOf) and exact:
            # exact infimal convolution of indicators is the indicator of the sum
            return IndicatorOf(normalize(se.MinkSum((ca.set_, cb.set_))))
        return InfConv(ca, cb, exact=exact, exact_reason=reason)

    if isinstance(f, InfConv):
        return Sum(conjugate(f.a), conjugate(f.b))

    if isinstance(f, ArgTranslate):
        return Sum(conjugate(f.f), Affine(f.shift, ZERO))

    if isinstance(f, PlusConst):
        return PlusConst(conjugate(f.f), -f.const)

    if isinstance(f, ConjugateOf):
        inner = f.f
        if (
            is_proper(inner) is not FAILS
            and is_convex(inner) is HOLDS
            and is_lsc(inner) is HOLDS
        ):
            return inner
        return ConjugateOf(f)

    return ConjugateOf(f)


def _point_as_vec(p: Point) -> Optional[VecOrSym]:
    if isinstance(p, se.VecPoint):
        return p.coords
    if isinstance(p, se.SymPoint):
        return SymVec(p.name, p.attrs)
    if isinstance(p, se.NegPoint):
        return SymVec(f"-{p.base.name}", p.base.attrs)
    return None


def _push_argtranslate(node: ArgTranslate) -> FunctionExpr:
    """delta_S(x - c) = delta_{S + c}(x); keeps indicator conjugates tidy."""
    if isinstance(node.f, IndicatorOf):
        off = _as_point(node.shift)
        return IndicatorOf(normalize(se.Translate(node.f.set_, off)))
    if isinstance(node.f, PlusConst):
        return PlusConst(_push_argtranslate(ArgTranslate(node.f.f, node.shift)), node.f.const)
    return node


def is_proper(f: FunctionExpr) -> FactStatus:
    if isinstance(f, (Affine, NormAtom, SupOfAffine)):
        return HOLDS
    if isinstance(f, IndicatorOf):
        return attrs(normalize(f.set_)).nonempty
    if isinstance(f, Sum):
        # proper unless a domain is empty; conservative
        if is_proper(f.a) is FAILS or is_proper(f.b) is FAILS:
            return FAILS
        return UNKNOWN
    if isinstance(f, (ArgTranslate, PlusConst)):
        return is_proper(f.f)
    return UNKNOWN


# -- numeric lowering ---------------------------------------------------------


def _vec(what: str, v, n: int) -> tuple:
    """The entries of v, exact, refused unless there is one per coordinate of R^n."""
    if len(v) != n:
        raise DimensionMismatchError(f"{what} has {len(v)} entries, but the space is R^{n}")
    return vec(v)


def lower_set(s: SetExpr, n: int) -> pg.Polyhedron:
    s = normalize(s)
    if isinstance(s, se.PolyAtom):
        if s.poly.n != n:
            what = "orthant, interval, rn or poly"
            raise DimensionMismatchError(f"{what} gives a set of R^{s.poly.n}, but the space is R^{n}")
        return s.poly
    if isinstance(s, se.WholeSpace):
        return pg.whole_space(n)
    if isinstance(s, se.Singleton) and isinstance(s.point, se.VecPoint):
        return pg.singleton(_vec("a point", s.point.coords, n))
    if isinstance(s, se.Neg):
        return pg.neg(lower_set(s.inner, n))
    if isinstance(s, se.Translate) and isinstance(s.offset, se.VecPoint):
        return pg.translate(lower_set(s.inner, n), _vec("translate", s.offset.coords, n))
    if isinstance(s, se.Scale):
        return pg.scale(lower_set(s.inner, n), s.factor)
    if isinstance(s, se.MinkSum):
        polys = [lower_set(o, n) for o in s.operands]
        acc = polys[0]
        for q in polys[1:]:
            acc = pg.minkowski_sum(acc, q)
        return acc
    if isinstance(s, se.Intersect):
        return pg.intersect(lower_set(s.left, n), lower_set(s.right, n))
    if isinstance(s, se.Product):
        ln = s.left.space.dim
        rn = s.right.space.dim
        if ln is None or rn is None:
            raise RegimeError("product factors are not finite-dimensional")
        if ln + rn != n:
            raise DimensionMismatchError(f"product gives a set of R^{ln + rn}, but the space is R^{n}")
        return pg.product(lower_set(s.left, ln), lower_set(s.right, rn))
    raise RegimeError(f"set has no finite-dimensional realization: {type(s).__name__}")


def lower(f: FunctionExpr, n: int) -> pg.Polyhedron:
    """The lifted epigraph of a polyhedral function expression on R^n:
    its kept coordinates are (x, t), with t last."""
    if isinstance(f, Affine):
        if isinstance(f.c, SymVec):
            raise RegimeError("symbolic pairing in the numeric regime")
        row = (_vec("affine", f.c, n) + (-1,), -rat(f.alpha))
        return pg.poly(n + 1, ineqs=[row])
    if isinstance(f, IndicatorOf):
        b = pg.BlockRows(("x", n), ("t", 1)).pull(lower_set(f.set_, n), (n, {"x": 1}))
        out = b.pull(pg.at_most(0), (1, {"t": -1})).polyhedron()  # t >= 0
        return pg.poly(n + 1, out.ineqs, out.eqs, out.n - n - 1)
    if isinstance(f, NormAtom):
        if f.kind == "l1":
            # -s <= x <= s and sum(s) <= t: 2n + 1 rows over the auxiliaries s
            b = pg.BlockRows(("x", n), ("t", 1), ("s", n))
            b.pull(pg.neg(pg.orthant(n)), (n, {"x": -1, "s": -1}))
            b.pull(pg.neg(pg.orthant(n)), (n, {"x": 1, "s": -1}))
            b.pull(pg.at_most(0), (1, {"s": ((1,) * n,), "t": -1}))
            return pg.project(b.polyhedron(), range(n + 1))
        if f.kind == "linf":
            rows = [(tuple(s_ * (k == j) for k in range(n)) + (-1,), 0) for j in range(n) for s_ in (1, -1)]
            return pg.poly(n + 1, rows)
        raise RegimeError("the l2 norm lives in the symbolic regime only")
    if isinstance(f, SupOfAffine):
        return pg.poly(n + 1, [(_vec("maxaff", c, n) + (-1,), -rat(alpha)) for c, alpha in f.pieces])
    if isinstance(f, Sum):
        for ind, other in ((f.a, f.b), (f.b, f.a)):
            if isinstance(ind, IndicatorOf):
                # epi(other + delta_D) = (D x R) ∩ epi other: stack the rows
                big = pg.BlockRows(("x", n), ("t", 1)).pull(lower_set(ind.set_, n), (n, {"x": 1}))
                big.pull(lower(other, n), (n, {"x": 1}), (1, {"t": 1}))
                return pg.project(big.polyhedron(), range(n + 1))
        for tilt, other in ((f.a, f.b), (f.b, f.a)):
            if isinstance(tilt, Affine) and not isinstance(tilt.c, SymVec):
                # (x, t) in epi(other + <c, .> + alpha) iff (x, t - c.x - alpha) in epi other
                c = tuple(-v for v in _vec("affine", tilt.c, n))
                big = pg.BlockRows(("x", n), ("t", 1))
                big.pull(lower(other, n), (n, {"x": 1}), (1, {"t": 1, "x": (c,)}), shift=(0,) * n + (-tilt.alpha,))
                return pg.project(big.polyhedron(), range(n + 1))
        # (x, t, u): (x, u) in epi a, (x, t - u) in epi b; u stays auxiliary
        big = pg.BlockRows(("x", n), ("t", 1), ("u", 1))
        big.pull(lower(f.a, n), (n, {"x": 1}), (1, {"u": 1}))
        big.pull(lower(f.b, n), (n, {"x": 1}), (1, {"t": 1, "u": -1}))
        return pg.project(big.polyhedron(), range(n + 1))
    if isinstance(f, InfConv):
        return pg.minkowski_sum(lower(f.a, n), lower(f.b, n))
    if isinstance(f, ArgTranslate):
        if isinstance(f.shift, SymVec):
            raise RegimeError("symbolic shift in the numeric regime")
        return pg.translate(lower(f.f, n), _vec("argtranslate", f.shift, n) + (0,))
    if isinstance(f, PlusConst):
        return pg.translate(lower(f.f, n), (0,) * n + (rat(f.const),))
    if isinstance(f, PrecomposeLinear):
        m = len(f.matrix)  # map R^n -> R^m, inner function on R^m
        base = lower(f.f, m)
        matrix = tuple(_vec("a row of precompose", row, n) for row in f.matrix)
        out = pg.BlockRows(("x", n), ("t", 1)).pull(base, (m, {"x": matrix}), (1, {"t": 1})).polyhedron()
        return pg.poly(n + 1, out.ineqs, out.eqs, base.aux)  # the map may zero out a row
    if isinstance(f, ConjugateOf):
        return conjugate_polyfunc(lower(f.f, n))
    raise RegimeError(f"no numeric lowering for {type(f).__name__}")


def pf_domain(epi: pg.Polyhedron) -> pg.Polyhedron:
    """The domain: the epigraph with t made auxiliary, then trimmed
    (``polyhedra.trim``).  t has one sign in every lowered epigraph, and so
    has each l1 auxiliary once t's row is gone, so the domain of a norm,
    an affine or a max-affine function has no rows."""
    return pg.trim(pg.project(epi, range(epi.n - 1)))


def pf_falls_forever(epi: pg.Polyhedron) -> bool:
    """(0, ..., 0, -1) is a recession direction of the epigraph: the value
    is -inf wherever it is finite."""
    return pg.contains(pg.recession_cone(epi), (0,) * (epi.n - 1) + (-1,))


def pf_is_improper(epi: pg.Polyhedron) -> bool:
    return pg.is_empty(epi) or pf_falls_forever(epi)  # identically +inf, or -inf somewhere


def conjugate_polyfunc(epi: pg.Polyhedron) -> pg.Polyhedron:
    """H-representation of the conjugate's epigraph.

    s >= f*(y) iff the LP sup {<y,x> - t : (x,t,w) in the lifted epi f} is
    at most s; by LP duality that is the existence of multipliers lam >= 0,
    mu with lam^T G + mu^T E = (y, -1, 0) and lam^T h + mu^T d <= s.  The
    multipliers stay as the auxiliaries of epi f*.
    """
    if pf_is_improper(epi):
        raise ImproperFunctionError("conjugate of an improper polyhedral function")
    n, aux = epi.n - 1, epi.aux
    G, E = epi.ineqs, epi.eqs
    big = pg.BlockRows(("y", n), ("s", 1), ("lam", len(G)), ("mu", len(E)))
    gt, et = pg.columns(G, epi.width), pg.columns(E, epi.width)
    big.pull(  # lam^T G + mu^T E = (y, -1, 0)
        pg.singleton((0,) * n + (-1,) + (0,) * aux),
        (n, {"y": -1, "lam": gt[:n], "mu": et[:n]}),
        (1, {"lam": gt[n : n + 1], "mu": et[n : n + 1]}),
        (aux, {"lam": gt[n + 1 :], "mu": et[n + 1 :]}),
    )
    big.pull(pg.at_most(0), (1, {"s": -1, "lam": (tuple(b for _, b in G),), "mu": (tuple(d for _, d in E),)}))
    big.pull(pg.orthant(len(G)), (len(G), {"lam": 1}))
    return pg.project(big.polyhedron(), range(n + 1))


# -- lower bounds for the nonnegativity certificate --------------------------

# inner products known to be bounded below on specific catalog sets
_PAIRING_LB = {
    ("nonneg", se.LP_PLUS): ZERO,
    ("nonneg", se.LP_PLUS_UNC): ZERO,
    ("coordinate", se.LP_PLUS): ZERO,
    ("coordinate", se.LP_PLUS_UNC): ZERO,
}


def _pairing_lb(c: VecOrSym, s: SetExpr) -> Optional[Fraction]:
    s = normalize(s)
    if not isinstance(s, se.CatalogAtom):
        return None
    if isinstance(c, SymVec):
        for attr in sorted(c.attrs):
            val = _PAIRING_LB.get((attr, s.cid))
            if val is not None:
                return val
    return None


def domain_lower_bound(f: FunctionExpr) -> Optional[Fraction]:
    """A proved lower bound for inf f over dom f, or None."""
    if isinstance(f, (IndicatorOf, NormAtom)):
        return ZERO
    if isinstance(f, PlusConst):
        base = domain_lower_bound(f.f)
        return None if base is None else base + f.const
    if isinstance(f, Affine):
        zero = "zero" in f.c.attrs if isinstance(f.c, SymVec) else not any(vec(f.c))
        return rat(f.alpha) if zero else None
    if isinstance(f, Sum):
        for fn, other in ((f.a, f.b), (f.b, f.a)):
            if isinstance(fn, Affine) and isinstance(other, IndicatorOf):
                pl = _pairing_lb(fn.c, other.set_)
                if pl is not None:
                    return pl + rat(fn.alpha)
        la, lb_ = domain_lower_bound(f.a), domain_lower_bound(f.b)
        return None if la is None or lb_ is None else la + lb_
    return None


# -- epigraph difference sets -------------------------------------------------


def epi_diff_poly(epi_f: pg.Polyhedron, epi_g: pg.Polyhedron, v: Fraction) -> pg.Polyhedron:
    """{(x - y, f(x) + g(y) - v + eps) : eps >= 0} as an exact H-rep."""
    n = epi_f.n - 1
    # eps = r + v - tf - tg >= 0, with x = w + y
    big = pg.BlockRows(("w", n), ("r", 1), ("y", n), ("tf", 1), ("tg", 1))
    big.pull(epi_f, (n, {"w": 1, "y": 1}), (1, {"tf": 1}))
    big.pull(epi_g, (n, {"y": 1}), (1, {"tg": 1}))
    big.pull(pg.at_most(v), (1, {"r": -1, "tf": 1, "tg": 1}))
    return pg.project(big.polyhedron(), range(n + 1))


def epi_diff_set(f: FunctionExpr, g: FunctionExpr, v, space: SpaceTag) -> SetExpr:
    """{(x - y, f(x) + g(y) - v + eps) : eps >= 0}: a ``PolyAtom`` in finite
    dimension, the product (dom f - dom g) x [-v, inf) for two indicators,
    otherwise the symbolic ``EpiDiffSet``."""
    v = rat(v)
    if is_proper(f) is FAILS or is_proper(g) is FAILS:
        raise ImproperFunctionError("epigraph difference needs proper functions")
    if space.finite_dim:
        n = space.dim
        return se.PolyAtom(epi_diff_poly(lower(f, n), lower(g, n), v))
    if isinstance(f, IndicatorOf) and isinstance(g, IndicatorOf):
        base = normalize(se.MinkSum((normalize(f.set_), se.Neg(normalize(g.set_)))))
        ray = se.PolyAtom(pg.poly(1, ineqs=[((-1,), v)]))  # r >= -v
        return se.Product(base, ray)
    return se.EpiDiffSet(f, g, v, space)
