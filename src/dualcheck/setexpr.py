"""Symbolic convex-set expressions and their structural attributes.

Sets are immutable trees.  Finite-dimensional leaves are exact
H-representation polyhedra; infinite-dimensional leaves are catalog atoms
whose analytic facts (closed, dense, subspace, interiority sets) are
curated with literature citations.  ``normalize`` rewrites a tree to a
canonical form; ``attrs`` derives conservative three-valued structural
facts used by the inference rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from . import polyhedra as pg
from .frozen import frozen_node
from .spaces import SpaceTag, finite, product as product_space


class FactStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"

    def __bool__(self):
        raise TypeError("FactStatus is three-valued; compare explicitly")


HOLDS = FactStatus.HOLDS
FAILS = FactStatus.FAILS
UNKNOWN = FactStatus.UNKNOWN


def and3(*xs: FactStatus) -> FactStatus:
    if any(x is FAILS for x in xs):
        return FAILS
    if all(x is HOLDS for x in xs):
        return HOLDS
    return UNKNOWN


def or3(*xs: FactStatus) -> FactStatus:
    if any(x is HOLDS for x in xs):
        return HOLDS
    if all(x is FAILS for x in xs):
        return FAILS
    return UNKNOWN


def not3(x: FactStatus) -> FactStatus:
    if x is HOLDS:
        return FAILS
    if x is FAILS:
        return HOLDS
    return UNKNOWN


# -- points -----------------------------------------------------------------


_ORIGIN_HASH = hash("origin-point")


class _Origin:
    def __repr__(self):
        return "0"

    def __hash__(self):
        return _ORIGIN_HASH

    def __eq__(self, other):
        return isinstance(other, _Origin)


ORIGIN = _Origin()


@frozen_node
class VecPoint:
    coords: tuple[Fraction, ...]

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@frozen_node
class SymPoint:
    """Named point of an infinite-dimensional space; attrs are predicates
    like 'strictly_positive' or 'not_in_space' declared at construction."""

    name: str
    attrs: frozenset[str] = frozenset()

    def __repr__(self):
        return self.name


@frozen_node
class NegPoint:
    base: SymPoint

    def __repr__(self):
        return f"-{self.base.name}"


Point = Union[_Origin, VecPoint, SymPoint, NegPoint]


def pneg(p: Point) -> Point:
    if isinstance(p, _Origin):
        return p
    if isinstance(p, VecPoint):
        return VecPoint(tuple(-c for c in p.coords))
    if isinstance(p, NegPoint):
        return p.base
    return NegPoint(p)


def padd(a: Point, b: Point) -> Optional[Point]:
    """Sum of two points when representable; None otherwise."""
    if isinstance(a, _Origin):
        return b
    if isinstance(b, _Origin):
        return a
    if isinstance(a, VecPoint) and isinstance(b, VecPoint):
        return VecPoint(tuple(x + y for x, y in zip(a.coords, b.coords)))
    if pneg(a) == b:
        return ORIGIN
    return None


def is_origin(p: Point) -> bool:
    if isinstance(p, _Origin):
        return True
    if isinstance(p, VecPoint):
        return all(c == 0 for c in p.coords)
    return False


# -- expression nodes --------------------------------------------------------


@frozen_node(nested=True)
class PolyAtom:
    poly: pg.Polyhedron

    @property
    def space(self) -> SpaceTag:
        return finite(self.poly.n)


@frozen_node(nested=True)
class CatalogAtom:
    cid: str
    space_tag: SpaceTag
    params: tuple[tuple[str, object], ...] = ()

    @property
    def space(self) -> SpaceTag:
        return self.space_tag

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@frozen_node(nested=True)
class WholeSpace:
    space_tag: SpaceTag

    @property
    def space(self) -> SpaceTag:
        return self.space_tag


@frozen_node(nested=True)
class Singleton:
    point: Point
    space_tag: SpaceTag

    @property
    def space(self) -> SpaceTag:
        return self.space_tag


@frozen_node(nested=True)
class Neg:
    inner: "SetExpr"

    @property
    def space(self) -> SpaceTag:
        return self.inner.space


@frozen_node(nested=True)
class Scale:
    factor: Fraction
    inner: "SetExpr"

    @property
    def space(self) -> SpaceTag:
        return self.inner.space


@frozen_node(nested=True)
class Translate:
    inner: "SetExpr"
    offset: Point

    @property
    def space(self) -> SpaceTag:
        return self.inner.space


@frozen_node(nested=True)
class MinkSum:
    operands: tuple["SetExpr", ...]

    @property
    def space(self) -> SpaceTag:
        return self.operands[0].space


@frozen_node(nested=True)
class Product:
    left: "SetExpr"
    right: "SetExpr"

    @property
    def space(self) -> SpaceTag:
        return product_space(self.left.space, self.right.space)


@frozen_node(nested=True)
class Intersect:
    left: "SetExpr"
    right: "SetExpr"

    @property
    def space(self) -> SpaceTag:
        return self.left.space


@frozen_node(nested=True)
class ConeHull:
    inner: "SetExpr"

    @property
    def space(self) -> SpaceTag:
        return self.inner.space


@frozen_node(nested=True)
class ConvexHullWithOrigin:
    inner: "SetExpr"

    @property
    def space(self) -> SpaceTag:
        return self.inner.space


@frozen_node(nested=True)
class Closure:
    inner: "SetExpr"

    @property
    def space(self) -> SpaceTag:
        return self.inner.space


@frozen_node(nested=True)
class EpiDiffSet:
    """Difference of the epigraph of f and the reflected epigraph of g - v,
    living in (space of f) x R.  f and g are function expressions; kept
    opaque here to avoid an import cycle."""

    f: object
    g: object
    v: Fraction
    base_space: SpaceTag

    @property
    def space(self) -> SpaceTag:
        return product_space(self.base_space, finite(1))


@frozen_node(nested=True)
class ConicExtension:
    """Projected shifted epigraph attached to a cone-constrained program:
    {(g(x) + z, f(x) - v + eps)}."""

    f: object
    sset: "SetExpr"
    gmap: object
    cone: "SetExpr"
    v: Fraction
    base_space: SpaceTag

    @property
    def space(self) -> SpaceTag:
        return product_space(self.base_space, finite(1))


@frozen_node(nested=True)
class ImageSet:
    gmap: object  # duck-typed: has .kind in {identity, neg_identity, shift, named}
    inner: "SetExpr"
    target_space: SpaceTag

    @property
    def space(self) -> SpaceTag:
        return self.target_space


SetExpr = Union[
    PolyAtom,
    CatalogAtom,
    WholeSpace,
    Singleton,
    Neg,
    Scale,
    Translate,
    MinkSum,
    Product,
    Intersect,
    ConeHull,
    ConvexHullWithOrigin,
    Closure,
    EpiDiffSet,
    ConicExtension,
    ImageSet,
]


# -- catalog ------------------------------------------------------------------

LP_PLUS = "lp_plus"
LP_PLUS_UNC = "lp_plus_unc"
SUBSPACE_C = "subspace_C"
SUBSPACE_S = "subspace_S"
SUBSPACE_C_PERP = "subspace_C_perp"
SUBSPACE_S_PERP = "subspace_S_perp"
KERNEL = "kernel"
FUNCTIONAL_LINE = "functional_line"
DUAL_BALL = "dual_ball"
CLOSED_SUBSPACE = "closed_subspace"
ABSTRACT_CONVEX = "abstract_convex_set"

# notion-set descriptors for catalog atoms
EMPTY_SET = "empty"
PRED_STRICTLY_POSITIVE = "strictly_positive"


@dataclass(frozen=True)
class SetAttrs:
    nonempty: FactStatus = UNKNOWN
    contains_origin: FactStatus = UNKNOWN
    convex: FactStatus = UNKNOWN
    cone: FactStatus = UNKNOWN
    subspace: FactStatus = UNKNOWN
    closed: FactStatus = UNKNOWN
    dense: FactStatus = UNKNOWN
    whole: FactStatus = UNKNOWN
    aff_whole: FactStatus = UNKNOWN


_SUBSPACE_ATTRS = SetAttrs(
    nonempty=HOLDS,
    contains_origin=HOLDS,
    convex=HOLDS,
    cone=HOLDS,
    subspace=HOLDS,
    closed=HOLDS,
    dense=FAILS,
    whole=FAILS,
    aff_whole=FAILS,
)

_POSITIVE_CONE_ATTRS = SetAttrs(
    nonempty=HOLDS,
    contains_origin=HOLDS,
    convex=HOLDS,
    cone=HOLDS,
    subspace=FAILS,
    closed=HOLDS,
    dense=FAILS,
    whole=FAILS,
    aff_whole=HOLDS,  # the cone minus itself is the whole space
)

_CATALOG_ATTRS = {
    LP_PLUS: _POSITIVE_CONE_ATTRS,
    LP_PLUS_UNC: _POSITIVE_CONE_ATTRS,
    SUBSPACE_C: _SUBSPACE_ATTRS,
    SUBSPACE_S: _SUBSPACE_ATTRS,
    SUBSPACE_C_PERP: _SUBSPACE_ATTRS,
    SUBSPACE_S_PERP: _SUBSPACE_ATTRS,
    KERNEL: _SUBSPACE_ATTRS,
    FUNCTIONAL_LINE: SetAttrs(
        nonempty=HOLDS,
        contains_origin=HOLDS,
        convex=HOLDS,
        cone=HOLDS,
        subspace=HOLDS,
        closed=HOLDS,
        dense=UNKNOWN,
        whole=UNKNOWN,  # R x0* exhausts the dual only in one dimension
        aff_whole=UNKNOWN,
    ),
    DUAL_BALL: SetAttrs(
        nonempty=HOLDS,
        contains_origin=HOLDS,
        convex=HOLDS,
        cone=FAILS,
        subspace=FAILS,
        closed=HOLDS,
        dense=FAILS,
        whole=FAILS,
        aff_whole=HOLDS,
    ),
}

# qri/qi of the countable positive cone is the set of strictly positive
# sequences; every other notion set is empty.  For the uncountable index
# set even the quasi-relative interior is empty.
_CATALOG_NOTION_SETS = {
    LP_PLUS: {
        "int": EMPTY_SET,
        "core": EMPTY_SET,
        "sqri": EMPTY_SET,
        "icr": EMPTY_SET,
        "qri": PRED_STRICTLY_POSITIVE,
        "qi": PRED_STRICTLY_POSITIVE,
    },
    LP_PLUS_UNC: {
        "int": EMPTY_SET,
        "core": EMPTY_SET,
        "sqri": EMPTY_SET,
        "icr": EMPTY_SET,
        "qri": EMPTY_SET,
        "qi": EMPTY_SET,
    },
}

_CATALOG_CITES = {
    LP_PLUS: (
        "Borwein-Lewis 1992",
        "qri(l^p_+) = {x : x_n > 0 for all n}; int, core, sqri, icr of l^p_+ are empty",
    ),
    LP_PLUS_UNC: (
        "Borwein-Lewis 1992, Ex. 3.11(iii)",
        "qri(l^p_+(R)) is empty",
    ),
    SUBSPACE_C: (
        "Gowda-Teboulle 1990, Ex. 3.3",
        "C = {x : x_{2n-1} + x_{2n} = 0} is a closed linear subspace of l^2",
    ),
    SUBSPACE_S: (
        "Gowda-Teboulle 1990, Ex. 3.3",
        "S = {x : x_{2n} + x_{2n+1} = 0} is a closed linear subspace of l^2",
    ),
}

# facts about Minkowski sums of specific catalog atoms (unordered keys;
# negations of subspaces collapse before lookup)
_PAIR_FACTS = {
    frozenset({SUBSPACE_C, SUBSPACE_S}): (
        SetAttrs(
            nonempty=HOLDS,
            contains_origin=HOLDS,
            convex=HOLDS,
            cone=HOLDS,
            subspace=HOLDS,
            closed=FAILS,
            dense=HOLDS,
            whole=FAILS,
            aff_whole=FAILS,
        ),
        ("Gowda-Teboulle 1990, Ex. 3.3", "S - C is dense in l^2 and proper"),
    ),
    frozenset({SUBSPACE_C_PERP, SUBSPACE_S_PERP}): (
        SetAttrs(
            nonempty=HOLDS,
            contains_origin=HOLDS,
            convex=HOLDS,
            cone=HOLDS,
            subspace=HOLDS,
            closed=FAILS,
            dense=HOLDS,
            whole=FAILS,
            aff_whole=FAILS,
        ),
        ("Gowda-Teboulle 1990, Ex. 3.3", "C-perp + S-perp is dense, e^1 lies outside"),
    ),
}


def catalog_cite(cid: str):
    return _CATALOG_CITES.get(cid)


def catalog_notion_set(cid: str, notion: str, params=()) -> Optional[str]:
    # subspaces have no entry: the generic subspace rules handle them
    return _CATALOG_NOTION_SETS.get(cid, {}).get(notion)


def empty_qri_cite(s: SetExpr):
    """The catalog's cite when ``s``, under negations, translations and
    scalings, is a catalog set with an empty quasi-relative interior; else
    None."""
    while isinstance(s, (Neg, Translate, Scale)):
        s = s.inner
    if isinstance(s, CatalogAtom) and catalog_notion_set(s.cid, "qri", s.params) == EMPTY_SET:
        return catalog_cite(s.cid) or ("", "")
    return None


# -- attributes ---------------------------------------------------------------

# The attribute and normalization memos are process-global, so each holds
# at most MEMO_CAPACITY entries and evicts its oldest entry when full.
MEMO_CAPACITY = 4096
_ATTR_MEMO: dict = {}


def _remember(memo: dict, key, value) -> None:
    if key not in memo and len(memo) >= MEMO_CAPACITY:
        del memo[next(iter(memo))]
    memo[key] = value


def attrs(s: SetExpr) -> SetAttrs:
    cached = _ATTR_MEMO.get(s)
    if cached is not None:
        return cached
    out = _attrs(s)
    _remember(_ATTR_MEMO, s, out)
    return out


def _attrs(s: SetExpr) -> SetAttrs:
    if isinstance(s, WholeSpace):
        return SetAttrs(HOLDS, HOLDS, HOLDS, HOLDS, HOLDS, HOLDS, HOLDS, HOLDS, HOLDS)
    if isinstance(s, PolyAtom):
        p = s.poly
        has0 = pg.contains(p, tuple(Fraction(0) for _ in range(p.n)))
        nonempty = HOLDS if has0 else (FAILS if pg.is_empty(p) else HOLDS)
        # syntactic on the lifted rows: a cone (subspace) projects onto one
        conic = HOLDS if all(b == 0 for _, b in p.ineqs) and all(d == 0 for _, d in p.eqs) else UNKNOWN
        sub = HOLDS if (not p.ineqs and all(d == 0 for _, d in p.eqs)) else UNKNOWN
        # exact: pi(p) is everything iff the cone rec pi(p) holds every +-e_j
        rec = pg.recession_cone(p)
        units = [tuple(Fraction(sign * (i == j)) for i in range(p.n)) for j in range(p.n) for sign in (1, -1)]
        whole = HOLDS if nonempty is HOLDS and all(pg.contains(rec, u) for u in units) else FAILS
        return SetAttrs(
            nonempty=nonempty,
            contains_origin=HOLDS if has0 else FAILS,
            convex=HOLDS,
            cone=conic,
            subspace=sub,
            closed=HOLDS,
            dense=whole,
            whole=whole,
            aff_whole=HOLDS if whole is HOLDS else UNKNOWN,
        )
    if isinstance(s, CatalogAtom):
        if s.cid in _CATALOG_ATTRS:
            return _CATALOG_ATTRS[s.cid]
        if s.cid == CLOSED_SUBSPACE:
            dense = s.param("dense", False)
            whole = s.param("whole", False)
            return SetAttrs(
                nonempty=HOLDS,
                contains_origin=HOLDS,
                convex=HOLDS,
                cone=HOLDS,
                subspace=HOLDS,
                closed=HOLDS,
                dense=HOLDS if (dense or whole) else FAILS,
                whole=HOLDS if whole else FAILS,
                aff_whole=HOLDS if whole else FAILS,
            )
        if s.cid == ABSTRACT_CONVEX:
            return SetAttrs(
                nonempty=HOLDS,
                contains_origin=HOLDS if s.param("contains_origin", False) else UNKNOWN,
                convex=HOLDS,
                cone=UNKNOWN,
                subspace=UNKNOWN,
                closed=HOLDS if s.param("closed", True) else UNKNOWN,
                dense=UNKNOWN,
                whole=UNKNOWN,
                aff_whole=UNKNOWN,
            )
        return SetAttrs()
    if isinstance(s, Singleton):
        o = HOLDS if is_origin(s.point) else (UNKNOWN if isinstance(s.point, (SymPoint, NegPoint)) else FAILS)
        return SetAttrs(
            nonempty=HOLDS,
            contains_origin=o,
            convex=HOLDS,
            cone=o,
            subspace=o,
            closed=HOLDS,
            dense=FAILS if not s.space.is_zero else HOLDS,
            whole=FAILS if not s.space.is_zero else HOLDS,
            aff_whole=FAILS if not s.space.is_zero else HOLDS,
        )
    if isinstance(s, (Neg, Scale)):
        return attrs(s.inner)
    if isinstance(s, Translate):
        a = attrs(s.inner)
        back = and3(a.contains_origin, HOLDS if is_origin(s.offset) else UNKNOWN)
        return SetAttrs(
            nonempty=a.nonempty,
            contains_origin=back,
            convex=a.convex,
            cone=back if a.cone is HOLDS else UNKNOWN,
            subspace=back if a.subspace is HOLDS else UNKNOWN,
            closed=a.closed,
            dense=a.dense,
            whole=a.whole,
            aff_whole=a.aff_whole,
        )
    if isinstance(s, MinkSum):
        ops = [attrs(o) for o in s.operands]
        keys = _pair_key(s)
        override = _PAIR_FACTS.get(keys) if keys else None
        if override is not None:
            return override[0]
        nonempty = and3(*(a.nonempty for a in ops))
        dense = UNKNOWN
        if any(a.dense is HOLDS for a in ops) and nonempty is HOLDS:
            dense = HOLDS
        whole = UNKNOWN
        if any(a.whole is HOLDS for a in ops) and nonempty is HOLDS:
            whole = HOLDS
        affw = UNKNOWN
        if any(a.aff_whole is HOLDS for a in ops) and nonempty is HOLDS:
            affw = HOLDS
        has0 = and3(*(a.contains_origin for a in ops))
        if has0 is UNKNOWN and len(s.operands) == 2 and nonempty is HOLDS:
            u, w = s.operands
            if normalize(Neg(u)) == normalize(w):
                has0 = HOLDS  # x - x = 0 for any x of a nonempty set
        return SetAttrs(
            nonempty=nonempty,
            contains_origin=has0,
            convex=and3(*(a.convex for a in ops)),
            cone=and3(*(a.cone for a in ops)),
            subspace=and3(*(a.subspace for a in ops)),
            closed=whole,
            dense=dense,
            whole=whole,
            aff_whole=affw,
        )
    if isinstance(s, Product):
        a, b = attrs(s.left), attrs(s.right)
        return SetAttrs(
            nonempty=and3(a.nonempty, b.nonempty),
            contains_origin=and3(a.contains_origin, b.contains_origin),
            convex=and3(a.convex, b.convex),
            cone=and3(a.cone, b.cone),
            subspace=and3(a.subspace, b.subspace),
            closed=and3(a.closed, b.closed),
            dense=and3(a.dense, b.dense),
            whole=and3(a.whole, b.whole),
            aff_whole=and3(a.aff_whole, b.aff_whole),
        )
    if isinstance(s, Intersect):
        a, b = attrs(s.left), attrs(s.right)
        return SetAttrs(
            nonempty=UNKNOWN,
            contains_origin=and3(a.contains_origin, b.contains_origin),
            convex=and3(a.convex, b.convex),
            cone=and3(a.cone, b.cone),
            subspace=and3(a.subspace, b.subspace),
            closed=and3(a.closed, b.closed),
        )
    if isinstance(s, ConeHull):
        a = attrs(s.inner)
        return SetAttrs(
            nonempty=a.nonempty,
            contains_origin=HOLDS if a.nonempty is HOLDS else UNKNOWN,
            convex=a.convex,
            cone=HOLDS,
            subspace=UNKNOWN,
            closed=UNKNOWN,
            dense=a.dense,
            whole=UNKNOWN,
            aff_whole=a.aff_whole,
        )
    if isinstance(s, ConvexHullWithOrigin):
        a = attrs(s.inner)
        return SetAttrs(
            nonempty=HOLDS,
            contains_origin=HOLDS,
            convex=HOLDS,
            cone=UNKNOWN,
            subspace=UNKNOWN,
            closed=UNKNOWN,
            dense=a.dense,
            whole=UNKNOWN,
            aff_whole=a.aff_whole,
        )
    if isinstance(s, Closure):
        a = attrs(s.inner)
        return SetAttrs(
            nonempty=a.nonempty,
            contains_origin=a.contains_origin,
            convex=a.convex,
            cone=a.cone,
            subspace=a.subspace,
            closed=HOLDS,
            dense=a.dense,
            whole=or3(a.whole, a.dense),
            aff_whole=a.aff_whole,
        )
    if isinstance(s, (EpiDiffSet, ConicExtension)):
        return SetAttrs(nonempty=HOLDS, convex=HOLDS)
    if isinstance(s, ImageSet):
        a = attrs(s.inner)
        return SetAttrs(nonempty=a.nonempty, convex=UNKNOWN)
    return SetAttrs()


def _pair_key(s: MinkSum):
    """Unordered catalog key when the sum has exactly two atom operands."""
    if len(s.operands) != 2:
        return None
    cids = []
    for op in s.operands:
        if isinstance(op, Neg):
            op = op.inner
        if isinstance(op, CatalogAtom):
            cids.append(op.cid)
        else:
            return None
    return frozenset(cids)


# -- normalization ------------------------------------------------------------

_NORM_MEMO: dict = {}


def skey(s) -> str:
    """Stable ordering key for canonical operand sorting."""
    return repr(s)


def normalize(s: SetExpr) -> SetExpr:
    cached = _NORM_MEMO.get(s)
    if cached is not None:
        return cached
    out = _normalize(s)
    _remember(_NORM_MEMO, s, out)
    _remember(_NORM_MEMO, out, out)
    return out


def _normalize(s: SetExpr) -> SetExpr:
    if isinstance(s, Neg):
        inner = normalize(s.inner)
        if isinstance(inner, Neg):
            return inner.inner
        if isinstance(inner, WholeSpace):
            return inner
        if isinstance(inner, PolyAtom):
            return PolyAtom(pg.neg(inner.poly))
        if isinstance(inner, Singleton):
            return Singleton(pneg(inner.point), inner.space_tag)
        if isinstance(inner, Translate):
            return normalize(Translate(Neg(inner.inner), pneg(inner.offset)))
        if isinstance(inner, MinkSum):
            return normalize(MinkSum(tuple(Neg(o) for o in inner.operands)))
        if isinstance(inner, Product):
            return normalize(Product(Neg(inner.left), Neg(inner.right)))
        if attrs(inner).subspace is HOLDS:
            return inner
        return Neg(inner)

    if isinstance(s, Scale):
        inner = normalize(s.inner)
        if s.factor == 1:
            return inner
        if isinstance(inner, Scale):
            return normalize(Scale(s.factor * inner.factor, inner.inner))
        if isinstance(inner, PolyAtom):
            return PolyAtom(pg.scale(inner.poly, s.factor))
        a = attrs(inner)
        if s.factor > 0 and (a.cone is HOLDS or a.subspace is HOLDS or isinstance(inner, WholeSpace)):
            return inner
        return Scale(s.factor, inner)

    if isinstance(s, Translate):
        inner = normalize(s.inner)
        off = s.offset
        if isinstance(inner, Translate):
            merged = padd(inner.offset, off)
            if merged is not None:
                return normalize(Translate(inner.inner, merged))
            return Translate(inner, off)
        if is_origin(off):
            return inner
        if isinstance(inner, WholeSpace):
            return inner
        if isinstance(inner, PolyAtom) and isinstance(off, VecPoint):
            return PolyAtom(pg.translate(inner.poly, off.coords))
        if isinstance(inner, Singleton):
            merged = padd(inner.point, off)
            if merged is not None:
                return Singleton(merged, inner.space_tag)
        return Translate(inner, off)

    if isinstance(s, MinkSum):
        flat: list[SetExpr] = []
        offset: Point = ORIGIN
        for op in s.operands:
            op = normalize(op)
            if isinstance(op, MinkSum):
                flat.extend(op.operands)
                continue
            if isinstance(op, Singleton):
                merged = padd(offset, op.point)
                if merged is not None:
                    offset = merged
                    continue
            if isinstance(op, Translate):
                merged = padd(offset, op.offset)
                if merged is not None:
                    offset = merged
                    op = op.inner
            flat.append(op)
        # the countable and uncountable positive cones span their spaces
        for cid in (LP_PLUS, LP_PLUS_UNC):
            pos = [o for o in flat if isinstance(o, CatalogAtom) and o.cid == cid]
            neg_ = [
                o
                for o in flat
                if isinstance(o, Neg)
                and isinstance(o.inner, CatalogAtom)
                and o.inner.cid == cid
            ]
            if pos and neg_:
                flat = [o for o in flat if o not in pos and o not in neg_]
                flat.append(WholeSpace(pos[0].space))
        # whole space absorbs any nonempty companion
        wholes = [o for o in flat if isinstance(o, WholeSpace)]
        if wholes and all(attrs(o).nonempty is HOLDS for o in flat):
            return wholes[0]
        # merge exact polyhedral operands pairwise
        while True:
            idxs = [i for i, o in enumerate(flat) if isinstance(o, PolyAtom)]
            if len(idxs) < 2:
                break
            i, j = idxs[0], idxs[1]
            merged = PolyAtom(pg.minkowski_sum(flat[i].poly, flat[j].poly))
            flat = [o for k, o in enumerate(flat) if k not in (i, j)]
            flat.append(merged)
        # convex cones absorb duplicate copies of themselves
        dedup: list[SetExpr] = []
        for op in flat:
            a = attrs(op)
            if dedup and a.convex is HOLDS and a.cone is HOLDS and op in dedup:
                continue
            dedup.append(op)
        dedup.sort(key=skey)
        if not dedup:
            out: SetExpr = Singleton(ORIGIN, s.space)
        elif len(dedup) == 1:
            out = dedup[0]
        else:
            out = MinkSum(tuple(dedup))
        if not is_origin(offset):
            return normalize(Translate(out, offset))
        return out

    if isinstance(s, Product):
        return Product(normalize(s.left), normalize(s.right))

    if isinstance(s, Intersect):
        left, right = normalize(s.left), normalize(s.right)
        if isinstance(left, WholeSpace):
            return right
        if isinstance(right, WholeSpace):
            return left
        if left == right:
            return left
        if isinstance(left, PolyAtom) and isinstance(right, PolyAtom):
            return PolyAtom(pg.intersect(left.poly, right.poly))
        return Intersect(left, right)

    if isinstance(s, ConeHull):
        inner = normalize(s.inner)
        if isinstance(inner, ConvexHullWithOrigin):
            inner = normalize(inner.inner)  # coneco(U u {0}) = cone(U)
            return normalize(ConeHull(inner))
        if attrs(inner).cone is HOLDS:
            return inner
        return ConeHull(inner)

    if isinstance(s, ConvexHullWithOrigin):
        inner = normalize(s.inner)
        a = attrs(inner)
        if a.convex is HOLDS and a.contains_origin is HOLDS:
            return inner
        return ConvexHullWithOrigin(inner)

    if isinstance(s, Closure):
        inner = normalize(s.inner)
        a = attrs(inner)
        if a.closed is HOLDS:
            return inner
        if a.dense is HOLDS:
            return WholeSpace(inner.space)
        return Closure(inner)

    if isinstance(s, ImageSet):
        inner = normalize(s.inner)
        kind = getattr(s.gmap, "kind", None)
        if kind == "identity":
            return inner
        if kind == "neg_identity":
            return normalize(Neg(inner))
        if kind == "shift":
            return normalize(Translate(inner, s.gmap.offset))
        return ImageSet(s.gmap, inner, s.target_space)

    return s
