"""Line-oriented problem files.

A file declares one instance: a key starts each line and decides how the
rest parses.  Rationals are written ``p/q`` (never decimal floats), set
and function terms use a small call grammar, polyhedra take quoted linear
relations over ``x1..xn``.  The grammar is documented in the section
"The ``.prob`` problem format" of ``README.md``; corpus entries use the
same format plus ``expect`` lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import engine as eng
from . import funcexpr as fx
from . import setexpr as se
from .errors import ParseError
from .frozen import MAX_NESTING
from .funcexpr import ExtReal, MINF, PINF, er
from .polyhedra import Notion, interval, orthant, poly, whole_space
from .setexpr import FAILS, HOLDS, UNKNOWN, FactStatus, ORIGIN
from .spaces import SpaceTag, banach, finite, lcs, lp_space, lp_uncountable

_NOTIONS = {n.value: n for n in Notion}

_STATUS = {"holds": HOLDS, "fails": FAILS, "unknown": UNKNOWN}


@dataclass(frozen=True)
class SetQuery:
    notion: Notion
    point: se.Point
    sexpr: se.SetExpr
    text: str
    expected: Optional[FactStatus] = None


@dataclass(frozen=True)
class SetFactsInstance:
    instance_id: str
    space: SpaceTag
    queries: tuple[SetQuery, ...]


@dataclass(frozen=True)
class Expectations:
    conditions: tuple[tuple[str, FactStatus], ...] = ()
    vp: Optional[ExtReal] = None
    vd: Optional[ExtReal] = None
    gap: Optional[str] = None  # rendered form, "na" for not applicable
    verdict: Optional[str] = None
    verdict_detail: Optional[str] = None
    dual_solution: Optional[str] = None
    primal_attained: Optional[bool] = None
    dual_attained: Optional[bool] = None


@dataclass(frozen=True)
class ProblemFile:
    kind: str
    instance: Union[eng.Instance, SetFactsInstance]
    expect: Expectations
    notes: tuple[str, ...] = ()
    cites: tuple[tuple[str, str], ...] = ()


# -- tokenizer for the expression grammar ---------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<num>-?\d+(?:/\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<punct>[()\[\],=;-])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "string":
            out.append(("str", m.group("string")[1:-1]))
        elif m.lastgroup == "num":
            out.append(("num", Fraction(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("punct", m.group("punct")))
    return out


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return tok

    def eat_punct(self, ch) -> bool:
        if self.peek() == ("punct", ch):
            self.i += 1
            return True
        return False

    def expect_punct(self, ch):
        if not self.eat_punct(ch):
            raise ParseError(f"expected {ch!r}, found {self.peek()!r}")


_ROW_RE = re.compile(
    r"^(?P<lhs>[^<>=]+)(?P<rel><=|>=|==)(?P<rhs>.+)$"
)
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?x(?P<idx>\d+)\s*"
)


def _parse_linear_row(text: str, dim: int):
    m = _ROW_RE.match(text.replace(" ", ""))
    if not m:
        raise ParseError(f"not a linear relation: {text!r}")
    coeffs = [Fraction(0)] * dim
    pos = 0
    lhs = m.group("lhs")
    while pos < len(lhs):
        t = _TERM_RE.match(lhs, pos)
        if not t:
            raise ParseError(f"bad linear term in {text!r} at {lhs[pos:]!r}")
        pos = t.end()
        coef = Fraction(t.group("coef")) if t.group("coef") else Fraction(1)
        if t.group("sign") == "-":
            coef = -coef
        idx = int(t.group("idx")) - 1
        if not 0 <= idx < dim:
            raise ParseError(f"variable x{idx + 1} outside dimension {dim}")
        coeffs[idx] += coef
    rhs = Fraction(m.group("rhs"))
    return tuple(coeffs), m.group("rel"), rhs


class Parser:
    def __init__(self):
        self.vectors: dict[str, se.SymPoint] = {}
        self.named_sets: dict[str, se.SetExpr] = {}
        self.space: Optional[SpaceTag] = None
        self.cone_space: Optional[SpaceTag] = None
        self.depth = 0

    def _nested(self, parse, st: "_Stream"):
        """Run one nested parse, refusing nests deeper than MAX_NESTING."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse(st)
        finally:
            self.depth -= 1

    # -- points -------------------------------------------------------------

    def parse_point(self, st: _Stream) -> se.Point:
        return self._nested(self._parse_point, st)

    def _parse_point(self, st: _Stream) -> se.Point:
        kind, val = st.peek()
        if kind == "punct" and val == "[":
            return se.VecPoint(self._parse_vector(st))
        if kind == "punct" and val == "-":
            st.next()
            inner = self.parse_point(st)
            return se.pneg(inner)
        if kind == "name":
            st.next()
            if val in ("zero", "origin"):
                return ORIGIN
            if val in self.vectors:
                return self.vectors[val]
            raise ParseError(f"undeclared vector {val!r}")
        raise ParseError(f"expected a point, found {st.peek()!r}")

    def _parse_vector(self, st: _Stream):
        st.expect_punct("[")
        out = []
        while not st.eat_punct("]"):
            neg = st.eat_punct("-")
            kind, val = st.next()
            if kind != "num":
                raise ParseError("vector entries must be rationals")
            out.append(-val if neg else val)
            st.eat_punct(",")
        return tuple(out)

    def _parse_matrix(self, st: _Stream):
        st.expect_punct("[")
        rows = []
        while not st.eat_punct("]"):
            rows.append(self._parse_vector(st))
            st.eat_punct(",")
        return tuple(rows)

    # -- sets ---------------------------------------------------------------

    def parse_set(self, st: _Stream) -> se.SetExpr:
        return self._nested(self._parse_set, st)

    def _parse_set(self, st: _Stream) -> se.SetExpr:
        kind, val = st.next()
        if kind != "name":
            raise ParseError(f"expected a set constructor, found {val!r}")
        name = val
        space = self.space or lp_space()
        if name == "poly":
            st.expect_punct("(")
            kind, dim = st.next()
            if kind != "num":
                raise ParseError("poly(...) starts with the dimension")
            dim = int(dim)
            rows = []
            eqs = []
            while st.eat_punct(","):
                kind, row = st.next()
                if kind != "str":
                    raise ParseError("polyhedron rows are quoted relations")
                coeffs, rel, rhs = _parse_linear_row(row, dim)
                if rel == "<=":
                    rows.append((coeffs, rhs))
                elif rel == ">=":
                    rows.append((tuple(-c for c in coeffs), -rhs))
                else:
                    eqs.append((coeffs, rhs))
            st.expect_punct(")")
            return se.PolyAtom(poly(dim, rows, eqs))
        if name == "interval":
            st.expect_punct("(")
            lo = self._parse_rat(st)
            st.expect_punct(",")
            hi = self._parse_rat(st)
            st.expect_punct(")")
            return se.PolyAtom(interval(lo, hi))
        if name == "orthant":
            st.expect_punct("(")
            kind, n = st.next()
            st.expect_punct(")")
            return se.PolyAtom(orthant(int(n)))
        if name == "rn":
            st.expect_punct("(")
            kind, n = st.next()
            st.expect_punct(")")
            return se.PolyAtom(whole_space(int(n)))
        if name == "point":
            st.expect_punct("(")
            vals = []
            while not st.eat_punct(")"):
                neg = st.eat_punct("-")
                kind, v = st.next()
                vals.append(-v if neg else v)
                st.eat_punct(",")
            from .polyhedra import singleton as psingleton

            return se.PolyAtom(psingleton(tuple(vals)))
        if name == "whole":
            return se.WholeSpace(space)
        if name == "origin_set":
            return se.Singleton(ORIGIN, space)
        if name == "lp_plus":
            return se.CatalogAtom(se.LP_PLUS, space, ())
        if name == "lp_plus_unc":
            return se.CatalogAtom(se.LP_PLUS_UNC, space, ())
        if name == "subspace_C":
            return se.CatalogAtom(se.SUBSPACE_C, space, ())
        if name == "subspace_S":
            return se.CatalogAtom(se.SUBSPACE_S, space, ())
        if name == "kernel":
            return se.CatalogAtom(se.KERNEL, space, ())
        if name == "dual_ball":
            return se.CatalogAtom(se.DUAL_BALL, space, ())
        if name == "closed_subspace":
            params = self._parse_params(st)
            return se.CatalogAtom(se.CLOSED_SUBSPACE, space, params)
        if name == "abstract_set":
            params = self._parse_params(st)
            return se.CatalogAtom(se.ABSTRACT_CONVEX, space, params)
        if name == "neg":
            st.expect_punct("(")
            inner = self.parse_set(st)
            st.expect_punct(")")
            return se.Neg(inner)
        if name == "scale":
            st.expect_punct("(")
            q = self._parse_rat(st)
            st.expect_punct(",")
            inner = self.parse_set(st)
            st.expect_punct(")")
            return se.Scale(q, inner)
        if name == "translate":
            st.expect_punct("(")
            inner = self.parse_set(st)
            st.expect_punct(",")
            pt = self.parse_point(st)
            st.expect_punct(")")
            return se.Translate(inner, pt)
        if name == "minksum":
            st.expect_punct("(")
            a = self.parse_set(st)
            st.expect_punct(",")
            b = self.parse_set(st)
            st.expect_punct(")")
            return se.MinkSum((a, b))
        if name == "diff":
            st.expect_punct("(")
            a = self.parse_set(st)
            st.expect_punct(",")
            b = self.parse_set(st)
            st.expect_punct(")")
            return se.MinkSum((a, se.Neg(b)))
        if name == "product":
            st.expect_punct("(")
            a = self.parse_set(st)
            st.expect_punct(",")
            b = self.parse_set(st)
            st.expect_punct(")")
            return se.Product(a, b)
        if name == "intersect":
            st.expect_punct("(")
            a = self.parse_set(st)
            st.expect_punct(",")
            b = self.parse_set(st)
            st.expect_punct(")")
            return se.Intersect(a, b)
        if name == "cone_hull":
            st.expect_punct("(")
            inner = self.parse_set(st)
            st.expect_punct(")")
            return se.ConeHull(inner)
        if name == "co0":
            st.expect_punct("(")
            inner = self.parse_set(st)
            st.expect_punct(")")
            return se.ConvexHullWithOrigin(inner)
        if name == "closure":
            st.expect_punct("(")
            inner = self.parse_set(st)
            st.expect_punct(")")
            return se.Closure(inner)
        if name in self.named_sets:
            return self.named_sets[name]
        raise ParseError(f"unknown set constructor {name!r}")

    def _parse_rat(self, st: _Stream) -> Fraction:
        neg = st.eat_punct("-")
        kind, v = st.next()
        if kind != "num":
            raise ParseError("expected a rational")
        return -v if neg else v

    def _parse_params(self, st: _Stream):
        params = []
        if not st.eat_punct("("):
            return tuple(params)
        while not st.eat_punct(")"):
            kind, key = st.next()
            st.expect_punct("=")
            k2, v = st.next()
            if k2 == "name":
                v = {"true": True, "false": False}.get(v, v)
            elif k2 == "str":
                pass
            params.append((key, v))
            st.eat_punct(",")
        return tuple(params)

    # -- functions -----------------------------------------------------------

    def parse_func(self, st: _Stream) -> fx.FunctionExpr:
        kind, val = st.next()
        if kind != "name":
            raise ParseError(f"expected a function constructor, found {val!r}")
        name = val
        if name == "affine":
            st.expect_punct("(")
            c = self._parse_vector(st)
            alpha = Fraction(0)
            if st.eat_punct(","):
                alpha = self._parse_rat(st)
            st.expect_punct(")")
            return fx.Affine(c, alpha)
        if name == "inner":
            st.expect_punct("(")
            kind, vec_name = st.next()
            if vec_name not in self.vectors:
                raise ParseError(f"undeclared vector {vec_name!r}")
            sym = self.vectors[vec_name]
            alpha = Fraction(0)
            if st.eat_punct(","):
                alpha = self._parse_rat(st)
            st.expect_punct(")")
            return fx.Affine(fx.SymVec(sym.name, sym.attrs), alpha)
        if name == "indicator":
            st.expect_punct("(")
            s = self.parse_set(st)
            st.expect_punct(")")
            return fx.IndicatorOf(s)
        if name in ("norm1", "norm2", "norminf"):
            if st.eat_punct("("):
                st.expect_punct(")")
            return fx.NormAtom({"norm1": "l1", "norm2": "l2", "norminf": "linf"}[name])
        if name == "maxaff":
            st.expect_punct("(")
            pieces = []
            while True:
                c = self._parse_vector(st)
                st.expect_punct(",")
                alpha = self._parse_rat(st)
                pieces.append((c, alpha))
                if not st.eat_punct(";"):
                    break
            st.expect_punct(")")
            return fx.SupOfAffine(tuple(pieces))
        if name == "sum":
            st.expect_punct("(")
            a = self.parse_func(st)
            st.expect_punct(",")
            b = self.parse_func(st)
            st.expect_punct(")")
            return fx.Sum(a, b)
        if name == "infconv":
            st.expect_punct("(")
            a = self.parse_func(st)
            st.expect_punct(",")
            b = self.parse_func(st)
            st.expect_punct(")")
            return fx.InfConv(a, b)
        if name == "argtranslate":
            st.expect_punct("(")
            f = self.parse_func(st)
            st.expect_punct(",")
            v = self._parse_vector(st)
            st.expect_punct(")")
            return fx.ArgTranslate(f, v)
        if name == "plusconst":
            st.expect_punct("(")
            f = self.parse_func(st)
            st.expect_punct(",")
            q = self._parse_rat(st)
            st.expect_punct(")")
            return fx.PlusConst(f, q)
        if name == "precompose":
            st.expect_punct("(")
            m = self._parse_matrix(st)
            st.expect_punct(",")
            f = self.parse_func(st)
            st.expect_punct(")")
            return fx.PrecomposeLinear(m, f)
        if name == "conjugate":
            st.expect_punct("(")
            f = self.parse_func(st)
            st.expect_punct(")")
            return fx.ConjugateOf(f)
        raise ParseError(f"unknown function constructor {name!r}")

    def parse_map(self, st: _Stream):
        kind, val = st.next()
        if kind != "name":
            raise ParseError("expected a map constructor")
        if val == "affine_map":
            st.expect_punct("(")
            rows = self._parse_matrix(st)
            st.expect_punct(",")
            shift = self._parse_vector(st)
            st.expect_punct(")")
            return eng.AffineMap(rows, shift)
        if val == "identity":
            if st.eat_punct("("):
                st.expect_punct(")")
            return eng.IdentityMap()
        if val == "neg_identity":
            if st.eat_punct("("):
                st.expect_punct(")")
            return eng.NegIdentityMap()
        if val == "shift_map":
            st.expect_punct("(")
            p = self.parse_point(st)
            st.expect_punct(")")
            return eng.ShiftMap(p)
        if val == "named_map":
            st.expect_punct("(")
            kind, label = st.next()
            st.expect_punct(")")
            return eng.NamedMap(str(label))
        raise ParseError(f"unknown map constructor {val!r}")


def _parse_space(rest: str) -> SpaceTag:
    parts = rest.split()
    if not parts:
        raise ParseError("empty space declaration")
    head = parts[0]
    if head == "dim":
        return finite(int(parts[1]))
    if head == "l2":
        return lp_space(2)
    if head == "l2R":
        return lp_uncountable(2)
    if head == "lp":
        return lp_space(Fraction(parts[1]))
    if head == "lpR":
        return lp_uncountable(Fraction(parts[1]))
    if head == "banach":
        return banach(parts[1] if len(parts) > 1 else "X")
    if head == "lcs":
        return lcs(parts[1] if len(parts) > 1 else "X")
    raise ParseError(f"unknown space {rest!r}")


_POINT_ATTRS = {
    "strictly_positive",
    "nonneg",
    "coordinate",
    "continuous",
    "zero",
    "not_in_space",
    "not_strictly_positive",
}


def _split_cites(parts):
    """Trailing:  cite "loc" "quote"  (optional)."""
    if "cite" in parts:
        i = parts.index("cite")
        strings = re.findall(r'"((?:[^"\\]|\\.)*)"', " ".join(parts[i + 1 :]))
        loc = strings[0] if strings else ""
        quote = strings[1] if len(strings) > 1 else ""
        return parts[:i], (loc, quote)
    return parts, ("", "")


def parse_problem(text: str) -> ProblemFile:
    parser = Parser()
    problem_id = ""
    kind = None
    regime = None
    f_expr = g_expr = phi_expr = None
    s_expr = cone_expr = None
    gmap = None
    amap = None
    nx = ny = None
    flags: list[tuple[str, bool]] = []
    fact_specs: list[eng.FactSpec] = []
    meets_qri_fact = None
    slater_fact = None
    rc8_fact = None
    values = {}
    queries: list[SetQuery] = []
    expect_conditions: list[tuple[str, FactStatus]] = []
    expect = {}
    notes: list[str] = []
    cites: list[tuple[str, str]] = []

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if key == "problem":
                problem_id = rest
            elif key == "kind":
                if rest not in ("fenchel", "lagrange", "perturbation", "sets"):
                    raise ParseError(f"unknown kind {rest!r}")
                kind = rest
            elif key == "regime":
                if rest not in ("numeric", "symbolic"):
                    raise ParseError(f"unknown regime {rest!r}")
                regime = rest
            elif key == "note":
                notes.append(rest.strip('"'))
            elif key == "cite":
                strings = re.findall(r'"((?:[^"\\]|\\.)*)"', rest)
                loc = strings[0] if strings else ""
                quote = strings[1] if len(strings) > 1 else ""
                cites.append((loc, quote))
            elif key == "space":
                parser.space = _parse_space(rest)
            elif key == "cone-space":
                parser.cone_space = _parse_space(rest)
            elif key == "nx":
                nx = int(rest)
            elif key == "ny":
                ny = int(rest)
            elif key == "vector":
                parts = rest.split()
                name, attrs = parts[0], parts[1:]
                bad = [a for a in attrs if a not in _POINT_ATTRS]
                if bad:
                    raise ParseError(f"unknown vector attributes {bad}")
                parser.vectors[name] = se.SymPoint(name, frozenset(attrs))
            elif key == "set":
                name, _, expr = rest.partition(" ")
                parser.named_sets[name] = parser.parse_set(_Stream(_tokenize(expr)))
            elif key == "f":
                f_expr = parser.parse_func(_Stream(_tokenize(rest)))
            elif key == "g":
                g_expr = parser.parse_func(_Stream(_tokenize(rest)))
            elif key == "phi":
                phi_expr = parser.parse_func(_Stream(_tokenize(rest)))
            elif key == "S":
                s_expr = parser.parse_set(_Stream(_tokenize(rest)))
            elif key == "C":
                saved = parser.space
                if parser.cone_space is not None:
                    parser.space = parser.cone_space
                try:
                    cone_expr = parser.parse_set(_Stream(_tokenize(rest)))
                finally:
                    parser.space = saved
            elif key == "map":
                gmap = parser.parse_map(_Stream(_tokenize(rest)))
            elif key == "A":
                st = _Stream(_tokenize(rest))
                amap = parser._parse_matrix(st)
            elif key == "flag":
                parts = rest.split()
                if len(parts) != 2 or parts[1] not in ("true", "false"):
                    raise ParseError(f"flag wants '<name> true|false': {rest!r}")
                flags.append((parts[0], parts[1] == "true"))
            elif key == "fact":
                parts = rest.split()
                head = parts[0]
                if head == "member":
                    body, cite = _split_cites(parts)
                    notion = _NOTIONS.get(body[1])
                    if notion is None and body[1] != "in":
                        raise ParseError(f"unknown notion {body[1]!r}")
                    point = parser.parse_point(_Stream(_tokenize(body[2])))
                    ref_text = " ".join(body[3:-1])
                    status = _STATUS[body[-1]]
                    if ref_text in ("epidiff", "conic", "prdom", "domf", "domg"):
                        ref: object = ref_text
                    else:
                        ref = parser.parse_set(_Stream(_tokenize(ref_text)))
                    fact_specs.append(eng.FactSpec(notion, point, ref, status, cite))
                elif head == "meets-qri":
                    body, cite = _split_cites(parts)
                    meets_qri_fact = eng.SpecialFact(_STATUS[body[1]], cite)
                elif head == "slater-qri":
                    body, cite = _split_cites(parts)
                    slater_fact = eng.SpecialFact(_STATUS[body[1]], cite)
                elif head == "rc8":
                    body, cite = _split_cites(parts)
                    note = ""
                    if "note" in body:
                        j = body.index("note")
                        note = " ".join(body[j + 1 :]).strip('"')
                        body = body[:j]
                    rc8_fact = eng.SpecialFact(_STATUS[body[1]], cite, note)
                else:
                    raise ParseError(f"unknown fact kind {head!r}")
            elif key == "value":
                parts = rest.split()
                body, cite = _split_cites(parts)
                which = body[0]
                if which not in ("primal", "dual"):
                    raise ParseError("value wants primal|dual")
                val = _parse_extreal(body[1])
                attained = "attained" in body
                sol = ""
                if "solution" in body:
                    j = body.index("solution")
                    sol = " ".join(body[j + 1 :]).strip('"')
                values[which] = (val, attained, sol, cite)
            elif key == "query":
                parts = rest.split()
                expected = None
                if "expect" in parts:
                    j = parts.index("expect")
                    expected = _STATUS[parts[j + 1]]
                    parts = parts[:j]
                notion = _NOTIONS.get(parts[0])
                if notion is None:
                    raise ParseError(f"unknown notion {parts[0]!r}")
                point = parser.parse_point(_Stream(_tokenize(parts[1])))
                sexpr = parser.parse_set(_Stream(_tokenize(" ".join(parts[2:]))))
                queries.append(SetQuery(notion, point, sexpr, " ".join(parts), expected))
            elif key == "expect":
                parts = rest.split()
                head = parts[0]
                if head == "condition":
                    label = parts[1]
                    if not label.startswith("RC"):
                        raise ParseError("expect condition wants an RC label")
                    expect_conditions.append((label[2:], _STATUS[parts[2]]))
                elif head == "primal":
                    expect["vp"] = _parse_extreal(parts[1])
                elif head == "dual":
                    expect["vd"] = _parse_extreal(parts[1])
                elif head == "gap":
                    expect["gap"] = parts[1]
                elif head == "attained":
                    expect[f"{parts[1]}_attained"] = parts[2] == "true"
                elif head == "verdict":
                    expect["verdict"] = parts[1]
                    if len(parts) > 2:
                        expect["verdict_detail"] = parts[2]
                elif head == "dual-solution":
                    expect["dual_solution"] = rest.partition("dual-solution")[2].strip().strip('"')
                else:
                    raise ParseError(f"unknown expectation {head!r}")
            else:
                raise ParseError(f"unknown key {key!r}")
        except ParseError:
            raise
        except Exception as exc:  # tokenizer/index slips become parse errors
            raise ParseError(f"cannot parse line {raw!r}: {exc}") from exc

    if kind is None:
        raise ParseError("missing 'kind'")
    if kind != "sets" and regime is None:
        raise ParseError("missing 'regime'")
    expectations = Expectations(
        conditions=tuple(expect_conditions),
        vp=expect.get("vp"),
        vd=expect.get("vd"),
        gap=expect.get("gap"),
        verdict=expect.get("verdict"),
        verdict_detail=expect.get("verdict_detail"),
        dual_solution=expect.get("dual_solution"),
        primal_attained=expect.get("primal_attained"),
        dual_attained=expect.get("dual_attained"),
    )

    declared = eng.DeclaredValues(
        vp=values.get("primal", (None,))[0],
        vp_attained=values["primal"][1] if "primal" in values else None,
        vp_solution=values.get("primal", (None, None, ""))[2] if "primal" in values else "",
        vd=values.get("dual", (None,))[0],
        vd_attained=values["dual"][1] if "dual" in values else None,
        vd_solution=values.get("dual", (None, None, ""))[2] if "dual" in values else "",
        cites=tuple(v[3] for v in values.values() if v[3] != ("", "")),
    )

    if kind == "sets":
        inst: Union[eng.Instance, SetFactsInstance] = SetFactsInstance(
            instance_id=problem_id,
            space=parser.space or lp_space(),
            queries=tuple(queries),
        )
        return ProblemFile(kind, inst, expectations, tuple(notes), tuple(cites))

    if parser.space is None:
        raise ParseError("missing 'space'")
    if regime == "numeric" and not parser.space.finite_dim:
        raise ParseError("numeric instances need a finite-dimensional space")
    if regime == "symbolic" and parser.space.finite_dim:
        raise ParseError("symbolic instances need an infinite-dimensional space tag")

    if kind == "fenchel":
        if f_expr is None or g_expr is None:
            raise ParseError("fenchel instances need f and g")
        if amap is not None and regime != "numeric":
            raise ParseError("the linear map 'A' is numeric-only")
        inst = eng.FenchelInstance(
            instance_id=problem_id,
            space=parser.space,
            f=f_expr,
            g=g_expr,
            amap=amap,
            gspace=parser.cone_space,
            flags=tuple(flags),
            fact_specs=tuple(fact_specs),
            meets_qri_fact=meets_qri_fact,
            rc8_fact=rc8_fact,
            values=declared,
        )
    elif kind == "lagrange":
        if f_expr is None or s_expr is None or gmap is None or cone_expr is None:
            raise ParseError("lagrange instances need f, S, map and C")
        inst = eng.LagrangeInstance(
            instance_id=problem_id,
            xspace=parser.space,
            zspace=parser.cone_space or parser.space,
            f=f_expr,
            sset=s_expr,
            gmap=gmap,
            cone=cone_expr,
            flags=tuple(flags),
            fact_specs=tuple(fact_specs),
            slater_qri_fact=slater_fact,
            rc8_fact=rc8_fact,
            values=declared,
        )
    else:
        if phi_expr is None or nx is None or ny is None:
            raise ParseError("perturbation instances need phi, nx and ny")
        if regime != "numeric":
            raise ParseError("the perturbation family is numeric-only")
        inst = eng.PerturbationInstance(
            instance_id=problem_id,
            nx=nx,
            ny=ny,
            phi=phi_expr,
            flags=tuple(flags),
            values=declared,
        )
    return ProblemFile(kind, inst, expectations, tuple(notes), tuple(cites))


def _parse_extreal(token: str) -> ExtReal:
    if token in ("-inf", "-infty"):
        return MINF
    if token in ("+inf", "inf", "+infty"):
        return PINF
    return er(Fraction(token))


def load_problem(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_problem(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
