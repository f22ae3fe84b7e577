"""Line-oriented problem files.

A file declares one instance: a key starts each line and decides how the
rest parses.  Rationals are written ``p/q`` (never decimal floats), and
polyhedra take quoted linear relations over ``x1..xn``.  Set, function and
map terms are calls, looked up in one constructor table per term kind
(``_SETS``, ``_FUNCS``, ``_MAPS``: name -> argument kinds and builder);
``Parser._call`` reads the arguments of every entry, and ``Parser.parse``
reads one term that must end its line.  Only the forms that are not a
fixed argument list are written out in ``Parser``: ``poly``,
``point(a, b, ...)``, ``maxaff``, the catalog atoms with ``k=v`` params,
named sets and points.  The grammar is documented in the section
"The ``.prob`` problem format" of ``README.md``; corpus entries use the
same format plus ``expect`` lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import engine as eng
from . import funcexpr as fx
from . import setexpr as se
from .errors import ParseError
from .frozen import MAX_NESTING
from .funcexpr import ExtReal, MINF, PINF, er
from .polyhedra import Notion, interval, orthant, poly, singleton, whole_space
from .setexpr import FAILS, HOLDS, UNKNOWN, FactStatus, ORIGIN
from .spaces import SpaceTag, banach, finite, lcs, lp_space, lp_uncountable

_NOTIONS = {n.value: n for n in Notion}

_STATUS = {"holds": HOLDS, "fails": FAILS, "unknown": UNKNOWN}

# the largest dimension a file may declare: a set of dimension n holds up to
# n rows of n coefficients, so the bound is checked before any is built
MAX_DIM = 100


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
    """One quoted relation as ``((coeffs, rhs), is_equation)``, ``>=`` flipped to ``<=``."""
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
    if m.group("rel") == ">=":
        return (tuple(-c for c in coeffs), -rhs), False
    return (tuple(coeffs), rhs), m.group("rel") == "=="


# -- constructor tables ---------------------------------------------------------
#
# One table per term kind: name -> (argument kinds, builder).  Parser._arg
# reads a kind: the terms "set", "func", "map" and "point", a rational "rat",
# a bracketed rational "vec", a "mat" of bracketed vecs, a nonnegative
# integer "dim", a declared "vector" name, or any one "token".  A kind ending
# in "?" is an optional last argument; a constructor without arguments may
# be written with or without "()".  Set builders take the ambient space
# first.


def _scale(_, q: Fraction, s: se.SetExpr) -> se.Scale:
    if q == 0:
        raise ParseError("scale needs a nonzero factor")
    return se.Scale(q, s)


def _catalog(cid: str):
    return lambda space: se.CatalogAtom(cid, space, ())


_SETS = {
    "whole": ((), se.WholeSpace),
    "origin_set": ((), lambda space: se.Singleton(ORIGIN, space)),
    "lp_plus": ((), _catalog(se.LP_PLUS)),
    "lp_plus_unc": ((), _catalog(se.LP_PLUS_UNC)),
    "subspace_C": ((), _catalog(se.SUBSPACE_C)),
    "subspace_S": ((), _catalog(se.SUBSPACE_S)),
    "kernel": ((), _catalog(se.KERNEL)),
    "dual_ball": ((), _catalog(se.DUAL_BALL)),
    "interval": (("rat", "rat"), lambda _, lo, hi: se.PolyAtom(interval(lo, hi))),
    "orthant": (("dim",), lambda _, n: se.PolyAtom(orthant(n))),
    "rn": (("dim",), lambda _, n: se.PolyAtom(whole_space(n))),
    "neg": (("set",), lambda _, s: se.Neg(s)),
    "scale": (("rat", "set"), _scale),
    "translate": (("set", "point"), lambda _, s, p: se.Translate(s, p)),
    "minksum": (("set", "set"), lambda _, a, b: se.MinkSum((a, b))),
    "diff": (("set", "set"), lambda _, a, b: se.MinkSum((a, se.Neg(b)))),
    "product": (("set", "set"), lambda _, a, b: se.Product(a, b)),
    "intersect": (("set", "set"), lambda _, a, b: se.Intersect(a, b)),
    "cone_hull": (("set",), lambda _, s: se.ConeHull(s)),
    "co0": (("set",), lambda _, s: se.ConvexHullWithOrigin(s)),
    "closure": (("set",), lambda _, s: se.Closure(s)),
}

# catalog atoms written with optional (k=v, ...) params
_PARAM_ATOMS = {"closed_subspace": se.CLOSED_SUBSPACE, "abstract_set": se.ABSTRACT_CONVEX}

_FUNCS = {
    "affine": (("vec", "rat?"), lambda c, alpha=Fraction(0): fx.Affine(c, alpha)),
    "inner": (("vector", "rat?"), lambda v, alpha=Fraction(0): fx.Affine(fx.SymVec(v.name, v.attrs), alpha)),
    "indicator": (("set",), fx.IndicatorOf),
    "norm1": ((), lambda: fx.NormAtom("l1")),
    "norm2": ((), lambda: fx.NormAtom("l2")),
    "norminf": ((), lambda: fx.NormAtom("linf")),
    "sum": (("func", "func"), fx.Sum),
    "infconv": (("func", "func"), fx.InfConv),
    "argtranslate": (("func", "vec"), fx.ArgTranslate),
    "plusconst": (("func", "rat"), fx.PlusConst),
    "precompose": (("mat", "func"), fx.PrecomposeLinear),
    "conjugate": (("func",), fx.ConjugateOf),
}

# one piece "[c], alpha" of maxaff([c], alpha; [c], alpha; ...)
_PIECE = ("vec", "rat")

_MAPS = {
    "affine_map": (("mat", "vec"), eng.AffineMap),
    "identity": ((), eng.IdentityMap),
    "neg_identity": ((), eng.NegIdentityMap),
    "shift_map": (("point",), eng.ShiftMap),
    "named_map": (("token",), lambda label: eng.NamedMap(str(label))),
}

# the kinds that nest: each level counts against MAX_NESTING
_NESTED = frozenset({"set", "func", "map", "point"})

_BOOLS = {"true": True, "false": False}


class Parser:
    def __init__(self):
        self.vectors: dict[str, se.SymPoint] = {}
        self.named_sets: dict[str, se.SetExpr] = {}
        self.space: Optional[SpaceTag] = None
        self.cone_space: Optional[SpaceTag] = None
        self.depth = 0

    def parse(self, kind: str, text: str):
        """The one term of argument kind ``kind`` that makes up ``text``."""
        st = _Stream(_tokenize(text))
        term = self._arg(kind, st)
        if st.i < len(st.tokens):
            raise ParseError(f"unexpected {str(st.peek()[1])!r} after the {kind} term")
        return term

    def parse_space(self, rest: str) -> SpaceTag:
        """One space tag and its argument, with nothing after them; an l^p
        exponent is a rational p >= 1."""
        head, _, arg = rest.strip().partition(" ")
        if head == "dim":
            return finite(self.parse("dim", arg))
        if head in ("lp", "lpR"):
            p = self.parse("rat", arg)
            if p < 1:
                raise ParseError(f"an l^p space needs p >= 1, found {p}")
            return lp_space(p) if head == "lp" else lp_uncountable(p)
        args = arg.split()
        if head in ("l2", "l2R") and not args:
            return lp_space(2) if head == "l2" else lp_uncountable(2)
        if head in ("banach", "lcs") and len(args) <= 1:
            return (banach if head == "banach" else lcs)(*args)
        if head in ("l2", "l2R", "banach", "lcs"):
            raise ParseError(f"unexpected {args[-1]!r} after the space tag {head!r}")
        raise ParseError(f"unknown space {rest!r}")

    def _arg(self, kind: str, st: _Stream):
        """Read one argument; a nested term is refused past MAX_NESTING levels."""
        read = getattr(self, "_" + kind)
        if kind not in _NESTED:
            return read(st)
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return read(st)
        finally:
            self.depth -= 1

    def _args(self, kinds, st: _Stream) -> tuple:
        args = []
        for i, kind in enumerate(kinds):
            if kind.endswith("?"):
                if not st.eat_punct(","):
                    break
                kind = kind[:-1]
            elif i:
                st.expect_punct(",")
            args.append(self._arg(kind, st))
        return tuple(args)

    def _call(self, table, name: str, st: _Stream, *lead):
        kinds, build = table[name]
        if kinds or st.peek() == ("punct", "("):
            st.expect_punct("(")
            lead += self._args(kinds, st)
            st.expect_punct(")")
        return build(*lead)

    def _name(self, st: _Stream, what: str) -> str:
        kind, val = st.next()
        if kind != "name":
            raise ParseError(f"expected a {what} constructor, found {val!r}")
        return val

    # -- terms ----------------------------------------------------------------

    def _set(self, st: _Stream) -> se.SetExpr:
        name = self._name(st, "set")
        space = self.space or lp_space()
        if name in _SETS:
            return self._call(_SETS, name, st, space)
        if name == "poly":
            st.expect_punct("(")
            dim = self._dim(st)
            ineqs, eqs = [], []
            while st.eat_punct(","):
                kind, text = st.next()
                if kind != "str":
                    raise ParseError("polyhedron rows are quoted relations")
                row, is_eq = _parse_linear_row(text, dim)
                (eqs if is_eq else ineqs).append(row)
            st.expect_punct(")")
            return se.PolyAtom(poly(dim, ineqs, eqs))
        if name == "point":
            st.expect_punct("(")
            return se.PolyAtom(singleton(self._rats(st, ")")))
        if name in _PARAM_ATOMS:
            return se.CatalogAtom(_PARAM_ATOMS[name], space, self._params(st))
        if name in self.named_sets:
            return self.named_sets[name]
        raise ParseError(f"unknown set constructor {name!r}")

    def _func(self, st: _Stream) -> fx.FunctionExpr:
        name = self._name(st, "function")
        if name in _FUNCS:
            return self._call(_FUNCS, name, st)
        if name == "maxaff":
            st.expect_punct("(")
            pieces = [self._args(_PIECE, st)]
            while st.eat_punct(";"):
                pieces.append(self._args(_PIECE, st))
            st.expect_punct(")")
            return fx.SupOfAffine(tuple(pieces))
        raise ParseError(f"unknown function constructor {name!r}")

    def _map(self, st: _Stream):
        name = self._name(st, "map")
        if name in _MAPS:
            return self._call(_MAPS, name, st)
        raise ParseError(f"unknown map constructor {name!r}")

    def _point(self, st: _Stream) -> se.Point:
        if st.peek() == ("punct", "["):
            return se.VecPoint(self._vec(st))
        kind, val = st.next()
        if (kind, val) == ("punct", "-"):
            return se.pneg(self._arg("point", st))
        if kind != "name":
            raise ParseError(f"expected a point, found {val!r}")
        return ORIGIN if val in ("zero", "origin") else self._declared(val)

    # -- plain arguments --------------------------------------------------------

    def _rat(self, st: _Stream) -> Fraction:
        neg = st.eat_punct("-")
        kind, v = st.next()
        if kind != "num":
            raise ParseError(f"expected a rational, found {v!r}")
        return -v if neg else v

    def _rats(self, st: _Stream, close: str) -> tuple:
        """Rationals up to ``close``; the commas between them are optional."""
        out = []
        while not st.eat_punct(close):
            out.append(self._rat(st))
            st.eat_punct(",")
        return tuple(out)

    def _vec(self, st: _Stream) -> tuple:
        st.expect_punct("[")
        return self._rats(st, "]")

    def _mat(self, st: _Stream) -> tuple:
        st.expect_punct("[")
        rows = []
        while not st.eat_punct("]"):
            rows.append(self._vec(st))
            st.eat_punct(",")
        return tuple(rows)

    def _dim(self, st: _Stream) -> int:
        kind, n = st.next()
        if kind != "num" or n < 0 or n.denominator != 1 or n > MAX_DIM:
            raise ParseError(f"a dimension is an integer from 0 to {MAX_DIM}, found {n}")
        return int(n)

    def _vector(self, st: _Stream) -> se.SymPoint:
        return self._declared(st.next()[1])

    def _declared(self, name) -> se.SymPoint:
        if name not in self.vectors:
            raise ParseError(f"undeclared vector {name!r}")
        return self.vectors[name]

    def _token(self, st: _Stream):
        return st.next()[1]

    def _params(self, st: _Stream) -> tuple:
        """Optional ``(k=v, ...)``; the names true and false read as booleans."""
        params = []
        if st.eat_punct("("):
            while not st.eat_punct(")"):
                key = st.next()[1]
                st.expect_punct("=")
                kind, v = st.next()
                params.append((key, _BOOLS.get(v, v) if kind == "name" else v))
                st.eat_punct(",")
        return tuple(params)


_POINT_ATTRS = {
    "strictly_positive",
    "nonneg",
    "coordinate",
    "continuous",
    "zero",
    "not_in_space",
    "not_strictly_positive",
}


_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _cite(text: str) -> tuple[str, str]:
    """The first two quoted strings of ``text``, location and quote; "" if missing."""
    strings = _QUOTED_RE.findall(text) + ["", ""]
    return strings[0], strings[1]


def _split_cites(parts):
    """Trailing:  cite "loc" "quote"  (optional)."""
    if "cite" in parts:
        i = parts.index("cite")
        return parts[:i], _cite(" ".join(parts[i + 1 :]))
    return parts, ("", "")


# line key -> the argument kind of the one term that makes up the rest of the line
_TERM_LINES = {
    "f": "func", "g": "func", "phi": "func", "S": "set", "C": "set",
    "map": "map", "A": "mat", "nx": "dim", "ny": "dim",
}

# a value line that is absent: value, attained, solution, cite
_NO_VALUE = (None, None, "", ("", ""))


def parse_problem(text: str) -> ProblemFile:
    parser = Parser()
    problem_id = ""
    kind = None
    regime = None
    terms: dict[str, object] = {}
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
                cites.append(_cite(rest))
            elif key == "space":
                parser.space = parser.parse_space(rest)
            elif key == "cone-space":
                parser.cone_space = parser.parse_space(rest)
            elif key in _TERM_LINES:
                # the cone lives in the cone space, when one is declared
                saved = parser.space
                if key == "C" and parser.cone_space is not None:
                    parser.space = parser.cone_space
                terms[key] = parser.parse(_TERM_LINES[key], rest)
                parser.space = saved
            elif key == "vector":
                parts = rest.split()
                name, attrs = parts[0], parts[1:]
                bad = [a for a in attrs if a not in _POINT_ATTRS]
                if bad:
                    raise ParseError(f"unknown vector attributes {bad}")
                parser.vectors[name] = se.SymPoint(name, frozenset(attrs))
            elif key == "set":
                name, _, expr = rest.partition(" ")
                parser.named_sets[name] = parser.parse("set", expr)
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
                    point = parser.parse("point", body[2])
                    ref_text = " ".join(body[3:-1])
                    status = _STATUS[body[-1]]
                    if ref_text in ("epidiff", "conic", "prdom", "domf", "domg"):
                        ref: object = ref_text
                    else:
                        ref = parser.parse("set", ref_text)
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
                point = parser.parse("point", parts[1])
                sexpr = parser.parse("set", " ".join(parts[2:]))
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
                    if parts[1] not in ("primal", "dual"):
                        raise ParseError("expect attained wants primal|dual")
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
    expectations = Expectations(conditions=tuple(expect_conditions), **expect)

    # DeclaredValues starts with vp, vp_attained, vp_solution, vd, vd_attained, vd_solution
    declared = eng.DeclaredValues(
        *values.get("primal", _NO_VALUE)[:3],
        *values.get("dual", _NO_VALUE)[:3],
        cites=tuple(v[3] for v in values.values() if v[3] != ("", "")),
    )
    f_expr, g_expr, phi_expr, s_expr, cone_expr, gmap, amap, nx, ny = map(terms.get, _TERM_LINES)

    if kind == "sets":
        space = parser.space or lp_space()
        for q in queries if space.finite_dim else ():
            fx.check_dim(q.sexpr, space.dim, ParseError)
        inst: Union[eng.Instance, SetFactsInstance] = SetFactsInstance(
            instance_id=problem_id,
            space=space,
            queries=tuple(queries),
        )
        return ProblemFile(kind, inst, expectations, tuple(notes), tuple(cites))

    if parser.space is None:
        raise ParseError("missing 'space'")
    if regime == "numeric" and not parser.space.finite_dim:
        raise ParseError("numeric instances need a finite-dimensional space")
    if regime == "symbolic" and parser.space.finite_dim:
        raise ParseError("symbolic instances need an infinite-dimensional space tag")
    if parser.cone_space is not None and parser.cone_space.finite_dim != parser.space.finite_dim:
        raise ParseError("the cone space must belong to the file's regime")

    if kind == "fenchel":
        if f_expr is None or g_expr is None:
            raise ParseError("fenchel instances need f and g")
        if amap is not None and regime != "numeric":
            raise ParseError("the linear map 'A' is numeric-only")
        if parser.cone_space is not None and amap is None:
            raise ParseError("a fenchel 'cone-space' is the space of A x, so it needs 'A'")
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
        if parser.space.dim != nx + ny:
            raise ParseError(f"Phi lives on R^(nx + ny) = R^{nx + ny}, but the space is R^{parser.space.dim}")
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
