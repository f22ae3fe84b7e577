"""The ``.prob`` parser: every constructor form of README's grammar, the
corpus files, the inputs it refuses, and mutated corpus files.

Each form is parsed from a small problem file and compared with the node
built directly.  The corpus files are compared, in a canonical form, with
``probfile_golden.json``, written by ``python tests/test_probfile.py
--write`` (with ``src`` on the path) and only ever rewritten on purpose.
"""

import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcheck import corpus
from dualcheck import engine as eng
from dualcheck import funcexpr as fx
from dualcheck import setexpr as se
from dualcheck.cli import main
from dualcheck.errors import ParseError
from dualcheck.frozen import MAX_NESTING
from dualcheck.funcexpr import MINF, er
from dualcheck.polyhedra import Notion, interval, orthant, poly, singleton, whole_space
from dualcheck.probfile import MAX_DIM, parse_problem
from dualcheck.spaces import finite, lp_space, lp_uncountable

FIXTURE = Path(__file__).resolve().parent / "probfile_golden.json"

L2 = lp_space(2)
V = se.SymPoint("v", frozenset({"nonneg"}))
W = se.SymPoint("w", frozenset({"strictly_positive", "continuous"}))
DECLS = "vector v nonneg\nvector w strictly_positive continuous\nset named closure(lp_plus)\n"


def _catalog(cid, params=(), space=L2):
    return se.CatalogAtom(cid, space, params)


LP_PLUS = _catalog(se.LP_PLUS)


def _sets_file(line: str) -> str:
    return f"problem t\nkind sets\nspace l2\n{DECLS}{line}\n"


def _fenchel_file(f: str) -> str:
    return f"problem t\nkind fenchel\nregime symbolic\nspace l2\n{DECLS}f {f}\ng norm2\n"


def _lagrange_file(gmap: str) -> str:
    return f"problem t\nkind lagrange\nregime symbolic\nspace l2\n{DECLS}f norm2\nS whole\nC lp_plus\nmap {gmap}\n"


def parse_set(text: str):
    return parse_problem(_sets_file(f"query qri zero {text}")).instance.queries[0].sexpr


def parse_func(text: str):
    return parse_problem(_fenchel_file(text)).instance.f


def parse_map(text: str):
    return parse_problem(_lagrange_file(text)).instance.gmap


def parse_point(text: str):
    # through translate, so a bracketed point may hold spaces
    return parse_set(f"translate(lp_plus, {text})").offset


SET_FORMS = [
    (
        'poly(2, "x1 + 2*x2 <= 3", "x1 >= 0", "x1 - x2 == 1")',
        se.PolyAtom(poly(2, [((F(1), F(2)), F(3)), ((F(-1), F(0)), F(0))], [((F(1), F(-1)), F(1))])),
    ),
    ('poly(1, "-1/2 x1 <= 1")', se.PolyAtom(poly(1, [((F(-1, 2),), F(1))]))),
    ("poly(3)", se.PolyAtom(poly(3))),
    ("interval(-1, 1/2)", se.PolyAtom(interval(F(-1), F(1, 2)))),
    ("orthant(2)", se.PolyAtom(orthant(2))),
    ("rn(3)", se.PolyAtom(whole_space(3))),
    ("rn(0)", se.PolyAtom(whole_space(0))),
    ("point(1, -2, 3/4)", se.PolyAtom(singleton((F(1), F(-2), F(3, 4))))),
    ("whole", se.WholeSpace(L2)),
    ("origin_set", se.Singleton(se.ORIGIN, L2)),
    ("lp_plus", LP_PLUS),
    ("lp_plus_unc", _catalog(se.LP_PLUS_UNC)),
    ("subspace_C", _catalog(se.SUBSPACE_C)),
    ("subspace_S", _catalog(se.SUBSPACE_S)),
    ("kernel", _catalog(se.KERNEL)),
    ("dual_ball", _catalog(se.DUAL_BALL)),
    ("closed_subspace", _catalog(se.CLOSED_SUBSPACE)),
    (
        'closed_subspace(dense=true, label="M", finite_codim=false, k=2)',
        _catalog(se.CLOSED_SUBSPACE, (("dense", True), ("label", "M"), ("finite_codim", False), ("k", F(2)))),
    ),
    ('abstract_set(label="C", closed=true)', _catalog(se.ABSTRACT_CONVEX, (("label", "C"), ("closed", True)))),
    ("abstract_set()", _catalog(se.ABSTRACT_CONVEX)),
    ("neg(lp_plus)", se.Neg(LP_PLUS)),
    ("scale(-3/2, lp_plus)", se.Scale(F(-3, 2), LP_PLUS)),
    ("translate(lp_plus, v)", se.Translate(LP_PLUS, V)),
    ("minksum(lp_plus, kernel)", se.MinkSum((LP_PLUS, _catalog(se.KERNEL)))),
    ("diff(lp_plus, kernel)", se.MinkSum((LP_PLUS, se.Neg(_catalog(se.KERNEL))))),
    ("product(lp_plus, whole)", se.Product(LP_PLUS, se.WholeSpace(L2))),
    ("intersect(lp_plus, kernel)", se.Intersect(LP_PLUS, _catalog(se.KERNEL))),
    ("cone_hull(lp_plus)", se.ConeHull(LP_PLUS)),
    ("co0(lp_plus)", se.ConvexHullWithOrigin(LP_PLUS)),
    ("closure(lp_plus)", se.Closure(LP_PLUS)),
    ("named", se.Closure(LP_PLUS)),
    ("neg(named)", se.Neg(se.Closure(LP_PLUS))),
    (
        "intersect(minksum(neg(lp_plus), scale(2, kernel)), translate(closure(named), -w))",
        se.Intersect(
            se.MinkSum((se.Neg(LP_PLUS), se.Scale(F(2), _catalog(se.KERNEL)))),
            se.Translate(se.Closure(se.Closure(LP_PLUS)), se.NegPoint(W)),
        ),
    ),
]

NORM1 = fx.NormAtom("l1")

FUNC_FORMS = [
    ("affine([1, -2, 1/3], 5)", fx.Affine((F(1), F(-2), F(1, 3)), F(5))),
    ("affine([1, -2], -1/2)", fx.Affine((F(1), F(-2)), F(-1, 2))),
    ("affine([1, -2])", fx.Affine((F(1), F(-2)), F(0))),
    ("inner(v, 3)", fx.Affine(fx.SymVec("v", frozenset({"nonneg"})), F(3))),
    ("inner(w)", fx.Affine(fx.SymVec("w", frozenset({"strictly_positive", "continuous"})), F(0))),
    ("indicator(lp_plus)", fx.IndicatorOf(LP_PLUS)),
    ("indicator(translate(neg(named), v))", fx.IndicatorOf(se.Translate(se.Neg(se.Closure(LP_PLUS)), V))),
    ("norm1", NORM1),
    ("norm1()", NORM1),
    ("norm2", fx.NormAtom("l2")),
    ("norm2()", fx.NormAtom("l2")),
    ("norminf", fx.NormAtom("linf")),
    ("norminf()", fx.NormAtom("linf")),
    ("maxaff([1, 0], 2)", fx.SupOfAffine((((F(1), F(0)), F(2)),))),
    ("maxaff([1], 0; [-1], -1/2; [0], 3)", fx.SupOfAffine((((F(1),), F(0)), ((F(-1),), F(-1, 2)), ((F(0),), F(3))))),
    ("sum(norm1, inner(v))", fx.Sum(NORM1, fx.Affine(fx.SymVec("v", frozenset({"nonneg"})), F(0)))),
    ("infconv(norm1, norm2)", fx.InfConv(NORM1, fx.NormAtom("l2"))),
    ("argtranslate(norm1, [1, -1/2])", fx.ArgTranslate(NORM1, (F(1), F(-1, 2)))),
    ("plusconst(norm1, -7/3)", fx.PlusConst(NORM1, F(-7, 3))),
    ("precompose([[1, 0], [0, -1]], norm1)", fx.PrecomposeLinear(((F(1), F(0)), (F(0), F(-1))), NORM1)),
    ("conjugate(norm1)", fx.ConjugateOf(NORM1)),
    (
        "conjugate(sum(plusconst(norm2, 1), indicator(lp_plus)))",
        fx.ConjugateOf(fx.Sum(fx.PlusConst(fx.NormAtom("l2"), F(1)), fx.IndicatorOf(LP_PLUS))),
    ),
]

MAP_FORMS = [
    ("affine_map([[1, 0], [0, 2]], [0, -1/2])", eng.AffineMap(((F(1), F(0)), (F(0), F(2))), (F(0), F(-1, 2)))),
    ("identity", eng.IdentityMap()),
    ("identity()", eng.IdentityMap()),
    ("neg_identity", eng.NegIdentityMap()),
    ("neg_identity()", eng.NegIdentityMap()),
    ("shift_map(-v)", eng.ShiftMap(se.NegPoint(V))),
    ("shift_map([1, 2])", eng.ShiftMap(se.VecPoint((F(1), F(2))))),
    ('named_map("neg_compact_diag")', eng.NamedMap("neg_compact_diag")),
]

POINT_FORMS = [
    ("zero", se.ORIGIN),
    ("origin", se.ORIGIN),
    ("v", V),
    ("[1, -1/2]", se.VecPoint((F(1), F(-1, 2)))),
    ("[]", se.VecPoint(())),
    ("-v", se.NegPoint(V)),
    ("--v", V),
    ("-[1, -1/2]", se.VecPoint((F(-1), F(1, 2)))),
    ("-zero", se.ORIGIN),
]


@pytest.mark.parametrize("text,expected", SET_FORMS, ids=[t for t, _ in SET_FORMS])
def test_set_forms(text, expected):
    assert parse_set(text) == expected


@pytest.mark.parametrize("text,expected", FUNC_FORMS, ids=[t for t, _ in FUNC_FORMS])
def test_function_forms(text, expected):
    assert parse_func(text) == expected


@pytest.mark.parametrize("text,expected", MAP_FORMS, ids=[t for t, _ in MAP_FORMS])
def test_map_forms(text, expected):
    assert parse_map(text) == expected


@pytest.mark.parametrize("text,expected", POINT_FORMS, ids=[t for t, _ in POINT_FORMS])
def test_point_forms(text, expected):
    assert parse_point(text) == expected


def test_query_and_fact_points():
    pf = parse_problem(_sets_file("query sqri -w lp_plus expect fails"))
    query = pf.instance.queries[0]
    assert (query.notion.value, query.point, query.sexpr, query.expected) == ("sqri", se.NegPoint(W), LP_PLUS, se.FAILS)
    pf = parse_problem(_fenchel_file("norm1") + 'fact member qri w neg(named) holds cite "loc" "quote"\n')
    assert pf.instance.fact_specs == (
        eng.FactSpec(Notion.QRI, W, se.Neg(se.Closure(LP_PLUS)), se.HOLDS, ("loc", "quote")),
    )


def test_cone_space_sets_the_space_of_the_cone_only():
    text = _lagrange_file("identity").replace("space l2\n", "space l2\ncone-space l2R\n")
    inst = parse_problem(text + "C minksum(lp_plus, whole)\n").instance
    assert inst.zspace == lp_uncountable(2)
    assert inst.cone == se.MinkSum((_catalog(se.LP_PLUS, space=lp_uncountable(2)), se.WholeSpace(lp_uncountable(2))))
    assert inst.sset == se.WholeSpace(L2)


def test_numeric_fenchel_map_and_perturbation_dimensions():
    pf = parse_problem(
        "problem t\nkind fenchel\nregime numeric\nspace dim 2\ncone-space dim 1\n"
        "f affine([1, 1])\ng indicator(interval(0, 1))\nA [[1, -1]]\n"
    )
    assert (pf.instance.space, pf.instance.gspace, pf.instance.amap) == (finite(2), finite(1), ((F(1), F(-1)),))
    pf = parse_problem("problem t\nkind perturbation\nregime numeric\nspace dim 3\nnx 1\nny 2\nphi norm1\nvalue primal -inf\n")
    assert (pf.instance.nx, pf.instance.ny, pf.instance.phi) == (1, 2, NORM1)
    assert pf.instance.values == eng.DeclaredValues(vp=MINF, vp_attained=False)


def test_declared_values_and_cites():
    pf = parse_problem(
        _fenchel_file("norm1")
        + 'value dual 3/2 attained solution "x" cite "a" "b"\n'
        + 'cite "Paper, Ex. 1"  "two  spaces"\n'
    )
    assert pf.instance.values == eng.DeclaredValues(
        vd=er(F(3, 2)), vd_attained=True, vd_solution="x", cites=(("a", "b"),)
    )
    assert pf.cites == (("Paper, Ex. 1", "two  spaces"),)


# -- inputs the parser refuses --------------------------------------------------

NUMERIC_FENCHEL = "problem t\nkind fenchel\nregime numeric\nspace dim 2\nf affine([1, 1])\ng norm1\nA [[1, 0], [0, 1]]\n"
PERTURBATION = "problem t\nkind perturbation\nregime numeric\nspace dim 2\nnx 1\nny 1\nphi norm1\n"


def _with_line(text: str, line: str) -> str:
    """``text`` with ``line`` in place of the line of the same key, else appended."""
    key = line.split(" ", 1)[0]
    lines = [old for old in text.splitlines() if old.split(" ", 1)[0] != key or key in ("query", "fact")]
    return "\n".join(lines + [line]) + "\n"


SYMBOLIC_FENCHEL = _fenchel_file("norm1")
LAGRANGE = _lagrange_file("identity")
SETS = _sets_file("")

# (base file, the line that makes it refused)
TRAILING = [
    (SYMBOLIC_FENCHEL, "f affine([1], 2) extra(1)"),
    (SYMBOLIC_FENCHEL, "f norm1() norm1"),
    (SYMBOLIC_FENCHEL, "g norm2 ,"),
    (LAGRANGE, "S whole whole"),
    (LAGRANGE, "C lp_plus)"),
    (LAGRANGE, "map identity() x"),
    (LAGRANGE, 'map named_map("a") "b"'),
    (SETS, "set named closure(lp_plus) lp_plus"),
    (SETS, "query qri zero lp_plus kernel"),
    (SETS, "query qri zero(1) lp_plus"),
    (SETS, "query qri v[1] lp_plus"),
    (SYMBOLIC_FENCHEL, "fact member qri zero lp_plus kernel holds"),
    (SYMBOLIC_FENCHEL, "fact member qri -v- lp_plus holds"),
    (NUMERIC_FENCHEL, "A [[1, 0], [0, 1]] [1]"),
    (PERTURBATION, "phi norm1 1"),
]

BAD_DIMENSIONS = [
    (SETS, 'query qri zero poly(3/2, "x1 <= 1")'),
    (SETS, "query qri zero orthant(5/2)"),
    (SETS, "query qri zero rn(1/2)"),
    (SETS, "query qri zero rn(-1)"),
    (SETS, "query qri zero orthant(x)"),
    (NUMERIC_FENCHEL, "space dim -2"),
    (NUMERIC_FENCHEL, "space dim 2 2"),
    (PERTURBATION, "nx -1"),
    (PERTURBATION, "ny 1/2"),
    (PERTURBATION, f"nx {MAX_DIM + 1}"),
    (PERTURBATION, "space dim 5"),
    (NUMERIC_FENCHEL, "space dim 1000000000"),
]

BAD_SPACES = [
    (SYMBOLIC_FENCHEL, "space lp -1"),
    (SYMBOLIC_FENCHEL, "space lp 0"),
    (SYMBOLIC_FENCHEL, "space lpR 1/2"),
    (SYMBOLIC_FENCHEL, "space lp"),
    (SYMBOLIC_FENCHEL, "space lp 2 3"),
    (SYMBOLIC_FENCHEL, "space l2 extra"),
    (SYMBOLIC_FENCHEL, "space l2R 2"),
    (SYMBOLIC_FENCHEL, "space banach X Y"),
    (SYMBOLIC_FENCHEL, "space lcs X Y"),
    (LAGRANGE, "cone-space lp 1/2"),
    (LAGRANGE, "cone-space dim 1"),
    (NUMERIC_FENCHEL, "cone-space l2"),
]

REFUSED = TRAILING + BAD_DIMENSIONS + BAD_SPACES


@pytest.mark.parametrize("base,line", REFUSED, ids=[line for _, line in REFUSED])
def test_refused_inputs_are_parse_errors_and_exit_2(base, line, tmp_path, capsys):
    text = _with_line(base, line)
    with pytest.raises(ParseError):
        parse_problem(text)
    path = tmp_path / "bad.prob"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_the_bases_of_the_refused_inputs_parse():
    for base, _ in REFUSED:
        parse_problem(base)
    parse_problem(_with_line(PERTURBATION, "ny 2/2"))
    parse_problem(_with_line(SETS, "query qri zero poly(0)"))
    for line in ("space lp 1", "space lpR 7/2", "space banach Y", "space lcs", "space l2R"):
        parse_problem(_with_line(SYMBOLIC_FENCHEL, line))


def test_a_dimension_above_max_dim_is_refused_before_anything_is_built(monkeypatch):
    from dualcheck import probfile

    for name in ("orthant", "poly", "whole_space"):
        monkeypatch.setattr(probfile, name, lambda *args, name=name: pytest.fail(f"{name} was built"))
    for text in (f"orthant({MAX_DIM + 1})", "rn(1000000000)", 'poly(1000000000, "x1 <= 1")'):
        with pytest.raises(ParseError, match=f"from 0 to {MAX_DIM}"):
            parse_set(text)
    monkeypatch.undo()
    assert parse_set(f"rn({MAX_DIM})") == se.PolyAtom(whole_space(MAX_DIM))


def test_zero_argument_constructors_take_optional_parentheses():
    assert parse_set("whole()") == se.WholeSpace(L2)
    assert parse_set("neg(lp_plus())") == se.Neg(LP_PLUS)
    assert parse_set("named") == se.Closure(LP_PLUS)
    for text in ("lp_plus(1)", "whole(", "neg", "neg()", "interval(1)", "interval(1, 2, 3)", "scale(lp_plus, 1)"):
        with pytest.raises(ParseError):
            parse_set(text)
    for text in ("norm1(norm2)", "affine([1], 2, 3)", "affine(1)", "inner(u)", "maxaff()", "maxaff([1], 0;)"):
        with pytest.raises(ParseError):
            parse_func(text)


def test_expect_attained_wants_primal_or_dual():
    assert parse_problem(_fenchel_file("norm1") + "expect attained dual true\n").expect.dual_attained is True
    with pytest.raises(ParseError):
        parse_problem(_fenchel_file("norm1") + "expect attained both true\n")


def test_one_nesting_bound_covers_every_term_kind():
    # each constructor is one level: the function, its set, the point
    deep_set = "neg(" * (MAX_NESTING - 3) + "translate(lp_plus, v)" + ")" * (MAX_NESTING - 3)
    assert parse_func(f"indicator({deep_set})")
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse_func(f"conjugate(indicator({deep_set}))")
    assert parse_map("shift_map(" + "-" * (MAX_NESTING - 2) + "v)") == eng.ShiftMap(V)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse_map("shift_map(" + "-" * (MAX_NESTING - 1) + "v)")


# -- mutated corpus files ---------------------------------------------------------

CORPUS_TEXTS = [(corpus._data_dir() / f"{e}.prob").read_text(encoding="utf-8") for e in corpus.list_entries()]
_TOKEN = re.compile(r'"[^"]*"|[A-Za-z_0-9\'/.+-]+|\S')
_STRAY = ["(", ")", ",", "[", "]", "-", "=", ";", '""', str(2**70), "-7", "1/0", "0", "-1/2", "x1"]


@st.composite
def mutated_corpus_files(draw):
    lines = draw(st.sampled_from(CORPUS_TEXTS)).splitlines()
    content = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(content))
        spans = [m.span() for m in _TOKEN.finditer(lines[i])]
        if not spans:
            continue
        a, b = spans[draw(st.integers(0, len(spans) - 1))]
        line, tok = lines[i], lines[i][a:b]
        op = draw(st.sampled_from(["drop", "swap", "insert", "replace", "truncate", "drop line"]))
        if op == "drop":
            line = line[:a] + line[b:]
        elif op == "swap":
            c, d = spans[draw(st.integers(0, len(spans) - 1))]
            if (c, d) > (a, b):
                line = line[:a] + line[c:d] + line[b:c] + tok + line[d:]
        elif op == "insert":
            line = line[:a] + draw(st.sampled_from(_STRAY)) + line[a:]
        elif op == "replace":
            line = line[:a] + draw(st.sampled_from(_STRAY)) + line[b:]
        elif op == "truncate":
            line = line[:a] + tok[: draw(st.integers(0, len(tok) - 1))] + line[b:]
        else:
            line = ""
        lines[i] = line
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=mutated_corpus_files())
def test_mutated_corpus_files_raise_only_parse_errors(text, tmp_path_factory):
    try:
        parse_problem(text)
    except ParseError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "mutated.prob"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path)]) in (0, 2, 3, 4, 5)


# -- the corpus files, in a canonical form -------------------------------------


def _canon(x):
    """Plain data for a parsed file: class names, fields, sorted frozensets."""
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [_canon(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    if isinstance(x, enum.Enum):
        return [type(x).__name__, x.name]
    if isinstance(x, F):
        return str(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return repr(x)


def _digests() -> dict:
    out = {}
    for entry in corpus.list_entries():
        pf = parse_problem((corpus._data_dir() / f"{entry}.prob").read_text(encoding="utf-8"))
        out[entry] = hashlib.sha256(json.dumps(_canon(pf)).encode()).hexdigest()
    return out


def test_corpus_files_parse_to_the_golden_problem_files():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = _digests()
    assert list(got) == list(expected)
    assert [k for k in expected if got[k] != expected[k]] == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        FIXTURE.write_text(json.dumps(_digests(), indent=1) + "\n", encoding="utf-8")
    else:
        print(json.dumps(_digests(), indent=1))
