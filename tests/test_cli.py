import json
import sys
from fractions import Fraction

import pytest

from dualcheck.cli import main
from dualcheck.probfile import parse_problem
from dualcheck.errors import MalformedInputError, ParseError

from oracles import rational_bland_simplex


NUMERIC_FILE = """
problem demo-overlap
kind fenchel
regime numeric
space dim 1
f indicator(interval(-1, 1))
g indicator(interval(-1, 1))
"""

GAP_FILE_LINES = """
problem demo-corpus-ex61
kind lagrange
"""


def _write(tmp_path, text, name="prob.prob"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_analyze_numeric_text(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, NUMERIC_FILE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "RC3" in out and "holds" in out
    assert "strong duality: guaranteed-by" in out


def test_analyze_structured_roundtrip_and_stability(tmp_path, capsys):
    path = _write(tmp_path, NUMERIC_FILE)
    code = main(["analyze", path, "--format", "json-like"])
    first = capsys.readouterr().out
    assert code == 0
    doc = json.loads(first)  # round-trips as a structured document
    assert doc["problem"] == "demo-overlap"
    statuses = {c["id"]: c["status"] for c in doc["conditions"]}
    assert statuses["RC3"] == "holds"
    code = main(["analyze", path, "--format", "json-like"])
    second = capsys.readouterr().out
    assert first == second  # byte-identical on identical input


def test_text_and_structured_agree_on_verdicts(tmp_path, capsys):
    path = _write(tmp_path, NUMERIC_FILE)
    main(["analyze", path])
    text = capsys.readouterr().out
    main(["analyze", path, "--format", "json-like"])
    doc = json.loads(capsys.readouterr().out)
    for cond in doc["conditions"]:
        assert f"{cond['id']}".lower() in text.lower()
        line = next(l for l in text.splitlines() if l.startswith(cond["id"] + " "))
        assert cond["status"] in line


def _analyze_structured(tmp_path, capsys, text) -> tuple[int, dict]:
    code = main(["analyze", _write(tmp_path, text), "--format", "json-like"])
    return code, json.loads(capsys.readouterr().out)


def test_numeric_rc6_prime_reads_the_operator(tmp_path, capsys):
    # A(dom f) = [-2, -1] meets (-2, 1) = ri(dom g), though dom f does not
    text = NUMERIC_FILE.replace("interval(-1, 1))\ng", "interval(1, 2))\ng").replace(
        "g indicator(interval(-1, 1))", "g indicator(interval(-2, 1))\nA [[-1]]"
    )
    code, doc = _analyze_structured(tmp_path, capsys, text)
    assert code == 0
    rc6p = next(c for c in doc["conditions"] if c["id"] == "RC6'")
    assert rc6p["status"] == "holds"
    assert doc["consistency"]["ok"]


def test_numeric_conjugate_has_no_structural_domain_to_miss(tmp_path, capsys):
    # f = conj(|.|) = indicator of [-1, 1]: inf x/2 over it is -1/2
    text = NUMERIC_FILE.replace("f indicator(interval(-1, 1))", "f conjugate(norm1)").replace(
        "g indicator(interval(-1, 1))", "g affine([1/2], 0)"
    )
    code, doc = _analyze_structured(tmp_path, capsys, text)
    assert code == 0
    assert doc["values"]["primal"] == "-1/2" and doc["values"]["dual"] == "-1/2"
    assert doc["consistency"]["ok"]


def test_a_declared_lsc_flag_is_one_judgement(tmp_path, capsys):
    # the lsc clauses honour the flag, and so does the lsc hypothesis: the
    # edges that need lsc do not fire, so RC1 holding while RC2 fails is no
    # violation
    code, doc = _analyze_structured(tmp_path, capsys, NUMERIC_FILE + "flag lsc_f false\n")
    assert code == 0
    statuses = {c["id"]: c["status"] for c in doc["conditions"]}
    assert statuses["RC1"] == "holds" and statuses["RC2"] == "fails"
    assert doc["consistency"] == {"ok": True, "violations": []}


def test_analyze_malformed_file(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "kind nonsense\n")])
    assert code == 2
    code = main(["analyze", str(tmp_path / "missing.prob")])
    assert code == 2


def test_analyze_rejects_unknown_keys():
    with pytest.raises(ParseError):
        parse_problem(NUMERIC_FILE + "\nmystery-key 42\n")


def test_solve_trivial(tmp_path, capsys):
    text = """
problem solve-trivial
kind fenchel
regime numeric
space dim 1
f indicator(point(0))
g indicator(point(0))
"""
    code = main(["solve", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert "primal  0" in out and "dual    0" in out and "gap     0" in out


def test_solve_undecidable_symbolic(tmp_path, capsys):
    text = """
problem solve-undecidable
kind fenchel
regime symbolic
space l2
f indicator(lp_plus)
g indicator(lp_plus)
"""
    code = main(["solve", _write(tmp_path, text)])
    assert code == 4


def test_solve_gap_entry(tmp_path, capsys):
    from dualcheck import corpus

    text = (corpus._data_dir() / "ex-6.1-daniele-giuffre.prob").read_text()
    code = main(["solve", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert "primal  0" in out
    assert "dual    -inf" in out
    assert "gap     +inf" in out


def test_solve_structured_output_is_pinned(tmp_path, capsys):
    from dualcheck import corpus

    text = (corpus._data_dir() / "ex-6.1-daniele-giuffre.prob").read_text()
    assert main(["solve", _write(tmp_path, text), "--format", "json-like"]) == 0
    assert capsys.readouterr().out == """{
  "problem": "ex-6.1-daniele-giuffre",
  "values": {
    "primal": "0",
    "primal_attained": true,
    "primal_solution": "0",
    "dual": "-inf",
    "dual_attained": false,
    "dual_solution": null,
    "gap": "+inf"
  }
}
"""


def test_corpus_cli(tmp_path, capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "ex-5.1-gowda-teboulle" in out
    assert len(out.strip().splitlines()) >= 13
    assert main(["corpus", "run", "ex-5.1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pass")
    assert main(["corpus", "run", "no-such-entry"]) == 2
    assert capsys.readouterr().err == "error: no corpus entry named 'no-such-entry'\n"


def test_seed_flag_refused(capsys):
    # no command draws from a random generator, so there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "corpus", "list"])
    assert exc.value.code == 2


def test_analyze_corpus_entry_via_cli(tmp_path, capsys):
    from dualcheck import corpus

    text = (corpus._data_dir() / "ex-5.6-two-dense-subspaces.prob").read_text()
    code = main(["analyze", _write(tmp_path, text), "--format", "json-like"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    statuses = {c["id"]: c["status"] for c in doc["conditions"]}
    assert statuses["RC6"] == "holds"
    assert statuses["RC8"] == "fails"


def test_analyze_sets_entry_via_cli(tmp_path, capsys):
    from dualcheck import corpus

    text = (corpus._data_dir() / "ex-3.1-lp-positive-cone.prob").read_text()
    code = main(["analyze", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert "holds" in out and "fails" in out


def test_pivot_budget_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DUALCHECK_MAX_PIVOTS", "1")
    code = main(["analyze", _write(tmp_path, NUMERIC_FILE)])
    assert code == 5
    assert "pivot budget" in capsys.readouterr().err


def test_malformed_pivot_budget_is_a_validation_error(tmp_path, capsys, monkeypatch):
    for raw in ("lots", "0", "-3"):
        monkeypatch.setenv("DUALCHECK_MAX_PIVOTS", raw)
        code = main(["analyze", _write(tmp_path, NUMERIC_FILE)])
        assert code == 2
        assert "DUALCHECK_MAX_PIVOTS" in capsys.readouterr().err


def test_a_declared_meets_qri_fact_must_agree_with_the_lp(tmp_path, capsys):
    # [-1, 1] meets its own relative interior, so the LP says RC6' holds
    code = main(["analyze", _write(tmp_path, NUMERIC_FILE + "fact meets-qri fails\n")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "contradicts the exact LP" in captured.err
    code, doc = _analyze_structured(tmp_path, capsys, NUMERIC_FILE + "fact meets-qri holds\n")
    assert code == 0
    rc6p = next(c for c in doc["conditions"] if c["id"] == "RC6'")
    assert rc6p["status"] == "holds"
    assert doc["consistency"]["ok"]


class _ClosedPipe:
    """A standard output whose reader went away, as under ``| head -1``."""

    def __init__(self, file):
        self._file = file

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._file.fileno()


def test_closed_stdout_exits_quietly(tmp_path, capsys, monkeypatch):
    with open(tmp_path / "out", "w") as file:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(file))
        code = main(["corpus", "run", "ex-5.1"])
    assert code == 141
    assert capsys.readouterr().err == ""


def _nested_sets_file(depth: int) -> str:
    query = "neg(" * depth + "lp_plus" + ")" * depth
    return f"problem deep\nkind sets\nspace l2\nquery qri zero {query} expect fails\n"


def test_set_nesting_bound_is_a_parse_error(tmp_path, capsys):
    from dualcheck.probfile import MAX_NESTING

    # neg(...) around lp_plus takes MAX_NESTING levels, the atom one more
    code = main(["analyze", _write(tmp_path, _nested_sets_file(MAX_NESTING - 1)), "--format", "json-like"])
    assert code == 0
    assert '"status": "fails"' in capsys.readouterr().out
    with pytest.raises(ParseError):
        parse_problem(_nested_sets_file(MAX_NESTING))
    assert main(["analyze", _write(tmp_path, _nested_sets_file(MAX_NESTING))]) == 2
    assert main(["analyze", _write(tmp_path, _nested_sets_file(600))]) == 2


def _nested_sums_file(depth: int) -> str:
    f = "sum(" * depth + "norm1" + ", norm1)" * depth
    return f"problem deep\nkind fenchel\nregime symbolic\nspace l2\nf {f}\ng norm2\n"


def test_function_nesting_bound_is_a_parse_error():
    from dualcheck.probfile import MAX_NESTING

    # parse only: a deep sum is slow to diagnose.  sum(..., norm1) around
    # norm1 takes MAX_NESTING - 1 levels, the inner norm1 one more
    f = parse_problem(_nested_sums_file(MAX_NESTING - 1)).instance.f
    for _ in range(MAX_NESTING - 1):
        f = f.a
    assert f == parse_problem(_nested_sums_file(0)).instance.f
    for depth in (MAX_NESTING, 2000):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
            parse_problem(_nested_sums_file(depth))


def test_deep_api_built_nest_raises_a_typed_error():
    from dualcheck import setexpr as se
    from dualcheck.errors import MalformedInputError
    from dualcheck.spaces import lp_space

    # the depth bound holds where a node is built, before any walk
    s = se.CatalogAtom(se.LP_PLUS, lp_space(), ())
    with pytest.raises(MalformedInputError):
        for _ in range(3000):
            s = se.Neg(s)


def test_named_sets_nested_past_the_depth_bound_exit_2(tmp_path, capsys):
    from dualcheck.frozen import MAX_DEPTH, MAX_NESTING

    # each nest is within the parser's bound, their composition is not
    half = MAX_NESTING - 1
    inner = "neg(" * half + "lp_plus" + ")" * half
    outer = "neg(" * half + "a" + ")" * half
    assert 2 * half + 1 > MAX_DEPTH
    text = f"problem deep\nkind sets\nspace l2\nset a {inner}\nquery qri zero {outer} expect fails\n"
    assert main(["analyze", _write(tmp_path, text)]) == 2
    assert f"nested deeper than {MAX_DEPTH} levels" in capsys.readouterr().err


NUMERIC_SUM = "problem t\nkind fenchel\nregime numeric\nspace dim 2\nf norm1\ng norm1\n"
NUMERIC_CONE = "problem t\nkind lagrange\nregime numeric\nspace dim 2\nf norm1\nS rn(2)\n"

# files whose maps and spaces do not fit together
MISSHAPEN = {
    "A too wide": NUMERIC_SUM + "A [[1, 0, 0]]\n",
    "A ragged": NUMERIC_SUM + "A [[1], [0, 1]]\n",
    "A without the rows of g's space": NUMERIC_SUM + "cone-space dim 3\nA [[1, 0], [0, 1]]\n",
    "G too wide": NUMERIC_CONE + "cone-space dim 1\nC orthant(1)\nmap affine_map([[1, 0, 0]], [0])\n",
    "h too long": NUMERIC_CONE + "cone-space dim 1\nC orthant(1)\nmap affine_map([[1, 0]], [0, 0])\n",
    "identity across dimensions": NUMERIC_CONE + "cone-space dim 1\nC orthant(1)\nmap identity\n",
    "shift too long": NUMERIC_CONE + "C orthant(2)\nmap shift_map([1, 2, 3])\n",
    "numeric file, symbolic cone space": NUMERIC_SUM + "cone-space l2\nA [[1, 0]]\n",
    "symbolic file, numeric cone space": GAP_FILE_LINES + "regime symbolic\nspace l2\ncone-space dim 1\n"
    "f norm2\nS whole\nC lp_plus\nmap identity\n",
    "fenchel cone space without A": NUMERIC_SUM + "cone-space dim 2\n",
}


@pytest.mark.parametrize("text", MISSHAPEN.values(), ids=MISSHAPEN.keys())
def test_misshapen_maps_and_spaces_exit_2(text, tmp_path, capsys):
    assert main(["analyze", _write(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# terms whose vectors do not fit the space, and the message each prints
MISSHAPEN_TERMS = {
    "argtranslate": (NUMERIC_SUM.replace("f norm1", "f argtranslate(norminf, [1, 2, 3])"), "argtranslate has 3 entries, but the space is R^2"),
    "precompose": (NUMERIC_SUM.replace("f norm1", "f precompose([[1, 0, 0]], norm1)"), "precompose has 3 entries, but the space is R^2"),
    "affine": (NUMERIC_SUM.replace("f norm1", "f affine([1, 2, 3])"), "affine has 3 entries, but the space is R^2"),
    "maxaff": (NUMERIC_SUM.replace("f norm1", "f maxaff([1, 2, 3], 0; [1, 0], 1)"), "maxaff has 3 entries, but the space is R^2"),
    "orthant": (NUMERIC_CONE + "C orthant(1)\nmap identity\n", "orthant, interval, rn or poly gives a set of R^1, but the space is R^2"),
    "product": (NUMERIC_CONE + "C product(orthant(1), orthant(2))\nmap identity\n", "product gives a set of R^3, but the space is R^2"),
    "translate": (NUMERIC_SUM.replace("f norm1", "f indicator(translate(orthant(2), [1, 2, 3]))"), "a shift of length 3"),
}


@pytest.mark.parametrize("text, message", MISSHAPEN_TERMS.values(), ids=MISSHAPEN_TERMS.keys())
def test_misshapen_vectors_inside_terms_exit_2(text, message, tmp_path, capsys):
    assert main(["analyze", _write(tmp_path, text)]) == 2
    assert message in capsys.readouterr().err


def test_numeric_lagrange_over_the_zero_cone(tmp_path, capsys):
    # C = {0} makes g(x) = x1 + x2 - 2 an equality: min |x1| + |x2| on that line
    text = NUMERIC_CONE + "cone-space dim 1\nC origin_set\nmap affine_map([[1, 1]], [-2])\n"
    code, doc = _analyze_structured(tmp_path, capsys, text)
    assert code == 0
    values = doc["values"]
    # over (x1, x2, t1, t2): -t <= x <= t, then x1 + x2 = 2
    rows = [(r, "<=", 0) for r in ((1, 0, -1, 0), (-1, 0, -1, 0), (0, 1, 0, -1), (0, -1, 0, -1))]
    primal = rational_bland_simplex("min", (0, 0, 1, 1), rows + [((1, 1, 0, 0), "=", 2)])
    # the dual function at the printed multiplier z: inf |x|_1 + z (x1 + x2 - 2)
    z = Fraction(values["dual_solution"].strip("()"))
    dual = rational_bland_simplex("min", (z, z, 1, 1), rows)
    assert (Fraction(values["primal"]), Fraction(values["dual"])) == (primal[2], dual[2] - 2 * z) == (2, 2)
    assert doc["strong_duality"] == {"verdict": "guaranteed-by", "detail": "RC2"}
    assert doc["consistency"]["ok"]


@pytest.mark.parametrize("space", ["l2", "dim 1"])
def test_scale_by_zero_is_refused(space, tmp_path, capsys):
    # 0 X = {0} has no interior, whatever X is
    text = f"kind sets\nspace {space}\nquery int zero scale(0, whole)\n"
    with pytest.raises(MalformedInputError, match="scale needs a nonzero factor"):
        parse_problem(text)
    assert main(["analyze", _write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == "error: scale needs a nonzero factor\n"


def test_negative_scale_in_rn(tmp_path, capsys):
    text = "kind sets\nspace dim 1\nquery int zero scale(-1, interval(-1, 2))\n"
    assert main(["analyze", _write(tmp_path, text)]) == 0
    assert "holds    int zero scale(-1, interval(-1, 2))" in capsys.readouterr().out


# sets queries whose set belongs to another R^m than the declared space
MISPLACED_QUERIES = {
    "orthant": ("orthant(3)", "orthant, interval, rn or poly gives a set of R^3, but the space is R^1"),
    "product": ("product(interval(-1, 1), interval(-1, 1))", "product gives a set of R^2, but the space is R^1"),
}


@pytest.mark.parametrize("query, message", MISPLACED_QUERIES.values(), ids=MISPLACED_QUERIES.keys())
def test_a_sets_query_must_fit_the_declared_dimension(query, message, tmp_path, capsys):
    text = f"kind sets\nspace dim 1\nquery int zero {query}\n"
    with pytest.raises(ParseError) as caught:
        parse_problem(text)
    assert str(caught.value) == message
    assert main(["analyze", _write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
