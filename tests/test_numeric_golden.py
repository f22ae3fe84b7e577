"""Golden answers for fixed-seed numeric instances of every family.

Each instance is diagnosed, rendered to the structured report, its dual
point is recovered by separation where the primal value is finite, and the
dual objective is evaluated at the reported dual solution.  The fixture
``numeric_golden.json`` stores, for each instance, the sha256 of the report
with its two printed optimal points blanked and its provenance list removed
(the verdicts and values), the sha256 of that provenance list, the two
points in the clear, the recovered point and the dual objective, so any
change of an answer shows here, and a change of a printed point or of the
reasons given for the verdicts alone shows as that point or that hash.

The fixture is written by ``python tests/test_numeric_golden.py --write``
(with ``src`` on the path); it is only ever rewritten on purpose.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from dualcheck import exactlp
from dualcheck import polyhedra as pg
from dualcheck import setexpr as se
from dualcheck.conditions import DiagnosisContext, diagnose
from dualcheck.engine import (
    AffineMap,
    FenchelInstance,
    IdentityMap,
    LagrangeInstance,
    NegIdentityMap,
    NumericModel,
    PerturbationInstance,
    ShiftMap,
    dual_objective_value,
    recover_dual_via_separation,
)
from dualcheck.errors import DualcheckError
from dualcheck.exactlp import Infeasible, LinearProgram, Optimal, Row, Unbounded, rat_str
from dualcheck.exactlp import _Simplex as exactlp_Simplex
from dualcheck.funcexpr import Affine, IndicatorOf, NormAtom, Sum, SupOfAffine
from dualcheck.polyhedra import poly
from dualcheck.reportfmt import diagnosis_to_structured, dumps_structured
from dualcheck.spaces import finite
from oracles import enumerate_vertices, fm_project

F = Fraction
FIXTURE = Path(__file__).resolve().parent / "numeric_golden.json"


def _box(rng, n, lo=-3, hi=3):
    rows = []
    for j in range(n):
        a = rng.randint(lo, 0)
        b = rng.randint(max(a, 0), hi)
        e = tuple(F(int(k == j)) for k in range(n))
        rows.append((e, F(b)))
        rows.append((tuple(-c for c in e), F(-a)))
    return poly(n, rows)


def _vec(rng, n, r=2):
    return tuple(F(rng.randint(-r, r)) for _ in range(n))


def _tilted_box(rng, n):
    return Sum(Affine(_vec(rng, n), F(rng.randint(-1, 1))), IndicatorOf(se.PolyAtom(_box(rng, n))))


def _g_function(rng, m, kind):
    if kind == "indicator":
        return IndicatorOf(se.PolyAtom(_box(rng, m)))
    return NormAtom(kind)


def _cone(rng, m):
    """A polyhedral convex cone: the orthant, {0}, the whole space, or rays."""
    kind = rng.choice(("orthant", "zero", "whole", "rays"))
    if kind == "orthant":
        return poly(m, [(tuple(-F(int(k == j)) for k in range(m)), F(0)) for j in range(m)])
    if kind == "zero":
        return poly(m, eqs=[(tuple(F(int(k == j)) for k in range(m)), F(0)) for j in range(m)])
    if kind == "whole":
        return poly(m)
    return poly(m, [(_vec(rng, m), F(0)) for _ in range(rng.randint(1, m + 1))])


def _fenchel(rng, i):
    n = rng.randint(1, 2)
    kind = ("indicator", "l1", "linf")[i % 3]
    return FenchelInstance(f"fen-{i}", finite(n), _tilted_box(rng, n), _g_function(rng, n, kind))


def _amap(rng, i):
    n, m = rng.randint(1, 2), rng.randint(1, 2)
    kind = ("indicator", "l1", "linf")[i % 3]
    amap = tuple(_vec(rng, n) for _ in range(m))
    f, g = _tilted_box(rng, n), _g_function(rng, m, kind)
    return FenchelInstance(f"amap-{i}", finite(n), f, g, amap=amap, gspace=finite(m))


def _lagrange(rng, i):
    n = rng.randint(1, 2)
    kind = ("affine", "identity", "neg_identity", "shift")[i % 4]
    if kind == "affine":
        m = rng.randint(1, 2)
        gmap = AffineMap(tuple(_vec(rng, n) for _ in range(m)), _vec(rng, m))
    else:
        m = n
        gmap = {
            "identity": IdentityMap(),
            "neg_identity": NegIdentityMap(),
            "shift": ShiftMap(se.VecPoint(_vec(rng, m))),
        }[kind]
    f = _tilted_box(rng, n) if rng.random() < 0.5 else Affine(_vec(rng, n), F(0))
    return LagrangeInstance(
        f"lag-{kind}-{i}",
        finite(n),
        finite(m),
        f,
        se.PolyAtom(_box(rng, n)),
        gmap,
        se.PolyAtom(_cone(rng, m)),
    )


def _phi(rng, i):
    nx, ny = rng.randint(1, 2), rng.randint(1, 2)
    d = nx + ny
    dom = poly(d, [(_vec(rng, d), F(rng.randint(0, 3))) for _ in range(rng.randint(1, d + 3))])
    if i % 2:
        pieces = tuple((_vec(rng, d), F(rng.randint(-1, 1))) for _ in range(2))
        phi = Sum(SupOfAffine(pieces), IndicatorOf(se.PolyAtom(dom)))
    else:
        phi = Sum(Affine(_vec(rng, d), F(0)), IndicatorOf(se.PolyAtom(dom)))
    return PerturbationInstance(f"phi-{i}", nx, ny, phi)


# family -> (instance i drawn from rng, count in the fixture); each family
# draws from its own generator, seeded "golden:<family>"
FAMILIES = {"fenchel": (_fenchel, 24), "amap": (_amap, 18), "lagrange": (_lagrange, 40), "phi": (_phi, 18)}


def _instances():
    out = []
    for name, (make, count) in FAMILIES.items():
        rng = random.Random(f"golden:{name}")
        out += [make(rng, i) for i in range(count)]
    return out


def _point(p):
    return None if p is None else [rat_str(c) for c in p]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _answer(inst) -> dict:
    try:
        ctx = DiagnosisContext(inst)
        d = diagnose(inst, ctx)
    except DualcheckError as exc:
        return {"error": type(exc).__name__}
    doc = diagnosis_to_structured(d)
    points = {k: doc["values"][k] for k in ("primal_solution", "dual_solution")}
    doc["values"].update(dict.fromkeys(points))
    provenance = doc.pop("provenance")
    out = {"verdicts_sha256": _sha256(dumps_structured(doc)), "provenance_sha256": _sha256(dumps_structured(provenance)), **points}
    vp = d.values.vp
    if vp is not None and vp.is_finite():
        try:
            out["recovered"] = _point(recover_dual_via_separation(inst, vp.value, ctx.model))
        except DualcheckError as exc:
            out["recovered"] = type(exc).__name__
    sol = d.values.dual_solution
    if isinstance(sol, tuple):
        out["dual_objective"] = repr(dual_objective_value(inst, sol))
    return out


def _answers() -> dict:
    return {inst.instance_id: _answer(inst) for inst in _instances()}


def test_numeric_answers_match_the_golden_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = _answers()
    assert list(got) == list(expected)
    diffs = [(k, expected[k], got[k]) for k in expected if got[k] != expected[k]]
    assert not diffs, diffs[:3]


class _PermutedSimplex:
    """A test-only solver: the package's simplex on the LP with its columns
    and rows in a seeded random order, its answers mapped back.  It takes
    other pivot paths to other vertices of the same optimal faces."""

    rng = random.Random(0)

    def __init__(self, p):
        cols, order = list(range(p.n)), list(range(len(p.rows)))
        self.rng.shuffle(cols)
        self.rng.shuffle(order)
        self.cols = cols
        rows = tuple(Row(self._perm(p.rows[i].coeffs), p.rows[i].rel, p.rows[i].rhs) for i in order)
        bounds = None if p.bounds is None else self._perm(p.bounds)
        q = LinearProgram(p.n, self._perm(p.objective), p.sense, rows, bounds)
        self.inner = exactlp_Simplex(q)

        def keys(row_order, col_order):
            out = [("row", i) for i in row_order]
            for j in col_order if p.bounds is not None else ():
                out += [(side, j) for side in (0, 1) if p.bounds[j][side] is not None]
            return out

        at = {key: k for k, key in enumerate(keys(order, cols))}
        self.back = [at[key] for key in keys(range(len(p.rows)), range(p.n))]

    def _perm(self, v):
        return tuple(v[j] for j in self.cols)

    def _unperm(self, v):
        x = [None] * len(v)
        for k, j in enumerate(self.cols):
            x[j] = v[k]
        return tuple(x)

    def _duals_back(self, y):
        return tuple(y[k] for k in self.back)

    def _dual_form(self, f):
        g = [0] * len(f)
        for i, k in enumerate(self.back):
            g[k] = f[i]
        return tuple(g)

    def solve(self):
        out = self.inner.solve()
        if isinstance(out, Optimal):
            return Optimal(self._unperm(out.point), out.value, self._duals_back(out.dual))
        if isinstance(out, Infeasible):
            return Infeasible(self._duals_back(out.farkas))
        return Unbounded(self._unperm(out.point), self._unperm(out.ray))

    def point_is_lex_min(self, forms):
        return self.inner.point_is_lex_min([self._perm(f) for f in forms])

    def duals_are_lex_min(self, forms):
        return self.inner.duals_are_lex_min([self._dual_form(f) for f in forms])


def _clear_memos():
    pg._frt.cache_clear()
    pg._in_projection.cache_clear()
    se._ATTR_MEMO.clear()
    se._NORM_MEMO.clear()


def test_golden_answers_do_not_depend_on_the_pivot_path(monkeypatch):
    # every printed point is the lex-smallest optimum, so a solver that
    # permutes columns and rows reproduces the fixture byte for byte
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    moved = []
    real_solve = exactlp_Simplex.solve
    monkeypatch.setattr(exactlp_Simplex, "solve", lambda self: moved.append(1) or real_solve(self))
    monkeypatch.setattr(exactlp, "_Simplex", _PermutedSimplex)
    _clear_memos()
    try:
        for seed in (1, 2):
            _PermutedSimplex.rng.seed(seed)
            assert _answers() == expected
            _clear_memos()
    finally:
        _clear_memos()
    assert len(moved) > 1000


def _bounded(ineqs, eqs, n) -> bool:
    """No nonzero r with a.r <= 0 and e.r = 0: by brute force, no vertex of
    that cone cut to s.r = 1 inside the orthant of any sign vector s."""
    for signs in product((1, -1), repeat=n):
        orthant = [(tuple(-s * int(k == j) for k in range(n)), 0) for j, s in enumerate(signs)]
        cone = [(a, 0) for a, _ in ineqs] + orthant
        if enumerate_vertices(cone, [(e, 0) for e, _ in eqs] + [(signs, 1)], n):
            return False
    return True


def test_bounded_primal_faces_print_their_lex_smallest_vertex():
    # the optimal face of the primal LP, written over x by Fourier-Motzkin
    # elimination; where it is bounded its lex-smallest point is a vertex
    checked = 0
    for inst in _instances():
        try:
            model = NumericModel(inst)
            vp, x = model.primal
        except DualcheckError:
            continue
        if not vp.is_finite():
            continue
        prog, out = model._primal_lp
        ineqs = [(r.coeffs, r.rhs) if r.rel == "<=" else (tuple(-c for c in r.coeffs), -r.rhs) for r in prog.rows if r.rel != "="]
        eqs = [(r.coeffs, r.rhs) for r in prog.rows if r.rel == "="] + [(prog.objective, out.value)]
        face = fm_project(poly(prog.n, ineqs, eqs), range(model.nx))
        if face.n <= 3 and _bounded(face.ineqs, face.eqs, face.n):
            assert x == min(enumerate_vertices(face.ineqs, face.eqs, face.n)), inst.instance_id
            checked += 1
    assert checked > 50


def test_numeric_diagnoses_read_the_model_not_structural_domains(monkeypatch):
    # every numeric set comes from the instance's NumericModel: no numeric
    # diagnosis derives a domain from the function's structure or builds a
    # Minkowski difference
    from dualcheck import funcexpr, polyhedra

    called = []
    for module, name in ((funcexpr, "domain"), (polyhedra, "minkowski_sum")):
        monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name))
    for inst in _instances():
        try:
            diagnose(inst)
        except DualcheckError:
            pass
    assert called == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_numeric_golden.py --write")
    FIXTURE.write_text(json.dumps(_answers(), indent=1) + "\n", encoding="utf-8")
