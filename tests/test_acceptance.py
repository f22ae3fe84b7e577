"""Acceptance suite.

One test per criterion; each prints a pass/fail line so a plain pytest -s
run doubles as the acceptance report.  All comparisons are exact; the
stated runtime budgets are asserted with time.monotonic.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dualcheck import corpus
from dualcheck.conditions import DiagnosisContext, consistency_check, diagnose, evaluate_condition
from dualcheck.engine import (
    dual_objective_value,
    recover_dual_via_separation,
)
from dualcheck.funcexpr import (
    Affine,
    ArgTranslate,
    IndicatorOf,
    InfConv,
    NormAtom,
    PlusConst,
    Sum,
    SupOfAffine,
    er,
)
from dualcheck.inference import Engine
from dualcheck.polyhedra import (
    Notion,
    interval,
    poly,
    zero_in,
)
from dualcheck.setexpr import FAILS, HOLDS, PolyAtom

from oracles import biconjugate_check, grid, is_linear_subspace, is_trivial_cone, normal_cone
from randgen import (
    random_fenchel_core_instance,
    random_lagrange_slater_instance,
    random_polyhedron_with_origin,
    suite_seed,
)

F = Fraction
SEED = suite_seed()


def _report(criterion: str, ok: bool, detail: str):
    mark = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {mark} - {detail}")
    assert ok, detail


def test_criterion_1_corpus_fidelity():
    t0 = time.monotonic()
    results = corpus.run_all()
    elapsed = time.monotonic() - t0
    per_entry = elapsed / len(results)
    failures = [r for r in results if not r.passed]
    checks = sum(r.checked for r in results)
    ok = not failures and len(results) >= 13 and per_entry < 1.0
    _report(
        "1 corpus fidelity",
        ok,
        f"{len(results)} entries, {checks} exact checks, {per_entry:.3f} s/entry"
        + (f", failures: {[(r.entry_id, r.diffs) for r in failures]}" if failures else ""),
    )


def test_criterion_2_interiority_oracle_equivalence():
    rng = random.Random(SEED + 2)
    t0 = time.monotonic()
    count = 0
    mismatches = []
    while count < 200:
        n = rng.randint(1, 4)
        p = random_polyhedron_with_origin(rng, n)
        zero = tuple(F(0) for _ in range(n))
        k = normal_cone(p, zero)
        qri_ri = zero_in(Notion.QRI, p)
        qri_nc = is_linear_subspace(k)
        qi_ri = zero_in(Notion.QI, p)
        qi_nc = is_trivial_cone(k)
        if qri_ri != qri_nc or qi_ri != qi_nc:
            mismatches.append((p, qri_ri, qri_nc, qi_ri, qi_nc))
        count += 1
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 30.0
    _report(
        "2 interiority dual-route equivalence",
        ok,
        f"{count} random polyhedra, {len(mismatches)} disagreements, {elapsed:.1f} s",
    )


def _fenchel_suite():
    rng = random.Random(SEED + 3)
    out = []
    while len(out) < 100:
        inst = random_fenchel_core_instance(rng, f"rand-f-{len(out)}")
        ctx = DiagnosisContext(inst)
        rc3 = evaluate_condition("3", inst, ctx)
        if rc3.status is HOLDS:
            out.append((inst, ctx))
    return out


def _lagrange_suite():
    rng = random.Random(SEED + 4)
    out = []
    while len(out) < 100:
        inst = random_lagrange_slater_instance(rng, f"rand-l-{len(out)}")
        ctx = DiagnosisContext(inst)
        rc1 = evaluate_condition("1", inst, ctx)
        if rc1.status is HOLDS:
            out.append((inst, ctx))
    return out


_SUITES = {}


def _suites():
    if not _SUITES:
        t0 = time.monotonic()
        _SUITES["fenchel"] = _fenchel_suite()
        _SUITES["lagrange"] = _lagrange_suite()
        _SUITES["build_time"] = time.monotonic() - t0
    return _SUITES


def test_criterion_3_strong_duality_property_suite():
    suites = _suites()
    t0 = time.monotonic()
    violations = []
    for name in ("fenchel", "lagrange"):
        for inst, ctx in suites[name]:
            v = ctx.values
            if v.vp != v.vd:
                violations.append((inst.instance_id, "values differ", v.vp, v.vd))
            elif v.vp.is_finite() and (not v.vd_attained or v.dual_solution is None):
                violations.append((inst.instance_id, "no dual optimizer returned"))
            elif v.vp.is_finite():
                got = dual_objective_value(inst, v.dual_solution)
                if got != v.vp:
                    violations.append((inst.instance_id, "dual point misses the value"))
    elapsed = time.monotonic() - t0 + suites["build_time"]
    ok = not violations and elapsed < 60.0
    _report(
        "3 strong duality under RC3/Slater",
        ok,
        f"{len(suites['fenchel'])} sum instances + {len(suites['lagrange'])} cone-constrained, "
        f"0 tolerance, {elapsed:.1f} s"
        + (f", violations: {violations[:3]}" if violations else ""),
    )


def test_criterion_4_separation_recovery_equivalence():
    suites = _suites()
    checked = 0
    violations = []
    for name in ("fenchel", "lagrange"):
        for inst, ctx in suites[name]:
            if not ctx.values.vp.is_finite():
                continue
            rc6 = evaluate_condition("6", inst, ctx)
            if rc6.status is not HOLDS:
                continue
            checked += 1
            dual = recover_dual_via_separation(inst, ctx.values.vp.value, ctx.model)
            val = dual_objective_value(inst, dual)
            if val != ctx.values.vp or val != ctx.values.vd:
                violations.append((inst.instance_id, val, ctx.values.vp, ctx.values.vd))
    ok = not violations and checked >= 50
    _report(
        "4 separation recovery equals the dual value",
        ok,
        f"{checked} instances with the quasi-interior condition established, zero tolerance"
        + (f", violations: {violations[:3]}" if violations else ""),
    )


def test_criterion_5_conjugate_calculus():
    pts1 = grid(-3, 3, F(1, 8), 1)  # 49 interior + endpoints = 49? no: 49 points
    assert len(pts1) >= 49
    pts1 = grid(-3, 3, F(1, 10), 1)
    assert len(pts1) >= 50
    pts2 = grid(-2, 2, F(1, 2), 2)
    assert len(pts2) >= 50
    fixed_suite = [
        (NormAtom("l1"), pts2),
        (NormAtom("linf"), pts2),
        (IndicatorOf(PolyAtom(interval(0, 1))), pts1),
        (IndicatorOf(PolyAtom(interval(-2, 2))), pts1),
        (Affine((F(2),), F(-1)), pts1),
        (SupOfAffine((((F(1),), F(0)), ((F(2),), F(-1)))), pts1),
        (Sum(NormAtom("l1"), IndicatorOf(PolyAtom(interval(-1, 1)))), pts1),
        (PlusConst(ArgTranslate(NormAtom("l1"), (F(1),)), F(3)), pts1),
        (InfConv(NormAtom("l1"), IndicatorOf(PolyAtom(interval(-1, 1)))), pts1),
        (Sum(Affine((F(1), F(-1)), F(0)), IndicatorOf(PolyAtom(poly(2, ineqs=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1)])))), pts2),
    ]
    assert len(fixed_suite) == 10
    t0 = time.monotonic()
    bad = []
    for f, pts in fixed_suite:
        if not biconjugate_check(f, pts):
            bad.append(type(f).__name__)
    elapsed = time.monotonic() - t0
    ok = not bad
    _report(
        "5 conjugate calculus",
        ok,
        f"10 polyhedral functions, biconjugate and Young-Fenchel exact on >= 50 samples each, {elapsed:.1f} s"
        + (f", failed: {bad}" if bad else ""),
    )


def test_criterion_6_implication_graph_consistency():
    violations = []
    # the corpus
    for entry_id in corpus.list_entries():
        pf = corpus.load(entry_id)
        from dualcheck.probfile import SetFactsInstance

        if isinstance(pf.instance, SetFactsInstance):
            continue
        d = diagnose(pf.instance)
        ok, viol = consistency_check(d)
        if not ok:
            violations.append((entry_id, viol))
        if d.strong_duality[0] == "gap-detected":
            for index, v in d.verdicts:
                if v.status is HOLDS:
                    violations.append((entry_id, f"gap with RC{index} holding"))
    # the randomized suites
    suites = _suites()
    sampled = suites["fenchel"][::7] + suites["lagrange"][::7]
    for inst, _ in sampled:
        d = diagnose(inst)
        ok, viol = consistency_check(d)
        if not ok:
            violations.append((inst.instance_id, viol))
    ok = not violations
    _report(
        "6 implication-graph consistency",
        ok,
        f"corpus plus {len(sampled)} randomized diagnoses, no violations"
        + (f"; found {violations[:3]}" if violations else ""),
    )


def test_criterion_7_infinite_dimensional_results_are_certificate_backed():
    # The sequence-space examples cannot be reproduced by any finite
    # truncation; they enter through the symbolic certificate route: every
    # symbolic corpus entry carries literature citations and its facts
    # resolve through the catalog or declared certificates, never through
    # numeric computation.
    from dualcheck.engine import is_numeric
    from dualcheck.probfile import SetFactsInstance

    symbolic = []
    uncited = []
    for entry_id in corpus.list_entries():
        pf = corpus.load(entry_id)
        if isinstance(pf.instance, SetFactsInstance) or not is_numeric(pf.instance):
            symbolic.append(entry_id)
            text = (corpus._data_dir() / f"{entry_id}.prob").read_text()
            if "cite" not in text:
                uncited.append(entry_id)
    readme = Path(__file__).resolve().parent.parent / "README.md"
    statement_documented = readme.exists() and "symbolic certificate" in readme.read_text()
    ok = len(symbolic) >= 13 and not uncited and statement_documented
    _report(
        "7 non-reproducibility statement",
        ok,
        f"{len(symbolic)} infinite-dimensional entries accepted via cited certificates only; "
        "the substitution is documented in the README",
    )
