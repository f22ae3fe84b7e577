"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layertrace  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from dualcheck import conditions, exactlp, reportfmt  # noqa: E402
from dualcheck.funcexpr import er  # noqa: E402


@pytest.fixture(scope="module")
def l1_case():
    inst = workloads.l1_instance(1, 3, "t")
    return inst, oracle.l1_pair_of(inst), conditions.diagnose(inst)


def test_checker_accepts_the_right_answer(l1_case):
    _, pair, d = l1_case
    # box [-6, 3], c = 2: the minimum of 2x + |x| is at x = -6
    assert oracle.check_numeric(pair, d.values) == -6


def test_checker_rejects_a_value_off_by_a_seventh(l1_case):
    _, pair, d = l1_case
    off = dataclasses.replace(d.values, vp=er(d.values.vp.value + Fraction(1, 7)))
    with pytest.raises(oracle.CheckError):
        oracle.check_numeric(pair, off)


def test_checker_rejects_a_dual_point_outside_the_infinity_ball(l1_case):
    _, pair, d = l1_case
    with pytest.raises(oracle.CheckError):
        oracle.dual_value(pair, (Fraction(3, 2),))
    outside = dataclasses.replace(d.values, dual_solution=(Fraction(-3, 2),))
    with pytest.raises(oracle.CheckError):
        oracle.check_numeric(pair, outside)


def test_checker_rejects_a_wrong_corpus_status():
    wl = workloads.Corpus(0)
    entry = next(e for e in wl.items if "expect condition RC1 fails" in e[1])
    _, out = wl.run(entry)
    wl.check(entry, out)
    doc = json.loads(out)
    rc1 = next(c for c in doc["conditions"] if c["id"] == "RC1")
    rc1["status"] = "holds"
    with pytest.raises(oracle.CheckError):
        oracle.check_corpus_doc(entry[1], doc)


def test_self_times_on_a_synthetic_tree():
    spans = [
        [0, -1, "root", 0, 100, None],
        [1, 0, "a", 10, 40, None],
        [2, 1, "a.child", 15, 20, None],
        [3, 0, "b", 30, 60, None],  # overlaps a: the union 10..60 is covered once
        [4, 0, "c", 90, 120, None],  # runs past the root: only 90..100 counts
    ]
    assert layertrace.self_times(spans) == [100 - 50 - 10, 25, 5, 30, 30]


def test_one_seed_gives_the_same_instances_and_another_seed_others():
    def inputs(seed):
        return [repr(i) for i in workloads.L1Ladder(seed).items]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_tracer_wraps_every_binding_and_restores_them(l1_case):
    inst = l1_case[0]
    engine_mod = sys.modules["dualcheck.engine"]
    original = exactlp.solve_lp
    tracer = layertrace.Tracer()
    for _ in range(2):  # the traced run installs again for every traced pass
        tracer.install()
        try:
            assert engine_mod.solve_lp is not original
            assert sys.modules["dualcheck.polyhedra"].solve_lp is engine_mod.solve_lp
            tracer.begin_pass()
            d = tracer.run_instance(conditions.diagnose, inst)
            reportfmt.dumps_structured(reportfmt.diagnosis_to_structured(d))
            tracer.end_instance()
        finally:
            tracer.uninstall()
        assert engine_mod.solve_lp is original
    assert tracer.passes[0]["exactlp.solve_lp.calls"] == tracer.passes[1]["exactlp.solve_lp.calls"]
    m = tracer.metrics()
    assert m["exactlp.solve_lp.calls"] > 0
    assert m["exactlp.verify_certificate.failed"] == 0
    assert m["conditions.diagnose.calls"] == 1
    assert m["conditions.rc6prime.ms"] > 0
