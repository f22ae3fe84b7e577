"""The benchmark's workloads: seeded inputs, the timed user pipeline per
instance, and the untimed check of each answer.

A workload's ``items`` are made at set-up from the seed alone.  A run goes
through all of them in whole passes, so any failure share is the same in
every run, and every item is timed once per pass.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import oracle
from dualcheck import conditions, engine, probfile, reportfmt
from dualcheck import setexpr as se
from dualcheck.funcexpr import Affine, IndicatorOf, NormAtom, Sum
from dualcheck.polyhedra import poly
from dualcheck.spaces import finite

# Rung templates of the box+l1 ladder: box bounds and costs for n = 1, 2.
# A cost |c_j| = 2 > 1 keeps the optimal value away from zero.  The seed
# scales each box by a positive integer, which keeps the lifted systems of
# a rung the same size; freely drawn costs moved one n = 2 diagnosis
# between 0.10 s and 0.17 s.
L1_TEMPLATES = {
    1: ((-2,), (1,), (2,)),
    2: ((-2, -1), (1, 3), (2, 0)),
}


class Corpus:
    """Every paper example: parse, diagnose or query, render."""

    name = "corpus"

    def __init__(self, seed: int):
        data = Path(probfile.__file__).parent / "corpus_data"
        self.items = [(p.stem, p.read_text(encoding="utf-8")) for p in sorted(data.glob("*.prob"))]
        if not self.items:
            raise FileNotFoundError(f"no corpus entries under {data}")

    def run(self, item):
        _, text = item
        pf = probfile.parse_problem(text)
        if isinstance(pf.instance, probfile.SetFactsInstance):
            return None, reportfmt.dumps_structured(reportfmt.setfacts_to_structured(pf.instance))
        t0 = time.perf_counter()
        d = conditions.diagnose(pf.instance)
        t_diag = time.perf_counter() - t0
        return t_diag, reportfmt.dumps_structured(reportfmt.diagnosis_to_structured(d))

    def check(self, item, out):
        oracle.check_corpus_doc(item[1], json.loads(out))


class L1Ladder:
    """One box+l1 pair per rung: diagnose, render, and recover a dual point
    by separation where RC6 holds; checked in closed form."""

    name = "l1-ladder"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = [l1_instance(n, rng.randint(1, 9), f"l1-n{n}-{seed}") for n in sorted(L1_TEMPLATES)]

    def run(self, instance):
        t0 = time.perf_counter()
        d = conditions.diagnose(instance)
        t_diag = time.perf_counter() - t0
        doc = reportfmt.dumps_structured(reportfmt.diagnosis_to_structured(d))
        recovered = None
        if d.verdict("6").status is se.HOLDS and d.values.vp.is_finite():
            recovered = engine.recover_dual_via_separation(instance, d.values.vp.value)
        return t_diag, (d, doc, recovered)

    def check(self, instance, out):
        d, doc, recovered = out
        value = oracle.check_numeric(oracle.l1_pair_of(instance), d.values, recovered)
        if json.loads(doc)["values"]["primal"] != str(value):
            raise oracle.CheckError(f"{d.instance_id}: the report prints another value than {value}")
        if d.strong_duality[0] != "guaranteed-by":
            raise oracle.CheckError(f"{d.instance_id}: verdict {d.strong_duality}")
        ok, violations = conditions.consistency_check(d)
        if not ok:
            raise oracle.CheckError(f"{d.instance_id}: {violations}")


def l1_instance(n: int, scale: int, tag: str) -> engine.FenchelInstance:
    """inf c.x + indicator_B(x) + ||x||_1 with B the scaled rung-n template box."""
    lo, hi, c = L1_TEMPLATES[n]
    rows = []
    for j in range(n):
        e = tuple(Fraction(int(k == j)) for k in range(n))
        rows.append((e, Fraction(scale * hi[j])))
        rows.append((tuple(-v for v in e), Fraction(-scale * lo[j])))
    f = Sum(Affine(tuple(Fraction(v) for v in c), Fraction(0)), IndicatorOf(se.PolyAtom(poly(n, rows))))
    return engine.FenchelInstance(instance_id=tag, space=finite(n), f=f, g=NormAtom("l1"))


WORKLOADS = {w.name: w for w in (Corpus, L1Ladder)}
