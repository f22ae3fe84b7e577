"""Closed-form checks of the benchmark's numeric answers.

Nothing here calls dualcheck's solving code.  The instances are read as
plain data (costs and boxes) and every value is computed in exact
rationals from formulas:

* a linear term over a box is minimised coordinate by coordinate;
* the l1 norm is summed directly;
* the conjugate of ``c.x + a + indicator(B)`` is ``w -> sigma_B(w - c) - a``,
  with ``sigma_B`` the support function of the box B;
* the conjugate of the l1 norm is the indicator of the unit infinity-ball.

A primal point and a dual point whose objectives are equal are both
optimal, by weak duality, so equality certifies the program's answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)


class CheckError(Exception):
    """An answer of the program disagrees with the closed-form computation."""


Box = tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class L1BoxPair:
    """inf f + g with f(x) = c.x + alpha on the box (+inf outside) and
    g = the l1 norm; the dual is sup_y -f*(-y) - g*(y)."""

    c: tuple[Fraction, ...]
    alpha: Fraction
    box: Box


# -- reading instance data ---------------------------------------------------------


def box_of(ineqs, eqs, n: int) -> Box:
    """Bounds of an axis-aligned H-representation."""
    lo: list[Optional[Fraction]] = [None] * n
    hi: list[Optional[Fraction]] = [None] * n
    rows = [(a, b, False) for a, b in ineqs] + [(e, d, True) for e, d in eqs]
    for a, b, is_eq in rows:
        support = [j for j in range(n) if a[j] != 0]
        if len(support) != 1:
            raise CheckError(f"row {a} is not axis-aligned")
        j = support[0]
        bound = Fraction(b) / a[j]
        if is_eq or a[j] > 0:
            hi[j] = bound if hi[j] is None else min(hi[j], bound)
        if is_eq or a[j] < 0:
            lo[j] = bound if lo[j] is None else max(lo[j], bound)
    if any(v is None for v in lo + hi):
        raise CheckError("the box is unbounded")
    return tuple(zip(lo, hi))


def l1_pair_of(instance) -> L1BoxPair:
    """Reads ``f = Sum(Affine(c, alpha), IndicatorOf(PolyAtom(box)))`` and
    ``g = NormAtom("l1")`` of a sum instance without a linear map."""
    if instance.amap is not None or getattr(instance.g, "kind", None) != "l1":
        raise CheckError("the checker reads box+l1 sum pairs only")
    affine, indicator = instance.f.a, instance.f.b
    p = indicator.set_.poly
    return L1BoxPair(
        tuple(Fraction(v) for v in affine.c),
        Fraction(affine.alpha),
        box_of(p.ineqs, p.eqs, instance.space.dim),
    )


# -- closed forms ------------------------------------------------------------------


def support(box: Box, w: Sequence[Fraction]) -> Fraction:
    """sigma_B(w) = sup over the box of w.x."""
    return sum((max(wj * lo, wj * hi) for wj, (lo, hi) in zip(w, box)), ZERO)


def primal_value(pair: L1BoxPair, x) -> Fraction:
    """Objective at a primal point; raises on an infeasible point."""
    x = tuple(Fraction(v) for v in x)
    if len(x) != len(pair.box) or not all(lo <= v <= hi for v, (lo, hi) in zip(x, pair.box)):
        raise CheckError(f"primal point {x} leaves the box {pair.box}")
    return sum((cj * v + abs(v) for cj, v in zip(pair.c, x)), pair.alpha)


def dual_value(pair: L1BoxPair, y) -> Fraction:
    """-f*(-y) - g*(y) = alpha - sigma_B(-y - c), with g* the indicator of
    the unit infinity-ball; raises outside that ball."""
    y = tuple(Fraction(v) for v in y)
    if len(y) != len(pair.box) or any(abs(v) > 1 for v in y):
        raise CheckError(f"dual point {y} leaves the unit infinity-ball")
    return pair.alpha - support(pair.box, [-v - cj for v, cj in zip(y, pair.c)])


def primal_minimum(pair: L1BoxPair) -> Fraction:
    """The primal optimal value, coordinate by coordinate: c_j t + |t| is
    piecewise linear, so its minimum over [lo, hi] sits at lo, hi or 0."""
    total = pair.alpha
    for cj, (lo, hi) in zip(pair.c, pair.box):
        candidates = [lo, hi] + ([ZERO] if lo <= 0 <= hi else [])
        total += min(cj * t + abs(t) for t in candidates)
    return total


def check_numeric(pair: L1BoxPair, values, recovered=None) -> Fraction:
    """Checks the reported values, primal point, dual point and, when
    given, the dual point recovered by separation; returns the value."""
    if not (values.vp.is_finite() and values.vd.is_finite()):
        raise CheckError(f"values are not finite: {values.vp}, {values.vd}")
    if values.primal_solution is None or values.dual_solution is None:
        raise CheckError("an optimal point is missing")
    vp = primal_value(pair, values.primal_solution)
    vd = dual_value(pair, values.dual_solution)
    if vp != vd:
        raise CheckError(f"primal objective {vp} differs from dual objective {vd}")
    if values.vp.value != vp or values.vd.value != vp:
        raise CheckError(f"reported values {values.vp}, {values.vd} differ from {vp}")
    if primal_minimum(pair) != vp:
        raise CheckError(f"closed-form minimum {primal_minimum(pair)} differs from {vp}")
    if recovered is not None and dual_value(pair, recovered) != vp:
        raise CheckError(f"recovered dual point {recovered} misses the value {vp}")
    return vp


# -- corpus expectations -----------------------------------------------------------


def expectations(text: str) -> list[tuple]:
    """The ``expect`` and ``query ... expect`` lines of a problem file, read
    without the program's parser."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "query" and "expect" in parts:
            out.append(("query", parts[-1]))
        elif parts[0] == "expect":
            if parts[1] == "dual-solution":
                out.append(("dual_solution", line.split(None, 2)[2].strip('"')))
            else:
                out.append((parts[1], *parts[2:]))
    return out


def check_corpus_doc(text: str, doc: dict) -> int:
    """Compares a rendered structured report with the file's stated
    results; returns the number of fields compared."""
    checked = 0
    queries = iter(doc.get("queries", ()))
    conditions = {c["id"]: c["status"] for c in doc.get("conditions", ())}
    values = doc.get("values", {})
    for exp in expectations(text):
        kind, args = exp[0], exp[1:]
        if kind == "query":
            got = next(queries, {}).get("status")
            want = args[0]
        elif kind == "condition":
            got, want = conditions.get(args[0]), args[1]
        elif kind in ("primal", "dual", "gap"):
            got, want = values.get(kind), args[0]
        elif kind == "attained":
            got, want = values.get(f"{args[0]}_attained"), args[1] == "true"
        elif kind == "dual_solution":
            got, want = values.get("dual_solution"), args[0]
        elif kind == "verdict":
            sd = doc["strong_duality"]
            got = (sd["verdict"], sd["detail"]) if len(args) > 1 else sd["verdict"]
            want = tuple(args) if len(args) > 1 else args[0]
        else:
            raise CheckError(f"unknown expectation {exp}")
        if got != want:
            raise CheckError(f"{doc.get('problem')}: {kind} {args}: got {got!r}")
        checked += 1
    if "consistency" in doc and not doc["consistency"]["ok"]:
        raise CheckError(f"{doc.get('problem')}: inconsistent {doc['consistency']}")
    return checked
