"""Two sha256s over every exact LP that a fixed workload solves.

    PYTHONPATH=src python tests/lp_digest.py [--each]

The workload is the 100 golden numeric answers of ``test_numeric_golden``
(memos cleared first) followed by 500 seeded random LPs whose rows are
built through ``polyhedra.BlockRows.pull``.  For each LP it hashes what
does not depend on the scale its rows were written in:

* each row, bound rows included, in primitive int form (the positive
  multiple of the row whose entries are ints with gcd 1) and its relation;
* the sense and objective, the outcome class, the value, the point and
  the ray's direction (its primitive int form);
* the multipliers (the Farkas vector of an infeasible LP) corrected for
  row scale: a row written as c times its primitive form has multiplier
  y, and the primitive row c y;
* the pivot count of the simplex run.

So two trees that solve the same LPs the same way print the same digest,
whatever form their rows take.  The second digest hashes the same records
with the pivot count left out, so a change that moves only pivot paths
keeps it and changes the first.  ``--each`` prints one line per LP
instead: its index, its outcome class and its own two digests, for a
diff.  The module is not a test; pytest does not collect it.
"""

import hashlib
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import test_numeric_golden as golden
from dualcheck import exactlp
from dualcheck import polyhedra as pg

RANDOM_LPS = 500


def _primitive(coeffs, rhs):
    """The row's primitive int form and the factor c with row = c * form."""
    row = [Fraction(x) for x in (*coeffs, rhs)]
    d = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (d // x.denominator) for x in row]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints), Fraction(g, d)


def _text(v) -> str:
    return "-" if v is None else ",".join(exactlp.rat_str(Fraction(x)) for x in v)


def _record(prog, out) -> str:
    """The LP and its outcome as text, without the pivot count."""
    rows = [_primitive(r.coeffs, r.rhs) + (r.rel,) for r in exactlp.expanded_rows(prog)]
    parts = [prog.sense, _text(prog.objective), type(out).__name__]
    parts += [f"{','.join(map(str, form))}{rel}" for form, _, rel in rows]
    if isinstance(out, exactlp.Optimal):
        parts += [exactlp.rat_str(out.value), _text(out.point), _text(y * c for y, (_, c, _) in zip(out.dual, rows))]
    elif isinstance(out, exactlp.Infeasible):
        parts.append(_text(y * c for y, (_, c, _) in zip(out.farkas, rows)))
    else:
        parts += [_text(out.point), _text(_primitive(out.ray, 0)[0][:-1])]
    return "|".join(parts)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _random_lps(count: int):
    """Seeded LPs over the blocks (x, y): a random lifted system pulled
    back along a random affine map, then a box on x."""
    rng = random.Random("lp-digest")

    def q():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    for _ in range(count):
        n, aux = rng.randint(1, 3), rng.randint(0, 2)
        w = n + aux
        ineqs = [(tuple(q() for _ in range(w)), q()) for _ in range(rng.randint(1, 5))]
        eqs = [(tuple(q() for _ in range(w)), q()) for _ in range(rng.randint(0, 1))]
        b = pg.BlockRows(("x", 2), ("y", 1))
        terms = {"x": tuple(tuple(q() for _ in range(2)) for _ in range(n)), "y": tuple((q(),) for _ in range(n))}
        shift = tuple(q() for _ in range(n)) if rng.random() < 0.5 else None
        b.pull(pg.poly(n, ineqs, eqs, aux), (n, terms), shift=shift)
        b.pull(pg.cube(2), (2, {"x": rng.choice((1, 2, Fraction(1, 2)))}))
        obj = tuple(q() for _ in range(b.n))
        exactlp.solve_lp(exactlp.LinearProgram(b.n, obj, rng.choice(("min", "max")), b.lp_rows()))


def main() -> None:
    seen = []
    real_solve = exactlp._Simplex.solve

    def solve(self):
        out = real_solve(self)
        text = _record(self.lp, out)
        seen.append((type(out).__name__, _sha(f"{text}|{self.pivots}"), _sha(text)))
        return out

    exactlp._Simplex.solve = solve
    try:
        golden._clear_memos()
        golden._answers()
        _random_lps(RANDOM_LPS)
    finally:
        exactlp._Simplex.solve = real_solve
    if sys.argv[1:] == ["--each"]:
        for i, record in enumerate(seen):
            print(i, *record)
        return
    total, path_free = (_sha("\n".join(record[k] for record in seen)) for k in (1, 2))
    print(f"{len(seen)} LPs  sha256 {total}  without pivots {path_free}")


if __name__ == "__main__":
    main()
