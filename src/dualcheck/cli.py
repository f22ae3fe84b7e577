"""Command-line front end.

    dualcheck analyze <file> [--format text|json-like]
    dualcheck solve <file> [--format text|json-like]
    dualcheck corpus list
    dualcheck corpus run [id]

Exit codes: 0 success; 1 some corpus entry failed its expectations
(corpus run only); 2 parse/validation error, unknown id, or any other
package error; 3 an inconsistency: the implication graph found a
violation (analyze only), or a declared fact contradicts an exact LP;
4 undecidable values (solve only); 5 an exact LP ran out of its pivot
budget (``DUALCHECK_MAX_PIVOTS``); 141 the reader of standard output went
away, as in ``dualcheck corpus run | head -1`` (128 + SIGPIPE, what a
shell reports for a command that SIGPIPE ended).  A detected duality gap
is a finding, not an error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus as corpus_mod
from .conditions import diagnose
from .errors import (
    DualcheckError,
    InconsistencyError,
    SolverLimitError,
)
from .engine import value_report
from .probfile import SetFactsInstance, load_problem
from .reportfmt import (
    diagnosis_to_structured,
    diagnosis_to_text,
    dumps_structured,
    render_extreal,
    setfacts_to_structured,
    setfacts_to_text,
    values_to_structured,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_UNDECIDABLE = 4
EXIT_SOLVER_LIMIT = 5
EXIT_BROKEN_PIPE = 141


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualcheck",
        description="exact diagnostics for regularity conditions in convex duality",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ana = sub.add_parser("analyze", help="diagnose the instance in a problem file")
    ana.add_argument("path")
    ana.add_argument("--format", choices=("text", "json-like"), default="text")

    sol = sub.add_parser("solve", help="print exact primal/dual values")
    sol.add_argument("path")
    sol.add_argument("--format", choices=("text", "json-like"), default="text")

    cor = sub.add_parser("corpus", help="list or replay the regression corpus")
    cor.add_argument("action", choices=("list", "run"))
    cor.add_argument("entry", nargs="?", default=None)
    return ap


def cmd_analyze(path: str, fmt: str) -> int:
    pf = load_problem(path)
    if isinstance(pf.instance, SetFactsInstance):
        if fmt == "text":
            sys.stdout.write(setfacts_to_text(pf.instance))
        else:
            sys.stdout.write(dumps_structured(setfacts_to_structured(pf.instance)))
        return EXIT_OK
    d = diagnose(pf.instance)
    if fmt == "text":
        sys.stdout.write(diagnosis_to_text(d))
    else:
        sys.stdout.write(dumps_structured(diagnosis_to_structured(d)))
    return EXIT_OK if d.consistency[0] else EXIT_INCONSISTENT


def cmd_solve(path: str, fmt: str) -> int:
    pf = load_problem(path)
    if isinstance(pf.instance, SetFactsInstance):
        print("error: a set-facts file carries no optimization problem", file=sys.stderr)
        return EXIT_PARSE
    rep = value_report(pf.instance)
    if rep.vp is None or rep.vd is None:
        print("error: values undecidable for this instance", file=sys.stderr)
        return EXIT_UNDECIDABLE
    if fmt == "json-like":
        doc = {"problem": getattr(pf.instance, "instance_id", ""), "values": values_to_structured(rep)}
        sys.stdout.write(dumps_structured(doc))
        return EXIT_OK
    print(f"primal  {render_extreal(rep.vp)}" + ("  (attained)" if rep.vp_attained else ""))
    print(f"dual    {render_extreal(rep.vd)}" + ("  (attained)" if rep.vd_attained else ""))
    gap = render_extreal(rep.gap) if rep.gap_applicable else "n/a"
    print(f"gap     {gap}")
    return EXIT_OK


def cmd_corpus(action: str, entry: str) -> int:
    if action == "list":
        for name in corpus_mod.list_entries():
            print(name)
        return EXIT_OK
    if entry is None or entry == "all":
        results = corpus_mod.run_all()
    else:
        results = (corpus_mod.run(entry),)
    failed = 0
    for res in results:
        mark = "pass" if res.passed else "FAIL"
        print(f"{mark}  {res.entry_id}  ({res.checked} checks)")
        for diff in res.diffs:
            print(f"      {diff}")
        if not res.passed:
            failed += 1
    return EXIT_OK if failed == 0 else 1


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "analyze":
            code = cmd_analyze(args.path, args.format)
        elif args.command == "solve":
            code = cmd_solve(args.path, args.format)
        else:
            code = cmd_corpus(args.action, args.entry)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except SolverLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_LIMIT
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except DualcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
