"""Regression corpus: machine-readable encodings of the worked examples.

Each entry is a problem file (the same format the CLI accepts) with
``expect`` lines pinning condition statuses, values, attainment and the
strong-duality verdict.  ``run`` replays an entry through the checker and
reports a field-by-field diff on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .conditions import diagnose
from .engine import is_numeric
from .errors import NotFoundError
from .probfile import ProblemFile, SetFactsInstance, parse_problem
from .reportfmt import render_extreal, setfacts_to_results


@dataclass(frozen=True)
class CorpusResult:
    entry_id: str
    passed: bool
    diffs: tuple[str, ...]
    checked: int


def _data_dir():
    return resources.files("dualcheck") / "corpus_data"


def list_entries() -> tuple[str, ...]:
    names = []
    for item in _data_dir().iterdir():
        if item.name.endswith(".prob"):
            names.append(item.name[: -len(".prob")])
    return tuple(sorted(names))


def load(entry_id: str) -> ProblemFile:
    resolved = resolve_id(entry_id)
    text = (_data_dir() / f"{resolved}.prob").read_text(encoding="utf-8")
    return parse_problem(text)


def resolve_id(entry_id: str) -> str:
    names = list_entries()
    if entry_id in names:
        return entry_id
    hits = [n for n in names if n.startswith(entry_id)]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise NotFoundError(f"no corpus entry named {entry_id!r}")
    raise NotFoundError(f"ambiguous corpus id {entry_id!r}: {hits}")


def run(entry_id: str) -> CorpusResult:
    pf = load(entry_id)
    return run_problem(resolve_id(entry_id), pf)


def run_problem(entry_id: str, pf: ProblemFile) -> CorpusResult:
    if isinstance(pf.instance, SetFactsInstance):
        return _run_set_facts(entry_id, pf)
    return _run_duality(entry_id, pf)


def _run_set_facts(entry_id: str, pf: ProblemFile) -> CorpusResult:
    diffs = []
    checked = 0
    for q, got in setfacts_to_results(pf.instance):
        if q.expected is not None:
            checked += 1
            if got.status is not q.expected:
                diffs.append(
                    f"query [{q.text}]: expected {q.expected.value}, got {got.status.value}"
                )
    return CorpusResult(entry_id, not diffs, tuple(diffs), checked)


def _run_duality(entry_id: str, pf: ProblemFile) -> CorpusResult:
    diffs = []
    checked = 0
    d = diagnose(pf.instance)
    exp = pf.expect
    for index, expected in exp.conditions:
        checked += 1
        try:
            got = d.verdict(index).status
        except KeyError:
            diffs.append(f"condition RC{index}: not evaluated")
            continue
        if got is not expected:
            diffs.append(f"condition RC{index}: expected {expected.value}, got {got.value}")
    if exp.vp is not None:
        checked += 1
        if d.values.vp != exp.vp:
            diffs.append(f"primal value: expected {render_extreal(exp.vp)}, got {render_extreal(d.values.vp)}")
    if exp.vd is not None:
        checked += 1
        if d.values.vd != exp.vd:
            diffs.append(f"dual value: expected {render_extreal(exp.vd)}, got {render_extreal(d.values.vd)}")
    if exp.gap is not None:
        checked += 1
        got_gap = "na" if not d.values.gap_applicable else render_extreal(d.values.gap)
        if got_gap != exp.gap:
            diffs.append(f"gap: expected {exp.gap}, got {got_gap}")
    if exp.primal_attained is not None:
        checked += 1
        if bool(d.values.vp_attained) != exp.primal_attained:
            diffs.append("primal attainment mismatch")
    if exp.dual_attained is not None:
        checked += 1
        if bool(d.values.vd_attained) != exp.dual_attained:
            diffs.append("dual attainment mismatch")
    if exp.verdict is not None:
        checked += 1
        kind, detail = d.strong_duality
        if kind != exp.verdict:
            diffs.append(f"verdict: expected {exp.verdict}, got {kind} ({detail})")
        elif exp.verdict_detail is not None and detail != exp.verdict_detail:
            diffs.append(f"verdict detail: expected {exp.verdict_detail}, got {detail}")
    if exp.dual_solution is not None:
        checked += 1
        got_sol = d.values.dual_solution
        if not isinstance(got_sol, str) or got_sol != exp.dual_solution:
            diffs.append(f"dual solution: expected {exp.dual_solution!r}, got {got_sol!r}")
    if not d.consistency[0]:
        diffs.append(f"internal inconsistency: {d.consistency[1]}")
    if not is_numeric(pf.instance) and not pf.cites and not _has_fact_cites(pf):
        diffs.append("symbolic entry carries no citation")
    return CorpusResult(entry_id, not diffs, tuple(diffs), checked)


def _has_fact_cites(pf: ProblemFile) -> bool:
    inst = pf.instance
    cites = list(getattr(inst, "values", None).cites if getattr(inst, "values", None) else [])
    for spec in getattr(inst, "fact_specs", ()):
        if spec.cite != ("", ""):
            cites.append(spec.cite)
    for name in ("meets_qri_fact", "slater_qri_fact", "rc8_fact"):
        fact = getattr(inst, name, None)
        if fact is not None and fact.cite != ("", ""):
            cites.append(fact.cite)
    return bool(cites)


def run_all() -> tuple[CorpusResult, ...]:
    return tuple(run(entry_id) for entry_id in list_entries())
