"""Rendering of diagnoses: human-readable text and a stable structured form.

The structured form is a JSON document, written in one pass, with fixed key
order, rationals as canonical ``p/q`` strings and infinities as
``+inf``/``-inf``; identical input produces byte-identical output.
"""

from __future__ import annotations

import json
from typing import Optional

from .conditions import Diagnosis
from .engine import ValueReport
from .exactlp import rat_str
from .funcexpr import ExtReal
from .probfile import SetFactsInstance
from .setexpr import FactStatus


def render_extreal(v: Optional[ExtReal]) -> str:
    return "unknown" if v is None else repr(v)


def _render_solution(sol) -> Optional[str]:
    if sol is None or isinstance(sol, str):
        return sol
    if isinstance(sol, tuple):
        return "(" + ", ".join(rat_str(c) for c in sol) + ")"
    return str(sol)


def values_to_structured(v: ValueReport) -> dict:
    return {
        "primal": render_extreal(v.vp),
        "primal_attained": v.vp_attained,
        "primal_solution": _render_solution(v.primal_solution),
        "dual": render_extreal(v.vd),
        "dual_attained": v.vd_attained,
        "dual_solution": _render_solution(v.dual_solution),
        "gap": render_extreal(v.gap) if v.gap_applicable else "n/a",
    }


def _steps(prov) -> list:
    """A provenance chain as structured steps; an empty citation is left out."""
    return [
        {"rule": s.rule, "detail": s.detail, "cites": [list(x) for x in s.cites if x != ("", "")]}
        for s in prov
    ]


def diagnosis_to_structured(d: Diagnosis) -> dict:
    conditions = []
    provenance = []
    for index, verdict in d.verdicts:
        blocking = verdict.blocking_clause()
        conditions.append(
            {
                "id": f"RC{index}",
                "status": verdict.status.value,
                "blocking_clause": blocking.text if blocking is not None else None,
                "clauses": [
                    {"text": c.text, "status": c.status.value} for c in verdict.clauses
                ],
            }
        )
        for c in verdict.clauses:
            steps = _steps(c.prov)
            if steps:
                provenance.append(
                    {"condition": f"RC{index}", "clause": c.text, "steps": steps}
                )
    doc = {
        "problem": d.instance_id,
        "family": d.family,
        "conditions": conditions,
        "values": values_to_structured(d.values),
        "strong_duality": {"verdict": d.strong_duality[0], "detail": d.strong_duality[1]},
        "consistency": {"ok": d.consistency[0], "violations": list(d.consistency[1])},
    }
    if d.reverse_check is not None:
        doc["reverse_check"] = {"ok": d.reverse_check[0], "detail": d.reverse_check[1]}
    doc["provenance"] = provenance
    return doc


_quote = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_NEWLINES = tuple("\n" + "  " * depth for depth in range(16))  # each depth's indent


def dumps_structured(doc: dict) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"`` byte for byte,
    in one walk that appends to a single list (``json`` indents in pure Python).
    Exact ``str`` leaves are quoted inline by the C ``encode_basestring_ascii``;
    other leaves and containers take ``json``'s ``isinstance`` order."""
    out = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)


def _write(value, depth: int, out: list) -> None:
    kind = type(value)
    if kind is dict or kind is list or kind is tuple or isinstance(value, (dict, list, tuple)):
        mapping = isinstance(value, dict)
        if not value:
            out.append("{}" if mapping else "[]")
            return
        depth += 1
        inner = _NEWLINES[depth] if depth < len(_NEWLINES) else "\n" + "  " * depth
        sep = ("{" if mapping else "[") + inner
        for key, item in value.items() if mapping else enumerate(value):
            head = f"{sep}{_quote(key)}: " if mapping else sep
            if type(item) is str:
                out.append(head + _quote(item))
            else:
                out.append(head)
                _write(item, depth, out)
            sep = "," + inner
        out.append(inner[:-2] + ("}" if mapping else "]"))
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None or isinstance(value, bool):
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def diagnosis_to_text(d: Diagnosis) -> str:
    lines = [f"problem   {d.instance_id}", f"family    {d.family}", ""]
    lines += ["condition  status   blocking clause", "---------  -------  ---------------"]
    for index, verdict in d.verdicts:
        blocking = verdict.blocking_clause()
        note = blocking.text if blocking is not None and verdict.status is not FactStatus.HOLDS else ""
        lines.append(f"{('RC' + index):<9}  {verdict.status.value:<7}  {note}")
    lines.append("")
    vals = values_to_structured(d.values)
    lines.append(f"primal    {vals['primal']}" + ("  (attained)" if vals["primal_attained"] else ""))
    if vals["primal_solution"]:
        lines.append(f"          solution {vals['primal_solution']}")
    lines.append(f"dual      {vals['dual']}" + ("  (attained)" if vals["dual_attained"] else ""))
    if vals["dual_solution"]:
        lines.append(f"          solution {vals['dual_solution']}")
    lines.append(f"gap       {vals['gap']}")
    lines.append(f"strong duality: {d.strong_duality[0]} ({d.strong_duality[1]})")
    ok, violations = d.consistency
    lines.append("consistency: " + ("pass" if ok else "VIOLATION: " + "; ".join(violations)))
    if d.reverse_check is not None:
        lines.append(
            "reverse check: " + ("pass" if d.reverse_check[0] else "FAIL") + f" ({d.reverse_check[1]})"
        )
    return "\n".join(lines) + "\n"


def setfacts_to_results(instance: SetFactsInstance):
    from .inference import Engine

    engine = Engine()
    out = []
    for q in instance.queries:
        fact = engine.infer(q.notion, q.point, q.sexpr)
        out.append((q, fact))
    return out


def setfacts_to_structured(instance: SetFactsInstance) -> dict:
    results = setfacts_to_results(instance)
    return {
        "problem": instance.instance_id,
        "family": "sets",
        "queries": [
            {
                "query": q.text,
                "status": fact.status.value,
                "steps": _steps(fact.prov),
            }
            for q, fact in results
        ],
    }


def setfacts_to_text(instance: SetFactsInstance) -> str:
    results = setfacts_to_results(instance)
    lines = [f"problem   {instance.instance_id}", "family    sets", ""]
    for q, fact in results:
        lines.append(f"{fact.status.value:<8} {q.text}")
    return "\n".join(lines) + "\n"
