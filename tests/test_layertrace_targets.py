"""The bench's layer trace wraps functions of the package by name; a name
deleted from ``src`` would break ``perfbench/run.py --trace 1`` without
failing any other test."""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _targets():
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in n.targets))
    return ast.literal_eval(node.value)


def test_every_traced_target_resolves_on_the_package():
    targets = _targets()
    assert targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"dualcheck.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
