"""``src/dualcheck`` holds only what its entry points reach.

Every module-level function and class of the package, exception classes
aside (``errors.py`` is the typed-error contract), must be used in
``src`` outside its own body, or be named by the benchmark: the layer
trace's ``TARGETS`` or an attribute that ``perfbench/*.py`` reads off a
``dualcheck`` module.  An import is no use, so a name that only a
re-export in ``__init__.py`` reached counts as unused.  Test oracles and
generators live under ``tests``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _uses(tree, module: str = ""):
    """((module, name), node) for every load of a package name in a file of
    ``module`` (empty outside the package)."""
    mods, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("dualcheck")):
            base = (node.module or "").removeprefix("dualcheck").lstrip(".")
            for a in node.names:
                if base:
                    names[a.asname or a.name] = (base, a.name)
                else:
                    mods[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield names.get(node.id, (module, node.id)), node
        elif isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner in mods or owner.startswith("dualcheck."):  # pg.poly, dualcheck.exactlp.lp
                yield (mods.get(owner, owner.removeprefix("dualcheck.")), node.attr), node


def _bench_names() -> set:
    trace = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text(encoding="utf-8"))
    node = next(n for n in trace.body if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in n.targets))
    out = {(m, attr.split(".")[0]) for m, attr in ast.literal_eval(node.value)}
    for path in (ROOT / "perfbench").glob("*.py"):
        out |= {key for key, _ in _uses(ast.parse(path.read_text(encoding="utf-8"))) if key[0]}
    return out


def unused_definitions() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src" / "dualcheck").glob("*.py"))}
    defs, owner = {}, {}  # (module, name) -> node; id of a node -> the definition it lies in
    for module, tree in trees.items():
        for node in tree.body:
            exception = isinstance(node, ast.ClassDef) and any(ast.unparse(b).endswith(("Error", "Exception")) for b in node.bases)
            if module != "errors" and not exception and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = node
                owner.update((id(sub), (module, node.name)) for sub in ast.walk(node))
    used = _bench_names()
    for module, tree in trees.items():
        used |= {key for key, node in _uses(tree, module) if owner.get(id(node)) != key}
    return sorted(f"{m}.{n}" for m, n in defs if (m, n) not in used)


def test_every_definition_in_src_is_reached():
    assert unused_definitions() == []
