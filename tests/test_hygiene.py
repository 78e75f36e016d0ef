"""Static hygiene of ``src/lisopt``: every import is used, and every private
module-level name is used somewhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lisopt"

# Hooks of perfbench/tracing.py, which patches these names; nothing in the
# package reads them.
PERFBENCH_HOOKS = {
    ("cli", "_DRIVERS"),
    ("harness", "run_liso"),
    ("harness", "run_random_search"),
    ("harness", "run_adaptive_liso"),
    ("harness", "run_adaptive_random_search"),
    ("harness", "run_isotropic_es"),
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _read_names(tree):
    """Every name the module reads: bare names, attributes and names imported from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and (module, bound) not in PERFBENCH_HOOKS:
                    unused.append(f"{module}: {bound}")
    assert unused == []


def test_every_private_module_name_is_used():
    modules = _modules()
    read = set().union(*map(_read_names, modules.values()))
    dead = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            dead += [f"{module}.{name}" for name in defined
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read and (module, name) not in PERFBENCH_HOOKS]
    assert dead == []
