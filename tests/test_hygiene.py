"""Static hygiene of ``src/lisopt``: every import is used, every private
module-level name is used somewhere in the package, and no line silences a
linter or the coverage count (``noqa``, ``pragma: no cover``)."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lisopt"


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
                if bound not in used:
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
                     and name not in read]
    assert dead == []


def test_no_line_silences_a_linter():
    marked = [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
              for i, line in enumerate(path.read_text().splitlines(), 1)
              if re.search(r"#.*\b(noqa|pragma:\s*no\s*cover)\b", line, re.IGNORECASE)]
    assert marked == []
