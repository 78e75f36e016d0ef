"""Static hygiene of ``src/lisopt``: every import is used, every private
module-level name is used somewhere in the package, no line silences a
linter or the coverage count (``noqa``, ``pragma: no cover``), no module
names ``threading.Thread``, only ``harness._read`` and ``harness._write``
open a file, and only ``estimators`` tests whether a value is a number."""

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


def test_no_module_names_a_thread():
    # An external batch is one poll loop, and trials fan out to processes;
    # a lock (estimators' ``threading.Lock``) is allowed.
    named = [f"{module}:{node.lineno}" for module, tree in _modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "Thread"
             and isinstance(node.value, ast.Name) and node.value.id == "threading"
             or isinstance(node, ast.ImportFrom) and node.module == "threading"
             and any(alias.name == "Thread" for alias in node.names)]
    assert named == []


def test_only_the_one_reader_and_writer_open_a_file():
    # Spec, CSV and SVG files are read by ``harness._read`` (UTF-8, one error
    # naming the path) and written by ``harness._write``.
    def opens(tree, enclosing=None):
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from opens(node, node.name)
                continue
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "open"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "open"):
                yield enclosing, node.lineno
            yield from opens(node, enclosing)

    found = [(module, function, line) for module, tree in _modules().items()
             for function, line in opens(tree)]
    assert sorted((module, function) for module, function, _ in found) == [
        ("harness", "_read"), ("harness", "_write")], found


def test_only_estimators_tells_what_a_number_is():
    # ``_count``, ``_real`` and ``_positive_finite`` are the number rules;
    # every other module calls them instead of testing a type of its own.
    def number_type(node):
        if isinstance(node, ast.Tuple):
            return any(map(number_type, node.elts))
        if isinstance(node, ast.Name):
            return node.id == "bool"
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id == "numbers" or node.value.id in ("np", "numpy")
                     and node.attr in ("integer", "floating")))

    found = [f"{module}.py:{node.lineno}" for module, tree in _modules().items() if module != "estimators"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
             and len(node.args) == 2 and number_type(node.args[1])]
    assert found == []
