"""Every public top-level function and class in ``src/atebench`` has a
caller: a reference outside its own definition in ``src/``, ``perfbench/``
or the README.  A name that only tests read belongs under ``tests/``.

A reference is a name or attribute read in Python code (an import alone is
not one) or the name as a word of ``README.md``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "atebench"

# names allowed to go uncalled; keep it empty
EXEMPT: set[str] = set()


def _references(tree, skip=None) -> set[str]:
    """Names read in tree, outside the node skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _public_definitions(tree):
    return [n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]


def _uncalled() -> list[str]:
    paths = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    reads = {path: _references(tree) for path, tree in trees.items()}
    out = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in _public_definitions(tree):
            name = node.name
            if name in EXEMPT or name in readme:
                continue
            if any(name in r for p, r in reads.items() if p != path):
                continue
            if name not in _references(tree, skip=node):
                out.append(f"{path.relative_to(ROOT)}: {name}")
    return out


def test_every_public_name_in_the_package_has_a_caller():
    assert EXEMPT == set()
    assert _uncalled() == []


def test_the_guard_sees_a_name_read_only_inside_its_own_definition():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    def m(self):\n        return C\n")
    f, c = _public_definitions(tree)
    assert "f" not in _references(tree, skip=f)
    assert "C" not in _references(tree, skip=c)
    assert "f" in _references(ast.parse("from m import f\nf(1)\n"))
    assert "f" not in _references(ast.parse("from m import f\n"))
    assert "f" in _references(ast.parse("import m\nm.f(1)\n"))
