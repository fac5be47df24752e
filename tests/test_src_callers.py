"""Every public top-level function and class in ``src/atebench``, and every
public method of such a class, has a caller: a reference outside its own
definition in ``src/``, ``perfbench/`` or the README.  A name that only
tests read belongs under ``tests/``.

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


def _public_definitions(tree) -> list[tuple[str, ast.AST]]:
    """(name, node) of the public top-level functions and classes of a
    module, and ("Class.method", node) of the public methods of those
    classes."""
    out = []
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_"):
            out.append((n.name, n))
            if isinstance(n, ast.ClassDef):
                out += [(f"{n.name}.{m.name}", m) for m in n.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def _uncalled_in(trees: dict, readme: set[str]) -> list[str]:
    """The public definitions of the package modules among trees that
    nothing reads outside their own definition."""
    reads = {path: _references(tree) for path, tree in trees.items()}
    out = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for qualname, node in _public_definitions(tree):
            name = node.name
            if qualname in EXEMPT or name in readme:
                continue
            if any(name in r for p, r in reads.items() if p != path):
                continue
            if name not in _references(tree, skip=node):
                out.append(f"{path.relative_to(ROOT)}: {qualname}")
    return out


def _uncalled() -> list[str]:
    paths = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    return _uncalled_in(trees, readme)


def test_every_public_name_in_the_package_has_a_caller():
    assert EXEMPT == set()
    assert _uncalled() == []


def test_the_guard_sees_a_name_read_only_inside_its_own_definition():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    def m(self):\n        return C\n")
    (_, f), (_, c), (name, m) = _public_definitions(tree)
    assert name == "C.m"
    assert "f" not in _references(tree, skip=f)
    assert "C" not in _references(tree, skip=c)
    assert "m" not in _references(tree, skip=m)
    assert "f" in _references(ast.parse("from m import f\nf(1)\n"))
    assert "f" not in _references(ast.parse("from m import f\n"))
    assert "f" in _references(ast.parse("import m\nm.f(1)\n"))


def test_the_guard_sees_a_method_read_only_inside_its_own_class():
    # walk reads itself and step; nothing outside the class reads either
    module = PACKAGE / "example.py"
    tree = ast.parse(
        "class C:\n"
        "    def walk(self, n):\n        return self.walk(n - 1) if n else self.step()\n\n"
        "    def step(self):\n        return 0\n\n"
        "    def _hidden(self):\n        return 1\n"
    )
    where = module.relative_to(ROOT)
    assert _uncalled_in({module: tree}, set()) == [f"{where}: C", f"{where}: C.walk"]
    caller = ROOT / "perfbench" / "example.py"
    assert _uncalled_in({module: tree, caller: ast.parse("from m import C\nC().walk(3)\n")}, set()) == []
    assert _uncalled_in({module: tree}, {"C", "walk"}) == []
