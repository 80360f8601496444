"""Every public top-level name of the nhlab modules has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nhlab"


def public_definitions():
    """{name: (path, node)} for each public function, class and assigned
    name at the top level of the package's modules. The package's
    __init__ only re-exports them."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            found.update((name, (path, node)) for name in names if not name.startswith("_"))
    return found


def referenced_names(definitions):
    """Every name, attribute and imported name in src/, scripts/ and bench/,
    less the package's re-exports and each definition's own body. String
    constants, docstrings among them, do not count."""
    seen = set()
    for top in ("src", "scripts", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            own = {id(node) for where, node in definitions.values() if where == path}
            stack = [ast.parse(path.read_text())]
            while stack:
                node = stack.pop()
                if id(node) in own:
                    continue
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    seen.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
                stack.extend(ast.iter_child_nodes(node))
    return seen


def test_every_public_name_has_a_caller():
    definitions = public_definitions()
    uncalled = sorted(set(definitions) - referenced_names(definitions))
    assert not uncalled, f"public names that only tests use: {uncalled}"
