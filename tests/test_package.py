import ast
from pathlib import Path

import fcs_spectral

PACKAGE = Path(fcs_spectral.__file__).parent


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class of
    a module and of each public method or property of those classes."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{stmt.name}.{sub.name}", sub


def test_every_public_name_is_used_or_exported():
    # a name is used where it is read as a name or an attribute, outside its
    # own definition; a method is matched by its name alone, so any attribute
    # of that name counts.  __all__ holds strings and counts for nothing.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    exported = {alias.name for node in ast.walk(trees.pop("__init__"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    unused = []
    for module, tree in sorted(trees.items()):
        for qual, definition in _public_definitions(tree):
            if qual in exported:
                continue
            own = {id(node) for node in ast.walk(definition)}
            name = qual.rsplit(".", 1)[-1]
            if all(id(node) in own for node in uses.get(name, [])):
                unused.append(f"{module}.{qual}")
    assert not unused, f"no package path or __init__ export uses {unused}"
