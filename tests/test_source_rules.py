"""Rules the package source keeps, read from the syntax trees of src/.

Each rule names every offending line as path:line, so a failure says where
to look.  The trees are parsed once, for all rules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TREES = [(path.relative_to(SRC.parent), ast.parse(path.read_text(), str(path)))
         for path in sorted(SRC.rglob("*.py"))]


def test_src_has_no_assert_statements():
    # invariants must survive python -O
    hits = [f"{path}:{node.lineno}" for path, tree in TREES
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert hits == []


def test_src_has_no_unused_imports():
    # a deletion can strand an import; every name a module imports at top
    # level must be read somewhere in it (package __init__ files re-export)
    hits = []
    for path, tree in TREES:
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    hits.append(f"{path}:{node.lineno}: {name}")
    assert hits == []


def test_src_has_no_unused_private_names():
    # moving a body can strand a helper; every private top-level function,
    # class or assignment (one leading underscore) must be read somewhere
    # under src/, by name, as an attribute or through an import
    used = set()
    for _, tree in TREES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    hits = []
    for path, tree in TREES:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            hits += [f"{path}:{node.lineno}: {name}" for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and name not in used]
    assert hits == []


def _bound_names(item: ast.stmt) -> list[str]:
    """What a class-body statement binds: a def or a plain assignment."""
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [item.name]
    targets = (item.targets if isinstance(item, ast.Assign) else
               [item.target] if isinstance(item, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def test_compose_is_defined_only_on_category():
    # a category writes compose_data, the payload of g∘f; only Category
    # defines compose, which checks composability and adds the endpoints
    hits = [f"{path}:{item.lineno}: {node.name}.compose"
            for path, tree in TREES for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name != "Category"
            for item in node.body if "compose" in _bound_names(item)]
    assert hits == []


def test_the_rules_read_every_source_file():
    # an empty tree list would pass every rule above
    assert {path.name for path, _ in TREES} >= {"core.py", "constructions.py",
                                               "product.py"}
