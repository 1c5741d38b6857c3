"""Rules the package source keeps, read from the syntax trees of src/.

Each rule names every offending line as path:line, so a failure says where
to look.  The trees are parsed once, for all rules; the benchmark's trees
are parsed too, as readers of the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _parse(paths) -> list[tuple[Path, ast.Module]]:
    return [(path.relative_to(ROOT), ast.parse(path.read_text(), str(path)))
            for path in sorted(paths)]


TREES = _parse(SRC.rglob("*.py"))
BENCH_TREES = _parse((ROOT / "perfbench").glob("*.py"))


def _reads(node: ast.AST) -> set[str]:
    """Names a syntax tree reads: by name, as an attribute or through an
    import."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def _definitions(body: list[ast.stmt]):
    """(statement, name) for each function, class or assigned name that a
    module or class body binds."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((node, n.id) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


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
    used = set().union(*(_reads(tree) for _, tree in TREES))
    hits = [f"{path}:{node.lineno}: {name}" for path, tree in TREES
            for node, name in _definitions(tree.body)
            if name.startswith("_") and not name.startswith("__")
            and name not in used]
    assert hits == []


def test_src_has_no_public_names_only_tests_read():
    # the package is what runs: every public top-level function, class or
    # assignment of a module must be read by another top-level statement
    # under src/ or in perfbench/*.py, by name, as an attribute or through
    # an import; a re-export in an __init__ file is not a read.  The rule
    # matches names only, so a dead definition that shares its name with a
    # live one passes: engine.fiber did, beside Claim.fiber and a local
    # fiber in certificates.py, and had to be moved to the tests by hand
    readers = [(node, _reads(node)) for path, tree in TREES + BENCH_TREES
               if path.name != "__init__.py" for node in tree.body]
    hits = [f"{path}:{node.lineno}: {name}" for path, tree in TREES
            if path.name != "__init__.py"
            for node, name in _definitions(tree.body)
            if not name.startswith("_")
            and not any(name in used for reader, used in readers
                        if reader is not node)]
    assert hits == []


def test_compose_is_defined_only_on_category():
    # a category writes compose_data, the payload of g∘f; only Category
    # defines compose, which checks composability and adds the endpoints
    hits = [f"{path}:{item.lineno}: {node.name}.compose"
            for path, tree in TREES for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name != "Category"
            for item, name in _definitions(node.body) if name == "compose"]
    assert hits == []


def test_the_rules_read_every_source_file():
    # an empty tree list would pass every rule above
    assert {path.name for path, _ in TREES} >= {"core.py", "constructions.py",
                                               "product.py"}
    assert {path.name for path, _ in BENCH_TREES} >= {"run.py",
                                                      "workloads.py"}
