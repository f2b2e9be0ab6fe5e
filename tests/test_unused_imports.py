"""Every name a module imports is used in that module, and every private
top-level name in the package is referenced somewhere in the package.

A stale import keeps a deleted or moved name looking alive: a re-export
nobody reads, or a name left behind after its last use was rewritten.  A
private helper that no package module reads is dead code, whatever tests
still call it.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "secref").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names quoted in annotations count as used
    used |= {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_flags_an_unused_import_and_accepts_used_ones():
    source = "import os\nfrom a.b import c, d as e\nfrom typing import List\nx: 'List' = os.sep + e\n"
    assert unused_imports(source) == [(2, "c")]


def test_no_module_imports_a_name_it_never_uses():
    stale = {
        str(path.relative_to(ROOT)): found
        for path in SOURCES
        if (found := unused_imports(path.read_text()))
    }
    assert stale == {}


def private_definitions(tree: ast.Module) -> dict:
    """Top-level private functions, classes and constants: name -> line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def references(tree: ast.Module) -> set:
    """Every name a module reads, imports, looks up as an attribute or
    quotes as an identifier."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def unreferenced_privates(sources: dict) -> list:
    """(module, line, name) of each private top-level definition that no
    module in `sources` (module -> text) references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(references, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in used
    )


def test_the_private_scan_flags_a_definition_no_module_references():
    sources = {
        "a": "_USED = 1\n_UNUSED = 2\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n",
        "b": "from a import _helper\n",
    }
    assert unreferenced_privates(sources) == [("a", 2, "_UNUSED"), ("a", 5, "_Gone")]


def test_every_private_package_definition_is_referenced_in_the_package():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unreferenced_privates(sources) == []
