"""Every name a module imports is used in that module.

A stale import keeps a deleted or moved name looking alive: a re-export
nobody reads, or a name left behind after its last use was rewritten.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "secref").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
