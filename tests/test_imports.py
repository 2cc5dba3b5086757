"""Module boundaries: no private cross-module imports, one owner of the store,
of the generator sets and of the packed encoding, and no reader of `.perms`
files outside `cache`."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "signedgrids").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "signedgrids"


def private_uses(source: str) -> list[str]:
    """Underscore names taken from another signedgrids module."""
    tree = ast.parse(source)
    modules: set[str] = set()  # local names bound to signedgrids modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "signedgrids":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            base = ast.unparse(node.value)
            if base in modules:
                found.append(f"line {node.lineno}: uses {base}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_imports_across_modules(path):
    assert private_uses(path.read_text()) == []


def test_detector_sees_both_forms():
    assert private_uses("from .distance import _grow\n") == ["line 1: imports _grow"]
    assert private_uses("from signedgrids import cache\ncache._read_lines\n") == [
        "line 2: uses cache._read_lines"
    ]
    assert private_uses("from signedgrids import __version__\nimport os\nos._exit\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_store_layout_known_only_to_distance(path):
    if path.name not in ("distance.py", "cache.py"):
        assert re.findall(r"\b(?:pi|hist)_path\b", path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_generator_set_known_only_to_distance(path):
    # |Pi_k| is the top entry of the histogram (`generator_count`), so no
    # other module needs to grow or read Pi_k itself
    if path.name != "distance.py":
        assert re.findall(r"\bgenerator_set\b", path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_permset_files_read_only_by_cache(path):
    # Pi_k is always grown; `pi_k.perms` is an export the program never reads
    if path.name != "cache.py":
        assert re.findall(r"\bread_(?:packed|permset)\b", path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_packed_offset_known_only_to_perm(path):
    if path.name != "perm.py":
        assert re.findall(r"\b128\b", path.read_text()) == []
