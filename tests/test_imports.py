"""Module boundaries: no private cross-module imports, one owner of the store
and of the generator sets, no reader of `.perms` files outside `cache`, one
function that pauses the cyclic collector, and a BFS oracle with its own move
code."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator

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
        assert re.findall(r"\b(?:(?:pi|hist)_path|read_histogram|write_histogram)\b", path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_generator_set_known_only_to_distance(path):
    # |Pi_k| is the top entry of the histogram, so no other module needs
    # to grow or read Pi_k itself
    if path.name != "distance.py":
        assert re.findall(r"\bgenerator_set\b", path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_permset_files_read_only_by_cache(path):
    # Pi_k is always grown; `pi_k.perms` is an export the program never reads
    if path.name != "cache.py":
        assert re.findall(r"\bread_(?:packed|permset)\b", path.read_text()) == []


def _collector_users(node: ast.AST, scope: str | None) -> Iterator[str | None]:
    """The name of the innermost function or class (None at module level)
    of every use of the name `gc` under `node`."""
    if isinstance(node, ast.Name) and node.id == "gc":
        yield scope
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = node.name
    for child in ast.iter_child_nodes(node):
        yield from _collector_users(child, scope)


def test_collector_touched_only_by_tuple_set():
    # every set of tuples filled from blocks is filled by `engine.tuple_set`,
    # so it is the one place the cyclic collector is paused and restored
    users = {(path.name, scope) for path in SOURCES for scope in _collector_users(ast.parse(path.read_text()), None)}
    assert users == {("engine.py", "tuple_set")}


def _loaded_modules(*argv: str) -> set[str]:
    """Run the CLI with argv (or only `import signedgrids`) in a fresh
    interpreter and return the names in its sys.modules at the end."""
    code = (
        "import sys\n"
        "import signedgrids\n"
        "if sys.argv[1:]:\n"
        "    from signedgrids.cli import main\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(' '.join(sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SIGNEDGRIDS_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


# What a query answered from the store never runs: the array engine and
# numpy, the oracle, the permutation operators, and `dataclasses` with the
# `inspect` it loads.
OFF_THE_WARM_PATH = {"numpy", "dataclasses", "inspect", "signedgrids.oracle", "signedgrids.engine", "signedgrids.perm"}


def test_bare_import_loads_no_submodule():
    loaded = _loaded_modules()
    assert [name for name in loaded if name.startswith("signedgrids.")] == []
    assert loaded & OFF_THE_WARM_PATH == set()


def test_numpy_stays_off_the_warm_path(tmp_path):
    # importing numpy costs ~0.09 s of wall time, ~0.17 s of CPU and ~12 MB
    # of RSS per process (2-core Xeon, Python 3.11, numpy 2.4), paid only
    # when a closure, a growth step or a BFS runs
    store = str(tmp_path)
    verify = ("--cache-dir", store, "verify", "--family", "pancake", "--k-max", "8", "--n-max", "5")
    assert {"numpy", "signedgrids.oracle"} <= _loaded_modules(*verify)  # cold: the closures fill the store
    assert {"numpy", "signedgrids.oracle"} <= _loaded_modules(*verify)  # warm: the BFS searches on arrays
    warm = [
        ("--verbose", "pancake", "--k", "8"),
        ("pancake", "--k", "7", "--exact"),
        ("--format", "latex", "reversal", "--k", "4", "--exact"),
        ("pancake", "--k", "6", "--eval", "12"),
    ]
    _loaded_modules("--cache-dir", store, "reversal", "--k", "4", "--exact")  # stores reversal S_3 and S_4
    for argv in warm:
        assert _loaded_modules("--cache-dir", store, *argv) & OFF_THE_WARM_PATH == set(), argv


def test_perm_stays_off_cold_runs(tmp_path):
    # `engine` needs `perm` for an annotation alone, so growth, the closure
    # and the BFS load it nowhere; it is loaded where a permutation is
    # parsed or printed
    store = str(tmp_path)
    cold = _loaded_modules("--cache-dir", store, "pancake", "--k", "3")
    verify = _loaded_modules("--cache-dir", store, "verify", "--family", "pancake", "--k-max", "3", "--n-max", "4")
    for loaded in (cold, verify):
        assert "signedgrids.engine" in loaded
        assert "signedgrids.perm" not in loaded


def test_every_export_resolves():
    import signedgrids
    from signedgrids import cache, distance, gridclass, oracle, poly  # the form perfbench/traced.py uses

    assert [name for name in signedgrids.__all__ if not hasattr(signedgrids, name)] == []
    assert set(signedgrids.__all__) <= set(dir(signedgrids))
    assert [module.__name__ for module in (cache, distance, gridclass, oracle, poly)] == [
        "signedgrids.cache",
        "signedgrids.distance",
        "signedgrids.gridclass",
        "signedgrids.oracle",
        "signedgrids.poly",
    ]
    with pytest.raises(AttributeError):
        signedgrids.no_such_name


def test_oracle_keeps_its_own_moves():
    # the BFS checks growth, the downset walk and the closure, so it shares
    # none of their move code
    package = ROOT / "src" / "signedgrids"
    source = (package / "oracle.py").read_text()
    names = ["delete_column", "split_column", "deletions", "compact_mask"]
    names += ["_gather_index", "_split_moves", "_gathers", "_downset_level", "_computed_histograms"]
    assert re.findall(rf"\b(?:{'|'.join(names)})\b", source) == []
    # a renamed or deleted name would leave the guard checking nothing
    defined = (package / "distance.py").read_text() + (package / "engine.py").read_text()
    assert [name for name in names if not re.search(rf"^def {name}\(", defined, re.M)] == []


# Each entry point that loads numpy, run cold in a fresh interpreter with a
# scratch directory as argv[1].
NUMPY_ENTRY_POINTS = {
    "distance_classes": "from signedgrids.distance import Family, distance_classes\n"
    "distance_classes(Family.PANCAKE, range(3, 5), cache_dir=Path(sys.argv[1]))",
    "generator_set": "from signedgrids.distance import Family, generator_set\ngenerator_set(Family.REVERSAL, 3)",
    "ball": "from signedgrids.distance import Family\nfrom signedgrids.oracle import ball\nball(5, 3, Family.PANCAKE)",
    "closure_histogram": "from signedgrids.gridclass import closure_histogram\nclosure_histogram([(2, -1, 3)])",
    "write_permset": "from signedgrids.cache import write_permset\n"
    "write_permset(Path(sys.argv[1]) / 'p.perms', frozenset({(2, -1, 3)}))",
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize(
    "entry,caller",
    [*((entry, None) for entry in NUMPY_ENTRY_POINTS), ("distance_classes", "2")],
    ids=str,
)
def test_numpy_starts_no_blas_threads(tmp_path, entry, caller):
    # OpenBLAS would start a worker per core that spins for ~0.13 s of CPU
    # although nothing calls BLAS; `engine` imports numpy with one thread,
    # and neither os.environ nor the C environment a child inherits keeps
    # the setting.  A caller's own OPENBLAS_NUM_THREADS is left as it was.
    code = (
        "import ctypes, os, re, sys\n"
        "from pathlib import Path\n"
        "before = dict(os.environ)\n"
        f"{NUMPY_ENTRY_POINTS[entry]}\n"
        "assert 'numpy' in sys.modules\n"
        "assert dict(os.environ) == before\n"
        "libc = ctypes.CDLL(None)\n"
        "libc.getenv.restype = ctypes.c_char_p\n"
        "print(re.search(r'^Threads:\\s+(\\d+)$', open('/proc/self/status').read(), re.M)[1], libc.getenv(b'OPENBLAS_NUM_THREADS'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    threads, seen = done.stdout.split()
    assert seen == repr(None if caller is None else caller.encode())
    if caller is None:
        assert threads == "1"
