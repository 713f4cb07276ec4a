"""The package's surface: standard-library imports only, no private helper
left unused, no export that only the tests call, every name the benchmark
scripts import from it still resolves, and the benchmark's self-test passes
against it."""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "convdecomp").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (
                    f"{path.name} imports {name}, which is not in the standard library"
                )


def test_every_private_helper_is_used():
    trees = [_parse(path) for path in sorted((ROOT / "src" / "convdecomp").glob("*.py"))]

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    used = Counter(name for tree in trees for name in names(tree))
    for tree in trees:
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                inside = Counter(names(node))
                assert used[node.name] > inside[node.name], (
                    f"{node.name} is defined but never used in src/convdecomp"
                )


def test_every_export_has_a_caller():
    """Each name in ``__all__`` is referenced by another module of the
    package or imported by the benchmark; an oracle only the tests call
    belongs in tests/helpers.py."""
    used = set()
    for path in (ROOT / "src" / "convdecomp").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    for path in BENCH.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("convdecomp"):
                used.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "convdecomp"
            ):
                used.add(node.attr)
    unused = sorted(set(importlib.import_module("convdecomp").__all__) - used)
    assert not unused, f"exported but called only by the tests: {unused}"


@pytest.mark.parametrize("script", ["harness.py", "selftest.py"])
def test_names_the_benchmark_imports_resolve(script):
    path = BENCH / script
    if not path.is_file():
        pytest.skip(f"no bench/{script}")
    imported = 0
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom) and node.module in ("convdecomp", "convdecomp.cli"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"bench/{script} imports {node.module}.{alias.name}, which is gone"
                )
                imported += 1
    assert imported


def test_benchmark_selftest_passes():
    script = BENCH / "selftest.py"
    if not script.is_file():
        pytest.skip("no bench/selftest.py")
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
