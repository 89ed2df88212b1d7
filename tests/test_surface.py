"""The package's public surface: what the benchmark and the scripts import
from it, what it exports, and what it no longer defines."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import katzrates

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "katzrates"


def _katzrates_imports(path: Path):
    """(module, name) for each `from katzrates... import name`, and
    (module, None) for each `import katzrates...`, in one file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("katzrates"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("katzrates"):
                    yield alias.name, None


_CALLERS = sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


@pytest.mark.parametrize("path", _CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_name_imported_from_katzrates_resolves(path):
    for module, name in _katzrates_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule


def test_perfbench_imports_something_from_katzrates():
    # Guards the test above against a parse that finds nothing.
    found = {m for p in _CALLERS for m, _ in _katzrates_imports(p)}
    assert {"katzrates", "katzrates.sweep"} <= found


def _readme_entry_points() -> list[str]:
    """The names in the bullet list under "Entry points" in the README."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("Entry points"))
    names = []
    for line in lines[start + 2 :]:
        if not line.startswith("- "):
            break
        names += re.findall(r"`(\w+)`", line.split(" — ")[0])
    return names


def test_all_is_the_readme_entry_point_list():
    assert sorted(katzrates.__all__) == sorted(_readme_entry_points())
    assert len(set(katzrates.__all__)) == len(katzrates.__all__)
    for name in katzrates.__all__:
        assert hasattr(katzrates, name)


@pytest.mark.parametrize("name", ["g_form", "Residue"])
def test_no_module_defines_a_removed_path(name):
    # g_form (the basis forms one at a time) and Residue live on only in
    # tests/oracles.py and in history; the package builds the basis matrix
    # column by column and keeps residues as plain ints.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef)):
                assert node.name != name, f"{path.name} defines {name}"
