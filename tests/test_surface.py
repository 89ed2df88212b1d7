"""The package's public surface: what the benchmark and the scripts import
from it, what it exports, and what it no longer defines."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
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


def test_star_import_and_dir_expose_all():
    # The package resolves its names lazily; both still list every one.
    namespace = {}
    exec("from katzrates import *", namespace)
    assert set(katzrates.__all__) <= set(namespace)
    assert set(katzrates.__all__) <= set(dir(katzrates))
    with pytest.raises(AttributeError):
        katzrates.g_form


_KATZ_EXPAND_IMPORTS = """
import json, sys
import katzrates
bare = sorted(m for m in sys.modules if m.startswith("katzrates"))
from katzrates import cli
code = cli.main(["katz-expand", "--p", "5", "--n", "3", "--prec", "4", "--input", sys.argv[1]])
print(json.dumps([code, bare, sorted(m for m in sys.modules if m.startswith("katzrates"))]))
"""


def test_katz_expand_imports_neither_solver_nor_sweep(tmp_path):
    # katz-expand (Algorithm 1) needs the basis and the expansion only; the
    # solver, the sweep and the Eisenstein family are left unimported.
    path = tmp_path / "f.txt"
    path.write_text("1\n2\n")  # N = d_12 = 2 coefficients
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _KATZ_EXPAND_IMPORTS, str(path)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    code, bare, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert bare == ["katzrates"]
    assert "katzrates.expand" in loaded
    for name in ("solver", "sweep", "family"):
        assert f"katzrates.{name}" not in loaded


@pytest.mark.parametrize(
    "name", ["g_form", "Residue", "CappedVal", "WeightSpec", "v_operator"]
)
def test_no_module_defines_a_removed_path(name):
    # g_form (the basis forms one at a time) and v_operator (the dense V of
    # the E*_k ratio) live on only in tests/oracles.py and in history,
    # Residue, CappedVal and WeightSpec only in history; the package builds
    # the basis matrix column by column, divides by V(E*_k) sparsely, keeps
    # residues and valuations as plain ints (a valuation mod p^e capped at e)
    # and a weight k = s(p-1) as its s.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef)):
                assert node.name != name, f"{path.name} defines {name}"
