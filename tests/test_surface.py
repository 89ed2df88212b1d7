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
from katzrates.solver import VandermondeSystem, build_system

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


_COMMAND_IMPORTS = """
import io, json, sys
from contextlib import redirect_stdout
import katzrates
bare = sorted(m for m in sys.modules if m.startswith("katzrates"))
from katzrates import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, bare, sorted(sys.modules)]))
"""


def _command_imports(*argv):
    """The exit code of `katzrates *argv` run by cli.main in a fresh
    interpreter, the katzrates modules `import katzrates` loaded, and every
    module loaded at the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COMMAND_IMPORTS, *argv],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_katz_expand_imports_neither_solver_nor_sweep(tmp_path):
    # katz-expand (Algorithm 1) needs the basis and the expansion only; the
    # solver, the sweep and the Eisenstein family are left unimported, and so
    # are the stdlib modules a fresh process would pay for and not use:
    # dataclasses with inspect, and fractions with decimal.
    path = tmp_path / "f.txt"
    path.write_text("1\n2\n")  # N = d_12 = 2 coefficients
    code, bare, loaded = _command_imports(
        "katz-expand", "--p", "5", "--n", "3", "--prec", "4", "--input", str(path)
    )
    assert code == 0
    assert bare == ["katzrates"]
    assert "katzrates.expand" in loaded
    for name in ("katzrates.solver", "katzrates.sweep", "katzrates.family"):
        assert name not in loaded
    for name in ("dataclasses", "inspect", "fractions", "decimal"):
        assert name not in loaded


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--p", "5", "--imax", "6"], ["valuations", "--p", "5", "--r", "6", "--lambda", "4"]],
    ids=["sweep", "valuations"],
)
def test_the_solving_commands_import_neither_dataclasses_nor_inspect(argv):
    # The package's records are plain classes (arithmetic._Record).
    code, _, loaded = _command_imports(*argv)
    assert code == 0
    assert "katzrates.solver" in loaded and "katzrates.sweep" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


@pytest.mark.parametrize(
    "name",
    [
        "g_form",
        "Residue",
        "CappedVal",
        "WeightSpec",
        "v_operator",
        "BasisMatrix",
        "build_matrix",
        "_packed_vandermonde",
        "lower_rows",
        "__mul__",
        "__pow__",
        "__add__",
        "__sub__",
        "scaled",
        "truncate",
        "bernoulli",
        "solve_many",
        "_newton_side",
        "power",
        "_eisenstein",
        "e4",
        "e6",
        "delta",
        "e_p_minus_1",
        "eisenstein_star",
        "row_solutions",
        "_min_val",
        "system",
        "_check",
        "row_entries",
        "_tangent",
        "_tangent_numbers",
        "_chain_head",
        "KatzComponent",
        "components",
        "_fold",
        "_solutions",
        "n_trunc",
    ],
)
def test_no_module_defines_a_removed_path(name):
    # g_form (the basis forms one at a time) and v_operator (the dense V of
    # the E*_k ratio) live on only in tests/oracles.py and in history,
    # Residue, CappedVal, WeightSpec, BasisMatrix, build_matrix,
    # _packed_vandermonde and lower_rows (the chain's rows streamed into one
    # N x N substitution) only in history; the package makes the basis
    # columns one by one from one chain (basis.columns), holds only the
    # first K + 1 of them (expand._peel), divides by V(E*_k) sparsely, keeps residues and valuations as
    # plain ints (a valuation mod p^e capped at e) and a weight k = s(p-1) as
    # its s, and its kernel check reads V.B off the Newton products alone.
    # QSeries is a record: the operators and scaled/truncate are gone, and
    # series are multiplied, powered and inverted by arithmetic's functions.
    # bernoulli (B_k as a Fraction) is gone too, and so are _tangent and
    # _tangent_numbers (B_k read off a table of tangent numbers that grew to
    # the largest k): the package takes each B_k = N_k / D_k it needs from
    # zeta(k) in classical._bernoulli, certified by von Staudt-Clausen, and
    # the tests take their Bernoulli numbers from sympy
    # (tests/oracles.bernoulli).
    # solve_many (a system solved for thetas) lives on in tests/oracles.py:
    # a sweep solves only the blocks of its KatzBasis.
    # _newton_side (L^-1 applied to a whole batch at the build's p^E) is
    # gone too: a KatzBasis folds nothing, and each row folds its own block
    # at lam.  _fold and _solutions (that fold, and the division by p^t_k
    # and the combination of B's columns after it) are one method,
    # VandermondeSystem.solve, since every caller ran the two in turn.
    # power (a series to the k-th power) and the one-series builders
    # _eisenstein, e4, e6, delta, e_p_minus_1 and eisenstein_star are gone:
    # classical.level_one makes E_4, E_6 and E_{p-1} from one sieve, the
    # chain makes Delta from them and its own powers of E_4 (basis._powers),
    # and family.eis_ratios makes every E*_k itself; the tests take E*_k from
    # oracles.eisenstein_star_trial and series powers from oracles.power.
    # row_solutions, KatzBasis.system and KatzBasis._check (a row's solve,
    # its served system and its range checks, three layers under solve_row)
    # are gone: KatzBasis.solutions checks r and lam once, reduces, folds
    # and solves; _min_val is collect_statuses' one gcd read off the log.
    # row_entries (a row's entries sorted by j) is gone: collect_statuses
    # keys them by j in increasing order, and the sweep and the valuations
    # command read row.entries.values().
    # _chain_head (K and the chain's first K + 1 columns) is gone: _peel and
    # phi take K from expand._chunk and the columns off the chain themselves.
    # KatzComponent and KatzTuple.components (x split over the blocks) are
    # gone: katz-expand lays its JSON out from basis._blocks and t.x, and a
    # block's coordinates are t.x[lo:hi], (lo, hi) = basis.block(p, i).
    # QSeries.n_trunc was len(coeffs).
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef)):
                assert node.name != name, f"{path.name} defines {name}"


def test_classical_keeps_no_module_level_state():
    # Each B_k is taken from zeta(k) when a weight list asks for it
    # (classical._bernoulli); no table of Bernoulli or tangent numbers
    # outlives a call.  _prime_powers' cache holds immutable tuples.
    tree = ast.parse((SRC / "classical.py").read_text())
    assignments = (ast.Assign, ast.AnnAssign, ast.AugAssign)
    assert not [node for node in tree.body if isinstance(node, assignments)]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Global)]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "arithmetic.py"),
    ids=lambda p: p.name,
)
def test_only_arithmetic_knows_the_kronecker_operand_format(path):
    # Both Kronecker formats: every truncated product goes through
    # arithmetic.prepare and mul_low (two-point), and every combination of
    # fixed rows through prepare_rows and combine or forward_substitute
    # (one-point slots), so a faster kernel or unpack replaces arithmetic
    # code and nothing else.  Prose may still say "packed".
    text = path.read_text()
    found = re.findall(
        r"\b(pack|unpack|slot_bytes|split_pack|split_low|ks2_mul|_half_bytes)\b", text
    )
    assert not found, f"{path.name} names {sorted(set(found))}"
    tree = ast.parse(text)
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "forward_substitute" not in defined, f"{path.name} defines forward_substitute"


def test_builds_and_reductions_share_one_power_table():
    # The power table depends on p and E alone: two builds at one (p, E)
    # and their reductions hold the same table, not equal copies of it.
    first, second = build_system(5, 12), build_system(5, 12)
    systems = [first, second, first.reduce(7), second.reduce(7)]
    assert len({id(system._powers) for system in systems}) == 1
    assert len({id(system._log) for system in systems}) == 1


def test_a_system_keeps_l_and_no_inverse():
    # A solve forward-substitutes over the factor L; no field holds A = L^-1,
    # and none the slot width of B's columns, which prepare_rows keeps.
    names = set(VandermondeSystem.__slots__)
    assert "_acols" not in names and "_width" not in names
    assert {"_lower", "_uinvs"} <= names
