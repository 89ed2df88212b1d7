import pytest

from katzrates import arithmetic as arithmetic_module
from katzrates import solver as solver_module


@pytest.fixture
def basis_builds(monkeypatch) -> list[int]:
    """The precision E of every KatzBasis built, in order, the sweep's
    rebuilds included."""
    builds = []
    real = solver_module.KatzBasis.__init__

    def counting(self, n, system):
        builds.append(system.lam)
        real(self, n, system)

    monkeypatch.setattr(solver_module.KatzBasis, "__init__", counting)
    return builds


@pytest.fixture
def system_builds(monkeypatch) -> list[int]:
    """The lam of every Vandermonde system built for a KatzBasis, by the
    solver or by the sweep, in order."""
    builds = []
    real = solver_module.build_system

    def counting(p, lam, ss=None):
        builds.append(lam)
        return real(p, lam, ss)

    monkeypatch.setattr("katzrates.solver.build_system", counting)
    monkeypatch.setattr("katzrates.sweep.build_system", counting)
    return builds


@pytest.fixture
def reductions(monkeypatch) -> list[int]:
    """The lam of every VandermondeSystem.reduce call, in order."""
    lams = []
    real = solver_module.VandermondeSystem.reduce

    def counting(self, lam):
        lams.append(lam)
        return real(self, lam)

    monkeypatch.setattr(solver_module.VandermondeSystem, "reduce", counting)
    return lams


@pytest.fixture
def ks2_products(monkeypatch) -> list[tuple]:
    """Every two-point Kronecker product, in order, as (caller module,
    count, slots spanned by the even and odd halves of x and of y); y's are
    None for a square.  The caller is the module whose `mul_low` made the
    product (basis or expand), and the halves are read at
    `arithmetic.ks2_mul`."""
    products, caller = [], []
    real_mul_low, real_ks2_mul = arithmetic_module.mul_low, arithmetic_module.ks2_mul

    def recording(where):
        def mul_low(xs, factor, mod):
            caller.append(where)
            try:
                return real_mul_low(xs, factor, mod)
            finally:
                caller.pop()

        return mul_low

    def ks2_mul(x, y, width, count, mod):
        bits = 16 * ((width + 1) // 2)
        halves = [-(-h.bit_length() // bits) for h in x + (y or ())]
        products.append((caller[-1], count, *halves, *[None] * (4 - len(halves))))
        return real_ks2_mul(x, y, width, count, mod)

    monkeypatch.setattr("katzrates.arithmetic.ks2_mul", ks2_mul)
    for where in ("basis", "expand"):
        monkeypatch.setattr(f"katzrates.{where}.mul_low", recording(where))
    return products


@pytest.fixture
def inverses(monkeypatch) -> list[int]:
    """The length of every series `arithmetic.inverse` inverts, in order:
    the chain's (basis) and the peel's (expand)."""
    lengths = []
    real = arithmetic_module.inverse

    def counting(values, mod):
        lengths.append(len(values))
        return real(values, mod)

    for where in ("basis", "expand"):
        monkeypatch.setattr(f"katzrates.{where}.inverse", counting)
    return lengths
