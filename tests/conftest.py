import pytest

from katzrates import arithmetic as arithmetic_module
from katzrates import basis as basis_module
from katzrates import solver as solver_module


@pytest.fixture
def matrix_builds(monkeypatch) -> list[int]:
    """The precision e of every basis matrix a KatzBasis builds, in order."""
    builds = []
    real = basis_module.build_matrix

    def counting(p, n, ring):
        builds.append(ring.e)
        return real(p, n, ring)

    monkeypatch.setattr("katzrates.solver.build_matrix", counting)
    return builds


@pytest.fixture
def system_builds(monkeypatch) -> list[int]:
    """The lam of every Vandermonde system a KatzBasis factors, in order."""
    builds = []
    real = solver_module.build_system

    def counting(p, lam, ss=None):
        builds.append(lam)
        return real(p, lam, ss)

    monkeypatch.setattr("katzrates.solver.build_system", counting)
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
    None for a square."""
    products = []
    real = arithmetic_module.ks2_mul

    def recording(where):
        def ks2_mul(x, y, width, count, mod):
            bits = 16 * ((width + 1) // 2)
            halves = [-(-h.bit_length() // bits) for h in x + (y or ())]
            products.append((where, count, *halves, *[None] * (4 - len(halves))))
            return real(x, y, width, count, mod)

        return ks2_mul

    monkeypatch.setattr("katzrates.arithmetic.ks2_mul", recording("arithmetic"))
    monkeypatch.setattr("katzrates.basis.ks2_mul", recording("basis"))
    return products
