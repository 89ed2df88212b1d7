import pytest

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
