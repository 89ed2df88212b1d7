import pytest

from katzrates import basis as basis_module


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
