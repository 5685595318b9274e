import numpy as np
import pytest

from fcs_spectral import aklt, build_omega, from_cstar, linalg


@pytest.fixture(scope="session")
def aklt_model():
    return aklt()


@pytest.fixture(scope="session")
def aklt_realization(aklt_model):
    return from_cstar(aklt_model)


@pytest.fixture(scope="session")
def aklt_omega(aklt_realization):
    return build_omega(aklt_realization)


def spin1_matrices():
    """Spin-1 operators in the |1>, |0>, |-1> ordering."""
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    sp = np.zeros((3, 3), dtype=complex)
    sp[0, 1] = sp[1, 2] = np.sqrt(2.0)
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


def aklt_bond_projector():
    """Two-site spin-2 projector, equal to the AKLT bond Hamiltonian term
    h = S.S/2 + (S.S)^2/6 + 1/3."""
    sx, sy, sz = spin1_matrices()
    ss = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    return 0.5 * ss + (ss @ ss) / 6.0 + np.eye(9) / 3.0


class FakeBlasThreads:
    """Stand-in for OpenBLAS's thread count: ``get`` and ``set`` act on
    ``count``, and ``calls`` records each count set."""

    def __init__(self, count):
        self.count, self.calls = count, []

    def get(self):
        return self.count

    def set(self, n):
        self.calls.append(n)
        self.count = n


@pytest.fixture
def fake_blas_threads(monkeypatch):
    """A process that started at 2 BLAS threads, now at 2."""
    fake = FakeBlasThreads(2)
    monkeypatch.setattr(linalg, "_GET_THREADS", fake.get)
    monkeypatch.setattr(linalg, "_SET_THREADS", fake.set)
    monkeypatch.setattr(linalg, "_INHERITED", 2)
    return fake
