import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fcs_spectral import linalg
from fcs_spectral.linalg import (
    frobenius_norm,
    operator_norm_2to2,
    pseudoinverse,
    singular_values,
    svd,
    trace_norm_hermitian,
)

GOLDEN = (1 + np.sqrt(5)) / 2


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.s, [1, 1, 1])


def test_svd_diagonal_signed_permutation():
    res = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(res.s, [3, 2, 1])
    # left vectors are a signed permutation of the identity
    assert np.allclose(np.abs(res.u), np.eye(3), atol=1e-12)


@pytest.mark.parametrize("shape", [(5, 3), (20, 20), (40, 100), (100, 100)])
def test_svd_reconstruction_and_orthonormality(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    a = rng.standard_normal(shape)
    u, s, vt = svd(a)
    assert np.linalg.norm(u @ np.diag(s) @ vt - a) <= 1e-9 * np.linalg.norm(a)
    assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-10
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_singular_values_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        singular_values(np.array([[1.0, 0.0], [np.nan, 1.0]]))


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (9, 9)])
def test_singular_values_bits_match_values_only_svd(shape):
    # the values-only LAPACK driver, not the thin SVD's values: these feed
    # sigma_m, the ranks and the bounds, whose CSV bytes must not move
    a = np.random.default_rng(sum(shape)).standard_normal(shape)
    for m in (a, a + 1j * a[::-1]):
        assert np.array_equal(singular_values(m), np.linalg.svd(m, compute_uv=False))


_DECOMPOSITIONS = {"svd", "eig", "eigh", "eigvals", "eigvalsh", "inv", "pinv", "solve", "lstsq"}
# (module, top-level function, np.linalg routine) of each exemption that the
# linalg module docstring states
_EXEMPT = {("noise", "_product_outcomes", "eigh")}


def _modules_outside_linalg():
    """(module name, parsed source) of every package module but linalg."""
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name != "linalg.py":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_decompositions_only_in_linalg():
    calls = set()
    for module, tree in _modules_outside_linalg():
        for stmt in tree.body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute) and node.attr in _DECOMPOSITIONS
                        and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")):
                    calls.add((module, owner, node.attr))
    assert calls - _EXEMPT == set(), "decompose through fcs_spectral.linalg"


def test_native_bindings_only_in_linalg():
    found = set()
    for module, tree in _modules_outside_linalg():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((module, a.name) for a in node.names if a.name.startswith("ctypes"))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ctypes"):
                found.add((module, node.module))
            elif isinstance(node, ast.Attribute) and node.attr == "_umath_linalg":
                found.add((module, ast.unparse(node)))
    assert found == set(), "bind native code in fcs_spectral.linalg"


def test_pseudoinverse_invertible_matches_inverse():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(pseudoinverse(a), np.linalg.inv(a), atol=1e-12)


def test_pseudoinverse_zero_matrix():
    assert np.array_equal(pseudoinverse(np.zeros((3, 2))), np.zeros((2, 3)))


def test_pseudoinverse_rank_one():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert np.allclose(pseudoinverse(a), a / 25.0, atol=1e-12)
    assert np.allclose(a @ pseudoinverse(a) @ a, a, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_pseudoinverse_penrose_identities(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 4))
    p = pseudoinverse(a)
    scale = np.linalg.norm(a)
    assert np.linalg.norm(a @ p @ a - a) <= 1e-8 * scale
    assert np.linalg.norm(p @ a @ p - p) <= 1e-8 * np.linalg.norm(p)
    assert np.linalg.norm((a @ p).T - a @ p) <= 1e-8
    assert np.linalg.norm((p @ a).T - p @ a) <= 1e-8


def test_operator_norm_basics():
    assert operator_norm_2to2(np.eye(4)) == pytest.approx(1.0)
    assert operator_norm_2to2(np.diag([3.0, 2.0, 1.0])) == pytest.approx(3.0)
    assert operator_norm_2to2(np.zeros((3, 3))) == 0.0


def test_operator_norm_matches_rayleigh_oracle():
    # randomized Rayleigh-quotient (power) iteration as an independent oracle
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5))
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    for _ in range(10_000):
        w = a.T @ (a @ v)
        v = w / np.linalg.norm(w)
    oracle = np.linalg.norm(a @ v)
    assert operator_norm_2to2(a) == pytest.approx(oracle, abs=1e-6)


def test_frobenius_norm():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    assert frobenius_norm(np.zeros((0, 3))) == 0.0
    # any array: the entries' 2-norm, summed in another order than the BLAS
    # dot of np.linalg.norm, so equal to rounding
    rng = np.random.default_rng(4)
    z = rng.standard_normal((9, 81, 81)) + 1j * rng.standard_normal((9, 81, 81))
    for a in (z, z.real, z[:, ::2].T):
        assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a.ravel()), rel=1e-13)


def test_frobenius_norm_of_huge_entries_is_finite():
    # the squares of these entries overflow; the norm itself does not
    assert frobenius_norm(np.full(4, 1e200)) == 2e200
    assert frobenius_norm(np.full((2, 2), 3e200 + 4e200j)) == pytest.approx(1e201, rel=1e-15)
    assert frobenius_norm(np.array([1e300, -1e300, 1.0])) == pytest.approx(
        np.sqrt(2.0) * 1e300, rel=1e-15)
    # a non-finite entry still gives a non-finite norm
    assert frobenius_norm(np.array([np.inf, 1e200])) == np.inf
    assert np.isnan(frobenius_norm(np.array([np.nan, 1e200])))


def test_trace_norm_diagonal():
    assert trace_norm_hermitian(np.diag([1.0, -1.0])) == pytest.approx(2.0)


def test_trace_norm_projector_difference():
    p0 = np.zeros((2, 2), dtype=complex)
    p0[0, 0] = 1.0
    p1 = np.zeros((2, 2), dtype=complex)
    p1[1, 1] = 1.0
    assert trace_norm_hermitian(p0 - p1) == pytest.approx(2.0)


def _eigvals3_closed_form(h):
    """Analytic eigenvalues of a Hermitian 3x3 matrix (trigonometric cubic)."""
    q = np.trace(h).real / 3.0
    b = h - q * np.eye(3)
    p = np.sqrt((np.trace(b @ b).real) / 6.0)
    if p < 1e-300:
        return np.array([q, q, q])
    det = np.linalg.det(b / p).real
    phi = np.arccos(np.clip(det / 2.0, -1.0, 1.0)) / 3.0
    return np.array([
        q + 2 * p * np.cos(phi),
        q + 2 * p * np.cos(phi - 2 * np.pi / 3),
        q + 2 * p * np.cos(phi + 2 * np.pi / 3),
    ])


def test_trace_norm_matches_cubic_oracle():
    rng = np.random.default_rng(5)

    def random_density(rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    diff = random_density(rng) - random_density(rng)
    expected = np.abs(_eigvals3_closed_form(diff)).sum()
    assert trace_norm_hermitian(diff) == pytest.approx(expected, abs=1e-10)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        trace_norm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("where", ["first-block", "last-block"])
def test_check_hermitian_measures_only_blocks_off_their_mirror(where):
    # a deviation in any row block is found, with the same error text and
    # the same Hermitian part as the full |a - a^dag| scan
    n = 3 * linalg._HERM_ROWS + 5
    a = _random_hermitian(n, 6)
    i, j = (1, 2) if where == "first-block" else (n - 1, n - 3)
    a[i, j] += 1e-9
    h = linalg._check_hermitian(a)
    assert np.array_equal(h, 0.5 * (a + a.conj().T))
    assert linalg._check_hermitian(h) is h
    a[i, j] += 1e-3
    with pytest.raises(ValueError, match=r"max \|a - a\^dag\| = 1\.000e-03 exceeds 1e-08"):
        linalg._check_hermitian(a)


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


class _FakeDriver:
    """Stand-in for the two-stage binding: records the n of each call and
    returns ``info``."""

    def __init__(self, info):
        self.info, self.calls = info, []

    def __call__(self, layout, jobz, uplo, n, a, lda, w):
        self.calls.append(n)
        return self.info


two_stage = pytest.mark.skipif(linalg._ZHEEVD_2STAGE is None,
                               reason="numpy's LAPACK has no zheevd_2stage")


def _skip_unless_scipy_openblas():
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]["name"]
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy links {lapack}, not scipy-openblas")


def test_two_stage_binding_resolves_on_scipy_openblas():
    # a numpy whose LAPACK renamed the symbol would otherwise fall back to
    # eigvalsh silently and lose the two-stage speed
    _skip_unless_scipy_openblas()
    assert linalg._ZHEEVD_2STAGE is not None


def test_thread_binding_resolves_on_scipy_openblas():
    # without it every BLAS call of a CLI run would keep the inherited
    # threads, the second of which only spins on small matrices
    _skip_unless_scipy_openblas()
    assert linalg._GET_THREADS is not None and linalg._SET_THREADS is not None
    assert linalg._INHERITED >= 1
    before = linalg._GET_THREADS()
    with linalg.blas_threads(1):
        assert linalg._GET_THREADS() == 1
        with linalg.blas_threads_for(linalg._THREADED_MIN_DIM):
            assert linalg._GET_THREADS() == linalg._INHERITED
        assert linalg._GET_THREADS() == 1
    assert linalg._GET_THREADS() == before


@two_stage
def test_two_stage_eigenvalues_match_eigvalsh():
    a = _random_hermitian(linalg._TWO_STAGE_MIN_DIM, 0)
    kept = a.copy()
    ref = np.linalg.eigvalsh(a)
    got = linalg.hermitian_eigenvalues(a)
    assert np.array_equal(a, kept)
    assert np.all(np.diff(got) >= 0)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@two_stage
def test_trace_norm_falls_back_without_two_stage_binding(monkeypatch):
    a = _random_hermitian(1100, 1)
    two_stage_norm = trace_norm_hermitian(a.copy())
    monkeypatch.setattr(linalg, "_ZHEEVD_2STAGE", None)
    fallback = trace_norm_hermitian(a)
    assert fallback == pytest.approx(two_stage_norm, rel=1e-12)


def test_two_stage_driver_runs_from_cutoff_and_names_failure(monkeypatch):
    fake = _FakeDriver(info=3)
    monkeypatch.setattr(linalg, "_ZHEEVD_2STAGE", fake)
    n = linalg._TWO_STAGE_MIN_DIM
    assert trace_norm_hermitian(np.eye(n - 1)) == pytest.approx(n - 1)
    with pytest.raises(np.linalg.LinAlgError, match=f"{n}x{n} matrix"):
        trace_norm_hermitian(np.eye(n))
    assert fake.calls == [n]


def test_zheevd_runs_below_cutoff_and_names_failure(monkeypatch):
    fake = _FakeDriver(info=2)
    monkeypatch.setattr(linalg, "_ZHEEVD", fake)
    monkeypatch.setattr(linalg, "_ZHEEVD_2STAGE", None)
    for n in (1, 9, linalg._TWO_STAGE_MIN_DIM):
        with pytest.raises(np.linalg.LinAlgError, match=f"{n}x{n} matrix"):
            trace_norm_hermitian(np.eye(n))
    assert fake.calls == [1, 9, linalg._TWO_STAGE_MIN_DIM]


zheevd = pytest.mark.skipif(linalg._ZHEEVD is None, reason="numpy's LAPACK has no LAPACKE zheevd")


@zheevd
@pytest.mark.parametrize("n", [1, 2, 9, 27, 81, 243, 256, 729])
def test_zheevd_has_the_bits_of_eigvalsh(n):
    # numpy's eigvalsh runs the same zheevd on its own copy
    a = _random_hermitian(n, n)
    kept = a.copy()
    ref = np.linalg.eigvalsh(a)
    assert np.array_equal(linalg.hermitian_eigenvalues(a), ref)
    assert np.array_equal(a, kept)
    # the norm solves the matrix in place
    assert trace_norm_hermitian(a) == float(np.abs(ref).sum())
    assert n == 1 or not np.array_equal(a, kept)


def test_eigvalsh_falls_back_to_numpy_without_zheevd(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(linalg, "_ZHEEVD", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: seen.append(h.shape[0]) or eigvalsh(h))
    a = _random_hermitian(27, 7)
    kept = a.copy()
    assert trace_norm_hermitian(a) == float(np.abs(eigvalsh(kept)).sum())
    assert seen == [27] and np.array_equal(a, kept)


def test_nan_rejected_before_two_stage_solve(monkeypatch):
    fake = _FakeDriver(info=0)
    monkeypatch.setattr(linalg, "_ZHEEVD_2STAGE", fake)
    a = np.eye(linalg._TWO_STAGE_MIN_DIM, dtype=complex)
    a[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        trace_norm_hermitian(a)
    assert fake.calls == []


def test_difference_distances_frobenius_of_original_difference():
    from fcs_spectral.analysis import difference_distances

    diff = _random_hermitian(linalg._TWO_STAGE_MIN_DIM, 2)
    kept = diff.copy()
    td, hs = difference_distances(diff)
    assert hs == frobenius_norm(kept)
    assert td == 0.5 * trace_norm_hermitian(kept.copy())
    if linalg._ZHEEVD_2STAGE is not None:
        # the solve took the matrix over
        assert not np.array_equal(diff, kept)


@pytest.mark.parametrize("seed", range(200))
def test_weyl_singular_value_perturbation(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(2, 12, size=2)
    a = rng.standard_normal((rows, cols))
    e = rng.standard_normal((rows, cols)) * rng.uniform(0.01, 2.0)
    s = np.linalg.svd(a, compute_uv=False)
    s_t = np.linalg.svd(a + e, compute_uv=False)
    assert np.all(np.abs(s - s_t) <= operator_norm_2to2(e) + 1e-12)


@pytest.mark.parametrize("seed", range(100))
def test_pseudoinverse_perturbation_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    rows, cols = rng.integers(2, 10, size=2)
    a = rng.standard_normal((rows, cols))
    a_t = a + rng.standard_normal((rows, cols)) * rng.uniform(1e-4, 0.5)
    lhs = operator_norm_2to2(pseudoinverse(a_t) - pseudoinverse(a))
    rhs = GOLDEN * max(operator_norm_2to2(pseudoinverse(a_t)),
                       operator_norm_2to2(pseudoinverse(a))) ** 2 \
        * operator_norm_2to2(a_t - a)
    assert lhs <= rhs + 1e-9


def test_blas_threads_caps_at_inherited_and_restores(fake_blas_threads):
    fake = fake_blas_threads
    with linalg.blas_threads(1):
        assert fake.count == 1
        with linalg.blas_threads(8):
            assert fake.count == 2
        with linalg.blas_threads(1):
            pass
    with pytest.raises(RuntimeError), linalg.blas_threads(1):
        raise RuntimeError
    assert fake.calls == [1, 2, 1, 1, 1, 2, 1, 2]
    assert fake.count == 2


def test_blas_threads_does_nothing_without_binding(monkeypatch, fake_blas_threads):
    # no inherited count is read unless both symbols bind
    monkeypatch.setattr(linalg, "_INHERITED", None)
    with linalg.blas_threads(1), linalg.blas_threads_for(linalg._THREADED_MIN_DIM):
        pass
    assert fake_blas_threads.calls == []


def test_eigensolve_gets_inherited_threads_from_cutoff(monkeypatch, fake_blas_threads):
    fake = fake_blas_threads
    fake.count = 1
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(linalg, "_ZHEEVD", None)
    monkeypatch.setattr(linalg, "_ZHEEVD_2STAGE", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: seen.append(fake.count) or eigvalsh(h))
    n = linalg._THREADED_MIN_DIM
    assert trace_norm_hermitian(np.eye(n - 1)) == pytest.approx(n - 1)
    assert fake.calls == []
    assert trace_norm_hermitian(np.eye(n)) == pytest.approx(n)
    assert fake.calls == [2, 1] and seen == [1, 2]


def test_blas_threads_for_leaves_the_count_off_the_main_thread(fake_blas_threads):
    # the count is one for the process: a pool thread must not raise it
    # while other threads run their trials at one BLAS thread
    from concurrent.futures import ThreadPoolExecutor

    def solve_size():
        with linalg.blas_threads_for(3 ** 7):
            return fake_blas_threads.count

    with linalg.blas_threads(1), ThreadPoolExecutor(1) as pool:
        assert pool.submit(solve_size).result(timeout=60) == 1
        assert fake_blas_threads.calls == [1]
        assert solve_size() == 2
    assert fake_blas_threads.calls == [1, 2, 1, 2]


def test_dense_product_gets_inherited_threads_from_cutoff(fake_blas_threads):
    # qubit products of 2^(t-1) < cutoff <= 2^t rows
    from fcs_spectral import fcs

    fake = fake_blas_threads
    fake.count = 1
    r = fcs.from_cstar(fcs.random_cstar(2, 2, seed=0))
    t = (linalg._THREADED_MIN_DIM - 1).bit_length()
    fcs.dense_product(r.rho, [r.kappa] * (t - 1), r.e)
    assert fake.calls == []
    fcs.dense_product(r.rho, [r.kappa] * t, r.e)
    assert fake.calls == [2, 1]


# Minor page faults of rounds of eight 512 KiB blocks made and freed; under
# glibc's default thresholds the heap top is trimmed after every round, and
# under ``keep_heap``'s it is kept.  ``library`` is counted after a package
# call, ``kept`` after keep_heap, in one fresh process.
_FAULT_PROBE = """
import resource
import numpy as np
import fcs_spectral
from fcs_spectral import linalg

def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(ROUNDS):
        blocks = [np.ones(1 << 16) for _ in range(8)]
        del blocks
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

fcs_spectral.marginal(fcs_spectral.from_cstar(fcs_spectral.aklt()), 5)
library = faults()
first, again = linalg.keep_heap(), linalg.keep_heap()
print(library, faults(), first == again == {"mmap": 4 << 20, "trim": 8 << 20, "arenas": 1})
"""


@pytest.mark.skipif(linalg._MALLOPT is None, reason="the C library is not glibc")
def test_keep_heap_keeps_freed_blocks_and_only_when_called():
    rounds = 50
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE.replace("ROUNDS", str(rounds))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    library, kept, same = proc.stdout.split()
    # the package left the default thresholds: at least half of each round's
    # 4 MiB was given back and faulted in again
    assert int(library) >= rounds * (4 << 20) // os.sysconf("SC_PAGESIZE") // 2
    assert int(library) >= 5 * int(kept)
    assert same == "True"
