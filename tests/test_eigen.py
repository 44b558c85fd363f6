import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from meancert import eigen
from meancert.eigen import (
    SymPDMatrix,
    congruence,
    eig_sym,
    loewner_geq_zero,
    mat_fpow,
)
from meancert.errors import DomainError, InputError, NumericalError


def random_symmetric(rng, n):
    x = rng.standard_normal((n, n))
    return x + x.T


def random_pd(rng, n, lo=0.1, hi=10.0):
    q, r = np.linalg.qr(rng.standard_normal((n, n))) if n > 1 else (np.eye(1), np.eye(1))
    if n > 1:
        q = q * np.sign(np.diag(r))
    evals = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return SymPDMatrix((q * evals) @ q.T)


class TestEigSym:
    def test_diagonal_passthrough(self):
        dec = eig_sym(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(dec.eigenvalues, [2, 3])
        np.testing.assert_allclose(np.abs(dec.basis), np.eye(2), atol=1e-14)

    def test_exchange_matrix(self):
        dec = eig_sym([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1], atol=1e-14)
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(np.abs(dec.basis), [[r, r], [r, r]], atol=1e-14)

    def test_identity(self):
        for n in (1, 3, 6):
            dec = eig_sym(np.eye(n))
            np.testing.assert_allclose(dec.eigenvalues, np.ones(n))

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            x = random_symmetric(rng, n)
            dec = eig_sym(x)
            nx = np.linalg.norm(x)
            assert np.linalg.norm(dec.apply(dec.eigenvalues) - x) <= 1e-10 * max(nx, 1e-300)
            assert np.linalg.norm(dec.basis.T @ dec.basis - np.eye(n)) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_zero_matrix(self):
        dec = eig_sym(np.zeros((3, 3)))
        np.testing.assert_array_equal(dec.eigenvalues, np.zeros(3))

    def test_overflowing_norm_is_numerical_failure(self):
        big = 8e307
        with pytest.raises(NumericalError):
            eig_sym([[big, big], [big, -big]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            eig_sym(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            eig_sym([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_oversized(self):
        with pytest.raises(InputError):
            eig_sym(np.eye(513))

    def test_unconverged_sweeps_are_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 0)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym([[2.0, 1.0], [1.0, 3.0]])
        # an already-diagonal matrix needs no sweep and still succeeds
        np.testing.assert_array_equal(eig_sym(np.diag([3.0, 2.0])).eigenvalues, [2.0, 3.0])


def kernel_cases():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 8, 12):
        yield f"random-{n}", random_symmetric(rng, n)
    yield "diagonal-5", np.diag([4.0, -1.0, 2.5, 0.0, 7.0])
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    q = q * np.sign(np.diag(r))
    yield "repeated-6", (q * [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]) @ q.T


def round_robin_cases():
    rng = np.random.default_rng(11)
    for n in (16, 17, 31, 32, 48, 64):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        x = random_symmetric(rng, n)
        yield f"random-{n}", x
        yield f"repeated-{n}", (q * np.resize([1.0, 2.0, 5.0], n)) @ q.T
        yield f"scalar-{n}", 3.0 * np.eye(n)
        yield f"diagonal-{n}", np.diag(rng.standard_normal(n))
        yield f"graded-{n}", (q * np.logspace(-8, 0, n)) @ q.T
        yield f"huge-{n}", 1e150 * x
        yield f"tiny-{n}", 1e-150 * x
        yield f"indefinite-{n}", (q * rng.uniform(-1.0, 1.0, n)) @ q.T
        # equal diagonal entries: every first rotation has theta = 0
        yield f"constant-diagonal-{n}", np.ones((n, n)) + np.eye(n)
        # off-diagonal entries near 1e-13 against diagonal gaps of 1: |theta| > 1e12
        yield f"near-diagonal-{n}", np.diag(np.arange(1.0, n + 1.0)) + 1e-13 * x


KERNEL_PATHS = ("cyclic-lists", "round-robin")
# the plain-Python cyclic kernel is checked up to this dimension, the round-robin one on all cases
CYCLIC_TEST_MAX_DIM = 17


@pytest.fixture(params=KERNEL_PATHS)
def kernel_path(request, monkeypatch):
    """Send every dimension to one kernel."""
    monkeypatch.setattr(eigen, "ROUND_ROBIN_MIN_DIM",
                        1 if request.param == "round-robin" else eigen.MAX_DIM + 1)
    return request.param


class TestKernelsMatchLapack:
    """Each kernel, given every dimension it is tested on, must match LAPACK
    to 1e-13 relative, and give the same eigenvalue bits without vectors."""

    @pytest.mark.parametrize(
        "kernel_path,name,x",
        [pytest.param(kernel, name, x, id=f"{kernel}-{name}")
         for kernel in KERNEL_PATHS
         for name, x in [*kernel_cases(), *round_robin_cases()]
         if kernel == "round-robin" or len(x) <= CYCLIC_TEST_MAX_DIM],
        indirect=["kernel_path"])
    def test_matches_lapack(self, kernel_path, name, x):
        n = len(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = eig_sym(x)
        scale = np.linalg.norm(x, 2)
        ref = np.linalg.eigvalsh(x)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-13 * scale
        assert np.linalg.norm(dec.basis.T @ dec.basis - np.eye(n), 2) <= 1e-13
        assert np.linalg.norm(dec.apply(dec.eigenvalues) - x, 2) <= 1e-13 * scale
        if name.startswith(("scalar", "diagonal")) or n == 1:
            assert dec.sweeps == 0
        else:
            assert 1 <= dec.sweeps <= eigen.MAX_SWEEPS
        values_only = eig_sym(x, vectors=False)
        np.testing.assert_array_equal(values_only.eigenvalues, dec.eigenvalues)
        assert values_only.sweeps == dec.sweeps and values_only.basis is None


class TestRoundRobinKernel:
    """eig_sym hands n >= ROUND_ROBIN_MIN_DIM to the round-robin kernel."""

    def test_repeat_call_same_bits(self):
        x = random_symmetric(np.random.default_rng(12), 33)
        first, second = eig_sym(x), eig_sym(x)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.basis, second.basis)
        assert first.sweeps == second.sweeps

    def test_unconverged_sweeps_are_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 0)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(random_symmetric(np.random.default_rng(13), 16))
        dec = eig_sym(np.diag(np.arange(16.0, 0.0, -1.0)))
        np.testing.assert_array_equal(dec.eigenvalues, np.arange(1.0, 17.0))
        assert dec.sweeps == 0

    def test_dispatch_at_the_crossover(self, monkeypatch):
        used = []

        def spy(name, kernel):
            def record(*args):
                used.append(name)
                return kernel(*args)
            monkeypatch.setattr(eigen, name, record)

        spy("_jacobi_kernel", eigen._jacobi_kernel)
        spy("_round_robin_kernel", eigen._round_robin_kernel)
        rng = np.random.default_rng(14)
        for n in (2, eigen.ROUND_ROBIN_MIN_DIM - 1, eigen.ROUND_ROBIN_MIN_DIM, 40):
            eig_sym(random_symmetric(rng, n))
        assert used == ["_jacobi_kernel", "_jacobi_kernel",
                        "_round_robin_kernel", "_round_robin_kernel"]

    def test_rotated_entries_are_set_exactly(self):
        # 2 x 2 blocks on round 0's pairs: one round diagonalizes the matrix
        n, rng = 16, np.random.default_rng(16)
        p, q = np.divmod(eigen._round_robin_pairs(n)[0, n:3 * n // 2], n)
        x = np.diag(rng.uniform(1.0, 2.0, n))
        x[p, q] = x[q, p] = rng.uniform(-1.0, 1.0, n // 2)
        a, vec = x.copy(), np.eye(n)
        norm = float(np.linalg.norm(x))
        assert eigen._round_robin_kernel(a, vec, 1, eigen.OFF_DIAG_REL_TOL, norm) == 1
        assert np.count_nonzero(a - np.diag(np.diag(a))) == 0
        app, aqq, apq = x[p, p], x[q, q], x[p, q]
        theta = 0.5 * (aqq - app) / apq
        t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        np.testing.assert_allclose(a[p, p], app - t * apq, rtol=1e-15)
        np.testing.assert_allclose(a[q, q], aqq + t * apq, rtol=1e-15)

    def test_every_pair_meets_once_per_sweep(self):
        for n in (2, 3, 16, 17):
            big = n + n % 2
            rounds = eigen._round_robin_pairs(n)
            assert rounds.shape == (big - 1, 2 * big)
            pq = rounds[:, 2 * (big // 2):3 * (big // 2)]
            p, q = np.divmod(pq, big)
            assert np.all(p < q)
            for rp, rq in zip(p, q):  # disjoint within a round
                assert len(set(rp) | set(rq)) == big
            assert len(set(zip(p.ravel(), q.ravel()))) == big * (big - 1) // 2


class TestEigenvaluesOnly:
    """``vectors=False`` skips the eigenvector basis and nothing else: the
    eigenvalues and the sweep count keep the full solve's bits on each kernel."""

    @pytest.mark.parametrize("n", (1, 2, 14, 15, 16, 17, 32))
    def test_same_bits_as_full_solve(self, kernel_path, n):
        x = random_symmetric(np.random.default_rng(100 + n), n)
        full, values_only = eig_sym(x), eig_sym(x, vectors=False)
        assert full.basis.shape == (n, n) and values_only.basis is None
        np.testing.assert_array_equal(values_only.eigenvalues, full.eigenvalues)
        assert values_only.sweeps == full.sweeps
        assert full.sweeps >= (1 if n > 1 else 0)

    def test_zero_matrix(self, kernel_path):
        dec = eig_sym(np.zeros((3, 3)), vectors=False)
        np.testing.assert_array_equal(dec.eigenvalues, np.zeros(3))
        assert dec.basis is None and dec.sweeps == 0

    def test_unconverged_sweeps_are_numerical_failure(self, kernel_path, monkeypatch):
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 0)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(random_symmetric(np.random.default_rng(17), 16), vectors=False)


def test_sweeps_recorded():
    rng = np.random.default_rng(15)
    assert eig_sym(np.zeros((3, 3))).sweeps == 0
    assert eig_sym(np.diag([1.0, 2.0])).sweeps == 0
    x = random_symmetric(rng, 5)
    n_sweeps = eigen._jacobi_kernel((0.5 * (x + x.T)).tolist(), np.eye(5).tolist(),
                                     eigen.MAX_SWEEPS, eigen.OFF_DIAG_REL_TOL,
                                     float(np.sqrt(np.sum(np.square(x)))))
    assert eig_sym(x).sweeps == n_sweeps >= 1
    assert eigen.SpectralDecomposition(np.ones(2), np.eye(2)).sweeps == 0


_HASH_EIG_SYM = """
import hashlib, numpy as np
from meancert.eigen import eig_sym
for n in (32, 64):
    x = np.random.default_rng(n).standard_normal((n, n))
    dec = eig_sym(x + x.T)
    print(hashlib.sha256(dec.eigenvalues.tobytes() + dec.basis.tobytes()).hexdigest())
"""


def test_same_bits_at_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(eigen.__file__))
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _HASH_EIG_SYM], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        hashes.append(out.stdout.split())
    assert len(hashes[0]) == 2
    assert hashes[0] == hashes[1]


class TestSymPDMatrix:
    def test_symmetrizes_roundoff_noise(self):
        m = SymPDMatrix([[2.0, 1.0 + 5e-13], [1.0, 2.0]])
        assert m.mat[0, 1] == m.mat[1, 0]

    def test_rejects_asymmetry(self):
        with pytest.raises(InputError):
            SymPDMatrix([[2.0, 1.1], [1.0, 2.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            SymPDMatrix([[1.0, 0.0], [0.0, -1.0]])

    def test_rejects_near_singular(self):
        with pytest.raises(DomainError):
            SymPDMatrix(np.diag([1.0, 1e-15]))

    def test_spectral_cache(self):
        m = SymPDMatrix([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(m.eigenvalues, [1, 3], atol=1e-13)

    def test_from_spectrum_roundtrip(self):
        rng = np.random.default_rng(1)
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        q = q * np.sign(np.diag(r))
        evals = np.array([0.5, 1.0, 2.0, 4.0])
        m = SymPDMatrix.from_spectrum(evals, q)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(m.mat)), evals, rtol=1e-12)


class TestMatFpow:
    def test_diagonal_sqrt(self):
        r = mat_fpow(SymPDMatrix(np.diag([4.0, 9.0])), 0.5)
        np.testing.assert_allclose(r.mat, np.diag([2.0, 3.0]), atol=1e-13)

    def test_zeroth_power_is_identity(self):
        rng = np.random.default_rng(2)
        m = random_pd(rng, 5)
        np.testing.assert_allclose(mat_fpow(m, 0.0).mat, np.eye(5), atol=1e-12)

    def test_inverse(self):
        r = mat_fpow(SymPDMatrix([[2.0]]), -1.0)
        np.testing.assert_allclose(r.mat, [[0.5]], rtol=1e-14)

    def test_first_power_identity_map(self):
        rng = np.random.default_rng(3)
        m = random_pd(rng, 4)
        np.testing.assert_allclose(mat_fpow(m, 1.0).mat, m.mat,
                                   rtol=1e-12, atol=1e-12)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_pd(rng, int(rng.integers(1, 7)))
            back = mat_fpow(mat_fpow(m, 0.5), 2.0)
            assert np.linalg.norm(back.mat - m.mat) <= 1e-9 * np.linalg.norm(m.mat)

    def test_power_addition(self):
        rng = np.random.default_rng(5)
        for p, q in [(0.5, 0.5), (-0.3, 0.8), (1.5, -1.0)]:
            m = random_pd(rng, 5)
            lhs = mat_fpow(m, p).mat @ mat_fpow(m, q).mat
            rhs = mat_fpow(m, p + q).mat
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_reuses_cached_decomposition(self, monkeypatch):
        rng = np.random.default_rng(8)
        m = random_pd(rng, 4)

        def no_solve(x):
            raise AssertionError("mat_fpow re-solved the eigenproblem")

        monkeypatch.setattr(eigen, "eig_sym", no_solve)
        r = mat_fpow(m, 1.5)
        assert isinstance(r, SymPDMatrix)
        np.testing.assert_array_equal(r.eigenvalues, np.power(m.eigenvalues, 1.5))
        np.testing.assert_array_equal(r.eigenvectors, m.eigenvectors)


class TestCongruence:
    def test_orthogonal_on_identity(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(congruence(np.eye(4), q), np.eye(4), atol=1e-13)

    def test_diagonal(self):
        r = congruence(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
        np.testing.assert_allclose(r, np.diag([4.0, 2.0]))

    def test_identity_transform(self):
        rng = np.random.default_rng(7)
        x = random_symmetric(rng, 3)
        np.testing.assert_allclose(congruence(x, np.eye(3)), x)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            congruence(np.eye(3), np.eye(2))


class TestLoewner:
    def test_psd_difference_holds(self):
        v = loewner_geq_zero(np.diag([0.0, 1.0]))
        assert v.holds
        assert v.min_eig == pytest.approx(0.0, abs=1e-14)

    def test_indefinite_fails(self):
        v = loewner_geq_zero(np.diag([1.0, -1.0]))
        assert not v.holds
        assert v.min_eig == pytest.approx(-1.0)

    def test_zero_matrix_holds(self):
        assert loewner_geq_zero(np.zeros((4, 4))).holds

    def test_self_difference(self):
        rng = np.random.default_rng(8)
        x = random_symmetric(rng, 5)
        v = loewner_geq_zero(x - x, 1e-15)
        assert v.holds and v.min_eig == 0.0

    def test_tolerance_is_relative(self):
        x = np.diag([1e6, -1e-4])
        assert loewner_geq_zero(x, 1e-9).holds
        assert not loewner_geq_zero(x, 1e-12).holds
