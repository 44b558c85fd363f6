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

    def test_rejects_empty(self):
        with pytest.raises(InputError, match="empty matrix"):
            eig_sym(np.zeros((0, 0)))

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
        # 2 x 2 blocks on round 0's pairs: one round diagonalizes the matrix.  At
        # rel_tol = 0 a solve converges only once every off-diagonal square is 0,
        # so one sweep is enough only if round 0 zeroed the rotated entries (or
        # left them below 1.5e-162, whose squares underflow) and the rounds after
        # it left the matrix as it was
        n, rng = 16, np.random.default_rng(16)
        p, q = np.divmod(eigen._round_robin_pairs(n)[0, n:3 * n // 2], n)
        x = np.diag(rng.uniform(1.0, 2.0, n))
        x[p, q] = x[q, p] = rng.uniform(-1.0, 1.0, n // 2)
        norm = float(np.linalg.norm(x))
        (diag,), _, sweeps = eigen._round_robin_kernel(x[None], True, 1, 0.0, [norm])
        assert sweeps == [1]
        diag = np.array(diag)
        app, aqq, apq = x[p, p], x[q, q], x[p, q]
        theta = 0.5 * (aqq - app) / apq
        t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        np.testing.assert_allclose(diag[p], app - t * apq, rtol=1e-15)
        np.testing.assert_allclose(diag[q], aqq + t * apq, rtol=1e-15)
        # a matrix that one sweep does not settle exactly is unconverged at rel_tol = 0
        y = random_symmetric(rng, n)
        assert eigen._round_robin_kernel(y[None], False, 1, 0.0, [frobenius(y)])[2] == [-1]

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


def reference_round_robin_kernel(a, vec, max_sweeps, rel_tol, norm):
    """The round-robin kernel written plainly: a fresh J and fresh arrays every round.

    Diagonalizes the symmetric ``a`` in place and rotates ``vec``, the basis
    (the identity, or no rows for eigenvalues only), along with it.  Same
    schedule, threshold, angle, exact block update and sweep count as
    ``eigen._round_robin_kernel``, whose buffers must not change a bit of the
    diagonal, the basis or the sweep count.
    """
    n = len(a)
    big = n + n % 2
    half = big // 2
    x = np.zeros((big, big))
    x[:n, :n] = a
    v = np.eye(big) if len(vec) else np.zeros((0, big))
    v[:n, :n] = vec
    rotate_floor = 0.01 * rel_tol * norm / (n * n)
    for sweep in range(max_sweeps + 1):
        off = x - np.diag(np.diagonal(x))
        if math.sqrt(float(np.sum(off * off))) <= rel_tol * norm:
            a[...] = x[:n, :n]
            vec[...] = v[:n, :n]
            return sweep
        if sweep == max_sweeps:
            break
        for idx in eigen._round_robin_pairs(n):
            entries = x.reshape(-1)[idx]
            app, aqq, apq = entries[:half], entries[half:2 * half], entries[2 * half:3 * half]
            rotate = np.abs(apq) > rotate_floor
            theta = 0.5 * (aqq - app) / np.where(rotate, apq, 1.0) + 0.0
            t = np.where(rotate, 1.0 / (theta + np.copysign(np.hypot(theta, 1.0), theta)), 0.0)
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            j = np.zeros(big * big)
            j[idx] = np.concatenate((c, c, s, -s))
            j = j.reshape(big, big)
            x = j.T @ x @ j
            v = v @ j
            t_apq = t * apq
            kept = np.where(rotate, 0.0, apq)
            x.reshape(-1)[idx] = np.concatenate((app - t_apq, aqq + t_apq, kept, kept))
    return -1


def reference_round_robin_solve(x, vectors, max_sweeps, norm):
    """The reference kernel's diagonal, basis (None for eigenvalues only) and
    sweeps on (X + X^T) / 2, the kernels' results."""
    n = len(x)
    a, vec = 0.5 * (x + x.T), np.eye(n) if vectors else np.zeros((0, n))
    sweeps = reference_round_robin_kernel(a, vec, max_sweeps, eigen.OFF_DIAG_REL_TOL, norm)
    return np.diag(a), vec if vectors else None, sweeps


def assert_same_solve(diag, basis, sweeps, ref_diag, ref_basis, ref_sweeps):
    """A kernel's diagonal, basis and sweep count equal the reference's bit for bit."""
    assert sweeps == ref_sweeps
    assert np.array(diag).tobytes() == np.asarray(ref_diag).tobytes()
    if ref_basis is None:
        assert basis is None
    else:
        assert basis.shape == ref_basis.shape and basis.tobytes() == ref_basis.tobytes()


@pytest.mark.parametrize("name,x", list(round_robin_cases()),
                         ids=[name for name, _ in round_robin_cases()])
def test_round_robin_kernel_matches_reference_bit_for_bit(name, x):
    norm = frobenius(x)
    for vectors in (True, False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (diag,), bases, (sweeps,) = eigen._round_robin_kernel(
                x[None], vectors, eigen.MAX_SWEEPS, eigen.OFF_DIAG_REL_TOL, [norm])
        ref = reference_round_robin_solve(x, vectors, eigen.MAX_SWEEPS, norm)
        assert sweeps >= 0
        assert_same_solve(diag, None if bases is None else bases[0], sweeps, *ref)


def stack_cases(n):
    """Matrices of one size that converge at different sweeps: a zero matrix at
    sweep 0, a diagonal one at sweep 0 too, and random ones that need several."""
    rng = np.random.default_rng(200 + n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return np.array([
        random_symmetric(rng, n),
        np.zeros((n, n)),
        np.diag(rng.standard_normal(n)),
        (q * np.resize([1.0, 2.0, 5.0], n)) @ q.T,  # repeated: more sweeps than the rest
        1e-150 * random_symmetric(rng, n),
        (q * np.logspace(-8, 0, n)) @ q.T,
        random_symmetric(rng, n),
    ])


def frobenius(x):
    return float(np.sqrt(np.sum(np.square(x))))


# eig_stack hands the round-robin kernel stacks with vectors from n = 15 up, and
# eigenvalues-only stacks at every n
@pytest.mark.parametrize("n,vectors", [
    *(pytest.param(n, vectors, id=f"{n}-{'vectors' if vectors else 'values-only'}")
      for n in (15, 16, 17, 32) for vectors in (True, False)),
    *(pytest.param(n, False, id=f"{n}-values-only") for n in range(1, eigen.ROUND_ROBIN_MIN_DIM))])
def test_stacked_kernel_matches_reference_bit_for_bit(n, vectors):
    xs = stack_cases(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagonals, bases, sweeps = eigen._round_robin_kernel(
            xs, vectors, eigen.MAX_SWEEPS, eigen.OFF_DIAG_REL_TOL, [frobenius(x) for x in xs])
    # a 1 x 1 matrix needs no sweep, and a 2 x 2 one at most one
    assert sweeps[1] == sweeps[2] == 0 and len(set(sweeps)) >= min(n, 3)
    assert (bases is None) == (not vectors)
    for i, x in enumerate(xs):
        ref = reference_round_robin_solve(x, vectors, eigen.MAX_SWEEPS, frobenius(x))
        assert sweeps[i] >= 0
        assert_same_solve(diagonals[i], bases[i] if vectors else None, sweeps[i], *ref)


@pytest.mark.parametrize("n", [16, 17])
def test_an_unconverged_matrix_fails_alone(n):
    """One sweep settles the zero matrix (0 sweeps) and a matrix of 2 x 2
    blocks on round 0's pairs (1 sweep), but not a random one, whose diagonal
    and basis are NaN; the others get their solo results."""
    rng = np.random.default_rng(18)
    p, q = np.divmod(eigen._round_robin_pairs(n)[0, n + n % 2:3 * ((n + 1) // 2)], n + n % 2)
    blocks = np.diag(rng.uniform(1.0, 2.0, n))
    inside = q < n  # on odd n, the pair with the padding index is not in the matrix
    blocks[p[inside], q[inside]] = blocks[q[inside], p[inside]] = rng.uniform(-1.0, 1.0,
                                                                              inside.sum())
    xs = np.array([random_symmetric(rng, n), np.zeros((n, n)), blocks])
    norms = [frobenius(x) for x in xs]
    diagonals, bases, sweeps = eigen._round_robin_kernel(xs, True, 1, eigen.OFF_DIAG_REL_TOL,
                                                         norms)
    assert sweeps == [-1, 0, 1]
    assert np.isnan(diagonals[0]).all() and np.isnan(bases[0]).all()
    for i in (1, 2):
        (diag,), solo_bases, (solo_sweeps,) = eigen._round_robin_kernel(
            xs[i:i + 1], True, 1, eigen.OFF_DIAG_REL_TOL, norms[i:i + 1])
        assert_same_solve(diagonals[i], bases[i], sweeps[i], diag, solo_bases[0], solo_sweeps)


def round_robin_stack_sizes(monkeypatch, crossover):
    """Set ``ROUND_ROBIN_STACK_MIN`` to ``crossover`` (unchanged when None)
    and return the list of the sizes of the stacks the round-robin kernel is
    then given."""
    sizes, real = [], eigen._round_robin_kernel

    def spy(a, *args):
        sizes.append(len(a))
        return real(a, *args)

    monkeypatch.setattr(eigen, "_round_robin_kernel", spy)
    if crossover is not None:
        monkeypatch.setattr(eigen, "ROUND_ROBIN_STACK_MIN", crossover)
    return sizes


def with_forced_stack(dims, stacked_dims):
    """(n, crossover) cases: each n of ``dims`` as is, then each n of
    ``stacked_dims`` with the crossover forced to 1, so that below
    ``ROUND_ROBIN_MIN_DIM`` the round-robin kernel solves an eigenvalues-only
    stack."""
    return [*(pytest.param(n, None, id=str(n)) for n in dims),
            *(pytest.param(n, 1, id=f"stacked-round-robin-{n}") for n in stacked_dims)]


def solo_ends(x, round_robin=False):
    """The two ends of ``eig_sym(x, vectors=False)``'s spectrum, as bytes, or
    with ``round_robin`` those of x's own round-robin solve."""
    if not round_robin:
        lam = eig_sym(x, vectors=False).eigenvalues
        return lam[0].tobytes(), lam[-1].tobytes()
    (diag,), _, (sweeps,) = eigen._round_robin_kernel(
        x[None], False, eigen.MAX_SWEEPS, eigen.OFF_DIAG_REL_TOL, [eigen._checked_norm(x)])
    assert sweeps >= 0
    lam = sorted(diag)  # as eig_stack orders it
    return ends_bytes((lam[0], lam[-1]))


def ends_bytes(ends):
    return tuple(np.float64(e).tobytes() for e in ends)


class TestStackedEnds:
    """``_spectrum_ends`` gives each matrix of a stack the two ends of its own
    eigenvalues-only solve, or the error that solve raised."""

    @pytest.mark.parametrize("n,crossover", with_forced_stack([1, 2, 8, 14, 15, 16, 17, 32],
                                                              [1, 2, 8, 14]))
    def test_each_pair_of_ends_is_the_solo_solves(self, n, crossover, monkeypatch):
        """Each matrix of a stack below the crossover gets ``eig_sym``'s ends,
        and of a round-robin stack those of its own round-robin solve."""
        sizes = round_robin_stack_sizes(monkeypatch, crossover)
        xs = stack_cases(n)
        xs[-1] = xs[-1] + 3.0 * np.eye(n)  # positive definite: a verdict that holds
        stacked = eigen._spectrum_ends(xs)
        assert isinstance(stacked, list) and len(stacked) == len(xs)
        # 7 matrices are below the measured crossover, so below ROUND_ROBIN_MIN_DIM
        # only a forced one stacks them
        round_robin = crossover == 1 or n >= eigen.ROUND_ROBIN_MIN_DIM
        assert sizes == ([len(xs)] if round_robin else [])
        for x, got in zip(xs, stacked):
            assert ends_bytes(got) == solo_ends(x, round_robin)
        assert {loewner_geq_zero(x, 1e-9).holds for x in xs} == {True, False}

    @pytest.mark.parametrize("n,crossover", with_forced_stack([1, 2, 8, 14, 15, 16, 17, 32],
                                                              [8, 14]))
    def test_with_vectors_each_solve_is_eig_syms(self, n, crossover, monkeypatch):
        """``eig_stack`` with vectors: each decomposition has ``eig_sym``'s
        bits, and below ``ROUND_ROBIN_MIN_DIM`` no crossover sends it to the
        round-robin kernel."""
        sizes = round_robin_stack_sizes(monkeypatch, crossover)
        xs = stack_cases(n)
        monkeypatch.setattr(eigen, "STACK_MAX_ENTRIES", 3 * n * n)  # parts of 3, 3 and 1
        for x, got in zip(xs, eigen.eig_stack(xs)):
            want = eig_sym(x)
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert got.basis.tobytes() == want.basis.tobytes()
            assert got.sweeps == want.sweeps
        # the round-robin parts, then eig_sym's lone solves
        assert sizes[:3] == ([3, 3, 1] if n >= eigen.ROUND_ROBIN_MIN_DIM else [])

    @pytest.mark.parametrize("n,crossover", with_forced_stack([3, 14, 16], [3, 14]))
    def test_a_failed_solve_is_reported_in_its_place(self, n, crossover, monkeypatch):
        sizes = round_robin_stack_sizes(monkeypatch, crossover)
        rng = np.random.default_rng(19)
        xs = np.array([np.eye(n), np.full((n, n), 1e200), random_symmetric(rng, n),
                       np.diag(np.arange(1.0, n + 1.0))])
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 0)
        got = eigen._spectrum_ends(xs)
        # the matrix whose norm overflows is never handed to a kernel
        round_robin = crossover == 1 or n >= eigen.ROUND_ROBIN_MIN_DIM
        assert sizes == ([len(xs) - 1] if round_robin else [])
        assert isinstance(got[1], NumericalError) and str(got[1]) == \
            "matrix Frobenius norm overflowed"
        assert isinstance(got[2], NumericalError) and str(got[2]) == \
            "Jacobi eigensolver did not converge within 0 sweeps"
        assert ends_bytes(got[0]) == solo_ends(xs[0], round_robin)
        assert ends_bytes(got[3]) == solo_ends(xs[3], round_robin)
        (alone,) = eigen._spectrum_ends(xs[1:2])  # nothing left to solve
        assert str(alone) == "matrix Frobenius norm overflowed"

    @pytest.mark.parametrize("failed", [None, 2], ids=["all-solved", "one-overflows"])
    def test_a_stack_solved_in_parts_gives_the_same_ends(self, failed, monkeypatch):
        n = 16
        xs = stack_cases(n)
        if failed is not None:
            xs[failed] = np.full((n, n), 1e200)
        whole = eigen._spectrum_ends(xs)
        solved = []
        real = eigen._round_robin_kernel

        def spy(a, *args):
            solved.append(len(a))
            return real(a, *args)

        monkeypatch.setattr(eigen, "_round_robin_kernel", spy)
        monkeypatch.setattr(eigen, "STACK_MAX_ENTRIES", 3 * n * n)
        parts = eigen._spectrum_ends(xs)
        assert solved == ([3, 3, 1] if failed is None else [3, 3])
        assert [str(e) if isinstance(e, NumericalError) else ends_bytes(e) for e in parts] == \
            [str(e) if isinstance(e, NumericalError) else ends_bytes(e) for e in whole]

    @pytest.mark.parametrize("n", [2, 16])
    def test_non_finite_entries_are_an_input_error_in_place(self, n):
        xs = np.zeros((3, n, n))
        xs[1, 0, 0] = math.nan
        xs[2, 0, 0] = math.inf
        got = eigen._spectrum_ends(xs)
        assert got[0] == (0.0, 0.0)
        for error in got[1:]:
            assert isinstance(error, InputError) and str(error) == "matrix entries must be finite"


def small_stack_cases(n):
    """Matrices of one size below ``ROUND_ROBIN_MIN_DIM`` for an eigenvalues-only
    round-robin stack: ``stack_cases``, an asymmetric matrix, signed zeros,
    and matrices whose first rotations are skipped at the rotation floor
    while the others' turn."""
    rng = np.random.default_rng(300 + n)
    signed = random_symmetric(rng, n)
    signed[::2, ::2] = -0.0  # -0.0 on and off the diagonal, and among rotated entries
    floored = random_symmetric(rng, n)
    floored[0, 1:] = floored[1:, 0] = 1e-30  # far below the floor: row 0's rotations skip
    return np.array([
        *stack_cases(n),
        rng.standard_normal((n, n)),
        np.full((n, n), -0.0),
        signed,
        floored,
        np.diag(np.arange(1.0, n + 1.0)) + 1e-30 * random_symmetric(rng, n),
    ])


@pytest.mark.parametrize("max_sweeps", [0, 2, eigen.MAX_SWEEPS])
@pytest.mark.parametrize("n", range(1, eigen.ROUND_ROBIN_MIN_DIM))
def test_round_robin_stack_has_each_lone_solves_bits(n, max_sweeps):
    """Below ``ROUND_ROBIN_MIN_DIM``, every diagonal and sweep count of an
    eigenvalues-only round-robin stack is that of the matrix's own
    round-robin solve, by its bytes; a matrix that does not converge within
    ``max_sweeps`` fails alone, with a NaN diagonal."""
    xs = small_stack_cases(n)
    norms = [frobenius(x) for x in xs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagonals, bases, sweeps = eigen._round_robin_kernel(
            xs, False, max_sweeps, eigen.OFF_DIAG_REL_TOL, norms)
    assert bases is None and len(diagonals) == len(sweeps) == len(xs)
    for x, norm, diagonal, used in zip(xs, norms, diagonals, sweeps):
        (solo,), _, (solo_sweeps,) = eigen._round_robin_kernel(
            x[None], False, max_sweeps, eigen.OFF_DIAG_REL_TOL, [norm])
        assert used == solo_sweeps
        if used >= 0:
            assert np.array(diagonal).tobytes() == np.array(solo).tobytes()
        else:
            assert np.isnan(diagonal).all()
    if max_sweeps == eigen.MAX_SWEEPS:
        assert min(sweeps) >= 0
    elif max_sweeps == 0 and n > 1:  # some converge at sweep 0, the others fail alone
        assert 0 in sweeps and -1 in sweeps


def reference_cyclic_kernel(a, vec, max_sweeps, rel_tol, norm):
    """The cyclic kernel written on the full matrix: both triangles and V's columns.

    Diagonalizes the symmetric ``a``, a list of rows, in place, and rotates
    the rows of ``vec`` (the identity's, or none) as V.  Same sweep order,
    threshold, angle and float operations as ``eigen._jacobi_kernel``, whose
    upper-triangle layout and rows of V^T must not change a bit of the
    diagonal, the basis or the sweep count.
    """
    n = len(a)
    rotate_floor = 0.01 * rel_tol * norm / (n * n)
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for i in range(n):
            ai = a[i]
            for j in range(i + 1, n):
                off += 2.0 * ai[j] * ai[j]
        off = math.sqrt(off)
        if off <= rel_tol * norm:
            return sweep
        if sweep == max_sweeps:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if abs(apq) <= rotate_floor:
                    continue
                aq = a[q]
                app = ap[p]
                aqq = aq[q]
                theta = 0.5 * (aqq - app) / apq
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                ap[p] = app - t * apq
                aq[q] = aqq + t * apq
                ap[q] = 0.0
                aq[p] = 0.0
                for i in range(n):
                    if i != p and i != q:
                        ai = a[i]
                        aip = ai[p]
                        aiq = ai[q]
                        ai[p] = aip - s * (aiq + tau * aip)
                        ap[i] = ai[p]
                        ai[q] = aiq + s * (aip - tau * aiq)
                        aq[i] = ai[q]
                for i in range(len(vec)):
                    vi = vec[i]
                    vip = vi[p]
                    viq = vi[q]
                    vi[p] = vip - s * (viq + tau * vip)
                    vi[q] = viq + s * (vip - tau * viq)
    return -1


def generated_dimension_cases():
    """One random symmetric matrix for each dimension the cyclic kernel serves,
    each of which runs its own generated code."""
    rng = np.random.default_rng(19)
    for n in range(1, eigen.ROUND_ROBIN_MIN_DIM):
        yield f"own-code-{n}", random_symmetric(rng, n)


CYCLIC_CASES = [(name, x) for name, x in [*kernel_cases(), *round_robin_cases(),
                                          *generated_dimension_cases()]
                if len(x) <= CYCLIC_TEST_MAX_DIM]


@pytest.mark.parametrize("name,x", CYCLIC_CASES, ids=[name for name, _ in CYCLIC_CASES])
def test_cyclic_kernel_matches_reference_bit_for_bit(name, x):
    n = len(x)
    norm = frobenius(x)
    for vectors in (True, False):
        diag, basis, sweeps = eigen._jacobi_kernel(x, vectors, eigen.MAX_SWEEPS,
                                                   eigen.OFF_DIAG_REL_TOL, norm)
        a, vec = (0.5 * (x + x.T)).tolist(), np.eye(n).tolist() if vectors else []
        ref_sweeps = reference_cyclic_kernel(a, vec, eigen.MAX_SWEEPS, eigen.OFF_DIAG_REL_TOL,
                                             norm)
        assert sweeps >= 0
        # the kernel rotates the rows of V^T, the reference the columns of V
        assert_same_solve(diag, basis, sweeps, np.diag(np.array(a)),
                          np.array(vec) if vectors else None, ref_sweeps)


@pytest.mark.parametrize("n", range(1, eigen.ROUND_ROBIN_MIN_DIM))
def test_generated_upper_triangle_has_numpys_bits(n):
    # an asymmetric matrix, signed zeros on the diagonal and across it, and a
    # tiny entry: (X + X^T) / 2 must round as numpy rounds it
    rng = np.random.default_rng(40 + n)
    x = rng.standard_normal((n, n)) * np.exp(rng.uniform(-3.0, 3.0, (n, n)))
    x[0, 0] = -0.0
    if n > 1:
        x[0, 1], x[1, 0] = 0.0, -0.0
    if n > 2:
        x[2, 0] = 5e-324
    upper, _, _, diagonal = eigen._generate_cyclic(n)
    u = upper(x.tolist())
    symmetric = 0.5 * (x + x.T)
    assert np.array(u).tobytes() == symmetric[np.triu_indices(n)].tobytes()
    assert np.array(diagonal(u)).tobytes() == np.diag(symmetric).tobytes()


@pytest.mark.parametrize("n", [6, 17])
def test_no_solve_writes_its_input(n):
    """Both kernels and every entry point read their input and leave every
    byte of it as it was: C- and Fortran-ordered matrices, strided slices of
    a stack, which the round-robin kernel takes at either dimension."""
    rng = np.random.default_rng(50 + n)
    stack = rng.standard_normal((4, n, 2 * n))
    stack[:, :, ::2] += stack[:, :, ::2].transpose(0, 2, 1)  # symmetric matrices in the slices
    matrices = [rng.standard_normal((n, n)), np.asfortranarray(rng.standard_normal((n, n))),
                stack[1, :, ::2]]
    before = [x.tobytes() for x in (*matrices, stack)]
    for x in matrices:
        for vectors in (True, False):
            dec = eig_sym(x, vectors=vectors)
            assert vectors == (dec.basis is not None and dec.basis.flags.c_contiguous)
            eigen._jacobi_kernel(x, vectors, eigen.MAX_SWEEPS, eigen.OFF_DIAG_REL_TOL,
                                 frobenius(x))
            eigen._round_robin_kernel(x[None], vectors, eigen.MAX_SWEEPS,
                                      eigen.OFF_DIAG_REL_TOL, [frobenius(x)])
        loewner_geq_zero(x)
    slices = stack[::2, :, ::2]
    eigen._spectrum_ends(slices)
    for vectors in (True, False):
        eigen._round_robin_kernel(slices, vectors, eigen.MAX_SWEEPS, eigen.OFF_DIAG_REL_TOL,
                                  [frobenius(x) for x in slices])
    assert [x.tobytes() for x in (*matrices, stack)] == before


def test_each_dimension_is_compiled_once(monkeypatch):
    generate, generated = eigen._generate_cyclic, []

    def spy(n):
        generated.append(n)
        return generate(n)

    monkeypatch.setattr(eigen, "_CYCLIC_CODE", {})
    monkeypatch.setattr(eigen, "_generate_cyclic", spy)
    x = random_symmetric(np.random.default_rng(18), 7)
    first = eig_sym(x)
    assert generated == [7]
    second, values_only = eig_sym(x), eig_sym(x, vectors=False)
    assert generated == [7]
    assert second.eigenvalues.tobytes() == first.eigenvalues.tobytes()
    assert second.basis.tobytes() == first.basis.tobytes()
    assert values_only.eigenvalues.tobytes() == first.eigenvalues.tobytes()


def test_generated_runs_cover_the_cyclic_order_within_the_budget():
    budget = eigen.CYCLIC_ROTATION_BUDGET
    for n in range(1, eigen.ROUND_ROBIN_MIN_DIM):
        _, _, runs, _ = eigen._generate_cyclic(n)
        # entry (i, j) holds 1 + 100 i + j; under an infinite floor every rotation
        # stops at its threshold test, whose abs() call records the pair
        upper = tuple(1.0 + 100 * i + j for i in range(n) for j in range(i, n))
        seen = []

        def record(x):
            seen[-1].append(divmod(int(x) - 1, 100))
            return abs(x)

        for run in runs:
            run.__globals__["abs"] = record
            seen.append([])
            assert run(upper, [], math.inf) == upper
        assert [pq for rotations in seen for pq in rotations] == [
            (p, q) for p in range(n - 1) for q in range(p + 1, n)]
        # every run but the last is full, so a sweep makes as few calls as the budget allows
        assert all(len(rotations) == budget for rotations in seen[:-1])
        assert all(0 < len(rotations) <= budget for rotations in seen)


_RSS_OF_FIRST_SOLVES = """
import resource, numpy as np
from meancert.eigen import eig_sym
x = np.random.default_rng(14).standard_normal((14, 14))
eig_sym(x[:2, :2] + x[:2, :2].T)  # numpy's first-use work, before the baseline
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
eig_sym(x + x.T, vectors=False)
eig_sym(x + x.T)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


# ru_maxrss survives exec, so an interpreter started by this large test process
# would begin at its peak and show no growth; a small launcher in between does not
_LAUNCH = ("import subprocess, sys; "
           "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_first_solves_at_n14_raise_peak_rss_by_under_4mb():
    # one function per run of at most CYCLIC_ROTATION_BUDGET rotations compiles
    # a run's source at a time: about 2.7 MB here, where one function for the
    # whole sweep took about 17 MB; the compile always adds some, so 0 would
    # mean a masked baseline
    src = os.path.dirname(os.path.dirname(eigen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _LAUNCH, _RSS_OF_FIRST_SOLVES], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert 0 < int(out.stdout) < 4 * 1024


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
    *_, n_sweeps = eigen._jacobi_kernel(x, True, eigen.MAX_SWEEPS, eigen.OFF_DIAG_REL_TOL,
                                        frobenius(x))
    assert eig_sym(x).sweeps == n_sweeps >= 1
    y = random_symmetric(rng, 20)
    *_, (n_sweeps,) = eigen._round_robin_kernel(y[None], True, eigen.MAX_SWEEPS,
                                                eigen.OFF_DIAG_REL_TOL, [frobenius(y)])
    assert eig_sym(y).sweeps == n_sweeps >= 1
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


_HASH_STACKED_SOLVE = """
import hashlib, numpy as np
from meancert import eigen
for n in (32, 64):
    x = np.random.default_rng(n).standard_normal((5, n, n))
    norms = [float(np.sqrt(np.sum(np.square(m)))) for m in x]
    diagonals, _, sweeps = eigen._round_robin_kernel(x, False, eigen.MAX_SWEEPS,
                                                     eigen.OFF_DIAG_REL_TOL, norms)
    assert min(sweeps) > 0
    print(hashlib.sha256(np.array(diagonals).tobytes() + np.array(sweeps).tobytes()).hexdigest())
"""


def test_stacked_solve_same_bits_at_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(eigen.__file__))
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _HASH_STACKED_SOLVE], env=env,
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

    def test_given_spectrum_needs_only_positivity(self):
        # the inverse of a matrix with eigenvalues >= 1e12 is below the computed-spectrum margin
        inv = mat_fpow(SymPDMatrix(np.diag([1e13, 2e13])), -1.0)
        np.testing.assert_allclose(inv.eigenvalues, [5e-14, 1e-13], rtol=1e-15)
        with pytest.raises(DomainError):
            SymPDMatrix(inv.mat)
        for evals in ([0.0, 1.0], [-1e-300, 1.0]):
            with pytest.raises(DomainError):
                SymPDMatrix.from_spectrum(evals, np.eye(2))


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
