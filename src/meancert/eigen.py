"""Dense symmetric eigendecomposition and the matrix functions built on it.

The eigensolver is Jacobi rotations with a rotation threshold: accurate to
machine precision for the desk-scale dimensions this package targets
(n <= 512), with no dependence on LAPACK.  Everything downstream
(fractional powers, congruences, Loewner-order checks) goes through it.

There are two kernels with one convergence contract, and the dimension
picks one.  Below ``ROUND_ROBIN_MIN_DIM`` the cyclic kernel rotates one pair
at a time as plain Python on nested lists; from there up the round-robin
kernel applies n/2 disjoint rotations at once through numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericalError

MAX_DIM = 512
MAX_SWEEPS = 100
OFF_DIAG_REL_TOL = 1e-14
SYMMETRY_REL_TOL = 1e-12
PD_REL_MARGIN = 1e-12
DEFAULT_LOEWNER_TOL = 1e-9
# Smallest dimension the round-robin kernel takes; below it the
# plain-Python cyclic kernel is faster (eig_sym timings, CHANGES.md).
ROUND_ROBIN_MIN_DIM = 15


def _jacobi_kernel(a, vec, max_sweeps, rel_tol, norm):
    """Cyclic Jacobi with threshold; diagonalizes ``a`` in place.

    ``a`` is a list of n rows, each a list of n floats, and ``vec`` a list
    of rows to rotate along with it: the n rows of the identity for
    eigenvectors, or ``[]`` for eigenvalues only.  The updates of ``a``
    never read ``vec``, so the eigenvalues keep their bits either way.
    Lists are indexed row by row (``a[i][j]``), which plain Python runs
    without boxing numpy scalars.

    Returns the number of sweeps used, or -1 if the off-diagonal mass did
    not drop below ``rel_tol * norm`` within ``max_sweeps`` sweeps (NaN
    contamination also lands here, since NaN fails every comparison).
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
                if abs(theta) > 1e12:
                    t = 0.5 / theta
                else:
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


def _round_robin_pairs(n):
    """Flat indices of each round's rotations in an even-sized work matrix.

    The work matrix is n x n, padded to even N.  Row r of the result lists
    the (p, p), (q, q), (p, q) and (q, p) entries, in four blocks of N/2,
    of round r's disjoint pairs p < q.  The N - 1 rounds of this Brent-Luk
    (circle method) schedule meet every pair once.
    """
    big = n + n % 2
    r = np.arange(big - 1)[:, None]
    k = np.arange(1, big // 2)
    # index big - 1 stays put; the others move one place each round
    p = np.concatenate([r, (r + k) % (big - 1)], axis=1)
    q = np.concatenate([np.full_like(r, big - 1), (r - k) % (big - 1)], axis=1)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    return np.concatenate([lo * (big + 1), hi * (big + 1), lo * big + hi, hi * big + lo],
                          axis=1)


def _round_robin_kernel(a, vec, max_sweeps, rel_tol, norm):
    """Round-robin Jacobi with threshold; diagonalizes the ndarray ``a`` in place.

    Each round rotates n/2 disjoint pairs at once: their angles are computed
    as vectors, and one rotation matrix J holding the pairs' 2 x 2 blocks
    applies A <- J^T A J and V <- V J; V has no rows when ``vec`` has none.
    Odd n gets a zero row and column, whose pair never reaches the rotation
    threshold.  The convergence test, the rotation threshold, the angle
    (t = sgn(theta) / (|theta| + sqrt(theta^2 + 1)), or 0.5 / theta above
    |theta| = 1e12), the exact update of each rotated 2 x 2 block and the
    return value are those of ``_jacobi_kernel``; the rounding differs, at
    about 1e-15 relative.
    """
    n = len(a)
    big = n + n % 2
    half = big // 2
    x = np.zeros((big, big))
    x[:n, :n] = a
    v = np.eye(big) if len(vec) else np.zeros((0, big))
    v[:n, :n] = vec
    rotate_floor = 0.01 * rel_tol * norm / (n * n)
    rounds = _round_robin_pairs(n)
    for sweep in range(max_sweeps + 1):
        off = x - np.diag(np.diagonal(x))
        if math.sqrt(float(np.sum(off * off))) <= rel_tol * norm:
            a[...] = x[:n, :n]
            vec[...] = v[:n, :n]
            return sweep
        if sweep == max_sweeps:
            break
        for idx in rounds:
            entries = x.reshape(-1)[idx]
            app, aqq, apq = entries[:half], entries[half:2 * half], entries[2 * half:3 * half]
            rotate = np.abs(apq) > rotate_floor
            # + 0.0 turns -0.0 into +0.0: a zero angle turns by +pi/4, as in the cyclic kernel
            theta = 0.5 * (aqq - app) / np.where(rotate, apq, 1.0) + 0.0
            t = 1.0 / (theta + np.copysign(np.hypot(theta, 1.0), theta))
            huge = np.abs(theta) > 1e12
            if huge.any():
                t[huge] = 0.5 / theta[huge]
            t = np.where(rotate, t, 0.0)
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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending), an orthogonal eigenvector basis, and the
    Jacobi sweeps that produced them (0 when none ran).  ``basis`` is None
    when the solve asked for eigenvalues only; ``apply`` then cannot run."""

    eigenvalues: np.ndarray
    basis: np.ndarray | None
    sweeps: int = 0

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Assemble ``Q diag(values) Q^T``, explicitly symmetrized."""
        m = (self.basis * values) @ self.basis.T
        return 0.5 * (m + m.T)


def _as_square_float(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InputError("empty matrix")
    if arr.shape[0] > MAX_DIM:
        raise InputError(f"dimension {arr.shape[0]} exceeds cap {MAX_DIM}")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return arr


def eig_sym(x, vectors: bool = True) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by Jacobi rotations.

    With ``vectors=False`` no eigenvector basis is built and ``basis`` is
    None; the eigenvalues and sweep count keep the same bits.

    Dimensions from ``ROUND_ROBIN_MIN_DIM`` up use the round-robin kernel
    and smaller ones the cyclic kernel.  Raises NumericalError if the
    matrix norm overflows or the sweeps fail to converge (cap of 100 sweeps;
    convergence is off-diagonal Frobenius mass below 1e-14 times the matrix
    norm).
    """
    arr = _as_square_float(x)
    n = arr.shape[0]
    with np.errstate(over="ignore"):  # overflow is caught and reported below
        norm = float(np.sqrt(np.sum(np.square(arr))))
    if not np.isfinite(norm):
        raise NumericalError("matrix Frobenius norm overflowed")
    if norm == 0.0:
        return SpectralDecomposition(np.zeros(n), np.eye(n) if vectors else None)
    a = 0.5 * (arr + arr.T)
    vec = np.eye(n) if vectors else np.zeros((0, n))
    if n >= ROUND_ROBIN_MIN_DIM:
        sweeps = _round_robin_kernel(a, vec, MAX_SWEEPS, OFF_DIAG_REL_TOL, norm)
    else:
        a_rows, vec_rows = a.tolist(), vec.tolist()
        sweeps = _jacobi_kernel(a_rows, vec_rows, MAX_SWEEPS, OFF_DIAG_REL_TOL, norm)
        a, vec = np.array(a_rows), np.array(vec_rows)
    if sweeps < 0:
        raise NumericalError(
            f"Jacobi eigensolver did not converge within {MAX_SWEEPS} sweeps"
        )
    evals = np.diag(a).copy()
    order = np.argsort(evals, kind="stable")
    basis = np.ascontiguousarray(vec[:, order]) if vectors else None
    return SpectralDecomposition(evals[order], basis, sweeps)


class SymPDMatrix:
    """Real symmetric positive-definite matrix with cached spectral data.

    Construction symmetrizes the input (after checking the asymmetry is
    round-off scale), eigendecomposes it eagerly, and enforces positive
    definiteness with a relative margin.  Instances are treated as
    immutable; nothing mutates ``mat`` or the cached decomposition.
    """

    __slots__ = ("mat", "dim", "eigenvalues", "eigenvectors")

    def __init__(self, entries, *, _decomp: SpectralDecomposition | None = None):
        arr = _as_square_float(entries)
        scale = max(1.0, float(np.max(np.abs(arr))))
        asym = float(np.max(np.abs(arr - arr.T)))
        if asym > SYMMETRY_REL_TOL * scale:
            raise InputError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} "
                f"exceeds {SYMMETRY_REL_TOL:.0e} * {scale:.3e}"
            )
        # halve before adding so near-overflow entries survive symmetrization
        self.mat = arr * 0.5 + arr.T * 0.5
        self.dim = arr.shape[0]
        dec = _decomp if _decomp is not None else eig_sym(self.mat)
        lam_min = float(dec.eigenvalues[0])
        lam_max = float(dec.eigenvalues[-1])
        if lam_min <= PD_REL_MARGIN * max(1.0, lam_max):
            raise DomainError(
                f"matrix is not positive definite: smallest eigenvalue {lam_min:.6e}"
            )
        self.eigenvalues = dec.eigenvalues
        self.eigenvectors = dec.basis

    @classmethod
    def from_spectrum(cls, eigenvalues, basis) -> "SymPDMatrix":
        """Build QLQ^T from a known decomposition without re-solving."""
        evals = np.asarray(eigenvalues, dtype=float)
        q = np.asarray(basis, dtype=float)
        order = np.argsort(evals, kind="stable")
        dec = SpectralDecomposition(evals[order], np.ascontiguousarray(q[:, order]))
        return cls(dec.apply(dec.eigenvalues), _decomp=dec)

    def __repr__(self) -> str:
        return f"SymPDMatrix(dim={self.dim})"


def mat_fpow(x: SymPDMatrix, p: float) -> SymPDMatrix:
    """Real power X^p from the cached decomposition, without re-solving."""
    return SymPDMatrix.from_spectrum(np.power(x.eigenvalues, p), x.eigenvectors)


def congruence(x, c) -> np.ndarray:
    """The congruence C^T X C of two arrays, explicitly symmetrized."""
    xm = np.asarray(x, dtype=float)
    cm = np.asarray(c, dtype=float)
    if xm.ndim != 2 or cm.ndim != 2 or xm.shape[1] != cm.shape[0]:
        raise InputError(f"congruence shape mismatch: {xm.shape} vs {cm.shape}")
    r = cm.T @ xm @ cm
    return 0.5 * (r + r.T)


def check_same_dim(a: SymPDMatrix, b: SymPDMatrix):
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True)
class LoewnerVerdict:
    holds: bool
    min_eig: float


def loewner_geq_zero(x, tol_rel: float = DEFAULT_LOEWNER_TOL) -> LoewnerVerdict:
    """Check X >= 0 in the Loewner order, up to a relative slack.

    Holds iff the smallest eigenvalue is at least
    ``-tol_rel * max(1, ||X||_F)``; the eigenvalue is reported either way.
    """
    dec = eig_sym(x, vectors=False)
    min_eig = float(dec.eigenvalues[0])
    norm = float(np.linalg.norm(np.asarray(x, dtype=float)))
    return LoewnerVerdict(min_eig >= -tol_rel * max(1.0, norm), min_eig)
