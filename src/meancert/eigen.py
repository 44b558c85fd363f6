"""Dense symmetric eigendecomposition and the matrix functions built on it.

The eigensolver is Jacobi rotations with a rotation threshold: accurate to
machine precision for the desk-scale dimensions this package targets
(n <= 512), with no dependence on LAPACK.  Everything downstream
(fractional powers, congruences, Loewner-order checks) goes through it.

There are two kernels with one convergence contract, and the dimension
picks one.  Below ``ROUND_ROBIN_MIN_DIM`` the cyclic kernel rotates one pair
at a time in straight-line Python compiled once per dimension; from there up
the round-robin kernel applies n/2 disjoint rotations at once through numpy.
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
# Smallest dimension the round-robin kernel takes; below it the cyclic
# kernel runs (README: the crossover timings, and why it stays at 15).
ROUND_ROBIN_MIN_DIM = 15
# Most rotations of the cyclic kernel's sweep that one generated function
# runs (README: the timings and the peak RSS that chose it)
CYCLIC_ROTATION_BUDGET = 14
# Largest dimension whose symmetrization before the cyclic kernel runs on
# Python floats rather than through two numpy calls, the faster way up to it
_LIST_SYMMETRIZE_MAX_DIM = 6


# Straight-line code of one cyclic sweep per dimension, compiled on its first solve
_CYCLIC_CODE: dict = {}
# Rotation (p, q) of the upper triangle held in locals, and of rows p and q of V^T
_ROTATION = """\
    if not abs({pq}) <= rotate_floor:
        theta = 0.5 * ({qq} - {pp}) / {pq}
        # |theta| <= 1e16 n^2 above the rotation floor, so theta^2 never overflows
        t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
        if theta < 0.0:
            t = -t
        c = 1.0 / sqrt(t * t + 1.0)
        s = t * c
        tau = s / (1.0 + c)
        {pp}, {qq}, {pq} = {pp} - t * {pq}, {qq} + t * {pq}, 0.0
{updates}        if w:
            wp, wq = w[{p}], w[{q}]
            for i in range({n}):
                wpi, wqi = wp[i], wq[i]
                wp[i], wq[i] = wpi - s * (wqi + tau * wpi), wqi + s * (wpi - tau * wqi)
"""
_UPDATE = "        {ip}, {iq} = {ip} - s * ({iq} + tau * {ip}), {iq} + s * ({ip} - tau * {iq})\n"


def _generate_cyclic(n):
    """Compile dimension n's cyclic sweep as straight-line Python.

    Entry (i, j), i <= j, is the local ``a{i}_{j}``, and the upper triangle
    goes in and out as a tuple in row order.  ``off(u)`` sums 2 a_ij^2 over
    i < j in row order.  The sweep's rotations (0, 1), (0, 2), ...,
    (n - 2, n - 1) are cut into consecutive runs of at most
    ``CYCLIC_ROTATION_BUDGET``, one function each: fewer calls per sweep
    than one per pivot row, while the compiler's peak memory stays bounded
    by one run's source.
    """
    def at(i, j):
        return f"a{min(i, j)}_{max(i, j)}"

    upper = "".join(f"a{i}_{j}, " for i in range(n) for j in range(i, n))
    sums = "".join("    off = off" + "".join(f" + 2.0*a{i}_{j}*a{i}_{j}" for j in range(i + 1, n))
                   + "\n" for i in range(n - 1))
    namespace = {"sqrt": math.sqrt}
    exec(compile(f"def off(u):\n    {upper}= u\n    off = 0.0\n{sums}    return off\n",
                 f"<cyclic jacobi n={n} off-norm>", "exec"), namespace)
    order = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    runs = []
    for k in range(0, len(order), CYCLIC_ROTATION_BUDGET):
        body = "".join(_ROTATION.format(
            p=p, q=q, n=n, pp=at(p, p), qq=at(q, q), pq=at(p, q),
            updates="".join(_UPDATE.format(ip=at(i, p), iq=at(i, q))
                            for i in range(n) if i not in (p, q)))
            for p, q in order[k:k + CYCLIC_ROTATION_BUDGET])
        exec(compile(f"def run(u, w, rotate_floor):\n    {upper}= u\n{body}    return {upper}\n",
                     f"<cyclic jacobi n={n} rotations from {k}>", "exec"), namespace)
        runs.append(namespace["run"])
    return namespace["off"], tuple(runs)


def _jacobi_kernel(a, w, max_sweeps, rel_tol, norm):
    """Cyclic Jacobi with threshold; diagonalizes ``a`` in place.

    ``a`` is a list of n rows, each a list of n floats, of which only the
    diagonal and the upper triangle are read and written; the lower triangle
    keeps its input values.  ``w`` is a list of rows rotated along with it,
    the rows of V^T: the n rows of the identity for eigenvectors, or ``[]``
    for eigenvalues only.  The updates of ``a`` never read ``w``, so the
    eigenvalues keep their bits either way.  A sweep runs the code of
    ``_generate_cyclic``: the rotations of the cyclic loop over p < q, with
    their float operations in order, on a triangle held in locals.

    Returns the number of sweeps used, or -1 if the off-diagonal mass did
    not drop below ``rel_tol * norm`` within ``max_sweeps`` sweeps (NaN
    contamination also lands here, since NaN fails every comparison).
    """
    n = len(a)
    if n not in _CYCLIC_CODE:
        _CYCLIC_CODE[n] = _generate_cyclic(n)
    off, runs = _CYCLIC_CODE[n]
    rotate_floor = 0.01 * rel_tol * norm / (n * n)
    upper = [x for i, ai in enumerate(a) for x in ai[i:]]
    for sweep in range(max_sweeps + 1):
        if math.sqrt(off(upper)) <= rel_tol * norm:
            break
        if sweep == max_sweeps:
            sweep = -1
            break
        for run in runs:
            upper = run(upper, w, rotate_floor)
    for i, ai in enumerate(a):
        ai[i:], upper = upper[:n - i], upper[n - i:]
    return sweep


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
    t = sgn(theta) / (|theta| + sqrt(theta^2 + 1)), the exact update of each
    rotated 2 x 2 block and the return value are those of ``_jacobi_kernel``;
    the rounding differs, at about 1e-15 relative.

    A round is 27 numpy calls (28 with V) on buffers allocated once per solve:
    the work matrices and bases alternate as ``dot`` outputs, J is one
    matrix whose previous pairs are zeroed before the next are written, and
    the vectors of a round are ``out=`` targets.
    """
    n = len(a)
    big = n + n % 2
    half = big // 2
    # work matrices ping-ponged through dot(out=), each with its flat view
    x, x_next, y = np.zeros((big, big)), np.empty((big, big)), np.empty((big, big))
    x[:n, :n] = a
    x_flat, x_next_flat = x.reshape(-1), x_next.reshape(-1)
    v = np.eye(big) if len(vec) else np.zeros((0, big))
    v[:n, :n] = vec
    v_next = np.empty_like(v)
    # one J per solve: a round zeroes the previous round's off-diagonal
    # entries and overwrites the diagonal, which every round covers
    j = np.zeros((big, big))
    jt, j_flat = j.T, j.reshape(-1)
    theta, work, t, t_apq = (np.empty(half) for _ in range(4))
    keep = np.empty(half, dtype=bool)
    # constants as vectors: a ufunc converts a Python float on every call
    ones, halves, zeros = np.ones(half), np.full(half, 0.5), np.zeros(half)
    rotate_floor = np.full(half, 0.01 * rel_tol * norm / (n * n))
    # J's c, c, s, -s and the rotated blocks' exact entries, in the order of
    # a round's (p, p), (q, q), (p, q), (q, p) indices, each scattered at once
    j_entries, x_entries = np.empty((4, half)), np.empty((4, half))
    c, c_copy, s, minus_s = j_entries
    new_pp, new_qq, kept = x_entries[0], x_entries[1], x_entries[2:]
    j_entries, x_entries = j_entries.reshape(-1), x_entries.reshape(-1)
    rounds = _round_robin_pairs(n)
    gathers = rounds[:, :3 * half].reshape(-1, 3, half)
    offs = rounds[:, 2 * half:]
    prev_off = offs[-1]
    # a pair at or below the floor may divide by zero here; its t is set to 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(max_sweeps + 1):
            off = x - np.diag(np.diagonal(x))
            if math.sqrt(float(np.sum(off * off))) <= rel_tol * norm:
                a[...] = x[:n, :n]
                vec[...] = v[:n, :n]
                return sweep
            if sweep == max_sweeps:
                break
            for idx, gather, off_idx in zip(rounds, gathers, offs):
                app, aqq, apq = x_flat[gather]
                np.abs(apq, out=work)
                np.less_equal(work, rotate_floor, out=keep)
                np.subtract(aqq, app, out=theta)
                np.multiply(halves, theta, out=theta)
                np.divide(theta, apq, out=theta)
                # + 0.0 turns -0.0 into +0.0: a zero angle turns by +pi/4, as in the cyclic kernel
                np.add(theta, zeros, out=theta)
                np.hypot(theta, ones, out=work)
                np.copysign(work, theta, out=work)
                np.add(theta, work, out=work)
                np.reciprocal(work, out=t)
                np.copyto(t, zeros, where=keep)
                np.hypot(t, ones, out=work)
                np.reciprocal(work, out=c)
                c_copy[...] = c
                np.multiply(t, c, out=s)
                np.negative(s, out=minus_s)
                j_flat[prev_off] = 0.0
                j_flat[idx] = j_entries
                prev_off = off_idx
                np.dot(jt, x, out=y)
                np.dot(y, j, out=x_next)
                x, x_next, x_flat, x_next_flat = x_next, x, x_next_flat, x_flat
                if len(v):
                    np.dot(v, j, out=v_next)
                    v, v_next = v_next, v
                np.multiply(t, apq, out=t_apq)
                np.subtract(app, t_apq, out=new_pp)
                np.add(aqq, t_apq, out=new_qq)
                kept.fill(0.0)
                np.copyto(kept, apq, where=keep)
                x_flat[idx] = x_entries
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


def _as_square(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InputError("empty matrix")
    if arr.shape[0] > MAX_DIM:
        raise InputError(f"dimension {arr.shape[0]} exceeds cap {MAX_DIM}")
    return arr


def _require_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise InputError("matrix entries must be finite")


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
    arr = _as_square(x)
    n = arr.shape[0]
    with np.errstate(over="ignore"):  # overflow is caught and reported below
        # np.sum's pairwise sum without its dispatch, so the same bits
        norm = math.sqrt(np.add.reduce(np.square(arr), axis=None))
    if not math.isfinite(norm):
        # a finite norm has finite entries; this tells a bad entry from an overflow
        _require_finite(arr)
        raise NumericalError("matrix Frobenius norm overflowed")
    if n >= ROUND_ROBIN_MIN_DIM:
        a = 0.5 * (arr + arr.T)
        vec = np.eye(n) if vectors else np.zeros((0, n))
        sweeps = _round_robin_kernel(a, vec, MAX_SWEEPS, OFF_DIAG_REL_TOL, norm)
        diag = a.diagonal().tolist()
    else:
        if n > _LIST_SYMMETRIZE_MAX_DIM:
            a_rows = (0.5 * (arr + arr.T)).tolist()
        else:
            # (X + X^T) / 2 on the upper triangle, all the kernel reads, by
            # numpy's float operations; on the diagonal (x + x) / 2 is x, as
            # x + x cannot overflow under a finite norm
            a_rows = arr.tolist()
            for i, row in enumerate(a_rows):
                for j in range(i + 1, n):
                    row[j] = 0.5 * (row[j] + a_rows[j][i])
        w_rows = []
        if vectors:  # the rows of V^T start as the identity's
            w_rows = [[0.0] * n for _ in range(n)]
            for i, row in enumerate(w_rows):
                row[i] = 1.0
        sweeps = _jacobi_kernel(a_rows, w_rows, MAX_SWEEPS, OFF_DIAG_REL_TOL, norm)
        diag = [row[i] for i, row in enumerate(a_rows)]
    if sweeps < 0:
        raise NumericalError(
            f"Jacobi eigensolver did not converge within {MAX_SWEEPS} sweeps"
        )
    if not vectors:  # sorted is stable, so equal values keep their order (and sign of zero)
        return SpectralDecomposition(np.array(sorted(diag)), None, sweeps)
    order = sorted(range(n), key=diag.__getitem__)
    if n >= ROUND_ROBIN_MIN_DIM:
        basis = np.ascontiguousarray(vec[:, order])
    else:  # row i of V^T is eigenvector i; copy() makes the transpose C-contiguous
        basis = np.array([w_rows[i] for i in order]).T.copy()
    return SpectralDecomposition(np.array([diag[i] for i in order]), basis, sweeps)


def require_pd(eigenvalues: np.ndarray, margin: float) -> None:
    """The positive-definite rule on an ascending spectrum: the smallest
    eigenvalue must exceed ``margin * max(1, lambda_max)``, else DomainError.
    A computed spectrum takes ``PD_REL_MARGIN``, a given one 0."""
    lam_min = float(eigenvalues[0])
    if lam_min <= margin * max(1.0, float(eigenvalues[-1])):
        raise DomainError(
            f"matrix is not positive definite: smallest eigenvalue {lam_min:.6e}"
        )


class SymPDMatrix:
    """Real symmetric positive-definite matrix with cached spectral data.

    Construction checks the asymmetry is round-off scale, symmetrizes, and
    applies ``require_pd`` to a full eigensolve.  ``from_spectrum`` builds
    an exactly symmetric matrix from a given spectrum, which need only be
    positive: it is a power of a checked matrix or a generator's choice.
    Instances are treated as immutable; nothing mutates ``mat`` or the
    cached decomposition.
    """

    __slots__ = ("mat", "dim", "eigenvalues", "eigenvectors")

    def __init__(self, entries, *, _decomp: SpectralDecomposition | None = None):
        arr = _as_square(entries)
        dec, margin = _decomp, 0.0
        if dec is None:  # a given decomposition's matrix is exactly symmetric
            top = float(np.abs(arr).max())
            if not math.isfinite(top):  # a NaN or inf entry, which the scan reports
                _require_finite(arr)
            scale = max(1.0, top)
            # X - X^T is exactly antisymmetric, so its largest entry is its largest magnitude
            asym = float((arr - arr.T).max())
            if asym > SYMMETRY_REL_TOL * scale:
                raise InputError(
                    f"matrix is not symmetric: max asymmetry {asym:.3e} "
                    f"exceeds {SYMMETRY_REL_TOL:.0e} * {scale:.3e}"
                )
            # halve before adding so near-overflow entries survive symmetrization
            half = arr * 0.5
            arr = half + half.T
            dec, margin = eig_sym(arr), PD_REL_MARGIN
        else:
            _require_finite(arr)
        require_pd(dec.eigenvalues, margin)
        self.mat = arr
        self.dim = arr.shape[0]
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
    # an overflowing product is left to the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        r = cm.T @ xm @ cm
        return 0.5 * (r + r.T)


def check_same_dim(a: SymPDMatrix, b: SymPDMatrix):
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _frobenius_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``'s bits: the root of r . r over the raveled
    entries, without its dispatch.  Inf or NaN when an entry is, or when
    the sum overflows."""
    r = x.ravel(order="K")
    return math.sqrt(r.dot(r))


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
    norm = _frobenius_norm(np.asarray(x, dtype=float))
    return LoewnerVerdict(min_eig >= -tol_rel * max(1.0, norm), min_eig)
