"""Dense symmetric eigendecomposition and the matrix functions built on it.

The eigensolver is Jacobi rotations with a rotation threshold: accurate to
machine precision for the desk-scale dimensions this package targets
(n <= 512), with no dependence on LAPACK.  Everything downstream
(fractional powers, congruences, Loewner-order checks) goes through it.

There are two kernels with one convergence rule and one contract.  The
cyclic kernel rotates one pair at a time in straight-line Python compiled
once per dimension; the round-robin kernel applies n/2 disjoint rotations at
once through numpy, to one matrix or a (k, n, n) stack.  Each kernel takes
the caller's raw matrix (or stack) and its norm, solves (X + X^T) / 2
without writing X, and returns the diagonal, the basis V (None for
eigenvalues only) and the sweep count; the round-robin kernel returns one of
each per matrix.  A lone solve, ``eig_sym``, runs the cyclic kernel below
``ROUND_ROBIN_MIN_DIM`` and the round-robin kernel from there up.  Every
stacked solve (a chunk's Loewner and PD checks, a pair's two loads) runs one
loop over parts, ``eig_stack``, with or without vectors: a part is a stack
on the round-robin kernel from ``ROUND_ROBIN_MIN_DIM`` up, and below it when
it is eigenvalues only and holds at least ``ROUND_ROBIN_STACK_MIN``
matrices; any other part is solved one matrix at a time on the cyclic
kernel.  Each matrix of a round-robin stack has the bits of its own lone
round-robin solve, so below ``ROUND_ROBIN_MIN_DIM`` such a stack's
eigenvalues differ from ``eig_sym``'s in their last bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, InputError, MeanCertError, NumericalError

MAX_DIM = 512
MAX_SWEEPS = 100
OFF_DIAG_REL_TOL = 1e-14
SYMMETRY_REL_TOL = 1e-12
PD_REL_MARGIN = 1e-12
DEFAULT_LOEWNER_TOL = 1e-9
# Smallest dimension the round-robin kernel takes; below it the cyclic
# kernel runs (README: the crossover, and why it stays at 15).
ROUND_ROBIN_MIN_DIM = 15
# Fewest matrices below ROUND_ROBIN_MIN_DIM that an eigenvalues-only stacked
# solve runs at once on the round-robin kernel; a smaller stack, or one with
# vectors, is solved one matrix at a time on the cyclic kernel.  Only
# eig_stack reads it (README: stacked solves)
ROUND_ROBIN_STACK_MIN = 32
# Most matrix entries, k n^2, in one stacked solve; a larger stack is solved
# in parts, and a sweep's chunk of checks closes once it holds this many.
# The kernels' buffers grow with k n^2, and from about n = 128 up a round's
# products cost far more than its numpy calls, which is all a stack saves
# (README: the round-robin kernel)
STACK_MAX_ENTRIES = 1 << 16
# Most rotations of the cyclic kernel's sweep that one generated function
# runs (README: the cyclic kernel, and what chose it)
CYCLIC_ROTATION_BUDGET = 14


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
    goes in and out as a tuple in row order.  Returns four functions:

    - ``upper(rows)`` takes ``X.tolist()`` and returns the upper triangle of
      (X + X^T) / 2, each entry ``0.5 * (x_ij + x_ji)`` as numpy rounds it;
      the diagonal passes through, as (x + x) / 2 is x under a finite norm;
    - ``off(u)`` sums 2 a_ij^2 over i < j in row order;
    - ``runs``, the sweep's rotations (0, 1), (0, 2), ..., (n - 2, n - 1)
      cut into consecutive runs of at most ``CYCLIC_ROTATION_BUDGET``, one
      function each: fewer calls per sweep than one per pivot row, while the
      compiler's peak memory stays bounded by one run's source;
    - ``diagonal(u)``, the diagonal as a list.
    """
    def at(i, j):
        return f"a{min(i, j)}_{max(i, j)}"

    entries = [(i, j) for i in range(n) for j in range(i, n)]
    upper = "".join(f"a{i}_{j}, " for i, j in entries)
    # entry (i, j) of X is the local x{i}_{j}
    rows = "".join("(" + "".join(f"x{i}_{j}, " for j in range(n)) + "), " for i in range(n))
    halves = ", ".join(f"x{i}_{j}" if i == j else f"0.5 * (x{i}_{j} + x{j}_{i})"
                       for i, j in entries)
    sums = "".join("    off = off" + "".join(f" + 2.0*a{i}_{j}*a{i}_{j}" for j in range(i + 1, n))
                   + "\n" for i in range(n - 1))
    diagonal = ", ".join(f"u[{k}]" for k, (i, j) in enumerate(entries) if i == j)
    namespace = {"sqrt": math.sqrt}
    exec(compile(f"def upper(rows):\n    {rows}= rows\n    return ({halves},)\n"
                 f"def off(u):\n    {upper}= u\n    off = 0.0\n{sums}    return off\n"
                 f"def diagonal(u):\n    return [{diagonal}]\n",
                 f"<cyclic jacobi n={n} entry and exit>", "exec"), namespace)
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
    return namespace["upper"], namespace["off"], tuple(runs), namespace["diagonal"]


def _jacobi_kernel(x, vectors, max_sweeps, rel_tol, norm):
    """Cyclic Jacobi with threshold on (X + X^T) / 2; ``x`` is never written.

    ``x`` is an n x n ndarray and ``norm`` its norm.  The sweeps rotate the
    upper triangle, held as a tuple, and, for eigenvectors, the rows of V^T,
    lists that start as the identity's.  The updates of the triangle never
    read V^T, so the eigenvalues keep their bits either way.  A sweep runs
    the code of ``_generate_cyclic``: the rotations of the cyclic loop over
    p < q, with their float operations in order, on a triangle held in
    locals.

    Returns ``(diagonal, V, sweeps)``: the diagonal as a list, V as an ndarray
    whose columns are the eigenvectors (None for eigenvalues only), and the
    sweeps used, or -1 if the off-diagonal mass did not drop below
    ``rel_tol * norm`` within ``max_sweeps`` sweeps (NaN contamination also
    lands here, since NaN fails every comparison).
    """
    n = len(x)
    if n not in _CYCLIC_CODE:
        _CYCLIC_CODE[n] = _generate_cyclic(n)
    upper, off, runs, diagonal = _CYCLIC_CODE[n]
    rotate_floor = 0.01 * rel_tol * norm / (n * n)
    u = upper(x.tolist())
    w = []
    if vectors:
        w = [[0.0] * n for _ in range(n)]
        for i, row in enumerate(w):
            row[i] = 1.0
    for sweep in range(max_sweeps + 1):
        if math.sqrt(off(u)) <= rel_tol * norm:
            break
        if sweep == max_sweeps:
            sweep = -1
            break
        for run in runs:
            u = run(u, w, rotate_floor)
    return diagonal(u), np.array(w).T if vectors else None, sweep


@functools.cache
def _round_robin_pairs(n):
    """Flat indices of each round's rotations in an even-sized work matrix.

    The work matrix is n x n, padded to even N.  Row r of the result lists
    the (p, p), (q, q), (p, q) and (q, p) entries, in four blocks of N/2,
    of round r's disjoint pairs p < q.  The N - 1 rounds of this Brent-Luk
    (circle method) schedule meet every pair once.  Built once per n, and
    read-only, as every solve of that size shares it.
    """
    big = n + n % 2
    r = np.arange(big - 1)[:, None]
    k = np.arange(1, big // 2)
    # index big - 1 stays put; the others move one place each round
    p = np.concatenate([r, (r + k) % (big - 1)], axis=1)
    q = np.concatenate([np.full_like(r, big - 1), (r - k) % (big - 1)], axis=1)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    rounds = np.concatenate([lo * (big + 1), hi * (big + 1), lo * big + hi, hi * big + lo],
                            axis=1)
    rounds.setflags(write=False)
    return rounds


def _off_norms(x, scratch):
    """The Frobenius norm of each off-diagonal part of a stack, each with the
    bits of ``sqrt(np.sum(off * off))``, off = X - diag(X), on its own
    matrix; ``scratch`` is a buffer shaped like the stack."""
    big = x.shape[-1]
    squares = np.square(x, out=scratch).reshape(-1, big * big)  # (0, big^2) when empty
    diagonal = squares[:, ::big + 1]
    x_diagonal = x.reshape(-1, big * big)[:, ::big + 1]
    np.subtract(x_diagonal, x_diagonal, out=diagonal)  # x - x, so NaN where x is inf
    np.square(diagonal, out=diagonal)
    return np.sqrt(np.add.reduce(squares, axis=1))


def _stack_rounds(blocks, offsets, index, views):
    """A stack's flat indices for each round in turn, formed in ``index``:
    the round's four blocks shifted by each matrix's offset into the stack."""
    for block in blocks:
        np.add(block, offsets, out=index)
        yield views


def _round_robin_kernel(a, vectors, max_sweeps, rel_tol, norms):
    """Round-robin Jacobi with threshold on each (X + X^T) / 2 of a stack.

    ``a`` is a stack of k n x n matrices shaped (k, n, n), which is never
    written, and ``norms`` their k norms.  Each matrix keeps its own norm,
    rotation threshold, convergence test and sweep count: at the start of a
    sweep, a matrix that has converged has its diagonal and basis written to
    the outputs and is taken out of the stack, so every matrix runs exactly
    the float operations of a solve of its own.

    Each round rotates n/2 disjoint pairs at once: their angles are computed
    as vectors, and one rotation matrix J holding the pairs' 2 x 2 blocks
    applies A <- J^T A J and V <- V J.  Odd n gets a zero row and column,
    whose pair never reaches the rotation threshold.  The convergence test,
    the rotation threshold, the angle
    t = sgn(theta) / (|theta| + sqrt(theta^2 + 1)), the exact update of each
    rotated 2 x 2 block and the sweep count are those of ``_jacobi_kernel``;
    the rounding differs, at about 1e-15 relative.

    A round is 27 numpy calls (28 with V) for one matrix and one more for a
    stack, whatever its size: a stack's flat indices are formed round by
    round in one buffer, so they take no memory per round.  The work
    matrices, which (X + X^T) / 2 is formed in, J, a scratch matrix and two
    bases per matrix are allocated once per solve, and a shrinking stack
    closes up in place: J^T A goes to the scratch matrix (which also holds
    the convergence test's squares) and the product back into the work
    matrix, the bases alternate as product outputs, and J's off-diagonal
    entries are zeroed once the products have used them.  The vectors of a
    round are ``out=`` targets, allocated again when the stack shrinks.  A
    lone matrix is multiplied by ``dot``, which has less call overhead than
    ``matmul`` and gives the same bits, and its vectors are 1-D.

    Returns ``(diagonals, bases, sweeps)``: each matrix's diagonal as a list,
    the (k, n, n) ndarray of their bases V, whose columns are the
    eigenvectors (None for eigenvalues only), and the list of sweeps used,
    -1 for a matrix whose off-diagonal mass did not drop below
    ``rel_tol * norm`` within ``max_sweeps`` sweeps.  Such a matrix has NaN
    for its diagonal and basis and leaves the others unaffected.
    """
    k, n = a.shape[:2]
    big = n + n % 2
    half = big // 2
    sweeps = np.full(k, -1)
    # the stack entry of each matrix still rotating, and its test and threshold
    slots = np.arange(k)
    norm = np.array(norms, dtype=float)
    tol = rel_tol * norm
    floor = 0.01 * rel_tol * norm / (n * n)
    x = np.zeros((k, big, big))
    np.add(a, a.transpose(0, 2, 1), out=x[:, :n, :n])
    x[:, :n, :n] *= 0.5  # 0.5 * x and x * 0.5 are the same float
    v = np.tile(np.eye(big), (k, 1, 1)) if vectors else np.zeros((k, 0, big))
    # the outputs; a matrix that does not converge keeps their NaN
    diagonals = np.full((k, n), math.nan)
    bases = np.full((k, n if vectors else 0, n), math.nan)
    # one J per matrix: a round overwrites the diagonal, which every round
    # covers, and zeroes its off-diagonal entries once the products used them,
    # so no entry of J outlives its round
    j = np.zeros((k, big, big))
    # J^T A and the convergence test's squares, and the other basis buffer
    y, v_next = np.empty_like(x), np.empty_like(v)
    # a lone matrix's flat indices, each round's in four blocks; a stack's
    # are formed from them round by round
    rounds = _round_robin_pairs(n)
    gathers, offs = rounds[:, :3 * half].reshape(-1, 3, half), rounds[:, 2 * half:]
    blocks = rounds.reshape(big - 1, 4, 1, half)
    m = 0  # the stack's size when its buffers were last allocated
    # a pair at or below the floor may divide by zero here; its t is set to 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(max_sweeps + 1):
            done = _off_norms(x, y) <= tol
            if done.any():
                for at in np.flatnonzero(done):
                    diagonals[slots[at]], bases[slots[at]] = x[at].diagonal()[:n], v[at, :n, :n]
                sweeps[slots[done]] = sweep
                rotating = ~done
                slots, tol, floor = slots[rotating], tol[rotating], floor[rotating]
                # moved to the front in place: an entry moves to a slot at or before its own.
                # J holds no state between rounds, so it stays
                for to, at in enumerate(np.flatnonzero(rotating)):
                    x[to], v[to] = x[at], v[at]
                x, v, j, y, v_next = (w[:len(slots)] for w in (x, v, j, y, v_next))
            if sweep == max_sweeps or not len(x):
                break
            if len(x) != m:
                m = len(x)
                # a lone matrix's vectors are 1-D, as a ufunc costs a little more on 2-D
                shape = (half,) if m == 1 else (m, half)
                if m > 1:  # each round's indices in one buffer, matrix by matrix in each block
                    index = np.empty((4, m, half), dtype=rounds.dtype)
                    views = index.reshape(-1), index[:3], index[2:].reshape(-1)
                    offsets = (np.arange(m) * big * big)[:, None]
                x_flat, j_flat = x.reshape(-1), j.reshape(-1)
                # a lone matrix goes through dot as 2-D views
                product = np.dot if m == 1 else np.matmul
                x_op, y_op, j_op, jt_op, v_op, v_next_op = (
                    (w[0] if m == 1 else w)
                    for w in (x, y, j, j.transpose(0, 2, 1), v, v_next))
                theta, work, t, t_apq = (np.empty(shape) for _ in range(4))
                keep = np.empty(shape, dtype=bool)
                # constants as arrays: a ufunc converts a Python float on every call
                ones, halves, zeros = (np.full(shape, c) for c in (1.0, 0.5, 0.0))
                rotate_floor = np.repeat(floor, half).reshape(shape)
                # J's c, c, s, -s and the rotated blocks' exact entries, in the
                # order of a round's (p, p), (q, q), (p, q), (q, p) indices
                j_entries, x_entries = np.empty((4, *shape)), np.empty((4, *shape))
                c, c_copy, s, minus_s = j_entries
                new_pp, new_qq, kept = x_entries[0], x_entries[1], x_entries[2:]
                j_entries, x_entries = j_entries.reshape(-1), x_entries.reshape(-1)
            for idx, gather, off_idx in (
                    zip(rounds, gathers, offs) if m == 1
                    else _stack_rounds(blocks, offsets, index, views)):
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
                j_flat[idx] = j_entries
                product(jt_op, x_op, out=y_op)
                product(y_op, j_op, out=x_op)
                if vectors:
                    product(v_op, j_op, out=v_next_op)
                    v_op, v_next_op = v_next_op, v_op
                j_flat[off_idx] = 0.0  # the next round overwrites the diagonal
                np.multiply(t, apq, out=t_apq)
                np.subtract(app, t_apq, out=new_pp)
                np.add(aqq, t_apq, out=new_qq)
                kept.fill(0.0)
                np.copyto(kept, apq, where=keep)
                x_flat[idx] = x_entries
            # the basis buffer that holds the sweep's result, and the other one
            v, v_next = v_op.reshape(v.shape), v_next_op.reshape(v.shape)
    return diagonals.tolist(), bases if vectors else None, sweeps.tolist()


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


def _checked_norm(arr: np.ndarray) -> float:
    """The Frobenius norm a solve is judged against.  A NumericalError when
    it overflows, an InputError when that is because an entry is not finite."""
    with np.errstate(over="ignore"):  # overflow is caught and reported below
        # np.sum's pairwise sum without its dispatch, so the same bits
        norm = math.sqrt(np.add.reduce(np.square(arr), axis=None))
    if not math.isfinite(norm):
        # a finite norm has finite entries; this tells a bad entry from an overflow
        _require_finite(arr)
        raise NumericalError("matrix Frobenius norm overflowed")
    return norm


def _unconverged() -> NumericalError:
    return NumericalError(f"Jacobi eigensolver did not converge within {MAX_SWEEPS} sweeps")


def _decomposition(diag: list, basis, sweeps: int) -> SpectralDecomposition:
    """A kernel's converged solve, in ascending order: ``sorted`` is stable, so
    equal values keep their order (and sign of zero)."""
    if basis is None:
        return SpectralDecomposition(np.array(sorted(diag)), None, sweeps)
    order = sorted(range(len(diag)), key=diag.__getitem__)
    return SpectralDecomposition(np.array([diag[i] for i in order]),
                                 np.ascontiguousarray(basis[:, order]), sweeps)


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
    norm = _checked_norm(arr)
    if n < ROUND_ROBIN_MIN_DIM:
        diag, basis, sweeps = _jacobi_kernel(arr, vectors, MAX_SWEEPS, OFF_DIAG_REL_TOL, norm)
    else:
        (diag,), bases, (sweeps,) = _round_robin_kernel(arr[None], vectors, MAX_SWEEPS,
                                                        OFF_DIAG_REL_TOL, (norm,))
        basis = None if bases is None else bases[0]
    if sweeps < 0:
        raise _unconverged()
    return _decomposition(diag, basis, sweeps)


def eig_stack(xs: np.ndarray, vectors: bool = True) -> list:
    """``eig_sym(x, vectors)`` of each matrix x of a stack shaped (k, n, n),
    or in its place the error its solve raised (an InputError for an entry
    that is not finite, else a NumericalError), which fails no other.  Each
    norm is computed once, and the matrices of finite norm are solved in
    parts of at most ``STACK_MAX_ENTRIES`` entries on the kernels the module
    docstring names.  Each solve has ``eig_sym``'s bits, except in an
    eigenvalues-only part below ``ROUND_ROBIN_MIN_DIM`` of at least
    ``ROUND_ROBIN_STACK_MIN`` matrices, where it has the bits of the
    matrix's own round-robin solve.
    """
    n = _as_square(xs[0]).shape[0] if len(xs) else 0
    out, norms = [None] * len(xs), []
    for i, x in enumerate(xs):
        try:
            norms.append(_checked_norm(x))
        except (InputError, NumericalError) as exc:
            out[i] = exc
    solved = [i for i, value in enumerate(out) if value is None]
    step = max(1, STACK_MAX_ENTRIES // max(1, n * n))
    for part in range(0, len(solved), step):
        at, part_norms = solved[part:part + step], norms[part:part + step]
        # the kernels copy each part into their work matrices
        if n >= ROUND_ROBIN_MIN_DIM or not vectors and len(at) >= ROUND_ROBIN_STACK_MIN:
            diagonals, bases, sweeps = _round_robin_kernel(xs[at], vectors, MAX_SWEEPS,
                                                           OFF_DIAG_REL_TOL, part_norms)
        else:
            diagonals, bases, sweeps = zip(*(
                _jacobi_kernel(xs[i], vectors, MAX_SWEEPS, OFF_DIAG_REL_TOL, norm)
                for i, norm in zip(at, part_norms)))
        for i, diagonal, basis, used in zip(at, diagonals,
                                            repeat(None) if bases is None else bases, sweeps):
            out[i] = _unconverged() if used < 0 else _decomposition(diagonal, basis, used)
    return out


def require_pd(eigenvalues: np.ndarray, margin: float) -> None:
    """The positive-definite rule on an ascending spectrum: the smallest
    eigenvalue must exceed ``margin * max(1, lambda_max)``, else DomainError.
    A computed spectrum takes ``PD_REL_MARGIN``, a given one 0."""
    lam_min = float(eigenvalues[0])
    if lam_min <= margin * max(1.0, float(eigenvalues[-1])):
        raise DomainError(
            f"matrix is not positive definite: smallest eigenvalue {lam_min:.6e}"
        )


def symmetrized(entries) -> np.ndarray:
    """(X + X^T) / 2 of a square matrix X whose entries are finite and whose
    asymmetry is round-off scale; else an InputError."""
    arr = _as_square(entries)
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
    return half + half.T


class SymPDMatrix:
    """Real symmetric positive-definite matrix with cached spectral data.

    Construction applies ``symmetrized``, then ``require_pd`` to an
    ``eig_sym`` solve; a matrix ``symmetrized`` returned may come with its
    solve as ``_decomp`` and ``_margin=PD_REL_MARGIN`` (the pair loader's
    ``eig_stack``).  ``from_spectrum`` builds an exactly symmetric matrix
    from a given spectrum, which need only be positive: it is a power of a
    checked matrix or a generator's choice.  Instances are treated as
    immutable; nothing mutates ``mat`` or the cached decomposition.
    """

    __slots__ = ("mat", "dim", "eigenvalues", "eigenvectors")

    def __init__(self, entries, *, _decomp: SpectralDecomposition | None = None,
                 _margin: float = 0.0):
        if _decomp is None:
            arr = symmetrized(entries)
            dec, margin = eig_sym(arr), PD_REL_MARGIN
        else:  # a given decomposition's matrix is exactly symmetric
            arr, dec, margin = _as_square(entries), _decomp, _margin
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


def _spectrum_ends(xs: np.ndarray) -> list:
    """The two ends of each matrix x's eigenvalues, for a stack shaped
    (k, n, n), from one eigenvalues-only ``eig_stack``, with its bits:
    ``eig_sym(x, vectors=False)``'s, or below ``ROUND_ROBIN_MIN_DIM`` in a
    stack of at least ``ROUND_ROBIN_STACK_MIN`` those of x's own round-robin
    solve; in their place, the error its solve raised."""
    return [dec if isinstance(dec, MeanCertError)
            else (float(dec.eigenvalues[0]), float(dec.eigenvalues[-1]))
            for dec in eig_stack(xs, vectors=False)]


def _loewner_verdict(min_eig: float, scale: float, tol_rel: float) -> LoewnerVerdict:
    """The Loewner rule: X >= 0 iff min_eig >= -tol_rel * scale, scale = max(1, ||X||_F)."""
    return LoewnerVerdict(min_eig >= -tol_rel * scale, min_eig)


def loewner_geq_zero(x, tol_rel: float = DEFAULT_LOEWNER_TOL) -> LoewnerVerdict:
    """Check X >= 0 in the Loewner order, up to a relative slack: the rule of
    ``_loewner_verdict`` on X's smallest eigenvalue, reported either way."""
    arr = np.asarray(x, dtype=float)
    min_eig = float(eig_sym(arr, vectors=False).eigenvalues[0])
    return _loewner_verdict(min_eig, max(1.0, _frobenius_norm(arr)), tol_rel)
