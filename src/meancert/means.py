"""Weighted operator means on positive-definite matrices, as ndarrays.

The arithmetic and geometric means accept any real weight, the harmonic
mean weights in [0, 1].  The geometric and harmonic means are Kubo-Ando
means A^(1/2) m(C) A^(1/2) of C = A^(-1/2) B A^(-1/2), so they take a
``PairContext`` and every weight reuses its one relative spectrum; the
arithmetic mean has nothing to reuse and takes the matrices.

The mean of a PD pair is PD: ``op_sharp`` and ``op_harm`` check the one
they build unless ``checked=False``, which ``certify.verify_weights`` passes
to check a chunk's means together.
"""

from __future__ import annotations

import sys

import numpy as np

from .eigen import PD_REL_MARGIN, SymPDMatrix, check_same_dim, congruence, eig_sym, require_pd
from .errors import DomainError, MeanCertError, NumericalError
from .sandwich import PairContext

_TINY = sys.float_info.min  # the smallest normal float, np.finfo(float).tiny


def op_nabla(a: SymPDMatrix, b: SymPDMatrix, v: float) -> np.ndarray:
    """Weighted arithmetic mean (1-v)A + vB; may be indefinite for v outside [0,1]."""
    check_same_dim(a, b)
    return (1.0 - v) * a.mat + v * b.mat


def mean_ends(mean: np.ndarray):
    """The two ends of ``mean``'s eigenvalues-only spectrum, or the error its solve raised."""
    try:
        lam = eig_sym(mean, vectors=False).eigenvalues
    except MeanCertError as exc:
        return exc
    return lam[0], lam[-1]


def require_pd_mean(ends, name: str, v: float) -> None:
    """The positive-definite rule on a mean's two ends: a failure, or an error
    in their place, is a NumericalError naming the mean and the weight."""
    try:
        if isinstance(ends, MeanCertError):
            raise ends
        require_pd(ends, PD_REL_MARGIN)
    except MeanCertError as exc:
        raise NumericalError(f"{name} mean at weight {v}: {exc}") from exc


def _kubo_ando(pair: PairContext, v: float, name: str, values, checked: bool) -> np.ndarray:
    """A^(1/2) Q diag(values) Q^T A^(1/2) over the relative spectrum's basis Q."""
    mean = congruence(pair.relative.apply(values), pair.a_half)
    if checked:
        require_pd_mean(mean_ends(mean), name, v)
    return mean


def op_sharp(pair: PairContext, v: float, checked: bool = True) -> np.ndarray:
    """Weighted geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^v A^(1/2).

    A power of the relative spectrum that leaves the normal float range is a
    NumericalError naming the weight, checked or not.
    """
    with np.errstate(over="ignore", under="ignore"):
        powers = np.power(pair.relative.eigenvalues, v)
    if not (powers.min() >= _TINY and powers.max() < np.inf):
        lost = "overflowed" if np.any(powers == np.inf) else "underflowed"
        raise NumericalError(
            f"geometric mean at weight {v}: relative spectrum to the power {v} {lost}")
    return _kubo_ando(pair, v, "geometric", powers, checked)


def op_harm(pair: PairContext, v: float, checked: bool = True) -> np.ndarray:
    """Weighted harmonic mean ((1-v)A^(-1) + vB^(-1))^(-1) for v in [0,1].

    A relative eigenvalue l maps to l / ((1-v)l + v): exactly 1 at v = 0 and
    l at v = 1, so the mean has the geometric mean's bits there.
    """
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"harmonic mean needs weight in [0, 1], got {v}")
    lam = pair.relative.eigenvalues
    return _kubo_ando(pair, v, "harmonic", lam / ((1.0 - v) * lam + v), checked)
