"""Weighted operator means on positive-definite matrices.

The arithmetic and geometric means accept any real weight (the geometric
mean stays well defined because the congruence has positive spectrum);
the harmonic mean is restricted to weights in [0, 1], where the inverse
combination is guaranteed PD.  The geometric and harmonic means take a
``PairContext``, so every weight reuses the pair's relative spectrum and
inverses; the arithmetic mean has nothing to reuse and takes the matrices.
"""

from __future__ import annotations

import numpy as np

from .eigen import SymPDMatrix, check_same_dim, checked_pd, congruence, eig_sym
from .errors import DomainError, MeanCertError, NumericalError
from .sandwich import PairContext


def op_nabla(a: SymPDMatrix, b: SymPDMatrix, v: float) -> np.ndarray:
    """Weighted arithmetic mean (1-v)A + vB; may be indefinite for v outside [0,1]."""
    check_same_dim(a, b)
    return (1.0 - v) * a.mat + v * b.mat


def op_sharp(pair: PairContext, v: float) -> np.ndarray:
    """Weighted geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^v A^(1/2).

    The mean is PD for every PD pair and real weight, so a power of the
    relative spectrum that leaves the normal float range, or a computed mean
    that fails the ``SymPDMatrix`` rule (``checked_pd``, solved for
    eigenvalues only), is a NumericalError naming the weight.
    """
    dec = pair.relative
    with np.errstate(over="ignore", under="ignore"):
        powers = np.power(dec.eigenvalues, v)
    if not np.all((powers >= np.finfo(float).tiny) & (powers < np.inf)):
        lost = "overflowed" if np.any(powers == np.inf) else "underflowed"
        raise NumericalError(
            f"geometric mean at weight {v}: relative spectrum to the power {v} {lost}")
    try:
        mean, _ = checked_pd(congruence(dec.apply(powers), pair.a_half), vectors=False)
        return mean
    except MeanCertError as exc:
        raise NumericalError(f"geometric mean at weight {v}: {exc}") from exc


def op_harm(pair: PairContext, v: float) -> SymPDMatrix:
    """Weighted harmonic mean ((1-v)A^(-1) + vB^(-1))^(-1) for v in [0,1]."""
    check_same_dim(pair.a, pair.b)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"harmonic mean needs weight in [0, 1], got {v}")
    combined = (1.0 - v) * pair.a_inv + v * pair.b_inv
    dec = eig_sym(combined)
    return SymPDMatrix.from_spectrum(1.0 / dec.eigenvalues, dec.basis)
