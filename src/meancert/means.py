"""Weighted operator means on positive-definite matrices.

The arithmetic and geometric means accept any real weight (the geometric
mean stays well defined because the congruence has positive spectrum);
the harmonic mean is restricted to weights in [0, 1], where the inverse
combination is guaranteed PD.
"""

from __future__ import annotations

import numpy as np

from .eigen import SymPDMatrix, check_same_dim, congruence, eig_sym, mat_fpow
from .errors import DomainError, MeanCertError, NumericalError
from .sandwich import relative_spectrum


def op_nabla(a: SymPDMatrix, b: SymPDMatrix, v: float) -> np.ndarray:
    """Weighted arithmetic mean (1-v)A + vB; may be indefinite for v outside [0,1]."""
    check_same_dim(a, b)
    return (1.0 - v) * a.mat + v * b.mat


def op_sharp(a: SymPDMatrix, b: SymPDMatrix, v: float) -> SymPDMatrix:
    """Weighted geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^v A^(1/2).

    The mean is PD for every PD pair and real weight, so a power of the
    relative spectrum that leaves the normal float range, or a computed mean
    that fails to build as a SymPDMatrix, is a NumericalError naming the
    weight.
    """
    dec = relative_spectrum(a, b)
    with np.errstate(over="ignore", under="ignore"):
        powers = np.power(dec.eigenvalues, v)
    if not np.all((powers >= np.finfo(float).tiny) & (powers < np.inf)):
        lost = "overflowed" if np.any(powers == np.inf) else "underflowed"
        raise NumericalError(
            f"geometric mean at weight {v}: relative spectrum to the power {v} {lost}")
    try:
        return SymPDMatrix(congruence(dec.apply(powers), mat_fpow(a, 0.5).mat))
    except MeanCertError as exc:
        raise NumericalError(f"geometric mean at weight {v}: {exc}") from exc


def op_harm(a: SymPDMatrix, b: SymPDMatrix, v: float) -> SymPDMatrix:
    """Weighted harmonic mean ((1-v)A^(-1) + vB^(-1))^(-1) for v in [0,1]."""
    check_same_dim(a, b)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"harmonic mean needs weight in [0, 1], got {v}")
    combined = (1.0 - v) * mat_fpow(a, -1.0).mat + v * mat_fpow(b, -1.0).mat
    dec = eig_sym(combined)
    return SymPDMatrix.from_spectrum(1.0 / dec.eigenvalues, dec.basis)
