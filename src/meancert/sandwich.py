"""Sandwich scalars sA <= B <= tA, regime classification, and spectral boxes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eigen import (
    ROUND_ROBIN_MIN_DIM,
    SpectralDecomposition,
    SymPDMatrix,
    check_same_dim,
    congruence,
    eig_sym,
    mat_fpow,
)
from .errors import DomainError, NumericalError

BELOW = "below"
ABOVE = "above"
STRADDLE = "straddle"

REGIME_TIE_TOL = 1e-12


def classify_regime(s: float, t: float) -> str:
    """Closed-regime classification with a tie tolerance at 1.

    A pair with s = t = 1 counts as 'above' so reports are deterministic;
    every bound degenerates to an equality there anyway.
    """
    if s >= 1.0 - REGIME_TIE_TOL:
        return ABOVE
    if t <= 1.0 + REGIME_TIE_TOL:
        return BELOW
    return STRADDLE


@dataclass(frozen=True)
class SandwichInterval:
    """Scalars 0 < s <= t with sA <= B <= tA; the regime follows from them."""

    s: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.t) and 0.0 < self.s <= self.t):
            raise DomainError(f"invalid sandwich scalars s={self.s}, t={self.t}")

    @property
    def regime(self) -> str:
        return classify_regime(self.s, self.t)

    @property
    def near_far(self) -> tuple[float, float]:
        """On a one-sided regime, the endpoint nearer 1 and the other one."""
        return (self.s, self.t) if self.regime == ABOVE else (self.t, self.s)


@dataclass(frozen=True)
class SpectralBox:
    """A's band and B's band, each (lo, hi) with 0 < lo <= hi finite, and
    disjoint: A lies wholly below B (the 'above' regime) or above it.  The
    sandwich they imply must be positive and finite."""

    a_band: tuple[float, float]
    b_band: tuple[float, float]

    def __post_init__(self):
        (a_lo, a_hi), (b_lo, b_hi) = self.a_band, self.b_band
        if not (0.0 < a_lo <= a_hi < math.inf and 0.0 < b_lo <= b_hi < math.inf
                and (a_hi < b_lo or b_hi < a_lo)):
            raise DomainError("spectral box needs finite disjoint bands 0 < lo <= hi, "
                              f"got A in {self.a_band}, B in {self.b_band}")
        # far-apart bands can still overflow or underflow the implied sandwich
        if not (0.0 < b_lo / a_hi and b_hi / a_lo < math.inf):
            raise DomainError("spectral box needs a sandwich b_lo / a_hi, b_hi / a_lo in "
                              f"(0, inf), got A in {self.a_band}, B in {self.b_band}")

    @property
    def sandwich(self) -> SandwichInterval:
        """The sandwich scalars the box implies: s = b_lo / a_hi, t = b_hi / a_lo."""
        return SandwichInterval(self.b_band[0] / self.a_band[1], self.b_band[1] / self.a_band[0])


@dataclass(frozen=True)
class UniformBox:
    """One box mI <= A, B <= MI containing both matrices, with a finite ratio h = M / m."""

    m: float
    M: float

    def __post_init__(self):
        if not 0.0 < self.m <= self.M < math.inf:
            raise DomainError(f"invalid uniform box ({self.m}, {self.M})")
        if not self.M / self.m < math.inf:  # far-apart ends overflow the ratio
            raise DomainError(f"uniform box needs a finite ratio M / m, got ({self.m}, {self.M})")

    @property
    def h(self) -> float:
        return self.M / self.m

    @property
    def degenerate(self) -> bool:
        return self.M - self.m <= REGIME_TIE_TOL * self.M


def relative_spectrum(c: np.ndarray, vectors: bool = True) -> SpectralDecomposition:
    """Eigendecomposition of C = A^(-1/2) B A^(-1/2): its ends bound B by A,
    its powers give A#_vB.

    The relative spectrum of a PD pair is positive, so a computed one that
    is not is a NumericalError: the pair is too ill-conditioned to resolve.
    """
    dec = eig_sym(c, vectors=vectors)
    if dec.eigenvalues[0] <= 0.0:
        raise NumericalError(
            f"relative spectrum lost positivity: smallest eigenvalue {dec.eigenvalues[0]:.6e}")
    return dec


def sandwich_of(c: np.ndarray) -> SandwichInterval:
    """Tight sandwich scalars from C = A^(-1/2) B A^(-1/2): the ends of the
    relative spectrum of (A, B)."""
    lam = relative_spectrum(c, vectors=False).eigenvalues
    return SandwichInterval(float(lam[0]), float(lam[-1]))


class PairContext:
    """Everything about a pair (A, B) that no weight changes, each part
    computed on first use and then kept for every later weight.

    The parts are C = A^(-1/2) B A^(-1/2), the sandwich, the relative
    spectrum with its eigenvectors, A^(1/2) and the uniform box, each
    computed by the same operations as for a single weight.  So a sweep's
    row (``certify.verify_weights``) has the bits of a one-weight run from
    ``ROUND_ROBIN_MIN_DIM`` up, and below it when its chunk's stack of
    checks is smaller than ``eigen.ROUND_ROBIN_STACK_MIN``.  A larger stack
    there runs on the round-robin kernel, which moves the residuals in their
    last bits but no verdict, constant, s or t
    (``tests/test_pair_context.py::test_sweep_rows_are_the_one_weight_reports``).
    C is formed once, and from ``ROUND_ROBIN_MIN_DIM`` up solved once: the
    sandwich reads its ends off the relative spectrum, whose eigenvalues have
    the bits of an eigenvalues-only solve.  Below it the sandwich keeps that
    solve (perfbench pins a dim-6 report at 11 eigensolves).  Nothing is checked
    or solved when the context is made: the first use raises whatever its
    part raises, and forming C checks the dimensions first.
    """

    def __init__(self, a: SymPDMatrix, b: SymPDMatrix):
        self.a = a
        self.b = b

    @cached_property
    def relative_matrix(self) -> np.ndarray:
        check_same_dim(self.a, self.b)
        return congruence(self.b.mat, mat_fpow(self.a, -0.5).mat)

    @cached_property
    def sandwich(self) -> SandwichInterval:
        if self.a.dim < ROUND_ROBIN_MIN_DIM:
            return sandwich_of(self.relative_matrix)
        lam = self.relative.eigenvalues
        return SandwichInterval(float(lam[0]), float(lam[-1]))

    @cached_property
    def relative(self) -> SpectralDecomposition:
        return relative_spectrum(self.relative_matrix)

    @cached_property
    def a_half(self) -> np.ndarray:
        return mat_fpow(self.a, 0.5).mat

    @cached_property
    def uniform_box(self) -> UniformBox:
        return uniform_box_of(self.a, self.b)


def uniform_box_of(a: SymPDMatrix, b: SymPDMatrix) -> UniformBox:
    """Tightest single box containing the spectra of both matrices."""
    m = float(min(a.eigenvalues[0], b.eigenvalues[0]))
    M = float(max(a.eigenvalues[-1], b.eigenvalues[-1]))
    return UniformBox(m, M)
