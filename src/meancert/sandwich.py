"""Sandwich scalars sA <= B <= tA, regime classification, and spectral boxes."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eigen import (
    SpectralDecomposition,
    SymPDMatrix,
    check_same_dim,
    congruence,
    eig_sym,
    mat_fpow,
)
from .errors import DomainError, InputError, NumericalError

BELOW = "below"
ABOVE = "above"
STRADDLE = "straddle"

REGIME_TIE_TOL = 1e-12

# Which half of the box hypothesis holds: case (i) has A under B, case (ii)
# the reverse.
A_BELOW_B = "a_below_b"
B_BELOW_A = "b_below_a"


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
    """Scalars 0 < m_outer <= m_inner < M_inner <= M_outer boxing A and B."""

    m_outer: float
    m_inner: float
    M_inner: float
    M_outer: float

    def __post_init__(self):
        ok = (
            0.0 < self.m_outer <= self.m_inner
            and self.m_inner < self.M_inner <= self.M_outer
        )
        if not ok:
            raise DomainError(
                "spectral box must satisfy 0 < m' <= m < M <= M', got "
                f"({self.m_outer}, {self.m_inner}, {self.M_inner}, {self.M_outer})"
            )


@dataclass(frozen=True)
class UniformBox:
    """One box mI <= A, B <= MI containing both matrices."""

    m: float
    M: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and 0.0 < self.m <= self.M):
            raise DomainError(f"invalid uniform box ({self.m}, {self.M})")

    @property
    def h(self) -> float:
        return self.M / self.m

    @property
    def degenerate(self) -> bool:
        return self.M - self.m <= REGIME_TIE_TOL * self.M


def relative_spectrum(a: SymPDMatrix, b: SymPDMatrix,
                      vectors: bool = True) -> SpectralDecomposition:
    """Eigendecomposition of A^(-1/2) B A^(-1/2): its ends bound B by A, its powers give A#_vB.

    The relative spectrum of a PD pair is positive, so a computed one that
    is not is a NumericalError: the pair is too ill-conditioned to resolve.
    """
    check_same_dim(a, b)
    dec = eig_sym(congruence(b.mat, mat_fpow(a, -0.5).mat), vectors=vectors)
    if dec.eigenvalues[0] <= 0.0:
        raise NumericalError(
            f"relative spectrum lost positivity: smallest eigenvalue {dec.eigenvalues[0]:.6e}")
    return dec


def sandwich_of(a: SymPDMatrix, b: SymPDMatrix) -> SandwichInterval:
    """Tight sandwich scalars: the ends of the relative spectrum of (A, B)."""
    lam = relative_spectrum(a, b, vectors=False).eigenvalues
    return SandwichInterval(float(lam[0]), float(lam[-1]))


def box_bands(box: SpectralBox, order: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """(A's band, B's band) of the box: A_BELOW_B puts A in [m', m] and B in
    [M, M']; B_BELOW_A swaps them."""
    lo, hi = (box.m_outer, box.m_inner), (box.M_inner, box.M_outer)
    if order == A_BELOW_B:
        return lo, hi
    if order == B_BELOW_A:
        return hi, lo
    raise InputError(f"unknown box order '{order}'")


def sandwich_from_box(box: SpectralBox, order: str) -> SandwichInterval:
    """Sandwich scalars implied by the box: s = b_lo / a_hi and t = b_hi / a_lo.

    Case A_BELOW_B gives (M/m, M'/m') in the 'above' regime; case
    B_BELOW_A gives (m'/M', m/M) in the 'below' regime.
    """
    (a_lo, a_hi), (b_lo, b_hi) = box_bands(box, order)
    return SandwichInterval(b_lo / a_hi, b_hi / a_lo)


def uniform_box_of(a: SymPDMatrix, b: SymPDMatrix) -> UniformBox:
    """Tightest single box containing the spectra of both matrices."""
    m = float(min(a.eigenvalues[0], b.eigenvalues[0]))
    M = float(max(a.eigenvalues[-1], b.eigenvalues[-1]))
    return UniformBox(m, M)
