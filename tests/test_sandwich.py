import numpy as np
import pytest

from meancert.certify import gen_instance
from meancert.eigen import SymPDMatrix, loewner_geq_zero
from meancert.errors import DomainError, InputError
from meancert.sandwich import (
    ABOVE,
    A_BELOW_B,
    BELOW,
    B_BELOW_A,
    STRADDLE,
    SandwichInterval,
    SpectralBox,
    box_bands,
    classify_regime,
    relative_spectrum,
    sandwich_from_box,
    sandwich_of,
    uniform_box_of,
)

from test_eigen import random_pd


class TestClassification:
    def test_regimes(self):
        assert classify_regime(0.2, 0.8) == BELOW
        assert classify_regime(1.5, 3.0) == ABOVE
        assert classify_regime(0.5, 2.0) == STRADDLE

    def test_ties_are_closed(self):
        assert classify_regime(0.5, 1.0) == BELOW
        assert classify_regime(0.5, 1.0 + 5e-13) == BELOW
        assert classify_regime(1.0, 2.0) == ABOVE
        assert classify_regime(1.0 - 5e-13, 2.0) == ABOVE

    def test_equal_pair_reports_above(self):
        assert classify_regime(1.0, 1.0) == ABOVE

    @pytest.mark.parametrize("s,t,regime,near_far", [
        (0.2, 0.8, BELOW, (0.8, 0.2)),
        (0.5, 1.0 + 5e-13, BELOW, (1.0 + 5e-13, 0.5)),
        (1.5, 3.0, ABOVE, (1.5, 3.0)),
        (1.0 - 5e-13, 2.0, ABOVE, (1.0 - 5e-13, 2.0)),
        (1.0, 1.0, ABOVE, (1.0, 1.0)),
        (0.5, 2.0, STRADDLE, (2.0, 0.5)),
    ])
    def test_regime_and_near_far_follow_from_scalars(self, s, t, regime, near_far):
        sw = SandwichInterval(s, t)
        assert (sw.regime, sw.near_far) == (regime, near_far)

    def test_invalid_scalars(self):
        with pytest.raises(DomainError):
            SandwichInterval(2.0, 1.0)
        with pytest.raises(DomainError):
            SandwichInterval(-1.0, 1.0)


class TestSandwichOf:
    def test_exact_multiple(self):
        rng = np.random.default_rng(0)
        a = random_pd(rng, 4)
        for c in (0.1, 1.0, 7.0):
            b = SymPDMatrix(c * a.mat)
            sw = sandwich_of(a, b)
            assert sw.s == pytest.approx(c, rel=1e-10)
            assert sw.t == pytest.approx(c, rel=1e-10)

    def test_diagonal_ratios(self):
        a = SymPDMatrix(np.diag([2.0, 3.0]))
        b = SymPDMatrix(np.diag([1.0, 6.0]))
        sw = sandwich_of(a, b)
        assert sw.s == pytest.approx(0.5, rel=1e-12)
        assert sw.t == pytest.approx(2.0, rel=1e-12)
        assert sw.regime == STRADDLE

    def test_identity_left(self):
        sw = sandwich_of(SymPDMatrix(np.eye(2)), SymPDMatrix(np.diag([2.0, 3.0])))
        assert (sw.s, sw.t) == (pytest.approx(2.0), pytest.approx(3.0))
        assert sw.regime == ABOVE

    def test_sandwich_holds_and_is_tight(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = random_pd(rng, 5), random_pd(rng, 5)
            sw = sandwich_of(a, b)
            assert loewner_geq_zero(b.mat - sw.s * a.mat, 1e-9).holds
            assert loewner_geq_zero(sw.t * a.mat - b.mat, 1e-9).holds
            assert not loewner_geq_zero(b.mat - sw.s * (1 + 1e-6) * a.mat, 1e-9).holds
            assert not loewner_geq_zero(sw.t * (1 - 1e-6) * a.mat - b.mat, 1e-9).holds

    def test_ends_of_relative_spectrum(self):
        rng = np.random.default_rng(3)
        a, b = random_pd(rng, 5), random_pd(rng, 5)
        lam = relative_spectrum(a, b).eigenvalues
        sw = sandwich_of(a, b)
        assert (sw.s, sw.t) == (lam[0], lam[-1])

    def test_relative_spectrum_of_diagonal_pair(self):
        dec = relative_spectrum(SymPDMatrix(np.diag([2.0, 4.0, 1.0])),
                                SymPDMatrix(np.diag([1.0, 6.0, 3.0])))
        np.testing.assert_allclose(dec.eigenvalues, [0.5, 1.5, 3.0], rtol=1e-13)
        np.testing.assert_allclose(np.abs(dec.basis), np.eye(3), atol=1e-13)

    def test_roundtrip_with_generator(self):
        for seed, (s0, t0) in enumerate([(0.5, 2.0), (0.2, 0.9), (1.5, 6.0)]):
            a, b = gen_instance(4, s0, t0, seed)
            sw = sandwich_of(a, b)
            assert sw.s == pytest.approx(s0, rel=1e-8)
            assert sw.t == pytest.approx(t0, rel=1e-8)


class TestBoxes:
    def test_spectral_box_validation(self):
        SpectralBox(1.0, 2.0, 3.0, 6.0)
        with pytest.raises(DomainError):
            SpectralBox(1.0, 2.0, 2.0, 6.0)  # needs m < M strictly
        with pytest.raises(DomainError):
            SpectralBox(2.0, 1.0, 3.0, 6.0)

    def test_sandwich_from_box_case_i(self):
        sw = sandwich_from_box(SpectralBox(1.0, 1.0, 4.0, 4.0), A_BELOW_B)
        assert (sw.s, sw.t) == (4.0, 4.0)
        assert sw.regime == ABOVE
        sw = sandwich_from_box(SpectralBox(1.0, 2.0, 3.0, 6.0), A_BELOW_B)
        assert (sw.s, sw.t) == (1.5, 6.0)

    def test_sandwich_from_box_case_ii(self):
        sw = sandwich_from_box(SpectralBox(1.0, 2.0, 3.0, 6.0), B_BELOW_A)
        assert sw.s == pytest.approx(1 / 6)
        assert sw.t == pytest.approx(2 / 3)
        assert sw.regime == BELOW

    @pytest.mark.parametrize("read", [box_bands, sandwich_from_box])
    def test_unknown_order(self, read):
        with pytest.raises(InputError, match="unknown box order 'sideways'"):
            read(SpectralBox(1.0, 2.0, 3.0, 6.0), "sideways")

    @pytest.mark.parametrize("order,bands", [
        (A_BELOW_B, ((1.0, 2.0), (3.0, 6.0))),
        (B_BELOW_A, ((3.0, 6.0), (1.0, 2.0))),
    ])
    def test_box_bands_are_a_then_b(self, order, bands):
        box = SpectralBox(1.0, 2.0, 3.0, 6.0)
        assert box_bands(box, order) == bands
        (a_lo, a_hi), (b_lo, b_hi) = bands
        sw = sandwich_from_box(box, order)
        assert (sw.s, sw.t) == (b_lo / a_hi, b_hi / a_lo)

    def test_uniform_box_of(self):
        a = SymPDMatrix(np.diag([1.0, 2.0]))
        b = SymPDMatrix(np.diag([3.0, 4.0]))
        box = uniform_box_of(a, b)
        assert (box.m, box.M, box.h) == (1.0, 4.0, 4.0)
        assert not box.degenerate

    def test_uniform_box_degenerate(self):
        box = uniform_box_of(SymPDMatrix(np.eye(2)), SymPDMatrix(np.eye(2)))
        assert box.degenerate and box.h == 1.0

    def test_uniform_box_scalar_matrices(self):
        box = uniform_box_of(SymPDMatrix(2 * np.eye(3)), SymPDMatrix(3 * np.eye(3)))
        assert (box.m, box.M) == (2.0, 3.0)
        assert box.h == pytest.approx(1.5)

    def test_uniform_box_contains_both(self):
        rng = np.random.default_rng(4)
        a, b = random_pd(rng, 5), random_pd(rng, 5)
        box = uniform_box_of(a, b)
        eye = np.eye(5)
        for m in (a, b):
            assert loewner_geq_zero(m.mat - box.m * eye, 1e-12).holds
            assert loewner_geq_zero(box.M * eye - m.mat, 1e-12).holds
