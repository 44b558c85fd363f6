import math

import numpy as np
import pytest

from meancert import scalars as sc
from meancert.errors import DomainError


class TestScalarMeans:
    def test_nabla_midpoint(self):
        assert sc.scalar_nabla(1, 4, 0.5) == 2.5

    def test_nabla_endpoint(self):
        assert sc.scalar_nabla(3.7, 9.1, 0.0) == 3.7

    def test_nabla_extended_weight(self):
        assert sc.scalar_nabla(1, 4, 2.0) == 7.0

    def test_sharp_geometric(self):
        assert sc.scalar_sharp(1, 4, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_sharp_endpoint(self):
        assert sc.scalar_sharp(3.7, 9.1, 1.0) == pytest.approx(9.1, rel=1e-15)

    def test_sharp_extended_weight(self):
        assert sc.scalar_sharp(1, 4, 2.0) == pytest.approx(16.0, rel=1e-15)

    def test_harm_value(self):
        # (0.5 + 0.125)^-1
        assert sc.scalar_harm(1, 4, 0.5) == pytest.approx(1.6, rel=1e-15)

    def test_harm_equal_args(self):
        assert sc.scalar_harm(2, 2, 0.3) == pytest.approx(2.0, rel=1e-15)

    def test_harm_rejects_extended_weight(self):
        with pytest.raises(DomainError):
            sc.scalar_harm(1, 4, 1.5)

    def test_chain_random(self):
        rng = np.random.default_rng(11)
        a = np.exp(rng.uniform(-3, 3, 10_000))
        b = np.exp(rng.uniform(-3, 3, 10_000))
        v = rng.uniform(0, 1, 10_000)
        for ai, bi, vi in zip(a, b, v):
            h = sc.scalar_harm(ai, bi, vi)
            g = sc.scalar_sharp(ai, bi, vi)
            n = sc.scalar_nabla(ai, bi, vi)
            assert h <= g * (1 + 1e-14)
            assert g <= n * (1 + 1e-14)


class TestRatioAndGap:
    def test_f_at_one(self):
        assert sc.f_v(1.0, 0.37) == 1.0

    def test_f_half_of_four(self):
        assert sc.f_v(4, 0.5) == pytest.approx(1.25, rel=1e-15)

    def test_f_quarter_of_four(self):
        # 1.75 / 4^0.25
        assert sc.f_v(4, 0.25) == pytest.approx(1.75 / 4 ** 0.25, rel=1e-15)

    def test_g_at_one(self):
        assert sc.g_v(1.0, 0.42) == 0.0

    def test_g_half_of_two(self):
        assert sc.g_v(2, 0.5) == pytest.approx(1.5 - math.sqrt(2), rel=1e-14)

    def test_g_at_weight_two_is_neg_square(self):
        for x in (0.5, 1.0, 3.0, 10.0):
            assert sc.g_v(x, 2.0) == pytest.approx(-((x - 1) ** 2), rel=1e-13, abs=1e-13)

    def test_self_duality(self):
        for x in np.logspace(-2, 2, 25):
            for v in np.linspace(0, 1, 11):
                assert sc.f_v(1 / x, v) == pytest.approx(
                    sc.f_v(x, 1 - v), rel=1e-12)

    def test_f_monotone_both_sides(self):
        for v in (0.2, 0.5, 0.8):
            left = [sc.f_v(x, v) for x in np.linspace(0.05, 1.0, 40)]
            right = [sc.f_v(x, v) for x in np.linspace(1.0, 20.0, 40)]
            assert all(np.diff(left) <= 1e-14)
            assert all(np.diff(right) >= -1e-14)

    def test_g_monotone_both_sides(self):
        for v in (0.2, 0.5, 0.8):
            left = [sc.g_v(x, v) for x in np.linspace(0.05, 1.0, 40)]
            right = [sc.g_v(x, v) for x in np.linspace(1.0, 20.0, 40)]
            assert all(np.diff(left) <= 1e-14)
            assert all(np.diff(right) >= -1e-14)

    def test_g_convexity_by_second_differences(self):
        xs = np.linspace(0.1, 5.0, 60)
        for v in (0.1, 0.5, 0.9):
            vals = np.array([sc.g_v(x, v) for x in xs])
            assert np.all(np.diff(vals, 2) >= -1e-10)
        for v in (-0.5, 1.5, 2.0):
            vals = np.array([sc.g_v(x, v) for x in xs])
            assert np.all(np.diff(vals, 2) <= 1e-10)

    def test_g_sign_by_weight(self):
        xs = np.logspace(-2, 2, 50)
        for v in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert all(sc.g_v(x, v) >= -1e-14 for x in xs)
        for v in (-0.5, 1.5, 2.0):
            assert all(sc.g_v(x, v) <= 1e-14 for x in xs)

    def test_f_derivative_matches_closed_form(self):
        eps = 1e-5
        for x in np.linspace(0.2, 5.0, 20):
            for v in (0.2, 0.5, 0.8):
                fd = (sc.f_v(x + eps, v) - sc.f_v(x - eps, v)) / (2 * eps)
                exact = v * (1 - v) * (x - 1) * x ** (-v - 1)
                assert fd == pytest.approx(exact, abs=1e-6)

    def test_f_half_is_sqrt_kantorovich(self):
        for h in np.logspace(-2, 2, 40):
            assert sc.f_v(h, 0.5) == pytest.approx(
                math.sqrt(sc.kantorovich(h)), rel=1e-14)


class TestNamedConstants:
    def test_kantorovich(self):
        assert sc.kantorovich(1) == 1.0
        assert sc.kantorovich(4) == pytest.approx(25 / 16, rel=1e-15)
        assert sc.kantorovich(0.25) == pytest.approx(sc.kantorovich(4), rel=1e-15)

    def test_specht_at_one(self):
        assert sc.specht(1) == 1.0

    def test_specht_value(self):
        # direct evaluation of t^(1/(t-1)) / (e log t^(1/(t-1))) at t=4
        u = 4 ** (1 / 3)
        assert sc.specht(4) == pytest.approx(u / (math.e * math.log(u)), rel=1e-14)

    def test_specht_symmetry(self):
        for t in (0.25, 0.5, 2.0, 7.0):
            assert sc.specht(1 / t) == pytest.approx(sc.specht(t), rel=1e-12)

    def test_specht_continuity_near_one(self):
        # the series branch must join the closed form smoothly
        assert sc.specht(1 + 2e-8) == pytest.approx(1.0, abs=1e-14)
        assert sc.specht(1.001) == pytest.approx(1 + 0.001 ** 2 / 24, rel=1e-6)

    def test_log_mean(self):
        assert sc.log_mean(3.2, 3.2) == 3.2
        assert sc.log_mean(1, 4) == pytest.approx(3 / math.log(4), rel=1e-15)
        assert sc.log_mean(1, math.e) == pytest.approx(math.e - 1, rel=1e-14)

    def test_log_mean_between_geometric_and_arithmetic(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = np.exp(rng.uniform(-3, 3, 2))
            lm = sc.log_mean(x, y)
            assert min(x, y) <= lm <= max(x, y)

    def test_zuo_constant(self):
        assert sc.zuo_constant(1, 0.3) == 1.0
        assert sc.zuo_constant(4, 0.5) == pytest.approx(1.25, rel=1e-15)
        assert sc.zuo_constant(4, 0.25) == pytest.approx(1.5625 ** 0.25, rel=1e-15)

    def test_specht_constant(self):
        assert sc.specht_constant(1, 0.3) == 1.0
        assert sc.specht_constant(4, 0.5) == pytest.approx(sc.specht(2), rel=1e-14)
        assert sc.specht_constant(4, 0.0) == 1.0

    def test_dragomir_constant(self):
        assert sc.dragomir_constant(1, 0.5) == 1.0
        assert sc.dragomir_constant(2, 0.0) == 1.0
        assert sc.dragomir_constant(2, 1.0) == 1.0
        assert sc.dragomir_constant(2, 0.5) == pytest.approx(math.exp(1 / 8), rel=1e-15)

    def test_dragomir_saturates_instead_of_overflowing(self):
        assert sc.dragomir_constant(1e4, 0.5) == math.inf

    def test_dragomir_refinement_constant(self):
        assert sc.dragomir_refinement_constant(1, 0.5) == 1.0
        assert sc.dragomir_refinement_constant(2, 0.0) == 1.0
        assert sc.dragomir_refinement_constant(2, 0.5) == pytest.approx(
            math.exp(1 / 32), rel=1e-15)
        assert sc.dragomir_refinement_constant(1e-4, 0.5) == math.inf

    def test_dragomir_refinement_lies_below_f_v(self):
        # a refinement: 1 <= constant <= f_v(h), below the reverse constant
        for h in np.logspace(np.log10(1 + 1e-3), 2, 50):
            for v in np.arange(0.05, 0.951, 0.05):
                c = sc.dragomir_refinement_constant(h, v)
                assert 1.0 <= c <= sc.f_v(h, v) <= sc.dragomir_constant(h, v)

    def test_tominaga_additive(self):
        assert sc.tominaga_additive(1) == 0.0
        expected = sc.log_mean(1, 4) * math.log(sc.specht(4))
        assert sc.tominaga_additive(4) == pytest.approx(expected, rel=1e-14)
        assert sc.tominaga_additive(2) > 0
