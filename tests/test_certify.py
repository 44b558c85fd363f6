import math
from dataclasses import replace

import numpy as np
import pytest

from meancert import certify
from meancert import scalars as sc
from meancert.certify import (
    CATALOG_ORDER,
    HARM_VS_SHARP,
    CertReport,
    catalog,
    compare_constants,
    comparison_of,
    gen_box_instance,
    gen_instance,
    verify,
)
from meancert.eigen import SymPDMatrix
from meancert.errors import DomainError, InputError
from meancert.sandwich import (
    ABOVE,
    A_BELOW_B,
    BELOW,
    B_BELOW_A,
    STRADDLE,
    SandwichInterval,
    SpectralBox,
    UniformBox,
    sandwich_of,
    uniform_box_of,
)


def by_name(bounds):
    return {b.name: b for b in bounds}


# one sandwich per regime: below, above, straddle
REGIME_SANDWICHES = [(0.2, 0.8), (1.5, 6.0), (0.5, 2.0)]
BOX = SpectralBox(0.5, 2.0, 3.0, 8.0)

IN_UNIT_BOUNDS = ("thm1.lower", "thm1.upper", "young.classical", "straddle.mult.upper",
                  "prop2.lower", "prop2.upper", "thm3.upper", "harm.lower", "harm.upper",
                  "xi.upper", "tominaga.upper", "zuo", "specht", "dragomir")
BOX_BOUNDS = ("ext.box.lower", "ext.box.upper", "ext.ibox.lower", "ext.ibox.upper")


def expected_reasons(regime, in_unit, has_ubox, has_sbox):
    """Name -> reason for every bound the catalog must mark inapplicable."""
    if not in_unit:
        reasons = dict.fromkeys(IN_UNIT_BOUNDS, "weight outside [0, 1]")
        if not has_sbox:
            reasons.update(dict.fromkeys(BOX_BOUNDS, "no spectral box supplied"))
        return reasons
    reasons = dict.fromkeys(("ext.lower", "ext.upper") + BOX_BOUNDS, "weight inside [0, 1]")
    if regime == STRADDLE:
        reasons.update(dict.fromkeys(
            ("thm1.lower", "thm1.upper", "prop2.lower", "prop2.upper"),
            "straddle regime: interval contains 1"))
        reasons.update(dict.fromkeys(
            ("zuo", "specht", "dragomir"),
            "straddle regime: no one-sided ratio to feed the literature constants"))
    else:
        reasons["straddle.mult.upper"] = "not a straddle instance"
    if not has_ubox:
        reasons.update(dict.fromkeys(("xi.upper", "tominaga.upper"), "no uniform box supplied"))
    return reasons


class TestCatalog:
    def test_stable_order(self):
        sw = SandwichInterval(0.5, 2.0)
        bounds = catalog(sw, 0.5)
        assert [b.name for b in bounds] == list(CATALOG_ORDER)

    def test_above_regime_constants(self):
        sw = SandwichInterval(4.0, 4.0)
        bounds = by_name(catalog(sw, 0.5))
        assert bounds["thm1.lower"].constant == pytest.approx(1.25)
        assert bounds["zuo"].constant == pytest.approx(1.25)
        assert bounds["thm1.lower"].applicable
        assert not bounds["straddle.mult.upper"].applicable

    def test_straddle_additive_upper(self):
        sw = SandwichInterval(0.5, 2.0)
        bounds = by_name(catalog(sw, 0.5))
        assert bounds["thm3.upper"].constant == pytest.approx(
            max(sc.g_v(0.5, 0.5), sc.g_v(2.0, 0.5)))
        assert bounds["thm3.upper"].constant == pytest.approx(1.5 - math.sqrt(2))
        assert not bounds["thm1.lower"].applicable
        assert not bounds["zuo"].applicable

    def test_extended_weight_gating(self):
        sw = SandwichInterval(0.5, 2.0)
        bounds = by_name(catalog(sw, 2.0))
        assert not bounds["young.classical"].applicable
        assert bounds["ext.lower"].applicable
        assert bounds["ext.upper"].constant == 0.0  # straddle peak of the gap at 1

    def test_extended_upper_one_sided(self):
        bounds = by_name(catalog(SandwichInterval(1.5, 3.0), 2.0))
        assert bounds["ext.upper"].constant == pytest.approx(sc.g_v(1.5, 2.0))
        bounds = by_name(catalog(SandwichInterval(0.2, 0.8), 2.0))
        assert bounds["ext.upper"].constant == pytest.approx(sc.g_v(0.8, 2.0))

    def test_literature_flagging(self):
        sw = SandwichInterval(2.0, 3.0)
        bounds = by_name(catalog(sw, 0.3, uniform_box=UniformBox(1.0, 4.0)))
        for name in ("zuo", "specht", "dragomir", "tominaga.upper"):
            assert bounds[name].literature
        assert not bounds["thm1.lower"].literature

    def test_below_uses_inverse_t_for_literature(self):
        sw = SandwichInterval(0.2, 0.5)
        bounds = by_name(catalog(sw, 0.3))
        assert bounds["zuo"].constant == pytest.approx(sc.zuo_constant(2.0, 0.3))

    def test_box_bounds_need_box(self):
        sw = SandwichInterval(1.5, 6.0)
        bounds = by_name(catalog(sw, 1.5))
        assert not bounds["ext.box.lower"].applicable
        bounds = by_name(catalog(sw, 1.5, spectral_box=SpectralBox(1, 2, 3, 6),
                                 box_order=A_BELOW_B))
        assert bounds["ext.box.lower"].applicable
        assert bounds["ext.ibox.upper"].reference_matrix == "I"

    @pytest.mark.parametrize("box", ["none", "uniform", A_BELOW_B, B_BELOW_A])
    @pytest.mark.parametrize("v", [-0.5, 0.3, 1.5])
    @pytest.mark.parametrize("s, t", REGIME_SANDWICHES)
    def test_applicability_reasons(self, s, t, v, box):
        sw = SandwichInterval(s, t)
        kwargs = {"uniform": {"uniform_box": UniformBox(0.5, 4.0)},
                  "none": {}}.get(box, {"spectral_box": BOX, "box_order": box})
        reasons = expected_reasons(sw.regime, 0.0 <= v <= 1.0, box == "uniform",
                                   box in (A_BELOW_B, B_BELOW_A))
        for b in catalog(sw, v, **kwargs):
            assert b.applicability_reason == reasons.get(b.name, ""), b.name
            assert b.applicable == (b.name not in reasons), b.name
            assert (b.constant is None) == (b.name in reasons), b.name

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_harm_constants(self, v):
        dual = lambda x: 1.0 / sc.f_v(x, 1.0 - v)  # noqa: E731
        cases = [((0.5, 2.0), min(dual(0.5), dual(2.0)), 1.0),
                 ((1.5, 6.0), dual(6.0), dual(1.5)),
                 ((0.2, 0.8), dual(0.2), dual(0.8))]
        for (s, t), lo, hi in cases:
            bounds = by_name(catalog(SandwichInterval(s, t), v))
            assert bounds["harm.lower"].constant == pytest.approx(lo, rel=1e-15)
            assert bounds["harm.upper"].constant == pytest.approx(hi, rel=1e-15)

    @pytest.mark.parametrize("v", [-1.0, -0.5, 1.5, 3.0])
    @pytest.mark.parametrize("s, t", REGIME_SANDWICHES)
    def test_ext_upper_per_regime(self, s, t, v):
        sw = SandwichInterval(s, t)
        expected = {ABOVE: sc.g_v(s, v), BELOW: sc.g_v(t, v), STRADDLE: 0.0}[sw.regime]
        bounds = by_name(catalog(sw, v))
        assert bounds["ext.upper"].constant == pytest.approx(expected, rel=1e-15)
        assert bounds["ext.lower"].constant == pytest.approx(
            min(sc.g_v(s, v), sc.g_v(t, v)), rel=1e-15)

    @pytest.mark.parametrize("v", [-1.0, -0.5, 1.5, 3.0])
    def test_box_constants(self, v):
        m_out, m_in, M_in, M_out = BOX.m_outer, BOX.m_inner, BOX.M_inner, BOX.M_outer
        sw = SandwichInterval(0.5, 2.0)
        expected = {
            A_BELOW_B: (-sc.g_v(M_in / m_in, v), -sc.g_v(M_out / m_out, v),
                        -m_out * sc.g_v(M_in / m_in, v), -m_in * sc.g_v(M_out / m_out, v)),
            B_BELOW_A: (-sc.g_v(m_in / M_in, v), -sc.g_v(m_out / M_out, v),
                        -M_in * sc.g_v(m_in / M_in, v), -M_out * sc.g_v(m_out / M_out, v)),
        }
        for order, consts in expected.items():
            bounds = by_name(catalog(sw, v, spectral_box=BOX, box_order=order))
            got = [bounds[n].constant for n in
                   ("ext.box.lower", "ext.box.upper", "ext.ibox.lower", "ext.ibox.upper")]
            assert got == pytest.approx(list(consts), rel=1e-14)

    def test_unknown_box_order(self):
        sw = SandwichInterval(0.5, 2.0)
        with pytest.raises(InputError, match="unknown box order 'sideways'"):
            catalog(sw, 1.5, spectral_box=BOX, box_order="sideways")
        # the order is only read where the box bounds apply
        assert not by_name(catalog(sw, 0.5, spectral_box=BOX, box_order="sideways"))[
            "ext.box.lower"].applicable
        assert not by_name(catalog(sw, 1.5, box_order="sideways"))["ext.box.lower"].applicable

    def test_spectral_box_without_order_is_an_error(self):
        with pytest.raises(InputError, match="unknown box order 'None'"):
            catalog(SandwichInterval(0.5, 2.0), 1.5, spectral_box=BOX)

    def test_lower_multiplicative_constants_at_least_one(self):
        for s, t in [(0.2, 0.8), (1.5, 6.0), (0.5, 2.0)]:
            for v in (0.1, 0.5, 0.9):
                for b in catalog(SandwichInterval(s, t), v):
                    if (b.applicable and b.form == "multiplicative"
                            and b.side == "lower"
                            and b.relation == "nabla_vs_sharp"):
                        assert b.constant >= 1.0 - 1e-12


class TestVerify:
    def test_scalar_sharpness_witness(self):
        a = SymPDMatrix(4.0 * np.eye(3))
        b = SymPDMatrix(np.eye(3))
        sw = sandwich_of(a, b)
        assert sw.regime == "below"
        report = verify(a, b, 0.5, catalog(sw, 0.5))
        res = {r.statement.name: r for r in report.results}
        assert report.overall_pass
        # B = (1/4)A exactly, so the sharp lower bound is an equality
        assert abs(res["thm1.lower"].verdict.min_eig) <= 1e-12

    def test_equal_matrices_all_residuals_vanish(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4))
        a = SymPDMatrix(x @ x.T + 4 * np.eye(4))
        for v in (0.0, 0.3, 1.0):
            report = verify(a, a, v, catalog(sandwich_of(a, a), v))
            assert report.overall_pass
            for r in report.results:
                if r.verdict is not None:
                    assert abs(r.verdict.min_eig) <= 1e-9

    def test_random_above_regime(self):
        for i in range(10):
            a, b = gen_instance(4, 1.2, 5.0, 100 + i)
            sw = sandwich_of(a, b)
            report = verify(a, b, 0.3, catalog(sw, 0.3, uniform_box=uniform_box_of(a, b)))
            assert report.overall_pass

    def test_literature_violation_is_finding_not_failure(self):
        # wide above-regime spread: the exponential reverse constant keyed to
        # s alone cannot cover the upper end
        a, b = gen_instance(5, 1.05, 50.0, 7)
        sw = sandwich_of(a, b)
        report = verify(a, b, 0.5, catalog(sw, 0.5))
        assert report.overall_pass
        assert any("dragomir" in f for f in report.findings)

    def test_falsified_constant_fails_overall(self):
        from dataclasses import replace

        a, b = gen_instance(3, 1.5, 2.0, 1)
        sw = sandwich_of(a, b)
        tampered = [replace(b_, constant=b_.constant * 2)
                    if b_.name == "thm1.lower" else b_
                    for b_ in catalog(sw, 0.5)]
        report = verify(a, b, 0.5, tampered)
        assert not report.overall_pass

    def test_report_roundtrip(self):
        a, b = gen_instance(3, 0.4, 0.9, 2)
        sw = sandwich_of(a, b)
        report = verify(a, b, 0.25, catalog(sw, 0.25),
                        instance={"dim": 3, "v": 0.25, "s": sw.s, "t": sw.t,
                                  "regime": sw.regime})
        d = report.to_dict()
        assert CertReport.from_dict(d) == report

    @pytest.mark.parametrize("s0,t0,v,applicable", [
        (1.2, 5.0, 0.3, 13), (0.4, 2.5, 0.3, 7), (0.4, 2.5, 1.5, 2)])
    def test_normalized_margin_is_min_eig_over_residual_norm(self, s0, t0, v, applicable):
        a, b = gen_instance(4, s0, t0, 3)
        a, b = SymPDMatrix(30.0 * a.mat), SymPDMatrix(30.0 * b.mat)
        report = verify(a, b, v, catalog(sandwich_of(a, b), v, uniform_box=uniform_box_of(a, b)))
        # the residuals rebuilt with LAPACK, apart from the program's means
        lam, q = np.linalg.eigh(a.mat)
        half, inv_half = (q * np.sqrt(lam)) @ q.T, (q / np.sqrt(lam)) @ q.T
        w, u = np.linalg.eigh(inv_half @ b.mat @ inv_half)
        nabla = (1 - v) * a.mat + v * b.mat
        sharp = half @ (u * w**v) @ u.T @ half
        harm = half @ (u / ((1 - v) + v / w)) @ u.T @ half
        checked = 0
        for r in report.results:
            if r.verdict is None:
                continue
            st, c = r.statement, r.statement.constant
            if st.form == "multiplicative":
                lhs = harm if st.relation == HARM_VS_SHARP else nabla
                res = lhs - c * sharp if st.side == "lower" else c * sharp - lhs
            else:
                gap = nabla - sharp if st.relation == "nabla_vs_sharp" else sharp - nabla
                res = gap - c * a.mat if st.side == "lower" else c * a.mat - gap
            expected = r.verdict.min_eig / max(1.0, np.linalg.norm(res))
            assert r.verdict.min_eig_normalized == pytest.approx(expected, rel=1e-9, abs=0)
            checked += 1
        assert checked == applicable

    def test_pass_and_findings_are_read_from_the_verdicts(self):
        a, b = gen_instance(5, 1.05, 50.0, 7)
        d = verify(a, b, 0.5, catalog(sandwich_of(a, b), 0.5)).to_dict()
        assert d["overall_pass"] and d["findings"]
        d["findings"], d["overall_pass"] = [], False  # stale copies are not read back
        for r in d["bounds"]:
            if r["statement"]["name"] == "thm1.lower":
                r["verdict"]["holds"] = False
        report = CertReport.from_dict(d)
        assert not report.overall_pass
        assert report.findings == tuple(
            f"literature bound {r.statement.name} violated: "
            f"min residual eigenvalue {r.verdict.min_eig:.6e}"
            for r in report.results
            if r.statement.literature and r.verdict and not r.verdict.holds)
        assert report.findings


class TestHarmonicMeanBuild:
    """verify builds A!_vB exactly when an applicable bound compares it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = certify.op_harm

        def counting(a, b, v):
            calls.append(v)
            return real(a, b, v)

        monkeypatch.setattr(certify, "op_harm", counting)
        return calls

    def test_full_catalog_in_unit_builds_it_once(self, calls):
        a, b = gen_instance(3, 0.4, 2.5, 1)
        assert verify(a, b, 0.5, catalog(sandwich_of(a, b), 0.5)).overall_pass
        assert calls == [0.5]

    def test_extended_weight_does_not_build_it(self, calls):
        a, b = gen_instance(3, 0.4, 2.5, 1)
        verify(a, b, 1.5, catalog(sandwich_of(a, b), 1.5))
        assert calls == []

    def test_not_built_when_no_harmonic_bound_applies(self, calls):
        a, b = gen_instance(3, 0.4, 2.5, 1)
        bounds = [replace(x, applicable=False, constant=None)
                  if x.relation == HARM_VS_SHARP else x
                  for x in catalog(sandwich_of(a, b), 0.5)]
        report = verify(a, b, 0.5, bounds)
        assert calls == []
        assert all(r.verdict is None for r in report.results
                   if r.statement.name.startswith("harm."))

    def test_applicable_harmonic_bound_at_extended_weight_is_domain_error(self, calls):
        a, b = gen_instance(3, 0.4, 2.5, 1)
        # applicable at v = 0.5, so applicable where its gate would say no
        harm_lower = by_name(catalog(sandwich_of(a, b), 0.5))["harm.lower"]
        with pytest.raises(DomainError, match="harmonic mean needs weight in"):
            verify(a, b, 1.5, [harm_lower])
        assert calls == [1.5]


class TestCompareConstants:
    def test_reference_point(self):
        row = compare_constants(4.0, 0.5)
        assert row["f_v"] == pytest.approx(1.25)
        assert row["zuo"] == pytest.approx(1.25)
        assert row["specht"] == pytest.approx(sc.specht(2.0), rel=1e-14)
        assert row["dragomir"] == pytest.approx(math.exp(9 / 8), rel=1e-14)
        assert row["specht_le_zuo"] and row["zuo_le_f"]

    def test_degenerate_rows(self):
        row = compare_constants(1.0, 0.5)
        assert (row["f_v"], row["zuo"], row["specht"], row["dragomir"]) == (1, 1, 1, 1)
        row = compare_constants(3.0, 0.0)
        assert (row["f_v"], row["zuo"], row["specht"], row["dragomir"]) == (1, 1, 1, 1)

    def test_numpy_scalars_give_plain_floats_and_bools(self):
        row = compare_constants(np.float64(2.0), np.float64(0.5))
        assert row == compare_constants(2.0, 0.5)
        assert [type(row[k]) for k in ("h", "v", "specht_le_zuo", "zuo_le_f")] == [
            float, float, bool, bool]

    def test_domain(self):
        with pytest.raises(DomainError):
            compare_constants(0.5, 0.5)
        with pytest.raises(DomainError):
            compare_constants(2.0, 1.5)


class TestComparisonOf:
    @pytest.mark.parametrize("s,t,v,h", [
        (2.0, 5.0, 0.5, 2.0),  # above: h = s
        (0.2, 0.5, 0.3, 2.0),  # below: h = 1/t
        (1.0, 1.0, 0.0, 1.0),
        (1.0, 3.0, 1.0, 1.0),
    ])
    def test_row_at_the_literature_ratio(self, s, t, v, h):
        assert comparison_of(SandwichInterval(s, t), v) == compare_constants(h, v)

    @pytest.mark.parametrize("s,t,v", [
        (0.5, 2.0, 0.5),  # straddle
        (2.0, 5.0, 1.5),  # weight outside [0, 1]
        (0.5, 2.0, -0.5),
        (1.0 - 5e-13, 2.0, 0.5),  # above by the tie tolerance: h < 1
        (0.5, 1.0 + 5e-13, 0.5),  # below by the tie tolerance: h < 1
    ])
    def test_none_without_a_ratio_at_least_one(self, s, t, v):
        assert comparison_of(SandwichInterval(s, t), v) is None


class TestGenerators:
    def test_forced_scalar_pair(self):
        a, b = gen_instance(1, 3.0, 3.0, 0)
        assert b.mat[0, 0] == pytest.approx(3.0 * a.mat[0, 0], rel=1e-12)

    def test_prescribed_sandwich(self):
        a, b = gen_instance(4, 0.5, 2.0, 123)
        sw = sandwich_of(a, b)
        assert sw.s == pytest.approx(0.5, rel=1e-8)
        assert sw.t == pytest.approx(2.0, rel=1e-8)

    def test_deterministic(self):
        a1, b1 = gen_instance(5, 0.7, 1.9, 99)
        a2, b2 = gen_instance(5, 0.7, 1.9, 99)
        np.testing.assert_array_equal(a1.mat, a2.mat)
        np.testing.assert_array_equal(b1.mat, b2.mat)

    def test_invalid_ranges(self):
        with pytest.raises(InputError):
            gen_instance(4, 2.0, 1.0, 0)
        with pytest.raises(InputError):
            gen_instance(1, 0.5, 2.0, 0)
        with pytest.raises(InputError):
            gen_instance(0, 0.5, 2.0, 0)

    def test_box_instance_respects_box(self):
        box = SpectralBox(0.5, 1.0, 2.0, 4.0)
        a, b = gen_box_instance(4, box, A_BELOW_B, 3)
        assert a.eigenvalues[0] >= box.m_outer - 1e-12
        assert a.eigenvalues[-1] <= box.m_inner + 1e-12
        assert b.eigenvalues[0] >= box.M_inner - 1e-12
        assert b.eigenvalues[-1] <= box.M_outer + 1e-12
        a, b = gen_box_instance(4, box, B_BELOW_A, 3)
        assert b.eigenvalues[-1] <= box.m_inner + 1e-12
        assert a.eigenvalues[0] >= box.M_inner - 1e-12

    def test_box_instance_unknown_order(self):
        with pytest.raises(InputError, match="unknown box order 'sideways'"):
            gen_box_instance(4, SpectralBox(0.5, 1.0, 2.0, 4.0), "sideways", 0)

    def test_box_instance_regime(self):
        box = SpectralBox(0.5, 1.0, 2.0, 4.0)
        a, b = gen_box_instance(4, box, A_BELOW_B, 5)
        assert sandwich_of(a, b).regime == ABOVE
