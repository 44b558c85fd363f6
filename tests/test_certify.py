import math
from dataclasses import replace

import numpy as np
import pytest

from meancert import certify, eigen
from meancert import scalars as sc
from meancert.certify import (
    CATALOG_ORDER,
    HARM_VS_SHARP,
    catalog,
    compare_constants,
    comparison_of,
    gen_box_instance,
    gen_instance,
    verify,
)
from meancert.means import op_harm, op_nabla, op_sharp
from meancert.eigen import DEFAULT_LOEWNER_TOL, SymPDMatrix, loewner_geq_zero
from meancert.errors import DomainError, InputError, NumericalError
from meancert.sandwich import (
    ABOVE,
    BELOW,
    STRADDLE,
    PairContext,
    SandwichInterval,
    SpectralBox,
    UniformBox,
    uniform_box_of,
)


def by_name(bounds):
    return {b.name: b for b in bounds}


# one sandwich per regime: below, above, straddle
REGIME_SANDWICHES = [(0.2, 0.8), (1.5, 6.0), (0.5, 2.0)]
# the same two bands in each case of the box hypothesis
BOXES = {"a_below_b": SpectralBox((0.5, 2.0), (3.0, 8.0)),
         "b_below_a": SpectralBox((3.0, 8.0), (0.5, 2.0))}

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

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("s,t", [(0.5, 2.0), (1.5, 3.0)], ids=["straddle", "above"])
    def test_a_non_finite_weight_is_a_domain_error(self, s, t, v):
        # outside [0, 1] the extended rows apply, and their constants read the weight
        with pytest.raises(DomainError, match="must be finite"):
            catalog(SandwichInterval(s, t), v)

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
        bounds = by_name(catalog(sw, 1.5, spectral_box=SpectralBox((1, 2), (3, 6))))
        assert bounds["ext.box.lower"].applicable
        assert bounds["ext.ibox.upper"].reference_matrix == "I"

    @pytest.mark.parametrize("box", ["none", "uniform", "a_below_b", "b_below_a"])
    @pytest.mark.parametrize("v", [-0.5, 0.3, 1.5])
    @pytest.mark.parametrize("s, t", REGIME_SANDWICHES)
    def test_applicability_reasons(self, s, t, v, box):
        sw = SandwichInterval(s, t)
        kwargs = {"uniform": {"uniform_box": UniformBox(0.5, 4.0)},
                  "none": {}}.get(box, {"spectral_box": BOXES.get(box)})
        reasons = expected_reasons(sw.regime, 0.0 <= v <= 1.0, box == "uniform", box in BOXES)
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
        (m_out, m_in), (M_in, M_out) = BOXES["a_below_b"].a_band, BOXES["a_below_b"].b_band
        sw = SandwichInterval(0.5, 2.0)
        expected = {
            "a_below_b": (-sc.g_v(M_in / m_in, v), -sc.g_v(M_out / m_out, v),
                          -m_out * sc.g_v(M_in / m_in, v), -m_in * sc.g_v(M_out / m_out, v)),
            "b_below_a": (-sc.g_v(m_in / M_in, v), -sc.g_v(m_out / M_out, v),
                          -M_in * sc.g_v(m_in / M_in, v), -M_out * sc.g_v(m_out / M_out, v)),
        }
        for case, consts in expected.items():
            bounds = by_name(catalog(sw, v, spectral_box=BOXES[case]))
            got = [bounds[n].constant for n in
                   ("ext.box.lower", "ext.box.upper", "ext.ibox.lower", "ext.ibox.upper")]
            assert got == pytest.approx(list(consts), rel=1e-14)

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
        sw = PairContext(a, b).sandwich
        assert sw.regime == "below"
        report = verify(PairContext(a, b), 0.5, catalog(sw, 0.5))
        res = {r.statement.name: r for r in report.results}
        assert report.overall_pass
        # B = (1/4)A exactly, so the sharp lower bound is an equality
        assert abs(res["thm1.lower"].verdict.min_eig) <= 1e-12

    def test_equal_matrices_all_residuals_vanish(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4))
        a = SymPDMatrix(x @ x.T + 4 * np.eye(4))
        for v in (0.0, 0.3, 1.0):
            report = verify(PairContext(a, a), v, catalog(PairContext(a, a).sandwich, v))
            assert report.overall_pass
            for r in report.results:
                if r.verdict is not None:
                    assert abs(r.verdict.min_eig) <= 1e-9

    def test_random_above_regime(self):
        for i in range(10):
            a, b = gen_instance(4, 1.2, 5.0, 100 + i)
            sw = PairContext(a, b).sandwich
            report = verify(PairContext(a, b), 0.3,
                            catalog(sw, 0.3, uniform_box=uniform_box_of(a, b)))
            assert report.overall_pass

    def test_literature_violation_is_finding_not_failure(self):
        # wide above-regime spread: the exponential reverse constant keyed to
        # s alone cannot cover the upper end
        a, b = gen_instance(5, 1.05, 50.0, 7)
        sw = PairContext(a, b).sandwich
        report = verify(PairContext(a, b), 0.5, catalog(sw, 0.5))
        assert report.overall_pass
        assert any("dragomir" in f for f in report.findings)

    def test_falsified_constant_fails_overall(self):
        from dataclasses import replace

        a, b = gen_instance(3, 1.5, 2.0, 1)
        sw = PairContext(a, b).sandwich
        tampered = [replace(b_, constant=b_.constant * 2)
                    if b_.name == "thm1.lower" else b_
                    for b_ in catalog(sw, 0.5)]
        report = verify(PairContext(a, b), 0.5, tampered)
        assert not report.overall_pass

    @pytest.mark.parametrize("s0,t0,v,applicable", [
        (1.2, 5.0, 0.3, 13), (0.4, 2.5, 0.3, 7), (0.4, 2.5, 1.5, 2)])
    def test_normalized_margin_is_min_eig_over_residual_norm(self, s0, t0, v, applicable):
        a, b = gen_instance(4, s0, t0, 3)
        a, b = SymPDMatrix(30.0 * a.mat), SymPDMatrix(30.0 * b.mat)
        report = verify(PairContext(a, b), v,
                        catalog(PairContext(a, b).sandwich, v, uniform_box=uniform_box_of(a, b)))
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
        report = verify(PairContext(a, b), 0.5, catalog(PairContext(a, b).sandwich, 0.5))
        assert report.overall_pass and report.findings
        report = replace(report, results=tuple(
            replace(r, verdict=replace(r.verdict, holds=False))
            if r.statement.name == "thm1.lower" else r for r in report.results))
        assert not report.overall_pass
        assert not report.to_dict()["overall_pass"]
        assert report.findings == tuple(
            f"literature bound {r.statement.name} violated: "
            f"min residual eigenvalue {r.verdict.min_eig:.6e}"
            for r in report.results
            if r.statement.literature and r.verdict and not r.verdict.holds)
        assert report.findings


class TestOneCheckPerDistinctResidual:
    """verify makes one Loewner check per distinct residual byte string, in
    table order, and rows that share a residual share its verdict."""

    @pytest.fixture
    def checked(self, monkeypatch):
        checked = []
        real = certify.loewner_geq_zero

        def spy(x, tol_rel):
            checked.append(x.tobytes())
            return real(x, tol_rel)

        monkeypatch.setattr(certify, "loewner_geq_zero", spy)
        return checked

    @staticmethod
    def certified(a, b, v):
        """The verdicts at v, and the applicable rows grouped by residual bytes,
        with the residuals built apart from verify."""
        pair = PairContext(a, b)
        bounds = catalog(pair.sandwich, v, uniform_box=pair.uniform_box)
        report = verify(pair, v, bounds)
        nabla, sharp, harm = op_nabla(a, b, v), op_sharp(pair, v), op_harm(pair, v)
        groups = {}
        for x in bounds:
            if x.applicable:
                key = certify._residual(x, nabla, sharp, harm, a.mat).tobytes()
                groups[key] = groups.get(key, ()) + (x.name,)
        return {r.statement.name: r.verdict for r in report.results}, groups

    @pytest.mark.parametrize("v,distinct", [(0.0, 4), (0.3, 12), (0.5, 11)])
    def test_one_sided_pair(self, checked, v, distinct):
        verdicts, groups = self.certified(*gen_instance(4, 1.2, 5.0, 3), v)
        assert sum(map(len, groups.values())) == 13
        assert [groups.get(key) for key in checked] == list(groups.values())
        assert len(checked) == distinct
        # the key is the bytes, not the row family: c = 1 and c = 0 meet at v = 0
        if v == 0.0:
            assert any({"thm1.upper", "prop2.upper"} <= set(g) for g in groups.values())
        for group in groups.values():
            assert all(verdicts[name] == verdicts[group[0]] for name in group)

    def test_residuals_apart_only_in_signs_of_zeros_share_a_check(self, checked):
        # at v = 0, thm1.upper (1 sharp - nabla) and prop2.upper (0 A - gap)
        # are equal, but 0 times a negative entry of A leaves -0.0 in the latter
        a, b = gen_instance(4, 1.2, 5.0, 1)
        verdicts, groups = self.certified(a, b, 0.0)
        assert not any({"thm1.upper", "prop2.upper"} <= set(g) for g in groups.values())
        assert len(groups) == 5 and len(checked) == 4
        pair = PairContext(a, b)
        nabla, sharp, harm = op_nabla(a, b, 0.0), op_sharp(pair, 0.0), op_harm(pair, 0.0)
        for x in catalog(pair.sandwich, 0.0, uniform_box=pair.uniform_box):
            if x.applicable:
                own = loewner_geq_zero(certify._residual(x, nabla, sharp, harm, a.mat),
                                       DEFAULT_LOEWNER_TOL)
                # the same bits, the sign of a zero included
                assert np.float64(verdicts[x.name].min_eig).tobytes() == \
                    np.float64(own.min_eig).tobytes()
                assert verdicts[x.name].holds == own.holds

    def test_doubled_zuo_splits_its_group(self, checked, monkeypatch):
        a, b = gen_instance(4, 1.2, 5.0, 3)
        _, groups = self.certified(a, b, 0.5)
        assert ("thm1.lower", "zuo") in groups.values()
        real = certify.scalars.zuo_constant
        monkeypatch.setattr(certify.scalars, "zuo_constant", lambda h, v: 2 * real(h, v))
        checked.clear()
        verdicts, groups = self.certified(a, b, 0.5)
        assert ("thm1.lower",) in groups.values() and ("zuo",) in groups.values()
        assert not verdicts["zuo"].holds and verdicts["thm1.lower"].holds
        assert [groups.get(key) for key in checked] == list(groups.values())
        assert len(checked) == 12

    def test_straddle_pair_checks_every_row(self, checked):
        _, groups = self.certified(*gen_instance(4, 0.4, 2.5, 3), 0.5)
        assert [groups.get(key) for key in checked] == list(groups.values())
        assert all(len(g) == 1 for g in groups.values()) and len(checked) == 7


class TestHarmonicMeanBuild:
    """verify builds A!_vB exactly when an applicable bound compares it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = certify.op_harm

        def counting(pair, v, **kwargs):
            calls.append(v)
            return real(pair, v, **kwargs)

        monkeypatch.setattr(certify, "op_harm", counting)
        return calls

    def test_full_catalog_in_unit_builds_it_once(self, calls):
        a, b = gen_instance(3, 0.4, 2.5, 1)
        assert verify(PairContext(a, b), 0.5, catalog(PairContext(a, b).sandwich, 0.5)).overall_pass
        assert calls == [0.5]

    def test_extended_weight_does_not_build_it(self, calls):
        a, b = gen_instance(3, 0.4, 2.5, 1)
        verify(PairContext(a, b), 1.5, catalog(PairContext(a, b).sandwich, 1.5))
        assert calls == []

    def test_not_built_when_no_harmonic_bound_applies(self, calls):
        a, b = gen_instance(3, 0.4, 2.5, 1)
        bounds = [replace(x, applicable=False, constant=None)
                  if x.relation == HARM_VS_SHARP else x
                  for x in catalog(PairContext(a, b).sandwich, 0.5)]
        report = verify(PairContext(a, b), 0.5, bounds)
        assert calls == []
        assert all(r.verdict is None for r in report.results
                   if r.statement.name.startswith("harm."))

    def test_applicable_harmonic_bound_at_extended_weight_is_domain_error(self, calls):
        a, b = gen_instance(3, 0.4, 2.5, 1)
        # applicable at v = 0.5, so applicable where its gate would say no
        harm_lower = by_name(catalog(PairContext(a, b).sandwich, 0.5))["harm.lower"]
        with pytest.raises(DomainError, match="harmonic mean needs weight in"):
            verify(PairContext(a, b), 1.5, [harm_lower])
        assert calls == [1.5]


# (s0, t0) of a gen_instance pair in each regime; "extended" is read at
# weights outside [0, 1]
REGIME_PAIRS = {"below": (0.2, 0.7), "above": (1.5, 6.0), "straddle": (0.5, 3.0),
                "extended": (0.4, 2.5)}


def per_residual_route(monkeypatch):
    """Send every dimension down verify's per-residual route."""
    monkeypatch.setattr(certify, "ROUND_ROBIN_MIN_DIM", certify.MAX_DIM + 1)


class TestStackedRoute:
    """From ``ROUND_ROBIN_MIN_DIM`` up, verify checks a report's distinct
    residuals as one stack; its results are those of one check per residual."""

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The number of matrices in each stacked check pass, and 0 for each
        Loewner call on one matrix."""
        stacks = []
        real_loewner, real_ends = certify.loewner_geq_zero, certify._spectrum_ends

        def loewner(x, tol_rel):
            stacks.append(len(x) if np.ndim(x) == 3 else 0)
            return real_loewner(x, tol_rel)

        def ends(xs):
            stacks.append(len(xs))
            return real_ends(xs)

        monkeypatch.setattr(certify, "loewner_geq_zero", loewner)
        monkeypatch.setattr(certify, "_spectrum_ends", ends)
        return stacks

    @pytest.mark.parametrize("regime", list(REGIME_PAIRS))
    @pytest.mark.parametrize("n", [15, 16, 17, 32])
    def test_same_results_as_one_check_per_residual(self, n, regime, stacks, monkeypatch):
        s0, t0 = REGIME_PAIRS[regime]
        pair = PairContext(*gen_instance(n, s0, t0, 40 + n))
        stacked = {}
        for v in (-0.3, 0.0, 0.5, 1.0, 1.5):
            bounds = catalog(pair.sandwich, v, uniform_box=pair.uniform_box)
            stacked[v] = verify(pair, v, bounds)
            assert len(stacks) == 1 and stacks[0] >= 1
            stacks.clear()
        per_residual_route(monkeypatch)
        for v, report in stacked.items():
            bounds = catalog(pair.sandwich, v, uniform_box=pair.uniform_box)
            alone = verify(pair, v, bounds)
            assert stacks and not any(stacks)
            stacks.clear()
            assert report.results == alone.results
            # repr tells -0.0 from 0.0, which == does not
            assert repr(report.results) == repr(alone.results)

    @pytest.mark.parametrize("s0,t0,v", [(1.5, 6.0, 0.5), (0.5, 3.0, 0.3), (0.4, 2.5, 1.5)])
    def test_an_unconverged_check_names_the_first_applicable_row(self, s0, t0, v,
                                                                 monkeypatch):
        pair = PairContext(*gen_instance(16, s0, t0, 3))
        bounds = catalog(pair.sandwich, v, uniform_box=pair.uniform_box)
        # the means are scaled identities, whose checks converge in 0 sweeps, so
        # only the residuals' checks fail: nabla keeps each one off-diagonal
        monkeypatch.setattr(certify, "op_sharp", lambda pair, v, checked: 2.0 * np.eye(16))
        monkeypatch.setattr(certify, "op_harm", lambda pair, v, checked: np.eye(16))
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 0)
        first = next(b.name for b in bounds if b.applicable)
        message = f"^bound {first}: Jacobi eigensolver did not converge within 0 sweeps$"
        with pytest.raises(NumericalError, match=message):
            verify(pair, v, bounds)
        per_residual_route(monkeypatch)
        with pytest.raises(NumericalError, match=message):
            verify(pair, v, bounds)

    @pytest.mark.parametrize("name", ["geometric", "harmonic"])
    @pytest.mark.parametrize("s0,t0,v", [(1.5, 6.0, 0.5), (0.5, 3.0, 0.3)])
    def test_an_unconverged_mean_check_names_the_mean_and_weight(self, s0, t0, v, name,
                                                                 monkeypatch):
        pair = PairContext(*gen_instance(16, s0, t0, 3))
        bounds = catalog(pair.sandwich, v, uniform_box=pair.uniform_box)
        # the named mean is the real one, built before sweeps are forbidden; the
        # other is a scaled identity, whose check converges in 0 sweeps
        sharp = op_sharp(pair, v) if name == "geometric" else 2.0 * np.eye(16)
        harm = op_harm(pair, v) if name == "harmonic" else np.eye(16)
        monkeypatch.setattr(certify, "op_sharp", lambda pair, v, checked: sharp)
        monkeypatch.setattr(certify, "op_harm", lambda pair, v, checked: harm)
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 0)
        message = (f"^{name} mean at weight {v}: "
                   "Jacobi eigensolver did not converge within 0 sweeps$")
        with pytest.raises(NumericalError, match=message):
            verify(pair, v, bounds)
        per_residual_route(monkeypatch)
        with pytest.raises(NumericalError, match=message):
            verify(pair, v, bounds)

    @pytest.mark.parametrize("b_diagonal,error", [
        ((60.0, 66.0), "residual overflowed"), ((100.0, 110.0), "constant overflowed")])
    def test_an_overflowing_literature_row_is_not_checkable(self, b_diagonal, error, stacks,
                                                            monkeypatch):
        b = SymPDMatrix(np.diag(np.linspace(*b_diagonal, 16)))
        pair = PairContext(SymPDMatrix(np.eye(16)), b)
        bounds = catalog(pair.sandwich, 0.5, uniform_box=pair.uniform_box)
        report = verify(pair, 0.5, bounds)
        assert len(stacks) == 1 and stacks[0] >= 1
        dragomir = by_name([r.statement for r in report.results])["dragomir"]
        assert (dragomir.constant, dragomir.applicable, dragomir.applicability_reason) == (
            None, False, f"not checkable in floating point: {error}")
        assert report.overall_pass
        per_residual_route(monkeypatch)
        assert repr(verify(pair, 0.5, bounds).results) == repr(report.results)


def fresh_statement(name, reason):
    """The inapplicable statement of a table row, built anew."""
    row = next(r for r in certify.TABLE if r[0] == name)
    _, form, side, relation, ref, literature, source, _, _ = row
    return certify.BoundStatement(name, form, side, relation, None, ref, False, reason,
                                  source, literature)


class TestSharedInapplicableStatements:
    """An inapplicable statement depends only on its row and reason, so the
    catalog builds each once and shares it."""

    @pytest.mark.parametrize("s,t,v,box", [
        (0.2, 0.8, 0.5, False), (1.5, 6.0, 0.3, True), (0.5, 2.0, 0.5, True),
        (0.5, 2.0, 1.5, False), (1.5, 6.0, -0.5, True),
    ])
    def test_each_equals_a_statement_built_fresh(self, s, t, v, box):
        ubox = UniformBox(0.5, 4.0) if box else None
        sbox = BOXES["a_below_b"] if box else None
        bounds = catalog(SandwichInterval(s, t), v, uniform_box=ubox, spectral_box=sbox)
        inapplicable = [b for b in bounds if not b.applicable]
        assert inapplicable
        for b in inapplicable:
            assert b == fresh_statement(b.name, b.applicability_reason)

    def test_two_catalogs_in_one_gate_state_share_them(self):
        sw = SandwichInterval(1.5, 6.0)
        first, second = catalog(sw, 0.3), catalog(sw, 0.7)
        assert [b.applicability_reason for b in first] == [
            b.applicability_reason for b in second]
        for x, y in zip(first, second):
            assert (x is y) == (not x.applicable)

    def test_a_long_sweep_keeps_one_entry_per_row_and_reason(self, monkeypatch):
        monkeypatch.setattr(certify, "_INAPPLICABLE", {})
        states = set()
        for k, (s0, t0) in enumerate(REGIME_PAIRS.values()):
            pair = PairContext(*gen_instance(2, s0, t0, 30 + k))
            for v in np.linspace(-1.0, 2.0, 2000):
                bounds = catalog(pair.sandwich, float(v), uniform_box=pair.uniform_box)
                states.update((b.name, b.applicability_reason)
                              for b in bounds if not b.applicable)
        assert set(certify._INAPPLICABLE) == states
        assert len(states) < 2 * len(certify.TABLE)

    def test_a_not_checkable_row_leaves_them_unchanged(self):
        pair = PairContext(SymPDMatrix(np.eye(2)), SymPDMatrix(np.diag([60.0, 66.0])))
        bounds = catalog(pair.sandwich, 0.5)
        before = {key: (st, dict(vars(st))) for key, st in certify._INAPPLICABLE.items()}
        report = verify(pair, 0.5, bounds)
        dragomir = by_name(r.statement for r in report.results)["dragomir"]
        assert dragomir.applicability_reason == (
            "not checkable in floating point: residual overflowed")
        assert ("dragomir", dragomir.applicability_reason) not in certify._INAPPLICABLE
        for key, (st, fields) in before.items():
            assert certify._INAPPLICABLE[key] is st and vars(st) == fields
        # the next report's dragomir row is checkable, and its shared rows as built fresh
        nxt = catalog(SandwichInterval(1.5, 6.0), 0.5)
        assert by_name(nxt)["dragomir"].applicable
        for st in nxt:
            if not st.applicable:
                assert st == fresh_statement(st.name, st.applicability_reason)


class TestLoewnerScale:
    """``_checks`` judges a residual at max(1, ||R||_F), stacked or not; a
    residual whose norm is inf or NaN is not solved, and ``_judge`` reports
    it as an overflow, named after the row's constant when that is inf."""

    @staticmethod
    def check(res, stacked):
        with np.errstate(over="ignore", invalid="ignore"):  # as verify calls it
            return certify._checks({"r": np.asarray(res, dtype=float)}, {}, DEFAULT_LOEWNER_TOL,
                                   stacked)["r"]

    @pytest.mark.parametrize("res,scale", [
        (np.diag([0.5, 0.0]), 1.0),
        (np.diag([0.0, -1.0]), 1.0),
        (np.diag([3.0, -4.0]), 5.0),
        ([[1.0, 2.0], [2.0, 0.0]], 3.0),
    ], ids=["below-1", "at-1", "above-1", "off-diagonal"])
    def test_scale_is_one_or_the_norm(self, res, scale):
        for stacked in (False, True):
            verdict, got = self.check(res, stacked)
            assert type(got) is float and got == scale
            assert verdict == loewner_geq_zero(np.asarray(res, dtype=float), DEFAULT_LOEWNER_TOL)

    @pytest.mark.parametrize("res", [
        [[math.inf, 0.0], [0.0, 1.0]],
        [[1e200, 0.0], [0.0, 1.0]],  # finite entries whose squares overflow
        [[math.nan, 0.0], [0.0, 1.0]],  # max(1.0, nan) is 1.0: the norm is tested first
        [[0.5, math.nan], [math.nan, 0.5]],
    ], ids=["inf", "square-overflow", "nan", "nan-below-1"])
    @pytest.mark.parametrize("constant,message", [
        (2.0, "residual overflowed"), (math.inf, "constant overflowed"),
    ], ids=["finite-constant", "inf-constant"])
    def test_a_non_finite_norm_is_an_overflow(self, res, constant, message, monkeypatch):
        solves = []
        monkeypatch.setattr(certify, "loewner_geq_zero", lambda x, tol_rel: solves.append(x))
        monkeypatch.setattr(certify, "_spectrum_ends", solves.append)
        checks = [self.check(res, stacked) for stacked in (False, True)]
        assert solves == [] and all(lv is None for lv, _ in checks)
        row = certify.BoundStatement("row", certify.ADDITIVE, certify.LOWER,
                                     certify.NABLA_VS_SHARP, constant)
        with pytest.raises(NumericalError, match=f"^bound row: {message}$"):
            certify._judge([(row, "r")], {"r": checks[0]}, None, None)
        # a literature row is not checkable for the same reason
        (result,) = certify._judge([(replace(row, literature=True), "r")], {"r": checks[1]},
                                   None, None).results
        assert result.verdict is None and not result.statement.applicable
        assert result.statement.applicability_reason == (
            f"not checkable in floating point: {message}")


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
        sw = PairContext(a, b).sandwich
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
        for box in (SpectralBox((0.5, 1.0), (2.0, 4.0)), SpectralBox((2.0, 4.0), (0.5, 1.0))):
            a, b = gen_box_instance(4, box, 3)
            assert a.eigenvalues[0] >= box.a_band[0] - 1e-12
            assert a.eigenvalues[-1] <= box.a_band[1] + 1e-12
            assert b.eigenvalues[0] >= box.b_band[0] - 1e-12
            assert b.eigenvalues[-1] <= box.b_band[1] + 1e-12

    @pytest.mark.parametrize("dim", [0, 513])
    def test_box_instance_dimension_out_of_range(self, dim):
        with pytest.raises(InputError, match=f"dimension {dim} out of range"):
            gen_box_instance(dim, SpectralBox((0.5, 1.0), (2.0, 4.0)), 0)

    def test_box_instance_regime(self):
        a, b = gen_box_instance(4, SpectralBox((0.5, 1.0), (2.0, 4.0)), 5)
        assert PairContext(a, b).sandwich.regime == ABOVE
