"""``cli._json`` writes the text of ``json.dumps(obj, indent=2)``, with every
non-finite float written as null, and refuses what ``json.dumps`` refuses."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from meancert import certify, cli
from meancert.cli import EXIT_PASS, main
from meancert.eigen import DEFAULT_LOEWNER_TOL, SymPDMatrix
from meancert.sandwich import PairContext


def finite_or_null(x):
    """The mapping the writer replaced: a non-finite float becomes None and a
    tuple a list, so strict ``json.dumps`` takes the result."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: finite_or_null(y) for k, y in x.items()}
    if isinstance(x, (list, tuple)):
        return [finite_or_null(y) for y in x]
    return x


def reference(obj) -> str:
    return json.dumps(finite_or_null(obj), indent=2, allow_nan=False)


# (s0, t0, v): the ends of the relative spectrum and the weight; on the wide
# pair the dragomir constant overflows to inf
CASES = {"below": (0.2, 0.8, 0.5), "above": (1.5, 6.0, 0.5), "straddle": (0.5, 3.0, 0.3),
         "above-extended": (1.5, 6.0, 1.5), "below-extended": (0.2, 0.8, -0.3),
         "above-wide": (100.0, 110.0, 0.5)}


@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("case", list(CASES))
def test_check_report_is_the_stdlib_text(case, n):
    s0, t0, v = CASES[case]
    a, b = certify.gen_instance(n, s0, s0 if n == 1 else t0, 7)
    report = cli.certify_pair(a, b, v, DEFAULT_LOEWNER_TOL)
    if case == "above-wide" and n > 1:
        assert math.isinf(report.comparison["dragomir"])
    assert cli.emit_report(report) == reference(report.to_dict())


def _row_state(result):
    """What a bound row's text depends on besides its numbers."""
    st, verdict = result.statement, result.verdict
    if verdict is not None:
        return "holds" if verdict.holds else "fails"
    return "not checkable" if st.applicability_reason.startswith("not checkable") else "gated"


def test_every_row_state_is_the_stdlib_text(monkeypatch):
    tol = DEFAULT_LOEWNER_TOL
    reports = [cli.certify_pair(*certify.gen_instance(3, s0, t0, 11), v, tol)
               for s0, t0, v in [(0.5, 3.0, 0.5), (0.2, 0.8, -0.3), (1.5, 6.0, 1.5)]]
    # the dragomir residual overflows: its row reads "not checkable in floating point"
    reports.append(cli.certify_pair(SymPDMatrix(np.eye(2)), SymPDMatrix(np.diag([60.0, 66.0])),
                                     0.5, tol))
    real_catalog = cli.catalog

    def doubled(sw, v, **kwargs):
        return [replace(b, constant=2 * b.constant) if b.name in ("young.classical", "zuo")
                else b for b in real_catalog(sw, v, **kwargs)]

    monkeypatch.setattr(cli, "catalog", doubled)
    reports.append(cli.certify_pair(*certify.gen_instance(3, 1.5, 6.0, 11), 0.5, tol))
    assert [r.instance["regime"] for r in reports] == [
        "straddle", "below", "above", "above", "above"]
    assert not reports[-1].overall_pass and reports[-1].findings
    assert {_row_state(r) for report in reports for r in report.results} == {
        "holds", "fails", "gated", "not checkable"}
    for report in reports:
        assert cli.emit_report(report) == json.dumps(report.to_dict(), indent=2)


def test_row_text_cache_holds_one_entry_per_row_state(monkeypatch):
    monkeypatch.setattr(cli, "_ROW_TEXT", {})
    pair = PairContext(*certify.gen_instance(2, 1.5, 6.0, 12))
    states = set()
    for v in np.linspace(-1.0, 2.0, 2000):
        report = cli.certify_weight(pair, float(v), DEFAULT_LOEWNER_TOL)
        cli.emit_report(report)
        states.update((r.statement.name, r.statement.applicability_reason)
                      for r in report.results)
    # every weight's constants differ, and none of them is a key
    assert len(cli._ROW_TEXT) == len(states) < 3 * len(certify.TABLE)


@pytest.mark.parametrize("n", [4, 16])
def test_normalized_margin_is_min_eig_itself_at_scale_one(n):
    """At ||R||_F <= 1 the normalized margin equals min_eig, so the writer
    reuses min_eig's text for it; the text is still json.dumps's."""
    pair = PairContext(*certify.gen_instance(n, 1.2, 5.0, 3))
    v = 0.5
    report = cli.certify_weight(pair, v, DEFAULT_LOEWNER_TOL)
    nabla, sharp, harm = (certify.op_nabla(pair.a, pair.b, v), certify.op_sharp(pair, v),
                          certify.op_harm(pair, v))
    same = []
    for r in report.results:
        if r.verdict is not None:
            res = certify._residual(r.statement, nabla, sharp, harm, pair.a.mat)
            norm = float(np.linalg.norm(res))
            same.append(r.verdict.min_eig_normalized == r.verdict.min_eig)
            assert same[-1] == (norm <= 1.0)
            if not same[-1]:
                assert r.verdict.min_eig_normalized == r.verdict.min_eig / norm
    assert set(same) == {True, False}
    assert cli.emit_report(report) == json.dumps(report.to_dict(), indent=2)


def test_compare_grid_up_to_1e300_is_the_stdlib_text(capsys):
    argv = ["compare", "--h-range", "1", "1e300", "40", "--v-range", "0", "1", "11"]
    assert main(argv) == EXIT_PASS
    text = capsys.readouterr().out
    rows = [certify.compare_constants(h, v)
            for h in np.geomspace(1.0, 1e300, 40) for v in np.linspace(0.0, 1.0, 11)]
    # the dragomir constant overflows at large h, and is written as null
    assert any(math.isinf(r["dragomir"]) for r in rows)
    assert cli._json(rows) == reference(rows)
    obj = json.loads(text)
    assert obj["rows"] == json.loads(reference(rows))
    assert text == reference(obj) + "\n"


SYNTHETIC = {
    "non-finite": [math.nan, {"inf": math.inf, "deep": [(-math.inf, 1.5)]}],
    "empty": [{}, [], (), ""],
    "tuple": (1, "two", 3.0, None),
    "text": "naïve ∑ \U0001d11e \u2028 \x00\x1f\t\n\"\\/",
    "kéy \x7f": "non-ASCII key",
    "bools": [True, False],
    "ints": [0, -1, 2**64 + 1, -(2**70)],
    "numpy": [np.float64(0.1), np.float64("nan"), np.float64(-np.inf)],
    "floats": [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 1.2345678901234567e-7],
}


@pytest.mark.parametrize("obj", [SYNTHETIC, {}, [], (), "x", math.nan, -math.inf, 3, None,
                                 [[[]]], {"a": {"b": {}}}],
                         ids=lambda x: type(x).__name__)
def test_synthetic_object_is_the_stdlib_text(obj):
    assert cli._json(obj) == reference(obj)


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), {1, 2}],
                         ids=["int64", "bool_", "set"])
def test_what_json_dumps_refuses_is_a_type_error(bad):
    obj = {"ok": [1.0, {"nested": [bad]}]}
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli._json(obj)
