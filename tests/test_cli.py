import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from meancert import certify, cli
from meancert.cli import (
    EXIT_BOUND_FAILED,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_PASS,
    csv_header,
    load_matrix,
    main,
)

GOLDEN_CSV_HEADER = (
    "v,s,t,regime,"
    "const_thm1.lower,resid_thm1.lower,const_thm1.upper,resid_thm1.upper,"
    "const_young.classical,resid_young.classical,"
    "const_straddle.mult.upper,resid_straddle.mult.upper,"
    "const_prop2.lower,resid_prop2.lower,const_prop2.upper,resid_prop2.upper,"
    "const_thm3.upper,resid_thm3.upper,"
    "const_harm.lower,resid_harm.lower,const_harm.upper,resid_harm.upper,"
    "const_xi.upper,resid_xi.upper,const_tominaga.upper,resid_tominaga.upper,"
    "const_zuo,resid_zuo,const_specht,resid_specht,"
    "const_dragomir,resid_dragomir,"
    "const_ext.lower,resid_ext.lower,const_ext.upper,resid_ext.upper,"
    "const_ext.box.lower,resid_ext.box.lower,"
    "const_ext.box.upper,resid_ext.box.upper,"
    "const_ext.ibox.lower,resid_ext.ibox.lower,"
    "const_ext.ibox.upper,resid_ext.ibox.upper"
)

GOLDEN_REPORT_KEYS = ["instance", "bounds", "comparison", "findings", "overall_pass"]
GOLDEN_INSTANCE_KEYS = ["dim", "v", "s", "t", "regime", "tight", "extended_weight",
                        "uniform_box", "spectral_box"]


def strict_json(text):
    """Parse RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


def write_matrix(path, data):
    arr = np.asarray(data, dtype=float)
    path.write_text(json.dumps(
        {"dim": arr.shape[0], "data": [[float(x) for x in row] for row in arr]}))
    return str(path)


@pytest.fixture
def mats(tmp_path):
    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 3.0]))
    b = write_matrix(tmp_path / "b.json", np.diag([1.0, 6.0]))
    return a, b


class TestMatrixFiles:
    def test_load(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", [[2.0, 1.0], [1.0, 2.0]])
        m = load_matrix(path)
        assert m.dim == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(cli.InputError, match="bad.json"):
            load_matrix(str(p))

    def test_missing_file(self):
        with pytest.raises(cli.InputError):
            load_matrix("/nonexistent/m.json")

    def test_shape_mismatch(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"dim": 3, "data": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(cli.InputError):
            load_matrix(str(p))

    def test_asymmetric_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"dim": 2, "data": [[2.0, 1.0], [0.5, 2.0]]}))
        with pytest.raises(cli.InputError):
            load_matrix(str(p))

    @pytest.mark.parametrize("obj", [
        {"dim": True, "data": [[2.0]]},
        {"dim": 2, "data": [["2", "1"], [True, "2e0"]]},
        {"dim": 1, "data": [["2"]]},
        {"dim": 1, "data": [[True]]},
        [[2.0]],
        {"dim": 2, "data": [[2.0], [1.0, 2.0]]},
        {"dim": 1, "data": [[10 ** 400]]},
    ], ids=["boolean-dim", "strings-and-boolean", "string", "boolean", "not-an-object",
            "ragged", "400-digit-integer"])
    def test_non_numbers_rejected(self, tmp_path, obj, capsys):
        p = tmp_path / "nonnumeric.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(cli.InputError, match="nonnumeric.json"):
            load_matrix(str(p))
        assert main(["check", "--matrix-a", str(p), "--matrix-b", str(p),
                     "--v", "0.5"]) == EXIT_INPUT
        assert "nonnumeric.json" in capsys.readouterr().err

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"dim": 1, "data": [[2.0]]} \u00e9'.encode("latin-1"))
        with pytest.raises(cli.InputError, match="latin1.json"):
            load_matrix(str(p))
        assert main(["check", "--matrix-a", str(p), "--matrix-b", str(p),
                     "--v", "0.5"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entries_rejected(self, tmp_path, capsys, token):
        # Python's json reads these tokens as floats; the matrix check refuses them
        p = tmp_path / "nonfinite.json"
        p.write_text('{"dim": 2, "data": [[2.0, 0.0], [0.0, %s]]}' % token)
        assert main(["check", "--matrix-a", str(p), "--matrix-b", str(p),
                     "--v", "0.5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == \
            ("", f"error: {p}: matrix entries must be finite\n")


class TestCheck:
    def test_same_matrix_passes_with_zero_residuals(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", [[2.0, 1.0], [1.0, 3.0]])
        assert main(["check", "--matrix-a", a, "--matrix-b", a, "--v", "0.5"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["overall_pass"]
        for r in report["bounds"]:
            # the uniform-box bounds keep slack from A's own spectral spread
            if r["verdict"] is not None and r["statement"]["name"] not in (
                    "xi.upper", "tominaga.upper"):
                assert abs(r["verdict"]["min_eig"]) <= 1e-9

    def test_straddle_report(self, mats, capsys):
        a, b = mats
        assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "0.5"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["instance"]["regime"] == "straddle"
        res = {r["statement"]["name"]: r for r in report["bounds"]}
        assert res["thm3.upper"]["statement"]["constant"] == pytest.approx(
            0.0857864376269049, rel=1e-12)
        assert res["thm3.upper"]["verdict"]["holds"]

    def test_malformed_file_exit_2(self, tmp_path, mats):
        a, _ = mats
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["check", "--matrix-a", a, "--matrix-b", str(bad),
                     "--v", "0.5"]) == EXIT_INPUT

    def test_pathological_matrix_exit_3(self, tmp_path, mats):
        a, _ = mats
        big = 8e307
        huge = write_matrix(tmp_path / "huge.json", [[big, big], [big, -big]])
        assert main(["check", "--matrix-a", huge, "--matrix-b", huge,
                     "--v", "0.5"]) == EXIT_NUMERICAL

    def test_falsified_constant_exit_1(self, mats, monkeypatch, capsys):
        from dataclasses import replace

        a, b = mats
        real_catalog = cli.catalog

        def tampered(sw, v, **kwargs):
            return [replace(b_, constant=b_.constant * 2)
                    if b_.name == "young.classical" else b_
                    for b_ in real_catalog(sw, v, **kwargs)]

        monkeypatch.setattr(cli, "catalog", tampered)
        assert main(["check", "--matrix-a", a, "--matrix-b", b,
                     "--v", "0.5"]) == EXIT_BOUND_FAILED

    def test_extended_weight_routes_to_extended_catalog(self, mats, capsys):
        a, b = mats
        assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "1.5"]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["instance"]["extended_weight"]
        res = {r["statement"]["name"]: r for r in report["bounds"]}
        assert res["ext.lower"]["statement"]["applicable"]
        assert not res["young.classical"]["statement"]["applicable"]

    def test_report_json_shape(self, mats, capsys):
        a, b = mats
        main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "0.25"])
        obj = json.loads(capsys.readouterr().out)
        assert list(obj.keys()) == GOLDEN_REPORT_KEYS
        assert list(obj["instance"].keys()) == GOLDEN_INSTANCE_KEYS


class TestSweep:
    def test_golden_header(self):
        assert ",".join(csv_header()) == GOLDEN_CSV_HEADER

    def test_constants_match_scalar_oracle(self, tmp_path, capsys):
        from meancert import scalars as sc

        a = write_matrix(tmp_path / "a.json", [[2.0, 1.0], [1.0, 3.0]])
        bmat = 2 * np.array([[2.0, 1.0], [1.0, 3.0]])
        b = write_matrix(tmp_path / "b.json", bmat)
        assert main(["sweep", "--matrix-a", a, "--matrix-b", b,
                     "--v-range", "0", "1", "11"]) == EXIT_PASS
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == GOLDEN_CSV_HEADER
        assert len(lines) == 12
        cols = lines[0].split(",")
        idx = cols.index("const_thm1.lower")
        for line, v in zip(lines[1:], np.linspace(0, 1, 11)):
            got = float(line.split(",")[idx])
            assert got == pytest.approx(sc.f_v(2.0, v), rel=1e-9)

    def test_v_zero_row_is_degenerate(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.json", [[2.0, 0.0], [0.0, 3.0]])
        b = write_matrix(tmp_path / "b.json", [[4.0, 0.0], [0.0, 6.0]])
        main(["sweep", "--matrix-a", a, "--matrix-b", b, "--v-range", "0", "0", "1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        cols = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(cols["const_thm1.lower"]) == 1.0
        assert float(cols["const_prop2.lower"]) == 0.0

    def test_single_step_range(self, mats, capsys):
        a, b = mats
        main(["sweep", "--matrix-a", a, "--matrix-b", b, "--v-range", "0.5", "0.9", "1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0.5,")

    def test_invalid_range(self, mats):
        a, b = mats
        assert main(["sweep", "--matrix-a", a, "--matrix-b", b,
                     "--v-range", "1", "0", "5"]) == EXIT_INPUT


class TestRandom:
    def test_zero_count(self, capsys):
        assert main(["random", "--regime", "above", "--count", "0"]) == EXIT_PASS
        assert "failures=0" in capsys.readouterr().out

    def test_reproducible_summary(self, capsys):
        args = ["random", "--regime", "above", "--count", "20", "--dim", "3",
                "--seed", "42"]
        assert main(args) == EXIT_PASS
        first = capsys.readouterr().out
        assert main(args) == EXIT_PASS
        assert capsys.readouterr().out == first
        assert "worst_residual=" in first

    def test_each_regime_passes(self, capsys):
        for regime in ("below", "above", "straddle"):
            assert main(["random", "--regime", regime, "--count", "10",
                         "--dim", "3", "--seed", "1"]) == EXIT_PASS

    def test_extended_regime(self, capsys):
        assert main(["random", "--regime", "extended", "--count", "10",
                     "--dim", "3", "--seed", "1", "--v", "1.5"]) == EXIT_PASS
        assert "v=1.5" in capsys.readouterr().out

    def test_invalid_regime_exit_2(self):
        assert main(["random", "--regime", "diagonal", "--count", "1"]) == EXIT_INPUT

    def test_dim_one(self, capsys):
        # a 1x1 pair has s = t, so every draw is pinned to its lower scalar
        assert main(["random", "--regime", "straddle", "--count", "5", "--dim", "1",
                     "--seed", "3"]) == EXIT_PASS
        assert " count=5 failures=0 " in capsys.readouterr().out


class TestCompare:
    def test_single_point(self, capsys):
        assert main(["compare", "--h-range", "4", "4", "1",
                     "--v-range", "0.5", "0.5", "1"]) == EXIT_PASS
        obj = json.loads(capsys.readouterr().out)
        row = obj["rows"][0]
        assert row["f_v"] == pytest.approx(1.25)
        assert row["zuo"] == pytest.approx(1.25)
        assert obj["summary"]["specht_le_zuo_violations"] == 0

    def test_h_one_row(self, capsys):
        main(["compare", "--h-range", "1", "1", "1", "--v-range", "0.5", "0.5", "1"])
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert (row["f_v"], row["zuo"], row["specht"], row["dragomir"]) == (1, 1, 1, 1)

    def test_json_grid(self, capsys):
        assert main(["compare", "--h-range", "2", "4", "3",
                     "--v-range", "0", "1", "3"]) == EXIT_PASS
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["rows"]) == 9
        assert obj["summary"]["zuo_le_f_violations"] == 0

    def test_zuo_rounding_apart_from_f_is_not_a_violation(self, capsys):
        # at v = 0.5 the Zuo constant is f_v itself, and the two round an ulp apart
        assert main(["compare", "--h-range", "1e3", "1e17", "200",
                     "--v-range", "0", "1", "11"]) == EXIT_PASS
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["zuo_le_f_violations"] == summary["specht_le_zuo_violations"] == 0

    def test_doubled_zuo_constant_is_a_violation(self, capsys, monkeypatch):
        real = certify.scalars.zuo_constant
        monkeypatch.setattr(certify.scalars, "zuo_constant", lambda h, v: 2 * real(h, v))
        main(["compare", "--h-range", "1e3", "1e17", "200", "--v-range", "0", "1", "11"])
        obj = json.loads(capsys.readouterr().out)
        above = sum(r["zuo"] > r["f_v"] for r in obj["rows"])
        assert obj["summary"]["zuo_le_f_violations"] == above > 1000

    def test_h_grid_contains_its_ends_exactly(self, capsys):
        assert main(["compare", "--h-range", "1.1", "3.3", "4",
                     "--v-range", "0.5", "0.5", "1"]) == EXIT_PASS
        hs = [row["h"] for row in json.loads(capsys.readouterr().out)["rows"]]
        assert len(hs) == 4 and (hs[0], hs[-1]) == (1.1, 3.3)

    def test_invalid_grid_exit_2(self):
        assert main(["compare", "--h-range", "0.5", "4", "10",
                     "--v-range", "0.5", "0.5", "1"]) == EXIT_INPUT

    @pytest.mark.parametrize("h_range,v_range", [
        (("1.4e154", "1.4e154", "1"), ("0.5", "0.5", "1")),
        (("1.000001", "1e300", "400"), ("0", "1", "11")),
    ], ids=["kantorovich-overflow", "specht-division-by-zero"])
    def test_h_up_to_1e300(self, capsys, h_range, v_range):
        assert main(["compare", "--h-range", *h_range, "--v-range", *v_range]) == EXIT_PASS
        obj = strict_json(capsys.readouterr().out)
        for row in obj["rows"]:
            assert all(1.0 <= row[c] < math.inf for c in ("f_v", "zuo", "specht"))
        assert obj["summary"]["specht_le_zuo_violations"] == 0

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        main(["compare", "--h-range", "2", "4", "3", "--v-range", "0.25", "0.75", "3",
              "--format", "csv", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("h,v,f_v,zuo,specht,dragomir,"
                            "specht_le_zuo,zuo_le_f,dragomir_vs_zuo")
        assert len(lines) == 10

    def test_csv_on_stdout_is_only_csv(self, capsys):
        # the summary goes to stderr, so a redirected stdout is a CSV file
        assert main(["compare", "--h-range", "1", "2", "2", "--v-range", "0", "1", "3",
                     "--format", "csv"]) == EXIT_PASS
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert len(rows) == 1 + 2 * 3 and all(len(row) == 9 for row in rows)
        assert json.loads(captured.err)["specht_le_zuo_violations"] == 0


@pytest.mark.parametrize("command", [
    ["check", "--v", "0.5"],
    ["sweep", "--v-range", "0", "1", "3"],
])
def test_dimension_mismatch_exit_2(tmp_path, capsys, command):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    b = write_matrix(tmp_path / "b.json", 2 * np.eye(3))
    assert main(command[:1] + ["--matrix-a", a, "--matrix-b", b] + command[1:]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: dimension mismatch: 2 vs 3\n")


@pytest.mark.parametrize("argv", [
    ["random", "--regime", "above", "--count", "0", "--out", "summary.txt"],
    ["compare", "--h-range", "2", "4", "3", "--v-range", "0", "1", "3", "--tol", "1e-6"],
    ["check", "--matrix-a", "A", "--matrix-b", "B", "--v", "0.5", "--format", "csv"],
], ids=["random --out", "compare --tol", "check --format"])
def test_option_the_command_does_not_read_is_rejected(mats, argv):
    paths = dict(zip("AB", mats))
    with pytest.raises(SystemExit) as exc:
        main([paths.get(x, x) for x in argv])
    assert exc.value.code == 2


class TestOutputFile:
    def test_out_writes_file(self, mats, tmp_path):
        a, b = mats
        out = tmp_path / "report.json"
        assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "0.5",
                     "--out", str(out)]) == EXIT_PASS
        report = json.loads(out.read_text())
        assert report["overall_pass"]


@pytest.mark.parametrize("v", ["0.3", "1.5"])
def test_one_weight_sweep_is_the_check_report_as_csv(mats, capsys, v):
    a, b = mats
    assert main(["sweep", "--matrix-a", a, "--matrix-b", b,
                 "--v-range", v, v, "1"]) == EXIT_PASS
    header, row = capsys.readouterr().out.splitlines()
    assert header == GOLDEN_CSV_HEADER
    assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", v]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["v"]) == float(v)
    for r in report["bounds"]:
        st = r["statement"]
        const, resid = cells[f"const_{st['name']}"], cells[f"resid_{st['name']}"]
        if st["applicable"]:
            assert (float(const), float(resid)) == (st["constant"], r["verdict"]["min_eig"])
        else:
            assert (const, resid) == ("", "")


A_2x2 = [[2.0, 1.0], [1.0, 3.0]]
B_2x2 = [[4.0, 1.0], [1.0, 2.0]]
PAIR = ["--matrix-a", "A", "--matrix-b", "B"]


@pytest.mark.parametrize("argv,code,message", [
    (["sweep", *PAIR, "--v-range", "0", "1", "nan"], EXIT_INPUT,
     "error: invalid v range (0.0, 1.0, nan)"),
    (["sweep", *PAIR, "--v-range", "0", "1", "inf"], EXIT_INPUT,
     "error: invalid v range (0.0, 1.0, inf)"),
    (["sweep", *PAIR, "--v-range", "0", "1", "2.7"], EXIT_INPUT,
     "error: invalid v range (0.0, 1.0, 2.7)"),
    (["sweep", *PAIR, "--v-range", "nan", "1", "3"], EXIT_INPUT,
     "error: invalid v range (nan, 1.0, 3)"),
    (["sweep", *PAIR, "--v-range", "0", "inf", "3"], EXIT_INPUT,
     "error: invalid v range (0.0, inf, 3)"),
    (["compare", "--h-range", "1", "4", "nan", "--v-range", "0", "1", "3"], EXIT_INPUT,
     "error: invalid h range (1.0, 4.0, nan)"),
    (["compare", "--h-range", "1", "4", "inf", "--v-range", "0", "1", "3"], EXIT_INPUT,
     "error: invalid h range (1.0, 4.0, inf)"),
    (["compare", "--h-range", "1", "inf", "3", "--v-range", "0", "1", "3"], EXIT_INPUT,
     "error: invalid h range (1.0, inf, 3)"),
    (["compare", "--h-range", "1", "4", "3", "--v-range", "0", "1", "nan"], EXIT_INPUT,
     "error: invalid v range (0.0, 1.0, nan)"),
    (["check", *PAIR, "--v", "nan"], EXIT_INPUT, "error: weight v must be finite, got nan"),
    (["check", *PAIR, "--v=-inf"], EXIT_INPUT, "error: weight v must be finite, got -inf"),
    (["check", *PAIR, "--v", "0.5", "--tol", "-1"], EXIT_INPUT,
     "error: tolerance must be finite and >= 0, got -1.0"),
    (["check", *PAIR, "--v", "0.5", "--tol", "nan"], EXIT_INPUT,
     "error: tolerance must be finite and >= 0, got nan"),
    (["check", *PAIR, "--v", "0.5", "--tol", "inf"], EXIT_INPUT,
     "error: tolerance must be finite and >= 0, got inf"),
    (["sweep", *PAIR, "--v-range", "0", "1", "3", "--tol", "-1"], EXIT_INPUT,
     "error: tolerance must be finite and >= 0, got -1.0"),
    (["random", "--regime", "above", "--count", "1", "--v", "nan"], EXIT_INPUT,
     "error: weight v must be finite, got nan"),
    (["check", *PAIR, "--v", "1000"], EXIT_NUMERICAL,
     "numerical failure: bound ext.lower: constant overflowed at weight 1000.0"),
    (["sweep", *PAIR, "--v-range", "0", "1", "1e20"], EXIT_INPUT,
     "error: invalid v range (0.0, 1.0, 100000000000000000000)"),
    (["sweep", *PAIR, "--v-range", "0", "1", "10001"], EXIT_INPUT,
     "error: invalid v range (0.0, 1.0, 10001)"),
    (["compare", "--h-range", "1", "4", "1e20", "--v-range", "0", "1", "3"], EXIT_INPUT,
     "error: invalid h range (1.0, 4.0, 100000000000000000000)"),
    (["compare", "--h-range", "1", "4", "101", "--v-range", "0", "1", "100"], EXIT_INPUT,
     "error: invalid v range (0.0, 1.0, 100)"),
    (["check", *PAIR, "--v", "0.5", "--out", "MISSING"], EXIT_INPUT,
     "error: {MISSING}: No such file or directory"),
    (["check", *PAIR, "--v", "0.5", "--out", "DIR"], EXIT_INPUT,
     "error: {DIR}: Is a directory"),
    (["sweep", *PAIR, "--v-range", "0", "1", "3", "--out", "MISSING"], EXIT_INPUT,
     "error: {MISSING}: No such file or directory"),
    (["compare", "--h-range", "1", "4", "3", "--v-range", "0", "1", "3", "--out", "MISSING"],
     EXIT_INPUT, "error: {MISSING}: No such file or directory"),
    (["compare", "--h-range", "1", "4", "3", "--v-range", "0", "1", "3", "--format", "csv",
      "--out", "DIR"], EXIT_INPUT, "error: {DIR}: Is a directory"),
    (["check", "--matrix-a", "NOFILE", "--matrix-b", "B", "--v", "0.5"], EXIT_INPUT,
     "error: {NOFILE}: No such file or directory"),
    # an empty path is not stdout; it is refused before the matrices are read
    (["check", "--matrix-a", "NOFILE", "--matrix-b", "B", "--v", "0.5", "--out", ""],
     EXIT_INPUT, "error: empty output path"),
    (["sweep", *PAIR, "--v-range", "0", "1", "3", "--out", ""], EXIT_INPUT,
     "error: empty output path"),
    (["compare", "--h-range", "1", "4", "3", "--v-range", "0", "1", "3", "--out", ""],
     EXIT_INPUT, "error: empty output path"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_bad_value_is_one_line_not_a_traceback(tmp_path, capsys, argv, code, message):
    # MISSING is an output path in a directory that does not exist, DIR a
    # directory, NOFILE a matrix file that does not exist
    paths = {"A": write_matrix(tmp_path / "a.json", A_2x2),
             "B": write_matrix(tmp_path / "b.json", B_2x2),
             "MISSING": str(tmp_path / "missing" / "out"), "DIR": str(tmp_path),
             "NOFILE": str(tmp_path / "nofile.json")}
    assert main([paths.get(x, x) for x in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(**paths) + "\n"


@pytest.mark.parametrize("argv,message", [
    (["--regime", "above", "--count", "-1"], "error: count must be >= 0 and dim in [1, 512]\n"),
    (["--regime", "above", "--dim", "0"], "error: count must be >= 0 and dim in [1, 512]\n"),
    (["--regime", "above", "--dim", "600"], "error: count must be >= 0 and dim in [1, 512]\n"),
    (["--regime", "extended", "--v", "0.5"],
     "error: extended regime needs a weight outside [0, 1], got 0.5\n"),
    (["--regime", "below", "--count", "1", "--seed", "-5"], "error: seed must be >= 0, got -5\n"),
])
def test_random_rejects_bad_arguments(capsys, argv, message):
    assert main(["random", *argv]) == EXIT_INPUT
    assert capsys.readouterr().err == message


@pytest.fixture
def doubled_young(monkeypatch):
    """Double the ``young.classical`` constant, which then fails on every pair."""
    from dataclasses import replace

    real_catalog = cli.catalog
    monkeypatch.setattr(cli, "catalog", lambda sw, v, **kwargs: [
        replace(b_, constant=b_.constant * 2) if b_.name == "young.classical" else b_
        for b_ in real_catalog(sw, v, **kwargs)])


def test_sweep_with_a_failing_bound_exits_1(mats, capsys, doubled_young):
    a, b = mats
    assert main(["sweep", "--matrix-a", a, "--matrix-b", b,
                 "--v-range", "0", "1", "3"]) == EXIT_BOUND_FAILED


def test_random_counts_failing_reports(capsys, doubled_young):
    assert main(["random", "--regime", "below", "--count", "4", "--dim", "3",
                 "--seed", "1"]) == EXIT_BOUND_FAILED
    assert " count=4 failures=4 " in capsys.readouterr().out


def _patch_bound(monkeypatch, name, **changes):
    """Make the CLI's catalog return bound ``name`` with ``changes`` applied."""
    from dataclasses import replace

    real_catalog = cli.catalog
    monkeypatch.setattr(cli, "catalog", lambda sw, v, **kwargs: [
        replace(b_, **changes) if b_.name == name else b_
        for b_ in real_catalog(sw, v, **kwargs)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a_data,b_data,error", [
    (np.eye(2), np.diag([100.0, 110.0]), "constant overflowed"),
    (np.eye(2), np.diag([60.0, 66.0]), "residual overflowed"),
    (np.eye(3), 100.0 * np.eye(3), "constant overflowed"),
    (1000.0 * np.eye(2), np.diag([76000.0, 83600.0]), "residual overflowed"),
])
def test_literature_bound_floating_point_cannot_check_is_inapplicable(
        tmp_path, capsys, monkeypatch, a_data, b_data, error):
    argv = ["check", "--matrix-a", write_matrix(tmp_path / "a.json", a_data),
            "--matrix-b", write_matrix(tmp_path / "b.json", b_data), "--v", "0.5"]
    assert main(argv) == EXIT_PASS
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    dragomir = next(r for r in report["bounds"] if r["statement"]["name"] == "dragomir")
    assert dragomir["verdict"] is None
    st = dragomir["statement"]
    assert (st["constant"], st["applicable"], st["applicability_reason"]) == (
        None, False, f"not checkable in floating point: {error}")
    # everything else is the report of the catalog with dragomir never applicable
    _patch_bound(monkeypatch, "dragomir", constant=None, applicable=False,
                 applicability_reason=st["applicability_reason"])
    assert main(argv) == EXIT_PASS
    assert json.loads(capsys.readouterr().out) == report


def test_non_literature_constant_overflow_is_numerical_failure(mats, capsys, monkeypatch):
    _patch_bound(monkeypatch, "young.classical", constant=float("inf"))
    a, b = mats
    assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "0.5"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: bound young.classical: constant overflowed\n"


def _instance_files(tmp_path, dim, s0, t0, seed):
    a, b = certify.gen_instance(dim, s0, t0, seed)
    return write_matrix(tmp_path / "a.json", a.mat), write_matrix(tmp_path / "b.json", b.mat)


@pytest.mark.parametrize("instance,v", [
    ((2, 0.2, 0.7, 102), 1000.0),  # B below A: lambda^v underflows for v >> 1
    ((2, 1.5, 4.0, 7), -1000.0),   # B above A: the same for v << 0
], ids=["b-below-a", "b-above-a"])
def test_power_underflow_at_extreme_weight_is_numerical_failure(tmp_path, capsys, instance, v):
    a, b = _instance_files(tmp_path, *instance)
    assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", str(v)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"numerical failure: geometric mean at weight {v}: "
                            f"relative spectrum to the power {v} underflowed\n")


@pytest.mark.parametrize("instance,v", [
    ((2, 1.5, 4.0, 7), 1000.0),
    ((2, 0.2, 0.7, 102), -1000.0),
], ids=["b-above-a", "b-below-a"])
def test_constant_overflow_names_bound_and_weight(tmp_path, capsys, instance, v):
    a, b = _instance_files(tmp_path, *instance)
    assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", str(v)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"numerical failure: bound ext.lower: constant overflowed at weight {v}\n")


def _ill_conditioned_pair(tmp_path, seed, n):
    """Two PD matrices with spectra from 2e-12 to 1 in random bases."""
    rng = np.random.default_rng(seed)
    paths = []
    for name in ("a", "b"):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        m = (q * np.geomspace(2e-12, 1.0, n)) @ q.T
        paths.append(write_matrix(tmp_path / f"{name}.json", 0.5 * (m + m.T)))
    return paths


@pytest.mark.parametrize("seed,n", [(0, 2), (3, 3)])
def test_ill_conditioned_pair_is_numerical_failure(tmp_path, capsys, seed, n):
    # both matrices load as PD, so a relative spectrum computed <= 0 is round-off, not bad input
    a, b = _ill_conditioned_pair(tmp_path, seed, n)
    load_matrix(a), load_matrix(b)
    assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "0.5"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "numerical failure: relative spectrum lost positivity: smallest eigenvalue ")


@pytest.mark.parametrize("seed,n", [(1, 2), (1, 3), (3, 2)])
def test_ill_conditioned_pair_harmonic_rows_hold(tmp_path, capsys, seed, n):
    # the harmonic mean is assembled from the relative spectrum like the
    # geometric one, so the attained harmonic-geometric bounds carry no
    # round-off from a separate inverse route
    a, b = _ill_conditioned_pair(tmp_path, seed, n)
    assert main(["check", "--matrix-a", a, "--matrix-b", b, "--v", "0.5"]) == EXIT_PASS
    rows = {r["statement"]["name"]: r["verdict"]
            for r in json.loads(capsys.readouterr().out)["bounds"]}
    assert rows["harm.lower"]["holds"] and rows["harm.upper"]["holds"]


@pytest.mark.parametrize("argv,nulls", [
    (["check", "--matrix-a", "I", "--matrix-b", "B", "--v", "0.5"], 1),
    (["compare", "--h-range", "1", "100", "200", "--v-range", "0.05", "0.95", "19"], 112),
], ids=["check", "compare"])
def test_json_output_writes_non_finite_numbers_as_null(tmp_path, capsys, argv, nulls):
    # the dragomir reverse constant overflows to inf on this pair and on most of this grid
    paths = {"I": write_matrix(tmp_path / "a.json", np.eye(2)),
             "B": write_matrix(tmp_path / "b.json", np.diag([100.0, 110.0]))}
    assert main([paths.get(x, x) for x in argv]) == EXIT_PASS
    obj = strict_json(capsys.readouterr().out)
    rows = obj["rows"] if "rows" in obj else [obj["comparison"]]
    assert sum(row["dragomir"] is None for row in rows) == nulls


@pytest.mark.parametrize("a_data,b_data,v", [
    (np.eye(2), np.diag([1e13, 2e13]), "0.5"),
    (np.diag([1e13, 2e13]), [[3e13, 1e12], [1e12, 2e13]], "0.5"),
    (2e-12 * np.eye(2), np.diag([1e6, 2e6]), "0.5"),  # uniform box ratio h = 1e18
], ids=["identity-and-1e13", "both-1e13", "box-ratio-1e18"])
def test_large_and_widely_spread_pairs_certify(tmp_path, capsys, a_data, b_data, v):
    argv = ["check", "--matrix-a", write_matrix(tmp_path / "a.json", a_data),
            "--matrix-b", write_matrix(tmp_path / "b.json", b_data), "--v", v]
    assert main(argv) == EXIT_PASS
    out, err = capsys.readouterr()
    assert err == ""
    assert strict_json(out)["overall_pass"]


def test_scaled_down_pair_is_still_refused(tmp_path, capsys):
    # loaded matrices keep the relative PD margin; only given spectra are exempt
    a, b = certify.gen_instance(6, 0.3, 3.0, 4)
    argv = ["check", "--matrix-a", write_matrix(tmp_path / "small_a.json", 1e-13 * a.mat),
            "--matrix-b", write_matrix(tmp_path / "small_b.json", 1e-13 * b.mat), "--v", "0.3"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "small_a.json: matrix is not positive definite" in err


@pytest.mark.filterwarnings("error")
def test_geometric_mean_overflow_names_the_weight(tmp_path, capsys):
    # the overflowing congruence raises no RuntimeWarning: one line is all that is printed
    argv = ["check", "--matrix-a", write_matrix(tmp_path / "a.json", 1e20 * np.eye(2)),
            "--matrix-b", write_matrix(tmp_path / "b.json", 1e21 * np.eye(2)), "--v", "300"]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: geometric mean at weight 300.0: matrix entries must be finite\n")


@pytest.mark.parametrize("argv", [
    ["check", *PAIR, "--v", "0.5"],
    ["sweep", *PAIR, "--v-range", "0", "1", "3"],
    ["compare", "--h-range", "1", "4", "3", "--v-range", "0", "1", "3"],
], ids=lambda x: x[0])
@pytest.mark.parametrize("out,reason", [
    ("MISSING", "No such file or directory"), ("DIR", "Is a directory"),
    ("UNDER_FILE", "Not a directory"), ("MISSING_DIR", "Is a directory"),
    ("FILE_AS_DIR", "Is a directory"), ("DOT_UNDER_FILE", "Not a directory"),
])
def test_unusable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                 out, reason):
    # UNDER_FILE is an output path whose directory is a file; a trailing
    # separator names a directory, whether it exists or is a file
    paths = {"A": write_matrix(tmp_path / "a.json", A_2x2),
             "B": write_matrix(tmp_path / "b.json", B_2x2),
             "MISSING": str(tmp_path / "missing" / "out"), "DIR": str(tmp_path),
             "UNDER_FILE": str(tmp_path / "a.json" / "out"),
             "MISSING_DIR": str(tmp_path / "missing") + os.sep,
             "FILE_AS_DIR": str(tmp_path / "a.json") + os.sep,
             "DOT_UNDER_FILE": str(tmp_path / "a.json") + os.sep + os.curdir}

    def files():
        return {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()}

    before = files()

    def started(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("load_matrix", "_load_pair", "_read_matrix", "_grid", "certify_pair",
                 "certify_weight", "compare_constants"):
        monkeypatch.setattr(cli, name, started)
    assert main([paths.get(x, x) for x in [*argv, "--out", out]]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {paths[out]}: {reason}\n"
    assert files() == before


@pytest.mark.parametrize("argv", [
    ["check", "--matrix-a", "A", "--matrix-b", "B", "--v", "0.5"],
    ["sweep", "--matrix-a", "A", "--matrix-b", "B", "--v-range", "0", "1", "3"],
    ["random", "--regime", "above", "--count", "1"],
], ids=lambda x: x[0])
def test_closed_stdout_exits_2_with_one_line(tmp_path, argv):
    # stdout is a pipe whose read end is closed, so every write to it fails
    paths = {"A": write_matrix(tmp_path / "a.json", A_2x2),
             "B": write_matrix(tmp_path / "b.json", B_2x2)}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "meancert.cli",
                              *[paths.get(x, x) for x in argv]],
                             stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                             timeout=120)
    finally:
        os.close(write_end)
    assert out.returncode == EXIT_INPUT
    assert out.stderr == "error: stdout: Broken pipe\n"


@pytest.mark.parametrize("suffix,reason", [
    (os.sep, "Not a directory"), (os.sep + os.curdir, "Not a directory"),
], ids=["trailing-separator", "dot-under-file"])
def test_matrix_path_is_read_as_open_reads_it(tmp_path, capsys, suffix, reason):
    # as for --out: a trailing separator names a directory, and a.json/. lies in a.json
    a = write_matrix(tmp_path / "a.json", A_2x2)
    b = write_matrix(tmp_path / "b.json", B_2x2)
    assert main(["check", "--matrix-a", a + suffix, "--matrix-b", b, "--v", "0.5"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {a}{suffix}: {reason}\n"
