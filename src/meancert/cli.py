"""Command-line surface: check, sweep, random, compare.

Matrix files are JSON objects {"dim": n, "data": [[...], ...]} with the
data row-major.  ``check`` writes one JSON report; ``sweep`` writes one CSV
row per weight.  Exit codes: 0 pass, 1 a certified bound failed,
2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certify
from .certify import CATALOG_ORDER, CertReport, catalog, compare_constants, verify
from .eigen import DEFAULT_LOEWNER_TOL, MAX_DIM, SymPDMatrix
from .errors import DomainError, InputError, NumericalError
from .sandwich import sandwich_of, uniform_box_of

EXIT_PASS = 0
EXIT_BOUND_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

RANDOM_REGIMES = ("below", "above", "straddle", "extended")

CSV_FIXED_COLUMNS = ("v", "s", "t", "regime")

# Most weights one sweep certifies, and most (h, v) points one compare
# tabulates; a larger grid is an input error.
MAX_GRID_POINTS = 10_000


def load_matrix(path: str) -> SymPDMatrix:
    """Parse a matrix file and build the PD matrix it describes."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot read file: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise InputError(f"{path}: expected an object with 'dim' and 'data'")
    dim = obj["dim"]
    data = obj["data"]
    if type(dim) is not int or dim < 1:
        raise InputError(f"{path}: 'dim' must be a positive integer")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: 'data' is not a numeric matrix: {exc}") from exc
    if arr.shape != (dim, dim):
        raise InputError(f"{path}: 'data' shape {arr.shape} does not match dim {dim}")
    # numpy would also parse strings, booleans and null (as NaN) into floats
    if any(type(x) not in (int, float) for row in data for x in row):
        raise InputError(f"{path}: 'data' entries must be JSON numbers")
    try:
        return SymPDMatrix(arr)
    except (InputError, DomainError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def emit_report(report: CertReport) -> str:
    return json.dumps(report.to_dict(), indent=2)


def csv_header() -> list[str]:
    cols = list(CSV_FIXED_COLUMNS)
    for name in CATALOG_ORDER:
        cols.append(f"const_{name}")
        cols.append(f"resid_{name}")
    return cols


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def report_csv_row(report: CertReport) -> list[str]:
    row = [_fmt(report.instance.get(c)) for c in CSV_FIXED_COLUMNS]
    for r in report.results:
        row.append(_fmt(r.statement.constant))
        row.append(_fmt(r.verdict.min_eig if r.verdict else None))
    return row


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reports_to_csv(reports: list[CertReport]) -> str:
    return _csv(csv_header(), map(report_csv_row, reports))


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def certify_pair(a: SymPDMatrix, b: SymPDMatrix, v: float, tol: float) -> CertReport:
    """Full pipeline for one (A, B, v): sandwich, boxes, catalog, verify."""
    if not math.isfinite(v):
        raise InputError(f"weight v must be finite, got {v}")
    if not 0.0 <= tol < math.inf:
        raise InputError(f"tolerance must be finite and >= 0, got {tol}")
    sw = sandwich_of(a, b)
    ubox = uniform_box_of(a, b)
    bounds = catalog(sw, v, uniform_box=ubox)
    instance = {
        "dim": a.dim,
        "v": v,
        "s": sw.s,
        "t": sw.t,
        "regime": sw.regime,
        "tight": True,
        "extended_weight": not 0.0 <= v <= 1.0,
        "uniform_box": {"m": ubox.m, "M": ubox.M, "h": ubox.h,
                        "degenerate": ubox.degenerate},
        "spectral_box": None,
    }
    return verify(a, b, v, bounds, tol, instance=instance,
                  comparison=certify.comparison_of(sw, v))


def _load_pair(args) -> tuple[SymPDMatrix, SymPDMatrix]:
    return load_matrix(args.matrix_a), load_matrix(args.matrix_b)


def _exit_code(reports: list[CertReport]) -> int:
    return EXIT_PASS if all(r.overall_pass for r in reports) else EXIT_BOUND_FAILED


def cmd_check(args) -> int:
    a, b = _load_pair(args)
    report = certify_pair(a, b, args.v, args.tol)
    _write_out(emit_report(report), args.out)
    return _exit_code([report])


def _grid(name: str, bounds, space=np.linspace, least=-math.inf,
          most=MAX_GRID_POINTS) -> list[float]:
    """START alone, or STEPS points from START to END placed by ``space``.

    The ends must be finite with least <= START <= END, and STEPS whole in [1, most].
    """
    start, end, steps = bounds
    if float(steps).is_integer():
        steps = int(steps)
    if not (isinstance(steps, int) and 1 <= steps <= most
            and math.isfinite(start) and least <= start <= end < math.inf):
        raise InputError(f"invalid {name} range ({start}, {end}, {steps})")
    return [start] if steps == 1 else list(space(start, end, steps))


def cmd_sweep(args) -> int:
    a, b = _load_pair(args)
    reports = [certify_pair(a, b, v, args.tol) for v in _grid("v", args.v_range)]
    _write_out(reports_to_csv(reports), args.out)
    return _exit_code(reports)


def _sample_scalars(rng: np.random.Generator, regime: str) -> tuple[float, float]:
    if regime == "below":
        pair = np.exp(rng.uniform(np.log(0.05), np.log(1.0), 2))
    elif regime == "above":
        pair = np.exp(rng.uniform(np.log(1.0), np.log(20.0), 2))
    elif regime == "straddle":
        return (float(np.exp(rng.uniform(np.log(0.05), np.log(0.95)))),
                float(np.exp(rng.uniform(np.log(1.05), np.log(20.0)))))
    else:  # extended: any sandwich shape
        pair = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
    return float(np.min(pair)), float(np.max(pair))


def cmd_random(args) -> int:
    if args.regime not in RANDOM_REGIMES:
        raise InputError(
            f"unknown regime '{args.regime}' (choose from {', '.join(RANDOM_REGIMES)})"
        )
    if args.count < 0 or not 1 <= args.dim <= MAX_DIM:
        raise InputError(f"count must be >= 0 and dim in [1, {MAX_DIM}]")
    v = args.v
    if v is None:
        v = 1.5 if args.regime == "extended" else 0.5
    if args.regime == "extended" and 0.0 <= v <= 1.0:
        raise InputError(f"extended regime needs a weight outside [0, 1], got {v}")
    rng = np.random.default_rng(args.seed)
    failures = 0
    worst = 0.0
    for _ in range(args.count):
        s0, t0 = _sample_scalars(rng, args.regime)
        dim = args.dim
        if dim == 1:
            t0 = s0
        a, b = certify.gen_instance(dim, s0, t0, int(rng.integers(2**63)))
        report = certify_pair(a, b, v, args.tol)
        if not report.overall_pass:
            failures += 1
        for r in report.results:
            if r.verdict is not None and not r.statement.literature:
                worst = min(worst, r.verdict.min_eig_normalized)
    print(f"seed={args.seed} regime={args.regime} v={v} count={args.count} "
          f"failures={failures} worst_residual={worst:.17g}")
    return EXIT_PASS if failures == 0 else EXIT_BOUND_FAILED


def cmd_compare(args) -> int:
    hs = _grid("h", args.h_range, least=1.0,
               space=lambda lo, hi, n: np.logspace(np.log10(lo), np.log10(hi), n))
    vs = _grid("v", args.v_range, most=MAX_GRID_POINTS // len(hs))
    rows = [compare_constants(h, v) for h in hs for v in vs]
    summary = {
        "specht_le_zuo_violations": sum(not r["specht_le_zuo"] for r in rows),
        "zuo_le_f_violations": sum(not r["zuo_le_f"] for r in rows),
        "dragomir_lt_zuo_count": sum(r["dragomir_vs_zuo"] == "lt" for r in rows),
        "dragomir_gt_zuo_count": sum(r["dragomir_vs_zuo"] == "gt" for r in rows),
    }
    if args.format == "csv":
        cols = list(rows[0])
        cells = ([_fmt(r[c]) if isinstance(r[c], float) else r[c] for c in cols] for r in rows)
        _write_out(_csv(cols, cells), args.out)
        print(json.dumps(summary))
    else:
        _write_out(json.dumps({"rows": rows, "summary": summary}, indent=2), args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meancert",
        description="Certify weighted operator-mean inequalities on PD matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tol = {"type": float, "default": DEFAULT_LOEWNER_TOL,
           "help": "relative Loewner tolerance (default %(default)s)"}
    out = {"default": None, "help": "output path (default stdout)"}

    p = sub.add_parser("check", help="certify one (A, B, v) instance")
    p.add_argument("--matrix-a", required=True)
    p.add_argument("--matrix-b", required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--tol", **tol)
    p.add_argument("--out", **out)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="tabulate constants and residuals across v")
    p.add_argument("--matrix-a", required=True)
    p.add_argument("--matrix-b", required=True)
    p.add_argument("--v-range", nargs=3, type=float, required=True,
                   metavar=("START", "END", "STEPS"))
    p.add_argument("--tol", **tol)
    p.add_argument("--out", **out)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("random", help="certify random regime-controlled instances")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", required=True)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--tol", **tol)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("compare", help="compare refinement constants on a grid")
    p.add_argument("--h-range", nargs=3, type=float, required=True,
                   metavar=("START", "END", "POINTS"))
    p.add_argument("--v-range", nargs=3, type=float, required=True,
                   metavar=("START", "END", "STEPS"))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", **out)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
