"""Command-line surface: check, sweep, random, compare.

Matrix files are JSON objects {"dim": n, "data": [[...], ...]} with the
data row-major.  ``check`` writes one JSON report; ``sweep`` writes one CSV
row per weight.  Exit codes: 0 pass, 1 a certified bound failed,
2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import operator
import os
import sys
from dataclasses import fields
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import certify, eigen
from .certify import (
    CATALOG_ORDER,
    BoundStatement,
    CertReport,
    catalog,
    compare_constants,
    verify,
)
from .eigen import DEFAULT_LOEWNER_TOL, MAX_DIM, SymPDMatrix
from .errors import DomainError, InputError, MeanCertError, NumericalError
from .sandwich import PairContext

EXIT_PASS = 0
EXIT_BOUND_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

RANDOM_REGIMES = ("below", "above", "straddle", "extended")

CSV_FIXED_COLUMNS = ("v", "s", "t", "regime")

# Most weights one sweep certifies, and most (h, v) points one compare
# tabulates; a larger grid is an input error.
MAX_GRID_POINTS = 10_000


def _reason(exc: Exception) -> str:
    """What went wrong, without the path: an OSError's ``str`` repeats it."""
    if isinstance(exc, OSError) and exc.strerror:
        return exc.strerror
    return str(exc)


# the exact types of a number that json.loads returns
_NUMBER_TYPES = frozenset((int, float))


def _read_matrix(path: str) -> np.ndarray:
    """Parse a matrix file into its array; every way the file can be
    unusable is an InputError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.loads(f.read())
        if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
            raise InputError("expected an object with 'dim' and 'data'")
        dim = obj["dim"]
        data = obj["data"]
        if type(dim) is not int or dim < 1:
            raise InputError("'dim' must be a positive integer")
        arr = np.asarray(data, dtype=float)
        if arr.shape != (dim, dim):
            raise InputError(f"'data' shape {arr.shape} does not match dim {dim}")
        # numpy would also parse strings, booleans and null (as NaN) into floats
        if not _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(data))):
            raise InputError("'data' entries must be JSON numbers")
    except (OSError, ValueError, TypeError, OverflowError, RecursionError, InputError) as exc:
        raise InputError(f"{path}: {_reason(exc)}") from exc
    return arr


def _named(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)`` on the matrix read from ``path``; a refusal
    is an InputError naming the file, a numerical failure passes as it is."""
    try:
        return build(*args, **kwargs)
    except (InputError, DomainError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_matrix(path: str) -> SymPDMatrix:
    """Parse a matrix file and build the PD matrix it describes; every way
    the file can be unusable is an InputError naming it."""
    return _named(path, SymPDMatrix, _read_matrix(path))


def _write(obj, newline: str) -> str:
    """``obj``'s text at the indent ``newline`` opens; see ``_json``."""
    if isinstance(obj, float):  # the most common value, and no str, bool or int is one
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _write(y, inner) for k, y in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_write(y, inner) for y in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json(obj) -> str:
    """Strict JSON (RFC 8259) with ``json.dumps(obj, indent=2)``'s text, but a
    non-finite float is written as null.  Dict keys must be strings; a value
    of any type ``json.dumps`` does not take raises TypeError."""
    return _write(obj, "\n")


# A bound row's text before and after its constant, keyed by the statement's
# other fields: the table's rows and their reasons are few, so it stays small
_ROW_TEXT: dict = {}
_ROW_KEY = operator.attrgetter(*(f.name for f in fields(BoundStatement) if f.name != "constant"))
_ROW_INDENT = "\n    "
_VERDICT = ('{\n        "holds": %s,\n        "min_eig": %s,\n'
            '        "min_eig_normalized": %s\n      }')


def _row_text(result) -> str:
    """One row of ``emit_report``'s bounds, from its cached text around the constant."""
    st, verdict = result.statement, result.verdict
    key = _ROW_KEY(st)
    around = _ROW_TEXT.get(key)
    if around is None:
        text = _write({"statement": {**vars(st), "constant": None}, "verdict": None},
                      _ROW_INDENT)
        # keys and strings are escaped, so only the key itself reads '"constant": '
        head, _, tail = text.partition('"constant": null')
        around = _ROW_TEXT[key] = (head + '"constant": ',
                                   tail.removesuffix("null" + _ROW_INDENT + "}"))
    head, tail = around
    verdict_text = "null"
    if verdict is not None:
        # equal floats of one sign have one repr, and x / 1.0 is x: at scale 1
        # the normalized value is written from min_eig's text
        min_eig = _write(verdict.min_eig, "")
        verdict_text = _VERDICT % (
            _write(verdict.holds, ""), min_eig,
            min_eig if verdict.min_eig_normalized == verdict.min_eig
            else _write(verdict.min_eig_normalized, ""))
    return head + _write(st.constant, "") + tail + verdict_text + _ROW_INDENT + "}"


def emit_report(report: CertReport) -> str:
    """``_json(report.to_dict())``'s text, each bound row from ``_row_text``."""
    rows = ("[" + _ROW_INDENT + ("," + _ROW_INDENT).join(map(_row_text, report.results))
            + "\n  ]") if report.results else "[]"
    return ('{\n  "instance": ' + _write(report.instance, "\n  ")
            + ',\n  "bounds": ' + rows
            + ',\n  "comparison": ' + _write(report.comparison or None, "\n  ")
            + ',\n  "findings": ' + _write(list(report.findings), "\n  ")
            + ',\n  "overall_pass": ' + _write(report.overall_pass, "\n  ") + "\n}")


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


def _check_out(out: str | None):
    """Refuse an output path that is a directory or lies in no directory, before
    any work starts.  The file is written only when the work is done, so a
    run that fails leaves none behind.  The path is read as ``open`` reads
    it, so a trailing separator names a directory and ``a.json/.`` lies in
    ``a.json`` (``Path`` would drop both).  Only None means stdout."""
    if out is None:
        return
    if not out:
        raise InputError("empty output path")
    parent = os.path.dirname(out) or os.curdir
    if out[-1] in (os.sep, os.altsep) or os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise InputError(f"{out}: {os.strerror(code)}")


def _write_out(text: str, out: str | None):
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise InputError(f"{out}: {_reason(exc)}") from exc
    else:
        try:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        except OSError as exc:
            # a reader that went away: send the exit-time flush to /dev/null
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise InputError(f"stdout: {_reason(exc)}") from exc


def _weight(pair: PairContext, v: float, tol: float) -> tuple:
    """What ``verify`` takes for one weight besides the pair and tolerance:
    ``(v, bounds, instance, comparison)``, from the pair's spectral work.

    The arguments are checked before the context's first eigensolve.
    """
    if not math.isfinite(v):
        raise InputError(f"weight v must be finite, got {v}")
    if not 0.0 <= tol < math.inf:
        raise InputError(f"tolerance must be finite and >= 0, got {tol}")
    sw = pair.sandwich
    ubox = pair.uniform_box
    bounds = catalog(sw, v, uniform_box=ubox)
    instance = {
        "dim": pair.a.dim,
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
    return v, bounds, instance, certify.comparison_of(sw, v)


def certify_weight(pair: PairContext, v: float, tol: float) -> CertReport:
    """The per-weight step: catalog and verify at v, reusing the pair's
    spectral work.  ``verify`` is the one-weight case of
    ``certify.verify_weights``, which ``sweep`` runs on its whole grid."""
    v, bounds, instance, comparison = _weight(pair, v, tol)
    return verify(pair, v, bounds, tol, instance=instance, comparison=comparison)


def certify_pair(a: SymPDMatrix, b: SymPDMatrix, v: float, tol: float) -> CertReport:
    """Full pipeline for one (A, B, v): a fresh pair context, then one weight."""
    return certify_weight(PairContext(a, b), v, tol)


def _load_pair(args) -> tuple[SymPDMatrix, SymPDMatrix]:
    """``load_matrix`` of A and then of B, with their bits and the first error
    they raise, but with A and B solved as one stack (``eigen.eig_stack``)
    when their dimensions agree."""
    paths = (args.matrix_a, args.matrix_b)
    try:
        arrs = [_named(path, eigen.symmetrized, _read_matrix(path)) for path in paths]
    except InputError:
        load_matrix(paths[0])  # A is solved and judged before B's file error, as it loads first
        raise
    if arrs[0].shape != arrs[1].shape:  # each alone; the pair context reports the mismatch
        return load_matrix(paths[0]), load_matrix(paths[1])
    pair = []
    for path, arr, dec in zip(paths, arrs, eigen.eig_stack(np.stack(arrs))):
        if isinstance(dec, MeanCertError):  # a NumericalError: the entries are finite
            raise dec
        pair.append(_named(path, SymPDMatrix, arr, _decomp=dec, _margin=eigen.PD_REL_MARGIN))
    return pair[0], pair[1]


def _exit_code(reports: list[CertReport]) -> int:
    return EXIT_PASS if all(r.overall_pass for r in reports) else EXIT_BOUND_FAILED


def cmd_check(args) -> int:
    _check_out(args.out)
    a, b = _load_pair(args)
    report = certify_pair(a, b, args.v, args.tol)
    _write_out(emit_report(report), args.out)
    return _exit_code([report])


def _grid(name: str, bounds, space=np.linspace, least=-math.inf,
          most=MAX_GRID_POINTS) -> list[float]:
    """STEPS points from START to END placed by ``space``; one step is START alone.

    The ends must be finite with least <= START <= END, and STEPS whole in [1, most].
    """
    start, end, steps = bounds
    if float(steps).is_integer():
        steps = int(steps)
    if not (isinstance(steps, int) and 1 <= steps <= most
            and math.isfinite(start) and least <= start <= end < math.inf):
        raise InputError(f"invalid {name} range ({start}, {end}, {steps})")
    return list(space(start, end, steps))


def cmd_sweep(args) -> int:
    _check_out(args.out)
    pair = PairContext(*_load_pair(args))
    # the weights' checks are solved in chunks; each report has the verdicts,
    # constants, s and t of a one-weight run, and its bits unless the chunk is
    # a round-robin stack below ROUND_ROBIN_MIN_DIM (PairContext); a failing
    # weight raises what its run would
    weights = (_weight(pair, v, args.tol) for v in _grid("v", args.v_range))
    reports = certify.verify_weights(pair, weights, args.tol)
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
    if args.seed < 0:
        raise InputError(f"seed must be >= 0, got {args.seed}")
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
    _write_out(f"seed={args.seed} regime={args.regime} v={v} count={args.count} "
               f"failures={failures} worst_residual={worst:.17g}", None)
    return EXIT_PASS if failures == 0 else EXIT_BOUND_FAILED


def cmd_compare(args) -> int:
    _check_out(args.out)
    hs = _grid("h", args.h_range, least=1.0, space=np.geomspace)
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
        print(json.dumps(summary), file=sys.stderr)
    else:
        _write_out(_json({"rows": rows, "summary": summary}), args.out)
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
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
