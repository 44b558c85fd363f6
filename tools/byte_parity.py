"""Same-bytes harness: one SHA-256 per CLI run, so two trees can be compared.

    PYTHONPATH=src python3 tools/byte_parity.py > digests.txt
    PYTHONPATH=/path/to/other/tree/src python3 tools/byte_parity.py | diff digests.txt -

Runs ``meancert.cli.main`` in this process, taking the package from
``PYTHONPATH``, on a fixed set of cases:

- ``check`` at v in {-1, -0.3, 0, 0.25, 0.5, 0.7, 1, 1.5, 2}, a 13-weight
  ``sweep`` over [-1, 2] and ``random --count 3``, for n = 1-17 and 32 and
  a ``gen_instance`` pair in each of the four regimes (n = 15, 16, 17 and 32
  take verify's stacked route, at both parities);
- eighteen edge runs: a not-checkable literature row, a numerical failure,
  a dimension mismatch, subnormal and large entries, a long sweep, a
  3-weight sweep at n = 4 whose one stack holds fewer than 32 residuals,
  ``compare`` as JSON and CSV, three sweeps that fail on a mean's check
  while a later weight fails otherwise, and three n = 16 pairs whose
  loading fails (A not PD with B's file missing, B not PD, and a 16 vs 15
  dimension mismatch), which the pair loader must refuse in the order of
  loading A and then B.

Each output line is ``<sha256 of exit code, stdout and stderr>  <case>``,
and the last one is ``<sha256 of every line above>  total``.  Two trees give
the same total exactly when every case has the same exit code and bytes.
``--case NAME`` (repeatable) runs only the named cases; ``--list`` prints
the names.  Matrix files are written to a temporary directory and named
relative to it, so no path of this machine enters the output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from meancert import certify, cli

DIMS = (*range(1, 18), 32)
# the ends (s0, t0) of each regime's relative spectrum; n = 1 takes (s0, s0)
REGIMES = {"below": (0.2, 0.7), "above": (1.5, 6.0), "straddle": (0.5, 3.0),
           "extended": (0.4, 2.5)}
CHECK_WEIGHTS = ("-1", "-0.3", "0", "0.25", "0.5", "0.7", "1", "1.5", "2")
SWEEP = ("-1", "2", "13")
SEED = 23


def _pair(name: str, a, b) -> list[str]:
    """Write A and B as ``<name>_a.json`` and ``<name>_b.json``; their CLI flags."""
    flags = []
    for side, mat in (("a", a), ("b", b)):
        path = f"{name}_{side}.json"
        arr = np.asarray(mat, dtype=float)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"dim": arr.shape[0], "data": arr.tolist()}, f)
        flags += [f"--matrix-{side}", path]
    return flags


def cases() -> dict[str, list[str]]:
    """Case name -> argv of ``main``; writes the matrix files into the current directory."""
    out = {}
    for n in DIMS:
        for k, (regime, (s0, t0)) in enumerate(REGIMES.items()):
            a, b = certify.gen_instance(n, s0, s0 if n == 1 else t0, SEED + 4 * n + k)
            pair = _pair(f"n{n}_{regime}", a.mat, b.mat)
            for v in CHECK_WEIGHTS:
                out[f"check/n={n}/{regime}/v={v}"] = ["check", *pair, "--v", v]
            out[f"sweep/n={n}/{regime}"] = ["sweep", *pair, "--v-range", *SWEEP]
            out[f"random/n={n}/{regime}"] = ["random", "--dim", str(n), "--regime", regime,
                                             "--count", "3", "--seed", str(SEED + n)]
    eye2 = np.eye(2)
    # the dragomir row's residual overflows at v = 0.5: not checkable in floating point
    dragomir = _pair("dragomir", eye2, np.diag([60.0, 66.0]))
    for v in ("0.5", "0.1", "1.5", "-0.3"):
        out[f"edge/dragomir-not-checkable/v={v}"] = ["check", *dragomir, "--v", v]
    overflow = _pair("overflow", 1e20 * eye2, 1e21 * eye2)
    out["edge/geometric-mean-overflow"] = ["check", *overflow, "--v", "300"]
    out["edge/dimension-mismatch"] = [
        "check", *_pair("mismatch", eye2, 2.0 * np.eye(3)), "--v", "0.5"]
    out["edge/subnormal-entries"] = [
        "check", *_pair("subnormal", [[1.0, 5e-324], [5e-324, 2.0]],
                        [[3.0, -1e-310], [-1e-310, 0.5]]), "--v", "0.3"]
    out["edge/identity-and-1e13"] = [
        "check", *_pair("large", eye2, np.diag([1e13, 2e13])), "--v", "0.5"]
    a, b = certify.gen_instance(5, 0.3, 4.0, 7)
    out["edge/sweep-31"] = [
        "sweep", *_pair("sweep31", a.mat, b.mat), "--v-range", "-0.5", "1.5", "31"]
    # a sweep's one stack below eigen.ROUND_ROBIN_STACK_MIN matrices: solved one
    # at a time on the cyclic kernel, so its rows keep the one-weight reports' bits
    a, b = certify.gen_instance(4, 1.5, 6.0, SEED)
    out["edge/sweep-3-n4"] = [
        "sweep", *_pair("sweep3", a.mat, b.mat), "--v-range", "0", "1", "3"]
    out["edge/compare-json"] = [
        "compare", "--h-range", "1", "1e300", "40", "--v-range", "0.05", "0.95", "7"]
    out["edge/compare-csv"] = [
        "compare", "--h-range", "1", "100", "20", "--v-range", "0.05", "0.95", "19",
        "--format", "csv"]
    # weight 200's mean overflows its norm, and weight 300's has entries that are
    # not finite: the sweep names weight 200
    out["edge/sweep-mean-overflow"] = ["sweep", *overflow, "--v-range", "0", "300", "4"]
    # B below A: the geometric mean first fails its PD check at weight 18, and at
    # weights 509 and 1000 the relative spectrum's power underflows while it is built
    below = _pair("below", *(m.mat for m in certify.gen_instance(2, 0.2, 0.7, 102)))
    out["edge/sweep-mean-not-pd"] = ["sweep", *below, "--v-range", "12", "20", "9"]
    out["edge/sweep-mean-not-pd-then-underflow"] = [
        "sweep", *below, "--v-range", "18", "1000", "3"]
    # n = 16 loads both matrices in one stacked solve, whose errors keep their order
    spd = certify.gen_instance(16, 0.5, 3.0, SEED)[0].mat
    not_pd = np.diag(np.linspace(-1.0, 1.0, 16))
    out["edge/n16-a-not-pd-b-missing"] = [
        "check", *_pair("n16_not_pd", not_pd, spd)[:3], "missing_b.json", "--v", "0.5"]
    out["edge/n16-b-not-pd"] = ["check", *_pair("n16_b_not_pd", spd, not_pd), "--v", "0.5"]
    out["edge/n16-dimension-mismatch"] = [
        "check", *_pair("n16_mismatch", spd, certify.gen_instance(15, 0.5, 3.0, SEED)[1].mat),
        "--v", "0.5"]
    return out


def capture(argv: list[str]) -> tuple:
    """One in-process ``main`` run's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_case(argv: list[str]) -> str:
    """SHA-256 of one in-process ``main`` run's exit code, stdout and stderr."""
    text = "\0".join(map(str, capture(argv)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", metavar="NAME",
                        help="run only this case (repeatable)")
    parser.add_argument("--list", action="store_true", help="print the case names and exit")
    args = parser.parse_args(argv)
    print(f"meancert from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    total = hashlib.sha256()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            table = cases()
            if args.list:
                print("\n".join(table))
                return 0
            names = args.case or list(table)
            unknown = [name for name in names if name not in table]
            if unknown:
                parser.error(f"unknown case {unknown[0]!r}; --list prints the names")
            for name in names:
                line = f"{run_case(table[name])}  {name}"
                total.update(line.encode("utf-8") + b"\n")
                print(line, flush=True)
        finally:
            os.chdir(here)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
