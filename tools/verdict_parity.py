"""Same-verdicts harness: compare two trees' CLI runs case by case, letting
the smallest eigenvalues move in their last bits.

    python3 tools/verdict_parity.py OLD_SRC NEW_SRC

Runs the cases of ``tools/byte_parity.py`` on each tree, each in a
subprocess whose ``PYTHONPATH`` is that tree's ``src`` directory, and
compares the two runs of each case:

- the exit code and stderr, exactly;
- a JSON report, field by field and exactly: each row's ``applicable``,
  reason and ``holds``, every constant, ``s`` and ``t`` included.  Only
  ``min_eig`` and ``min_eig_normalized`` may move, within the bound below;
- ``random``'s summary line, exactly but for ``worst_residual``, a
  ``min_eig_normalized``;
- a CSV, cell by cell and exactly, but for each ``resid_*``, a ``min_eig``,
  which may move within the bound and must stay on the same side of its
  row's tolerance.

The bound on a move of ``min_eig`` = λ_min(R) is ``C·n·ε·max(1, ‖R‖_F)``,
with ε the float64 machine epsilon and ``C`` = ``BOUND_C``: each Jacobi
kernel returns the eigenvalues of a matrix within a small multiple of
n·ε·‖R‖_F of R, so two kernels that round differently agree to about twice
that.  ``min_eig_normalized`` is ``min_eig / max(1, ‖R‖_F)``, so its bound
is ``C·n·ε``; a report gives ``max(1, ‖R‖_F)`` as the ratio of the two.  A
CSV row gives no ‖R‖_F, so the tool takes ``max(1, |resid|)`` in its place,
which is no larger, since |λ_min(R)| ≤ ‖R‖_F: a CSV value's bound is then no
looser than its report's.  Its tolerance side is the Loewner rule's,
``resid >= -tol·max(1, |resid|)``, at the CLI's default ``tol``, which every
case uses.

It prints one line per case whose runs differ in any byte: how many values
moved and the largest move, with its share of its bound, and any verdict,
exit code, stderr or other field that changed; then a summary line.  It
exits 0 whenever it finishes, whatever it found, so only an error fails
it.  ``--case NAME`` (repeatable) runs only the named cases.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

BOUND_C = 8
EPS = float(np.finfo(float).eps)
# the CLI's default --tol (eigen.DEFAULT_LOEWNER_TOL), which no case overrides
TOL = 1e-9
# JSON keys whose values are smallest eigenvalues, raw or divided by max(1, ||R||_F)
RAW, NORMALIZED = {"min_eig"}, {"min_eig_normalized", "worst_residual"}
# what a changed verdict changes in a JSON report
VERDICT_KEYS = {"holds", "applicable", "applicability_reason", "overall_pass", "findings"}


def _dim(argv: list[str]) -> int:
    """The dimension a case runs at: its A file's, or ``random``'s ``--dim``; 1 for none."""
    if "--matrix-a" in argv:
        path = argv[argv.index("--matrix-a") + 1]
        with open(path, encoding="utf-8") as f:
            return int(json.load(f)["dim"])
    return int(argv[argv.index("--dim") + 1]) if "--dim" in argv else 1


def dump(names: list[str] | None) -> None:
    """Run the cases on the tree that ``PYTHONPATH`` names; print one JSON line
    each, after a line that names the package's directory."""
    import byte_parity  # the harness's case list, with the package it imports

    print(json.dumps({"meancert": os.path.dirname(byte_parity.cli.__file__)}), flush=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            table = byte_parity.cases()
            for name in names or table:
                code, out, err = byte_parity.capture(table[name])
                print(json.dumps({"case": name, "n": _dim(table[name]), "code": code,
                                  "stdout": out, "stderr": err}), flush=True)
        finally:
            os.chdir(here)


class Diff:
    """How the new run of one case differs from the old one."""

    def __init__(self, n: int):
        self.n = n
        self.moves = []  # (field, |move|, bound)
        self.verdicts, self.others = [], []
        self.exit = self.stderr = None

    @property
    def out_of_bound(self) -> list:
        return [m for m in self.moves if m[1] > m[2]]

    def move(self, field: str, old: float, new: float, scale: float) -> None:
        if old != new or math.copysign(1.0, old) != math.copysign(1.0, new):
            self.moves.append((field, abs(new - old), BOUND_C * self.n * EPS * scale))

    def exact(self, field: str, old, new, verdict: bool = False) -> None:
        if old != new:
            (self.verdicts if verdict else self.others).append(field)


def _number(text):
    """A finite float, or None for any other text or value."""
    try:
        x = float(text)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) and not isinstance(text, bool) else None


def _json_scale(old: dict, new: dict) -> float:
    """max(1, ||R||_F) of a report's verdict, as min_eig over min_eig_normalized."""
    for verdict in (old, new):
        raw, normalized = verdict.get("min_eig"), verdict.get("min_eig_normalized")
        if _number(raw) is not None and _number(normalized):
            return raw / normalized
    return 1.0


def _walk(diff: Diff, old, new, path: str, scale: float = 1.0) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            diff.exact(path + " keys", list(old), list(new))
            return
        if "min_eig" in old:
            scale = _json_scale(old, new)
        for key in old:
            field = f"{path}.{key}" if path else key
            a, b = old[key], new[key]
            if key in VERDICT_KEYS:
                diff.exact(field, a, b, verdict=True)
            elif key in RAW | NORMALIZED and _number(a) is not None and _number(b) is not None:
                diff.move(field, a, b, scale if key in RAW else 1.0)
            else:
                _walk(diff, a, b, field, scale)
        return
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            name = a.get("statement", {}).get("name", i) if isinstance(a, dict) else i
            _walk(diff, a, b, f"{path}[{name}]", scale)
        return
    diff.exact(path, old, new)


def _holds(resid: float) -> bool:
    return resid >= -TOL * max(1.0, abs(resid))


def _compare_csv(diff: Diff, old: str, new: str) -> None:
    old_rows, new_rows = (list(csv.reader(text.splitlines())) for text in (old, new))
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        diff.exact("csv header or row count", old_rows[:1], new_rows[:1])
        return
    header = old_rows[0]
    for i, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]), 1):
        for column, a, b in zip(header, a_row, b_row):
            field = f"row {i} {column}"
            x, y = _number(a), _number(b)
            if column.startswith("resid_") and x is not None and y is not None:
                diff.move(field, x, y, max(1.0, abs(x)))
                diff.exact(field + " side", _holds(x), _holds(y), verdict=True)
            else:
                diff.exact(field, a, b)
        if len(a_row) != len(b_row):
            diff.exact(f"row {i} length", len(a_row), len(b_row))


def _compare_line(diff: Diff, old: str, new: str) -> None:
    """``random``'s ``key=value`` summary line."""
    old_items, new_items = (dict(item.split("=", 1) for item in text.split())
                            for text in (old, new))
    if list(old_items) != list(new_items):
        diff.exact("line", old, new)
        return
    for key in old_items:
        a, b = old_items[key], new_items[key]
        if key == "worst_residual" and _number(a) is not None and _number(b) is not None:
            diff.move(key, float(a), float(b), 1.0)
        else:
            diff.exact(key, a, b, verdict=key == "failures")


def compare(old: dict, new: dict) -> Diff:
    """How ``new``, one case's dump record on the new tree, differs from ``old``."""
    diff = Diff(old["n"])
    if old["code"] != new["code"]:
        diff.exit = (old["code"], new["code"])
    if old["stderr"] != new["stderr"]:
        diff.stderr = (old["stderr"], new["stderr"])
    a, b = old["stdout"], new["stdout"]
    if a == b:
        return diff
    if a.startswith("{") and b.startswith("{"):
        _walk(diff, json.loads(a), json.loads(b), "")
    elif a.startswith("seed=") and b.startswith("seed="):
        _compare_line(diff, a, b)
    else:
        _compare_csv(diff, a, b)
    return diff


def describe(name: str, diff: Diff) -> str:
    """One line on a changed case."""
    parts = [f"{len(diff.moves)} values moved"]
    if diff.moves:
        field, move, bound = max(diff.moves, key=lambda m: m[1] / m[2])
        parts[0] += f", largest {move:.2g} at {field} ({move / bound:.2f} of its bound)"
    if diff.out_of_bound:
        parts.append(f"{len(diff.out_of_bound)} out of bound")
    if diff.verdicts:
        parts.append(f"{len(diff.verdicts)} verdicts moved, first {diff.verdicts[0]}")
    if diff.exit:
        parts.append(f"exit {diff.exit[0]} -> {diff.exit[1]}")
    if diff.stderr:
        parts.append("stderr changed")
    if diff.others:
        parts.append(f"{len(diff.others)} other fields changed, first {diff.others[0]}")
    return f"{name}: " + "; ".join(parts)


def summary(records: list[tuple[str, bool, Diff]]) -> str:
    """The last line: counts over every case, ``(name, same_bytes, diff)`` each."""
    diffs = [diff for _, same, diff in records if not same]
    moves = [m for diff in diffs for m in diff.moves]
    text = (f"summary: {len(records)} cases, {len(records) - len(diffs)} with the same bytes, "
            f"{len(diffs)} changed; {len(moves)} values moved, bound "
            f"{BOUND_C}·n·ε·max(1, ‖R‖_F)")
    if moves:
        _, move, bound = max(moves, key=lambda m: m[1] / m[2])
        text += f", largest share {move / bound:.2f} ({move:.2g}), largest move " \
                f"{max(m[1] for m in moves):.2g}"
    counts = (sum(len(d.out_of_bound) for d in diffs), sum(len(d.verdicts) for d in diffs),
              sum(d.exit is not None for d in diffs), sum(d.stderr is not None for d in diffs),
              sum(len(d.others) for d in diffs))
    return text + ("; {} out of bound, {} verdict moves, {} exit codes and {} stderr texts "
                   "changed, {} other fields changed".format(*counts))


def _run_tree(src: str, names: list[str] | None) -> subprocess.Popen:
    argv = [sys.executable, os.path.abspath(__file__), "--dump"]
    for name in names or ():
        argv += ["--case", name]
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)


def _records(process: subprocess.Popen, label: str) -> dict:
    out, _ = process.communicate()
    if process.returncode:
        raise SystemExit(f"{label}: the case runs failed with exit code {process.returncode}")
    head, *lines = (json.loads(line) for line in out.splitlines())
    print(f"{label}: meancert from {head['meancert']}", file=sys.stderr)
    return {record["case"]: record for record in lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?", help="the src directory of the old tree")
    parser.add_argument("new_src", nargs="?", help="the src directory of the new tree")
    parser.add_argument("--case", action="append", metavar="NAME",
                        help="run only this case (repeatable)")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.case)
        return 0
    if args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    # both trees at once: each case run is one process's serial work
    runs = [_run_tree(src, args.case) for src in (args.old_src, args.new_src)]
    old, new = (_records(run, label) for run, label in zip(runs, ("old", "new")))
    records = []
    for name, before in old.items():
        after = new[name]
        same = all(before[k] == after[k] for k in ("code", "stdout", "stderr"))
        diff = compare(before, after)
        records.append((name, same, diff))
        if not same:
            print(describe(name, diff), flush=True)
    print(summary(records))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
