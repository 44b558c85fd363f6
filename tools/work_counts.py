"""Exact work per report: kernel calls, eigensolves, their n^3 sum, Loewner checks and
``mat_fpow`` calls.

    PYTHONPATH=src python3 tools/work_counts.py > counts.txt
    PYTHONPATH=/path/to/other/tree/src python3 tools/work_counts.py | diff counts.txt -

Runs ``meancert.cli.main`` in this process, taking the package from
``PYTHONPATH``, on fixed units shaped like the benchmark's three workloads:

- ``ensemble-small``: one ``check`` of a ``gen_instance`` pair at each of
  n = 2, 4 and 8 in each of the four regimes, at v = 1.5 for the extended
  regime and v = 0.5 for the others;
- ``sweep-reuse``: one n = 12 pair through a 21-weight ``sweep`` over
  [-0.5, 1.5];
- ``check-large``: one ``check`` of an n = 32 pair at v = 0.5.

A unit's counts cover the whole CLI run, the loading of both matrix files
included.  Solves are counted inside the Jacobi kernels, so a stacked
solve of k matrices counts k ``round_robin`` solves and one kernel call: a
pass, whose fixed cost of numpy calls its matrices share.  A Loewner check
is counted where the Loewner rule (``eigen._loewner_verdict``) judges a
residual, so each residual of a stack counts one.  None of the counts
depends on the host's speed.  Each output line is one JSON object per
workload: ``reports``, the reports its units wrote, ``exits``, each unit's
exit code, ``kernel_calls``, per kernel its calls, ``solves``, per kernel
the solves at each n, ``n3``, the sum of n^3 over those solves,
``loewner_checks``, and ``mat_fpow``, the calls of that function.  Matrix
files are written to a temporary directory, so no path of this machine
enters the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from collections import Counter

from meancert import certify, cli, eigen

# the ends (s0, t0) of each regime's relative spectrum
REGIMES = {"below": (0.2, 0.7), "above": (1.5, 6.0), "straddle": (0.5, 3.0),
           "extended": (0.4, 2.5)}
SWEEP = ("-0.5", "1.5", "21")
SEED = 29


class Counts:
    """The work of the runs made inside one ``counting`` block."""

    def __init__(self):
        self.kernel_calls = Counter({"cyclic": 0, "round_robin": 0})
        self.solves = {"cyclic": Counter(), "round_robin": Counter()}
        self.loewner_checks = 0
        self.mat_fpow = 0

    def as_dict(self) -> dict:
        return {
            "kernel_calls": dict(self.kernel_calls),
            "solves": {kernel: {str(n): by_n[n] for n in sorted(by_n)}
                       for kernel, by_n in self.solves.items()},
            "n3": sum(n ** 3 * k for by_n in self.solves.values() for n, k in by_n.items()),
            "loewner_checks": self.loewner_checks,
            "mat_fpow": self.mat_fpow,
        }


@contextlib.contextmanager
def counting():
    """Count the package's work until the block exits; yields a ``Counts``.

    Each counted function is replaced by a counting wrapper at every
    binding of it in the package's modules (``from .eigen import ...``
    makes copies), and put back on exit.
    """
    counts = Counts()
    real_cyclic, real_round_robin = eigen._jacobi_kernel, eigen._round_robin_kernel
    real_loewner, real_fpow = eigen._loewner_verdict, eigen.mat_fpow

    def solving(kernel, n, k):
        counts.kernel_calls[kernel] += 1
        counts.solves[kernel][n] += k

    def cyclic(x, *args):
        solving("cyclic", len(x), 1)
        return real_cyclic(x, *args)

    def round_robin(a, *args):
        solving("round_robin", a.shape[-1], len(a))
        return real_round_robin(a, *args)

    def loewner_verdict(*args):
        counts.loewner_checks += 1
        return real_loewner(*args)

    def mat_fpow(x, p):
        counts.mat_fpow += 1
        return real_fpow(x, p)

    wrappers = {id(real): wrapper for real, wrapper in (
        (real_cyclic, cyclic), (real_round_robin, round_robin),
        (real_loewner, loewner_verdict), (real_fpow, mat_fpow))}
    replaced = []
    modules = [m for name, m in sys.modules.items()
               if name == "meancert" or name.startswith("meancert.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                replaced.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    try:
        yield counts
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)


def _pair(name: str, n: int, regime: str, seed: int) -> list[str]:
    """Write a ``gen_instance`` pair as ``<name>_a.json`` and ``<name>_b.json``; its CLI flags."""
    s0, t0 = REGIMES[regime]
    flags = []
    for side, m in zip("ab", certify.gen_instance(n, s0, t0, seed)):
        path = f"{name}_{side}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"dim": n, "data": m.mat.tolist()}, f)
        flags += [f"--matrix-{side}", path]
    return flags


def workloads() -> dict[str, list[tuple[list[str], int]]]:
    """Workload -> its units, each the argv of ``main`` and the reports it
    writes; writes the matrix files into the current directory."""
    small = [(["check", *_pair(f"n{n}_{regime}", n, regime, SEED + 4 * n + k),
               "--v", "1.5" if regime == "extended" else "0.5"], 1)
             for n in (2, 4, 8) for k, regime in enumerate(REGIMES)]
    sweep = [(["sweep", *_pair("n12", 12, "straddle", SEED), "--v-range", *SWEEP],
              int(SWEEP[2]))]
    large = [(["check", *_pair("n32", 32, "above", SEED), "--v", "0.5"], 1)]
    return {"ensemble-small": small, "sweep-reuse": sweep, "check-large": large}


def run_unit(argv: list[str]) -> int:
    """One in-process ``main`` run, its output discarded; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def main() -> int:
    print(f"meancert from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, units in workloads().items():
                with counting() as counts:
                    exits = [run_unit(argv) for argv, _ in units]
                line = {"workload": name, "reports": sum(r for _, r in units),
                        "exits": exits, **counts.as_dict()}
                print(json.dumps(line), flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
