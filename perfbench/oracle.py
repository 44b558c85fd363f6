"""Correctness gate: every reported verdict re-derived with LAPACK.

The oracle builds the means from ``numpy.linalg.eigh`` by Kubo-Ando
functional calculus on the congruence ``C = A^(-1/2) B A^(-1/2)``:
``A #_v B = A^(1/2) f(C) A^(1/2)`` with ``f(x) = x^v`` for the geometric
and ``f(x) = 1/((1-v) + v/x)`` for the harmonic mean.  It rebuilds each
applicable bound's residual from the constant the program reported and
takes its smallest eigenvalue with ``numpy.linalg.eigvalsh``.

A verdict holds when ``min_eig >= -tol * max(1, ||R||_F)``, the program's
rule.  Where the oracle's smallest eigenvalue lies within half a tolerance
of that threshold the two computations may honestly disagree, so
agreement is required only outside that band.

The bound table is the benchmark's own copy, so a later change to how the
program stores its catalog cannot change what the gate checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9
BAND = 0.5           # half-width of the no-verdict band, in units of the threshold
SANDWICH_RTOL = 1e-8

MULT, ADD = "multiplicative", "additive"
LOWER, UPPER = "lower", "upper"
NABLA, HARM, EXT = "nabla_vs_sharp", "harm_vs_sharp", "sharp_vs_nabla_extended"

# name: (form, side, relation, reference matrix, literature)
BOUNDS = {
    "thm1.lower": (MULT, LOWER, NABLA, "A", False),
    "thm1.upper": (MULT, UPPER, NABLA, "A", False),
    "young.classical": (MULT, LOWER, NABLA, "A", False),
    "straddle.mult.upper": (MULT, UPPER, NABLA, "A", False),
    "prop2.lower": (ADD, LOWER, NABLA, "A", False),
    "prop2.upper": (ADD, UPPER, NABLA, "A", False),
    "thm3.upper": (ADD, UPPER, NABLA, "A", False),
    "harm.lower": (MULT, LOWER, HARM, "A", False),
    "harm.upper": (MULT, UPPER, HARM, "A", False),
    "xi.upper": (ADD, UPPER, NABLA, "A", False),
    "tominaga.upper": (ADD, UPPER, NABLA, "A", True),
    "zuo": (MULT, LOWER, NABLA, "A", True),
    "specht": (MULT, LOWER, NABLA, "A", True),
    "dragomir": (MULT, UPPER, NABLA, "A", True),
    "ext.lower": (ADD, LOWER, NABLA, "A", False),
    "ext.upper": (ADD, UPPER, NABLA, "A", False),
    "ext.box.lower": (ADD, LOWER, EXT, "A", False),
    "ext.box.upper": (ADD, UPPER, EXT, "A", False),
    "ext.ibox.lower": (ADD, LOWER, EXT, "I", False),
    "ext.ibox.upper": (ADD, UPPER, EXT, "I", False),
}


@dataclass
class Report:
    """One certified (A, B, v) instance as the program reported it.

    ``bounds`` maps each applicable bound to (constant, min_eig, holds);
    ``holds`` is None where the output format omits it (the sweep CSV), and
    the gate then applies the program's rule to the reported ``min_eig``.
    ``completed`` is False when the call raised or exited 2 or 3.
    """

    a: np.ndarray
    b: np.ndarray
    v: float
    completed: bool = True
    s: float = float("nan")
    t: float = float("nan")
    regime: str = ""
    bounds: dict = field(default_factory=dict)


def _means(a: np.ndarray, b: np.ndarray, v: float):
    lam, q = np.linalg.eigh(a)
    half = (q * np.sqrt(lam)) @ q.T
    inv_half = (q / np.sqrt(lam)) @ q.T
    c = inv_half @ b @ inv_half
    w, u = np.linalg.eigh(0.5 * (c + c.T))

    def assemble(values):
        inner = (u * values) @ u.T
        m = half @ inner @ half
        return 0.5 * (m + m.T)

    sharp = assemble(w ** v)
    harm = assemble(1.0 / ((1.0 - v) + v / w)) if 0.0 <= v <= 1.0 else None
    return (1.0 - v) * a + v * b, sharp, harm, float(w[0]), float(w[-1])


def _residual(name, c, a, nabla, sharp, harm):
    form, side, relation, ref, _ = BOUNDS[name]
    if form == MULT:
        lhs = harm if relation == HARM else nabla
        return lhs - c * sharp if side == LOWER else c * sharp - lhs
    gap = nabla - sharp
    if relation == EXT:
        gap = -gap
    refm = a if ref == "A" else np.eye(a.shape[0])
    return gap - c * refm if side == LOWER else c * refm - gap


class Gate:
    """Checks reports against the oracle and digests the first verdicts."""

    def __init__(self, digest_reports: int):
        self.digest_reports = digest_reports
        self.attempted = 0
        self.failed = 0
        self.checked = 0          # bound verdicts compared with the oracle
        self.in_band = 0          # of those, too close to the threshold to judge
        self.problems: list[str] = []
        self._digest = hashlib.sha256()
        self._digested = 0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems

    def _problem(self, text: str):
        if len(self.problems) < 20:
            self.problems.append(text)
        else:
            self.problems[-1] = "... more problems omitted"

    def check_unit(self, reports: list[Report], exit_code: int):
        """Gate one call into the program; its exit code must match the verdicts."""
        any_failed = False
        for report in reports:
            any_failed |= not self._check_report(report)
        if exit_code in (0, 1) and (exit_code == 1) != any_failed:
            self._problem(f"exit code {exit_code} disagrees with the reported verdicts")

    def _check_report(self, r: Report) -> bool:
        self.attempted += 1
        if not r.completed:
            self.failed += 1
            self._digest_line("error")
            return False
        nabla, sharp, harm, s, t = _means(r.a, r.b, r.v)
        if not (abs(r.s - s) <= SANDWICH_RTOL * s and abs(r.t - t) <= SANDWICH_RTOL * t):
            self._problem(f"v={r.v}: sandwich ({r.s}, {r.t}) differs from LAPACK ({s}, {t})")
        ok = True
        verdicts = []
        for name, (const, min_eig, holds) in r.bounds.items():
            if name not in BOUNDS:
                self._problem(f"unknown bound {name}")
                continue
            res = _residual(name, const, r.a, nabla, sharp, harm)
            threshold = -TOL * max(1.0, float(np.linalg.norm(res)))
            oracle_min = float(np.linalg.eigvalsh(res)[0])
            if holds is None:
                holds = min_eig >= threshold
            self.checked += 1
            if abs(oracle_min - threshold) <= BAND * abs(threshold):
                self.in_band += 1
            elif holds != (oracle_min >= threshold):
                self._problem(f"v={r.v} {name}: program holds={holds}, "
                              f"LAPACK min eigenvalue {oracle_min:.3e}")
            if not holds and not BOUNDS[name][4]:
                ok = False
            verdicts.append(f"{name}={int(holds)}")
        if not ok:
            self.failed += 1
        self._digest_line(f"{r.regime};" + ",".join(verdicts))
        return ok

    def _digest_line(self, line: str):
        if self._digested < self.digest_reports:
            self._digest.update(line.encode() + b"\n")
            self._digested += 1

    def absorb(self, other: "Gate"):
        """Add another pass over the same units; its verdicts must match."""
        mine, theirs = self.summary()["verdict_digest"], other.summary()["verdict_digest"]
        if mine["reports"] == theirs["reports"] and mine["sha256"] != theirs["sha256"]:
            self._problem("verdicts differ between two passes over the same inputs")
        self.attempted += other.attempted
        self.failed += other.failed
        self.checked += other.checked
        self.in_band += other.in_band
        for problem in other.problems:
            self._problem(problem)

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "bound_verdicts_checked": self.checked,
            "in_tolerance_band": self.in_band,
            "problems": self.problems,
            "verdict_digest": {"reports": self._digested,
                               "sha256": self._digest.hexdigest()},
        }
