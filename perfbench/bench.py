"""Workloads, timing loop and metrics of the certification benchmark.

A *report* is one certified (A, B, v) instance.  A *unit* is one timed call
sequence into the program: one report on ``ensemble-small`` and
``check-large``, one 21-report ``sweep`` on ``sweep-reuse``.  Inputs come
from this file's own generator, seeded by (seed, unit index), so the same
seed gives the same inputs however fast the program runs, and a change to
the library's instance generators cannot change them.

The loop is closed and single-threaded: the next unit starts when the last
one returns.  Generating inputs, writing matrix files and gating the output
happen outside each unit's timed section.  The end-to-end run reports the
units' wall times scaled to a reference host speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from meancert import cli
from meancert.errors import MeanCertError

import hostspeed
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOL = oracle.TOL
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def make_pair(rng, a_evals, c_evals) -> tuple[np.ndarray, np.ndarray]:
    """A with spectrum ``a_evals``; B = A^(1/2) C A^(1/2), C with spectrum ``c_evals``.

    The congruence A^(-1/2) B A^(-1/2) is C, so the sandwich is the extreme
    pair of ``c_evals`` up to round-off and the regime is known in advance.
    """
    n = len(a_evals)
    qa = _orthogonal(rng, n)
    a = (qa * a_evals) @ qa.T
    qc = _orthogonal(rng, n)
    c = (qc * c_evals) @ qc.T
    half = (qa * np.sqrt(a_evals)) @ qa.T
    b = half @ c @ half
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def write_matrix(path: Path, mat: np.ndarray):
    path.write_text(json.dumps({"dim": mat.shape[0], "data": mat.tolist()}),
                    encoding="utf-8")


def _json_report(a, b, text: str) -> oracle.Report:
    obj = json.loads(text)
    inst = obj["instance"]
    bounds = {}
    for entry in obj["bounds"]:
        st = entry["statement"]
        if st["applicable"]:
            verdict = entry["verdict"]
            bounds[st["name"]] = (st["constant"], verdict["min_eig"], verdict["holds"])
    return oracle.Report(a, b, inst["v"], True, inst["s"], inst["t"],
                         inst["regime"], bounds)


class Workload:
    """One kind of input.  ``prepare`` and ``parse`` are untimed; ``run`` is timed.

    The base ``prepare`` builds pairs with fixed spectra, alternating the
    below and above regimes, so only the random bases change with the seed.
    Fixed spectra keep the Jacobi sweep count, and so the time per report,
    steady across seeds; the one-sided regimes apply every bound class,
    including the literature constants and ``compare_constants``.
    """

    name = ""
    dim = 0
    digest_reports = 1       # reports whose verdicts enter the verdict digest

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path_a = workdir / "a.json"
        self.path_b = workdir / "b.json"
        self.path_out = workdir / "out"

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def prepare(self, index: int, dim: int | None = None):
        n = dim or self.dim
        c_evals = np.geomspace(0.1, 0.8, n) if index % 2 == 0 else np.geomspace(1.25, 10.0, n)
        a, b = make_pair(self.rng(index), np.geomspace(0.5, 2.0, n), c_evals)
        self._write_pair(a, b)
        return a, b

    def run(self, job) -> int:
        raise NotImplementedError

    def parse(self, job, exit_code: int) -> list[oracle.Report]:
        raise NotImplementedError

    def _write_pair(self, a, b):
        write_matrix(self.path_a, a)
        write_matrix(self.path_b, b)


class EnsembleSmall(Workload):
    """Fresh pairs at n in {2, 4, 8}, one report each, through load/certify/emit."""

    name = "ensemble-small"
    digest_reports = 240
    # Round-robin, so every run sees the same mix whatever its length.
    COMBOS = tuple((n, regime) for n in (2, 4, 8)
                   for regime in ("below", "above", "straddle", "extended"))

    def prepare(self, index, dim=None):
        n, regime = self.COMBOS[index % len(self.COMBOS)]
        n = dim or n
        rng = self.rng(index)
        log_u = lambda lo, hi, k=None: np.exp(rng.uniform(np.log(lo), np.log(hi), k))  # noqa: E731
        if regime == "below":
            s0, t0 = np.sort(log_u(0.05, 0.9, 2))
        elif regime == "above":
            s0, t0 = np.sort(log_u(1.1, 20.0, 2))
        elif regime == "straddle":
            s0, t0 = log_u(0.05, 0.95), log_u(1.05, 20.0)
        else:
            s0, t0 = np.sort(log_u(0.1, 10.0, 2))
        c_evals = np.concatenate([[s0, t0], log_u(s0, t0, n - 2)])
        a, b = make_pair(rng, log_u(0.5, 2.0, n), c_evals)
        self._write_pair(a, b)
        v = 1.5 if regime == "extended" else 0.5
        return a, b, v

    def run(self, job):
        try:
            a = cli.load_matrix(str(self.path_a))
            b = cli.load_matrix(str(self.path_b))
            report = cli.certify_pair(a, b, job[2], TOL)
        except MeanCertError:  # the CLI would exit 2 or 3
            self.text = None
            return cli.EXIT_INPUT
        self.text = cli.emit_report(report)
        return cli.EXIT_PASS if report.overall_pass else cli.EXIT_BOUND_FAILED

    def parse(self, job, exit_code):
        a, b, v = job
        if self.text is None:
            return [oracle.Report(a, b, v, completed=False)]
        return [_json_report(a, b, self.text)]


class SweepReuse(Workload):
    """``meancert sweep`` of one n=12 pair over 21 weights in [-0.5, 1.5]."""

    name = "sweep-reuse"
    dim = 12
    V_START, V_END, STEPS = -0.5, 1.5, 21
    digest_reports = 2 * STEPS

    def run(self, job):
        return cli.main(["sweep", "--matrix-a", str(self.path_a),
                         "--matrix-b", str(self.path_b),
                         "--v-range", str(self.V_START), str(self.V_END), str(self.STEPS),
                         "--out", str(self.path_out)])

    def parse(self, job, exit_code):
        a, b = job
        if exit_code not in (cli.EXIT_PASS, cli.EXIT_BOUND_FAILED):
            return [oracle.Report(a, b, v, completed=False)
                    for v in np.linspace(self.V_START, self.V_END, self.STEPS)]
        with open(self.path_out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        reports = []
        for row in rows:
            bounds = {}
            for key, const in row.items():
                if key.startswith("const_") and const != "":
                    name = key[len("const_"):]
                    bounds[name] = (float(const), float(row["resid_" + name]), None)
            reports.append(oracle.Report(a, b, float(row["v"]), True, float(row["s"]),
                                         float(row["t"]), row["regime"], bounds))
        return reports


class CheckLarge(Workload):
    """``meancert check`` on an n=32 pair at v=0.5, JSON report to a file."""

    name = "check-large"
    dim = 32
    V = 0.5
    digest_reports = 2

    def run(self, job):
        return cli.main(["check", "--matrix-a", str(self.path_a),
                         "--matrix-b", str(self.path_b), "--v", str(self.V),
                         "--out", str(self.path_out)])

    def parse(self, job, exit_code):
        a, b = job
        if exit_code not in (cli.EXIT_PASS, cli.EXIT_BOUND_FAILED):
            return [oracle.Report(a, b, self.V, completed=False)]
        return [_json_report(a, b, self.path_out.read_text(encoding="utf-8"))]


WORKLOADS = {w.name: w for w in (EnsembleSmall, SweepReuse, CheckLarge)}


class Pass:
    """Per-unit timings of one pass over a workload's units."""

    def __init__(self):
        self.unit_s: list[float] = []
        self.unit_span: list[tuple[float, float]] = []
        self.traced_s: list[float] = []
        self.unit_reports: list[int] = []

    @property
    def reports(self) -> int:
        return sum(self.unit_reports)

    def per_report_ms(self) -> list[float]:
        return [1e3 * s / k for s, k in zip(self.unit_s, self.unit_reports)]

    def scale(self, speed: hostspeed.HostSpeed):
        """Scale the unit times to the reference host speed."""
        self.unit_s = [s / speed.factor(*span) for s, span in zip(self.unit_s, self.unit_span)]


def _timed_unit(workload: Workload, job, gate: oracle.Gate,
                tracer: tracing.Tracer | None = None,
                speed: hostspeed.HostSpeed | None = None):
    """Run one unit; return its time, (start, end) and report count.

    The time leaves out the reference kernel runs that interrupted the unit.
    """
    with tracer.span() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        code = workload.run(job)
        t1 = time.perf_counter()
    elapsed = t1 - t0 - (speed.kernel_s(t0, t1) if speed else 0.0)
    reports = workload.parse(job, code)
    gate.check_unit(reports, code)
    return elapsed, (t0, t1), len(reports)


def run_pass(workload: Workload, gate: oracle.Gate, seconds: float,
             tracer: tracing.Tracer | None = None,
             traced_gate: oracle.Gate | None = None,
             speed: hostspeed.HostSpeed | None = None) -> Pass:
    """Run units 0, 1, ... within ``seconds`` of wall time.

    A unit starts only if one more unit as long as the last would still
    end in time, so long units do not overrun the run.  With a tracer,
    each unit runs untraced and then traced, back to back, so the tracing
    overhead is measured on the same inputs at nearly the same time; the
    traced run is gated by ``traced_gate``.  With ``speed``, the reference
    kernel samples the host's speed throughout.
    """
    result = Pass()
    start = time.perf_counter()
    index = 0
    last = 0.0
    with speed.sampling() if speed else contextlib.nullcontext():
        while index == 0 or time.perf_counter() - start + last <= seconds:
            unit_start = time.perf_counter()
            job = workload.prepare(index)
            elapsed, span, count = _timed_unit(workload, job, gate, speed=speed)
            result.unit_s.append(elapsed)
            result.unit_span.append(span)
            result.unit_reports.append(count)
            if tracer is not None:
                with tracing.installed(tracer):
                    elapsed, _, _ = _timed_unit(workload, job, traced_gate, tracer)
                result.traced_s.append(elapsed)
            last = time.perf_counter() - unit_start
            index += 1
    return result


def warm_up(workload: Workload):
    """One small unit through the same code path, so lazy imports are done."""
    job = workload.prepare(0, dim=4)
    workload.parse(job, workload.run(job))


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import meancert
meancert.eig_sym([[4.0, 1.0, 0.0, 0.5], [1.0, 3.0, 0.2, 0.0],
                  [0.0, 0.2, 2.0, 0.1], [0.5, 0.0, 0.1, 1.0]])
print(time.perf_counter() - t0)
"""
# Reference-kernel sampling after each set-up interpreter.
SETUP_SAMPLE_S = 0.1


def setup_seconds(speed: hostspeed.HostSpeed, repeats: int = 9):
    """Import meancert and finish one eigensolve, each in a fresh interpreter.

    Returns the wall times and the times scaled to the reference host
    speed, which is sampled after each interpreter.  The first interpreter
    also writes bytecode caches and is discarded.
    """
    times, scaled = [], []
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=120, cwd=ROOT)
        t1 = time.perf_counter()
        speed.sample(SETUP_SAMPLE_S)
        if k:
            times.append(float(out.stdout.strip().splitlines()[-1]))
            scaled.append(times[-1] / speed.factor(t0, t1))
    return times, scaled


def eig_sym_direct_ms(seed: int, dims=(4, 8, 16, 32), min_s: float = 0.25) -> dict:
    """Median wall time of eig_sym on seeded SPD matrices, untraced."""
    from meancert.eigen import eig_sym

    out = {}
    for n in dims:
        rng = np.random.default_rng([seed, n])
        q = _orthogonal(rng, n)
        x = (q * np.geomspace(0.5, 2.0, n)) @ q.T
        x = 0.5 * (x + x.T)
        times = []
        start = time.perf_counter()
        while len(times) < 3 or time.perf_counter() - start < min_s:
            t0 = time.perf_counter()
            eig_sym(x)
            times.append(time.perf_counter() - t0)
        out[f"eigen.eig_sym.ms.n{n}"] = (1e3 * statistics.median(times), "ms")
    return out


def _blas_threads():
    """OpenBLAS thread count, asked of the library numpy loaded, or None."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    numba = importlib.util.find_spec("numba")
    return {
        "numba": None if numba is None else __import__("numba").__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p95_with_tail(samples: list[float]):
    """95th percentile, only when at least ten samples lie beyond it."""
    if len(samples) < 200:
        return None
    return float(np.percentile(samples, 95))


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; return (gate, end-to-end or per-layer metrics, details)."""
    workload = WORKLOADS[name](seed, workdir)
    gate = oracle.Gate(workload.digest_reports)
    details = {"workload": name, "seed": seed, "trace": int(trace),
               "environment": environment()}
    if not trace:
        setups, setups_ref = setup_seconds(hostspeed.HostSpeed())
        warm_up(workload)
        speed = hostspeed.HostSpeed()
        timed = run_pass(workload, gate, seconds, speed=speed)
        rss = peak_rss_mb()
        wall_clock = {"reports_per_s": timed.reports / sum(timed.unit_s),
                      "report_ms_p50": statistics.median(timed.per_report_ms()),
                      "setup_s": statistics.median(setups)}
        timed.scale(speed)
        factors = [speed.factor(*span) for span in timed.unit_span]
        per_report = timed.per_report_ms()
        metrics = {
            "reports_per_s": (timed.reports / sum(timed.unit_s), "1/s"),
            "report_ms_p50": (statistics.median(per_report), "ms"),
            "setup_s": (statistics.median(setups_ref), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        details.update(units=len(timed.unit_s), reports=timed.reports,
                       setup_s_samples=setups_ref,
                       report_ms_p95=p95_with_tail(per_report),
                       report_ms_samples=len(per_report),
                       host_speed_factor={"median": statistics.median(factors),
                                          "min": min(factors), "max": max(factors),
                                          "kernel_runs": len(speed.times)},
                       wall_clock=wall_clock)
    else:
        warm_up(workload)
        tracer = tracing.Tracer()
        traced_gate = oracle.Gate(workload.digest_reports)
        paired = run_pass(workload, gate, seconds, tracer, traced_gate)
        gate.absorb(traced_gate)
        metrics = tracing.layer_metrics(tracer, paired.reports)
        metrics.update(eig_sym_direct_ms(seed))
        metrics["trace.overhead_frac"] = (sum(paired.traced_s) / sum(paired.unit_s) - 1.0,
                                          "ratio")
        details.update(units=len(paired.unit_s), reports=paired.reports)
    details["failed_frac"] = gate.failed / gate.attempted
    details["gate"] = gate.summary()
    return gate, metrics, details
