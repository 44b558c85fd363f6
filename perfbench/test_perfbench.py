"""Tests of the benchmark itself: tracing, correctness gate, output contract.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bench
import hostspeed
import oracle
import tracing
from meancert import certify, cli
from meancert.eigen import LoewnerVerdict, SymPDMatrix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_binding_is_traced():
    originals = tracing.traced_functions()
    init = SymPDMatrix.__init__
    eig_sym = sys.modules["meancert.eigen"].eig_sym
    with tracing.installed(tracing.Tracer()):
        for mod in tracing.meancert_modules():
            for attr, value in vars(mod).items():
                assert not (callable(value) and value in originals), \
                    f"{mod.__name__}.{attr} is not traced"
        # the copies made by ``from .eigen import eig_sym``
        assert sys.modules["meancert.means"].eig_sym is not eig_sym
        assert sys.modules["meancert.sandwich"].eig_sym is not eig_sym
        assert SymPDMatrix.__init__ is not init
    assert SymPDMatrix.__init__ is init
    assert sys.modules["meancert.means"].eig_sym is eig_sym


def test_dim6_straddle_pair_takes_11_eigensolves():
    rng = np.random.default_rng(6)
    a, b = bench.make_pair(rng, np.geomspace(0.5, 2.0, 6), np.geomspace(0.5, 2.0, 6))
    a, b = SymPDMatrix(a), SymPDMatrix(b)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.span():
            report = cli.certify_pair(a, b, 0.5, oracle.TOL)
    assert report.instance["regime"] == "straddle" and report.overall_pass
    metrics = tracing.layer_metrics(tracer, reports=1)
    assert metrics["eigen.eig_sym.calls_per_report"] == (11, "count")
    assert metrics["eigen.eig_sym.n3_per_report"] == (11 * 6 ** 3, "count")
    assert metrics["eigen.loewner_geq_zero.calls_per_report"] == (7, "count")
    root = [s for s in tracer.spans if s[0] == tracing.ROOT]
    assert len(root) == 1 and all(s[1] >= 0 for s in tracer.spans if s[0] != tracing.ROOT)


def test_self_times_partition_the_root_span():
    tracer = tracing.Tracer()
    rng = np.random.default_rng(1)
    a, b = (SymPDMatrix(m) for m in bench.make_pair(rng, np.ones(4), np.geomspace(0.2, 5, 4)))
    with tracing.installed(tracer):
        with tracer.span():
            cli.certify_pair(a, b, 0.5, oracle.TOL)
    root_ns = tracer.spans[0][3] - tracer.spans[0][2]
    metrics = tracing.layer_metrics(tracer, reports=1)
    layers_ms = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms_per_report"))
    assert 0.0 < layers_ms <= root_ns / 1e6


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_gate_passes_on_one_unit_of_each_workload(name, tmp_path):
    workload = bench.WORKLOADS[name](11, tmp_path)
    gate = oracle.Gate(workload.digest_reports)
    done = bench.run_pass(workload, gate, seconds=0.0)
    assert len(done.unit_s) == 1
    assert gate.correct, gate.problems
    assert gate.failed == 0 and gate.checked > 0


def test_host_speed_samples_interleave_and_stay_out_of_unit_times(tmp_path):
    workload = bench.CheckLarge(3, tmp_path)
    gate = oracle.Gate(workload.digest_reports)
    speed = hostspeed.HostSpeed()
    done = bench.run_pass(workload, gate, seconds=0.0, speed=speed)
    (t0, t1), = done.unit_span
    inside = [d for s, d in zip(speed.starts, speed.times) if t0 <= s <= t1]
    assert len(inside) > 10  # the kernel ran during the one long unit
    assert done.unit_s[0] == pytest.approx((t1 - t0) - sum(inside))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    wall = done.unit_s[0]
    done.scale(speed)
    assert done.unit_s[0] == pytest.approx(wall / speed.factor(t0, t1))


def test_inputs_depend_only_on_seed_and_index(tmp_path):
    first = bench.EnsembleSmall(5, tmp_path).prepare(7)
    again = bench.EnsembleSmall(5, tmp_path).prepare(7)
    other = bench.EnsembleSmall(6, tmp_path).prepare(7)
    assert all(np.array_equal(x, y) for x, y in zip(first[:2], again[:2]))
    assert not np.array_equal(first[0], other[0])


def _doubled_young(real_catalog):
    def tampered(sw, v, **kwargs):
        return [replace(s, constant=s.constant * 2) if s.name == "young.classical" else s
                for s in real_catalog(sw, v, **kwargs)]
    return tampered


def test_negative_control_doubled_constant_fails_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "catalog", _doubled_young(cli.catalog))
    workload = bench.EnsembleSmall(2, tmp_path)
    gate = oracle.Gate(workload.digest_reports)
    bench.run_pass(workload, gate, seconds=0.0)
    assert gate.failed > 0 and gate.failed / gate.attempted > 0
    assert not gate.correct
    assert gate.problems == []  # the oracle agrees the bound fails


def test_negative_control_lying_verifier_is_caught_by_the_oracle(tmp_path, monkeypatch):
    real = certify.loewner_geq_zero
    monkeypatch.setattr(cli, "catalog", _doubled_young(cli.catalog))
    monkeypatch.setattr(certify, "loewner_geq_zero",
                        lambda x, tol: LoewnerVerdict(True, real(x, tol).min_eig))
    workload = bench.EnsembleSmall(2, tmp_path)
    gate = oracle.Gate(workload.digest_reports)
    bench.run_pass(workload, gate, seconds=0.0)
    assert gate.failed == 0
    assert not gate.correct
    assert any("young.classical" in p for p in gate.problems)


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble-small",
         "--seed", "4", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    out = _run(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
