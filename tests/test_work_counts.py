"""Smoke tests of tools/work_counts.py: its counts are the solves made, and it runs."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from meancert import certify, cli
from meancert.eigen import DEFAULT_LOEWNER_TOL

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "work_counts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("work_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_dim6_report_counts_one_solve_per_eig_sym_call(monkeypatch):
    work_counts = load_tool()
    a, b = certify.gen_instance(6, 0.5, 3.0, 5)
    calls = []
    real = sys.modules["meancert.eigen"].eig_sym

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    # below n = 15 every solve goes through eig_sym, at each of its bindings
    for name, module in list(sys.modules.items()):
        if name.startswith("meancert"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    with work_counts.counting() as counts:
        report = cli.certify_pair(a, b, 0.5, DEFAULT_LOEWNER_TOL)
    assert report.overall_pass
    got = counts.as_dict()
    assert got["solves"] == {"cyclic": {"6": len(calls)}, "round_robin": {}}
    assert got["kernel_calls"] == {"cyclic": len(calls), "round_robin": 0}
    assert got["n3"] == len(calls) * 6 ** 3
    assert 0 < got["loewner_checks"] < len(calls)
    # the counting wrappers are gone once the block exits
    assert sys.modules["meancert.certify"].loewner_geq_zero is \
        sys.modules["meancert.eigen"].loewner_geq_zero


def test_the_tool_prints_one_line_per_workload():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["workload"] for line in lines] == ["ensemble-small", "sweep-reuse",
                                                     "check-large"]
    for line in lines:
        assert set(line["exits"]) <= {cli.EXIT_PASS, cli.EXIT_BOUND_FAILED}
        assert line["reports"] > 0 and line["loewner_checks"] > 0
        solves = [(int(n), k) for by_n in line["solves"].values() for n, k in by_n.items()]
        assert line["n3"] == sum(n ** 3 * k for n, k in solves) > 0
        # each kernel call solves at least one matrix
        for kernel, calls in line["kernel_calls"].items():
            assert calls <= sum(line["solves"][kernel].values())
            assert (calls > 0) == bool(line["solves"][kernel])
    # n = 32 runs the round-robin kernel, the smaller dimensions the cyclic one; its
    # check makes three passes: [A, B], [C with vectors], [the means and residuals]
    assert lines[2]["kernel_calls"] == {"cyclic": 0, "round_robin": 3}
    assert lines[2]["solves"] == {"cyclic": {}, "round_robin": {"32": 16}}
    assert lines[2]["n3"] == 16 * 32 ** 3


def test_the_sweep_line_is_the_same_on_either_route(tmp_path, monkeypatch):
    """The sweep-reuse unit counts the same solves at each n, Loewner checks
    and ``mat_fpow`` calls whether its checks run one matrix at a time on the
    cyclic kernel, or as a round-robin stack from the measured crossover or at
    any size; only the kernel that solves them and its calls differ."""
    work_counts = load_tool()
    monkeypatch.chdir(tmp_path)
    (argv, _), = work_counts.workloads()["sweep-reuse"]
    eigen = sys.modules["meancert.eigen"]
    real, stacked = eigen._round_robin_kernel, []

    def spy(a, *args):
        stacked.append(len(a))
        return real(a, *args)

    monkeypatch.setattr(eigen, "_round_robin_kernel", spy)
    lines = {}
    for route, crossover in (("solo", eigen.MAX_DIM ** 2),
                             ("crossover", eigen.ROUND_ROBIN_STACK_MIN), ("always", 1)):
        monkeypatch.setattr(eigen, "ROUND_ROBIN_STACK_MIN", crossover)
        stacked.clear()
        with work_counts.counting() as counts:
            assert work_counts.run_unit(argv) == cli.EXIT_PASS
        lines[route] = counts.as_dict()
        assert bool(stacked) == (route != "solo")
    calls = {route: sum(line.pop("kernel_calls").values()) for route, line in lines.items()}
    solves = {route: sum((Counter(by_n) for by_n in line.pop("solves").values()), Counter())
              for route, line in lines.items()}
    assert solves["solo"] == solves["crossover"] == solves["always"]
    assert lines["solo"] == lines["crossover"] == lines["always"]
    assert calls["solo"] > calls["crossover"] >= calls["always"]
