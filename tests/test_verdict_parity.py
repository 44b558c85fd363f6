"""Smoke tests of tools/verdict_parity.py: a tree against itself changes
nothing, and a flipped verdict is reported."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "verdict_parity.py"
CASES = ["check/n=3/straddle/v=0.5", "sweep/n=3/above", "random/n=2/below"]


def load_tool():
    spec = importlib.util.spec_from_file_location("verdict_parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(*args) -> list[str]:
    argv = [sys.executable, str(TOOL), *args]
    for case in CASES:
        argv += ["--case", case]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300,
                          check=True)
    return done.stdout.splitlines()


def test_a_subset_against_its_own_tree_reports_no_change():
    src = str(ROOT / "src")
    (line,) = run_tool(src, src)
    assert line.startswith("summary: 3 cases, 3 with the same bytes, 0 changed; 0 values moved")
    assert line.endswith("0 out of bound, 0 verdict moves, 0 exit codes and 0 stderr texts "
                         "changed, 0 other fields changed")


def test_a_flipped_holds_is_a_verdict_move():
    tool = load_tool()
    _, record, *_ = (json.loads(line) for line in run_tool("--dump"))  # after the tree line
    assert record["case"] == CASES[0] and record["code"] == 0 and record["n"] == 3
    report = json.loads(record["stdout"])
    row = next(row for row in report["bounds"] if row["verdict"] is not None)
    row["verdict"]["holds"] = not row["verdict"]["holds"]
    doctored = {**record, "stdout": json.dumps(report, indent=2) + "\n"}
    same = tool.compare(record, record)
    assert same.moves == same.verdicts == same.others == []
    diff = tool.compare(record, doctored)
    name = row["statement"]["name"]
    assert diff.verdicts == [f"bounds[{name}].verdict.holds"]
    assert (diff.moves, diff.others, diff.exit, diff.stderr) == ([], [], None, None)
    assert tool.describe(CASES[0], diff) == \
        f"{CASES[0]}: 0 values moved; 1 verdicts moved, first bounds[{name}].verdict.holds"
    assert "1 verdict moves" in tool.summary([(CASES[0], False, diff)])
