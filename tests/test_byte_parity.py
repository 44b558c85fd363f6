"""Smoke test of tools/byte_parity.py: a small subset is deterministic and well formed."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ["check/n=3/straddle/v=0.5", "edge/dragomir-not-checkable/v=0.5"]


def run_subset() -> list[str]:
    argv = [sys.executable, str(ROOT / "tools" / "byte_parity.py")]
    for case in CASES:
        argv += ["--case", case]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300,
                          check=True)
    return done.stdout.splitlines()


def test_a_two_case_subset_is_deterministic_and_well_formed():
    first = run_subset()
    assert run_subset() == first
    digests, names = zip(*(line.split("  ", 1) for line in first))
    assert list(names) == [*CASES, "total"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests)
    assert digests[0] != digests[1]
    total = hashlib.sha256("".join(line + "\n" for line in first[:-1]).encode()).hexdigest()
    assert digests[-1] == total
