"""Tests of the benchmark itself: python3 -m pytest perfbench

They run the workloads at tiny orders and set no timing bounds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import refcheck

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_smoke_mode_checks_every_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, env=ENV,
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"correct": True, "attempted": result["attempted"], "failed": 0,
                      "metrics": {}}
    assert result["attempted"] > 0


def test_solve_check_rejects_a_perturbed_coefficient():
    proc = subprocess.run(
        [sys.executable, "-m", "hatmfp", "solve", "--problem", "perfbench/inputs/w1.json",
         "--alpha", "0.5", "--order", "1"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60, check=True,
    )
    pinned = json.loads((ROOT / "perfbench/inputs/pinned.json").read_text())["w1.json/1"]
    assert refcheck.check_solve(proc.stdout, 0.5, 1, pinned)[1] == []
    report = json.loads(proc.stdout)
    report["partial_sum"][0]["coef_tokens"][0]["factor"] *= 1 + 1e-6
    assert refcheck.check_solve(json.dumps(report), 0.5, 1, pinned)[1]


def test_closed_form_of_preset_45():
    # E_{1/2}(z) = sum z^k / Gamma(1 + k/2); at z = sqrt(t) it is e^t erfc(-sqrt t).
    x, t = 1.3, 0.25
    series = sum(t ** (k / 2) / refcheck.math.gamma(1 + k / 2) for k in range(60))
    assert abs(refcheck.closed_form_45(x, t) - x * x * series) < 1e-12
