"""The benchmark's pinned partial sums, and the kernel work of its W2 solve.

perfbench/inputs/pinned.json holds the partial sums of the benchmark's two
problem files at alpha 0.5, hbar -1, at every order the benchmark runs.
The benchmark checks its reports against them to 1e-9; here a kernel
change that moves any of them by more than 1e-12 fails under pytest.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hatmfp.engine import HatmConfig, partial_sum, run
from hatmfp.fokker_planck import load_problem

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "perfbench" / "inputs"
PINNED = json.loads((INPUTS / "pinned.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(PINNED))
def test_partial_sum_matches_benchmark_pin(key):
    name, order = key.split("/")
    iterates = run(load_problem(INPUTS / name), HatmConfig(alpha=0.5, hbar=-1.0, order=int(order)))
    total = partial_sum(iterates, int(order))
    for x, t, want in PINNED[key]:
        assert total.evaluate(x=x, t=t, alpha=0.5) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_w2_solve_interns_one_tree_per_output_term():
    # collect and differentiate work on monomial tables; only the terms
    # that leave a step are built as trees, so few nodes are interned
    code = (
        "import sys\n"
        "from hatmfp import expr\n"
        "from hatmfp.engine import HatmConfig, run\n"
        "from hatmfp.fokker_planck import load_problem\n"
        "run(load_problem(sys.argv[1]), HatmConfig(alpha=0.5, hbar=-1.0, order=9))\n"
        "print(len(expr._INTERN))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(INPUTS / "w2.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 550
