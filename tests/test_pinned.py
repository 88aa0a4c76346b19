"""The benchmark's pinned partial sums, the kernel work of its W2 solve, a
pinned sum of MIXED, and reports that do not depend on string hashing.

perfbench/inputs/pinned.json holds the partial sums of the benchmark's two
problem files at alpha 0.5, hbar -1, at every order the benchmark runs.
The benchmark checks its reports against them to 1e-9; here a kernel
change that moves any of them by more than 1e-12 fails under pytest.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import MIXED, MIXED_OBJ
from hatmfp.engine import HatmConfig, partial_sum, run
from hatmfp.fokker_planck import load_problem

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "perfbench" / "inputs"
PINNED = json.loads((INPUTS / "pinned.json").read_text(encoding="utf-8"))


def _env(**extra) -> dict:
    """This environment, with the package's source on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("key", sorted(PINNED))
def test_partial_sum_matches_benchmark_pin(key):
    name, order = key.split("/")
    iterates = run(load_problem(INPUTS / name), HatmConfig(alpha=0.5, order=int(order)))
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
        "run(load_problem(sys.argv[1]), HatmConfig(alpha=0.5, order=9))\n"
        "print(len(expr._INTERN))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(INPUTS / "w2.json")],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 550


# Partial sum of MIXED at alpha 0.5, hbar -1, M = 3, recorded before its
# collect summed tables on one (time, tokens) key: (x, t, value).
MIXED_PINS = [
    (0.5, 0.05, 67.198317795447),
    (0.8, 0.15, 1184.6353160598871),
    (1.1, 0.3, 11819.576212163414),
    (1.7, 0.3, 140319.9990691847),
]


def test_mixed_partial_sum_matches_its_pin():
    total = partial_sum(run(MIXED, HatmConfig(alpha=0.5, order=3)), 3)
    for x, t, want in MIXED_PINS:
        assert total.evaluate(x=x, t=t, alpha=0.5) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["w1.json", "w2.json", "mixed"])
def test_solve_report_does_not_depend_on_the_hash_seed(name, tmp_path):
    # the benchmark fixes PYTHONHASHSEED; a sum whose order followed string
    # hashes would change the report under another seed
    path = INPUTS / name
    if name == "mixed":
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(MIXED_OBJ), encoding="utf-8")
    args = [sys.executable, "-m", "hatmfp", "solve", "--problem", str(path),
            "--alpha", "0.5", "--order", "4"]
    reports = []
    for seed in ("0", "1"):
        proc = subprocess.run(args, capture_output=True, text=True,
                              env=_env(PYTHONHASHSEED=seed), timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(re.sub(r'"wall_time_s": [^,}\n]+', '"wall_time_s": 0', proc.stdout))
    assert reports[0] == reports[1]
