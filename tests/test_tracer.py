"""perfbench/traced.py wraps functions of src/hatmfp by name, so renaming or
deleting one of them breaks the traced benchmark; run it at tiny sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--preset", "4.5", "--alpha", "0.5", "--order", "2"),
        ("hcurve", "--preset", "4.5", "--alpha", "0.5", "--order", "2",
         "--probe", "1,0.3", "--h-count", "3"),
        ("eval", "--preset", "4.5", "--alpha", "0.5", "--order", "2",
         "--x-count", "2", "--t-count", "2", "--format", "csv"),
    ],
    ids=["solve", "hcurve", "eval-csv"],
)
def test_traced_cli_runs(tmp_path, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(out), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert trace["exit_code"] == 0
    assert trace["stats"]
    assert trace["stats"]["engine.apply_operator"][0] > 0
    # counts() sizes every term's tree, built from its table by FracTerm.spatial
    assert trace["counts"]["max_tree_size"] >= 1
    assert trace["counts"]["terms"]
    # every coefficient is one gamma monomial
    assert trace["counts"]["coef_monomials"] == sum(trace["counts"]["terms"])
    if args[0] == "eval":
        # deformation_step's sum (FracSeries.add), the values of the iterates
        # and the CSV writer
        for name in ("series.add", "series.evaluate", "cli.csv_text"):
            assert trace["stats"][name][0] > 0, name
