"""Each script under scripts/ runs end to end at tiny orders."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import invoke_cli
from hatmfp.engine import HatmConfig, h_curve
from hatmfp.fokker_planck import preset

ROOT = Path(__file__).resolve().parents[1]


def launch(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name, *args):
    proc = launch(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "name, args",
    [
        ("convergence_study.py", ("--presets", "4.1", "4.5", "--alphas", "0.5",
                                  "--orders", "1", "2", "--grid-points", "2")),
        ("iterate_tables.py", ("--preset", "4.3", "--hbar", "-0.7", "--order", "2")),
    ],
)
def test_script_prints_report(name, args):
    assert run_script(name, *args).strip()


def test_hcurve_sweep_matches_h_curve(tmp_path):
    out = tmp_path / "sweep.csv"
    probe = (1.0, 0.0, 0.3)
    run_script(
        "hcurve_sweep.py", "--preset", "4.5", "--alpha", "0.5", "--orders", "2", "3",
        "--probe", *probe, "--h-min", "-1.5", "--h-max", "-0.5", "--h-count", "3",
        "--out", out,
    )
    header, *rows = csv.reader(out.read_text(encoding="utf-8").splitlines())
    assert header == ["hbar", "order_2", "order_3"]
    assert [float(r[0]) for r in rows] == [-1.5, -1.0, -0.5]
    (at_minus_one,) = [r for r in rows if float(r[0]) == -1.0]
    for order, cell in zip((2, 3), at_minus_one[1:]):
        config = HatmConfig(alpha=0.5, hbar=-1.0, order=order)
        ((_, want),) = h_curve(preset("4.5"), config, probe, [-1.0])
        assert float(cell) == want


def test_hcurve_sweep_drops_rounded_zero():
    # -0.1 + (0.3 / 3) is 1.39e-17, a rounded 0, whose row would be u_0 alone
    out = run_script(
        "hcurve_sweep.py", "--preset", "4.1", "--orders", "1",
        "--h-min", "-0.1", "--h-max", "0.2", "--h-count", "4",
    )
    header, *rows = csv.reader(out.splitlines())
    assert [float(r[0]) for r in rows] == pytest.approx([-0.1, 0.1, 0.2])


def test_hcurve_sweep_grid_is_the_cli_grid():
    # hcurve's default sweep; two formulas for its points would differ in
    # the last bit at -2, -0.2 and 19 of them
    sweep = run_script(
        "hcurve_sweep.py", "--preset", "4.5", "--orders", "2",
        "--h-min", "-2", "--h-max", "-0.2", "--h-count", "19",
    )
    cli = invoke_cli(
        "hcurve", "--preset", "4.5", "--alpha", "0.75", "--order", "2",
        "--probe", "1,0.3", "--format", "csv",
    )
    assert cli.exit_code == 0, cli.output
    script_rows = list(csv.reader(sweep.splitlines()))[1:]
    cli_rows = list(csv.reader(cli.output.splitlines()))[1:]
    assert len(script_rows) == 19
    assert script_rows == cli_rows


@pytest.mark.parametrize(
    "name, args",
    [
        ("convergence_study.py", ("--grid-points", "1")),
        ("convergence_study.py", ("--presets", "4.1", "--orders", "1", "-1")),
        ("iterate_tables.py", ("--order", "-1")),
        ("hcurve_sweep.py", ("--preset", "4.1", "--h-count", "0")),
        ("convergence_study.py", ("--presets", "4.1", "--alphas", "0")),
        ("iterate_tables.py", ("--hbar", "0")),
        ("hcurve_sweep.py", ("--preset", "4.1", "--alpha", "1.5")),
        ("hcurve_sweep.py", ("--problem", "no-such-problem.json")),
        ("iterate_tables.py", ("--preset", "4.1", "--hbar", "nan", "--order", "1")),
        ("convergence_study.py", ("--presets", "4.1", "--hbar", "inf", "--orders", "1")),
        ("hcurve_sweep.py", ("--preset", "4.1", "--orders", "1",
                             "--probe", "nan", "0", "0.3", "--h-count", "2")),
        ("hcurve_sweep.py", ("--preset", "4.1", "--orders", "1", "--h-min", "nan")),
    ],
)
def test_scripts_reject_bad_numeric_flags(name, args):
    proc = launch(name, *args)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
