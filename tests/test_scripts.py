"""Each script under scripts/ runs end to end at tiny orders."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "name, args",
    [
        pytest.param("convergence_study.py", ("--grid-points", "1"),
                     id="convergence_study.py-args0"),
        pytest.param("convergence_study.py", ("--presets", "4.1", "--orders", "1", "-1"),
                     id="convergence_study.py-args1"),
        pytest.param("iterate_tables.py", ("--order", "-1"), id="iterate_tables.py-args2"),
        pytest.param("convergence_study.py", ("--presets", "4.1", "--alphas", "0"),
                     id="convergence_study.py-args4"),
        pytest.param("iterate_tables.py", ("--hbar", "0"), id="iterate_tables.py-args5"),
        pytest.param("iterate_tables.py", ("--preset", "4.1", "--hbar", "nan", "--order", "1"),
                     id="iterate_tables.py-args8"),
        pytest.param("convergence_study.py",
                     ("--presets", "4.1", "--hbar", "inf", "--orders", "1"),
                     id="convergence_study.py-args9"),
    ],
)
def test_scripts_reject_bad_numeric_flags(name, args):
    proc = launch(name, *args)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_scripts_import_no_private_names():
    # a script runs on the package's public names only
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hatmfp"):
                names = node.module.split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names if alias.name.startswith("hatmfp")
                         for part in alias.name.split(".")]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not n.endswith("__")]
            assert not private, (path.name, ast.unparse(node))
