import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import hatmfp.cli as cli
import hatmfp.engine as engine
from helpers import invoke_cli as invoke
from hatmfp.engine import HatmConfig, h_curve, run
from hatmfp.expr import MAX_NESTING
from hatmfp.fokker_planck import _PRESETS, PRESET_IDS, preset
from hatmfp.series import FracSeries

ROOT = Path(__file__).resolve().parents[1]


def rows_of(csv_text):
    return list(csv.reader(io.StringIO(csv_text)))


COTH_PROBLEM = {
    "form": "backward",
    "dim": 1,
    "A": ["1"],
    "B": [["0"]],
    "f": "(coth x)",
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(COTH_PROBLEM), encoding="utf-8")
    return str(path)


# W1: backward, A = -x, B = x^2 e^t, f = cosh x
W1_PROBLEM = {
    "form": "backward",
    "dim": 1,
    "A": ["(mul -1 x)"],
    "B": [[{"expr": "(pow x 2)", "exp_rate": 1}]],
    "f": "(cosh x)",
}


# ----------------------------------------------------------------------- solve


def test_solve_json_report():
    result = invoke("solve", "--preset", "4.1", "--alpha", "0.5", "--order", "2")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["problem"] == "preset:4.1"
    assert report["config"] == {
        "alpha": 0.5,
        "hbar": -1.0,
        "order": 2,
        "taylor_terms": 12,
    }
    assert len(report["iterates"]) == 3
    term = report["iterates"][1][0]
    assert set(term) == {"coef_tokens", "spatial", "p", "q", "c"}
    # at hbar = -1 the unit-drift iterates beyond the first vanish
    assert report["iterates"][2] == []
    assert report["taylor_events"] == report["bind_events"] == []
    total = FracSeries.from_obj(report["partial_sum"])
    x, t, alpha = 1.4, 0.5, 0.5
    want = x + t**alpha / math.gamma(1 + alpha)
    assert total.evaluate(x, t, alpha) == pytest.approx(want, rel=1e-12)


def test_solve_csv_table():
    args = ("solve", "--preset", "4.1", "--alpha", "0.5", "--hbar", "-0.7",
            "--order", "2", "--format", "csv")
    result = invoke(*args)
    assert result.exit_code == 0
    table = rows_of(result.output)
    assert table[0] == ["iterate", "term", "p", "q", "c", "coef", "spatial"]
    # the operator sends constants to zero, so each iterate keeps one term
    assert [r[0] for r in table[1:]] == ["0", "1", "2"]
    m1, m2 = table[2], table[3]
    assert m1[3] == "1" and m1[6] == "1"
    assert float(m1[5]) == pytest.approx(0.7 / math.gamma(1.5), rel=1e-12)
    assert float(m2[5]) == pytest.approx(0.7 * 0.3 / math.gamma(1.5), rel=1e-12)
    # byte-for-byte reproducible
    assert invoke(*args).output == result.output


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_preset_runs_the_same_as_its_definition_file(tmp_path, pid):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_PRESETS[pid]), encoding="utf-8")
    args = ("--alpha", "0.5", "--order", 5)
    by_id = invoke("solve", "--preset", pid, *args)
    by_file = invoke("solve", "--problem", path, *args)
    assert by_id.exit_code == by_file.exit_code == 0
    by_id, by_file = (json.loads(r.stdout) for r in (by_id, by_file))
    assert (by_id.pop("problem"), by_file.pop("problem")) == (f"preset:{pid}", "file:problem.json")
    assert dict(by_file, wall_time_s=0) == dict(by_id, wall_time_s=0)


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--preset", "4.3", "--order", 1),
        ("eval", "--preset", "4.3", "--order", 2, "--format", "csv"),
        ("residual", "--preset", "4.5", "--order", 2, "--point", "1,0.3"),
        ("hcurve", "--preset", "4.3", "--order", 2, "--probe", "1,0.4", "--h-count", 3,
         "--format", "csv"),
        ("compare", "--preset", "4.1", "--order", 2, "--t-count", 2),
    ],
    ids=lambda args: args[0],
)
def test_out_writes_file(tmp_path, args):
    out = tmp_path / "out.txt"
    result = invoke(*args, "--out", out)
    assert result.exit_code == 0
    assert result.output == ""
    written, printed = out.read_text(encoding="utf-8"), invoke(*args).output
    if args[0] == "solve":
        # the report carries the wall time of its own run
        written, printed = (dict(json.loads(text), wall_time_s=0) for text in (written, printed))
        assert written["problem"] == "preset:4.3"
    assert written == printed


# ------------------------------------------------------------------------ eval


def test_eval_grid_against_partial_sum():
    solve_result = invoke("solve", "--preset", "4.3", "--alpha", "0.75", "--order", "4")
    total = FracSeries.from_obj(json.loads(solve_result.output)["partial_sum"])
    result = invoke(
        "eval", "--preset", "4.3", "--alpha", "0.75", "--order", "4",
        "--x-min", 1.0, "--x-max", 2.0, "--x-count", 2,
        "--t-min", 0.5, "--t-max", 0.5, "--t-count", 1,
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    for row in rows:
        want = total.evaluate(float(row["x"]), float(row["t"]), 0.75)
        assert float(row["u"]) == want  # same run, same floats
        assert set(row) == {"x", "t", "u", "status"}


def test_eval_columns_are_the_same_for_every_alpha():
    # the reference solution is compare's job; eval writes u and status only
    args = ("--preset", "4.1", "--order", "3", "--format", "csv", "--x-count", 2, "--t-count", 3)
    for alpha in ("1", "0.5"):
        result = invoke("eval", *args, "--alpha", alpha)
        assert result.exit_code == 0, result.output
        table = rows_of(result.output)
        assert table[0] == ["x", "t", "u", "status"]
        assert len(table) == 1 + 2 * 3
        assert {r[3] for r in table[1:]} == {"ok"}


def test_eval_two_dimensional_grid():
    result = invoke(
        "eval", "--preset", "4.4", "--alpha", "0.75", "--order", "2",
        "--format", "csv", "--x-count", 2, "--y-min", 0.5, "--y-max", 1.0,
        "--y-count", 2, "--t-count", 2,
    )
    assert result.exit_code == 0
    table = rows_of(result.output)
    assert table[0] == ["x", "y", "t", "u", "status"]
    assert len(table) == 1 + 2 * 2 * 2
    assert {r[1] for r in table[1:]} == {"0.5", "1.0"}


def test_eval_flags_singular_points(problem_file):
    result = invoke(
        "eval", "--problem", problem_file, "--alpha", "0.5", "--order", "2",
        "--x-min", 0.0, "--x-max", 1.0, "--x-count", 2,
        "--t-min", 0.0, "--t-max", 0.5, "--t-count", 2,
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert [r["status"] for r in rows] == ["singular", "singular", "ok", "ok"]
    assert all(r["u"] == "" for r in rows if r["status"] == "singular")
    assert all(float(r["u"]) != 0 for r in rows if r["status"] == "ok")


@pytest.mark.parametrize(
    "command", [("hcurve", "--probe", "0,0.3"), ("residual", "--point", "0,0.3")],
    ids=["hcurve", "residual"],
)
def test_a_pole_names_its_point(problem_file, command):
    # eval flags such a point singular; the commands of one point exit 3
    result = invoke(command[0], "--problem", problem_file, "--order", 2, *command[1:])
    assert result.exit_code == 3, result.exception
    assert result.stdout == ""
    assert result.stderr == "error: negative power of 0.0 at x=0.0, y=0.0\n"


def test_eval_domain_errors_exit_three():
    # sinh(800) overflows a float: an error that only evaluation finds
    result = invoke("eval", "--preset", "4.2", "--order", "2",
                    "--x-min", 800, "--x-max", 800, "--x-count", 1)
    assert result.exit_code == 3
    assert result.stderr == "error: spatial value overflows a float at x=800.0, y=0.0\n"


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--t-min", -1, "--t-max", 0, "--t-count", 2),
        ("eval", "--t-max", -0.5),
        ("compare", "--t-min", -1),
        ("residual", "--point", "1,-0.3"),
        ("hcurve", "--probe", "1,-0.3"),
    ],
    ids=["eval-t-min", "eval-t-max", "compare-t-min", "residual-point", "hcurve-probe"],
)
def test_a_negative_time_exits_two_before_any_run(monkeypatch, args):
    def no_run(*_):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", no_run)
    result = invoke(args[0], "--preset", "4.1", "--order", 2, *args[1:])
    assert result.exit_code == 2, result.exception
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "series are defined for t >= 0" in result.stderr


def test_eval_is_deterministic():
    args = ("eval", "--preset", "4.2", "--alpha", "0.5", "--order", "6",
            "--format", "csv")
    assert invoke(*args).output == invoke(*args).output


# -------------------------------------------------------------------- residual


def test_residual_points():
    result = invoke(
        "residual", "--preset", "4.1", "--alpha", "0.5", "--order", "0",
        "--point", "1,0.3", "--point", "2,0.8",
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    # truncating at the initial profile leaves |0 - N[x]| = 1
    assert [float(r["residual"]) for r in rows] == [1.0, 1.0]
    assert [float(r["t"]) for r in rows] == [0.3, 0.8]


def test_residual_csv_header():
    result = invoke(
        "residual", "--preset", "4.5", "--order", "4", "--format", "csv",
        "--point", "1,0.3",
    )
    assert result.exit_code == 0
    table = rows_of(result.output)
    assert table[0] == ["x", "t", "residual"]
    assert float(table[1][2]) < 1e-2


def test_residual_needs_full_point_in_two_d():
    result = invoke("residual", "--preset", "4.4", "--point", "1,0.3")
    assert result.exit_code == 2


def test_one_d_point_refuses_a_y():
    # x,y,t on a 1-d problem would silently drop y
    for command, *args in (("residual", "--point", "1,5,0.3"),
                           ("hcurve", "--order", "1", "--probe", "1,5,0.3")):
        result = invoke(command, "--preset", "4.1", *args)
        assert result.exit_code == 2
        assert "needs x,t for a 1-d problem" in result.stderr


# ---------------------------------------------------------------------- hcurve


def test_hcurve_sweep():
    result = invoke(
        "hcurve", "--preset", "4.3", "--alpha", "0.75", "--order", "3",
        "--probe", "1,0.4", "--h-min", -1.6, "--h-max", -0.4, "--h-count", 4,
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert [r["hbar"] for r in rows] == pytest.approx([-1.6, -1.2, -0.8, -0.4])
    assert all(isinstance(r["value"], float) for r in rows)


def test_hcurve_sweep_matches_h_curve():
    # one run at the largest order; each column is one of its partial sums
    probe = (1.0, 0.0, 0.3)
    result = invoke(
        "hcurve", "--preset", "4.5", "--alpha", "0.5", "--order", "2", "3",
        "--probe", "1.0,0.3", "--h-min", "-1.5", "--h-max", "-0.5", "--h-count", "3",
        "--format", "csv",
    )
    assert result.exit_code == 0, result.output
    header, *rows = rows_of(result.stdout)
    assert header == ["hbar", "order_2", "order_3"]
    config = HatmConfig(alpha=0.5, order=3)
    want = h_curve(run(preset("4.5"), config), 0.5, probe, [-1.5, -1.0, -0.5])
    assert len(rows) == len(want) == 3
    for row, (h, sums) in zip(rows, want):
        assert [float(cell) for cell in row] == [h, sums[2], sums[3]]


def test_hcurve_sweep_ends_at_h_max():
    # lo + 9 * (hi - lo) / 9 is -0.20000000000000018 for lo = -2, hi = -0.2
    result = invoke(
        "hcurve", "--preset", "4.3", "--order", "2", "--probe", "1,0.2",
        "--h-max", -0.2, "--h-count", 10, "--format", "csv",
    )
    assert result.exit_code == 0
    hbars = [row[0] for row in rows_of(result.stdout)[1:]]
    assert hbars[0] == "-2.0" and hbars[-1] == "-0.2"
    assert len(hbars) == 10


def test_hcurve_single_point_matches_eval():
    h = invoke(
        "hcurve", "--preset", "4.3", "--alpha", "0.75", "--order", "4",
        "--probe", "1,0.5", "--h-min", -1.0, "--h-max", -1.0, "--h-count", 1,
    )
    e = invoke(
        "eval", "--preset", "4.3", "--alpha", "0.75", "--order", "4",
        "--x-min", 1.0, "--x-max", 1.0, "--x-count", 1,
        "--t-min", 0.5, "--t-max", 0.5, "--t-count", 1,
    )
    value = json.loads(h.output)["rows"][0]["value"]
    assert value == float(json.loads(e.output)["rows"][0]["u"])


def test_hcurve_takes_no_hbar():
    # the sweep recombines the hbar = -1 iterates; no single hbar applies
    result = invoke("hcurve", "--preset", "4.1", "--probe", "1,0.3", "--hbar", -0.5)
    assert result.exit_code == 2
    assert "unrecognized arguments: --hbar" in result.stderr


def test_hcurve_rejects_sweep_through_zero():
    result = invoke(
        "hcurve", "--preset", "4.1", "--probe", "1,0.3",
        "--h-min", -1.0, "--h-max", 1.0, "--h-count", 3,
    )
    assert result.exit_code == 2


def test_hcurve_rejects_sweep_through_rounded_zero():
    # -0.3 + 3 * 0.7 / 7 is -5.55e-17: the grid point that stands for 0
    result = invoke(
        "hcurve", "--preset", "4.1", "--probe", "1,0.3",
        "--h-min", -0.3, "--h-max", 0.4, "--h-count", 8,
    )
    assert result.exit_code == 2
    assert "hbar sweep must not include 0" in result.stderr


# --------------------------------------------------------------------- compare


def test_compare_reports_worst_error():
    result = invoke("compare", "--preset", "4.1", "--order", "2", "--t-count", 3)
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["max_abs_err"] < 1e-12
    row = report["rows"][0]
    assert set(row) == {"x", "t", "u", "u_ref", "abs_err"}
    errs = [float(r["abs_err"]) for r in report["rows"]]
    assert report["max_abs_err"] == max(errs)


def test_compare_csv_trailer():
    result = invoke(
        "compare", "--preset", "4.2", "--alpha", "0.5", "--order", "20",
        "--format", "csv", "--x-count", 2, "--t-count", 2,
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "x,t,u,u_ref,abs_err"
    assert lines[-1].startswith("# max_abs_err=")
    assert float(lines[-1].split("=", 1)[1]) < 1e-6


def test_compare_reference_at_large_t():
    # the reference of 4.2 at t = 50 is sinh(0.5) E_{1/2}(sqrt 50), with
    # E_{1/2}(sqrt 50) = 1.037e22 summed past gamma's float range
    result = invoke("compare", "--preset", "4.2", "--alpha", "0.5", "--order", "2",
                    "--t-min", "50", "--t-max", "50", "--t-count", "1", "--x-count", "1")
    assert result.exit_code == 0, result.stderr
    (row,) = json.loads(result.stdout)["rows"]
    with mpmath.workdps(40):
        z = mpmath.sqrt(50)
        want = mpmath.sinh(0.5) * mpmath.exp(z * z) * mpmath.erfc(-z)  # E_{1/2}(z)
    assert float(row["u_ref"]) == pytest.approx(float(want), rel=1e-12)


def test_compare_rejects_problem_files(problem_file):
    result = invoke("compare", "--problem", problem_file, "--order", "2")
    assert result.exit_code == 3
    assert "no reference solution" in result.stderr


ORDERS = ("2", "4", "8", "16")


@pytest.mark.parametrize(
    "source",
    [("--preset", "4.2", "--alpha", "0.5"),
     ("--preset", "4.4", "--alpha", "0.75", "--y-min", "0.5", "--y-count", "2")],
    ids=["4.2", "4.4"],
)
def test_compare_orders_match_single_order_runs(source):
    # err_order_<n> and max_abs_err_order_<n> are the abs_err and max_abs_err
    # of `compare --order n`, string for string
    args = ("compare", *source, "--x-count", "3", "--t-count", "3")
    coords = 3 if "4.4" in source else 2
    header, *rows = rows_of(invoke(*args, "--order", *ORDERS, "--format", "csv").stdout)
    rows, trailer = rows[: -len(ORDERS)], rows[-len(ORDERS):]
    assert header[coords:] == ["u_ref"] + [f"err_order_{n}" for n in ORDERS]
    report = json.loads(invoke(*args, "--order", *ORDERS).stdout)
    assert list(report) == ["rows"] + [f"max_abs_err_order_{n}" for n in ORDERS]
    for i, n in enumerate(ORDERS):
        one_header, *one = rows_of(invoke(*args, "--order", n, "--format", "csv").stdout)
        assert one_header[coords:] == ["u", "u_ref", "abs_err"]
        assert [r[:coords] + r[coords + 1:] for r in one[:-1]] == [
            r[: coords + 1] + [r[coords + 1 + i]] for r in rows
        ]
        (worst,) = one[-1]  # "# max_abs_err=<repr>"
        assert trailer[i] == [worst.replace("max_abs_err=", f"max_abs_err_order_{n}=")]
        single = json.loads(invoke(*args, "--order", n).stdout)
        assert report[f"max_abs_err_order_{n}"] == single["max_abs_err"]
        assert [row[f"err_order_{n}"] for row in report["rows"]] == [
            row["abs_err"] for row in single["rows"]
        ]


@pytest.mark.parametrize(
    "args",
    [("compare", "--order", *ORDERS, "--hbar", -0.7, "--x-count", 2, "--t-count", 2),
     ("eval", "--order", ORDERS[-1], "--hbar", -0.7, "--x-count", 2, "--t-count", 2),
     ("hcurve", "--order", *ORDERS, "--probe", "1,0.3"),
     ("residual", "--order", ORDERS[-1], "--point", "1,0.3", "--hbar", -0.7),
     ("solve", "--order", ORDERS[-1], "--hbar", -0.7),
     ("solve", "--order", ORDERS[-1], "--hbar", -0.7, "--format", "csv")],
    ids=["compare", "eval", "hcurve", "residual", "solve", "solve-csv"],
)
def test_compare_runs_once_for_several_orders(monkeypatch, args):
    # one hbar-free run to the largest order; solve recombines its iterates
    # at --hbar, the others the values of its iterates (and of their
    # derivatives, for residual), at --hbar or at each hbar of the sweep
    calls = []

    def counted(problem, config, *rest):
        calls.append(config.order)
        return run(problem, config, *rest)

    monkeypatch.setattr(cli, "run", counted)
    monkeypatch.setattr(engine, "run", counted)  # run_report's run
    result = invoke(args[0], "--preset", "4.3", *args[1:])
    assert result.exit_code == 0, result.output
    assert calls == [16]


@pytest.mark.parametrize("source", ["W1", "4.3"])
def test_eval_compare_and_hcurve_print_the_same_value(tmp_path, source):
    # the three commands take S_n at a point from one path, so they agree
    # bit for bit at any hbar, also on W1, which does not collapse
    path = tmp_path / "w1.json"
    path.write_text(json.dumps(W1_PROBLEM), encoding="utf-8")
    problem = ("--problem", path) if source == "W1" else ("--preset", source)
    args = (*problem, "--alpha", 0.5, "--order", 3)
    grid = ("--x-count", 4, "--t-min", 0.1, "--t-count", 6, "--hbar", -0.7, "--format", "csv")
    header, *rows = rows_of(invoke("eval", *args, *grid).stdout)
    assert header == ["x", "t", "u", "status"] and len(rows) == 24
    assert {row[3] for row in rows} == {"ok"}
    if source != "W1":  # compare needs a preset's reference solution
        header, *compared = rows_of(invoke("compare", *args, *grid).stdout)
        assert header[:3] == ["x", "t", "u"]
        assert [row[:3] for row in compared[:-1]] == [row[:3] for row in rows]
    for x, t, u, _ in rows:
        swept = invoke("hcurve", *args, "--probe", f"{x},{t}", "--h-min", -0.7, "--h-max", -0.7,
                       "--h-count", 1, "--format", "csv")
        assert rows_of(swept.stdout) == [["hbar", "value"], ["-0.7", u]]


@pytest.mark.parametrize(
    "command, flag",
    [(("eval",), "--x-count"), (("eval",), "--y-count"), (("eval",), "--t-count"),
     (("hcurve", "--probe", "1,0.3"), "--h-count")],
    ids=["x", "y", "t", "h"],
)
def test_grid_counts_are_refused_before_the_run(monkeypatch, command, flag):
    # a 1-d problem has no y axis, yet a zero y count is still refused
    def refused(*_):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "run", refused)
    monkeypatch.setattr(cli, "h_curve", refused)
    result = invoke(*command, "--preset", "4.1", flag, 0)
    assert result.exit_code == 2, result.exception
    assert isinstance(result.exception, SystemExit)
    assert f"argument {flag}: counts must be >= 1, got 0" in result.stderr


@pytest.mark.parametrize(
    "command, axis, span",
    [(("eval",), "x", (-1e308, 1e308, 3)), (("compare",), "x", (-1e308, 1e308, 3)),
     (("eval",), "t", (0, 1.7e308, 4)), (("hcurve", "--probe", "1,0.3"), "h", (-1e308, 1e308, 3))],
    ids=["eval-x", "compare-x", "eval-t", "hcurve-h"],
)
def test_grid_spans_past_the_float_range_are_refused_before_the_run(monkeypatch, command, axis,
                                                                     span):
    # eval-t: the span is finite, but 2 * span / 3 overflows
    def refused(*_):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "run", refused)
    monkeypatch.setattr(cli, "h_curve", refused)
    lo, hi, n = span
    result = invoke(*command, "--preset", "4.1", "--order", 1, f"--{axis}-min", lo,
                    f"--{axis}-max", hi, f"--{axis}-count", n)
    assert result.exit_code == 2, result.exception
    assert isinstance(result.exception, SystemExit)
    assert f"--{axis}-min {float(lo)!r} to --{axis}-max {hi!r} spans past the float range" \
        in result.stderr
    # a one-point grid reads only the minimum, and goes on to the run
    one = invoke(*command, "--preset", "4.1", "--order", 1, f"--{axis}-min", lo,
                 f"--{axis}-max", hi, f"--{axis}-count", 1)
    assert str(one.exception) == "the solver ran"


@pytest.mark.parametrize(
    "args",
    [("--order", 1, -1), ("--order", 1, "--alpha", 0), ("--order", 1, "--hbar", "inf"),
     ("--order", 1, "--x-count", 0)],
    ids=["order", "alpha", "hbar", "x-count"],
)
def test_compare_rejects_bad_numeric_flags(args):
    result = invoke("compare", "--preset", "4.1", *args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "error:" in result.stderr and "Traceback" not in result.stderr
    if args[:3] == ("--order", 1, -1):
        assert "order must be >= 0, got -1" in result.stderr


@pytest.mark.parametrize(
    "args",
    [("hcurve", "--probe", "1,0.3", "--h-count", 1), ("compare", "--x-count", 1)],
    ids=lambda args: args[0],
)
def test_repeated_order_exits_two(args):
    # one column per order: a repeated one would be a repeated JSON key
    result = invoke(args[0], "--preset", "4.5", "--order", 2, 3, 2, *args[1:])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "each order may be given once, got 2 3 2" in result.stderr


# ---------------------------------------------------------------- table forms


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--preset", "4.1", "--order", 3, "--x-count", 2, "--t-count", 2),
        ("eval", "--problem", "PROBLEM", "--alpha", 0.5, "--order", 2,
         "--x-min", 0.0, "--x-count", 2, "--t-count", 2),
        ("residual", "--preset", "4.4", "--alpha", 0.75, "--order", 2,
         "--point", "1,0.5,0.3", "--point", "1.2,0.8,0.1"),
        ("hcurve", "--preset", "4.3", "--alpha", 0.75, "--order", 3, "--probe", "1,0.4",
         "--h-count", 4),
        ("compare", "--preset", "4.2", "--alpha", 0.5, "--order", 6, "--x-count", 2,
         "--t-count", 2),
        ("compare", "--preset", "4.4", "--alpha", 0.75, "--order", 3, "--x-count", 2,
         "--y-min", 0.5, "--y-count", 2, "--t-count", 2),
        ("compare", "--preset", "4.3", "--alpha", 0.5, "--order", 3, 1, "--x-count", 2,
         "--t-count", 2),
    ],
    ids=["eval", "eval-singular", "residual-2d", "hcurve", "compare", "compare-2d",
         "compare-orders"],
)
def test_csv_and_json_tables_agree(problem_file, args):
    args = [problem_file if a == "PROBLEM" else a for a in args]
    header, *cells = rows_of(invoke(*args, "--format", "csv").output)
    report = json.loads(invoke(*args).output)
    if args[0] == "compare":  # one trailer line per worst error, in key order
        trailer = [[f"# {key}={report.pop(key)!r}"] for key in list(report)[1:]]
        assert trailer and cells[-len(trailer):] == trailer
        del cells[-len(trailer):]
    assert list(report) == ["rows"]
    rows = report["rows"]
    assert rows and all(list(row) == header for row in rows)
    assert cells == [
        [cell if isinstance(cell, str) else repr(cell) for cell in row.values()]
        for row in rows
    ]
    assert ("y" in header) == (args[2] == "4.4")


# ------------------------------------------------------------------ exit codes


def test_config_errors_exit_two():
    assert invoke("solve", "--preset", "4.1", "--hbar", "0").exit_code == 2
    assert invoke("solve", "--preset", "4.1", "--alpha", "1.5").exit_code == 2
    assert invoke("hcurve", "--preset", "4.1", "--probe", "1,0.3", "--alpha", "1.5").exit_code == 2
    assert invoke("solve", "--preset", "4.1", "--order", "-2").exit_code == 2
    # hcurve takes several orders, each >= 0; every other command takes one
    several = ("hcurve", "--preset", "4.1", "--probe", "1,0.3", "--order", "3", "-1")
    assert invoke(*several).exit_code == 2
    assert invoke("solve", "--preset", "4.1", "--order", "3", "4").exit_code == 2
    assert invoke("solve", "--preset", "9.9").exit_code == 2


def test_problem_source_is_exclusive(problem_file):
    assert invoke("solve").exit_code == 2
    assert invoke("solve", "--preset", "4.1", "--problem", problem_file).exit_code == 2


def test_unreadable_problem_files_exit_two(tmp_path):
    missing = tmp_path / "nope.json"
    assert invoke("solve", "--problem", str(missing)).exit_code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert invoke("solve", "--problem", str(broken)).exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"form": "forward"}), encoding="utf-8")
    assert invoke("solve", "--problem", str(bad)).exit_code == 2


def _nested_sinh(depth: int) -> str:
    return "(sinh " * depth + "x" + ")" * depth


def test_expression_at_the_nesting_limit_solves(tmp_path):
    path = tmp_path / "problem.json"
    f = _nested_sinh(MAX_NESTING)
    path.write_text(json.dumps({**COTH_PROBLEM, "A": [1], "f": f}), encoding="utf-8")
    result = invoke("solve", "--problem", str(path), "--order", "1", "--format", "csv")
    assert result.exit_code == 0, result.exception
    assert rows_of(result.stdout)[1][6] == f


@pytest.mark.parametrize(
    "change, code",
    [({"B": [[_nested_sinh(20)]]}, 2), ({"B": [[1]], "f": _nested_sinh(20)}, 3)],
    ids=["operator", "run"],
)
def test_derivative_past_the_expansion_cap_is_refused(tmp_path, change, code):
    # the second derivative of a 20-deep sinh nest has a monomial with 19
    # factors cosh(u)**2, which would rewrite into 2**19 monomials: refused
    # when the operator is built (exit 2) or when a run differentiates (exit 3)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**COTH_PROBLEM, "form": "forward", "A": [0], **change}),
                    encoding="utf-8")
    result = invoke("solve", "--problem", str(path), "--order", "1")
    assert result.exit_code == code, result.exception
    assert result.stdout == ""
    assert "EXPAND_CAP" in result.stderr
    if code == 2:  # a well-formed file refused for what it means
        assert "invalid problem definition" in result.stderr


@pytest.mark.parametrize(
    "change",
    [
        {"f": "(pow x"},
        {"f": "("},
        {"f": "1/0"},
        {"g": [{"expr": "x", "p": "1/0"}]},
        {"f": 5},
        {"A": [{"expr": 5}]},
        {"g": ["x"]},
        {"A": ["(recip 0)"]},
        {"source": [{"expr": "x"}]},
        {"A": [{"expr": "1", "exp_rte": 1}]},
        {"g": [{"expr": "x", "cof": 2.0}]},
        {"f": _nested_sinh(MAX_NESTING + 1)},
    ],
)
def test_malformed_problem_files_exit_two(tmp_path, change):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**COTH_PROBLEM, **change}), encoding="utf-8")
    result = invoke("solve", "--problem", str(path), "--order", "1")
    assert result.exit_code == 2, result.exception
    # a syntax error ("(pow x", "1/0") reads as any other refusal of a file
    (line,) = [line for line in result.stderr.splitlines() if "error:" in line]
    assert "error: invalid problem definition: " in line


def test_source_in_y_of_a_one_dimensional_problem_exits_two(tmp_path):
    # the one-dimensional check reads the source as it reads f and the operator
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**COTH_PROBLEM, "g": [{"expr": "(mul x y)"}]}), encoding="utf-8")
    result = invoke("solve", "--problem", str(path), "--order", "1")
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert ("error: invalid problem definition: variable y in a one-dimensional problem"
            in result.stderr)


@pytest.mark.parametrize(
    "content",
    [
        {"A": [{"expr": "1", "exp_rate": 1.5}]},
        {"dim": 1.7},
        {"A": [{"expr": "1", "u_degree": 0.9}]},
        {"g": [{"expr": "x", "q": 0.5}]},
        {"g": [{"expr": "x", "c": 0.5}]},
        {"g": [{"expr": "x", "coef": math.nan}]},
        {"g": [{"expr": "x", "coef": "1e999"}]},
        {"f": "(mul 1e999 x)"},
        {"f": "(mul 1e200 1e200 x)"},
        b"\xff\xfe not utf-8",
        {"g": [{"expr": "x", "coef": 1e308}, {"expr": "x", "coef": 1e308}]},
        {"g": [{"expr": "(mul 1e10 x)", "coef": 1e300}]},
    ],
    ids=["exp_rate", "dim", "u_degree", "q", "c", "nan-coef", "huge-coef", "huge-const",
         "huge-fold", "not-utf-8", "overflowing-source-sum", "overflowing-source-scale"],
)
def test_bad_numbers_and_bytes_in_problem_files_exit_two(tmp_path, content):
    path = tmp_path / "problem.json"
    if isinstance(content, dict):
        content = json.dumps({**COTH_PROBLEM, **content}).encode()
    path.write_bytes(content)
    result = invoke("solve", "--problem", str(path), "--order", "1")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr and "Traceback" not in result.stderr
    if not content.startswith(b"\xff"):  # bytes that are not UTF-8 are not JSON
        assert "invalid problem definition: " in result.stderr


@pytest.mark.parametrize("part", [{"p": "1e400"}, {"q": 10**400}], ids=["p", "q"])
@pytest.mark.parametrize(
    "command",
    [("solve", "--format", "csv"), ("eval",), ("hcurve", "--probe", "1,0.3")],
    ids=["solve-csv", "eval", "hcurve"],
)
def test_time_exponent_past_the_float_range_exits_two(tmp_path, part, command):
    # t**(p + q*alpha) and its gamma tokens are evaluated as floats
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**COTH_PROBLEM, "g": [{"expr": "x", **part}]}), encoding="utf-8")
    result = invoke(*command, "--problem", str(path), "--order", "2")
    assert result.exit_code == 2, result.exception
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "error: invalid problem definition: " in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("eval", "4.2", "--x-min", 800, "--x-max", 800, "--x-count", 1), id="eval"),
        pytest.param(("compare", "4.2", "--x-min", 800, "--x-max", 800, "--x-count", 1),
                     id="compare"),
        pytest.param(("residual", "4.2", "--point", "800,0.3"), id="residual"),
        pytest.param(("hcurve", "4.2", "--probe", "800,0.3"), id="hcurve"),
        pytest.param(("eval", "W1", "--alpha", 0.5, "--order", 1, "--x-min", 705,
                      "--x-max", 705, "--x-count", 1, "--t-min", 0.5, "--t-max", 0.5,
                      "--t-count", 1), id="eval-product"),
        pytest.param(("residual", "W1", "--alpha", 0.5, "--order", 1, "--point", "705,0.5"),
                     id="residual-product"),
        pytest.param(("hcurve", "W1", "--alpha", 0.5, "--order", 1, "--probe", "705,0.5",
                      "--h-count", 2), id="hcurve-product"),
        pytest.param(("compare", "4.2", "--alpha", 0.5, "--order", 3, "--x-min", 709,
                      "--x-max", 709, "--x-count", 1, "--t-min", 1, "--t-max", 1,
                      "--t-count", 1), id="compare-reference"),
        pytest.param(("residual", "W1", "--alpha", 0.5, "--order", 1, "--point", "1,800"),
                     id="residual-exp"),
        pytest.param(("hcurve", "4.5", "--order", 40, "--probe", "1,0.3",
                      "--h-min", -1e8, "--h-max", -1e8, "--h-count", 1), id="hcurve-weights"),
    ],
)
def test_evaluation_overflow_exits_three(tmp_path, args):
    # sinh(800) and cosh(800) overflow a float, as do, without raising, the
    # float products x^2 cosh(705) of W1 and sinh(709) e of 4.2's reference
    # solution, e^800 in W1's operator and (1e8)^k in the hbar weights
    path = tmp_path / "w1.json"
    path.write_text(json.dumps(W1_PROBLEM), encoding="utf-8")
    source = ("--problem", path) if args[1] == "W1" else ("--preset", args[1])
    order = () if "--order" in args else ("--order", 2)
    result = invoke(args[0], *source, *order, *args[2:])
    assert result.exit_code == 3, result.exception
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert "overflows a float" in result.stderr


@pytest.mark.parametrize("rate, terms", [(10**30, 1), (10**6, 100)], ids=["rate", "terms"])
def test_overflowing_taylor_weight_exits_three(tmp_path, rate, terms):
    # the weight rate**j / j! of the Taylor terms of exp(rate t) is an int
    # quotient past the float range
    path = tmp_path / "w1.json"
    drift = [[{"expr": "(pow x 2)", "exp_rate": rate}]]
    path.write_text(json.dumps({**W1_PROBLEM, "B": drift}), encoding="utf-8")
    args = () if terms == 1 else ("--taylor-terms", terms)
    result = invoke("solve", "--problem", path, "--alpha", 0.5, "--order", 1, *args)
    assert result.exit_code == 3, result.exception
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert "Taylor weight" in result.stderr and "overflows a float" in result.stderr


def test_overflowing_monomial_exits_three(tmp_path):
    # (1e200 x + 1)^2 expands to 1e400 x^2 + 2e200 x + 1; the first term is
    # refused, not dropped from u_0
    path = tmp_path / "problem.json"
    f = "(mul (add (mul 1e200 x) 1) (add (mul 1e200 x) 1))"
    path.write_text(json.dumps({**COTH_PROBLEM, "A": [0], "B": [[1]], "f": f}), encoding="utf-8")
    result = invoke("solve", "--problem", str(path), "--order", "1", "--format", "csv")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "overflows a float" in result.stderr


def test_overflowing_coefficient_exits_three(tmp_path):
    # J^alpha of the source carries 1.7e308 / gamma(1 + alpha), past the float range
    path = tmp_path / "problem.json"
    source = [{"expr": "1", "coef": 1.7e308}]
    path.write_text(json.dumps({**COTH_PROBLEM, "A": [0], "B": [[1]], "f": "x", "g": source}),
                    encoding="utf-8")
    result = invoke("solve", "--problem", str(path), "--alpha", "0.5", "--order", "1",
                    "--format", "csv")
    assert result.exit_code == 3, result.exception
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "overflows a float" in result.stderr


def test_a_run_error_names_its_order(tmp_path):
    # B = 1e160 scales v_1 by 1e160 and v_2 by 1e320, past the float range
    path = tmp_path / "problem.json"
    problem = {"form": "backward", "dim": 1, "A": ["0"], "B": [["1e160"]],
               "f": "(add (pow x 2) (sinh x))"}
    path.write_text(json.dumps(problem), encoding="utf-8")
    assert invoke("solve", "--problem", path, "--order", 1).exit_code == 0
    result = invoke("solve", "--problem", path, "--order", 2)
    assert result.exit_code == 3, result.exception
    assert result.stdout == ""
    assert result.stderr == "error: order 2: a coefficient factor overflows a float: inf\n"


def test_source_with_an_exponential_is_expanded_where_it_acts(tmp_path):
    # D^alpha u = x e^t from u(x, 0) = 0 solves to x t^alpha E_{1,1+alpha}(t),
    # which is x (e^t - 1) at alpha = 1. v_1 holds it all, e^t cut to its
    # first 12 powers of t: sum_{k<12} x t^(k+alpha) / gamma(k+1+alpha).
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"form": "forward", "dim": 1, "A": [0], "B": [[0]], "f": "0",
                                "g": [{"expr": "x", "c": 1}]}), encoding="utf-8")
    x, t = 0.7, 0.5
    for alpha in (1.0, 0.5):
        result = invoke("solve", "--problem", path, "--alpha", alpha, "--order", 1)
        assert result.exit_code == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["taylor_events"] == [{"order": 1, "terms_expanded": 1, "taylor_terms": 12}]
        assert [term["c"] for term in report["partial_sum"]] == [0] * 12
        got = FracSeries.from_obj(report["partial_sum"]).evaluate(x, t, alpha)
        with mpmath.workdps(30):
            terms = [x * mpmath.mpf(t) ** (k + alpha) / mpmath.gamma(k + 1 + alpha)
                     for k in range(40)]
        assert got == pytest.approx(float(mpmath.fsum(terms[:12])), rel=1e-15)
        # the powers from t^(12+alpha) on are dropped
        assert got == pytest.approx(float(mpmath.fsum(terms)), rel=2e-13)
        if alpha == 1.0:
            assert got == pytest.approx(x * math.expm1(t), rel=1e-13)


def test_source_with_a_large_power_of_t_solves(tmp_path):
    # J^alpha of t^200 carries gamma(201) / gamma(201 + alpha); gamma(201)
    # overflows a float, the ratio does not
    path = tmp_path / "problem.json"
    source = [{"expr": "x", "coef": 1.0, "p": "200"}]
    path.write_text(json.dumps({**COTH_PROBLEM, "A": [0], "B": [[1]], "f": "x", "g": source}),
                    encoding="utf-8")
    result = invoke("solve", "--problem", str(path), "--alpha", "0.5", "--order", "1",
                    "--format", "csv")
    assert result.exit_code == 0, result.stderr
    (u1,) = [row for row in rows_of(result.stdout)[1:] if row[0] == "1"]
    assert u1[2:5] == ["200", "1", "0"]
    want = float(mpmath.gamma(201) / mpmath.gamma(mpmath.mpf(201.5)))
    assert float(u1[5]) == pytest.approx(want, rel=1e-12)


def test_out_naming_a_directory_exits_two_before_running(tmp_path):
    result = invoke("solve", "--preset", "4.1", "--order", 1, "--out", tmp_path)
    assert result.exit_code == 2
    assert f"argument --out: {tmp_path} is a directory" in result.stderr
    assert "Traceback" not in result.stderr and list(tmp_path.iterdir()) == []


def test_out_into_a_missing_directory_exits_two_before_running(tmp_path):
    out = tmp_path / "no" / "such" / "x.json"
    result = invoke("solve", "--preset", "4.1", "--order", 1, "--out", out)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "--out" in result.stderr and "Traceback" not in result.stderr
    assert not out.parent.exists()


def test_out_path_the_os_refuses_exits_two_before_running(tmp_path):
    # a name past the file system's limit makes Path.is_dir raise OSError
    out = tmp_path / ("a" * 300)
    result = invoke("solve", "--preset", "4.1", "--order", 1, "--out", out)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "argument --out: [Errno 36] File name too long" in result.stderr
    assert "Traceback" not in result.stderr and list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_that_cannot_be_written_exits_three():
    # /dev/full passes the checks before the run and refuses the write
    result = invoke("solve", "--preset", "4.1", "--order", 1, "--out", "/dev/full")
    assert result.exit_code == 3
    assert result.stderr == "error: cannot write /dev/full: No space left on device\n"


def test_malformed_points_exit_two():
    assert invoke("residual", "--preset", "4.1", "--point", "oops").exit_code == 2
    assert invoke("hcurve", "--preset", "4.1", "--probe", "1,2,3,4").exit_code == 2
    assert invoke("eval", "--preset", "4.1", "--x-count", "0").exit_code == 2
    assert invoke("hcurve", "--preset", "4.1", "--probe", "1,0.3", "--h-count", "0").exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--preset", "4.1", "--hbar", "nan"),
        ("eval", "--preset", "4.1", "--order", "2", "--t-max", "inf", "--t-count", "2"),
        ("compare", "--preset", "4.1", "--order", "2", "--x-min=-inf"),
        ("hcurve", "--preset", "4.1", "--order", "2", "--probe", "nan,0.3"),
        ("hcurve", "--preset", "4.1", "--order", "2", "--probe", "1,0.3", "--h-min=-inf"),
        ("residual", "--preset", "4.1", "--order", "2", "--point", "1,inf"),
    ],
    ids=["hbar", "t-max", "x-min", "probe", "h-min", "point"],
)
def test_non_finite_flags_exit_two(args):
    result = invoke(*args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------- parser


COMMAND_OPTIONS = {
    "solve": ["--hbar"],
    "eval": ["--hbar", "--x-min", "--y-count", "--t-max"],
    "residual": ["--hbar", "--point"],
    "hcurve": ["--probe", "--h-min", "--h-max", "--h-count"],
    "compare": ["--hbar", "--x-count", "--y-min", "--t-min"],
}


def test_help_lists_commands():
    result = invoke("--help")
    assert result.exit_code == 0
    assert all(name in result.stdout for name in COMMAND_OPTIONS)
    assert "hatmfp hcurve --preset 4.3 --probe 1,0.2 --format csv" in result.stdout


@pytest.mark.parametrize("name", COMMAND_OPTIONS)
def test_command_help_lists_its_options(name):
    result = invoke(name, "--help")
    assert result.exit_code == 0
    shared = ["--preset", "--problem", "--alpha", "--order", "--taylor-terms", "--format",
              "--out"]
    assert all(option in result.stdout for option in shared + COMMAND_OPTIONS[name])
    assert ("--hbar" in result.stdout) == (name != "hcurve")


def test_abbreviated_flags_exit_two():
    # --alp would be --alpha under prefix matching, which the parser turns off
    result = invoke("solve", "--preset", "4.1", "--alp", "0.5")
    assert result.exit_code == 2
    assert "unrecognized arguments: --alp" in result.stderr


def test_negative_values_follow_their_flags():
    # -1,0.3 and -1e0 are read as values; argparse alone reads them as
    # flags and takes only words like -1 or -0.5 for values
    args = ("hcurve", "--preset", "4.1", "--order", "2", "--h-count", "2", "--format", "csv")
    spaced = invoke(*args, "--probe", "-1,0.3", "--h-min", "-1e0")
    joined = invoke(*args, "--probe=-1,0.3", "--h-min=-1e0")
    assert spaced.exit_code == 0, spaced.output
    assert spaced.stdout == joined.stdout
    assert rows_of(spaced.stdout)[1][0] == "-1.0"


def _every_example_runs(text: str) -> None:
    commands = [shlex.split(line, comments=True)[1:] for line in text.splitlines()
                if line.strip().startswith("hatmfp ")]
    assert len(commands) >= 7
    for argv in commands:
        result = invoke(*argv)
        assert result.exit_code == 0, (argv, result.output)


def test_readme_command_line_examples_run():
    # every `hatmfp ...` line of the README's "Command line" block
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    _every_example_runs(text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0])


def test_help_examples_run():
    # every `hatmfp ...` line of the module docstring, which --help prints
    _every_example_runs(cli.__doc__)


def test_cli_import_leaves_click_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, hatmfp.cli; print('click' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
