"""Command-line interface.

Exit codes: 0 on success, 2 on invalid configuration or flags, 3 on
domain errors raised while solving or evaluating (singular evaluation
points outside `eval`, missing reference solutions, exponent
violations, ...).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from functools import wraps
from pathlib import Path

import click

from .engine import HatmConfig, ProblemSpec, partial_sum, residual, run, run_report
from .engine import h_curve as engine_h_curve
from .errors import ConfigError, HatmError, SingularityError, Value, store
from .expr import to_prefix
from .fokker_planck import PRESET_IDS, load_problem, preset, reference_solution


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _csv_text(header: list[str], rows: list[list], trailer: str | None = None) -> str:
    """CSV of header and rows; float cells are written as their repr."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    if trailer is not None:
        sink.write(trailer + "\n")
    return sink.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _grid(lo: float, hi: float, count: int) -> list[float]:
    if count < 1:
        raise click.UsageError("grid counts must be >= 1")
    if count == 1:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _parse_point(text: str, dim: int) -> tuple[float, float, float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise click.UsageError(f"bad point {text!r}; expected x[,y],t") from None
    if len(parts) == 2:
        if dim == 2:
            raise click.UsageError(f"point {text!r} needs x,y,t for a 2-d problem")
        return (parts[0], 0.0, parts[1])
    if len(parts) == 3:
        return (parts[0], parts[1], parts[2])
    raise click.UsageError(f"bad point {text!r}; expected x[,y],t")


class RunRequest(Value):
    """Validated CLI invocation: one problem source, a config and where
    the output goes."""

    _fields = ("problem", "config", "label", "preset_id", "fmt", "out")

    def __init__(self, problem: ProblemSpec, config: HatmConfig, label: str,
                 preset_id: str | None, fmt: str, out: str | None) -> None:
        store(self, "problem", problem)
        store(self, "config", config)
        store(self, "label", label)
        store(self, "preset_id", preset_id)
        store(self, "fmt", fmt)
        store(self, "out", out)

    def total(self):
        """Partial sum of the iterates up to the configured order."""
        return partial_sum(run(self.problem, self.config), self.config.order)

    def grid(self, x_min, x_max, x_count, y_min, y_max, y_count, t_min, t_max, t_count):
        """(x, y, t) grid points, t fastest; y is 0 in a 1-d problem."""
        ys = _grid(y_min, y_max, y_count) if self.problem.dim == 2 else [0.0]
        for x in _grid(x_min, x_max, x_count):
            for y in ys:
                for t in _grid(t_min, t_max, t_count):
                    yield x, y, t

    def axes(self, *columns: str) -> list[str]:
        """Header of a point table: x, y (2-d only), t, then columns."""
        return ["x"] + (["y"] if self.problem.dim == 2 else []) + ["t", *columns]

    def place(self, x: float, y: float, t: float) -> list[str]:
        """Coordinate cells of a point table row, matching axes()."""
        return [repr(x)] + ([repr(y)] if self.problem.dim == 2 else []) + [repr(t)]

    def write(self, header: list[str], rows, trailer: str | None = None, **extra) -> None:
        """Emit a table: CSV with an optional trailer line, or JSON
        {"rows": [{column: cell}, ...], **extra}."""
        if self.fmt == "csv":
            text = _csv_text(header, rows, trailer)
        else:
            text = _json_text({"rows": [dict(zip(header, r)) for r in rows], **extra})
        _emit(text, self.out)


class _Main(click.Group):
    """Subcommand group; a HatmError raised by any subcommand ends the
    run with `error: ...` on stderr and exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HatmError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main() -> None:
    """Series solver for time-fractional drift-diffusion equations.

    Builds homotopy iterates symbolically, then evaluates, compares
    against reference solutions, or sweeps the convergence-control
    parameter.

    \b
    Examples:
      hatmfp solve --preset 4.3 --alpha 0.5 --order 3
      hatmfp eval --preset 4.2 --order 12 --format csv
      hatmfp hcurve --preset 4.3 --probe 1,0.2 --format csv
      hatmfp compare --preset 4.1 --alpha 0.75 --order 10
    """


_SOURCE_OPTIONS = (
    click.option("--preset", "preset_id", type=click.Choice(PRESET_IDS), default=None,
                 help="Built-in problem id."),
    click.option("--problem", "problem_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="Problem definition JSON file."),
    click.option("--alpha", type=float, default=1.0, show_default=True,
                 help="Caputo order in (0, 1]."),
)
_HBAR_OPTION = click.option("--hbar", type=float, default=-1.0, show_default=True,
                            help="Convergence-control parameter.")
_RUN_OPTIONS = (
    click.option("--order", type=int, default=10, show_default=True,
                 help="Number of deformation steps M."),
    click.option("--taylor-terms", type=int, default=12, show_default=True,
                 help="Powers of t kept when expanding exp(c*t)."),
    click.option("--format", "fmt", type=click.Choice(("json", "csv")),
                 default="json", show_default=True),
    click.option("--out", type=click.Path(dir_okay=False), default=None,
                 help="Write output here instead of stdout."),
)
_GRID_OPTIONS = tuple(
    click.option(name, type=int if name.endswith("count") else float,
                 default=default, show_default=True)
    for name, default in (
        ("--x-min", 0.5), ("--x-max", 2.0), ("--x-count", 4),
        ("--y-min", 1.0), ("--y-max", 1.0), ("--y-count", 1),
        ("--t-min", 0.0), ("--t-max", 1.0), ("--t-count", 5),
    )
)


def _command(name: str, *own_options, with_hbar: bool = True):
    """Register subcommand `name` with the shared options (`--hbar` only
    if it reads it) followed by its own; the body receives the validated
    RunRequest and its own options as keywords."""

    def decorate(body):
        @wraps(body)
        def command(preset_id, problem_path, alpha, order, taylor_terms, fmt, out,
                    hbar=-1.0, **own):
            if (preset_id is None) == (problem_path is None):
                raise click.UsageError("give exactly one of --preset or --problem")
            try:
                if preset_id is not None:
                    spec, label = preset(preset_id), f"preset:{preset_id}"
                else:
                    spec, label = load_problem(problem_path), f"file:{Path(problem_path).name}"
                config = HatmConfig(alpha=alpha, hbar=hbar, order=order,
                                    taylor_terms=taylor_terms)
            except ConfigError as exc:
                raise click.UsageError(str(exc)) from exc
            return body(RunRequest(spec, config, label, preset_id, fmt, out), **own)

        hbar_option = (_HBAR_OPTION,) if with_hbar else ()
        for option in reversed(_SOURCE_OPTIONS + hbar_option + _RUN_OPTIONS + own_options):
            command = option(command)
        return main.command(name=name)(command)

    return decorate


@_command("solve")
def solve(req: RunRequest) -> None:
    """Run the deformation recursion and write the iterate report."""
    if req.fmt == "json":
        _emit(_json_text(run_report(req.problem, req.config, req.label)), req.out)
        return
    rows = [
        [m, i, str(term.time.p), term.time.q, term.time.c,
         term.coef.value(req.config.alpha), to_prefix(term.spatial)]
        for m, series in enumerate(run(req.problem, req.config))
        for i, term in enumerate(series.terms)
    ]
    req.write(["iterate", "term", "p", "q", "c", "coef", "spatial"], rows)


@_command("eval", *_GRID_OPTIONS)
def eval_cmd(req: RunRequest, **grid) -> None:
    """Evaluate the partial sum on a grid."""
    total = req.total()
    alpha = req.config.alpha
    with_exact = req.preset_id is not None and alpha == 1.0
    rows = []
    for x, y, t in req.grid(**grid):
        place = req.place(x, y, t)
        try:
            value = total.evaluate(x=x, y=y, t=t, alpha=alpha)
        except SingularityError:
            rows.append(place + [""] * (3 if with_exact else 1) + ["singular"])
            continue
        row = place + [repr(value)]
        if with_exact:
            exact = reference_solution(req.preset_id, x, t, alpha, y)
            row += [repr(exact), repr(abs(value - exact))]
        rows.append(row + ["ok"])
    exact_columns = ("u_exact", "abs_err") if with_exact else ()
    req.write(req.axes("u", *exact_columns, "status"), rows)


@_command("residual", click.option("--point", "points", multiple=True, required=True,
                                   help="Probe point x[,y],t; repeatable."))
def residual_cmd(req: RunRequest, points) -> None:
    """Residual of the full equation at probe points."""
    probes = [_parse_point(p, req.problem.dim) for p in points]
    values = residual(req.problem, req.total(), req.config, probes)
    rows = [req.place(*probe) + [repr(value)] for probe, value in zip(probes, values)]
    req.write(req.axes("residual"), rows)


@_command(
    "hcurve",
    click.option("--probe", required=True, help="Probe point x[,y],t."),
    click.option("--h-min", type=float, default=-2.0, show_default=True),
    click.option("--h-max", type=float, default=-0.2, show_default=True),
    click.option("--h-count", type=int, default=19, show_default=True),
    with_hbar=False,
)
def hcurve_cmd(req: RunRequest, probe, h_min, h_max, h_count) -> None:
    """Sweep the convergence-control parameter at a probe point."""
    point = _parse_point(probe, req.problem.dim)
    h_values = _grid(h_min, h_max, h_count)
    # A point within rounding of 0 (-0.3 + 3 * 0.7/7, say) stands for 0.
    if any(abs(h) <= 1e-12 * max(abs(h_min), abs(h_max)) for h in h_values):
        raise click.UsageError("hbar sweep must not include 0")
    req.write(["hbar", "value"], engine_h_curve(req.problem, req.config, point, h_values))


@_command("compare", *_GRID_OPTIONS)
def compare_cmd(req: RunRequest, **grid) -> None:
    """Compare the partial sum against the registered reference solution."""
    if req.preset_id is None:
        raise HatmError("compare needs a preset; no reference solution is registered for files")
    total = req.total()
    alpha = req.config.alpha
    rows = []
    worst = 0.0
    for x, y, t in req.grid(**grid):
        value = total.evaluate(x=x, y=y, t=t, alpha=alpha)
        exact = reference_solution(req.preset_id, x, t, alpha, y)
        err = abs(value - exact)
        worst = max(worst, err)
        rows.append(req.place(x, y, t) + [repr(value), repr(exact), repr(err)])
    req.write(req.axes("u", "u_ref", "abs_err"), rows,
              trailer=f"# max_abs_err={worst!r}", max_abs_err=worst)


if __name__ == "__main__":  # pragma: no cover
    main()
