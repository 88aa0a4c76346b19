"""Series solver for time-fractional drift-diffusion equations: builds
homotopy iterates symbolically, then evaluates, compares against
reference solutions, or sweeps the convergence-control parameter.

Examples:
  hatmfp solve --preset 4.3 --alpha 0.5 --order 3
  hatmfp eval --preset 4.2 --order 12 --format csv
  hatmfp hcurve --preset 4.3 --probe 1,0.2 --format csv
  hatmfp hcurve --preset 4.2 --alpha 0.5 --order 4 8 12 --probe 1,0.3 --format csv
  hatmfp hcurve --preset 4.3 --alpha 0.75 --order 0 1 2 3 --probe 1,0.5 --h-min -0.7 --h-count 1
  hatmfp compare --preset 4.1 --alpha 0.75 --order 10
  hatmfp compare --preset 4.2 --alpha 0.5 --order 2 4 8 16 --format csv

Exit codes: 0 on success, 2 on invalid configuration or flags, 3 on
domain errors raised while solving or evaluating (singular evaluation
points outside `eval`, missing reference solutions, exponent
violations, ...) and when --out cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from .engine import (
    TAYLOR_TERMS, HatmConfig, ProblemSpec, check_hbar, h_curve, recombine, residual, run,
    run_report,
)
from .errors import ConfigError, HatmError, SingularityError
from .expr import to_prefix
from .fokker_planck import PRESET_IDS, load_problem, preset, reference_solution


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise HatmError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _csv_text(header: list[str], rows: list[list], trailer: str | None = None) -> str:
    """CSV of header and rows, float cells as their repr. No cell (a number,
    a prefix tree, a p such as 1/2, a status) holds a comma, quote or
    newline, so none is quoted."""
    lines = [",".join(map(str, row)) for row in [header, *rows]]
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def finite(text: str) -> float:
    """Type of every float option: nan and +-inf are refused."""
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(text)


def time(text: str) -> float:
    """Type of the time flags: a finite t >= 0, where series are defined."""
    if (value := finite(text)) >= 0.0:
        return value
    raise argparse.ArgumentTypeError(f"series are defined for t >= 0, got {value}")


def count(text: str) -> int:
    """Type of every count flag: a count below 1 is refused before any work."""
    if (value := int(text)) >= 1:
        return value
    raise argparse.ArgumentTypeError(f"counts must be >= 1, got {value}")


def _grid(lo: float, hi: float, count: int, axis: str) -> list[float]:
    """count points from lo to hi, evenly spaced; a point past the float
    range (the span hi - lo overflows, say) is refused, naming the flags."""
    if count == 1:
        return [lo]
    points = [lo + i * (hi - lo) / (count - 1) for i in range(count - 1)] + [hi]
    if not all(map(math.isfinite, points)):
        raise argparse.ArgumentError(
            None, f"--{axis}-min {lo!r} to --{axis}-max {hi!r} spans past the float range")
    return points


def _parse_point(text: str, dim: int) -> tuple[float, float, float]:
    try:
        parts = [finite(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) == 2 and dim == 2:
        raise argparse.ArgumentError(None, f"point {text!r} needs x,y,t for a 2-d problem")
    if len(parts) == 3 and dim == 1:
        raise argparse.ArgumentError(None, f"point {text!r} needs x,t for a 1-d problem")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentError(None, f"bad point {text!r}; expected x[,y],t")
    if parts[-1] < 0.0:
        raise argparse.ArgumentError(None, f"point {text!r}: series are defined for t >= 0")
    return (parts[0], 0.0, parts[1]) if len(parts) == 2 else tuple(parts)


def _points(args: argparse.Namespace, dim: int) -> list[tuple[float, float, float]]:
    """(x, y, t) points of the grid options, t fastest; y is 0 in 1-d."""
    xs = _grid(args.x_min, args.x_max, args.x_count, "x")
    ys = _grid(args.y_min, args.y_max, args.y_count, "y") if dim == 2 else [0.0]
    ts = _grid(args.t_min, args.t_max, args.t_count, "t")
    return [(x, y, t) for x in xs for y in ys for t in ts]


def _axes(dim: int, *columns: str) -> list[str]:
    """Header of a point table: x, y (2-d only), t, then columns."""
    return ["x"] + (["y"] if dim == 2 else []) + ["t", *columns]


def _place(dim: int, x: float, y: float, t: float) -> list[str]:
    """Coordinate cells of a point table row, matching _axes."""
    return [repr(x)] + ([repr(y)] if dim == 2 else []) + [repr(t)]


def _write(args: argparse.Namespace, header: list[str], rows, trailer: str | None = None,
           **extra) -> None:
    """Emit a table: CSV with an optional trailer line, or JSON
    {"rows": [{column: cell}, ...], **extra}."""
    if args.fmt == "csv":
        text = _csv_text(header, rows, trailer)
    else:
        text = _json_text({"rows": [dict(zip(header, r)) for r in rows], **extra})
    _emit(text, args.out)


def solve(args: argparse.Namespace, problem: ProblemSpec, config: HatmConfig) -> None:
    """Run the deformation recursion and write the iterate report."""
    if args.fmt == "json":
        label = (f"preset:{args.preset}" if args.preset is not None
                 else f"file:{Path(args.problem).name}")
        _emit(_json_text(run_report(problem, config, args.hbar, label)), args.out)
        return
    # Terms are pure powers of t; the c column stays 0 for readers of the format.
    rows = [
        [m, i, str(term.time.p), term.time.q, 0,
         term.coef.value(config.alpha), to_prefix(term.spatial)]
        for m, series in enumerate(recombine(run(problem, config), args.hbar))
        for i, term in enumerate(series.terms)
    ]
    _write(args, ["iterate", "term", "p", "q", "c", "coef", "spatial"], rows)


def eval_cmd(args: argparse.Namespace, problem: ProblemSpec, config: HatmConfig) -> None:
    """Evaluate the partial sum on a grid."""
    points = _points(args, problem.dim)
    free = run(problem, config)
    rows = []
    for x, y, t in points:
        try:
            ((_, sums),) = h_curve(free, config.alpha, (x, y, t), [args.hbar])
            cells = [repr(sums[-1]), "ok"]
        except SingularityError:
            cells = ["", "singular"]
        rows.append(_place(problem.dim, x, y, t) + cells)
    _write(args, _axes(problem.dim, "u", "status"), rows)


def residual_cmd(args: argparse.Namespace, problem: ProblemSpec, config: HatmConfig) -> None:
    """Residual of the full equation at probe points."""
    probes = [_parse_point(p, problem.dim) for p in args.points]
    values = residual(problem, run(problem, config), config.alpha, args.hbar, probes)
    rows = [_place(problem.dim, *probe) + [repr(value)] for probe, value in zip(probes, values)]
    _write(args, _axes(problem.dim, "residual"), rows)


def hcurve_cmd(args: argparse.Namespace, problem: ProblemSpec, config: HatmConfig) -> None:
    """Sweep the convergence-control parameter at a probe point."""
    point = _parse_point(args.probe, problem.dim)
    h_values = _grid(args.h_min, args.h_max, args.h_count, "h")
    # A point within rounding of 0 (-0.3 + 3 * 0.7/7, say) stands for 0.
    if any(abs(h) <= 1e-12 * max(abs(args.h_min), abs(args.h_max)) for h in h_values):
        raise argparse.ArgumentError(None, "hbar sweep must not include 0")
    # One run at the largest order holds every smaller order's partial sum.
    rows = [[h] + [sums[n] for n in args.order]
            for h, sums in h_curve(run(problem, config), config.alpha, point, h_values)]
    columns = [f"order_{n}" for n in args.order] if len(args.order) > 1 else ["value"]
    _write(args, ["hbar", *columns], rows)


def compare_cmd(args: argparse.Namespace, problem: ProblemSpec, config: HatmConfig) -> None:
    """Compare the partial sum against the registered reference solution."""
    if args.preset is None:
        raise HatmError("compare needs a preset; no reference solution is registered for files")
    points = _points(args, problem.dim)
    # One run at the largest order holds every smaller order's partial sum.
    free = run(problem, config)
    single = len(args.order) == 1
    rows, worst = [], [0.0] * len(args.order)
    for x, y, t in points:
        ((_, sums),) = h_curve(free, config.alpha, (x, y, t), [args.hbar])
        exact = reference_solution(args.preset, x, t, config.alpha, y)
        errs = [abs(sums[n] - exact) for n in args.order]
        worst = [max(w, err) for w, err in zip(worst, errs)]
        cells = [sums[-1], exact, errs[0]] if single else [exact, *errs]
        rows.append(_place(problem.dim, x, y, t) + [repr(cell) for cell in cells])
    suffixes = [""] if single else [f"_order_{n}" for n in args.order]
    columns = ["u", "u_ref", "abs_err"] if single else ["u_ref"] + [f"err{s}" for s in suffixes]
    worst_of = {f"max_abs_err{s}": w for s, w in zip(suffixes, worst)}
    _write(args, _axes(problem.dim, *columns), rows,
           trailer="\n".join(f"# {key}={w!r}" for key, w in worst_of.items()), **worst_of)


class _Parser(argparse.ArgumentParser):
    """Reads `-1,0.3` and `-1e-3` as values; argparse alone reads only `-1`, `-0.5`."""

    def _parse_optional(self, arg_string):
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _parser() -> argparse.ArgumentParser:
    """The hatmfp parser; a subcommand sets `body`, which runs it, and its `parser`."""

    def options(**order) -> argparse.ArgumentParser:
        """The options of every command; `order` configures --order."""
        shared = argparse.ArgumentParser(add_help=False)
        source = shared.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", choices=PRESET_IDS, help="built-in problem id")
        source.add_argument("--problem", metavar="FILE", help="problem definition JSON file")
        shared.add_argument("--alpha", type=finite, default=1.0,
                            help="Caputo order in (0, 1] (default: %(default)s)")
        shared.add_argument("--order", type=int, **order)
        shared.add_argument("--taylor-terms", type=int, default=TAYLOR_TERMS,
                            help="powers of t kept when expanding exp(c*t) (default: %(default)s)")
        shared.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                            help="(default: %(default)s)")
        shared.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        return shared

    shared = options(default=10, help="number of deformation steps M (default: %(default)s)")
    several = options(
        nargs="+", default=[10],
        help="one or more numbers of deformation steps M, each given once, one column each; "
             "the run goes to the largest (default: 10)")
    hbar = argparse.ArgumentParser(add_help=False)
    hbar.add_argument("--hbar", type=finite, default=-1.0,
                      help="convergence-control parameter (default: %(default)s)")
    grid = argparse.ArgumentParser(add_help=False)
    for name, default, kind in (
        ("x-min", 0.5, finite), ("x-max", 2.0, finite), ("x-count", 4, count),
        ("y-min", 1.0, finite), ("y-max", 1.0, finite), ("y-count", 1, count),
        ("t-min", 0.0, time), ("t-max", 1.0, time), ("t-count", 5, count),
    ):
        grid.add_argument(f"--{name}", type=kind, default=default, help="(default: %(default)s)")

    description, epilog = __doc__.split("\n\n", 1)
    parser = _Parser(
        prog="hatmfp", description=description, epilog=epilog, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(name: str, body, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, parents=parents, help=body.__doc__,
                                  description=body.__doc__, allow_abbrev=False)
        sub.set_defaults(body=body, parser=sub)
        return sub

    command("solve", solve, shared, hbar)
    command("eval", eval_cmd, shared, hbar, grid)
    command("residual", residual_cmd, shared, hbar).add_argument(
        "--point", dest="points", action="append", required=True,
        help="probe point x[,y],t; repeatable")
    hcurve = command("hcurve", hcurve_cmd, several)
    hcurve.add_argument("--probe", required=True, help="probe point x[,y],t")
    hcurve.add_argument("--h-min", type=finite, default=-2.0, help="(default: %(default)s)")
    hcurve.add_argument("--h-max", type=finite, default=-0.2, help="(default: %(default)s)")
    hcurve.add_argument("--h-count", type=count, default=19, help="(default: %(default)s)")
    command("compare", compare_cmd, several, hbar, grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one hatmfp command and return its exit code: 0, or 3 with an
    `error: ...` line for a HatmError. Invalid flags exit 2 from the parser."""
    args = _parser().parse_args(argv)
    try:
        problem = preset(args.preset) if args.preset is not None else load_problem(args.problem)
        # hcurve and compare take several orders and run to the largest
        orders = args.order if isinstance(args.order, list) else [args.order]
        if min(orders) < 0:
            raise ConfigError(f"order must be >= 0, got {min(orders)}")
        if len(set(orders)) < len(orders):
            raise ConfigError(f"each order may be given once, got {' '.join(map(str, orders))}")
        check_hbar(getattr(args, "hbar", -1.0))
        config = HatmConfig(args.alpha, max(orders), args.taylor_terms)
    except (ConfigError, OSError) as exc:
        args.parser.error(str(exc))
    try:
        if args.out is not None and Path(args.out).is_dir():
            args.parser.error(f"argument --out: {args.out} is a directory")
        if args.out is not None and not Path(args.out).parent.is_dir():
            args.parser.error(f"argument --out: no directory {Path(args.out).parent}")
    except OSError as exc:  # a path the OS refuses, such as a name too long
        args.parser.error(f"argument --out: {exc}")
    try:
        args.body(args, problem, config)
    except argparse.ArgumentError as exc:  # a flag value that a command body checks
        args.parser.error(str(exc))
    except HatmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


# perfbench/traced.py runs the command as `main.main(args=...,
# prog_name=...)`; this alias is kept for that call alone.
main.main = lambda args=None, prog_name=None: sys.exit(main(args))
