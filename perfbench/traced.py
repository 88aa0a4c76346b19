"""Run the hatmfp CLI with every layer boundary wrapped, from outside.

    python3 perfbench/traced.py OUT.json HATMFP-ARGS...

Wrappers are installed on the public functions of each module of
src/hatmfp and rebound in every module that imported them by name, so the
program itself stays untouched. Each call is timed; self time is its
duration minus the time of the wrapped calls it made. Calls at the
boundaries of engine, fokker_planck, cli and the FracSeries methods are
also kept as spans (name, start, end, parent span). The hot leaves of expr
and the Coefficient methods, with up to millions of calls, are kept as
counts plus time only. The stats, spans and exact counts are written to
OUT.json when the command exits.
"""

from __future__ import annotations

import functools
import json
import sys
import time

pc = time.perf_counter
_t0 = pc()
import hatmfp.cli as cli  # noqa: E402
from hatmfp import engine, expr, fokker_planck, series  # noqa: E402

IMPORT_S = pc() - _t0

# name -> [calls, total seconds, self seconds]
STATS: dict[str, list] = {}
# (name, start, end, parent span index or -1, self seconds)
SPANS: list[tuple] = []
# Open calls: [seconds spent in wrapped children, span index of the nearest span]
STACK: list[list] = [[0.0, -1]]
# Iterates returned by every engine.run call, counted once the command ends.
RUNS: list[list] = []


def _wrap(name: str, fn, span: bool):
    stat = STATS.setdefault(name, [0, 0.0, 0.0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = STACK[-1]
        index = len(SPANS) if span else parent[1]
        if span:
            SPANS.append(None)
        frame = [0.0, index]
        STACK.append(frame)
        start = pc()
        try:
            return fn(*args, **kwargs)
        finally:
            end = pc()
            STACK.pop()
            took = end - start
            parent[0] += took
            stat[0] += 1
            stat[1] += took
            stat[2] += took - frame[0]
            if span:
                SPANS[index] = (name, start, end, parent[1], took - frame[0])

    return wrapper


def _rebind(original, wrapped, modules) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_methods(cls, prefix: str, names: list[str], span: bool) -> None:
    for attr in names:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(f"{prefix}.{attr}", raw.__func__, span)))
        else:
            setattr(cls, attr, _wrap(f"{prefix}.{attr}", raw, span))


def _keep_iterates(fn):
    @functools.wraps(fn)
    def kept(*args, **kwargs):
        iterates = fn(*args, **kwargs)
        RUNS.append(iterates)
        return iterates

    return kept


def counts() -> dict:
    """Exact sizes: terms per iterate (summed over runs), coefficient
    monomials, the largest spatial tree, and the intern table."""
    terms: list[int] = []
    monomials = largest = 0
    for iterates in RUNS:
        for m, s in enumerate(iterates):
            if m == len(terms):
                terms.append(0)
            terms[m] += len(s.terms)
            monomials += sum(len(t.coef.monomials) for t in s.terms)
            largest = max([largest] + [expr.size(t.spatial) for t in s.terms])
    return {"runs": len(RUNS), "terms": terms, "coef_monomials": monomials,
            "max_tree_size": largest, "intern_nodes": len(expr._INTERN)}


def install() -> None:
    users = (series, engine, fokker_planck, cli)
    for fn in (expr.normalize, expr.differentiate, expr.evaluate, expr.proportional_ratio):
        _rebind(fn, _wrap(f"expr.{fn.__name__}", fn, span=False), users)
    _wrap_methods(
        series.Coefficient, "series.Coefficient",
        ["number", "plus", "times", "scaled", "gamma_ratio", "value", "parallel_ratio",
         "signature"],
        span=False,
    )
    _wrap_methods(
        series.FracSeries, "series",
        ["zero", "from_spatial", "collected", "add", "scale", "multiply", "spatial_derivative",
         "caputo_derivative", "frac_integral", "taylor_expand", "evaluate", "to_obj",
         "from_obj", "to_json", "from_json"],
        span=True,
    )
    for fn in (engine.run, engine.run_report, engine.deformation_step, engine.build_rm,
               engine.apply_operator, engine.partial_sum, engine.h_curve):
        wrapped = _wrap(f"engine.{fn.__name__}", fn, span=True)
        if fn is engine.run:
            wrapped = _keep_iterates(wrapped)
        _rebind(fn, wrapped, (engine, cli))
    for fn in (fokker_planck.load_problem, fokker_planck.preset):
        _rebind(fn, _wrap(f"fokker_planck.{fn.__name__}", fn, span=True),
                (fokker_planck, cli))
    for fn in (cli._json_text, cli._csv_text, cli._emit):
        _rebind(fn, _wrap(f"cli.{fn.__name__.lstrip('_')}", fn, span=True), (cli,))


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    install()
    root = _wrap("cli.main", cli.main.main, span=True)
    try:
        root(args=args, prog_name="hatmfp")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": IMPORT_S, "exit_code": code, "stats": STATS,
                   "counts": counts(), "spans": SPANS}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
