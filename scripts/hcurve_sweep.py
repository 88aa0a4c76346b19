#!/usr/bin/env python3
"""Sweep the convergence-control parameter at a fixed probe point.

Writes one CSV row per hbar with a value column per truncation order,
so the widening of the flat region with order is visible side by side.
The recursion runs once, to the largest order, and each iterate is
evaluated once at the probe; every hbar recombines those numbers and
every column is a partial sum of them:

    python scripts/hcurve_sweep.py --preset 4.2 --alpha 0.5 \\
        --orders 4 8 12 --out hcurve.csv
"""

import argparse
import csv
import sys

from hatmfp.cli import _grid, finite
from hatmfp.engine import HatmConfig, recombine_values, run
from hatmfp.errors import ConfigError
from hatmfp.fokker_planck import PRESET_IDS, load_problem, preset


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_IDS)
    source.add_argument("--problem", help="problem definition JSON file")
    parser.add_argument("--alpha", type=finite, default=0.75)
    parser.add_argument("--orders", type=int, nargs="+", default=[4, 8])
    parser.add_argument(
        "--probe",
        type=finite,
        nargs=3,
        metavar=("X", "Y", "T"),
        default=(1.0, 0.0, 0.3),
    )
    parser.add_argument("--h-min", type=finite, default=-2.0)
    parser.add_argument("--h-max", type=finite, default=-0.05)
    parser.add_argument("--h-count", type=int, default=40)
    parser.add_argument("--out", help="CSV path (default: stdout)")
    args = parser.parse_args()
    if min(args.orders) < 0:
        parser.error("orders must be >= 0")
    if args.h_count < 1:
        parser.error("--h-count must be >= 1")

    try:
        problem = preset(args.preset) if args.preset else load_problem(args.problem)
        config = HatmConfig(alpha=args.alpha, hbar=-1.0, order=max(args.orders))
    except (ConfigError, OSError) as exc:
        parser.error(str(exc))
    # The grid of `hatmfp hcurve`, so that rows match it by exact hbar;
    # hbar = 0 is excluded, and so is a point within rounding of it.
    h_values = _grid(args.h_min, args.h_max, args.h_count)
    rounding = 1e-12 * max(abs(args.h_min), abs(args.h_max))
    h_values = [h for h in h_values if abs(h) > rounding]

    free = run(problem, config)
    x, y, t = args.probe
    values = [v.evaluate(x=x, y=y, t=t, alpha=args.alpha) for v in free]
    rows = []
    for h in h_values:
        u_values = recombine_values(values, h)
        rows.append([repr(h)] + [repr(sum(u_values[: n + 1])) for n in args.orders])

    sink = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    writer = csv.writer(sink)
    writer.writerow(["hbar"] + [f"order_{n}" for n in args.orders])
    writer.writerows(rows)
    if args.out:
        sink.close()
        print(f"wrote {len(h_values)} rows to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
