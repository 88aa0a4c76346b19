#!/usr/bin/env python3
"""Error of the truncated series against the reference solutions.

For each built-in problem and Caputo order, runs the recursion once at
the largest requested truncation and reports the worst absolute error of
every shorter partial sum over an (x, t) grid. Errors should fall
roughly geometrically until they hit the arithmetic floor.

    python scripts/convergence_study.py --alphas 0.5 1.0 --orders 2 4 8 16
"""

import argparse

from hatmfp.cli import finite
from hatmfp.engine import HatmConfig, partial_sum, run
from hatmfp.errors import ConfigError
from hatmfp.fokker_planck import PRESET_IDS, closed_form, preset, reference_solution


def worst_error(preset_id, total, alpha, xs, ts, y):
    return max(
        abs(total.evaluate(x, t, alpha, y) - reference_solution(preset_id, x, t, alpha, y))
        for x in xs
        for t in ts
    )


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--presets", nargs="+", choices=PRESET_IDS, default=list(PRESET_IDS))
    parser.add_argument("--alphas", type=finite, nargs="+", default=[0.5, 0.75, 1.0])
    parser.add_argument("--orders", type=int, nargs="+", default=[2, 4, 8, 16])
    parser.add_argument("--hbar", type=finite, default=-1.0)
    parser.add_argument("--grid-points", type=int, default=5)
    args = parser.parse_args()
    if min(args.orders) < 0:
        parser.error("orders must be >= 0")
    if args.grid_points < 2:
        parser.error("--grid-points must be >= 2")

    n = args.grid_points
    xs = [0.5 + 1.5 * i / (n - 1) for i in range(n)]
    ts = [i / (n - 1) for i in range(n)]
    top = max(args.orders)
    try:
        configs = [HatmConfig(alpha=a, hbar=args.hbar, order=top) for a in args.alphas]
    except ConfigError as exc:
        parser.error(str(exc))

    header = ["preset", "alpha"] + [f"order {k}" for k in args.orders]
    widths = [10, 6] + [12] * len(args.orders)
    print("  ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
    for pid in args.presets:
        problem = preset(pid)
        y = 1.0 if problem.dim == 2 else 0.0
        for config in configs:
            alpha = config.alpha
            iterates = run(problem, config)
            errs = [
                worst_error(pid, partial_sum(iterates, k), alpha, xs, ts, y)
                for k in args.orders
            ]
            cells = [f"{pid:>10}", f"{alpha:>6.2f}"] + [f"{e:>12.3e}" for e in errs]
            print("  ".join(cells))
        print(f"{'':>10}  reference: {closed_form(pid)}")


if __name__ == "__main__":
    main()
