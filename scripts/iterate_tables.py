#!/usr/bin/env python3
"""Print the deformation iterates of a built-in problem as term tables.

Each iterate u_m is a finite sum  coef * spatial(x, y) * t^(p + q*alpha)
* exp(c*t); the table lists one row per term, with the coefficient shown
both numerically (at the bound alpha) and as its gamma-token ratio.

    python scripts/iterate_tables.py --preset 4.3 --alpha 0.75 --hbar -0.7
"""

import argparse

from hatmfp.cli import finite
from hatmfp.engine import HatmConfig, partial_sum, run
from hatmfp.errors import ConfigError
from hatmfp.expr import to_prefix
from hatmfp.fokker_planck import PRESET_IDS, preset
from hatmfp.series import Coefficient, GammaArg


def gamma_token(arg: GammaArg) -> str:
    if arg.a == 0:
        return f"G({arg.b}a)"
    if arg.b == 0:
        return f"G({arg.a})"
    sign = "+" if arg.b > 0 else "-"
    mult = "" if abs(arg.b) == 1 else str(abs(arg.b))
    return f"G({arg.a} {sign} {mult}a)"


def symbolic_coefficient(coef: Coefficient) -> str:
    if coef.is_zero:
        return "0"
    piece = f"{coef.factor:.6g}"
    if coef.num:
        piece += " " + " ".join(gamma_token(a) for a in coef.num)
    if coef.den:
        piece += " / " + " ".join(gamma_token(a) for a in coef.den)
    return piece


def time_label(term, alpha: float) -> str:
    exponent = float(term.time.p) + term.time.q * alpha
    label = f"t^{exponent:g}" if exponent else "1"
    if term.time.c:
        label += f" e^{term.time.c:+d}t"
    return label


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--preset", choices=PRESET_IDS, default="4.3")
    parser.add_argument("--alpha", type=finite, default=0.75)
    parser.add_argument("--hbar", type=finite, default=-1.0)
    parser.add_argument("--order", type=int, default=3)
    parser.add_argument(
        "--probe",
        type=finite,
        nargs=3,
        metavar=("X", "Y", "T"),
        default=(1.0, 0.0, 0.5),
        help="point at which the running partial sums are printed",
    )
    args = parser.parse_args()

    problem = preset(args.preset)
    try:
        config = HatmConfig(alpha=args.alpha, hbar=args.hbar, order=args.order)
    except ConfigError as exc:
        parser.error(str(exc))
    iterates = run(problem, config)
    x, y, t = args.probe

    print(f"preset {args.preset}  alpha={args.alpha}  hbar={args.hbar}")
    for m, series in enumerate(iterates):
        print(f"\nu_{m}:")
        if series.is_zero:
            print("  0")
        for term in series.terms:
            print(
                f"  {term.coef.value(args.alpha):+.12e} * {to_prefix(term.spatial)}"
                f" * {time_label(term, args.alpha)}"
                f"    [{symbolic_coefficient(term.coef)}]"
            )
        running = partial_sum(iterates, m).evaluate(x, t, args.alpha, y)
        print(f"  partial sum through u_{m} at (x={x}, y={y}, t={t}): {running:.12f}")


if __name__ == "__main__":
    main()
