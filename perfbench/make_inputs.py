"""Write the benchmark's problem files and pin their partial sums.

Run from the repository root:  python3 perfbench/make_inputs.py

W1 is backward with A = -x, B = x^2 e^t, f = cosh x; W2 is forward with
A = 0, B = u (quadratic), f = sinh x. inputs/pinned.json records hatmfp's
own partial sums of both at alpha = 0.5, hbar = -1 on workloads.PIN_POINTS,
keyed "<file>/<order>" for every order the benchmark runs; the checks compare later reports
against these values. Re-run it only on a commit whose values are trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hatmfp.engine import HatmConfig, partial_sum, run  # noqa: E402
from hatmfp.expr import X, const, cosh, mul, pow_, sinh  # noqa: E402
from hatmfp.fokker_planck import (  # noqa: E402
    CoefficientSpec,
    load_problem,
    problem_to_obj,
)
from workloads import ALPHA, HBAR, PIN_POINTS, WORKLOADS  # noqa: E402

INPUTS = ROOT / "perfbench" / "inputs"

PROBLEMS = {
    "w1.json": problem_to_obj(
        "backward", 1, [mul(const(-1), X)],
        [[CoefficientSpec(pow_(X, 2), exp_rate=1)]], cosh(X),
    ),
    "w2.json": problem_to_obj(
        "forward", 1, [0], [[CoefficientSpec(const(1), u_degree=1)]], sinh(X),
    ),
}


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    for name, obj in PROBLEMS.items():
        (INPUTS / name).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    pinned: dict = {}
    for w in WORKLOADS.values():
        if w.source[0] != "--problem":
            continue
        name = Path(w.source[1]).name
        problem = load_problem(INPUTS / name)
        for order in sorted({0, w.smoke_order, w.order}):
            iterates = run(problem, HatmConfig(alpha=ALPHA, hbar=HBAR, order=order))
            total = partial_sum(iterates, order)
            pinned[f"{name}/{order}"] = [
                [x, t, total.evaluate(x=x, t=t, alpha=ALPHA)] for x, t in PIN_POINTS
            ]
    blocks = [
        f' "{key}": [\n' + ",\n".join(f"  {json.dumps(p)}" for p in points) + "\n ]"
        for key, points in pinned.items()
    ]
    (INPUTS / "pinned.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
