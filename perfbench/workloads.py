"""The four fixed workloads and the inputs a seed may move.

Every workload runs at alpha = 0.5. All but the hbar sweep run at
hbar = -1. The problem, its order and the number of evaluation points are
fixed here; the seed moves only the evaluation grid, the probe point and
the check points, inside fixed ranges, so the cost of a run does not depend
on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALPHA = 0.5
HBAR = -1.0

# Partial sums of the solve workloads are pinned at these points
# (recorded by make_inputs.py); a seed picks CHECK_POINTS of them.
PIN_POINTS = [
    (x, t) for x in (0.5, 0.8, 1.1, 1.4, 1.7) for t in (0.05, 0.15, 0.3)
]
CHECK_POINTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # hatmfp subcommand
    source: tuple         # --problem <file> or --preset <id>
    order: int            # deformation steps M of a timed invocation
    smoke_order: int      # M in --smoke mode

    def args(self, order: int, seed: int, smoke: bool = False) -> list[str]:
        """hatmfp arguments of one invocation at the given order."""
        out = [self.command, *self.source, "--alpha", repr(ALPHA), "--order", str(order)]
        rng = random.Random(f"{self.name}:{seed}")
        if self.command == "eval":
            count = "3" if smoke else "20"
            x_min = 0.4 + 0.2 * rng.random()
            t_min = 0.02 + 0.08 * rng.random()
            out += [
                "--x-min", repr(x_min), "--x-max", repr(x_min + 1.5), "--x-count", count,
                "--t-min", repr(t_min), "--t-max", repr(t_min + 0.8), "--t-count", count,
                "--format", "csv",
            ]
        elif self.command == "hcurve":
            x, t = probe(seed)
            out += ["--probe", f"{x!r},{t!r}"]
        else:
            out += ["--hbar", repr(HBAR)]
        return out

    def check_points(self, seed: int) -> list[tuple[float, float]]:
        """Pinned points at which a solve report is checked."""
        rng = random.Random(f"{self.name}:check:{seed}")
        return sorted(rng.sample(PIN_POINTS, CHECK_POINTS))


def probe(seed: int) -> tuple[float, float]:
    """hcurve probe point (x, t); t stays where order 10 is accurate to 1e-4."""
    rng = random.Random(f"hcurve_45:probe:{seed}")
    return (0.8 + 0.4 * rng.random(), 0.2 + 0.2 * rng.random())


W1 = ("--problem", "perfbench/inputs/w1.json")
W2 = ("--problem", "perfbench/inputs/w2.json")

# Why each workload is here is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # exp(t) Taylor expansion: series algebra and a 30 MB report
        Workload("solve_w1", "solve", W1, 4, 1),
        # quadratic convolution: O(n^2) spatial collection
        Workload("solve_w2", "solve", W2, 9, 2),
        # 400 points of a 162-term sum: per-point evaluation
        Workload("eval_w1", "eval", W1, 3, 1),
        # 19 small runs with warm caches; the hbar = -1 row has a closed form
        Workload("hcurve_45", "hcurve", ("--preset", "4.5"), 10, 2),
    )
}
