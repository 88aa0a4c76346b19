"""hatmfp benchmark: fixed CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload at tiny orders, untimed

Run it from the repository root. Every invocation is a fresh `python3 -m
hatmfp` process with PYTHONPATH=src and PYTHONHASHSEED=0 (so that outputs
repeat byte for byte), run one at a time (a closed loop with one client),
because CLI users pay imports, an empty intern table and
report writing on every run. Each child's CPU time and peak RSS come from
os.wait4 on that child. Every output is checked by perfbench/refcheck.py,
which does not use hatmfp; an invocation that exits non-zero or fails its
check counts as failed. workloads.py defines the workloads; BENCHMARK.json
lists the ones the benchmark's gate runs.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one invocation, spawn to exit
  setup_s      median wall time of the same command at --order 0
  peak_rss_mb  median peak resident memory of one invocation
--trace 1 alternates untraced invocations with ones run through
perfbench/traced.py and reports per-layer metrics plus the tracing
overhead (median traced minus median untraced wall time).

The last line of stdout is the JSON result; lines before it are a readable
summary. Every run also writes its samples and diagnostics (CPU time, a
pure-Python calibration loop, the machine, the line count of src/) to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import refcheck
from workloads import ALPHA, WORKLOADS, probe

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
PINNED = BENCH / "inputs" / "pinned.json"

SETUP_PER_SAMPLE = 3
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
H_COUNT = 19  # hcurve's default sweep length

pc = time.perf_counter


def calibrate() -> float:
    """Time of a fixed pure-Python loop: tells a slow host from a slow program."""
    start = pc()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return pc() - start


class Invoker:
    """Runs hatmfp invocations one at a time and checks their outputs."""

    def __init__(self, workload, seed: int, smoke: bool) -> None:
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.full_order = workload.smoke_order if smoke else workload.order
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.checked: dict = {}
        self.references: dict = {}
        self.ref_rel_err = None
        self.pinned = json.loads(PINNED.read_text(encoding="utf-8"))
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True,
        )

    def close(self) -> None:
        """Stop the launcher and wait for it."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, order: int, trace_path: Path | None = None) -> dict:
        """One checked invocation; returns its wall, CPU and RSS figures."""
        hatmfp_args = self.w.args(order, self.seed, self.smoke)
        if trace_path is None:
            argv = [sys.executable, "-m", "hatmfp", *hatmfp_args]
        else:
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace_path), *hatmfp_args]
        out_path, err_path = OUT / "stdout.txt", OUT / "stderr.txt"
        self.attempted += 1
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": CHILD_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        sample = json.loads(self.launcher.stdout.readline())
        code = sample.pop("code")
        sample["output_bytes"] = out_path.stat().st_size
        if code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-500:]
            self.errors.append(f"{' '.join(hatmfp_args)} exited {code}: {tail}")
        else:
            errors = self.check(order, out_path.read_bytes())
            self.errors.extend(errors)
            code = 1 if errors else 0
        sample["failed"] = code != 0
        self.failed += sample["failed"]
        return sample

    def check(self, order: int, data: bytes) -> list[str]:
        """Check one output. Outputs are deterministic except the report's
        wall_time_s, so a byte-identical output reuses its verdict."""
        cut = data.rfind(b'"wall_time_s": ')
        key = (order, hashlib.sha256(data[:cut] if cut >= 0 else data).hexdigest())
        if key not in self.checked:
            try:
                self.checked[key] = self._check(order, data.decode("utf-8"))
            except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
                    OverflowError) as exc:
                self.checked[key] = [f"output at order {order} could not be checked: {exc!r}"]
        return self.checked[key]

    def _check(self, order: int, text: str) -> list[str]:
        w = self.w
        if w.command == "solve":
            name = Path(w.source[1]).name
            chosen = set(w.check_points(self.seed))
            pinned = [p for p in self.pinned[f"{name}/{order}"] if (p[0], p[1]) in chosen]
            return refcheck.check_solve(text, ALPHA, order, pinned)[1]
        reference = self.reference(order)
        if w.command == "eval":
            count = 9 if self.smoke else 400
            return refcheck.check_eval(text, reference, count)
        rel_err, errors = refcheck.check_hcurve(
            text, reference, probe(self.seed), H_COUNT, order == self.full_order and not self.smoke
        )
        if order == self.full_order:
            self.ref_rel_err = rel_err
        return errors

    def reference(self, order: int) -> refcheck.Series:
        """Partial sum of an untimed, checked `solve` of the same problem."""
        if order not in self.references:
            args = [*self.w.source, "--alpha", repr(ALPHA), "--order", str(order), "--hbar", "-1.0"]
            proc = subprocess.run(
                [sys.executable, "-m", "hatmfp", "solve", *args], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise ValueError(f"reference solve exited {proc.returncode}: {proc.stderr[-300:]}")
            pinned = []
            if self.w.source[0] == "--problem":
                name = Path(self.w.source[1]).name
                pinned = self.pinned.get(f"{name}/{order}", [])
            series, errors = refcheck.check_solve(proc.stdout, ALPHA, order, pinned)
            if errors:
                raise ValueError(f"reference solve failed its check: {errors[0]}")
            self.references[order] = series
        return self.references[order]


def more(start: float, seconds: float, done: int, last: float, minimum: int) -> bool:
    """Start another invocation while fewer than `minimum` ran, or while one
    as long as the last would end at most half its length past the run."""
    return done < minimum or pc() - start + last / 2 < seconds


def measure(inv: Invoker, seconds: float) -> dict:
    """Untraced run: timed invocations, each after a few set-up samples at
    order 0, so that both sample the same spells of a noisy host."""
    inv.spawn(0)  # writes the bytecode caches; not timed
    setup, samples, calib = [], [], []
    start = pc()
    while more(start, seconds, len(samples), samples[-1]["wall_s"] if samples else 0.0,
               MIN_SAMPLES):
        setup += [inv.spawn(0)["wall_s"] for _ in range(SETUP_PER_SAMPLE)]
        calib.append(calibrate())
        samples.append(inv.spawn(inv.full_order))
    metrics = {
        "wall_s": (median([s["wall_s"] for s in samples]), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median([s["peak_rss_mb"] for s in samples]), "MB"),
    }
    return {"metrics": metrics, "samples": samples, "setup_samples": setup, "calib_s": calib}


def _steps(spans: list) -> list[float]:
    """Wall time of deformation step m (index m-1), summed over runs."""
    by_parent: dict[int, list] = {}
    for span in spans:
        if span[0] == "engine.deformation_step":
            by_parent.setdefault(span[3], []).append(span[2] - span[1])
    steps: list[float] = []
    for durations in by_parent.values():
        for m, took in enumerate(durations):
            if m == len(steps):
                steps.append(0.0)
            steps[m] += took
    return steps


def layer_metrics(trace: dict, output_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation.

    Times are reported only where every workload has work (a metric that
    reads 0 s on some workload is given as a call count instead); the full
    table of every wrapped function is in the run's record file.
    """
    stats, counts = trace["stats"], trace["counts"]

    def calls(name):
        return (stats.get(name, [0, 0.0, 0.0])[0], "count")

    def self_s(name):
        return (stats.get(name, [0, 0.0, 0.0])[2], "s")

    def total_s(*names):
        return (sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names), "s")

    def layer_self(prefix):
        return (sum(v[2] for k, v in stats.items() if k.startswith(prefix)), "s")

    steps = _steps(trace["spans"])
    terms = counts["terms"]
    out = {}
    for name in ("expr.proportional_ratio", "expr.normalize", "expr.differentiate"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["expr.evaluate.calls"] = calls("expr.evaluate")
    out["expr.self_s"] = layer_self("expr.")
    out["expr.intern_nodes"] = (counts["intern_nodes"], "count")
    out["expr.max_tree_size"] = (counts["max_tree_size"], "count")
    out["series.collected.calls"] = calls("series.collected")
    out["series.collected.self_s"] = self_s("series.collected")
    out["series.collected.total_s"] = total_s("series.collected")
    out["series.frac_integral.self_s"] = self_s("series.frac_integral")
    out["series.Coefficient.plus.calls"] = calls("series.Coefficient.plus")
    out["series.Coefficient.plus.self_s"] = self_s("series.Coefficient.plus")
    for name in ("series.Coefficient.times", "series.Coefficient.value", "series.evaluate",
                 "series.to_obj"):
        out[f"{name}.calls"] = calls(name)
    out["series.self_s"] = layer_self("series.")
    out["series.terms_total"] = (sum(terms), "count")
    out["series.coef_monomials"] = (counts["coef_monomials"], "count")
    for m in range(11):
        out[f"series.terms.m{m}"] = (terms[m] if m < len(terms) else 0, "count")
    out["engine.run.calls"] = calls("engine.run")
    out["engine.apply_operator.self_s"] = self_s("engine.apply_operator")
    out["engine.apply_operator.total_s"] = total_s("engine.apply_operator")
    out["engine.taylor_integrate.s"] = total_s("series.taylor_expand", "series.frac_integral")
    out["engine.deformation_step.s"] = total_s("engine.deformation_step")
    for m in (1, 2, 3):
        out[f"engine.deformation_step.m{m}.s"] = (steps[m - 1] if m <= len(steps) else 0.0, "s")
    out["engine.deformation_step.last.s"] = (steps[-1] if steps else 0.0, "s")
    out["engine.partial_sum.s"] = total_s("engine.partial_sum")
    out["engine.taylor_events"] = calls("series.taylor_expand")
    out["engine.self_s"] = layer_self("engine.")
    out["fokker_planck.problem.s"] = total_s("fokker_planck.load_problem", "fokker_planck.preset")
    out["cli.import_s"] = (trace["import_s"], "s")
    out["cli.report.s"] = total_s("cli.json_text", "cli.csv_text", "cli.emit")
    out["cli.self_s"] = layer_self("cli.")
    out["cli.output_bytes"] = (output_bytes, "bytes")
    return out


def function_table(trace: dict) -> list[str]:
    """Every wrapped function by self time, as shares of the traced command."""
    root = next(span for span in trace["spans"] if span[0] == "cli.main")
    whole = root[2] - root[1]
    rows = sorted(trace["stats"].items(), key=lambda kv: -kv[1][2])
    return [
        f"  {name:36s} calls={c:<8d} self={own:.4f} s ({100 * own / whole:4.1f}%)  total={tot:.4f} s"
        for name, (c, tot, own) in rows if c
    ]


def measure_traced(inv: Invoker, seconds: float) -> dict:
    """Traced run: untraced and traced invocations alternate."""
    inv.spawn(0)
    trace_path = OUT / "trace.json"
    plain, traced, layers, spans_kept = [], [], [], None
    start = pc()
    while more(start, seconds, len(traced), plain[-1] + traced[-1] if traced else 0.0, 1):
        plain.append(inv.spawn(inv.full_order)["wall_s"])
        sample = inv.spawn(inv.full_order, trace_path)
        traced.append(sample["wall_s"])
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        layers.append(layer_metrics(trace, sample["output_bytes"]))
        spans_kept = trace
    metrics = {
        name: (median([run[name][0] for run in layers]), unit)
        for name, (_, unit) in layers[0].items()
    }
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    return {"metrics": metrics, "plain_wall_s": plain, "traced_wall_s": traced,
            "functions": function_table(spans_kept), "last_trace": spans_kept}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count(), "cpu_model": model}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    inv = Invoker(WORKLOADS[name], seed, smoke)
    try:
        result = (measure_traced if trace else measure)(inv, seconds)
    finally:
        inv.close()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "attempted": inv.attempted, "failed": inv.failed,
        "failed_frac": inv.failed / inv.attempted, "errors": inv.errors,
        "ref_rel_err": inv.ref_rel_err, "machine": machine(), "src_lines": src_lines(),
        **result,
    }
    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def summary(record: dict) -> str:
    parts = [f"{k}={v:.6g} {u}" for k, (v, u) in record["metrics"].items()]
    parts.append(f"failed_frac={record['failed_frac']:.3g} ({record['failed']}/{record['attempted']})")
    if record["ref_rel_err"] is not None:
        parts.append(f"ref_rel_err={record['ref_rel_err']:.3g} (1)")
    if "samples" in record:
        parts.append(f"cpu_s={median([s['cpu_s'] for s in record['samples']]):.6g} s")
        parts.append(f"calib_s={median(record['calib_s']):.6g} s")
    parts.append(f"src_lines={record['src_lines']}")
    return f"{record['workload']}: " + "  ".join(parts)


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny orders, once, with no timing bounds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hatmfp" / "__init__.py").is_file():
        print(f"error: no src/hatmfp under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        records = [run_workload(name, args.seed, 0.0, trace, True)
                   for name in WORKLOADS for trace in (False, True)]
        for record in records:
            print(summary(record))
        merged = {"failed": sum(r["failed"] for r in records),
                  "attempted": sum(r["attempted"] for r in records), "metrics": {}}
        print(result_line(merged))
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    for err in record["errors"][:5]:
        print(f"check failed: {err}")
    for line in record.get("functions", []):
        print(line)
    print(summary(record))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
