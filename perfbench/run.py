"""stridemap benchmark: times the CLI end to end and, in a traced run, each
pipeline layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey-long --seed 1 --seconds 20 --trace 0

With --trace 0 every operation is a child process `python -m stridemap.cli
...`, one at a time (a closed loop with one client), and the end-to-end
metrics are printed. With --trace 1 the same operations also run in-process
through `stridemap.cli.main` with spans around each stage, and the per-layer
metrics are printed. Either way the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Workloads, metrics and the layer-to-end-to-end map are described in
README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from ops import Checker, Runner, round_ops
from workloads import WORKLOADS, make_workload, setup_inputs

SETUP_REPEATS = 3        # set-up runs at least this many times per invocation
SETUP_MIN_S = 1.0        # and until this long has passed; setup_s is the median
MIN_ROUNDS = 2           # the repeat-identity check needs a second round
STARTUP_SAMPLES = 3      # fresh interpreters per side of cli.startup_s
ROUND_BUDGET_S = 120.0   # no round starts after this much timed work

# A fixed program that uses no stridemap code, run as a child after every
# second operation. The speed of the machine drifts by tens of percent from
# one minute to the next, and every operation of a run drifts with it, so
# timings are scaled by REFERENCE_S over this program's median time in the
# same run: they read as seconds on a machine where it takes REFERENCE_S.
REFERENCE = ("import numpy as np\n"
             "s = 0\n"
             "for i in range(500_000):\n"
             "    s += i * i\n"
             "np.sort(np.random.default_rng(0).random(500_000))\n")
REFERENCE_S = 0.3

END_TO_END_UNITS = {
    "setup_s": "s", "simulate_s": "s", "track_s": "s", "build_map_s": "s",
    "evaluate_s": "s", "sweep_s": "s", "localize_p50_ms": "ms",
    "peak_rss_mb": "MB", "track_error_m": "m", "loc_error_m": "m",
    "floor_accuracy": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_exponent"):
        return "1"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith(("_us_per_step", "_us_per_query")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Bench:
    """One benchmark invocation: its work directory, runner and tallies."""

    def __init__(self, repo: Path, work: Path, workload: str, seed: int,
                 tiny: bool = False):
        self.repo, self.work, self.seed = repo, work, seed
        self.wl = make_workload(workload, seed, tiny)
        self.runner = Runner(repo, work)
        self.attempted = 0
        self.failures: list[str] = []
        self.exp = None

    def setup(self, repeats: int, min_s: float = 0.0) -> list[float]:
        """Write the inputs from scratch `repeats` times and until `min_s`
        seconds have passed; the last set stays."""
        times = []
        while len(times) < repeats or sum(times) < min_s:
            shutil.rmtree(self.work / "inputs", ignore_errors=True)
            t0 = time.perf_counter()
            self.exp = setup_inputs(self.repo, self.work, self.wl, self.seed)
            times.append(time.perf_counter() - t0)
        self.checker = Checker(self.work, self.exp)
        # compile bytecode and fill the page cache before anything is timed
        self.runner.child(["-m", "stridemap.cli", "--help"])
        return times

    def run_round(self, ops, execute, digests: dict, what: str) -> list:
        """Run and check `ops`; outputs must match `digests` (op key ->
        output digests), which the first run of each operation fills."""
        results = []
        for op in ops:
            res = self.checker.check(execute(op))
            # flush what the operation wrote, so its writeback does not
            # land inside the next operation's timing
            os.sync()
            first = digests.setdefault(op.key, res.digest)
            if res.error is None and res.digest != first:
                res.error = f"outputs differ from the {what}"
            self.attempted += 1
            if res.error is not None:
                self.failures.append(f"{op.key}: {res.error}")
            results.append(res)
        return results

    def result(self, metrics: dict, units) -> dict:
        for line in self.failures[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures),
                # a metric left without a value by a failed operation
                # reads 0, and the failure already marks the run incorrect
                "metrics": {k: {"value": v if math.isfinite(v) else 0.0,
                                "unit": units(k)}
                            for k, v in metrics.items()}}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_untraced(s: Bench, seconds: float) -> dict:
    """Rounds of child-process operations; the end-to-end metrics."""
    setup_times = s.setup(SETUP_REPEATS, SETUP_MIN_S)
    ops = round_ops(s.wl)
    every_second = {op.key for op in ops[1::2]}
    speed: list[float] = []

    def execute(op):
        res = s.runner.subprocess_op(op)
        if op.key in every_second:
            speed.append(s.runner.child(["-c", REFERENCE])[3])
        return res

    digests: dict = {}
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - t0 < min(seconds, ROUND_BUDGET_S)):
        rounds.append(s.run_round(ops, execute, digests, "first round"))

    wall: dict[str, list[float]] = {}
    for rnd in rounds:
        for res in rnd:
            wall.setdefault(res.op.key, []).append(res.wall_s)

    def walk_total(kind: str) -> float:
        # each walk's median call, summed over the walks of a round
        return sum(_median(wall[f"{w.name}/{kind}"]) for w in s.wl.walks)

    first = {res.op.key: res for res in rounds[0]}
    track_errors = [first[f"{w.name}/track"].values.get("mean_error_m", math.nan)
                    for w in s.wl.walks]
    evaluation = first["read/evaluate"].values
    metrics = {
        "setup_s": _median(setup_times),
        "simulate_s": walk_total("simulate"),
        "track_s": walk_total("track"),
        "build_map_s": walk_total("build-map"),
        "evaluate_s": _median(wall["read/evaluate"]),
        "sweep_s": _median(wall["read/sweep"]),
        "localize_p50_ms": 1000 * _median(
            t for key, ts in wall.items() if "/localize" in key for t in ts),
        "peak_rss_mb": max(res.rss_mb for rnd in rounds for res in rnd),
        "track_error_m": statistics.fmean(track_errors),
        "loc_error_m": evaluation.get("mean_error_m", math.nan),
        "floor_accuracy": evaluation.get("floor_accuracy", math.nan),
    }
    scale = REFERENCE_S / _median(speed)
    print(f"{s.wl.name}: {len(rounds)} rounds of {len(ops)} operations; "
          f"reference program {_median(speed):.4f} s, timings scaled by "
          f"{scale:.4f}; unscaled: " + ", ".join(
              f"{k}={v:.4f}" for k, v in metrics.items()
              if END_TO_END_UNITS[k] in ("s", "ms")), file=sys.stderr)
    for k in metrics:
        if END_TO_END_UNITS[k] in ("s", "ms"):
            metrics[k] *= scale
    return s.result(metrics, END_TO_END_UNITS.get)


def run_traced(s: Bench, seconds: float) -> dict:
    """A child-process reference round, then in-process rounds with and
    without spans; the per-layer metrics."""
    from tracing import (EXPONENT_FLAG, Tracer, layer_metrics,
                         scaling_exponents, stage_times_by_tag)

    s.setup(1)
    ops = round_ops(s.wl)
    probe_ops = round_ops(s.wl, s.wl.probe_walks)
    digests: dict = {}
    s.run_round(ops, s.runner.subprocess_op, digests, "untraced run")

    def traced_op(op, tracer):
        tracer.install()
        try:
            return s.runner.inprocess_op(op, tracer)
        finally:
            tracer.uninstall()

    # each operation runs in-process untraced and traced back to back, the
    # order alternating, so drift in machine speed hits both sides alike
    untraced_walls, traced_walls, traced_spans = [], [], []
    t0 = time.perf_counter()
    while not traced_walls or time.perf_counter() - t0 < min(seconds / 2, ROUND_BUDGET_S):
        tracer = Tracer()
        walls = {False: 0.0, True: 0.0}
        for i, op in enumerate(ops):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                run_op = (lambda o: traced_op(o, tracer)) if traced else s.runner.inprocess_op
                (res,) = s.run_round([op], run_op, digests, "untraced run")
                walls[traced] += res.wall_s
        untraced_walls.append(walls[False])
        traced_walls.append(walls[True])
        traced_spans.append(tracer.spans)

    # the probe walks only time stages at a second walk length; they are
    # checked like every operation but have no child-process twin
    probe = Tracer()
    s.run_round(probe_ops, lambda op: traced_op(op, probe), {}, "first run")

    per_round = [layer_metrics(spans, 1) for spans in traced_spans]
    metrics = {k: statistics.fmean(m[k] for m in per_round) for k in per_round[0]}
    metrics["trace_overhead_s"] = _median(traced_walls) - _median(untraced_walls)

    round_walks = {w.name for w in s.wl.walks}
    short, long = s.wl.scale_pair
    times = {tag: stage_times_by_tag(
                 traced_spans[0] if tag in round_walks else probe.spans, tag)
             for tag in (short, long)}
    n = s.exp.accel_samples
    exps = scaling_exponents(times[short], times[long], n[short], n[long])
    metrics.update(exps)
    flagged = [k for k, v in exps.items()
               if k.endswith("_exponent") and v > EXPONENT_FLAG]
    print(f"{s.wl.name}: exponents over {EXPONENT_FLAG} ({short} vs {long}): "
          f"{', '.join(flagged) or 'none'}", file=sys.stderr)

    bare = [s.runner.child(["-c", "pass"])[3] for _ in range(STARTUP_SAMPLES)]
    cli = [s.runner.child(["-c", "import stridemap.cli"])[3]
           for _ in range(STARTUP_SAMPLES)]
    metrics["cli.startup_s"] = _median(cli) - _median(bare)
    return s.result(metrics, per_layer_unit)


def run(repo: Path, workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    work = repo / ".perfbench_work" / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        s = Bench(repo, work, workload, seed, tiny)
        return run_traced(s, seconds) if trace else run_untraced(s, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def load_program(repo: Path) -> None:
    """Import stridemap from the checkout's own source tree, never from
    anywhere else on the path."""
    src = repo / "src"
    if not (src / "stridemap" / "cli.py").is_file():
        sys.exit(f"error: no stridemap source under {src}; run from the root "
                 "of a stridemap checkout")
    sys.path.insert(0, str(src))
    import stridemap

    if Path(stridemap.__file__).resolve().parent != (src / "stridemap").resolve():
        sys.exit(f"error: imported stridemap from {stridemap.__file__}, not {src}")
    for name in ("two_floor_demo", "mixed_quality_demo"):
        if not (repo / "scenarios" / f"{name}.json").is_file():
            sys.exit(f"error: scenarios/{name}.json not found")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    repo = Path.cwd()
    load_program(repo)
    result = run(repo, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
