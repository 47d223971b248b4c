"""CLI operations of one round, how they are run, and how their outputs are
checked.

An operation is one `stridemap` subcommand call. It runs either as a child
process (`python -m stridemap.cli ...`, what a user pays for) or in-process
through `stridemap.cli.main` (the traced run). Both write the same files,
and every operation's outputs are checked the same way.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import TAUS, Expected, Workload

# criterion 3: landmark-calibrated tracking stays at or below this mean error
MAX_TRACK_ERROR_M = 1.5
# criterion 5: floor accuracy lower bound under noise
MIN_FLOOR_ACCURACY = 0.95
# quality.belief_threshold default: every map entry must come from above it
BELIEF_THRESHOLD = 15.0
# a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Op:
    key: str                   # unique within a round, e.g. "long/track"
    kind: str                  # the subcommand
    argv: tuple[str, ...]      # arguments after `stridemap`
    out_dir: str | None        # where its files go, relative to the work dir
    outputs: tuple[str, ...]   # files it must write there
    tag: str                   # walk name, or "read" for map-read operations
    index: int = 0             # query index of a localize fix


def round_ops(wl: Workload, walks=None) -> list[Op]:
    """The operations of one round, in order: each walk through simulate,
    track and build-map, then evaluate, sweep and the localize fixes."""
    ops = []
    for w in (wl.walks if walks is None else walks):
        n = w.name
        ops.append(Op(f"{n}/simulate", "simulate",
                      ("simulate", f"inputs/{n}.json", "--seed", str(w.seed),
                       "--out", f"{n}/sim"),
                      f"{n}/sim", ("trace.jsonl", "manifest.json"), n))
        ops.append(Op(f"{n}/track", "track",
                      ("track", f"{n}/sim/trace.jsonl",
                       "--graph", f"inputs/{n}_graph.json", "--out", f"{n}/track"),
                      f"{n}/track",
                      ("trajectory.jsonl", "summary.json", "error_cdf.csv",
                       "manifest.json"), n))
        ops.append(Op(f"{n}/build-map", "build-map",
                      ("build-map", f"{n}/track/trajectory.jsonl",
                       f"{n}/sim/trace.jsonl", "--out", f"{n}/map"),
                      f"{n}/map", ("map.json", "segments.csv", "manifest.json"), n))
    if walks is not None:
        return ops
    ops.append(Op("read/evaluate", "evaluate",
                  ("evaluate", wl.read_map, "inputs/queries.jsonl",
                   "--out", "read/eval"),
                  "read/eval", ("report.csv", "summary.json", "manifest.json"),
                  "read"))
    ops.append(Op("read/sweep", "sweep",
                  ("sweep", wl.read_map, "inputs/queries.jsonl", f"--taus={TAUS}",
                   "--out", "read/sweep"),
                  "read/sweep", ("sweep.csv", "manifest.json"), "read"))
    for i in range(wl.fixes):
        ops.append(Op(f"read/localize{i}", "localize",
                      ("localize", wl.read_map, "--fingerprint", f"inputs/fp{i}.json"),
                      None, (), "read", i))
    return ops


@dataclass
class Result:
    op: Op
    wall_s: float
    rss_mb: float | None
    code: int
    stdout: str
    stderr: str
    digest: dict = field(default_factory=dict)   # output name -> sha256
    error: str | None = None
    values: dict = field(default_factory=dict)   # numbers the checks read


class Runner:
    """Runs operations with the work directory as current directory."""

    def __init__(self, repo: Path, work: Path):
        self.work = work
        self.env = dict(os.environ)
        src = str(repo / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def child(self, argv: list[str]) -> tuple[int, str, str, float, float]:
        """Run a fresh interpreter; returns exit code, stdout, stderr, wall
        seconds and the child's peak RSS in MB."""
        out_path = self.work / ".child.out"
        err_path = self.work / ".child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work,
                                    env=self.env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_text(), err_path.read_text(),
                wall, usage.ru_maxrss / 1024.0)

    def subprocess_op(self, op: Op) -> Result:
        code, out, err, wall, rss = self.child(["-m", "stridemap.cli", *op.argv])
        return Result(op, wall, rss, code, out, err)

    def inprocess_op(self, op: Op, tracer=None) -> Result:
        """Call `stridemap.cli.main` directly; with a tracer the call is the
        root span of everything it does."""
        from stridemap import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                root = None if tracer is None else tracer.open(f"op.{op.kind}", op.tag)
                try:
                    code = cli.main(list(op.argv))
                except SystemExit as exc:      # argparse rejects the arguments
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:              # a crash fails this op, not the run
                    traceback.print_exc()
                    code = 1
                finally:
                    if root is not None:
                        tracer.close(root)
                wall = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        return Result(op, wall, None, code, out.getvalue(), err.getvalue())


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Checker:
    """Checks each operation's outputs against what the inputs imply and
    against the acceptance suite's bounds; fills Result.error on failure.

    Read operations are cross-checked against the round's evaluate report:
    sweep's row at the default tau must equal evaluate's summary, and each
    localize fix must equal evaluate's estimate for the same query.
    """

    def __init__(self, work: Path, exp: Expected):
        self.work = work
        self.exp = exp
        self.evaluation: dict | None = None

    def check(self, res: Result) -> Result:
        op = res.op
        if res.code != 0:
            res.error = f"exit code {res.code}: {res.stderr.strip()[-300:]}"
            return res
        try:
            if op.out_dir is not None:
                for name in op.outputs:
                    path = self.work / op.out_dir / name
                    if not path.is_file():
                        raise CheckError(f"missing output {op.out_dir}/{name}")
                    res.digest[name] = _sha256(path)
            else:
                res.digest["stdout"] = hashlib.sha256(res.stdout.encode()).hexdigest()
            getattr(self, "_" + op.kind.replace("-", "_"))(res)
        except CheckError as exc:
            res.error = str(exc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            res.error = f"unreadable output: {exc!r}"
        return res

    def _simulate(self, res: Result) -> None:
        walk = res.op.tag
        m = re.search(r"\((\d+) scans, ([0-9.]+) s\)", res.stdout)
        if not m:
            raise CheckError(f"unexpected simulate output {res.stdout!r}")
        scans, seconds = int(m.group(1)), float(m.group(2))
        if scans != self.exp.scans[walk]:
            raise CheckError(f"{scans} scans, expected {self.exp.scans[walk]}")
        if abs(seconds - self.exp.duration_s[walk]) > 0.05:
            raise CheckError(f"{seconds} s walk, expected {self.exp.duration_s[walk]:.1f}")

    def _track(self, res: Result) -> None:
        d = self.work / res.op.out_dir
        err = json.loads((d / "summary.json").read_text())["mean_error_m"]
        if err is None or not math.isfinite(err) or not 0 <= err <= MAX_TRACK_ERROR_M:
            raise CheckError(f"mean tracking error {err} outside [0, {MAX_TRACK_ERROR_M}] m")
        res.values["mean_error_m"] = err

    def _build_map(self, res: Result) -> None:
        d = self.work / res.op.out_dir
        entries = json.loads((d / "map.json").read_text())["entries"]
        if not entries:
            raise CheckError("radio map is empty")
        if any(e["belief"] <= BELIEF_THRESHOLD or e["floor"] not in (1, 2)
               for e in entries):
            raise CheckError("map entry below the belief gate or off the two floors")
        with open(d / "segments.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(self.work / res.op.argv[1], "rb") as fh:    # the trajectory
            last = fh.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
        n_segments = json.loads(last)["segment"] + 1
        if len(rows) != n_segments:
            raise CheckError(f"{len(rows)} segment rows for {n_segments} segments")
        if sum(int(r["accepted_scans"]) for r in rows) < len(entries):
            raise CheckError("more map entries than accepted scans")

    def _evaluate(self, res: Result) -> None:
        d = self.work / res.op.out_dir
        summary = json.loads((d / "summary.json").read_text())
        with open(d / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.evaluation = None
        if len(rows) != len(self.exp.queries):
            raise CheckError(f"{len(rows)} report rows for {len(self.exp.queries)} queries")
        acc, mean = summary["floor_accuracy"], summary["mean_error_m"]
        if not MIN_FLOOR_ACCURACY <= acc <= 1.0:
            raise CheckError(f"floor accuracy {acc} below {MIN_FLOOR_ACCURACY}")
        if mean is None or not math.isfinite(mean) or not (
                summary["p50"] <= summary["p75"] <= summary["p90"]):
            raise CheckError(f"inconsistent error summary {summary}")
        self.evaluation = {"summary": summary, "rows": rows}
        res.values.update(floor_accuracy=acc, mean_error_m=mean)

    def _sweep(self, res: Result) -> None:
        with open(self.work / res.op.out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        taus = [float(t) for t in TAUS.split(",")]
        if [float(r["tau"]) for r in rows] != taus:
            raise CheckError(f"sweep rows {[r['tau'] for r in rows]} for taus {taus}")
        if self.evaluation is None:
            raise CheckError("no evaluate result to compare the sweep with")
        # evaluate runs at the default tau, -90: the same numbers, exactly
        summary = self.evaluation["summary"]
        for key in ("floor_accuracy", "mean_error_m", "p50", "p75", "p90"):
            if float(rows[0][key]) != summary[key]:
                raise CheckError(f"sweep {key} at tau -90 differs from evaluate")

    def _localize(self, res: Result) -> None:
        fix = json.loads(res.stdout.strip().splitlines()[-1])
        if self.evaluation is None:
            raise CheckError("no evaluate result to compare the fix with")
        row = self.evaluation["rows"][res.op.index]
        if (fix["x"], fix["y"], fix["floor"]) != (
                float(row["est_x"]), float(row["est_y"]), int(row["est_floor"])):
            raise CheckError(f"fix {fix} differs from evaluate's estimate {row}")


class CheckError(Exception):
    """An operation ran but its outputs are wrong."""
