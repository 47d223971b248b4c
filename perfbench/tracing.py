"""Spans recorded around stridemap's stage functions, from outside the program.

A stage is a function defined in a stridemap module. It is traced by
replacing every module attribute bound to it (``stridemap.cli.detect_steps``
and ``stridemap.pdr.detect_steps`` are the same function reached through two
modules), so each call from any caller opens a span. The program's source is
never edited, and ``Tracer.uninstall`` restores the original attributes.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from dataclasses import dataclass, field

# (defining module, function) pairs that get a span. Hot leaf helpers
# (pdr_step, interpolate_rp, to_positive, ...) are left out: a span on each
# of their calls would cost more than the work it measures.
STAGES = (
    ("sensors", "load_trace"), ("sensors", "dump_trace"),
    ("sensors", "detect_steps"), ("sensors", "classify_motion"),
    ("landmarks", "detect_acc_landmarks"), ("landmarks", "detect_gyro_landmarks"),
    ("landmarks", "detect_baro_landmarks"), ("landmarks", "load_landmark_graph"),
    ("pdr", "run_pdr"), ("pdr", "match_landmark"), ("pdr", "attach_periodicities"),
    ("pdr", "dump_trajectory"), ("pdr", "load_trajectory"),
    ("pdr", "trajectory_errors"),
    ("radiomap", "build_radio_map"), ("radiomap", "save_radio_map"),
    ("radiomap", "load_radio_map"),
    ("localization", "vectorize_map"), ("localization", "knn_localize"),
    ("localization", "evaluate"),
    ("sim", "generate_trace"), ("sim", "load_scenario"),
    ("cli", "load_queries"), ("cli", "cmd_simulate"), ("cli", "cmd_track"),
    ("cli", "cmd_build_map"), ("cli", "cmd_localize"), ("cli", "cmd_evaluate"),
    ("cli", "cmd_sweep"),
)

MODULES = ("sensors", "landmarks", "pdr", "radiomap", "localization", "sim", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None for a root
    root: int               # index of the root span: one per traced operation
    tag: str = ""           # on a root span: the walk or input it worked on
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other are counted once, so a span's self time
    never goes below zero and the self times of a tree add up to its root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [sp.duration - _covered(children.get(i, []), sp.start, sp.end)
            for i, sp in enumerate(spans)]


def _count_hook(module: str, func: str):
    """Counts taken from a stage's arguments and result, where they are the
    work the stage did: bytes parsed, events fired, scans accepted."""
    if (module, func) == ("sensors", "load_trace"):
        return lambda args, res: {"bytes": os.path.getsize(args[0])}
    if (module, func) == ("sensors", "detect_steps"):
        return lambda args, res: {"steps": len(res)}
    if module == "landmarks" and func.startswith("detect_"):
        return lambda args, res: {"events": len(res)}
    if (module, func) == ("pdr", "match_landmark"):
        return lambda args, res: {"offered": 1, "matched": int(res is not None)}
    if (module, func) == ("radiomap", "build_radio_map"):
        return lambda args, res: {"scans": len(args[1]), "entries": len(res.entries)}
    return None


class Tracer:
    """Keeps spans in memory while installed; one root span per operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, tag: str = "") -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        root = idx if parent is None else self.spans[parent].root
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, root, tag))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, orig, name: str, hook):
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                res = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                self.spans[idx].counts = hook(args, res)
            return res
        return traced

    def install(self) -> None:
        """Wrap every module attribute bound to a stage function. A stage
        the program no longer defines is skipped; its metrics read zero."""
        mods = {m: importlib.import_module(f"stridemap.{m}") for m in MODULES}
        for module, func in STAGES:
            orig = getattr(mods[module], func, None)
            if orig is None:
                continue
            traced = self._wrap(orig, f"{module}.{func}", _count_hook(module, func))
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, val))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans

# stage span -> per-layer metric holding its total time per round
_STAGE_SECONDS = {
    "sensors.load_trace": "sensors.load_trace_s",
    "sensors.dump_trace": "sensors.dump_trace_s",
    "sensors.detect_steps": "sensors.detect_steps_s",
    "sensors.classify_motion": "sensors.classify_motion_s",
    "landmarks.detect_gyro_landmarks": "landmarks.detect_gyro_s",
    "landmarks.detect_acc_landmarks": "landmarks.detect_acc_s",
    "landmarks.detect_baro_landmarks": "landmarks.detect_baro_s",
    "pdr.match_landmark": "pdr.match_landmark_s",
    "pdr.attach_periodicities": "pdr.attach_periodicities_s",
    "radiomap.build_radio_map": "radiomap.build_radio_map_s",
    "radiomap.save_radio_map": "radiomap.save_radio_map_s",
    "radiomap.load_radio_map": "radiomap.load_radio_map_s",
    "localization.vectorize_map": "localization.vectorize_map_s",
    "sim.generate_trace": "sim.generate_trace_s",
    "cli.load_queries": "cli.load_queries_s",
}

# subcommand span -> metric holding its self time: config, manifest and
# atomic writes, everything the command does outside the traced stages
_COMMAND_SELF = {
    "cli.cmd_simulate": "cli.simulate_self_s",
    "cli.cmd_track": "cli.track_self_s",
    "cli.cmd_build_map": "cli.build_map_self_s",
    "cli.cmd_localize": "cli.localize_self_s",
    "cli.cmd_evaluate": "cli.evaluate_self_s",
    "cli.cmd_sweep": "cli.sweep_self_s",
}

# metric name prefix -> (stage spans, use self time); scaling exponents are
# taken for the stages whose cost grows with walk length
EXPONENT_STAGES = {
    "sensors.load_trace": (("sensors.load_trace",), False),
    "sensors.dump_trace": (("sensors.dump_trace",), False),
    "sensors.detect_steps": (("sensors.detect_steps",), False),
    "sensors.classify_motion": (("sensors.classify_motion",), False),
    "landmarks.detect_gyro": (("landmarks.detect_gyro_landmarks",), False),
    "landmarks.detect_acc": (("landmarks.detect_acc_landmarks",), False),
    "landmarks.detect_baro": (("landmarks.detect_baro_landmarks",), False),
    "pdr.run_pdr_self": (("pdr.run_pdr",), True),
    "pdr.attach_periodicities": (("pdr.attach_periodicities",), False),
    "pdr.trajectory_io": (("pdr.dump_trajectory", "pdr.load_trajectory"), False),
    "radiomap.build_radio_map": (("radiomap.build_radio_map",), False),
    "sim.generate_trace": (("sim.generate_trace",), False),
}
EXPONENT_FLAG = 1.3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-round stage times, self times, counts and ratios of the traced
    rounds whose spans are given."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for sp, st in zip(spans, own):
        total[sp.name] = total.get(sp.name, 0.0) + sp.duration
        self_total[sp.name] = self_total.get(sp.name, 0.0) + st
        calls[sp.name] = calls.get(sp.name, 0) + 1
        for key, val in sp.counts.items():
            counts[f"{sp.name}:{key}"] = counts.get(f"{sp.name}:{key}", 0) + val

    per_round = lambda x: x / rounds
    out = {metric: per_round(total.get(stage, 0.0))
           for stage, metric in _STAGE_SECONDS.items()}
    out.update({metric: per_round(self_total.get(stage, 0.0))
                for stage, metric in _COMMAND_SELF.items()})

    out["sensors.load_trace_mb_per_s"] = _ratio(
        counts.get("sensors.load_trace:bytes", 0) / 1e6,
        total.get("sensors.load_trace", 0.0))
    out["landmarks.events"] = per_round(sum(
        counts.get(f"landmarks.detect_{k}_landmarks:events", 0)
        for k in ("acc", "gyro", "baro")))

    run_pdr_self = self_total.get("pdr.run_pdr", 0.0)
    pdr_steps = sum(sp.counts.get("steps", 0) for sp in spans
                    if sp.name == "sensors.detect_steps" and sp.parent is not None
                    and spans[sp.parent].name == "pdr.run_pdr")
    out["pdr.run_pdr_self_s"] = per_round(run_pdr_self)
    out["pdr.run_pdr_us_per_step"] = _ratio(run_pdr_self * 1e6, pdr_steps)
    out["pdr.match_ratio"] = _ratio(counts.get("pdr.match_landmark:matched", 0),
                                    counts.get("pdr.match_landmark:offered", 0))
    out["pdr.trajectory_io_s"] = per_round(total.get("pdr.dump_trajectory", 0.0)
                                           + total.get("pdr.load_trajectory", 0.0))

    # the first map build inside each build-map command is the real one;
    # any further builds there re-run it per segment to count scans
    first_build: dict[int, Span] = {}
    for sp in spans:
        if (sp.name == "radiomap.build_radio_map" and sp.parent is not None
                and spans[sp.parent].name == "cli.cmd_build_map"):
            first_build.setdefault(sp.parent, sp)
    out["radiomap.build_calls"] = _ratio(calls.get("radiomap.build_radio_map", 0),
                                         calls.get("cli.cmd_build_map", 0))
    out["radiomap.scan_accept_ratio"] = _ratio(
        sum(sp.counts["entries"] for sp in first_build.values()),
        sum(sp.counts["scans"] for sp in first_build.values()))
    out["radiomap.load_calls"] = per_round(calls.get("radiomap.load_radio_map", 0))

    out["localization.knn_us_per_query"] = _ratio(
        self_total.get("localization.knn_localize", 0.0) * 1e6,
        calls.get("localization.knn_localize", 0))
    out["localization.vectorize_calls"] = per_round(
        calls.get("localization.vectorize_map", 0))
    return out


def stage_times_by_tag(spans: list[Span], tag: str) -> dict[str, float]:
    """Time of each exponent stage inside the operations tagged `tag`."""
    own = self_times(spans)
    out = {}
    for prefix, (stages, use_self) in EXPONENT_STAGES.items():
        out[prefix] = sum(own[i] if use_self else sp.duration
                          for i, sp in enumerate(spans)
                          if sp.name in stages and spans[sp.root].tag == tag)
    return out


def scaling_exponents(short: dict[str, float], long: dict[str, float],
                      n_short: int, n_long: int) -> dict[str, float]:
    """log(t_long / t_short) / log(n_long / n_short) for each stage, and the
    number of stages above EXPONENT_FLAG."""
    out = {}
    for prefix in EXPONENT_STAGES:
        t0, t1 = short.get(prefix, 0.0), long.get(prefix, 0.0)
        exp = (math.log(t1 / t0) / math.log(n_long / n_short)
               if t0 > 0 and t1 > 0 else 0.0)
        out[f"{prefix}_exponent"] = exp
    out["scaling.stages_over_1_3"] = sum(
        1 for v in out.values() if v > EXPONENT_FLAG)
    return out
