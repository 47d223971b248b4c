"""Command line pipeline around the toolkit.

Subcommands cover the full workflow: simulate a scripted walk, track it
into a trajectory, build a radio map, and localize or evaluate query
fingerprints against that map. Every run echoes its effective
configuration into a manifest so outputs are reproducible; identical
inputs and flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import enum
import json
import math
import os
import sys
from dataclasses import Field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

# Set before the first numpy import, so OpenBLAS reads it: knn's small
# per-chunk product gains nothing from a second BLAS thread, and with two
# some runs stalled for a second. A value the user exports still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (HEADING_THRESHOLD_DEG, ConfigError, HeadingSource,
                     LandmarkConfig, LocalizationConfig, PdrConfig,
                     QualityConfig, SensorConfig)
from .sensors import (RSS_RULE, SCALARS, choice, fingerprint, members,
                      number, read_json, read_jsonl, rss, shown, text, version)

# Each subcommand imports the stage functions it calls in its own body, so
# a process loads only the stages of the command it runs.

CONFIG_VERSION = 1


# Tree section -> the stage config dataclass it builds; each field is one
# leaf, addressable as a dotted --set key, with the field default as its own.
SECTIONS = {
    "sensors": SensorConfig,
    "landmarks": LandmarkConfig,
    "pdr": PdrConfig,
    "quality": QualityConfig,
    "localization": LocalizationConfig,
}


# The reader of a config leaf by the type of its default. A float leaf may
# hold NaN or an infinity, so that its dataclass refuses it by key name.
_LEAF = {int: SCALARS["int"], float: partial(number, finite=False), str: text}


def _leaf(cls: type, f: Field) -> tuple[str, object, Callable, Callable]:
    """Tree key, tree default, tree-to-field conversion and tree reader of
    one config field. The heading gate is set in degrees and an enum field
    by its value, one of its values; every other leaf is the field itself."""
    if (cls, f.name) == (PdrConfig, "heading_threshold"):
        return "heading_threshold_deg", HEADING_THRESHOLD_DEG, math.radians, _LEAF[float]
    if isinstance(f.default, enum.Enum):
        kind = type(f.default)
        return f.name, f.default.value, kind, choice({m.value: m.value for m in kind})
    return f.name, f.default, lambda value: value, _LEAF[type(f.default)]


def default_config() -> dict:
    """Fresh copy of the full parameter tree."""
    tree: dict = {"version": CONFIG_VERSION}
    for section, cls in SECTIONS.items():
        tree[section] = {key: default for key, default, *_ in
                         (_leaf(cls, f) for f in fields(cls))}
    return tree


class CliError(Exception):
    """Reported to stderr with a nonzero exit, no traceback."""


# The reader of a partial config tree: every section and leaf optional.
_read_tree = members({"version": version(CONFIG_VERSION), **{
    section: members({key: read for key, _, _, read in (_leaf(cls, f) for f in fields(cls))})
    for section, cls in SECTIONS.items()}})


def _overlay(tree: dict, data, prefix: str = "") -> dict:
    """Read a partial config tree and write its leaves over tree's; the
    tree as read. A fault raises CliError, its message after prefix."""
    try:
        part = _read_tree(data, "config", CliError)
    except CliError as exc:
        raise CliError(f"{prefix}{exc}") from None
    for key, value in part.items():
        if isinstance(value, dict):
            tree[key].update(value)
        else:
            tree[key] = value
    return part


def effective_config(args) -> tuple[dict, dict]:
    """Defaults, overlaid with --config file, overlaid with --set flags.
    --set a.b=v is the tree {"a": {"b": v}}, v read as JSON or else as
    the bare string (euclidean)."""
    tree = default_config()
    if args.config:
        path = _require_file(args.config, "config file")
        prefix = f"config file {path}: "
        _overlay(tree, read_json(path, CliError, prefix), prefix)
    overrides = {}
    for assignment in args.set or []:
        if "=" not in assignment:
            raise CliError(f"--set needs key=value, got {shown(assignment)}")
        dotted, _, raw = assignment.partition("=")
        try:
            value = json.loads(raw)
        except (json.JSONDecodeError, RecursionError):  # or nested too deep
            value = raw
        keys = dotted.split(".")
        for key in reversed(keys):
            value = {key: value}
        value = _overlay(tree, value)
        for key in keys:
            value = value[key]
        if isinstance(value, dict):
            raise CliError(f"--set needs a leaf key, got section {shown(dotted)}")
        overrides[dotted] = value
    return tree, overrides


def _configs(tree: dict) -> tuple:
    """One config object per tree section, in SECTIONS order."""
    out = []
    for section, cls in SECTIONS.items():
        kwargs, keys = {}, {}
        for f in fields(cls):
            key, _, convert, _ = _leaf(cls, f)
            keys[f.name] = key
            kwargs[f.name] = convert(tree[section][key])
        try:
            out.append(cls(**kwargs))
        except ConfigError as exc:
            key = keys[exc.field]
            raise CliError(f"config key '{section}.{key}' {exc.rule}, "
                           f"got {tree[section][key]!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# deterministic output plumbing


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not found: {path}")
    return p


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


class _Outputs:
    """Collects files and writes each atomically: every file is written to
    a temp file first, and all are renamed into place only once every one
    is written, so a writer that fails leaves no file and no temp file."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pending: list[tuple[Path, Callable]] = []

    def add(self, name: str, write: Callable) -> None:
        """Write the file name with write(fh), fh the open file, at commit."""
        self.pending.append((self.out_dir / name, write))

    def add_json(self, name: str, obj) -> None:
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        self.add(name, lambda fh: fh.write(text))

    def add_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        self.add(name, lambda fh: csv.writer(fh, lineterminator="\n")
                 .writerows([header, *rows]))

    def names(self) -> list[str]:
        return [p.name for p, _ in self.pending]

    def commit(self) -> None:
        tmps = [path.with_name(path.name + ".tmp") for path, _ in self.pending]
        try:
            for tmp, (_, write) in zip(tmps, self.pending):
                with open(tmp, "w") as fh:
                    write(fh)
            for tmp, (path, _) in zip(tmps, self.pending):
                os.replace(tmp, path)
        finally:
            for tmp in tmps:
                tmp.unlink(missing_ok=True)


def _manifest(command: str, inputs: dict, outputs: list[str],
              tree: dict, overrides: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": sorted(outputs),
        "overrides": overrides,
        "config": tree,
    }


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    from .sensors import dump_trace
    from .sim import generate_trace, load_scenario

    tree, overrides = effective_config(args)
    _configs(tree)  # the manifest records the tree: refuse a bad one here too
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    scn_path = _require_file(args.scenario, "scenario file")
    scenario = load_scenario(scn_path)
    noise = scenario.noise
    if args.seed is not None:
        noise = replace(noise, seed=args.seed)
    trace = generate_trace(scenario.environment, scenario.walk, noise)
    out = _out_dir(args)
    outs = _Outputs(out)
    trace_name = "trace.jsonl"
    outs.add(trace_name, lambda fh: dump_trace(trace, fh))
    outs.add_json("manifest.json", {**_manifest(
        "simulate", {"scenario": args.scenario}, outs.names() + ["manifest.json"],
        tree, overrides), "seed": args.seed})
    outs.commit()
    print(f"wrote {out / trace_name} ({len(trace.wifi)} scans, "
          f"{trace.accel.t[-1]:.1f} s)")
    return 0


def _start(text: str) -> tuple[float, float, float]:
    """--start's x,y,floor: finite x and y and an integral floor, read by
    sensors.number as every loader reads a pose."""
    try:
        x, y, floor = (float(part) for part in text.split(","))
        return (number(x, "x"), number(y, "y"),
                float(number(floor, "floor", integral=True)))
    except ValueError:
        raise CliError(f"--start must be x,y,floor with finite x and y and an "
                       f"integer floor, got {shown(text)}")


def cmd_track(args) -> int:
    from .landmarks import load_landmark_graph
    from .pdr import dump_trajectory, run_pdr, trajectory_errors
    from .sensors import load_trace

    tree, overrides = effective_config(args)
    if args.mode:
        tree["pdr"]["heading_source"] = args.mode
    sensor_cfg, landmark_cfg, pdr_cfg, quality_cfg, _ = _configs(tree)
    trace = load_trace(_require_file(args.trace, "trace file"))
    graph = None
    if pdr_cfg.heading_source is HeadingSource.LANDMARK:
        if not args.graph:
            raise CliError("landmark mode requires --graph")
        graph = load_landmark_graph(_require_file(args.graph, "graph file"))
    if args.start:
        initial = _start(args.start)
    elif trace.truth is not None and len(trace.truth):
        initial = (float(trace.truth.xy[0, 0]), float(trace.truth.xy[0, 1]),
                   float(trace.truth.floor[0]))
    else:
        raise CliError("trace has no ground truth; pass --start x,y,floor")

    traj = run_pdr(trace, graph, initial, pdr_cfg, sensor_cfg,
                   landmark_cfg, quality_cfg)
    out = _out_dir(args)
    outs = _Outputs(out)
    outs.add("trajectory.jsonl", lambda fh: dump_trajectory(traj, fh))

    have_truth = trace.truth is not None and len(trace.truth) > 0
    if have_truth:
        errors = trajectory_errors(traj, trace)
        mean_error = float(errors.mean()) if len(errors) else None
        outs.add_json("summary.json", {"mean_error_m": mean_error})
        ranked = sorted(float(e) for e in errors)
        rows = [[_fmt(e), _fmt((i + 1) / len(ranked))]
                for i, e in enumerate(ranked)]
        outs.add_csv("error_cdf.csv", ["error_m", "cdf"], rows)
    else:
        print("notice: trace has no ground truth; error stats omitted",
              file=sys.stderr)
    outs.add_json("manifest.json", _manifest(
        "track", {"trace": args.trace, "graph": args.graph},
        outs.names() + ["manifest.json"], tree, overrides))
    outs.commit()
    if have_truth:
        print(f"wrote {out / 'trajectory.jsonl'} (mean error "
              f"{mean_error:.3f} m, {len(traj.visits)} landmark visits)")
    else:
        print(f"wrote {out / 'trajectory.jsonl'}")
    return 0


def cmd_build_map(args) -> int:
    from .pdr import load_trajectory
    from .radiomap import build_radio_map, save_radio_map
    from .sensors import load_trace

    tree, overrides = effective_config(args)
    _, _, _, quality_cfg, _ = _configs(tree)
    traj = load_trajectory(_require_file(args.trajectory, "trajectory file"))
    trace = load_trace(_require_file(args.trace, "trace file"), ("wifi",))

    radio_map = build_radio_map(traj, trace.wifi, quality_cfg)
    if not radio_map.entries:
        print("warning: radio map is empty", file=sys.stderr)
    rows = [[str(idx), _fmt(belief), str(accepted)]
            for idx, (belief, accepted) in enumerate(radio_map.segments)]
    out = _out_dir(args)
    outs = _Outputs(out)
    outs.add("map.json", lambda fh: save_radio_map(radio_map, fh))
    outs.add_csv("segments.csv", ["segment_id", "belief", "accepted_scans"], rows)
    outs.add_json("manifest.json", _manifest(
        "build-map", {"trajectory": args.trajectory, "trace": args.trace},
        outs.names() + ["manifest.json"], tree, overrides))
    outs.commit()
    print(f"wrote {out / 'map.json'} ({len(radio_map.entries)} entries from "
          f"{len(traj.segments)} segments)")
    return 0


def _parse_rss(pairs: list[str]) -> dict[str, int]:
    fp = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"--rss needs mac=rss, got {shown(pair)}")
        mac, _, text = pair.partition("=")
        if not mac:
            raise CliError(f"--rss MAC must be non-empty, got {shown(pair)}")
        try:
            reading = rss(float(text))  # "-50.0" reads as -50, as in a file
        except ValueError:
            reading = None
        if reading is None:
            raise CliError(f"--rss value for {shown(mac)} {RSS_RULE}, got {shown(text)}")
        if mac in fp:
            raise CliError(f"duplicate MAC {shown(mac)} in --rss")
        fp[mac] = reading
    return fp


def load_queries(path: str | Path) -> list[tuple[tuple[float, float, int], dict[str, int]]]:
    """Query JSONL: one {"x", "y", "floor", "fp"} object per line."""
    queries = []
    prefix = f"{path}:"  # formatted once: a line's fingerprint is named by it
    for ln, rec in read_jsonl(path, CliError, prefix):
        if not isinstance(rec, dict) or set(rec) != {"x", "y", "floor", "fp"}:
            raise CliError(f"{path}:{ln}: query needs exactly x, y, floor, fp")
        fp = fingerprint(rec["fp"], f"{prefix}{ln}", CliError)
        try:
            truth = (number(rec["x"], "x"), number(rec["y"], "y"),
                     number(rec["floor"], "floor", integral=True))
        except ValueError:
            raise CliError(f"{path}:{ln}: x, y and floor must be finite numbers, "
                           f"floor an integer")
        queries.append((truth, fp))
    return queries


def cmd_localize(args) -> int:
    from .localization import knn_localize
    from .radiomap import load_radio_map

    if args.rss and args.fingerprint is not None:
        raise CliError("pass a fingerprint via --rss or --fingerprint, not both")
    tree, overrides = effective_config(args)
    *_, loc_cfg = _configs(tree)
    radio_map = load_radio_map(_require_file(args.map, "map file"))
    if args.rss:
        fp = _parse_rss(args.rss)
    elif args.fingerprint:
        path = _require_file(args.fingerprint, "fingerprint file")
        fp = fingerprint(read_json(path, CliError, f"fingerprint file {path}: "),
                         f"fingerprint file {path}", CliError)
    else:
        raise CliError("pass a fingerprint via --rss or --fingerprint")
    result = knn_localize(fp, radio_map, loc_cfg)
    payload = {"x": result.x, "y": result.y, "floor": result.floor}
    print(json.dumps(payload, sort_keys=True))
    if args.out:
        outs = _Outputs(_out_dir(args))
        outs.add_json("location.json", payload)
        outs.add_json("manifest.json", _manifest(
            "localize",
            {"map": args.map, "fingerprint": args.fingerprint,
             "rss": args.rss or []},
            outs.names() + ["manifest.json"], tree, overrides))
        outs.commit()
    return 0


def _report_rows(report) -> list[list[str]]:
    fix = report.fix
    return [[str(qid), _fmt(x0), _fmt(y0), str(f0), _fmt(x), _fmt(y), str(f),
             _fmt(err), str(int(ok))]
            for qid, (x0, y0, f0, x, y, f, err, ok) in enumerate(zip(
                report.truth_x.tolist(), report.truth_y.tolist(),
                report.truth_floor.tolist(), fix.x.tolist(), fix.y.tolist(),
                fix.floor.tolist(), report.error_m.tolist(),
                report.floor_correct.tolist()))]


_REPORT_HEADER = ["query_id", "truth_x", "truth_y", "truth_floor",
                  "est_x", "est_y", "est_floor", "error_m", "floor_correct"]


def cmd_evaluate(args) -> int:
    from .localization import evaluate
    from .radiomap import load_radio_map

    tree, overrides = effective_config(args)
    *_, loc_cfg = _configs(tree)
    radio_map = load_radio_map(_require_file(args.map, "map file"))
    queries = load_queries(_require_file(args.queries, "queries file"))
    report = evaluate(queries, radio_map, loc_cfg)
    out = _out_dir(args)
    outs = _Outputs(out)
    outs.add_csv("report.csv", _REPORT_HEADER, _report_rows(report))
    outs.add_json("summary.json", report.summary())
    outs.add_json("manifest.json", _manifest(
        "evaluate", {"map": args.map, "queries": args.queries},
        outs.names() + ["manifest.json"], tree, overrides))
    outs.commit()
    acc = report.floor_accuracy
    mean = "n/a" if report.mean_error_m is None else f"{report.mean_error_m:.3f} m"
    print(f"wrote {out / 'summary.json'} (floor accuracy {acc:.3f}, "
          f"mean error {mean})")
    return 0


def cmd_sweep(args) -> int:
    from .localization import evaluate, read_fingerprints, vectorize_map
    from .radiomap import load_radio_map

    tree, overrides = effective_config(args)
    *_, loc_cfg = _configs(tree)
    map_path = _require_file(args.map, "map file")
    queries_path = _require_file(args.queries, "queries file")
    try:
        taus = [float(v) for v in args.taus.split(",") if v.strip()]
    except ValueError:
        raise CliError("--taus must be a comma-separated number list")
    if not taus:
        raise CliError("--taus list is empty")
    for tau in taus:
        number(tau, "--taus value", CliError)
    radio_map = load_radio_map(map_path)
    queries = load_queries(queries_path)
    # each fingerprint read once, for every tau
    map_readings = read_fingerprints([e.fp for e in radio_map.entries])
    readings = read_fingerprints([fp for _, fp in queries])
    rows = []
    for tau in taus:
        cfg = replace(loc_cfg, tau=tau)
        index = vectorize_map(radio_map, cfg, map_readings)
        report = evaluate(queries, index, cfg, readings)
        rows.append([_fmt(tau), _fmt(report.floor_accuracy),
                     _fmt(report.mean_error_m), _fmt(report.p50),
                     _fmt(report.p75), _fmt(report.p90)])
    out = _out_dir(args)
    outs = _Outputs(out)
    outs.add_csv("sweep.csv", ["tau", "floor_accuracy", "mean_error_m",
                               "p50", "p75", "p90"], rows)
    outs.add_json("manifest.json", _manifest(
        "sweep", {"map": args.map, "queries": args.queries},
        outs.names() + ["manifest.json"], tree, overrides))
    outs.commit()
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} tau values)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file overriding config defaults")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one dotted config key (repeatable)")
    sub.add_argument("--out", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stridemap",
        description="Indoor localization pipeline: simulate walks, track "
                    "trajectories, build radio maps, evaluate fingerprints.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="generate a sensor trace")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int, help="override the scenario RNG seed")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("track", help="dead-reckon a trace into a trajectory")
    p.add_argument("trace", help="sensor trace JSONL")
    p.add_argument("--graph", help="landmark graph JSON (landmark mode)")
    p.add_argument("--mode", choices=[m.value for m in HeadingSource],
                   help="heading source (default: config pdr.heading_source)")
    p.add_argument("--start", help="initial pose x,y,floor "
                                   "(default: first truth record)")
    _add_common(p)
    p.set_defaults(func=cmd_track)

    p = subs.add_parser("build-map", help="construct a quality-gated radio map")
    p.add_argument("trajectory", help="trajectory JSONL from track")
    p.add_argument("trace", help="sensor trace JSONL with the WiFi scans")
    _add_common(p)
    p.set_defaults(func=cmd_build_map)

    p = subs.add_parser("localize", help="locate a single fingerprint")
    p.add_argument("map", help="radio map JSON")
    p.add_argument("--rss", action="append", metavar="MAC=RSS",
                   help="fingerprint reading (repeatable)")
    p.add_argument("--fingerprint", help="JSON file {mac: rss}")
    _add_common(p)
    p.set_defaults(func=cmd_localize)

    p = subs.add_parser("evaluate", help="score query fingerprints against a map")
    p.add_argument("map", help="radio map JSON")
    p.add_argument("queries", help="query JSONL with embedded truth")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("sweep", help="evaluate across a tau list")
    p.add_argument("map", help="radio map JSON")
    p.add_argument("queries", help="query JSONL with embedded truth")
    p.add_argument("--taus", required=True,
                   help="comma-separated tau values, e.g. -90,-80,-70")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        # every loader's typed error (TraceError, GraphError...) is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
