"""Command line pipeline around the toolkit.

Subcommands cover the full workflow: simulate a scripted walk, track it
into a trajectory, build a radio map, and localize or evaluate query
fingerprints against that map. Each cmd_* makes one _Run, which reads
the effective config and collects the files the command writes; its
commit adds manifest.json, echoing the config and listing exactly those
files, and writes them all atomically into --out. Identical inputs and
flags produce byte-identical files.

A command runs without cyclic garbage collection. The pipeline's data
(arrays, lists, dicts, frozen dataclasses) makes no reference cycles, so
a collection frees only the argparse parser's few hundred objects, the
same on any walk, yet walks every object the command holds. main pauses
the collector while its command runs and puts it back as it found it.
entry, the process entry of both `stridemap` and `python -m
stridemap.cli`, freezes the heap once main returns, so the collections
of interpreter shutdown skip it.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

# Set before the first numpy import, so OpenBLAS reads it: knn's small
# per-chunk product gains nothing from a second BLAS thread, and with two
# some runs stalled for a second. A value the user exports still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (HEADING_SOURCES, LandmarkConfig, LocalizationConfig,
                     PdrConfig, QualityConfig, SensorConfig, in_order,
                     section_reader)
from .records import (FLOOR, POSITION, RSS_RULE, SCALARS, VALUE_MAX,
                      clean_record, field_reader, fingerprint, members, number,
                      read_json, read_jsonl, rss, shown, version)

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


def default_config() -> dict:
    """Fresh copy of the full parameter tree."""
    return {"version": CONFIG_VERSION,
            **{section: asdict(cls()) for section, cls in SECTIONS.items()}}


class CliError(Exception):
    """Reported to stderr with a nonzero exit, no traceback."""


# The reader of a partial config tree: every section and leaf optional.
_read_tree = members({"version": version(CONFIG_VERSION), **{
    section: section_reader(cls) for section, cls in SECTIONS.items()}})


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


# ---------------------------------------------------------------------------
# deterministic output plumbing


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not found: {path}")
    return p


class _Run:
    """One command's run. Made where the command first reads its config, it
    holds the effective tree and --set overrides (track's --mode applied),
    one config object per section as an attribute named after it (run.pdr,
    run.quality, ...), and the files the command adds. Every section is
    read, as the manifest records the whole tree: a band out of order raises
    CliError in any command. --mode overrides a --config file's heading
    source, and a --set of another one is refused. commit writes the files
    and manifest.json."""

    def __init__(self, args):
        self.command = args.command
        self.tree, self.overrides = effective_config(args)
        mode = getattr(args, "mode", None)
        if mode:
            chosen = self.overrides.get("pdr.heading_source", mode)
            if chosen != mode:
                raise CliError(f"--mode {mode} contradicts --set pdr.heading_source={chosen}")
            self.tree["pdr"]["heading_source"] = mode
        for section, cls in SECTIONS.items():
            setattr(self, section, in_order(cls(**self.tree[section]), f"config.{section}",
                                            CliError))
        self.out = Path(args.out or ".")
        self.pending: list[tuple[str, Callable]] = []

    def add(self, name: str, write: Callable) -> None:
        """Write the file name with write(fh), fh the open file, at commit."""
        self.pending.append((name, write))

    def add_json(self, name: str, obj) -> None:
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        self.add(name, lambda fh: fh.write(text))

    def add_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        self.add(name, lambda fh: csv.writer(fh, lineterminator="\n")
                 .writerows([header, *rows]))

    def commit(self, inputs: dict, **extra) -> None:
        """Add manifest.json, which lists the inputs, every file added, the
        tree and the overrides, and extra; then create --out and write each
        file atomically: each goes to a temp file first, and all are renamed
        into place only once every one is written, so a writer that fails
        leaves no file and no temp file."""
        names = [name for name, _ in self.pending] + ["manifest.json"]
        self.add_json("manifest.json", {
            "command": self.command, "inputs": inputs,
            "outputs": sorted(names), "overrides": self.overrides,
            "config": self.tree, **extra})
        self.out.mkdir(parents=True, exist_ok=True)
        tmps = [self.out / f"{name}.tmp" for name in names]
        try:
            for tmp, (_, write) in zip(tmps, self.pending):
                with open(tmp, "w") as fh:
                    write(fh)
            for tmp, name in zip(tmps, names):
                os.replace(tmp, self.out / name)
        finally:
            for tmp in tmps:
                tmp.unlink(missing_ok=True)


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    from .sensors import dump_trace
    from .sim import generate_trace, load_scenario

    run = _Run(args)
    if args.seed is not None:
        number(args.seed, "--seed", CliError, integral=True, at_least=0)
    scn_path = _require_file(args.scenario, "scenario file")
    scenario = load_scenario(scn_path)
    noise = scenario.noise
    if args.seed is not None:
        noise = replace(noise, seed=args.seed)
    trace = generate_trace(scenario.environment, scenario.walk, noise)
    run.add("trace.jsonl", lambda fh: dump_trace(trace, fh))
    run.commit({"scenario": args.scenario}, seed=args.seed)
    print(f"wrote {run.out / 'trace.jsonl'} ({len(trace.wifi)} scans, "
          f"{trace.accel.t[-1]:.1f} s)")
    return 0


@dataclass(init=False, repr=False, eq=False)  # never made: no methods to build
class _Query:
    """A query's truth pose and fingerprint, as a query file line holds
    them; the fields declare the ranges of a query and of --start."""

    x: float = field(metadata=POSITION)
    y: float = field(metadata=POSITION)
    floor: int = field(metadata=FLOOR)
    fp: dict[str, int]


_TRUTH = fields(_Query)[:3]  # x, y, floor
_clean_query = clean_record(_Query)


def _start(text: str) -> tuple[float, float, float]:
    """--start's x,y,floor: x, y and an integral floor within +-VALUE_MAX,
    the bound of a trace's truth values, each read by the field_reader of
    its _Query field, as every loader reads a pose."""
    try:
        x, y, floor = (field_reader(f)(float(part), f.name, ValueError)
                       for f, part in zip(_TRUTH, text.split(","), strict=True))
        return x, y, float(floor)
    except ValueError:
        raise CliError(f"--start must be x,y,floor with x and y finite and in "
                       f"[-{VALUE_MAX:g}, {VALUE_MAX:g}] m and an integer floor "
                       f"in the same range, got {shown(text)}")


def cmd_track(args) -> int:
    from .landmarks import load_landmark_graph
    from .pdr import run_pdr, trajectory_errors
    from .sensors import load_trace
    from .trajectory import dump_trajectory

    run = _Run(args)
    trace = load_trace(_require_file(args.trace, "trace file"))
    graph = None
    if run.pdr.heading_source == "landmark":
        if not args.graph:
            raise CliError("landmark mode requires --graph")
        graph = load_landmark_graph(_require_file(args.graph, "graph file"))
    if args.start:
        initial = _start(args.start)
    elif len(trace.truth):
        initial = tuple(trace.truth.v[0].tolist())  # x, y, floor
    else:
        raise CliError("trace has no ground truth; pass --start x,y,floor")

    traj = run_pdr(trace, graph, initial, run.pdr, run.sensors,
                   run.landmarks, run.quality)
    run.add("trajectory.jsonl", lambda fh: dump_trajectory(traj, fh))

    have_truth = len(trace.truth) > 0
    if have_truth:
        errors = trajectory_errors(traj, trace)
        mean_error = float(errors.mean()) if len(errors) else None
        run.add_json("summary.json", {"mean_error_m": mean_error})
        ranked = sorted(float(e) for e in errors)
        rows = [[_fmt(e), _fmt((i + 1) / len(ranked))]
                for i, e in enumerate(ranked)]
        run.add_csv("error_cdf.csv", ["error_m", "cdf"], rows)
    else:
        print("notice: trace has no ground truth; error stats omitted",
              file=sys.stderr)
    run.commit({"trace": args.trace, "graph": args.graph})
    if have_truth:
        print(f"wrote {run.out / 'trajectory.jsonl'} (mean error "
              f"{mean_error:.3f} m, {len(traj.visits)} landmark visits)")
    else:
        print(f"wrote {run.out / 'trajectory.jsonl'}")
    return 0


def cmd_build_map(args) -> int:
    from .radiomap import build_radio_map, save_radio_map
    from .tracefile import load_scans
    from .trajectory import load_trajectory

    run = _Run(args)
    traj = load_trajectory(_require_file(args.trajectory, "trajectory file"))
    scans = load_scans(_require_file(args.trace, "trace file"))

    radio_map = build_radio_map(traj, scans, run.quality)
    if not radio_map.entries:
        print("warning: radio map is empty", file=sys.stderr)
    rows = [[str(idx), _fmt(belief), str(accepted)]
            for idx, (belief, accepted) in enumerate(radio_map.segments)]
    run.add("map.json", lambda fh: save_radio_map(radio_map, fh))
    run.add_csv("segments.csv", ["segment_id", "belief", "accepted_scans"], rows)
    run.commit({"trajectory": args.trajectory, "trace": args.trace})
    print(f"wrote {run.out / 'map.json'} ({len(radio_map.entries)} entries from "
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
    """Query JSONL: one {"x", "y", "floor", "fp"} object per line, read as
    _json_queries reads it: the same queries, or the same CliError.

    Each line is parsed by orjson, and a query _clean_query passes is taken
    as parsed. A file with a line orjson refuses (NaN, 1e400, a lone
    surrogate escape, a BOM, a byte that is not UTF-8, anything not JSON),
    a query the check doubts (an integral x, an RSS of -50.0, an integer
    past 64 bits, which orjson 3.8 reads as a float) or a lone CR, which
    ends a line only in text mode, is read again from its text by
    _json_queries: json decides what orjson refuses, and words every error
    from its own values. Blank lines and CRLF are as read_jsonl has them."""
    import orjson  # only the query readers, which load numpy anyway, pay for it

    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n")
    queries = []
    if b"\r" not in data:
        for line in data.split(b"\n"):
            try:
                rec = orjson.loads(line)
            except orjson.JSONDecodeError:
                if line.strip(b" \t"):  # not blank
                    break
                continue
            if not _clean_query(rec):
                break
            queries.append(((rec["x"], rec["y"], rec["floor"]), rec["fp"]))
        else:
            return queries
    return _json_queries(path)


def _json_queries(path: str | Path) -> list[tuple[tuple[float, float, int], dict[str, int]]]:
    """The queries of a file read a line at a time by json.loads
    (read_jsonl), each field by its reader, which words the first fault."""
    queries = []
    prefix = f"{path}:"  # formatted once: a line's fingerprint is named by it
    for ln, rec in read_jsonl(path, CliError, prefix):
        if not isinstance(rec, dict) or set(rec) != {"x", "y", "floor", "fp"}:
            raise CliError(f"{path}:{ln}: query needs exactly x, y, floor, fp")
        fp = fingerprint(rec["fp"], f"{prefix}{ln}", CliError)
        try:
            truth = tuple(SCALARS[f.type](rec[f.name], f.name, ValueError) for f in _TRUTH)
        except ValueError:
            raise CliError(f"{path}:{ln}: x, y and floor must be finite numbers, "
                           f"floor an integer")
        for f, value in zip(_TRUTH, truth):
            number(value, f"{prefix}{ln}: {f.name}", CliError, **f.metadata)
        queries.append((truth, fp))
    return queries


def cmd_localize(args) -> int:
    from .localization import knn_localize
    from .radiomap import load_radio_map

    if args.rss and args.fingerprint is not None:
        raise CliError("pass a fingerprint via --rss or --fingerprint, not both")
    run = _Run(args)
    radio_map = load_radio_map(_require_file(args.map, "map file"))
    if args.rss:
        fp = _parse_rss(args.rss)
    elif args.fingerprint:
        path = _require_file(args.fingerprint, "fingerprint file")
        fp = fingerprint(read_json(path, CliError, f"fingerprint file {path}: "),
                         f"fingerprint file {path}", CliError)
    else:
        raise CliError("pass a fingerprint via --rss or --fingerprint")
    result = knn_localize(fp, radio_map, run.localization)
    payload = {"x": result.x, "y": result.y, "floor": result.floor}
    print(json.dumps(payload, sort_keys=True))
    if args.out:
        run.add_json("location.json", payload)
        run.commit({"map": args.map, "fingerprint": args.fingerprint,
                    "rss": args.rss or []})
    return 0


def _report_rows(report) -> list[tuple[str, ...]]:
    """report.csv's rows, built a column at a time from each column's
    tolist(): a float column's numbers written by repr, as _fmt writes
    them, an integer or bool column's by str, the bools as 1 and 0."""
    fix = report.fix
    return list(zip(
        map(str, range(len(report.error_m))),
        map(repr, report.truth_x.tolist()), map(repr, report.truth_y.tolist()),
        map(str, report.truth_floor.tolist()),
        map(repr, fix.x.tolist()), map(repr, fix.y.tolist()),
        map(str, fix.floor.tolist()), map(repr, report.error_m.tolist()),
        map(str, report.floor_correct.astype(int).tolist())))


_REPORT_HEADER = ["query_id", "truth_x", "truth_y", "truth_floor",
                  "est_x", "est_y", "est_floor", "error_m", "floor_correct"]


def cmd_evaluate(args) -> int:
    from .localization import evaluate
    from .radiomap import load_radio_map

    run = _Run(args)
    radio_map = load_radio_map(_require_file(args.map, "map file"))
    queries = load_queries(_require_file(args.queries, "queries file"))
    report = evaluate(queries, radio_map, run.localization)
    run.add_csv("report.csv", _REPORT_HEADER, _report_rows(report))
    run.add_json("summary.json", report.summary())
    run.commit({"map": args.map, "queries": args.queries})
    acc = report.floor_accuracy
    mean = "n/a" if report.mean_error_m is None else f"{report.mean_error_m:.3f} m"
    print(f"wrote {run.out / 'summary.json'} (floor accuracy {acc:.3f}, "
          f"mean error {mean})")
    return 0


def cmd_sweep(args) -> int:
    from .localization import evaluate, read_fingerprints, vectorize_map
    from .radiomap import load_radio_map

    run = _Run(args)
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
    # each fingerprint read, and each pose column built, once for every tau
    map_readings = read_fingerprints([e.fp for e in radio_map.entries])
    readings = read_fingerprints([fp for _, fp in queries])
    rows = []
    index = report = None
    for tau in taus:
        cfg = replace(run.localization, tau=tau)
        index = vectorize_map(radio_map, cfg, map_readings, index)
        report = evaluate(queries, index, cfg, readings, report)
        rows.append([_fmt(tau), _fmt(report.floor_accuracy),
                     _fmt(report.mean_error_m), _fmt(report.p50),
                     _fmt(report.p75), _fmt(report.p90)])
    run.add_csv("sweep.csv", ["tau", "floor_accuracy", "mean_error_m",
                              "p50", "p75", "p90"], rows)
    run.commit({"map": args.map, "queries": args.queries})
    print(f"wrote {run.out / 'sweep.csv'} ({len(rows)} tau values)")
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
    p.add_argument("--mode", choices=HEADING_SOURCES,
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
    """Run one command and return its exit code. Automatic garbage
    collection is paused while it runs and put back as the caller had it on
    every way out: a return, an error: line or argparse's SystemExit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except (CliError, ValueError, OSError) as exc:
            # every loader's typed error (TraceError, GraphError...) is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


def entry() -> int:
    """The process entry of `stridemap` and `python -m stridemap.cli`:
    main's exit code. Once main returns, gc.freeze moves every object out of
    the collector's reach, so interpreter shutdown does not collect over the
    whole heap; atexit handlers, the stdio flush and the finalizers that
    reference counting runs still run."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
