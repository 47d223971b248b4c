"""The three workloads: what each one feeds the CLI, and the set-up that
writes those inputs before any timing starts.

Every workload runs each subcommand at least once per round, so every
end-to-end metric is measured on every workload; what differs is where the
work sits. Why each workload exists is written in README.md next to this
file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

TAUS = "-90,-85,-80,-75,-70"
QUERY_SHADOWING_DB = 2.0


@dataclass(frozen=True)
class Walk:
    """One recorded walk that the round takes through simulate, track and
    build-map. Its files live under `<name>/` in the work directory."""

    name: str
    scenario: str    # stem of a file in scenarios/
    loops: int       # 1 = the scenario's own waypoints; k repeats the loop k times
    seed: int        # passed to simulate --seed


@dataclass(frozen=True)
class Workload:
    name: str
    walks: tuple[Walk, ...]      # simulated, tracked and mapped every round
    read_map: str                # map the read operations use
    queries: int                 # fingerprints in the query set
    fixes: int                   # single localize calls per round
    # walks run only in the traced run, to time stages at a second length
    probe_walks: tuple[Walk, ...] = ()
    # (short walk, long walk) whose stage times give the scaling exponents
    scale_pair: tuple[str, str] = ("", "")
    # a map built in set-up, in-process, from a walk no round touches
    setup_map: Walk | None = None

    def all_walks(self) -> tuple[Walk, ...]:
        extra = () if self.setup_map is None else (self.setup_map,)
        return self.walks + self.probe_walks + extra


def _walk_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(f"walks:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` for `seed`. `tiny` shrinks every input so the
    self-test can run each workload in seconds."""
    s = _walk_seeds(seed, 8)
    if name == "survey-long":
        # per-sample and per-segment cost dominates one long survey walk
        long = Walk("long", "two_floor_demo", 2 if tiny else 15, s[0])
        unit = Walk("unit", "two_floor_demo", 1, s[0])
        return Workload(name, walks=(long,), read_map="long/map/map.json",
                        queries=50 if tiny else 1000, fixes=1,
                        probe_walks=(unit,), scale_pair=("unit", "long"))
    if name == "crowd-short":
        # many few-minute crowdsourced walks: fixed per-call cost dominates
        kinds = ("two_floor_demo", "mixed_quality_demo")
        n = 2 if tiny else 3
        walks = tuple(Walk(f"w{i}", kinds[i % 2], 1, s[i]) for i in range(n))
        probe = Walk("x4", "two_floor_demo", 2 if tiny else 4, s[7])
        return Workload(name, walks=walks, read_map="w0/map/map.json",
                        queries=50 if tiny else 1000, fixes=1,
                        probe_walks=(probe,), scale_pair=("w0", "x4"))
    if name == "query-batch":
        # the map-read path: load, vectorize and kNN over a large query set
        short = Walk("short", "two_floor_demo", 1, s[0])
        probe = Walk("x4", "two_floor_demo", 2 if tiny else 4, s[7])
        big = Walk("survey", "two_floor_demo", 2 if tiny else 10, s[1])
        return Workload(name, walks=(short,), read_map="inputs/map.json",
                        queries=50 if tiny else 4000, fixes=3,
                        probe_walks=(probe,), scale_pair=("short", "x4"),
                        setup_map=big)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("survey-long", "crowd-short", "query-batch")


@dataclass
class Expected:
    """What a correct run of each walk must print or write, worked out in
    set-up from the walk plan, and the query set."""

    scans: dict[str, int] = field(default_factory=dict)
    duration_s: dict[str, float] = field(default_factory=dict)
    accel_samples: dict[str, int] = field(default_factory=dict)
    queries: list = field(default_factory=list)


def _scenario_dict(repo: Path, walk: Walk) -> dict:
    data = json.loads((repo / "scenarios" / f"{walk.scenario}.json").read_text())
    wp = data["walk"]["waypoints"]
    data["walk"]["waypoints"] = wp + wp[1:] * (walk.loops - 1)
    return data


def _query_positions(n: int, corridors: dict) -> list:
    """n points evenly spaced along the corridor polylines of every floor.
    A fixed grid keeps the query set's mean error steady from seed to seed;
    the seed varies the shadowing noise of each fingerprint."""
    legs = [(int(floor), a, b) for floor in sorted(corridors)
            for a, b in corridors[floor]]
    lengths = [math.dist(a, b) for _, a, b in legs]
    step = sum(lengths) / n
    out = []
    for i in range(n):
        d = (i + 0.5) * step
        for (floor, (ax, ay), (bx, by)), length in zip(legs, lengths):
            if d <= length:
                u = d / length
                out.append((ax + u * (bx - ax), ay + u * (by - ay), floor))
                break
            d -= length
    return out


def _build_map_in_process(data: dict, walk: Walk, path: Path) -> None:
    """What simulate, track and build-map write for `walk`, without the
    JSONL round trip (floats survive it exactly, so the map is the same)."""
    from stridemap import (attach_periodicities, build_radio_map, detect_steps,
                           generate_trace, run_pdr, save_radio_map,
                           scenario_from_dict)

    sc = scenario_from_dict(data)
    trace = generate_trace(sc.environment, sc.walk, replace(sc.noise, seed=walk.seed))
    start = (float(trace.truth.xy[0, 0]), float(trace.truth.xy[0, 1]),
             float(trace.truth.floor[0]))
    traj = run_pdr(trace, sc.environment.graph, start)
    attach_periodicities(traj, detect_steps(trace))
    radio_map = build_radio_map(traj, trace.wifi)
    if not radio_map.entries:
        raise RuntimeError(f"set-up map from walk {walk.name!r} is empty")
    save_radio_map(radio_map, path)


def setup_inputs(repo: Path, work: Path, wl: Workload, seed: int) -> Expected:
    """Write every input file the workload's operations read into
    `work/inputs`, and return what their outputs must show."""
    from stridemap import generate_test_queries, plan_walk, scenario_from_dict

    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    exp = Expected()
    for walk in wl.all_walks():
        data = _scenario_dict(repo, walk)
        if walk is wl.setup_map:
            _build_map_in_process(data, walk, inputs / "map.json")
            continue
        (inputs / f"{walk.name}.json").write_text(json.dumps(data))
        (inputs / f"{walk.name}_graph.json").write_text(
            json.dumps(data["environment"]["graph"]))
        sc = scenario_from_dict(data)
        plan = plan_walk(sc.environment, sc.walk)
        exp.duration_s[walk.name] = plan.duration_s
        exp.scans[walk.name] = math.floor(plan.duration_s / sc.walk.scan_interval_s + 1e-9)
        exp.accel_samples[walk.name] = plan.total_ticks + 1

    base = scenario_from_dict(_scenario_dict(repo, Walk("", "two_floor_demo", 1, 0)))
    positions = _query_positions(wl.queries, base.environment.corridors)
    noise = replace(base.noise, seed=random.Random(f"queries:{seed}").randrange(1, 2**31),
                    shadowing_std=QUERY_SHADOWING_DB)
    exp.queries = generate_test_queries(base.environment, positions, noise)
    with open(inputs / "queries.jsonl", "w") as fh:
        for (x, y, floor), fp in exp.queries:
            fh.write(json.dumps({"x": x, "y": y, "floor": floor, "fp": fp}) + "\n")
    for i in range(wl.fixes):
        (inputs / f"fp{i}.json").write_text(json.dumps(exp.queries[i][1]))
    return exp
