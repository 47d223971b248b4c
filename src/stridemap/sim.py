"""Synthetic building walks with sensor and ground-truth generation.

A scenario bundles an environment (corridors, landmark graph, access
points, stair connectors), a walk script over the graph, and a noise
model. Planning happens on an integer tick grid (one inertial sample per
tick) so phase boundaries, step completions, and sensor samples coincide
exactly; the accelerometer waveform is a chain of raised-cosine bumps
whose peaks land precisely on step completion ticks, which makes the
detected step train line up with the true one when noise is off.

Channel synthesis is linear in walk length: the truth state at a set of
sorted ticks takes one bisected slice per phase, and all step bumps are
added in one vectorized pass.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .landmarks import Edge, GraphError, LandmarkGraph, graph_from_dict
from .sensors import (RSS_MAX_DBM, SCALARS, Channel, SensorTrace,
                      TruthChannel, WifiScan, array, members, number,
                      read_json, record, shown, text)

TICK = 0.02                 # s per tick: 50 Hz inertial sampling
MAG_EVERY = 5               # ticks between magnetometer samples (10 Hz)
BARO_EVERY = 5              # ticks between pressure samples (10 Hz)
TRUTH_EVERY = 50            # ticks between periodic ground-truth records
GRAVITY = 9.81              # m/s^2 accelerometer baseline magnitude
BUMP_AMPLITUDE = 4.0        # m/s^2 peak-over-baseline of a step bump
BASE_PRESSURE = 1013.25     # hPa at floor zero
PRESSURE_PER_FLOOR = 0.45   # hPa lost per floor climbed
TURN_TICKS = 50             # turn-in-place phase length
TURN_ROT_TICKS = 20         # central interval of a turn that rotates
STAIR_STEP_TICKS = 75       # slow stair cadence (1.5 s per step)
RSS_CUTOFF_DBM = -100       # weaker APs are absent from a scan
MAX_WALK_TICKS = 12 * 3600 * 50  # longest walk a plan may hold: 12 h of 50 Hz ticks
FLOOR_ATTENUATION_DB = 12.0  # extra path loss per concrete slab crossed
FALSE_WALK_PERIOD_TICKS = (18, 29, 52, 23)  # arm-shake bump cadence
CHUNK_ELEMENTS = 1 << 14    # (pose, AP) values per WiFi row chunk: 512 KB as Python floats
COORD_MAX_M = 1e6           # largest |x| or |y| of an AP, landmark or corridor point, metres


class ScenarioError(ValueError):
    """Scenario file or walk script violates its contract."""


@dataclass(frozen=True)
class Ap:
    mac: str
    x: float
    y: float
    floor: int
    tx_power_dbm: float
    path_loss_exponent: float


@dataclass(frozen=True)
class CompassZone:
    """Axis-aligned region whose local field skews the compass."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    floor: int
    bias_deg: float


@dataclass(frozen=True)
class Environment:
    floor_height_m: float
    corridors: dict[int, list[list[tuple[float, float]]]]
    graph: LandmarkGraph
    aps: tuple[Ap, ...]
    stairs: tuple[tuple[str, str], ...] = ()  # (lower/upper landmark id pairs)


@dataclass(frozen=True)
class WalkScript:
    """Waypoint walk over the landmark graph.

    stops pause the walker on arrival at a waypoint (every visit).
    irregular_legs walk with the erratic cadence/stride cycles instead of
    the nominal ones; false_walking injects step-like arm motion into
    still intervals without moving the walker.
    """

    waypoints: tuple[str, ...]
    speed_mps: float = 1.26
    step_length_m: float = 0.63
    stops: tuple[tuple[str, float], ...] = ()
    false_walking: tuple[tuple[float, float], ...] = ()
    irregular_legs: frozenset[int] = frozenset()
    irregular_periods: tuple[float, ...] = (0.42, 0.58, 0.74, 0.9)
    irregular_lengths: tuple[float, ...] = (0.33, 0.33, 0.93, 0.93)
    scan_interval_s: float = 2.0
    warmup_s: float = 2.0
    cooldown_s: float = 2.0


@dataclass(frozen=True)
class NoiseModel:
    seed: int = 0
    accel_std: float = 0.0        # m/s^2
    gyro_bias: float = 0.0        # rad/s, constant drift
    gyro_std: float = 0.0         # rad/s
    baro_std: float = 0.0         # hPa
    shadowing_std: float = 0.0    # dB
    compass_zones: tuple[CompassZone, ...] = ()


@dataclass(frozen=True)
class Scenario:
    environment: Environment
    walk: WalkScript
    noise: NoiseModel


# ---------------------------------------------------------------------------
# scenario reading


def _seg_point_dist(px, py, ax, ay, bx, by) -> float:
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def _on_corridor(x: float, y: float, polylines: list[list[tuple[float, float]]]) -> bool:
    for line in polylines:
        for (ax, ay), (bx, by) in zip(line, line[1:]):
            if _seg_point_dist(x, y, ax, ay, bx, by) <= 1e-6:
                return True
    return False


# The noise amplitudes carry their unit in the file: field -> file key.
_UNIT_KEYS = {"accel_std": "accel_std_mps2", "gyro_bias": "gyro_bias_rad_s",
              "gyro_std": "gyro_std_rad_s", "baro_std": "baro_std_hpa",
              "shadowing_std": "shadowing_std_db"}


def _pairs(readers: dict):
    """The reader of a tuple of pairs, each held as an object with every
    key of readers (key -> reader), in pair order."""
    read = members(readers, readers)
    return array(lambda obj, where, error: tuple(read(obj, where, error)[key]
                                                 for key in readers))


def _coordinate(value, where: str, error) -> float:
    """A position's x or y: a finite number within COORD_MAX_M of 0, so
    every distance and its square the model takes stays a float."""
    v = number(value, where, error)
    if not abs(v) <= COORD_MAX_M:
        raise error(f"{where} must be a coordinate in [-{COORD_MAX_M:g}, {COORD_MAX_M:g}] m, "
                    f"got {shown(value)}")
    return v


def _point(value, where: str, error) -> tuple[float, float]:
    xy = array(_coordinate)(value, where, error)
    if len(xy) != 2:
        raise error(f"{where} must be an [x, y] pair")
    return xy


_polylines = array(array(_point, list), list)


def _read_corridors(value, where: str, error) -> dict[int, list[list[tuple[float, float]]]]:
    """Floor -> polylines. A floor key is an integer as str() writes it, so
    neither "01" nor "1_0" stands for floor 1 or 10."""
    if not isinstance(value, dict):
        raise error(f"{where} must be an object")
    corridors = {}
    for key, lines in value.items():
        try:
            floor = int(key)
        except ValueError:
            floor = None
        if floor is None or key != str(floor):
            raise error(f"{where} key {key!r} is not a floor number")
        corridors[floor] = _polylines(lines, f"{where}.{key}", error)
    return corridors


def _read_graph(value, where: str, error) -> LandmarkGraph:
    try:
        graph = graph_from_dict(value)
    except GraphError as exc:
        raise error(f"{where}: {exc}") from None
    for i, lm in enumerate(graph.nodes.values()):  # in file order
        for key in ("x", "y"):
            _coordinate(getattr(lm, key), f"{where}.nodes[{i}].{key}", error)
    return graph


_read_scenario = record(Scenario, {
    "environment": record(Environment, {
        "corridors": _read_corridors,
        "graph": _read_graph,
        "aps": array(record(Ap, {"x": _coordinate, "y": _coordinate})),
        "stairs": _pairs({"from": text, "to": text})}),
    "walk": record(WalkScript, {
        "waypoints": array(text),
        "stops": _pairs({"at": text, "duration_s": number}),
        "false_walking": _pairs({"t": number, "duration_s": number}),
        "irregular_legs": array(SCALARS["int"], frozenset),
        "irregular_periods": array(number),
        "irregular_lengths": array(number)}),
    "noise": record(NoiseModel, {"compass_zones": array(record(CompassZone))},
                    _UNIT_KEYS)})


def scenario_from_dict(data: dict) -> Scenario:
    """Read a scenario file object, then check what the field types alone
    cannot: positive sizes, landmark references and corridor membership."""
    sc = _read_scenario(data, "scenario", ScenarioError)
    env, walk, noise = sc.environment, sc.walk, sc.noise
    nodes = env.graph.nodes
    if not env.floor_height_m > 0:
        raise ScenarioError("floor_height_m must be positive")
    macs = [ap.mac for ap in env.aps]
    for i, mac in enumerate(macs):
        if mac in macs[:i]:
            raise ScenarioError(f"duplicate ap mac {mac!r}")
    for frm, to in env.stairs:
        for lid in (frm, to):
            if lid not in nodes:
                raise ScenarioError(f"stair references unknown landmark {lid!r}")
        if nodes[frm].floor == nodes[to].floor:
            raise ScenarioError(f"stair {frm!r}->{to!r} does not change floor")
    for lm in nodes.values():
        lines = env.corridors.get(lm.floor)
        if not lines or not _on_corridor(lm.x, lm.y, lines):
            raise ScenarioError(
                f"landmark {lm.id!r} is not on a floor-{lm.floor} corridor")

    if len(walk.waypoints) < 2:
        raise ScenarioError("walk needs at least two waypoints")
    for wp in walk.waypoints:
        if wp not in nodes:
            raise ScenarioError(f"waypoint {wp!r} is not a landmark")
    for at, duration in walk.stops:
        if at not in nodes:
            raise ScenarioError(f"stop at unknown landmark {at!r}")
        if not duration > 0:
            raise ScenarioError("stop duration must be positive")
    if not walk.speed_mps > 0 or not walk.step_length_m > 0:
        raise ScenarioError("speed and step length must be positive")
    if not walk.scan_interval_s > 0:
        raise ScenarioError("scan interval must be positive")
    if walk.warmup_s < 0 or walk.cooldown_s < 0:
        raise ScenarioError("warmup_s and cooldown_s must be non-negative")
    for leg in walk.irregular_legs:
        if not 0 <= leg < len(walk.waypoints) - 1:
            raise ScenarioError(f"irregular leg index {leg} out of range")
    if any(p <= 0 for p in walk.irregular_periods) or not walk.irregular_periods:
        raise ScenarioError("irregular periods must be positive")
    if any(v <= 0 for v in walk.irregular_lengths) or not walk.irregular_lengths:
        raise ScenarioError("irregular lengths must be positive")

    for name in ("seed", "accel_std", "gyro_std", "baro_std", "shadowing_std"):
        if getattr(noise, name) < 0:
            raise ScenarioError(f"noise.{_UNIT_KEYS.get(name, name)} must be non-negative")
    for zone in noise.compass_zones:
        if zone.x_min > zone.x_max or zone.y_min > zone.y_max:
            raise ScenarioError("compass zone bounds are inverted")
    return sc


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json(path, ScenarioError))


# ---------------------------------------------------------------------------
# walk planning


@dataclass(frozen=True)
class StepSpec:
    """One true step: completion tick, cadence, stride, resulting position."""

    tick: int
    period_ticks: int
    length: float
    x: float
    y: float


@dataclass(frozen=True)
class Phase:
    kind: str  # "still" | "turn" | "walk" | "climb"
    t0: int
    t1: int
    x0: float
    y0: float
    floor0: float
    floor1: float
    heading0: float
    steps: tuple[StepSpec, ...] = ()
    rot0: int = 0
    rot1: int = 0
    omega: float = 0.0


@dataclass
class WalkPlan:
    phases: list[Phase]
    steps: list[StepSpec]
    false_bumps: list[tuple[int, int]]  # (completion tick, period ticks)
    total_ticks: int

    @property
    def scripted_step_count(self) -> int:
        """Peaks a step detector should find: true steps plus arm shakes."""
        return len(self.steps) + len(self.false_bumps)

    @property
    def duration_s(self) -> float:
        return self.total_ticks * TICK


def _ticks(seconds: float, what: str, positive: bool = False) -> int:
    """A duration in whole ticks, at least one when positive; what names
    the scenario key it comes from."""
    t = seconds / TICK
    if not abs(t) <= MAX_WALK_TICKS:  # inf from a vanishing speed, or NaN
        raise ScenarioError(f"{what} ({seconds} s) must be a finite duration "
                            f"within the {MAX_WALK_TICKS * TICK:.0f} s walk budget")
    n = round(t)
    if abs(t - n) > 1e-9:
        raise ScenarioError(f"{what} ({seconds} s) is not a sample-grid multiple")
    if positive and n < 1:
        raise ScenarioError(f"{what} ({seconds} s) must be at least one sample tick ({TICK} s)")
    return int(n)


def _find_edge(graph: LandmarkGraph, a: str, b: str) -> Edge:
    for e in graph.out_edges(a):
        if e.to_id == b:
            return e
    raise ScenarioError(f"waypoints {a!r} -> {b!r} are not connected")


def plan_walk(env: Environment, script: WalkScript) -> WalkPlan:
    """Lay the scripted walk out on the tick grid.

    Walk legs step at the nominal cadence (or the irregular cycles), turns
    in place take one second with the rotation confined to the middle, and
    stair legs are padded so a climb always starts on a whole second,
    keeping the pressure ramp aligned with typical analysis windows.

    A plan longer than MAX_WALK_TICKS (12 h) raises ScenarioError naming the
    key that pushed it over, before any channel array is sized from it.
    """
    g = env.graph
    ids = script.waypoints
    pt_nominal = _ticks(script.step_length_m / script.speed_mps,
                        "walk.step_length_m / walk.speed_mps")
    if pt_nominal < 16:
        raise ScenarioError("step period too short to separate step peaks")
    irr_pt = tuple(_ticks(p, "walk.irregular_periods") for p in script.irregular_periods)
    if min(irr_pt) < 16:
        raise ScenarioError("irregular period too short to separate step peaks")

    stop_for = dict(script.stops)
    phases: list[Phase] = []
    steps_all: list[StepSpec] = []

    first = _find_edge(g, ids[0], ids[1])
    start = g.nodes[ids[0]]
    state = {"tick": 0, "x": start.x, "y": start.y,
             "floor": float(start.floor), "heading": first.heading}

    def budget(ticks: float, what: str) -> None:
        if not state["tick"] + ticks <= MAX_WALK_TICKS:
            raise ScenarioError(f"{what} makes the walk longer than the "
                                f"{MAX_WALK_TICKS * TICK:.0f} s walk budget")

    def stride_count(edge: Edge, period: int) -> int:
        n = edge.distance / script.step_length_m
        budget(n * period, "walk.step_length_m")  # before a list of n strides
        return max(1, round(n))

    def emit_still(dur_ticks: int, what: str) -> None:
        budget(dur_ticks, what)
        if dur_ticks <= 0:
            return
        t0 = state["tick"]
        phases.append(Phase("still", t0, t0 + dur_ticks,
                            state["x"], state["y"], state["floor"],
                            state["floor"], state["heading"]))
        state["tick"] = t0 + dur_ticks

    def emit_turn(target: float) -> None:
        delta = ((target - state["heading"] + math.pi) % (2 * math.pi)) - math.pi
        if abs(delta) < 1e-12:
            state["heading"] = target
            return
        budget(TURN_TICKS, "walk.waypoints")
        t0 = state["tick"]
        margin = (TURN_TICKS - TURN_ROT_TICKS) // 2
        rot0 = t0 + margin
        rot1 = rot0 + TURN_ROT_TICKS
        phases.append(Phase("turn", t0, t0 + TURN_TICKS,
                            state["x"], state["y"], state["floor"],
                            state["floor"], state["heading"],
                            rot0=rot0, rot1=rot1,
                            omega=delta / (TURN_ROT_TICKS * TICK)))
        state["tick"] = t0 + TURN_TICKS
        state["heading"] = target

    def emit_leg(edge: Edge, kind: str, periods: list[int],
                 lengths: list[float], floor_to: float, what: str) -> None:
        budget(sum(periods), what)
        t0 = state["tick"]
        x0, y0, f0 = state["x"], state["y"], state["floor"]
        target = (g.nodes[edge.to_id].x, g.nodes[edge.to_id].y)
        hd = edge.heading
        cx, cy = x0, y0
        tick = t0
        total = t0 + sum(periods)
        specs = []
        for k, (pt, ln) in enumerate(zip(periods, lengths)):
            tick += pt
            if k == len(periods) - 1:
                cx, cy = target  # land exactly on the waypoint
            else:
                cx = cx + ln * math.cos(hd)
                cy = cy + ln * math.sin(hd)
            specs.append(StepSpec(tick=tick, period_ticks=pt, length=ln,
                                  x=cx, y=cy))
        phases.append(Phase(kind, t0, total, x0, y0, f0, floor_to, hd,
                            steps=tuple(specs)))
        steps_all.extend(specs)
        state["tick"] = total
        state["x"], state["y"] = target
        state["floor"] = floor_to
        state["heading"] = hd

    emit_still(_ticks(script.warmup_s, "walk.warmup_s"), "walk.warmup_s")

    for leg_idx, (a, b) in enumerate(zip(ids, ids[1:])):
        edge = _find_edge(g, a, b)
        na, nb = g.nodes[a], g.nodes[b]
        if na.floor != nb.floor:
            if abs(na.floor - nb.floor) != 1:
                raise ScenarioError(
                    f"stair leg {a!r}->{b!r} must span exactly one floor")
            emit_turn(edge.heading)
            pad = (-state["tick"]) % 50  # climbs start on whole seconds
            emit_still(pad, "walk.waypoints")
            n = stride_count(edge, STAIR_STEP_TICKS)
            emit_leg(edge, "climb", [STAIR_STEP_TICKS] * n,
                     [edge.distance / n] * n, float(nb.floor), "walk.step_length_m")
        else:
            emit_turn(edge.heading)
            if leg_idx in script.irregular_legs:
                # erratic strides from the cycle, closed by one long stride
                # onto the waypoint; strides stay below 2.0 so the remainder
                # always lands in [0.15, 2.0]
                if max(script.irregular_lengths) > 1.85:
                    raise ScenarioError("irregular strides must stay below 1.85")
                cyc = script.irregular_lengths
                what = "walk.irregular_lengths"
                budget(edge.distance / max(cyc) * min(irr_pt), what)
                lengths = []
                remaining = edge.distance
                while remaining > 2.0:
                    s = cyc[len(lengths) % len(cyc)]
                    lengths.append(s)
                    remaining -= s
                lengths.append(remaining)
                periods = [irr_pt[k % len(irr_pt)] for k in range(len(lengths))]
            else:
                what = "walk.step_length_m"
                n = stride_count(edge, pt_nominal)
                periods = [pt_nominal] * n
                lengths = [edge.distance / n] * n
            emit_leg(edge, "walk", periods, lengths, float(nb.floor), what)
        if b in stop_for:
            what = f"walk.stops at {b!r}"
            emit_still(_ticks(stop_for[b], what), what)

    emit_still(_ticks(script.cooldown_s, "walk.cooldown_s"), "walk.cooldown_s")
    total = state["tick"]

    false_bumps: list[tuple[int, int]] = []
    for t_start, dur in script.false_walking:
        lo = max(0, round(t_start / TICK))
        hi = min(total, round((t_start + dur) / TICK))
        for ph in phases:
            if ph.kind != "still":
                continue
            w0, w1 = max(lo, ph.t0), min(hi, ph.t1)
            if w1 <= w0:
                continue
            tick = w0
            k = 0
            while True:
                pt = FALSE_WALK_PERIOD_TICKS[k % len(FALSE_WALK_PERIOD_TICKS)]
                if tick + pt > w1:
                    break
                tick += pt
                false_bumps.append((tick, pt))
                k += 1
    false_bumps.sort()

    return WalkPlan(phases=phases, steps=steps_all, false_bumps=false_bumps,
                    total_ticks=total)


# ---------------------------------------------------------------------------
# channel synthesis


def _plan_state(plan: WalkPlan, ticks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ground-truth (x, y, floor, facing) at each requested tick, ticks
    sorted. A phase holds the ticks in [t0, t1), the last one [t0, t1]:
    each is one slice found by bisection."""
    x = np.empty(len(ticks))
    y = np.empty(len(ticks))
    fl = np.empty(len(ticks))
    hd = np.empty(len(ticks))
    for i, ph in enumerate(plan.phases):
        last = i == len(plan.phases) - 1
        lo = np.searchsorted(ticks, ph.t0, "left")
        hi = np.searchsorted(ticks, ph.t1, "right" if last else "left")
        if lo >= hi:
            continue
        sl = slice(lo, hi)
        tt = ticks[sl]
        if ph.kind in ("still", "turn"):
            x[sl] = ph.x0
            y[sl] = ph.y0
            fl[sl] = ph.floor0
        else:
            xp = np.array([ph.t0] + [s.tick for s in ph.steps], dtype=float)
            x[sl] = np.interp(tt, xp, [ph.x0] + [s.x for s in ph.steps])
            y[sl] = np.interp(tt, xp, [ph.y0] + [s.y for s in ph.steps])
            if ph.floor1 != ph.floor0:
                fl[sl] = ph.floor0 + (tt - ph.t0) / (ph.t1 - ph.t0) \
                    * (ph.floor1 - ph.floor0)
            else:
                fl[sl] = ph.floor0
        if ph.kind == "turn":
            prog = np.clip(tt, ph.rot0, ph.rot1) - ph.rot0
            hd[sl] = ph.heading0 + ph.omega * prog * TICK
        else:
            hd[sl] = ph.heading0
    return x, y, fl, hd


def _bump_train(plan: WalkPlan, n: int) -> np.ndarray:
    """Accelerometer magnitude: gravity plus one raised-cosine bump per
    step, peaking exactly at the completion tick. A bump is clipped to
    half the gap to its neighbors so dissimilar cadences never overlap:
    it spans the offsets in [-w_lo, w_hi) around its tick, w_lo and w_hi
    half the smaller of its period and the gap before or after it. As no
    two bumps share a sample, one vectorized add places them all."""
    az = np.full(n, GRAVITY)
    bumps = sorted([(s.tick, s.period_ticks) for s in plan.steps]
                   + plan.false_bumps)
    if not bumps:
        return az
    tick, pt = np.array(bumps, dtype=np.int64).T
    gaps = np.diff(tick)
    w_lo2 = np.minimum(pt, np.concatenate((pt[:1], gaps)))  # twice w_lo
    w_hi2 = np.minimum(pt, np.concatenate((gaps, pt[-1:])))
    first = -(w_lo2 // 2)  # the smallest offset >= -w_lo
    width = (w_hi2 + 1) // 2 - first  # offsets from first to the last below w_hi
    ends = np.cumsum(width)
    offs = np.repeat(first - (ends - width), width) + np.arange(ends[-1])
    per = np.repeat(pt, width)
    idx = np.repeat(tick, width) + offs
    keep = (idx >= 0) & (idx < n)
    az[idx[keep]] += (BUMP_AMPLITUDE / 2) \
        * (1 + np.cos(2 * np.pi * offs[keep] / per[keep]))
    return az


def _libm(fn, a: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) at each v of a as Python calls it: numpy's may differ in the last bit."""
    out = map(fn, a.ravel().tolist(), *map(repeat, args))
    return np.fromiter(out, float, a.size).reshape(a.shape)


def _readings(env: Environment, x, y, floor, shadowing_std, rng) -> Iterator[dict[str, int]]:
    """The readings of one scan at each pose (x[i], y[i], floor[i]), in order.

    An AP's level is log-distance path loss, distance floored at 1 m, plus
    a per-slab penalty (without it, poses on adjacent floors differ only
    by a vertical leg that rounding can erase), less a shadowing draw. It
    is clipped at RSS_MAX_DBM (0 dBm, the top of every loader's range) and
    rounded half-even to whole dBm; an AP that rounds below RSS_CUTOFF_DBM,
    or whose level is NaN or -inf, is absent and never reaches the int
    cast. Poses go in row chunks of about CHUNK_ELEMENTS (pose, AP) values,
    each drawing in one row-major rng.normal call: the stream of scalar
    draws pose by pose, AP by AP.
    """
    macs = [ap.mac for ap in env.aps]
    ap_x, ap_y, ap_floor, tx, ple = np.array([(
        ap.x, ap.y, ap.floor, ap.tx_power_dbm, ap.path_loss_exponent)
        for ap in env.aps], dtype=float).reshape(-1, 5).T
    step = max(1, CHUNK_ELEMENTS // max(1, len(macs)))
    for lo in range(0, len(x), step):
        rows = slice(lo, lo + step)
        df = floor[rows, None] - ap_floor
        dz = df * env.floor_height_m
        d = np.sqrt(_libm(pow, x[rows, None] - ap_x, 2)
                    + _libm(pow, y[rows, None] - ap_y, 2) + dz * dz)
        level = (tx - 10.0 * ple * _libm(math.log10, np.maximum(d, 1.0))
                 - FLOOR_ATTENUATION_DB * np.abs(df))
        if shadowing_std > 0:
            level -= rng.normal(0.0, shadowing_std, level.shape)
        dbm = np.rint(np.minimum(level, RSS_MAX_DBM))
        heard = dbm >= RSS_CUTOFF_DBM
        dbm = np.where(heard, dbm, 0).astype(np.int64)
        yield from (dict(compress(zip(macs, row), keep))
                    for row, keep in zip(dbm.tolist(), heard.tolist()))


def _zone_bias(zones: tuple[CompassZone, ...], x, y, floor) -> np.ndarray:
    bias = np.zeros(len(x))
    open_mask = np.ones(len(x), dtype=bool)
    for z in zones:
        inside = open_mask & (x >= z.x_min) & (x <= z.x_max) \
            & (y >= z.y_min) & (y <= z.y_max) & (np.abs(floor - z.floor) <= 0.5)
        bias[inside] = math.radians(z.bias_deg)
        open_mask &= ~inside
    return bias


def _compass(plan: WalkPlan, ticks: np.ndarray,
             zones: tuple[CompassZone, ...]) -> np.ndarray:
    """Magnetometer values at each tick: the unit vector of the facing,
    biased inside compass zones, in the horizontal plane."""
    x, y, fl, hd = _plan_state(plan, ticks)
    psi = hd + _zone_bias(zones, x, y, fl)
    v = np.zeros((len(ticks), 3))
    v[:, 0] = np.cos(psi)
    v[:, 1] = np.sin(psi)
    return v


def _truth(plan: WalkPlan) -> TruthChannel:
    """Ground truth at the walk's ends, every phase boundary, every step
    and every TRUTH_EVERY-th tick."""
    marks = {0, plan.total_ticks}
    for ph in plan.phases:
        marks.add(ph.t0)
        marks.add(ph.t1)
    for s in plan.steps:
        marks.add(s.tick)
    marks.update(range(0, plan.total_ticks + 1, TRUTH_EVERY))
    ticks = np.array(sorted(marks))
    x, y, fl, _ = _plan_state(plan, ticks)
    return TruthChannel(t=ticks * TICK, xy=np.column_stack([x, y]), floor=fl)


def generate_trace(env: Environment, script: WalkScript,
                   noise: NoiseModel) -> SensorTrace:
    """Simulate the scripted walk into a sensor trace with embedded truth.

    Each channel draws from its own child stream of the master seed, so
    enabling noise on one channel never perturbs another. Identical inputs
    produce identical traces.
    """
    plan = plan_walk(env, script)
    n = plan.total_ticks + 1
    t_all = np.arange(n) * TICK
    ss = np.random.SeedSequence(noise.seed)
    rng_accel, rng_gyro, _rng_mag, rng_baro, rng_wifi, _rng_q = \
        [np.random.default_rng(s) for s in ss.spawn(6)]

    # each vector channel's values are written into its final (n, 3) array;
    # the bump train's temporaries come and go before the first is made
    az = _bump_train(plan, n)
    accel = Channel(t=t_all, v=np.zeros((n, 3)))
    accel.v[:, 2] = az
    az = accel.v[:, 2]
    if noise.accel_std > 0:
        az += rng_accel.normal(0.0, noise.accel_std, n)

    gyro = Channel(t=t_all, v=np.zeros((n, 3)))
    wz = gyro.v[:, 2]
    for ph in plan.phases:
        if ph.kind == "turn":
            wz[ph.rot0:ph.rot1] = ph.omega
    if noise.gyro_bias:
        wz += noise.gyro_bias
    if noise.gyro_std > 0:
        wz += rng_gyro.normal(0.0, noise.gyro_std, n)

    mag_ticks = np.arange(0, plan.total_ticks + 1, MAG_EVERY)
    mag = Channel(t=mag_ticks * TICK, v=_compass(plan, mag_ticks, noise.compass_zones))

    baro_ticks = np.arange(0, plan.total_ticks + 1, BARO_EVERY)
    _, _, b_floor, _ = _plan_state(plan, baro_ticks)
    pressure = BASE_PRESSURE - PRESSURE_PER_FLOOR * b_floor
    if noise.baro_std > 0:
        pressure = pressure + rng_baro.normal(0.0, noise.baro_std, len(pressure))
    baro = Channel(t=baro_ticks * TICK, v=pressure)

    scan_step = _ticks(script.scan_interval_s, "walk.scan_interval_s", positive=True)
    scan_ticks = np.arange(scan_step, plan.total_ticks + 1, scan_step)
    sx, sy, sf, _ = _plan_state(plan, scan_ticks)
    scans = list(map(WifiScan, (scan_ticks * TICK).tolist(),
                     _readings(env, sx, sy, sf, noise.shadowing_std, rng_wifi)))

    return SensorTrace(accel=accel, gyro=gyro, mag=mag, baro=baro,
                       wifi=scans, truth=_truth(plan))


def generate_test_queries(
    env: Environment,
    positions: list[tuple[float, float, int]],
    noise: NoiseModel,
) -> list[tuple[tuple[float, float, int], dict[str, int]]]:
    """Fingerprints at known poses from the same propagation model.

    Shadowing draws come from a stream independent of every trace channel,
    so queries vary with the seed without disturbing trace generation.
    """
    rng = np.random.default_rng(np.random.SeedSequence(noise.seed).spawn(6)[5])
    x, y, floor = (np.array([float(p[i]) for p in positions]) for i in range(3))
    keys = [(float(px), float(py), int(pf)) for px, py, pf in positions]
    return list(zip(keys, _readings(env, x, y, floor, noise.shadowing_std, rng)))
