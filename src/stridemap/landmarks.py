"""Landmark detection rules and the landmark graph.

Landmarks are positions with a known sensor signature: a brief stop (doors),
a sharp turn (corners), or the start/end of a pressure ramp (stairs and
elevators). The graph connects them with directed edges carrying the true
heading and distance of the connecting path. detect_events builds a walk's
event list from the three detectors; the detectors' thresholds are
LandmarkConfig, in stridemap.config.

Each detector reads its signal in one pass. The stop detector and the
stop mask of the turn detector read the runs of motion labels
(sensors.motion_runs); the turn detector reads runs of above-threshold
gyro windows; the pressure detector reads runs of equal sign among the
changes from each occupied pressure window to the next, so each ramp's
length is its run's, never rescanned window by window.
"""

from __future__ import annotations

import enum
import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from pathlib import Path

import numpy as np

from .config import LandmarkConfig, SensorConfig
from .records import (FLOOR, POSITION, array, choice, flag, members, number,
                      read_json, record, shown, text)
from .sensors import MotionState, SensorTrace, motion_runs

# Gyro events inside a confirmed stop are phone fidgeting, not corners.
# A stop is confirmed once this many consecutive windows classify Still;
# shorter stepping gaps (turning at a corner) must not mask real turns.
STILL_SUPPRESS_LABELS = 2


class GraphError(ValueError):
    """Raised when a landmark graph file is malformed or inconsistent."""


class RuleKind(enum.Enum):
    ACC = "acc"
    GYRO = "gyro"
    BARO_IN = "baro_in"
    BARO_OUT = "baro_out"


@dataclass(frozen=True)
class Rule:
    """A landmark's expected signature; turn_sign restricts gyro matches
    to left (+1) or right (-1) turns when set."""

    kind: RuleKind
    turn_sign: int | None = None


@dataclass(frozen=True)
class LandmarkEvent:
    """A detected landmark signature.

    auxiliary carries the integrated signed turn angle (gyro) or the signed
    pressure change (baro); t_end closes the interval the signature spanned.
    """

    t: float
    kind: RuleKind
    auxiliary: float = 0.0
    t_end: float = 0.0


@dataclass(frozen=True)
class Landmark:
    id: str
    x: float = field(metadata=POSITION)
    y: float = field(metadata=POSITION)
    floor: int = field(metadata=FLOOR)
    rules: tuple[Rule, ...] = ()


@dataclass(frozen=True)
class Edge:
    """Directed edge; heading is radians CCW from +x in [0, 2*pi)."""

    from_id: str
    to_id: str
    heading: float
    distance: float


@dataclass
class LandmarkGraph:
    nodes: dict[str, Landmark]
    edges: list[Edge]
    _out: dict[str, list[Edge]] = field(default_factory=dict, repr=False)
    # reachable's result by source landmark, found once per graph object
    _paths: dict[str, dict[str, tuple[float, float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._out = {}
        for e in self.edges:
            self._out.setdefault(e.from_id, []).append(e)

    def out_edges(self, landmark_id: str) -> list[Edge]:
        return self._out.get(landmark_id, [])

    def reachable(self, src: str) -> dict[str, tuple[float, float]]:
        """Shortest directed path distance to every landmark reachable from
        src, with the heading of the path's final (arriving) edge."""
        if src in self._paths:
            return self._paths[src]
        dist: dict[str, tuple[float, float]] = {src: (0.0, 0.0)}
        pq = [(0.0, src)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist.get(u, (math.inf,))[0]:
                continue
            for e in self.out_edges(u):
                nd = d + e.distance
                if nd < dist.get(e.to_id, (math.inf,))[0] - 1e-12:
                    dist[e.to_id] = (nd, e.heading)
                    heapq.heappush(pq, (nd, e.to_id))
        dist.pop(src, None)
        self._paths[src] = dist
        return dist


def sgn(x: float) -> int:
    """Sign: 1 for positive, -1 for negative, 0 for zero."""
    return int(x > 0) - int(x < 0)


def detect_acc_landmarks(
    motion: list[tuple[float, MotionState]],
    cfg: LandmarkConfig = LandmarkConfig(),
) -> list[LandmarkEvent]:
    """Stops bracketed by walking: Walking >= walking_min, Still within
    [still_min, still_max], Walking >= walking_min. Event time is the start
    of the Still run."""
    runs = motion_runs(motion)
    events = []
    for (_, b0, b1, _), (state, start, end, _), (_, a0, a1, _) in zip(
            runs, runs[1:], runs[2:]):
        if (state is MotionState.STILL
                and min(b1 - b0, a1 - a0) >= cfg.walking_min_s
                and cfg.still_min_s <= end - start <= cfg.still_max_s):
            events.append(LandmarkEvent(t=start, kind=RuleKind.ACC,
                                        auxiliary=end - start, t_end=end))
    return events


def detect_gyro_landmarks(
    trace: SensorTrace,
    cfg: LandmarkConfig = LandmarkConfig(),
    sensor_cfg: SensorConfig = SensorConfig(),
    motion: list[tuple[float, MotionState]] | None = None,
) -> list[LandmarkEvent]:
    """Turns: tumbling windows of the vertical angular rate whose absolute
    mean exceeds the rate threshold. Consecutive above-threshold windows
    merge into one event at the first crossing; auxiliary is the integrated
    signed angle over the merged interval.

    When motion labels are supplied, events inside a confirmed stop
    (STILL_SUPPRESS_LABELS consecutive Still windows) are suppressed.
    """
    w = sensor_cfg.gyro_window
    t = trace.gyro.t
    if len(t) < w:
        return []
    wz = trace.gyro.v[:, 2]
    n_win = len(t) // w
    means = wz[: n_win * w].reshape(n_win, w).mean(axis=1)
    above = np.abs(means) > cfg.gyro_rate_threshold

    dt = np.empty_like(t)
    dt[:-1] = np.diff(t)
    dt[-1] = dt[-2] if len(t) > 1 else 0.0

    events = []
    hi = 0  # exclusive end of the current run of windows, in samples
    for is_turn, run in groupby(above.tolist()):
        lo, hi = hi, hi + w * len(list(run))
        if is_turn:
            angle = float(np.sum(wz[lo:hi] * dt[lo:hi]))
            events.append(LandmarkEvent(
                t=float(t[lo]), kind=RuleKind.GYRO, auxiliary=angle,
                t_end=float(t[hi - 1] + dt[hi - 1])))

    if motion:
        stops = [(start, end) for state, start, end, labels in motion_runs(motion)
                 if state is MotionState.STILL and labels >= STILL_SUPPRESS_LABELS]
        starts = [start for start, _ in stops]
        # stops are disjoint and in order: an event is inside one when the
        # last stop starting at or before it ends at or after it
        events = [ev for ev in events
                  if not ((k := bisect_right(starts, ev.t))
                          and stops[k - 1][1] >= ev.t_end)]
    return events


def _baro_window_means(trace: SensorTrace, window_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Means of tumbling pressure windows and each window's end time.

    Only the windows that hold samples are kept, so the arrays are as long
    as the occupied windows, however short the window, and the windows on
    either side of a gap are compared as neighbours: a gap neither breaks
    nor ends a flat run or a ramp.
    """
    t = trace.baro.t
    if len(t) == 0:
        return np.empty(0), np.empty(0)
    t0 = t[0]
    idx = np.floor((t - t0) / window_s).astype(int)
    occupied, slot = np.unique(idx, return_inverse=True)
    sums = np.bincount(slot, weights=trace.baro.v)
    counts = np.bincount(slot)
    return sums / counts, t0 + (occupied + 1) * window_s


def detect_baro_landmarks(
    trace: SensorTrace, cfg: LandmarkConfig = LandmarkConfig()
) -> list[LandmarkEvent]:
    """Pressure ramp entrances and exits from tumbling window means.

    An entrance is a flat window pair followed by a maximal run of
    constant-sign window deltas whose total change exceeds the change
    threshold; an exit is the mirror image. Events alternate: after an
    entrance only an exit can fire, and vice versa. Event time is the
    boundary between the flat region and the ramp; auxiliary is the signed
    pressure change over the ramp.

    The runs of equal sign come from one groupby over the deltas' signs:
    the ramp entered at window i runs to the end of the run holding d[i],
    and the ramp left at window i starts where the run holding d[i - 1]
    starts.
    """
    p, ends = _baro_window_means(trace, cfg.baro_window_s)
    n = len(p)
    if n < 3:
        return []
    d = np.diff(p)  # d[i] = p[i+1] - p[i]
    sign = (d > 0).astype(int) - (d < 0)  # sgn of each delta
    lengths = np.array([len(list(run)) for _, run in groupby(sign.tolist())])
    run_end = np.repeat(np.cumsum(lengths), lengths)  # exclusive, per delta
    run_start = run_end - np.repeat(lengths, lengths)
    i = np.arange(1, n - 1)  # windows with a neighbour on each side
    rise_in = p[run_end[i]] - p[i]
    rise_out = p[i] - p[run_start[i - 1]]
    entrance = ((abs(d[i - 1]) < cfg.baro_flat_threshold) & (sign[i] != 0)
                & (abs(rise_in) > cfg.baro_change_threshold)).tolist()
    exit_ = ((abs(d[i]) < cfg.baro_flat_threshold) & (sign[i - 1] != 0)
             & (abs(rise_out) > cfg.baro_change_threshold)).tolist()
    events: list[LandmarkEvent] = []
    vertical: bool | None = None  # None until first event
    for j in np.flatnonzero(np.logical_or(entrance, exit_)).tolist():
        if entrance[j] and vertical is not True:
            kind, rise, vertical = RuleKind.BARO_IN, rise_in[j], True
        elif exit_[j] and vertical is not False:
            kind, rise, vertical = RuleKind.BARO_OUT, rise_out[j], False
        else:
            continue
        t = float(ends[j + 1])
        events.append(LandmarkEvent(t=t, kind=kind, auxiliary=float(rise), t_end=t))
    return events


def detect_events(
    trace: SensorTrace,
    motion: list[tuple[float, MotionState]],
    cfg: LandmarkConfig = LandmarkConfig(),
    sensor_cfg: SensorConfig = SensorConfig(),
) -> list[LandmarkEvent]:
    """Every landmark event of a walk: the stops, then the turns, then the
    pressure events, each list in time order.

    A stop that a turn overlaps is dropped: a lull with a rotation inside
    it is a corner being rounded slowly, not a door pause, and would
    otherwise match a pause landmark elsewhere on the graph. Touching at
    either end is no overlap.
    """
    turns = detect_gyro_landmarks(trace, cfg, sensor_cfg, motion)
    # turns come from disjoint runs of windows, so their ends are in order:
    # the first turn ending after a stop starts is the only one that can
    # overlap it
    ends = [turn.t_end for turn in turns]
    stops = [stop for stop in detect_acc_landmarks(motion, cfg)
             if not ((k := bisect_right(ends, stop.t)) < len(turns)
                     and turns[k].t < stop.t_end)]
    return stops + turns + detect_baro_landmarks(trace, cfg)


_RULE_NAMES = {
    "acc": Rule(RuleKind.ACC),
    "gyro": Rule(RuleKind.GYRO),
    "gyro+": Rule(RuleKind.GYRO, 1),
    "gyro-": Rule(RuleKind.GYRO, -1),
    "baro_in": Rule(RuleKind.BARO_IN),
    "baro_out": Rule(RuleKind.BARO_OUT),
}

# Geometry consistency tolerances for declared edge heading/distance.
HEADING_TOL_RAD = math.radians(1.0)
DISTANCE_TOL_M = 0.05


def bearing(x1: float, y1: float, x2: float, y2: float) -> float:
    """Planar heading from point 1 to point 2, radians CCW from +x in [0, 2*pi)."""
    return math.atan2(y2 - y1, x2 - x1) % (2 * math.pi)


def circular_diff(a: float, b: float) -> float:
    """Absolute angular difference folded into [0, pi]."""
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


# A graph file's keys and types; an edge's override and the graph's
# auto_reverse default to false.
_read_graph = members({
    "nodes": array(record(Landmark, {"rules": array(choice(_RULE_NAMES))})),
    "edges": array(members({"from": text, "to": text, "heading_deg": number,
                            "distance_m": partial(number, above=0), "override": flag},
                           ("from", "to", "heading_deg", "distance_m"))),
    "auto_reverse": flag}, ("nodes", "edges"))


def graph_from_dict(data: dict) -> LandmarkGraph:
    """Build a landmark graph from its JSON object form, then check what
    the types alone cannot: unique ids, known edge endpoints and, unless
    an edge overrides it, each edge's heading and distance against the
    coordinates of its ends."""
    graph = _read_graph(data, "graph", GraphError)
    nodes: dict[str, Landmark] = {}
    for lm in graph["nodes"]:
        if lm.id in nodes:
            raise GraphError(f"duplicate landmark id {shown(lm.id)}")
        nodes[lm.id] = lm

    edges: list[Edge] = []
    for ed in graph["edges"]:
        frm, to, distance = ed["from"], ed["to"], ed["distance_m"]
        for endpoint in (frm, to):
            if endpoint not in nodes:
                raise GraphError(f"edge references unknown landmark {shown(endpoint)}")
        heading = math.radians(ed["heading_deg"]) % (2 * math.pi)
        a, b = nodes[frm], nodes[to]
        if not ed.get("override", False):
            geom_d = math.hypot(b.x - a.x, b.y - a.y)
            if abs(geom_d - distance) > DISTANCE_TOL_M:
                raise GraphError(
                    f"edge {shown(frm)}->{shown(to)}: declared distance {distance} "
                    f"disagrees with coordinates ({geom_d:.3f})")
            geom_h = bearing(a.x, a.y, b.x, b.y)
            if circular_diff(geom_h, heading) > HEADING_TOL_RAD:
                raise GraphError(
                    f"edge {shown(frm)}->{shown(to)}: declared heading disagrees "
                    f"with coordinates")
        edges.append(Edge(from_id=frm, to_id=to, heading=heading, distance=distance))

    if graph.get("auto_reverse", False):
        seen = {(e.from_id, e.to_id) for e in edges}
        for e in list(edges):
            if (e.to_id, e.from_id) not in seen:
                edges.append(Edge(from_id=e.to_id, to_id=e.from_id,
                                  heading=(e.heading + math.pi) % (2 * math.pi),
                                  distance=e.distance))
                seen.add((e.to_id, e.from_id))

    return LandmarkGraph(nodes=nodes, edges=edges)


def load_landmark_graph(path: str | Path) -> LandmarkGraph:
    """Load a landmark graph JSON file."""
    return graph_from_dict(read_json(path, GraphError))
