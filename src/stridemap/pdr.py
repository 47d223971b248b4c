"""Pedestrian dead reckoning with landmark-graph calibration.

Each detected step advances the pose by the current step length along a
selected heading; the barometer drives a continuous floor estimate. When a
landmark signature fires and matches a graph node with enough confidence,
the pose snaps to that node and the snap opens a new path segment. The
segments are the only store of the poses, the visits and the snap
landmarks; a Trajectory derives its pose list and its visits from them.
Its parameters are PdrConfig and the heading sources HeadingSource, both in
stridemap.config.

dump_trajectory writes a trajectory as JSON lines and load_trajectory
reads them back. The reader tests each pose in one check (four finite
floats and an int segment, as files hold them) and reads a field through
number only for another type or to word an error.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from .config import (HeadingSource, LandmarkConfig, PdrConfig, QualityConfig,
                     SensorConfig)
from .landmarks import (
    Landmark,
    LandmarkEvent,
    LandmarkGraph,
    RuleKind,
    bearing,
    circular_diff,
    detect_events,
    sgn,
)
from .radiomap import segment_belief
from .sensors import (
    MotionState,
    SensorTrace,
    TraceError,
    classify_motion,
    detect_steps,
    motion_runs,
    moving_average,
    number,
    read_jsonl,
    write_text,
)


# Moving-average span of the pressure used for floor tracking, seconds.
BARO_SMOOTH_S = 2.0


@dataclass(frozen=True)
class Pose:
    t: float
    x: float
    y: float
    floor: float  # continuous; round for discrete floor decisions


@dataclass
class PathSegment:
    """The poses from one anchor up to the next snap, which opens the next
    segment; every pose of a walk lives in exactly one segment.

    points[0] is the opening anchor: the initial pose, or the snap pose of
    the landmark named by landmark (None for the initial anchor).
    periodicities holds the step periods of the steps inside the segment,
    in time order: run_pdr fills it, and a trajectory file carries it on
    the segment's first line.
    """

    points: list[Pose]
    periodicities: list[float] = field(default_factory=list)
    landmark: str | None = None


@dataclass
class Trajectory:
    """A walk as its path segments, in time order, and the step-length
    anomalies met on the way; poses and visits are read from the segments."""

    segments: list[PathSegment]
    anomalies: list[str] = field(default_factory=list)

    @property
    def poses(self) -> list[Pose]:
        """Every pose of the walk: the segments' points, in segment order."""
        return [p for seg in self.segments for p in seg.points]

    @property
    def visits(self) -> list[tuple[float, str]]:
        """(time, landmark id) of each snap, in time order."""
        return [(seg.points[0].t, seg.landmark) for seg in self.segments
                if seg.landmark is not None]


@dataclass
class MatchState:
    """Where the walk is anchored and what happened since; a snap starts a
    new one."""

    anchor_x: float
    anchor_y: float
    floor: int
    last_landmark: str | None = None
    traveled: float = 0.0       # sum of applied step lengths since anchor
    heading_x: float = 0.0      # accumulated unit step-heading vector
    heading_y: float = 0.0
    fallback_heading: float = 0.0
    steps: int = 0              # steps since anchor
    turn_ref: float = 0.0       # turn integral that later turns count from
    pressure: float = 0.0       # smoothed pressure at the last floor update

    def mean_heading(self) -> float:
        if self.heading_x == 0.0 and self.heading_y == 0.0:
            return self.fallback_heading
        return math.atan2(self.heading_y, self.heading_x) % (2 * math.pi)


def pdr_step(prev: Pose, step_length: float, heading: float) -> Pose:
    """Advance one step along heading (radians CCW from +x)."""
    return Pose(
        t=prev.t,
        x=prev.x + step_length * math.cos(heading),
        y=prev.y + step_length * math.sin(heading),
        floor=prev.floor,
    )


def floor_update(prev_floor: float, p_t: float, p_prev: float, pressure_per_floor: float) -> float:
    """Continuous floor from the pressure change since the last update."""
    return prev_floor - (p_t - p_prev) / pressure_per_floor


def update_step_length(
    v1: Landmark, v2: Landmark, n_steps: int, previous: float
) -> tuple[float, bool]:
    """Step length from a completed landmark-to-landmark segment.

    Returns (length, anomaly). Zero steps between two matched landmarks
    means the step counter missed; the previous length is kept and the
    anomaly flagged.
    """
    if n_steps < 1:
        return previous, True
    return math.dist((v1.x, v1.y), (v2.x, v2.y)) / n_steps, False


def compass_heading(mx: float, my: float) -> float:
    """Map-frame azimuth from the calibrated magnetometer vector."""
    return math.atan2(my, mx) % (2 * math.pi)


def landmark_confidence(
    candidate: Landmark,
    detected_kind: RuleKind,
    est_heading: float,
    ref_heading: float,
    traveled: float,
    ref_distance: float,
    cfg: PdrConfig = PdrConfig(),
    detected_sign: int = 0,
) -> float:
    """Match confidence: rule indicator * heading gate * inverse distance gap.

    The distance gap is floored at cfg.distance_floor so a perfect distance
    agreement yields a large finite score instead of a division blow-up.
    """
    delta = 0
    for rule in candidate.rules:
        if rule.kind is not detected_kind:
            continue
        if rule.turn_sign is not None and rule.turn_sign != detected_sign:
            continue
        delta = 1
        break
    if not delta:
        return 0.0
    if circular_diff(est_heading, ref_heading) >= cfg.heading_threshold:
        return 0.0
    return 1.0 / max(abs(ref_distance - traveled), cfg.distance_floor)


def _reachable(graph: LandmarkGraph, src: str) -> dict[str, tuple[float, float]]:
    """Shortest directed path distance to every landmark reachable from src,
    with the heading of the path's final (arriving) edge."""
    dist: dict[str, tuple[float, float]] = {src: (0.0, 0.0)}
    pq = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, (math.inf,))[0]:
            continue
        for e in graph.out_edges(u):
            nd = d + e.distance
            if nd < dist.get(e.to_id, (math.inf,))[0] - 1e-12:
                dist[e.to_id] = (nd, e.heading)
                heapq.heappush(pq, (nd, e.to_id))
    dist.pop(src, None)
    return dist


def match_landmark(
    event: LandmarkEvent,
    graph: LandmarkGraph,
    state: MatchState,
    cfg: PdrConfig = PdrConfig(),
) -> tuple[Landmark, float] | None:
    """Best-scoring graph landmark for a detected event, or None.

    Candidates are the landmarks reachable from the last matched landmark:
    path distance as the reference distance, the path's arriving edge as
    the reference heading, compared against the latest walked heading. With
    no prior match, every landmark on the current floor is scored against
    the initial anchor by straight-line bearing. Ties break toward the
    smaller distance gap, then the lexicographically smaller id.
    """
    sign = sgn(event.auxiliary) if event.kind is RuleKind.GYRO else 0

    if state.last_landmark is not None:
        est_heading = state.fallback_heading
        cand = [(graph.nodes[lid], d, h)
                for lid, (d, h) in _reachable(graph, state.last_landmark).items()]
    else:
        est_heading = state.mean_heading()
        cand = [(lm, math.dist((state.anchor_x, state.anchor_y), (lm.x, lm.y)),
                 bearing(state.anchor_x, state.anchor_y, lm.x, lm.y))
                for lm in graph.on_floor(state.floor)]

    best: tuple[float, float, str, Landmark] | None = None
    for lm, d_k, theta_k in cand:
        if lm.x == state.anchor_x and lm.y == state.anchor_y and d_k == 0.0:
            continue
        conf = landmark_confidence(lm, event.kind, est_heading, theta_k,
                                   state.traveled, d_k, cfg, sign)
        if conf <= cfg.confidence_threshold:
            continue
        key = (-conf, abs(d_k - state.traveled), lm.id)
        if best is None or key < (-best[0], best[1], best[2]):
            best = (conf, abs(d_k - state.traveled), lm.id, lm)
    if best is None:
        return None
    return best[3], best[0]


def round_floor(f: float, prev: int) -> int:
    """Round a continuous floor, breaking exact halves toward prev."""
    lo = math.floor(f)
    if f - lo == 0.5:
        hi = lo + 1
        return lo if abs(lo - prev) <= abs(hi - prev) else hi
    return math.floor(f + 0.5)


def _turn_integral(trace: SensorTrace) -> tuple[np.ndarray, np.ndarray]:
    """Gyro sample times and the cumulative signed vertical rotation at
    each; zero throughout without at least two gyro samples."""
    t = trace.gyro.t
    if len(t) < 2:
        return np.array([0.0, 1.0]), np.zeros(2)
    wz = trace.gyro.v[:, 2]
    g = np.empty(len(t))
    g[0] = 0.0
    np.cumsum(wz[:-1] * np.diff(t), out=g[1:])
    return t, g


def _select_heading(
    mode: HeadingSource,
    comp: float,
    turned: float,
    turned_since_ref: float,
    theta0: float,
    state: MatchState,
    graph: LandmarkGraph | None,
    cfg: PdrConfig,
) -> float:
    """Heading of one step from its compass azimuth and the rotation since
    the walk started and since the last landmark."""
    if mode is HeadingSource.COMPASS:
        return comp
    if mode is HeadingSource.GYRO:
        return (theta0 + turned) % (2 * math.pi)
    if graph is not None and state.last_landmark is not None:
        if abs(turned_since_ref) < cfg.heading_threshold:
            best: tuple[float, float] | None = None
            for e in graph.out_edges(state.last_landmark):
                dh = circular_diff(e.heading, comp)
                if best is None or dh < best[0]:
                    best = (dh, e.heading)
            if best is not None and best[0] < cfg.heading_threshold:
                return best[1]
    return comp


def run_pdr(
    trace: SensorTrace,
    graph: LandmarkGraph | None,
    initial: tuple[float, float, float],
    cfg: PdrConfig = PdrConfig(),
    sensor_cfg: SensorConfig = SensorConfig(),
    landmark_cfg: LandmarkConfig = LandmarkConfig(),
    quality_cfg: QualityConfig = QualityConfig(),
) -> Trajectory:
    """Fold a sensor trace into a calibrated trajectory.

    initial is the starting (x, y, floor). In landmark mode a graph is
    required; compass and gyro modes ignore it and never calibrate.
    """
    if len(trace.accel) == 0:
        raise TraceError("trace has no accelerometer channel")
    mode = cfg.heading_source
    if mode is HeadingSource.LANDMARK and graph is None:
        raise ValueError("landmark heading mode requires a landmark graph")

    if len(trace.mag) == 0:
        raise TraceError("trace has no magnetometer channel")
    if mode is not HeadingSource.COMPASS and len(trace.gyro) < 2:
        raise TraceError(f"{mode.value} mode needs at least two gyro samples, "
                         f"trace has {len(trace.gyro)}")

    steps = detect_steps(trace, sensor_cfg)
    motion = classify_motion(trace, sensor_cfg)
    t_start = float(trace.accel.t[0])
    # every time a heading is read at is known up front: the start of the
    # walk (index 0) and each step; interpolate the compass and the turn
    # integral at all of them in one pass
    at = np.array([t_start] + [s.t for s in steps])
    mx = np.interp(at, trace.mag.t, trace.mag.v[:, 0]).tolist()
    my = np.interp(at, trace.mag.t, trace.mag.v[:, 1]).tolist()
    compass = [compass_heading(a, b) for a, b in zip(mx, my)]
    gyro_t, gyro_turn = _turn_integral(trace)
    turn = np.interp(at, gyro_t, gyro_turn).tolist()
    theta0 = compass[0]

    events = (detect_events(trace, motion, landmark_cfg, sensor_cfg)
              if mode is HeadingSource.LANDMARK else [])

    # holds before steps before events at equal timestamps: a hold never
    # moves the pose, and the snap must win the pose
    items: list[tuple[float, int, object]] = [
        (s.t, 0, k) for k, s in enumerate(steps, start=1)]
    items += [(e.t, 1, e) for e in events]
    items += [(t, -1, None) for state, start, end, _ in motion_runs(motion)
              if state is MotionState.STILL for t in (start, end)]
    items.sort(key=lambda it: (it[0], it[1]))

    has_baro = len(trace.baro) > 1
    if has_baro:
        # raw samples put their full noise into every anchor of the
        # incremental floor estimate; a short moving average keeps the
        # rounded floor from drifting across a half-floor boundary
        bt, bv = trace.baro.t, trace.baro.v
        dt = float(np.median(np.diff(bt)))
        win = max(1, int(round(BARO_SMOOTH_S / dt))) if dt > 0 else 1
        if win > 1:
            bv = moving_average(bv, win)
        p_of = lambda t: float(np.interp(t, bt, bv))
    else:
        p_of = lambda t: 0.0

    x0, y0, f0 = initial
    pose = Pose(t=t_start, x=float(x0), y=float(y0), floor=float(f0))
    step_length = cfg.initial_step_length
    state = MatchState(anchor_x=pose.x, anchor_y=pose.y,
                       floor=round_floor(pose.floor, int(round(f0))),
                       fallback_heading=theta0, turn_ref=turn[0],
                       pressure=p_of(t_start))
    seg = PathSegment(points=[pose])  # the open segment
    traj = Trajectory(segments=[seg])
    pending_hold: Pose | None = None

    for ts, prio, item in items:
        if pending_hold is not None:
            # a step before the stamp means the dwell ended early: drop it
            if ts >= pending_hold.t > pose.t:
                pose = pending_hold
                seg.points.append(pose)
            pending_hold = None
        if prio == -1:
            # standstill boundary: pin the pose so interpolation across the
            # dwell cannot invent motion that never happened
            if ts > pose.t:
                pose = Pose(t=ts, x=pose.x, y=pose.y, floor=pose.floor)
                seg.points.append(pose)
            continue
        if prio == 0:
            k = item
            heading = _select_heading(mode, compass[k], turn[k] - turn[0],
                                      turn[k] - state.turn_ref, theta0, state,
                                      graph, cfg)
            new_floor = pose.floor
            if has_baro:
                p_now = p_of(ts)
                new_floor = floor_update(pose.floor, p_now, state.pressure,
                                         cfg.pressure_per_floor)
                state.pressure = p_now
            stepped = pdr_step(pose, step_length, heading)
            pose = Pose(t=ts, x=stepped.x, y=stepped.y, floor=new_floor)
            seg.points.append(pose)
            periodicity = steps[k - 1].periodicity
            if periodicity is not None:
                seg.periodicities.append(periodicity)
            state.traveled += step_length
            state.heading_x += math.cos(heading)
            state.heading_y += math.sin(heading)
            state.floor = round_floor(pose.floor, state.floor)
            state.fallback_heading = heading
            state.steps += 1
            continue

        ev = item
        res = match_landmark(ev, graph, state, cfg)
        if res is None:
            continue
        lm, _conf = res

        if seg.landmark is not None:
            v1 = graph.nodes[seg.landmark]
            if v1.floor == lm.floor:
                new_l, anomaly = update_step_length(v1, lm, state.steps, step_length)
                if anomaly:
                    traj.anomalies.append(
                        f"no steps between {v1.id} and {lm.id} at t={ev.t:.2f}")
                elif state.steps >= cfg.min_steps_for_update:
                    belief = segment_belief(seg, quality_cfg)
                    # low-quality walking must not corrupt the step length
                    if belief is not None and belief > quality_cfg.belief_threshold:
                        step_length = new_l

        # the snap opens a new segment and a new anchor; later turns are
        # measured from where the event's motion ends
        pose = Pose(t=ev.t, x=lm.x, y=lm.y, floor=float(lm.floor))
        seg = PathSegment(points=[pose], landmark=lm.id)
        traj.segments.append(seg)
        state = MatchState(
            anchor_x=lm.x, anchor_y=lm.y, floor=lm.floor, last_landmark=lm.id,
            fallback_heading=state.fallback_heading,
            turn_ref=float(np.interp(max(ev.t, ev.t_end), gyro_t, gyro_turn)),
            pressure=p_of(ev.t))
        if ev.t_end > ev.t:
            # still at the landmark until the event's motion pattern ends
            pending_hold = Pose(t=ev.t_end, x=lm.x, y=lm.y,
                                floor=float(lm.floor))

    if pending_hold is not None and pending_hold.t > pose.t:
        seg.points.append(pending_hold)
    return traj


def dump_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as JSON lines (path or open file), each pose with
    the index of the segment that holds it, so every pose is written once;
    each segment's first line also carries its step periods."""
    lines = []
    for k, seg in enumerate(traj.segments):
        for i, pose in enumerate(seg.points):
            rec = {"t": pose.t, "x": pose.x, "y": pose.y, "floor": pose.floor,
                   "segment": k}
            if i == 0:
                rec["periods"] = seg.periodicities
            lines.append(json.dumps(rec))
    write_text(path, "".join(line + "\n" for line in lines))


# The fields of a trajectory line that make its pose and name its segment.
_POSE_KEYS = itemgetter("t", "x", "y", "floor", "segment")


def load_trajectory(path: str | Path) -> Trajectory:
    """Read a trajectory export: one segment per segment index, in index
    order, each with its poses in file order and the step periods its first
    line carries. A pose earlier than the one before it in its segment is
    refused, and so is a segment whose first line has no periods (a file
    written before trajectories carried them), a later line with periods
    again, or a period that is not a finite number."""
    segs: dict[int, PathSegment] = {}
    for ln, rec in read_jsonl(path, TraceError, f"{path}:"):
        try:
            t, x, y, floor, segment = _POSE_KEYS(rec)
            # one test of the whole pose; the sum is finite only when every
            # field is, and adding segment raises OverflowError where
            # number would refuse it
            if not (type(t) is type(x) is type(y) is type(floor) is float
                    and type(segment) is int and math.isfinite(t + x + y + floor + segment)):
                t, x, y, floor = (number(rec[k], k) for k in ("t", "x", "y", "floor"))
                segment = number(segment, "segment", integral=True)
            pose = Pose(t, x, y, floor)
        except (KeyError, TypeError, ValueError, OverflowError):
            raise TraceError(f"{path}:{ln}: pose needs finite numbers t, x, y, "
                             f"floor and an integer segment") from None
        seg = segs.get(segment)
        if seg is None:
            if "periods" not in rec:
                raise TraceError(f"{path}:{ln}: segment {segment} has no step "
                                 f"periods; the file predates them, re-run track")
            periods = rec["periods"]
            if not isinstance(periods, list):
                raise TraceError(f"{path}:{ln}: periods must be a list, got {periods!r}")
            try:
                periodicities = (periods if {float}.issuperset(map(type, periods))
                                 and math.isfinite(sum(periods))
                                 else [number(v, "period") for v in periods])
            except ValueError as exc:
                raise TraceError(f"{path}:{ln}: {exc}") from None
            seg = segs[segment] = PathSegment(points=[], periodicities=periodicities)
        elif "periods" in rec:
            raise TraceError(f"{path}:{ln}: segment {segment} carries periods twice")
        elif pose.t < seg.points[-1].t:
            raise TraceError(f"{path}:{ln}: pose t {pose.t!r} goes back in time "
                             f"from {seg.points[-1].t!r} in segment {segment}")
        seg.points.append(pose)
    return Trajectory(segments=[segs[k] for k in sorted(segs)])


def attach_periodicities(traj: Trajectory, steps) -> None:
    """Fill segment periodicities from detected steps by time span: the
    steps after a segment's first pose up to and including its last.
    run_pdr and load_trajectory already fill them, and no CLI path calls
    this; the benchmark's set-up map still does, until ROADMAP item 6
    builds that map from run_pdr's own trajectory."""
    steps = sorted(steps, key=lambda s: s.t)
    times = [s.t for s in steps]
    for seg in traj.segments:
        if not seg.points:
            continue
        lo = bisect_right(times, seg.points[0].t)
        hi = bisect_right(times, seg.points[-1].t)
        seg.periodicities = [s.periodicity for s in steps[lo:hi]
                             if s.periodicity is not None]


def trajectory_errors(traj: Trajectory, trace: SensorTrace) -> np.ndarray:
    """Planar error of each pose against time-interpolated embedded truth."""
    if trace.truth is None or len(trace.truth) == 0:
        raise ValueError("trace carries no ground truth")
    tt = trace.truth.t
    tx = trace.truth.xy[:, 0]
    ty = trace.truth.xy[:, 1]
    poses = traj.poses
    pt = np.array([p.t for p in poses])
    px = np.array([p.x for p in poses])
    py = np.array([p.y for p in poses])
    ex = px - np.interp(pt, tt, tx)
    ey = py - np.interp(pt, tt, ty)
    return np.hypot(ex, ey)
