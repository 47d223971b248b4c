"""Pedestrian dead reckoning with landmark-graph calibration.

Each detected step advances the pose by the current step length along a
selected heading; the barometer drives a continuous floor estimate. When a
landmark signature fires and matches a graph node with enough confidence,
the pose snaps to that node and the snap opens a new path segment. The
segments are the only store of the poses, the visits and the snap
landmarks; a Trajectory derives its pose list and its visits from them.
Its parameters are PdrConfig, in stridemap.config, whose heading_source
is one of config.HEADING_SOURCES. Pose, PathSegment and Trajectory, and
the trajectory file's writer and reader, are in stridemap.trajectory.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import HEADING_SOURCES, LandmarkConfig, PdrConfig, QualityConfig, SensorConfig
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
from .radiomap import segment_belief, trusted
from .records import choice, shown
from .sensors import (
    MotionState,
    SensorTrace,
    TraceError,
    classify_motion,
    detect_steps,
    motion_runs,
    moving_average,
)
from .trajectory import PathSegment, Pose, Trajectory


# Moving-average span of the pressure used for floor tracking, seconds,
# and the shortest median baro sample interval it serves (1 kHz), so the
# average spans at most 2000 samples.
BARO_SMOOTH_S = 2.0
BARO_MIN_INTERVAL_S = 1e-3


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
    if not any(rule.kind is detected_kind and rule.turn_sign in (None, detected_sign)
               for rule in candidate.rules):
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
                for lm in graph.nodes.values() if lm.floor == state.floor]

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


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-d array of finite values, bit for bit up
    to the sign of a zero: the middle value of the sorted array, or the
    mean of its two middle values. np.median itself imports numpy.ma, which
    takes longer than the median of any walk's sample intervals."""
    s = np.sort(values)
    mid = len(s) // 2
    return float(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2)


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


def _smoothed_pressure(trace: SensorTrace) -> np.ndarray:
    """The barometer's values under a centered moving average over
    BARO_SMOOTH_S, its width in samples set by the median sample interval
    (no average for an interval of 0). Raw samples put their full noise
    into every anchor of the incremental floor estimate; the average keeps
    the rounded floor from drifting across a half-floor boundary. A
    barometer sampled faster than BARO_MIN_INTERVAL_S raises TraceError."""
    dt = _median(np.diff(trace.baro.t))
    if 0 < dt < BARO_MIN_INTERVAL_S:
        raise TraceError(f"baro median sample interval {shown(dt)} s is below "
                         f"{BARO_MIN_INTERVAL_S:g} s; pressure smoothing reads at "
                         f"most {1 / BARO_MIN_INTERVAL_S:g} Hz")
    win = max(1, int(round(BARO_SMOOTH_S / dt))) if dt > 0 else 1
    return moving_average(trace.baro.v, win) if win > 1 else trace.baro.v


def _select_heading(
    mode: str,
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
    if mode == "pdr-compass":
        return comp
    if mode == "pdr-gyro":
        return (theta0 + turned) % (2 * math.pi)
    if graph is not None and state.last_landmark is not None:
        if abs(turned_since_ref) < cfg.heading_threshold:
            # the first of the edges whose heading lies nearest the compass
            edge = min(graph.out_edges(state.last_landmark), default=None,
                       key=lambda e: circular_diff(e.heading, comp))
            if edge is not None and circular_diff(edge.heading, comp) < cfg.heading_threshold:
                return edge.heading
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
    required; compass and gyro modes ignore it and never calibrate. A
    heading_source outside HEADING_SOURCES raises ValueError.
    """
    mode = choice({s: s for s in HEADING_SOURCES})(cfg.heading_source, "heading_source",
                                                   ValueError)
    if len(trace.accel) == 0:
        raise TraceError("trace has no accelerometer channel")
    if mode == "landmark" and graph is None:
        raise ValueError("landmark heading mode requires a landmark graph")

    if len(trace.mag) == 0:
        raise TraceError("trace has no magnetometer channel")
    if mode != "pdr-compass" and len(trace.gyro) < 2:
        raise TraceError(f"{mode} mode needs at least two gyro samples, "
                         f"trace has {len(trace.gyro)}")

    steps = detect_steps(trace, sensor_cfg)
    motion = classify_motion(trace, sensor_cfg)
    events = (detect_events(trace, motion, landmark_cfg, sensor_cfg)
              if mode == "landmark" else [])
    t_start = float(trace.accel.t[0])
    # every time a signal is read at is known up front: the start of the
    # walk (index 0), each step (1 to n), each event (n + 1 on) and where
    # each event's motion ends (n + 1 + m on); read every signal at all of
    # them in one pass. Without a barometer the pressure is 0.0, so the
    # floor never moves.
    n, m = len(steps), len(events)
    at = np.array([t_start] + [s.t for s in steps] + [e.t for e in events]
                  + [max(e.t, e.t_end) for e in events])
    mx = np.interp(at[:n + 1], trace.mag.t, trace.mag.v[:, 0]).tolist()
    my = np.interp(at[:n + 1], trace.mag.t, trace.mag.v[:, 1]).tolist()
    compass = [math.atan2(b, a) % (2 * math.pi) for a, b in zip(mx, my)]  # map-frame azimuths
    turn = np.interp(at, *_turn_integral(trace)).tolist()
    pressure = (np.interp(at, trace.baro.t, _smoothed_pressure(trace)).tolist()
                if len(trace.baro) > 1 else [0.0] * len(at))
    theta0 = compass[0]

    # holds before steps before events at equal timestamps: a hold never
    # moves the pose, and the snap must win the pose
    items: list[tuple[float, int, int]] = [
        (s.t, 0, k) for k, s in enumerate(steps, start=1)]
    items += [(e.t, 1, j) for j, e in enumerate(events)]
    items += [(t, -1, 0) for state, start, end, _ in motion_runs(motion)
              if state is MotionState.STILL for t in (start, end)]
    items.sort(key=lambda it: (it[0], it[1]))

    x0, y0, f0 = initial
    pose = Pose(t=t_start, x=float(x0), y=float(y0), floor=float(f0))
    step_length = cfg.initial_step_length
    state = MatchState(anchor_x=pose.x, anchor_y=pose.y,
                       floor=round_floor(pose.floor, int(round(f0))),
                       fallback_heading=theta0, turn_ref=turn[0],
                       pressure=pressure[0])
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
            new_floor = floor_update(pose.floor, pressure[k], state.pressure,
                                     cfg.pressure_per_floor)
            state.pressure = pressure[k]
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

        j = item
        ev = events[j]
        res = match_landmark(ev, graph, state, cfg)
        if res is None:
            continue
        lm, _conf = res

        if seg.landmark is not None:
            v1 = graph.nodes[seg.landmark]
            if v1.floor == lm.floor and state.steps >= cfg.min_steps_for_update:
                new_l, missed = update_step_length(v1, lm, state.steps, step_length)
                # low-quality walking must not corrupt the step length
                if not missed and trusted(segment_belief(seg, quality_cfg), quality_cfg):
                    step_length = new_l

        # the snap opens a new segment and a new anchor; later turns are
        # measured from where the event's motion ends
        pose = Pose(t=ev.t, x=lm.x, y=lm.y, floor=float(lm.floor))
        seg = PathSegment(points=[pose], landmark=lm.id)
        traj.segments.append(seg)
        state = MatchState(
            anchor_x=lm.x, anchor_y=lm.y, floor=lm.floor, last_landmark=lm.id,
            fallback_heading=state.fallback_heading,
            turn_ref=turn[n + 1 + m + j], pressure=pressure[n + 1 + j])
        if ev.t_end > ev.t:
            # still at the landmark until the event's motion pattern ends
            pending_hold = Pose(t=ev.t_end, x=lm.x, y=lm.y,
                                floor=float(lm.floor))

    if pending_hold is not None and pending_hold.t > pose.t:
        seg.points.append(pending_hold)
    return traj


def attach_periodicities(traj: Trajectory, steps) -> None:
    """Fill segment periodicities from detected steps by time span: the
    steps after a segment's first pose up to and including its last.
    run_pdr and load_trajectory already fill them, and no CLI path calls
    this; the benchmark's set-up map still does, until ROADMAP item 5
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
    if len(trace.truth) == 0:
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
