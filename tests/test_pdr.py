import json
import math
import re
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridemap.landmarks import (Landmark, LandmarkEvent, Rule, RuleKind,
                                 graph_from_dict)
from stridemap.config import HEADING_SOURCES
from stridemap.pdr import (MatchState, PdrConfig,
                           attach_periodicities, landmark_confidence,
                           match_landmark, floor_update, pdr_step,
                           round_floor, run_pdr, trajectory_errors,
                           update_step_length, _median)
from stridemap.records import T_MAX_S, VALUE_MAX, number, read_jsonl, shown
from stridemap.sensors import Channel, SensorTrace, TruthChannel, detect_steps
from stridemap.sim import generate_trace
from stridemap.tracefile import TraceError
from stridemap import trajectory
from stridemap.trajectory import (PathSegment, Pose, Trajectory, dump_trajectory,
                                  load_trajectory)

from conftest import DT, SCENARIOS, accel_channel, demo_scenario, flat, walking

# each heading source's test id, the name these tests have always run under
MODE_ID = {"pdr-compass": "HeadingSource.COMPASS", "pdr-gyro": "HeadingSource.GYRO",
           "landmark": "HeadingSource.LANDMARK"}


# ---------------------------------------------------------------------------
# step advance


def test_step_east():
    p = pdr_step(Pose(0, 0, 0, 1), 0.63, 0.0)
    assert (p.x, p.y) == pytest.approx((0.63, 0.0))


def test_step_north():
    p = pdr_step(Pose(0, 0, 0, 1), 0.63, math.pi / 2)
    assert (p.x, p.y) == pytest.approx((0.0, 0.63))


def test_step_diagonal():
    p = pdr_step(Pose(0, 1, 1, 1), 1.0, math.pi / 4)
    assert (p.x, p.y) == pytest.approx((1 + math.sqrt(2) / 2,
                                        1 + math.sqrt(2) / 2))


def test_step_keeps_floor():
    assert pdr_step(Pose(0, 0, 0, 3), 1.0, 0.0).floor == 3


# ---------------------------------------------------------------------------
# floor tracking


def test_pressure_drop_climbs_one_floor():
    assert floor_update(1.0, 1012.55, 1013.00, 0.45) == pytest.approx(2.0)


def test_pressure_unchanged_keeps_floor():
    assert floor_update(3.0, 1013.0, 1013.0, 0.45) == 3.0


def test_pressure_rise_descends_two_floors():
    assert floor_update(2.0, 1013.9, 1013.0, 0.45) == pytest.approx(0.0)


def test_round_floor_half_breaks_toward_previous():
    assert round_floor(2.5, 2) == 2
    assert round_floor(2.5, 3) == 3
    assert round_floor(2.49, 9) == 2
    assert round_floor(2.51, 0) == 3


# ---------------------------------------------------------------------------
# step length calibration


def test_step_length_from_segment():
    a = Landmark("a", 0, 0, 1, ())
    b = Landmark("b", 6.3, 0, 1, ())
    assert update_step_length(a, b, 10, 0.5) == (0.63, False)


def test_step_length_uneven_division():
    a = Landmark("a", 0, 0, 1, ())
    b = Landmark("b", 5.0, 0, 1, ())
    length, anomaly = update_step_length(a, b, 8, 0.5)
    assert length == pytest.approx(0.625)
    assert not anomaly


def test_zero_steps_is_anomalous():
    a = Landmark("a", 0, 0, 1, ())
    b = Landmark("b", 6.3, 0, 1, ())
    assert update_step_length(a, b, 0, 0.77) == (0.77, True)


# ---------------------------------------------------------------------------
# match confidence


ACC_LM = Landmark("d", 10, 0, 1, (Rule(RuleKind.ACC),))


def test_confidence_direct_substitution():
    c = landmark_confidence(ACC_LM, RuleKind.ACC, math.radians(10), 0.0,
                            traveled=9.5, ref_distance=10.0)
    assert c == pytest.approx(2.0)


def test_confidence_kind_mismatch_is_zero():
    c = landmark_confidence(ACC_LM, RuleKind.GYRO, 0.0, 0.0,
                            traveled=10.0, ref_distance=10.0)
    assert c == 0.0


def test_confidence_distance_cap():
    c = landmark_confidence(ACC_LM, RuleKind.ACC, math.radians(10), 0.0,
                            traveled=10.0, ref_distance=10.0)
    assert c == pytest.approx(10.0)


def test_confidence_heading_gate_closed():
    c = landmark_confidence(ACC_LM, RuleKind.ACC, math.radians(30), 0.0,
                            traveled=10.0, ref_distance=10.0)
    assert c == 0.0


def test_confidence_turn_sign_filter():
    lm = Landmark("c", 5, 0, 1, (Rule(RuleKind.GYRO, turn_sign=1),))
    right = landmark_confidence(lm, RuleKind.GYRO, 0.0, 0.0, 5.0, 5.0,
                                detected_sign=-1)
    left = landmark_confidence(lm, RuleKind.GYRO, 0.0, 0.0, 5.0, 5.0,
                               detected_sign=1)
    assert right == 0.0
    assert left == pytest.approx(10.0)


@given(st.floats(0.0, 30.0), st.floats(0.1, 50.0), st.floats(0.1, 50.0))
def test_confidence_never_negative(deg, traveled, ref):
    c = landmark_confidence(ACC_LM, RuleKind.ACC, math.radians(deg), 0.0,
                            traveled, ref)
    assert c >= 0.0


# ---------------------------------------------------------------------------
# landmark matching


def corridor_graph(extra=()):
    nodes = [
        {"id": "a", "x": 0.0, "y": 0.0, "floor": 1, "rules": ["gyro"]},
        {"id": "d", "x": 10.0, "y": 0.0, "floor": 1, "rules": ["acc"]},
    ]
    edges = [{"from": "a", "to": "d", "heading_deg": 0.0, "distance_m": 10.0}]
    for nd, ed in extra:
        nodes.append(nd)
        edges.append(ed)
    return graph_from_dict({"nodes": nodes, "edges": edges,
                            "auto_reverse": True})


def fresh_state(traveled):
    return MatchState(anchor_x=0.0, anchor_y=0.0, floor=1,
                      traveled=traveled, heading_x=1.0, heading_y=0.0)


STOP_EVENT = LandmarkEvent(t=10.0, kind=RuleKind.ACC, auxiliary=2.0, t_end=12.0)


def test_single_candidate_above_threshold_matches():
    res = match_landmark(STOP_EVENT, corridor_graph(), fresh_state(9.5))
    assert res is not None
    lm, conf = res
    assert lm.id == "d"
    assert conf == pytest.approx(2.0)


def test_low_score_rejected():
    # barely walked: distance gap 10 m scores 0.1, under the 0.25 gate
    res = match_landmark(STOP_EVENT, corridor_graph(), fresh_state(0.0))
    assert res is None


def test_best_scoring_candidate_wins():
    near = ({"id": "d2", "x": 9.45, "y": 0.0, "floor": 1, "rules": ["acc"]},
            {"from": "a", "to": "d2", "heading_deg": 0.0, "distance_m": 9.45,
             "override": True})
    res = match_landmark(STOP_EVENT, corridor_graph((near,)), fresh_state(9.5))
    lm, conf = res
    assert lm.id == "d2"
    assert conf == pytest.approx(10.0)


def test_anchored_match_uses_path_distance():
    far = ({"id": "e", "x": 16.3, "y": 0.0, "floor": 1, "rules": ["acc"]},
           {"from": "d", "to": "e", "heading_deg": 0.0, "distance_m": 6.3})
    graph = corridor_graph((far,))
    state = MatchState(anchor_x=0.0, anchor_y=0.0, floor=1,
                       last_landmark="a", traveled=16.3,
                       fallback_heading=0.0)
    lm, conf = match_landmark(STOP_EVENT, graph, state)
    assert lm.id == "e"
    assert conf == pytest.approx(10.0)


def test_wrong_heading_rejected_when_anchored():
    state = MatchState(anchor_x=0.0, anchor_y=0.0, floor=1,
                       last_landmark="a", traveled=10.0,
                       fallback_heading=math.pi)  # walking away from d
    assert match_landmark(STOP_EVENT, corridor_graph(), state) is None


# ---------------------------------------------------------------------------
# full dead reckoning on a synthetic corridor


def out_and_back_trace(steps_out=20, period=0.5, compass_bias=0.0):
    """Walk 0 -> L, turn in place, walk back, with exact step bumps.

    Layout: 2 s warmup, steps_out steps, 1 s turn (rotation in the middle
    0.4 s), steps_out steps back, 2 s cooldown. Heading east then west.
    """
    walk_s = steps_out * period
    mags = np.concatenate([flat(2.0), walking(walk_s, period),
                           flat(1.0), walking(walk_s, period), flat(2.0)])
    n = len(mags)
    t = np.arange(n) * DT

    wz = np.zeros(n)
    t_turn = 2.0 + walk_s + 0.3
    i0, i1 = int(round(t_turn / DT)), int(round((t_turn + 0.4) / DT))
    wz[i0:i1] = math.pi / 0.4

    heading = np.where(t < 2.0 + walk_s + 0.5, 0.0, math.pi) + compass_bias
    mag_t = t[::5]
    psi = heading[::5]
    mag_v = np.column_stack([np.cos(psi), np.sin(psi), np.zeros(len(psi))])

    trace = SensorTrace(
        accel=accel_channel(mags),
        gyro=Channel(t, np.column_stack([np.zeros(n), np.zeros(n), wz])),
        mag=Channel(mag_t, mag_v),
    )
    dist = steps_out * 0.63
    knots_t = [0.0, 2.0, 2.0 + walk_s, 3.0 + walk_s, 3.0 + 2 * walk_s, t[-1]]
    knots_x = [0.0, 0.0, dist, dist, 0.0, 0.0]
    tt = np.arange(0.0, t[-1], 0.5)
    trace = SensorTrace(
        accel=trace.accel, gyro=trace.gyro, mag=trace.mag,
        truth=TruthChannel(t=tt, v=np.column_stack(
            [np.interp(tt, knots_t, knots_x), np.zeros(len(tt)), np.ones(len(tt))])))
    return trace


def straight_graph(length=12.6):
    return graph_from_dict({
        "nodes": [
            {"id": "a", "x": 0.0, "y": 0.0, "floor": 1, "rules": ["gyro"]},
            {"id": "b", "x": length, "y": 0.0, "floor": 1, "rules": ["gyro"]},
        ],
        "edges": [{"from": "a", "to": "b", "heading_deg": 0.0,
                   "distance_m": length}],
        "auto_reverse": True,
    })


def test_noiseless_corridor_closes_exactly():
    trace = out_and_back_trace()
    traj = run_pdr(trace, straight_graph(), (0.0, 0.0, 1.0))
    assert [lid for _, lid in traj.visits] == ["b"]
    final = traj.poses[-1]
    assert (final.x, final.y) == pytest.approx((0.0, 0.0), abs=1e-9)
    opened = [s for s in traj.segments if s.landmark is not None]
    assert len(opened) == 1
    assert opened[0].landmark == "b"


def test_snap_lands_on_landmark_exactly():
    trace = out_and_back_trace()
    traj = run_pdr(trace, straight_graph(), (0.0, 0.0, 1.0))
    t_visit = traj.visits[0][0]
    snap = next(p for p in traj.poses if p.t == t_visit)
    assert (snap.x, snap.y) == (12.6, 0.0)


def test_landmark_mode_beats_compass_under_bias():
    trace = out_and_back_trace(compass_bias=math.radians(15))
    graph = straight_graph()
    lm = run_pdr(trace, graph, (0.0, 0.0, 1.0),
                 PdrConfig(heading_source="landmark"))
    co = run_pdr(trace, None, (0.0, 0.0, 1.0),
                 PdrConfig(heading_source="pdr-compass"))
    err_lm = trajectory_errors(lm, trace).mean()
    err_co = trajectory_errors(co, trace).mean()
    assert err_lm < err_co


def test_missed_landmark_defers_calibration():
    # door between a and b never produces a pause; the poorly guessed step
    # length is uncorrected until the far-corner turn finally matches
    trace = out_and_back_trace(steps_out=40)
    graph = graph_from_dict({
        "nodes": [
            {"id": "a", "x": 0.0, "y": 0.0, "floor": 1, "rules": ["gyro"]},
            {"id": "d", "x": 12.6, "y": 0.0, "floor": 1, "rules": ["acc"]},
            {"id": "b", "x": 25.2, "y": 0.0, "floor": 1, "rules": ["gyro"]},
        ],
        "edges": [
            {"from": "a", "to": "d", "heading_deg": 0.0, "distance_m": 12.6},
            {"from": "d", "to": "b", "heading_deg": 0.0, "distance_m": 12.6},
        ],
        "auto_reverse": True,
    })
    cfg = PdrConfig(initial_step_length=0.7)
    traj = run_pdr(trace, graph, (0.0, 0.0, 1.0), cfg)
    assert [lid for _, lid in traj.visits] == ["b"]
    t_visit = traj.visits[0][0]
    before = [p for p in traj.poses if p.t < t_visit]
    assert max(p.x for p in before) > 25.2 + 2.0  # drifted past the corner
    snap = next(p for p in traj.poses if p.t == t_visit)
    assert (snap.x, snap.y) == (25.2, 0.0)


def test_gyro_mode_ignores_graph():
    trace = out_and_back_trace()
    cfg = PdrConfig(heading_source="pdr-gyro")
    traj = run_pdr(trace, None, (0.0, 0.0, 1.0), cfg)
    assert traj.visits == []
    final = traj.poses[-1]
    assert (final.x, final.y) == pytest.approx((0.0, 0.0), abs=0.3)


def test_landmark_mode_requires_graph():
    trace = out_and_back_trace()
    with pytest.raises(ValueError):
        run_pdr(trace, None, (0.0, 0.0, 1.0))


@pytest.mark.parametrize("source", ["gyro", "Landmark", "", None, 1])
def test_an_unknown_heading_source_is_refused_before_any_stage(source):
    # a source none of HEADING_SOURCES names would detect no events and
    # fall through to the compass; the check comes before the trace's
    for trace in (out_and_back_trace(), SensorTrace()):
        with pytest.raises(ValueError, match=re.escape(
                f"heading_source must be one of {sorted(HEADING_SOURCES)}, got {source!r}")):
            run_pdr(trace, straight_graph(), (0.0, 0.0, 1.0), PdrConfig(heading_source=source))


@pytest.mark.parametrize("mode", ["landmark", "pdr-gyro"], ids=MODE_ID.get)
def test_a_mode_that_turns_by_gyro_refuses_a_trace_without_one(mode):
    trace = out_and_back_trace()
    for gyro in (Channel(np.empty(0), np.empty((0, 3))),
                 Channel(trace.gyro.t[:1], trace.gyro.v[:1])):
        bare = SensorTrace(accel=trace.accel, gyro=gyro, mag=trace.mag)
        with pytest.raises(TraceError, match=rf"^{mode} mode needs at least "
                           rf"two gyro samples, trace has {len(gyro)}$"):
            run_pdr(bare, straight_graph(), (0.0, 0.0, 1.0),
                    PdrConfig(heading_source=mode))


@pytest.mark.parametrize("baro", [None, Channel(np.array([3.0]), np.array([1013.0]))])
@pytest.mark.parametrize("mode", ["pdr-compass", "pdr-gyro"], ids=MODE_ID.get)
def test_without_a_barometer_every_floor_is_the_start_floor(mode, baro):
    # the pressure reads 0.0 throughout (one sample is no barometer), and a
    # floor update of no change returns the floor bit for bit, -0.0 included
    trace = out_and_back_trace()
    if baro is not None:
        trace = replace(trace, baro=baro)
    traj = run_pdr(trace, None, (0.0, 0.0, -0.0), PdrConfig(heading_source=mode))
    assert len(traj.poses) > 40
    assert {(p.floor, math.copysign(1.0, p.floor)) for p in traj.poses} == {(0.0, -1.0)}


def scaled_graph(scale: float):
    """The demo scenario's graph, every position and distance times scale."""
    data = json.loads((SCENARIOS / "two_floor_demo.json").read_text())["environment"]["graph"]
    return graph_from_dict({
        **data,
        "nodes": [{**n, "x": n["x"] * scale, "y": n["y"] * scale} for n in data["nodes"]],
        "edges": [{**e, "distance_m": e["distance_m"] * scale} for e in data["edges"]]})


def test_a_graph_finds_the_paths_from_each_landmark_once():
    sc = demo_scenario("two_floor_demo")
    trace = generate_trace(sc.environment, sc.walk, sc.noise)
    start = tuple(trace.truth.v[0].tolist())

    def tracked(graph):
        traj = run_pdr(trace, graph, start)
        return [[s.landmark, s.periodicities, [astuple(p) for p in s.points]]
                for s in traj.segments]

    # one run finds the paths from each landmark once, and the graph keeps them
    found = []

    class Found(dict):
        def __setitem__(self, src, paths):
            found.append(src)
            super().__setitem__(src, paths)

    graph = scaled_graph(1.0)
    graph._paths = Found()
    runs = [tracked(graph)]
    assert len(found) == len(set(found)) > 1
    assert graph.reachable(found[0]) is graph.reachable(found[0])
    # a run on the graph and then on a moved copy is what runs on fresh
    # graphs give, and the copy finds its own paths
    moved = replace(graph, nodes={i: replace(n, x=2 * n.x, y=2 * n.y)
                                  for i, n in graph.nodes.items()},
                    edges=[replace(e, distance=2 * e.distance) for e in graph.edges])
    runs.append(tracked(moved))
    assert runs == [tracked(scaled_graph(scale)) for scale in (1.0, 2.0)]
    assert runs[0] != runs[1]
    for src in found:
        assert moved.reachable(src) == {lid: (2 * d, h)
                                        for lid, (d, h) in graph.reachable(src).items()}


def baro_every(dt: float, n: int = 5) -> Channel:
    return Channel(np.arange(n) * dt, np.full(n, 1013.0))


def test_a_barometer_sampled_too_fast_is_refused():
    # its smoothing window, 2 s over the median interval, once asked for
    # 14.2 PiB at 1e-15 s; the window stops at 1 kHz
    compass = PdrConfig(heading_source="pdr-compass")
    trace = out_and_back_trace()
    with pytest.raises(TraceError, match=r"^baro median sample interval 1e-15 s is below "
                                         r"0\.001 s; pressure smoothing reads at most 1000 Hz$"):
        run_pdr(replace(trace, baro=baro_every(1e-15)), None, (0.0, 0.0, 1.0), compass)
    # at the limit, and at an interval of 0, the floor still tracks
    for dt in (1e-3, 0.0):
        traj = run_pdr(replace(trace, baro=baro_every(dt)), None, (0.0, 0.0, 1.0), compass)
        assert {p.floor for p in traj.poses} == {1.0}


# ---------------------------------------------------------------------------
# trajectory io


@pytest.mark.parametrize("bad,line", [("x", 2), ("floor", 2), ("period", 1)])
def test_dump_refuses_a_pose_or_period_that_is_not_finite(tmp_path, bad, line):
    # load_trajectory would refuse it, and build-map with it
    first = PathSegment([Pose(0.0, 0.0, 0.0, 1.0)],
                        periodicities=[math.inf if bad == "period" else 0.5])
    snap = PathSegment([Pose(1.0, math.inf if bad == "x" else 0.0, 0.0,
                             math.nan if bad == "floor" else 1.0)], landmark="b")
    path = tmp_path / "traj.jsonl"
    with pytest.raises(TraceError, match=rf"^cannot write trajectory: line {line} "
                                         rf"\(segment {line - 1}\) must hold finite numbers$"):
        dump_trajectory(Trajectory(segments=[first, snap]), path)
    assert not path.exists()



@pytest.mark.parametrize("bad,line", [("t", 2), ("y", 2), ("floor", 2), ("period", 1),
                                      ("zero period", 1), ("long period", 1)])
def test_dump_refuses_what_load_would_take_out_of_its_range(tmp_path, bad, line):
    first = PathSegment([Pose(0.0, 0.0, 0.0, 1.0)], periodicities=[
        {"period": -0.5, "zero period": 0.0, "long period": 2.5e10}.get(bad, 0.5), 0.5])
    snap = PathSegment([Pose(-2e10 if bad == "t" else 1.0, 0.0, 1e308 if bad == "y" else 0.0,
                             -1e300 if bad == "floor" else 1.0)], landmark="b")
    path = tmp_path / "traj.jsonl"
    with pytest.raises(TraceError, match=rf"^cannot write trajectory: line {line} "
                                         rf"\(segment {line - 1}\) must hold t within "
                                         r"\+-1e\+10 s, x and y within \+-1e\+06 m, floor "
                                         r"within \+-1e\+06 and step periods above 0 and at "
                                         r"most 2e\+10 s$"):
        dump_trajectory(Trajectory(segments=[first, snap]), path)
    assert not path.exists()


@pytest.mark.parametrize("period", [True, "x", None, [0.5], 10**400],
                         ids=["bool", "str", "null", "list", "int past the float range"])
def test_dump_refuses_a_period_load_would_refuse(tmp_path, period):
    # a bool period used to be written as true, which load refuses, and a
    # str one raised a bare TypeError
    first = PathSegment([Pose(0.0, 0.0, 0.0, 1.0)], periodicities=[0.5, period])
    path = tmp_path / "traj.jsonl"
    with pytest.raises(TraceError, match=r"^cannot write trajectory: line 1 \(segment 0\) "
                                         r"must hold t within .* and step periods above 0 "
                                         r"and at most 2e\+10 s$"):
        dump_trajectory(Trajectory(segments=[first]), path)
    assert not path.exists()
    path.write_text(json.dumps({"t": 0.0, "x": 0.0, "y": 0.0, "floor": 1.0, "segment": 0,
                                "periods": [0.5, period]}) + "\n")
    with pytest.raises(TraceError, match="period must be a finite number"):
        load_trajectory(path)


@pytest.mark.parametrize("periods,shown_as", [({0.5: 1}, r"\{0\.5: 1\}"), ({0.5}, r"\{0\.5\}")],
                         ids=["dict", "set"])
def test_dump_refuses_periods_load_would_not_read_as_a_list(tmp_path, periods, shown_as):
    # a dict used to be written as an object, which load refuses, and a
    # set raised json's bare TypeError
    first = PathSegment([Pose(0.0, 0.0, 0.0, 1.0)], periodicities=[0.5])
    snap = PathSegment([Pose(1.0, 0.0, 0.0, 1.0)], periodicities=periods, landmark="b")
    path = tmp_path / "traj.jsonl"
    with pytest.raises(TraceError, match=r"^cannot write trajectory: line 2 \(segment 1\) "
                                         rf"periods must be a list, got {shown_as}$"):
        dump_trajectory(Trajectory(segments=[first, snap]), path)
    assert not path.exists()


def test_dump_writes_tuple_periods_as_the_list_load_reads(tmp_path):
    path = tmp_path / "traj.jsonl"
    dump_trajectory(Trajectory(segments=[PathSegment([Pose(0.0, 0.0, 0.0, 1.0)],
                                                     periodicities=(0.5, 0.25))]), path)
    assert load_trajectory(path).segments[0].periodicities == [0.5, 0.25]


def test_dump_writes_an_int_period_load_takes(tmp_path):
    path = tmp_path / "traj.jsonl"
    dump_trajectory(Trajectory(segments=[PathSegment([Pose(0.0, 0.0, 0.0, 1.0)],
                                                     periodicities=[1, 0.5])]), path)
    assert load_trajectory(path).segments[0].periodicities == [1.0, 0.5]


def dump_trajectory_by_json(traj: Trajectory) -> str:
    """The reference: dump_trajectory as it wrote every line, by json.dumps
    and load_trajectory's checks, before its template for clean poses; the
    text it writes, or the TraceError's text."""
    lines = []
    try:
        for k, seg in enumerate(traj.segments):
            for i, pose in enumerate(seg.points):
                rec = {"t": pose.t, "x": pose.x, "y": pose.y, "floor": pose.floor,
                       "segment": k}
                if i == 0:
                    if not isinstance(seg.periodicities, (list, tuple)):
                        raise TraceError(f"cannot write trajectory: line {len(lines) + 1} "
                                         f"(segment {k}) periods must be a list, got "
                                         f"{shown(seg.periodicities)}")
                    rec["periods"] = seg.periodicities
                try:
                    lines.append(json.dumps(rec, allow_nan=False))
                except ValueError:
                    raise TraceError(f"cannot write trajectory: line {len(lines) + 1} "
                                     f"(segment {k}) must hold finite numbers") from None
                try:
                    trajectory._pose(rec, "", 0)
                    if i == 0:
                        trajectory._periods(seg.periodicities)
                except ValueError:
                    raise TraceError(f"cannot write trajectory: line {len(lines)} (segment "
                                     f"{k}) must hold t within +-{T_MAX_S:g} s, x and y "
                                     f"within +-{VALUE_MAX:g} m, floor within "
                                     f"+-{VALUE_MAX:g} and step periods above 0 and at "
                                     f"most {2 * T_MAX_S:g} s") from None
    except TraceError as exc:
        return f"TraceError: {exc}"
    return "".join(line + "\n" for line in lines)


# pose fields and periods: floats the template writes (-0.0, subnormals,
# the range's ends) and values that go through json (ints, and ones
# load_trajectory refuses: NaN, the infinities, past the range, a bool)
TRAJECTORY_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1 + 0.2,
                     VALUE_MAX, -VALUE_MAX, T_MAX_S, 1e-7]),
    st.floats(-VALUE_MAX, VALUE_MAX))
ODD_VALUES = st.sampled_from([0, 3, -2, True, math.nan, math.inf, -math.inf, 1e300,
                              -1e11, 2.5e10])


@st.composite
def trajectories(draw) -> Trajectory:
    """Up to four segments of up to four poses, their fields mostly floats,
    and periods empty, short or long, in a list or a tuple; at times one
    field or period is odd."""
    odd = draw(st.booleans())

    def value(floats=TRAJECTORY_FLOATS):
        return draw(ODD_VALUES if odd and draw(st.integers(0, 9)) == 0 else floats)

    segments = []
    for _ in range(draw(st.integers(1, 4))):
        points = [Pose(*(value() for _ in range(4))) for _ in range(draw(st.integers(1, 4)))]
        periods = [value(st.one_of(st.sampled_from([5e-324, 2 * T_MAX_S, 0.5]),
                                   st.floats(1e-300, 2 * T_MAX_S)))
                   for _ in range(draw(st.sampled_from([0, 1, 3, 200])))]
        segments.append(PathSegment(points, draw(st.sampled_from([list, tuple]))(periods)))
    return Trajectory(segments)


@settings(max_examples=300, deadline=None)
@given(trajectories())
def test_dump_writes_what_the_per_line_json_writer_writes(traj):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "traj.jsonl"
        try:
            dump_trajectory(traj, path)
            got = path.read_text()
        except TraceError as exc:
            got = f"TraceError: {exc}"
            assert not path.exists()
    assert got == dump_trajectory_by_json(traj)


def test_dump_load_round_trip(tmp_path):
    trace = out_and_back_trace()
    traj = run_pdr(trace, straight_graph(), (0.0, 0.0, 1.0))
    path = tmp_path / "traj.jsonl"
    dump_trajectory(traj, path)
    back = load_trajectory(path)
    assert len(back.poses) == len(traj.poses)
    assert len(back.segments) == len(traj.segments)
    for a, b in zip(traj.poses, back.poses):
        assert (a.t, a.x, a.y, a.floor) == (b.t, b.x, b.y, b.floor)


@pytest.mark.parametrize("mode", HEADING_SOURCES, ids=MODE_ID.get)
def test_round_trip_keeps_each_segments_periods(tmp_path, mode):
    trace = out_and_back_trace()
    traj = run_pdr(trace, straight_graph(), (0.0, 0.0, 1.0),
                   PdrConfig(heading_source=mode))
    path = tmp_path / "traj.jsonl"
    dump_trajectory(traj, path)
    back = load_trajectory(path)
    assert ([s.periodicities for s in back.segments]
            == [s.periodicities for s in traj.segments])
    assert sum(len(s.periodicities) for s in back.segments) > 0
    # the periods run_pdr keeps are those the steps give each segment's span
    attach_periodicities(back, detect_steps(trace))
    assert ([s.periodicities for s in back.segments]
            == [s.periodicities for s in traj.segments])


def pose_line(t, k, **extra) -> str:
    return json.dumps({"t": t, "x": 0, "y": 0, "floor": 1, "segment": k,
                       **extra}) + "\n"


def test_load_keeps_equal_times_and_orders_each_segment_alone(tmp_path):
    path = tmp_path / "traj.jsonl"
    path.write_text(pose_line(5, 1, periods=[0.5]) + pose_line(1, 0, periods=[])
                    + pose_line(1, 0) + pose_line(6, 1) + pose_line(2, 0))
    back = load_trajectory(path)
    assert [[p.t for p in s.points] for s in back.segments] == [[1, 1, 2], [5, 6]]
    assert [s.periodicities for s in back.segments] == [[], [0.5]]


def test_load_refuses_a_pose_earlier_than_its_segment_predecessor(tmp_path):
    path = tmp_path / "traj.jsonl"
    path.write_text(pose_line(1, 0, periods=[]) + pose_line(3, 0) + pose_line(2, 0))
    with pytest.raises(TraceError, match=rf"^{re.escape(str(path))}:3: pose t 2.0 "
                       r"goes back in time from 3.0 in segment 0$"):
        load_trajectory(path)


def load_trajectory_field_by_field(path) -> Trajectory:
    """The reference: load_trajectory as it read every field through
    number, before its one test of a whole pose, the floor bounded as x
    and y are and a period by twice T_MAX_S."""
    segs: dict[int, PathSegment] = {}
    for ln, rec in read_jsonl(path, TraceError, f"{path}:"):
        try:
            pose = Pose(*(number(rec[k], k) for k in ("t", "x", "y", "floor")))
            segment = number(rec["segment"], "segment", integral=True)
        except (KeyError, TypeError, ValueError):
            raise TraceError(f"{path}:{ln}: pose needs finite numbers t, x, y, "
                             f"floor and an integer segment") from None
        for k, bound in (("t", T_MAX_S), ("x", VALUE_MAX), ("y", VALUE_MAX),
                         ("floor", VALUE_MAX)):
            number(getattr(pose, k), f"{path}:{ln}: pose {k}", TraceError,
                   at_least=-bound, at_most=bound)
        seg = segs.get(segment)
        if seg is None:
            if "periods" not in rec:
                raise TraceError(f"{path}:{ln}: segment {segment} has no step "
                                 f"periods; the file predates them, re-run track")
            periods = rec["periods"]
            if not isinstance(periods, list):
                raise TraceError(f"{path}:{ln}: periods must be a list, got {shown(periods)}")
            try:
                periodicities = [number(v, "period", above=0, at_most=2 * T_MAX_S)
                                 for v in periods]
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


def trajectory_outcome(load, path):
    """What a load gives, every number by repr so that 1 and 1.0 or -0.0
    and 0.0 differ: the segments, or the error text."""
    try:
        traj = load(path)
    except TraceError as exc:
        return str(exc)
    return [([repr(p) for p in seg.periodicities],
             [repr((p.t, p.x, p.y, p.floor)) for p in seg.points]) for seg in traj.segments]


# values a trajectory field may hold besides a finite float: JSON's other
# types, integral and huge numbers, and floats whose sum overflows
ODD_FIELDS = [3, 0, 2.0, 1.5, -0.0, True, False, None, "1.0", [1.0], {}, math.nan,
              math.inf, -math.inf, 10**400, -(10**400), 2**1023, 1.7e308, -1.7e308]
POSE_FIELDS = ("t", "x", "y", "floor", "segment")


def write_records(path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def three_poses() -> list[dict]:
    return [{"t": 0.0, "x": 0.5, "y": -1.25, "floor": 1.0, "segment": 0, "periods": [0.5]},
            {"t": 0.5, "x": 1.0, "y": -1.25, "floor": 1.0, "segment": 0},
            {"t": 1.0, "x": 1.5, "y": 0.0, "floor": 2.0, "segment": 1, "periods": []}]


def test_the_whole_pose_test_reads_each_field_as_number_does(tmp_path):
    for line in range(3):
        for key in (*POSE_FIELDS, "periods"):
            for value in ODD_FIELDS + [[value] for value in ODD_FIELDS] + ["gone"]:
                records = three_poses()
                if value == "gone":
                    records[line].pop(key, None)
                else:
                    records[line][key] = value
                path = write_records(tmp_path / "traj.jsonl", records)
                assert (trajectory_outcome(load_trajectory, path)
                        == trajectory_outcome(load_trajectory_field_by_field, path)), \
                    (line, key, value)
    path = write_records(tmp_path / "traj.jsonl", [[0.0, 0.0, 0.0, 1.0, 0], "pose", 7])
    assert trajectory_outcome(load_trajectory, path).endswith(":1: pose needs finite "
                                                              "numbers t, x, y, floor and "
                                                              "an integer segment")


@st.composite
def mutated_trajectories(draw) -> list:
    """Segments of a few poses, each field a finite float or one of
    ODD_FIELDS, some records' keys dropped or the record not an object."""
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(ODD_FIELDS))
    records, t = [], 0.0
    for k in range(draw(st.integers(1, 3))):
        for i in range(draw(st.integers(1, 3))):
            rec = {"t": t, "x": draw(value), "y": draw(value), "floor": draw(value),
                   "segment": draw(st.sampled_from([k, k, float(k), *ODD_FIELDS]))}
            if i == 0:
                rec["periods"] = draw(st.lists(value, max_size=3))
            if draw(st.booleans()):
                rec["t"] = draw(value)
            t += 0.5
            records.append(rec)
    for _ in range(draw(st.integers(0, 2))):
        rec = draw(st.sampled_from(records))
        rec.pop(draw(st.sampled_from([*POSE_FIELDS, "periods"])), None)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(records) - 1))
        records[k] = list(records[k].values())
    return records


@settings(max_examples=300, deadline=None)
@given(mutated_trajectories())
def test_the_whole_pose_test_loads_what_number_loads(records):
    with tempfile.TemporaryDirectory() as d:
        path = write_records(Path(d) / "traj.jsonl", records)
        assert (trajectory_outcome(load_trajectory, path)
                == trajectory_outcome(load_trajectory_field_by_field, path))


def test_attach_periodicities_splits_by_segment(tmp_path):
    trace = out_and_back_trace()
    traj = run_pdr(trace, straight_graph(), (0.0, 0.0, 1.0))
    path = tmp_path / "traj.jsonl"
    dump_trajectory(traj, path)
    back = load_trajectory(path)
    attach_periodicities(back, detect_steps(trace))
    counts = [len(s.periodicities) for s in back.segments]
    orig = [len(s.periodicities) for s in traj.segments]
    assert counts == orig
    assert sum(counts) > 0


def test_trajectory_errors_zero_for_exact_truth():
    poses = [Pose(t=float(i), x=float(i), y=0.0, floor=1.0) for i in range(5)]
    # truth sampled exactly at pose times and positions
    truth = TruthChannel(t=np.arange(5.0), v=np.column_stack(
        [np.arange(5.0), np.zeros(5), np.ones(5)]))
    trace = SensorTrace(truth=truth)
    traj = Trajectory(segments=[PathSegment(points=poses, periodicities=[])])
    assert trajectory_errors(traj, trace).max() == 0.0


# values with ties; + 0.0 turns -0.0 into 0.0, which sample intervals are
@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([0.0, 0.02, 0.021, 1.5]),
                          st.floats(-1e300, 1e300, allow_nan=False).map(lambda v: v + 0.0)),
                min_size=1, max_size=30))
def test_median_is_numpys_without_numpy_ma(values):
    a = np.array(values)
    got = _median(a)
    assert type(got) is float
    assert got == float(np.median(a))
