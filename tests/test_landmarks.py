import math
import re
from bisect import bisect_right
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridemap.config import LandmarkConfig, SensorConfig
from stridemap.landmarks import (STILL_SUPPRESS_LABELS, GraphError,
                                 _baro_window_means,
                                 LandmarkEvent, MotionState, RuleKind,
                                 bearing, circular_diff,
                                 detect_acc_landmarks, detect_baro_landmarks,
                                 detect_events, detect_gyro_landmarks,
                                 graph_from_dict, sgn)
from stridemap.sensors import Channel, SensorTrace, classify_motion
from stridemap.sim import generate_trace

from conftest import DT, demo_scenario, gyro_channel


def labels(pattern: str, hop: float = 1.0):
    """'WWWSS' -> [(0.0, Walking), ..., (3.0, Still), (4.0, Still)]."""
    out = []
    for i, ch in enumerate(pattern):
        state = MotionState.WALKING if ch == "W" else MotionState.STILL
        out.append((i * hop, state))
    return out


# ---------------------------------------------------------------------------
# sgn


def test_sgn():
    assert sgn(0.1) == 1
    assert sgn(0.0) == 0
    assert sgn(-0.1) == -1


# ---------------------------------------------------------------------------
# stop landmarks


def test_walk_still_walk_fires_at_transition():
    evs = detect_acc_landmarks(labels("WWWSSWWW"))
    assert len(evs) == 1
    assert evs[0].kind is RuleKind.ACC
    assert evs[0].t == 3.0
    assert evs[0].t_end == 5.0
    assert evs[0].auxiliary == 2.0


def test_overlong_still_rejected():
    evs = detect_acc_landmarks(labels("WWW" + "S" * 12 + "WWW"))
    assert evs == []


def test_all_walking_no_event():
    assert detect_acc_landmarks(labels("W" * 10)) == []


def test_short_walking_flank_rejected():
    assert detect_acc_landmarks(labels("WSSWWW")) == []


def test_two_separated_stops():
    evs = detect_acc_landmarks(labels("WWWSSWWWSSWWW"))
    assert [e.t for e in evs] == [3.0, 8.0]


# ---------------------------------------------------------------------------
# turn landmarks


def burst_trace(spans, rate_value):
    """Gyro trace with wz = rate_value inside the given (t0, t1) spans."""
    total = max(t1 for _, t1 in spans) + 1.0
    n = int(round(total / DT))
    wz = np.zeros(n)
    for t0, t1 in spans:
        wz[int(round(t0 / DT)):int(round(t1 / DT))] = rate_value
    return SensorTrace(gyro=gyro_channel(wz))


def test_single_burst_integrates_angle():
    evs = detect_gyro_landmarks(burst_trace([(1.0, 2.5)], 1.2))
    assert len(evs) == 1
    assert evs[0].kind is RuleKind.GYRO
    # tumbling windows clip the trailing partial window of the burst
    assert evs[0].auxiliary == pytest.approx(1.8, abs=0.15)
    assert evs[0].t == pytest.approx(1.0)


def test_window_aligned_burst_is_exact():
    evs = detect_gyro_landmarks(burst_trace([(1.0, 2.6)], 1.2))
    assert len(evs) == 1
    assert evs[0].auxiliary == pytest.approx(1.2 * 1.6)


def test_below_threshold_no_event():
    assert detect_gyro_landmarks(burst_trace([(1.0, 2.5)], 0.5)) == []


def test_two_right_turns():
    evs = detect_gyro_landmarks(burst_trace([(1.0, 1.8), (4.0, 4.8)], -1.5))
    assert len(evs) == 2
    assert all(e.auxiliary < 0 for e in evs)


def test_burst_inside_confirmed_stop_suppressed():
    trace = burst_trace([(2.2, 2.8)], 1.5)
    motion = labels("WWSSSW")
    assert detect_gyro_landmarks(trace, motion=motion) == []


def test_burst_in_single_still_window_survives():
    trace = burst_trace([(2.2, 2.8)], 1.5)
    motion = labels("WWSWWW")
    assert len(detect_gyro_landmarks(trace, motion=motion)) == 1


# ---------------------------------------------------------------------------
# the event list


def window_turns(windows, n_windows=6, hop=1.25):
    """Gyro trace of n_windows gyro windows, hop seconds each, turning in
    the listed ones; every window edge is an exact binary time."""
    w = SensorConfig().gyro_window
    wz = np.zeros(n_windows * w)
    for k in windows:
        wz[k * w:(k + 1) * w] = 1.5
    t = np.arange(n_windows * w) * (hop / w)
    return SensorTrace(gyro=Channel(t=t, v=np.column_stack(
        [np.zeros_like(wz), np.zeros_like(wz), wz])))


@pytest.mark.parametrize("windows,spans,kept", [
    # turns that end where the stop starts and start where it ends
    ([1, 4], [(1.25, 2.5), (5.0, 6.25)], True),
    ([4, 5], [(5.0, 7.5)], True),
    # a turn from before the stop into it, and one from inside it out of it
    ([1, 2], [(1.25, 3.75)], False),
    ([3, 4], [(3.75, 6.25)], False),
])
def test_a_stop_is_dropped_only_when_a_turn_overlaps_it(windows, spans, kept):
    # the stop spans [2.5, 5.0) between two 2.5 s walks
    motion = labels("WWSSWW", hop=1.25)
    trace = window_turns(windows)
    turns = detect_gyro_landmarks(trace, motion=motion)
    assert [(ev.t, ev.t_end) for ev in turns] == spans
    stop = LandmarkEvent(t=2.5, kind=RuleKind.ACC, auxiliary=2.5, t_end=5.0)
    assert detect_acc_landmarks(motion) == [stop]
    assert detect_events(trace, motion) == [stop] * kept + turns


def reference_events(trace, motion, cfg, sensor_cfg):
    """The event list as run_pdr assembled it before detect_events, with
    the stop detector's and the turn check's own run loops: every stop is
    checked against every turn."""
    hop = motion[1][0] - motion[0][0]
    runs = []
    for t, state in motion:
        if runs and runs[-1][0] is state:
            runs[-1] = (state, runs[-1][1], runs[-1][2] + hop)
        else:
            runs.append((state, t, hop))
    acc_evs = [LandmarkEvent(t=start, kind=RuleKind.ACC, auxiliary=dur,
                             t_end=start + dur)
               for before, (state, start, dur), after in zip(runs, runs[1:], runs[2:])
               if state is MotionState.STILL and before[2] >= cfg.walking_min_s
               and after[2] >= cfg.walking_min_s
               and cfg.still_min_s <= dur <= cfg.still_max_s]
    starts, reach = [], []
    for state, run in groupby(motion, key=itemgetter(1)):
        times = [t for t, _ in run]
        if state is MotionState.STILL and len(times) >= STILL_SUPPRESS_LABELS:
            end = times[0] + len(times) * hop
            starts.append(times[0])
            reach.append(max(reach[-1], end) if reach else end)
    gyro_evs = [ev for ev in detect_gyro_landmarks(trace, cfg, sensor_cfg)
                if not ((k := bisect_right(starts, ev.t)) and reach[k - 1] >= ev.t_end)]
    acc_evs = [a for a in acc_evs
               if not any(g.t < a.t_end and g.t_end > a.t for g in gyro_evs)]
    return acc_evs + gyro_evs + detect_baro_landmarks(trace, cfg)


@pytest.mark.parametrize("name", ["two_floor_demo", "mixed_quality_demo"])
def test_event_list_matches_the_reference_assembly(name):
    sc = demo_scenario(name)
    trace = generate_trace(sc.environment, sc.walk, sc.noise)
    motion = classify_motion(trace)
    cfg, sensor_cfg = LandmarkConfig(), SensorConfig()
    events = detect_events(trace, motion, cfg, sensor_cfg)
    assert events == reference_events(trace, motion, cfg, sensor_cfg)
    assert {RuleKind.ACC, RuleKind.GYRO} <= {ev.kind for ev in events}


# ---------------------------------------------------------------------------
# pressure landmarks


def baro_trace(window_means, samples_per_window=10, window_s=1.0):
    vals = np.repeat(np.asarray(window_means, dtype=float), samples_per_window)
    t = np.arange(len(vals)) * (window_s / samples_per_window)
    return SensorTrace(baro=Channel(t=t, v=vals))


def test_ramp_entrance_and_exit():
    means = [1013.0] * 10 + [1013.0 - 0.09 * k for k in range(1, 7)] + [1012.46] * 3
    evs = detect_baro_landmarks(baro_trace(means))
    assert [e.kind for e in evs] == [RuleKind.BARO_IN, RuleKind.BARO_OUT]
    entrance, exit_ = evs
    assert entrance.t == pytest.approx(10.0)   # end of the last flat window
    assert entrance.auxiliary == pytest.approx(-0.54)
    assert exit_.t == pytest.approx(16.0)      # first flat window after ramp
    assert exit_.auxiliary == pytest.approx(-0.54)


def test_flat_pressure_no_events():
    assert detect_baro_landmarks(baro_trace([1013.0] * 20)) == []


def test_small_blip_no_events():
    means = [1013.0] * 8 + [1013.1] + [1013.0] * 8
    assert detect_baro_landmarks(baro_trace(means)) == []


def test_events_alternate_in_out():
    down = [1013.0 - 0.09 * k for k in range(1, 7)]
    means = ([1013.0] * 6 + down + [1012.46] * 6
             + [1012.46 + 0.09 * k for k in range(1, 7)] + [1013.0] * 6)
    kinds = [e.kind for e in detect_baro_landmarks(baro_trace(means))]
    assert kinds == [RuleKind.BARO_IN, RuleKind.BARO_OUT,
                     RuleKind.BARO_IN, RuleKind.BARO_OUT]


def test_gap_before_ramp_keeps_event_times():
    # 10 Hz, flat until 25 s, a 0.5 hPa ramp from 25 to 30 s, flat after;
    # a gap must not shift the events onto the windows before it
    t = np.arange(400) / 10.0
    p = 1013.0 - 0.1 * np.clip(t - 25.0, 0.0, 5.0)
    gap = (t >= 10.0) & (t < 20.0)
    for keep in (np.ones(len(t), bool), ~gap):
        trace = SensorTrace(baro=Channel(t=t[keep], v=p[keep]))
        evs = detect_baro_landmarks(trace)
        assert [(e.kind, e.t) for e in evs] == [
            (RuleKind.BARO_IN, pytest.approx(25.0)),
            (RuleKind.BARO_OUT, pytest.approx(31.0))]


def test_gap_does_not_break_a_flat_run():
    # the windows on either side of a gap are neighbours: equal pressure
    # across it is flat, so a ramp right after the gap still has its
    # entrance, stamped at the last window before the gap
    t = np.arange(300) / 10.0
    p = 1013.0 - 0.1 * np.clip(t - 20.0, 0.0, 5.0)
    keep = ~((t >= 10.0) & (t < 20.0))
    evs = detect_baro_landmarks(SensorTrace(baro=Channel(t=t[keep], v=p[keep])))
    assert [(e.kind, e.t) for e in evs] == [
        (RuleKind.BARO_IN, pytest.approx(10.0)),
        (RuleKind.BARO_OUT, pytest.approx(26.0))]


# ---------------------------------------------------------------------------
# the pressure detector against its rescanning form: every window's mean
# over the whole window range, and each ramp's length counted window by
# window from every flat window, the reference the run-based detector must
# match event for event


def reference_window_means(trace, window_s):
    t = trace.baro.t
    if len(t) == 0:
        return np.empty(0), np.empty(0)
    t0 = t[0]
    idx = np.floor((t - t0) / window_s).astype(int)
    n_win = idx[-1] + 1
    sums = np.bincount(idx, weights=trace.baro.v, minlength=n_win)
    counts = np.bincount(idx, minlength=n_win)
    full = counts > 0
    ends = t0 + (np.arange(n_win) + 1) * window_s
    return sums[full] / counts[full], ends[full]


def reference_baro_landmarks(trace, cfg=LandmarkConfig()):
    p, ends = reference_window_means(trace, cfg.baro_window_s)
    n = len(p)
    if n < 3:
        return []
    d = np.diff(p)
    events = []
    vertical = None
    i = 1
    while i < n:
        fired = False
        if vertical is not True and abs(p[i] - p[i - 1]) < cfg.baro_flat_threshold:
            k = 0
            s0 = sgn(d[i]) if i < n - 1 else 0
            if s0 != 0:
                j = i
                while j < n - 1 and sgn(d[j]) == s0:
                    k += 1
                    j += 1
                if k >= 1 and abs(p[i + k] - p[i]) > cfg.baro_change_threshold:
                    events.append(LandmarkEvent(
                        t=float(ends[i]), kind=RuleKind.BARO_IN,
                        auxiliary=float(p[i + k] - p[i]), t_end=float(ends[i])))
                    vertical = True
                    fired = True
        if (not fired and vertical is not False and i < n - 1
                and abs(p[i] - p[i + 1]) < cfg.baro_flat_threshold):
            s0 = sgn(d[i - 1])
            if s0 != 0:
                k = 0
                j = i - 1
                while j >= 0 and sgn(d[j]) == s0:
                    k += 1
                    j -= 1
                if k >= 1 and abs(p[i - k] - p[i]) > cfg.baro_change_threshold:
                    events.append(LandmarkEvent(
                        t=float(ends[i]), kind=RuleKind.BARO_OUT,
                        auxiliary=float(p[i] - p[i - k]), t_end=float(ends[i])))
                    vertical = False
        i += 1
    return events


@st.composite
def pressure_runs(draw) -> SensorTrace:
    """A barometer channel made of runs, each with one pressure change per
    sample (0 for a flat run) and one sample spacing: 0 repeats a
    timestamp, and a spacing past the window leaves windows empty."""
    t, p, ts, ps = 0.0, 1013.0, [], []
    for _ in range(draw(st.integers(0, 12))):
        change = draw(st.sampled_from([0.0, 0.01, -0.01, 0.05, -0.05, 0.1, -0.1, 0.3, -0.3]))
        spacing = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.5]))
        for _ in range(draw(st.integers(1, 15))):
            ts.append(t)
            ps.append(p)
            t += spacing
            p += change
    return SensorTrace(baro=Channel(t=np.array(ts), v=np.array(ps)))


@settings(max_examples=300, deadline=None)
@given(pressure_runs(), st.sampled_from([0.3, 1.0, 1.7]),
       st.sampled_from([0.0, 0.05, 0.1]), st.sampled_from([0.0, 0.3, 0.5]))
def test_ramps_from_runs_match_the_rescanning_detector(trace, window_s, flat, change):
    cfg = LandmarkConfig(baro_window_s=window_s, baro_flat_threshold=flat,
                         baro_change_threshold=change)
    assert detect_baro_landmarks(trace, cfg) == reference_baro_landmarks(trace, cfg)


def test_window_arrays_hold_only_occupied_windows():
    # two samples 1e9 s apart in 1 ms windows: two windows, not 1e12
    trace = SensorTrace(baro=Channel(t=np.array([0.0, 1e9]), v=np.array([1013.0, 1012.0])))
    p, ends = _baro_window_means(trace, 1e-3)
    assert p.tolist() == [1013.0, 1012.0]
    assert ends[0] == 1e-3 and ends[1] == pytest.approx(1e9, abs=1e-2)


# ---------------------------------------------------------------------------
# angles


def test_bearing_axis_cases():
    assert bearing(0, 0, 1, 0) == 0.0
    assert bearing(0, 0, 0, 1) == pytest.approx(math.pi / 2)
    assert bearing(0, 0, -1, 0) == pytest.approx(math.pi)


@given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
def test_circular_diff_symmetric_and_bounded(a, b):
    d = circular_diff(a, b)
    assert 0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(circular_diff(b, a))


def test_circular_diff_wraps():
    assert circular_diff(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# graph


def two_node_graph(distance=10.0, override=False):
    return {
        "nodes": [
            {"id": "a", "x": 0.0, "y": 0.0, "floor": 1, "rules": ["acc"]},
            {"id": "b", "x": 10.0, "y": 0.0, "floor": 1, "rules": ["gyro"]},
        ],
        "edges": [{"from": "a", "to": "b", "heading_deg": 0.0,
                   "distance_m": distance, "override": override}],
    }


def test_consistent_two_node_graph():
    g = graph_from_dict(two_node_graph())
    assert set(g.nodes) == {"a", "b"}
    assert g.edges[0].distance == 10.0


def test_distance_mismatch_rejected():
    with pytest.raises(GraphError, match="distance"):
        graph_from_dict(two_node_graph(distance=12.0))


def test_override_skips_geometry_check():
    g = graph_from_dict(two_node_graph(distance=12.0, override=True))
    assert g.edges[0].distance == 12.0


def test_heading_mismatch_rejected():
    data = two_node_graph()
    data["edges"][0]["heading_deg"] = 45.0
    with pytest.raises(GraphError, match="heading"):
        graph_from_dict(data)


def test_duplicate_node_rejected():
    data = two_node_graph()
    data["nodes"].append(dict(data["nodes"][0]))
    with pytest.raises(GraphError, match="duplicate"):
        graph_from_dict(data)


LONG_ID = "y" * 50000


@pytest.mark.parametrize("mutate", [
    lambda g: g["nodes"].extend([dict(g["nodes"][0], id=LONG_ID)] * 2),
    lambda g: g["edges"][0].update(to=LONG_ID),
    lambda g: g["nodes"][1].update(id=LONG_ID) or g["edges"][0].update(
        to=LONG_ID, distance_m=3.0),
    lambda g: g["nodes"][1].update(id=LONG_ID) or g["edges"][0].update(
        to=LONG_ID, heading_deg=45.0),
], ids=["duplicate id", "unknown endpoint", "distance", "heading"])
def test_a_reference_check_quotes_an_id_cut_short(mutate):
    data = two_node_graph()
    mutate(data)
    with pytest.raises(GraphError) as err:
        graph_from_dict(data)
    assert len(str(err.value)) < 1024 and "yyy..." in str(err.value)


def test_unknown_rule_rejected():
    data = two_node_graph()
    data["nodes"][0]["rules"] = ["sonar"]
    with pytest.raises(GraphError, match=re.escape(
            "graph.nodes[0].rules[0] must be one of ['acc', 'baro_in', 'baro_out', "
            "'gyro', 'gyro+', 'gyro-'], got 'sonar'")):
        graph_from_dict(data)


def test_auto_reverse_adds_back_edges():
    data = two_node_graph()
    data["auto_reverse"] = True
    g = graph_from_dict(data)
    assert len(g.edges) == 2
    back = g.out_edges("b")[0]
    assert back.to_id == "a"
    assert back.heading == pytest.approx(math.pi)


def test_turn_sign_rules_parse():
    data = two_node_graph()
    data["nodes"][1]["rules"] = ["gyro+", "gyro-"]
    g = graph_from_dict(data)
    signs = {r.turn_sign for r in g.nodes["b"].rules}
    assert signs == {1, -1}
