import io
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stridemap.sim as sim
from conftest import demo_scenario
from stridemap.landmarks import RuleKind, detect_baro_landmarks
from stridemap.sensors import RSS_MAX_DBM, detect_steps, dump_trace
from stridemap.sim import (BASE_PRESSURE, BUMP_AMPLITUDE, FLOOR_ATTENUATION_DB,
                           GRAVITY, MAG_EVERY, MAX_WALK_TICKS, PRESSURE_PER_FLOOR,
                           RSS_CUTOFF_DBM, TICK, TRUTH_EVERY, Ap, Environment,
                           NoiseModel, ScenarioError, _bump_train, _plan_state,
                           _zone_bias, generate_test_queries, generate_trace,
                           load_scenario, plan_walk, scenario_from_dict)

LENGTH = 20.16  # 32 nominal steps


def corridor_dict(walk=None, noise=None):
    walk_d = {"waypoints": ["a", "b"]}
    walk_d.update(walk or {})
    return {
        "environment": {
            "floor_height_m": 3.5,
            "corridors": {"1": [[[0.0, 0.0], [LENGTH, 0.0]]]},
            "graph": {
                "nodes": [
                    {"id": "a", "x": 0.0, "y": 0.0, "floor": 1,
                     "rules": ["gyro"]},
                    {"id": "b", "x": LENGTH, "y": 0.0, "floor": 1,
                     "rules": ["gyro"]},
                ],
                "edges": [{"from": "a", "to": "b", "heading_deg": 0.0,
                           "distance_m": LENGTH}],
                "auto_reverse": True,
            },
            "aps": [
                {"mac": "ap-w", "x": 0.0, "y": 0.0, "floor": 1,
                 "tx_power_dbm": -40.0, "path_loss_exponent": 2.0},
                {"mac": "ap-e", "x": LENGTH, "y": 0.0, "floor": 1,
                 "tx_power_dbm": -40.0, "path_loss_exponent": 2.0},
                {"mac": "ap-n", "x": LENGTH / 2, "y": 5.0, "floor": 1,
                 "tx_power_dbm": -40.0, "path_loss_exponent": 2.0},
            ],
        },
        "walk": walk_d,
        "noise": noise or {},
    }


def corridor_scenario(walk=None, noise=None):
    return scenario_from_dict(corridor_dict(walk, noise))


def trace_of(sc):
    return generate_trace(sc.environment, sc.walk, sc.noise)


# ---------------------------------------------------------------------------
# walk planning


def test_plan_lays_exact_steps():
    sc = corridor_scenario()
    plan = plan_walk(sc.environment, sc.walk)
    assert len(plan.steps) == 32
    assert plan.scripted_step_count == 32
    assert plan.duration_s == pytest.approx(20.0)  # 2 + 32 * 0.5 + 2
    assert [p.kind for p in plan.phases] == ["still", "walk", "still"]


def test_plan_last_step_lands_on_waypoint():
    sc = corridor_scenario()
    plan = plan_walk(sc.environment, sc.walk)
    last = plan.steps[-1]
    assert (last.x, last.y) == (LENGTH, 0.0)


def test_stop_inserts_still_phase():
    sc = corridor_scenario(walk={"stops": [{"at": "b", "duration_s": 3.0}]})
    plan = plan_walk(sc.environment, sc.walk)
    assert [p.kind for p in plan.phases] == ["still", "walk", "still", "still"]
    assert plan.duration_s == pytest.approx(23.0)


def test_false_walking_counts_as_scripted_bumps():
    sc = corridor_scenario(
        walk={"false_walking": [{"t": 0.0, "duration_s": 2.0}]})
    plan = plan_walk(sc.environment, sc.walk)
    assert len(plan.false_bumps) > 0
    assert plan.scripted_step_count == 32 + len(plan.false_bumps)


def test_false_walking_never_moves_the_walker():
    sc = corridor_scenario(
        walk={"false_walking": [{"t": 0.0, "duration_s": 2.0}]})
    base = corridor_scenario()
    t1 = trace_of(sc).truth
    t0 = trace_of(base).truth
    assert np.array_equal(t1.xy, t0.xy)


def test_irregular_leg_changes_cadence():
    sc = corridor_scenario(walk={"irregular_legs": [0]})
    plan = plan_walk(sc.environment, sc.walk)
    periods = {s.period_ticks for s in plan.steps}
    assert len(periods) > 1
    # still arrives exactly at the waypoint
    assert (plan.steps[-1].x, plan.steps[-1].y) == (LENGTH, 0.0)
    assert sum(s.length for s in plan.steps) == pytest.approx(LENGTH)


def test_overlong_irregular_stride_rejected():
    sc = corridor_scenario(walk={"irregular_legs": [0],
                                 "irregular_lengths": [2.5, 0.3]})
    with pytest.raises(ScenarioError, match="1.85"):
        plan_walk(sc.environment, sc.walk)


def test_step_period_must_fit_grid():
    sc = corridor_scenario(walk={"warmup_s": 0.03})
    with pytest.raises(ScenarioError, match="sample-grid"):
        plan_walk(sc.environment, sc.walk)


def test_too_fast_cadence_rejected():
    sc = corridor_scenario(walk={"speed_mps": 2.1})
    with pytest.raises(ScenarioError, match="too short"):
        plan_walk(sc.environment, sc.walk)


@pytest.mark.parametrize("walk, key", [
    ({"speed_mps": 5e-324}, r"walk\.step_length_m / walk\.speed_mps \(inf s\)"),
    ({"speed_mps": 1e-6}, "walk.speed_mps"),
    ({"stops": [{"at": "b", "duration_s": 30000.0}], "waypoints": ["a", "b", "a", "b"]},
     "walk.stops at 'b' makes the walk longer"),
    ({"cooldown_s": 50000.0}, r"walk\.cooldown_s \(50000.0 s\) must be a finite duration"),
    ({"step_length_m": 6.3e-301, "speed_mps": 1.26e-300}, "walk.step_length_m makes"),
    ({"irregular_legs": [0], "irregular_lengths": [1e-300]}, "walk.irregular_lengths"),
])
def test_walk_beyond_the_tick_budget_rejected(walk, key):
    sc = corridor_scenario(walk=walk)
    with pytest.raises(ScenarioError, match=key):
        plan_walk(sc.environment, sc.walk)


@pytest.mark.parametrize("interval", [1e-11, 2e-11, -0.02])
def test_a_scan_interval_below_one_tick_is_refused(interval):
    # 1e-11 s rounds to 0 ticks, which np.arange divided by
    sc = corridor_scenario()
    walk = replace(sc.walk, scan_interval_s=interval)
    with pytest.raises(ScenarioError, match=r"^walk\.scan_interval_s \(.* s\) must be at "
                                            r"least one sample tick \(0\.02 s\)$"):
        generate_trace(sc.environment, walk, sc.noise)
    assert len(generate_trace(sc.environment, replace(walk, scan_interval_s=TICK),
                              sc.noise).wifi) == 1000


def test_tick_budget_is_far_above_a_long_survey():
    # the 15-loop two-floor benchmark walk plans about 165k ticks
    sc = demo_scenario("two_floor_demo", laps=14, noise=NoiseModel())
    assert plan_walk(sc.environment, sc.walk).total_ticks * 10 < MAX_WALK_TICKS
    assert MAX_WALK_TICKS * TICK == 12 * 3600


def test_unconnected_waypoints_rejected():
    d = corridor_dict()
    d["environment"]["graph"]["auto_reverse"] = False
    d["walk"]["waypoints"] = ["b", "a"]
    sc = scenario_from_dict(d)
    with pytest.raises(ScenarioError, match="not connected"):
        plan_walk(sc.environment, sc.walk)


# ---------------------------------------------------------------------------
# trace synthesis, noiseless


def test_step_detector_recovers_scripted_steps():
    trace = trace_of(corridor_scenario())
    steps = detect_steps(trace)
    assert len(steps) == 32
    periods = [s.periodicity for s in steps]
    assert periods[0] is None
    assert all(p == pytest.approx(0.5) for p in periods[1:])


def test_false_walking_bumps_are_detected():
    sc = corridor_scenario(
        walk={"false_walking": [{"t": 0.0, "duration_s": 2.0}]})
    plan = plan_walk(sc.environment, sc.walk)
    steps = detect_steps(trace_of(sc))
    assert len(steps) == plan.scripted_step_count


def test_flat_walk_holds_floor_pressure():
    trace = trace_of(corridor_scenario())
    expected = BASE_PRESSURE - PRESSURE_PER_FLOOR  # floor 1
    assert np.all(trace.baro.v == expected)


def test_heading_east_everywhere():
    trace = trace_of(corridor_scenario())
    assert np.allclose(trace.mag.v[:, 0], 1.0)
    assert np.allclose(trace.mag.v[:, 1], 0.0, atol=1e-12)


def test_compass_zone_bends_headings():
    zone = {"x_min": -1.0, "x_max": LENGTH + 1, "y_min": -1.0, "y_max": 1.0,
            "floor": 1, "bias_deg": 90.0}
    trace = trace_of(corridor_scenario(noise={"compass_zones": [zone]}))
    assert np.allclose(trace.mag.v[:, 0], 0.0, atol=1e-12)
    assert np.allclose(trace.mag.v[:, 1], 1.0)


def test_truth_spans_the_walk():
    trace = trace_of(corridor_scenario())
    truth = trace.truth
    assert (truth.xy[0] == (0.0, 0.0)).all()
    assert truth.xy[-1] == pytest.approx((LENGTH, 0.0))
    assert np.all(truth.floor == 1.0)
    assert np.all(np.diff(truth.t) > 0)


def test_scans_arrive_on_schedule():
    trace = trace_of(corridor_scenario())
    assert [s.t for s in trace.wifi] == pytest.approx(
        list(np.arange(2.0, 21.0, 2.0)))
    assert all(set(s.readings) == {"ap-w", "ap-e", "ap-n"}
               for s in trace.wifi)


def test_rss_clips_at_zero_dbm():
    # 10 dBm at 1 m: above 0 dBm for the first 3 m, below it beyond
    d = corridor_dict(noise={"shadowing_std_db": 3.0})
    d["environment"]["aps"][0]["tx_power_dbm"] = 10.0
    sc = scenario_from_dict(d)
    west = [s.readings["ap-w"] for s in trace_of(sc).wifi]
    assert max(west) == 0
    assert min(west) < 0
    queries = generate_test_queries(sc.environment, [(0.0, 0.0, 1)], sc.noise)
    assert queries[0][1]["ap-w"] == 0


def test_rss_falls_with_distance():
    trace = trace_of(corridor_scenario())
    west = [s.readings["ap-w"] for s in trace.wifi]
    assert west[0] > west[-1]


# ---------------------------------------------------------------------------
# determinism and stream separation


def dumped(trace):
    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


def test_identical_inputs_identical_traces():
    noise = {"seed": 3, "accel_std_mps2": 0.3, "baro_std_hpa": 0.05,
             "shadowing_std_db": 2.0}
    a = dumped(trace_of(corridor_scenario(noise=noise)))
    b = dumped(trace_of(corridor_scenario(noise=noise)))
    assert a == b


def test_seed_changes_noise():
    a = dumped(trace_of(corridor_scenario(noise={"seed": 0,
                                                 "accel_std_mps2": 0.3})))
    b = dumped(trace_of(corridor_scenario(noise={"seed": 1,
                                                 "accel_std_mps2": 0.3})))
    assert a != b


def test_noise_streams_do_not_cross():
    # turning on pressure noise must not disturb the accelerometer draw
    quiet = trace_of(corridor_scenario(noise={"seed": 5,
                                              "accel_std_mps2": 0.3}))
    noisy = trace_of(corridor_scenario(noise={"seed": 5,
                                              "accel_std_mps2": 0.3,
                                              "baro_std_hpa": 0.1,
                                              "shadowing_std_db": 2.0}))
    assert np.array_equal(quiet.accel.v, noisy.accel.v)
    assert not np.array_equal(quiet.baro.v, noisy.baro.v)


# ---------------------------------------------------------------------------
# query synthesis


def test_query_at_scan_position_matches_scan():
    sc = corridor_scenario()
    trace = trace_of(sc)
    scan = trace.wifi[3]
    i = int(np.nonzero(trace.truth.t == scan.t)[0][0])
    pos = (float(trace.truth.xy[i, 0]), float(trace.truth.xy[i, 1]), 1)
    queries = generate_test_queries(sc.environment, [pos], sc.noise)
    assert queries[0][1] == scan.readings
    assert queries[0][0] == pos


def test_equidistant_aps_read_equal():
    sc = corridor_scenario()
    queries = generate_test_queries(sc.environment, [(LENGTH / 2, 0.0, 1)],
                                    sc.noise)
    fp = queries[0][1]
    assert fp["ap-w"] == fp["ap-e"]


def test_query_noise_is_reproducible():
    sc = corridor_scenario(noise={"seed": 9, "shadowing_std_db": 2.0})
    pos = [(5.0, 0.0, 1), (10.0, 0.0, 1)]
    a = generate_test_queries(sc.environment, pos, sc.noise)
    b = generate_test_queries(sc.environment, pos, sc.noise)
    assert a == b


# ---------------------------------------------------------------------------
# the WiFi model against its scalar form: one _ap_rss call and one scalar
# draw per (scan, AP), the reference the array pass must match reading for
# reading


def _ap_rss(ap: Ap, x: float, y: float, floor: float, floor_height: float) -> float:
    """Log-distance path loss with a per-slab penalty; distance floored at 1 m.

    Without the slab term, positions stacked on adjacent floors differ by
    only the vertical leg of the 3D distance, which integer rounding can
    erase entirely. Slabs attenuate far more than free space, and that
    extra loss is what makes floors separable from fingerprints at all.
    """
    df = floor - ap.floor
    dz = df * floor_height
    d = math.sqrt((x - ap.x) ** 2 + (y - ap.y) ** 2 + dz * dz)
    return (ap.tx_power_dbm
            - 10.0 * ap.path_loss_exponent * math.log10(max(d, 1.0))
            - FLOOR_ATTENUATION_DB * abs(df))


def _scan(env: Environment, x: float, y: float, floor: float,
          shadowing_std: float, rng: np.random.Generator) -> dict[str, int]:
    """The readings of one scan at a pose: each AP's modelled level, less a
    shadowing draw, clipped at RSS_MAX_DBM (0 dBm, the top of the range
    every loader accepts) and rounded to whole dBm; APs that round below
    RSS_CUTOFF_DBM are absent. Both comparisons keep round() off an
    infinite shadowing draw."""
    readings: dict[str, int] = {}
    for ap in env.aps:
        base = _ap_rss(ap, x, y, floor, env.floor_height_m)
        if shadowing_std > 0:
            base -= rng.normal(0.0, shadowing_std)
        if base > RSS_MAX_DBM:
            base = RSS_MAX_DBM
        if base > RSS_CUTOFF_DBM - 1:
            rss = round(base)
            if rss >= RSS_CUTOFF_DBM:
                readings[ap.mac] = rss
    return readings


def scalar_queries(env, positions, noise):
    """generate_test_queries by the scalar model, as (key, readings items)."""
    rng = np.random.default_rng(np.random.SeedSequence(noise.seed).spawn(6)[5])
    return [((float(x), float(y), int(floor)), list(_scan(
        env, float(x), float(y), float(floor), noise.shadowing_std, rng).items()))
        for x, y, floor in positions]


def scan_poses(sc) -> list[tuple[float, float, float]]:
    """The (x, y, floor) of each of the walk's scans."""
    plan = plan_walk(sc.environment, sc.walk)
    step = round(sc.walk.scan_interval_s / TICK)
    x, y, floor, _ = _plan_state(plan, np.arange(step, plan.total_ticks + 1, step))
    return list(zip(x.tolist(), y.tolist(), floor.tolist()))


def scalar_scans(sc):
    """generate_trace's scans by the scalar model, as (t, readings items)."""
    step = round(sc.walk.scan_interval_s / TICK)
    rng = np.random.default_rng(np.random.SeedSequence(sc.noise.seed).spawn(6)[4])
    return [((i + 1) * step * TICK, list(_scan(
        sc.environment, x, y, floor, sc.noise.shadowing_std, rng).items()))
        for i, (x, y, floor) in enumerate(scan_poses(sc))]


def assert_scalar_model(sc, positions):
    """The trace's scans and the queries at positions hold the scalar
    model's readings, each dict in the same MAC order."""
    trace = trace_of(sc)
    assert [(s.t, list(s.readings.items())) for s in trace.wifi] == scalar_scans(sc)
    queries = generate_test_queries(sc.environment, positions, sc.noise)
    assert [(key, list(fp.items())) for key, fp in queries] \
        == scalar_queries(sc.environment, positions, sc.noise)


# The stair walk passes floors 1 and 2 and the fractional floors between.
STAIR_WALK = demo_scenario("two_floor_demo", laps=0, noise=NoiseModel())
SCAN_POSES = scan_poses(STAIR_WALK)


@st.composite
def ap_sets(draw):
    """Up to six APs on floors 1 and 2, each at a random place or under
    1 m from a scan pose (so some scans floor its distance at 1 m)."""
    aps = []
    for i in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            x, y, floor = draw(st.sampled_from(SCAN_POSES))
            x += draw(st.floats(-0.7, 0.7))
            y += draw(st.floats(-0.7, 0.7))
            floor = round(floor)
        else:
            x, y = draw(st.floats(-20.0, 50.0)), draw(st.floats(-20.0, 30.0))
            floor = draw(st.sampled_from([1, 2]))
        aps.append(Ap(f"ap{i}", x, y, floor, draw(st.floats(-70.0, 10.0)),
                      draw(st.floats(1.0, 5.0))))
    return tuple(aps)


SHADOWING = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.01, 1.0),
                      st.floats(5.0, 80.0))
NEAR = st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))


@settings(max_examples=60, deadline=None)
@given(aps=ap_sets(), std=SHADOWING, seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 5, 64, sim.CHUNK_ELEMENTS]),
       near=st.lists(NEAR, max_size=3),
       spots=st.lists(st.tuples(st.floats(-20.0, 50.0), st.floats(-20.0, 30.0),
                                st.sampled_from([1, 2])), max_size=8))
def test_wifi_readings_are_the_scalar_model(aps, std, seed, chunk, near, spots):
    # small chunks put the walk's 76 scans and the queries in many row chunks
    sc = replace(STAIR_WALK, environment=replace(STAIR_WALK.environment, aps=aps),
                 noise=NoiseModel(seed=seed, shadowing_std=std))
    at_aps = [(ap.x + dx, ap.y + dy, ap.floor) for ap in aps for dx, dy in near]
    with mock.patch.object(sim, "CHUNK_ELEMENTS", chunk):
        assert_scalar_model(sc, at_aps + spots)


# Levels that land on a half-dB tie by the C library's log10 and pow, as
# Python computes them, and a last bit off it by numpy's log10 or square.
HALF_DB_TIES = [(29.18243232623128, 0.0, -58.034878512927946),
                (36.799290561629164, 31.36403219517926, -28.81558793534314)]


@pytest.mark.parametrize("x, y, tx", HALF_DB_TIES)
def test_a_half_db_tie_rounds_as_the_scalar_model(x, y, tx):
    ap = Ap("ap", 0.0, 0.0, 1, tx, 0.1)  # a slope of 1 dB per decade
    env = replace(STAIR_WALK.environment, aps=(ap,))
    assert _ap_rss(ap, x, y, 1.0, env.floor_height_m) % 1 == 0.5
    queries = generate_test_queries(env, [(x, y, 1)], NoiseModel())
    assert [(key, list(fp.items())) for key, fp in queries] \
        == scalar_queries(env, [(x, y, 1)], NoiseModel())


def test_wifi_readings_are_the_scalar_model_over_full_chunks():
    # 100 APs and 600 queries span several CHUNK_ELEMENTS row chunks
    rng = np.random.default_rng(11)
    aps = tuple(Ap(f"ap{i}", *rng.uniform(-10.0, 40.0, 2).tolist(),
                   int(rng.integers(1, 3)), float(rng.uniform(-50.0, 0.0)),
                   float(rng.uniform(1.5, 4.0))) for i in range(100))
    sc = replace(STAIR_WALK, environment=replace(STAIR_WALK.environment, aps=aps),
                 noise=NoiseModel(seed=4, shadowing_std=6.0))
    positions = list(zip(rng.uniform(0.0, 25.0, 600).tolist(),
                         rng.uniform(0.0, 12.0, 600).tolist(),
                         rng.integers(1, 3, 600).tolist()))
    assert len(positions) * len(aps) > 2 * sim.CHUNK_ELEMENTS
    assert_scalar_model(sc, positions)


# ---------------------------------------------------------------------------
# stair walks


def test_stair_walk_pressure_levels():
    sc = demo_scenario("two_floor_demo", laps=0, noise=NoiseModel())
    trace = trace_of(sc)
    assert trace.baro.v.max() == pytest.approx(
        BASE_PRESSURE - PRESSURE_PER_FLOOR)
    assert trace.baro.v.min() == pytest.approx(
        BASE_PRESSURE - 2 * PRESSURE_PER_FLOOR)


def test_stair_walk_baro_events_alternate():
    sc = demo_scenario("two_floor_demo", laps=0, noise=NoiseModel())
    events = detect_baro_landmarks(trace_of(sc))
    kinds = [e.kind for e in events]
    assert kinds == [RuleKind.BARO_IN, RuleKind.BARO_OUT,
                     RuleKind.BARO_IN, RuleKind.BARO_OUT]
    assert events[0].auxiliary < 0      # pressure falls on the way up
    assert events[2].auxiliary > 0


def test_climbs_start_on_whole_seconds():
    sc = demo_scenario("two_floor_demo", laps=0, noise=NoiseModel())
    plan = plan_walk(sc.environment, sc.walk)
    for ph in plan.phases:
        if ph.kind == "climb":
            assert ph.t0 % 50 == 0


# ---------------------------------------------------------------------------
# scenario files


def test_integral_floats_read_as_integers():
    d = corridor_dict(noise={"seed": 7.0})
    d["environment"]["aps"][0]["floor"] = 1.0
    sc = scenario_from_dict(d)
    assert type(sc.noise.seed) is int and sc.noise.seed == 7
    assert type(sc.environment.aps[0].floor) is int


def test_load_scenario_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(corridor_dict()))
    sc = load_scenario(path)
    assert sc.walk.waypoints == ("a", "b")


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


def broken(mutate):
    d = corridor_dict()
    mutate(d)
    return d


def ap0(d):
    return d["environment"]["aps"][0]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["walk"].pop("waypoints"), "missing"),
    (lambda d: d["walk"].update(waypoints=["a"]), "two waypoints"),
    (lambda d: d["walk"].update(pace="brisk"), "unknown"),
    (lambda d: d["walk"].update(waypoints=["a", "z"]), "not a landmark"),
    (lambda d: d["walk"].update(stops=[{"at": "z", "duration_s": 1.0}]),
     "unknown landmark"),
    (lambda d: d["walk"].update(stops=[{"at": "b", "duration_s": 0.0}]),
     "positive"),
    (lambda d: d["walk"].update(irregular_legs=[5]), "out of range"),
    (lambda d: d["walk"].update(scan_interval_s=0.0), "scan interval"),
    (lambda d: d["noise"].update(accel_std_mps2=-0.1), "non-negative"),
    (lambda d: d["noise"].update(compass_zones=[
        {"x_min": 5.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0,
         "floor": 1, "bias_deg": 10.0}]), "inverted"),
    (lambda d: d["environment"]["aps"].append(dict(
        d["environment"]["aps"][0])), "duplicate"),
    (lambda d: d["environment"].update(
        corridors={"1": [[[0.0, 0.0], [1.0, 0.0]]]}), "corridor"),
    (lambda d: d["environment"].update(stairs=[{"from": "a", "to": "b"}]),
     "change floor"),
    (lambda d: d["environment"].update(stairs=[{"from": "a", "to": "z"}]),
     "unknown landmark"),
    (lambda d: d["environment"].update(floor_height_m=0.0), "positive"),
    (lambda d: d.update(walk=[]), r"^scenario\.walk must be an object"),
    (lambda d: ap0(d).pop("x"), r"aps\[0\] is missing fields \['x'\]"),
    (lambda d: ap0(d).update(gain=1), r"aps\[0\] has unknown fields \['gain'\]"),
    (lambda d: ap0(d).update(mac=""), r"aps\[0\]\.mac must be a non-empty string"),
    (lambda d: ap0(d).update(y="0"), r"aps\[0\]\.y must be a finite number"),
    (lambda d: ap0(d).update(y=10**400), r"aps\[0\]\.y must be a finite number"),
    (lambda d: ap0(d).update(floor=True), r"aps\[0\]\.floor must be an integer"),
    (lambda d: d["environment"].update(aps={}), r"environment\.aps must be an array"),
    (lambda d: d["environment"].update(corridors={"one": []}),
     "corridors key 'one' is not a floor number"),
    # int() reads each of these as a floor: "01" used to replace floor 1's
    # corridors and "1_0" to stand for floor 10
    (lambda d: d["environment"]["corridors"].update({"01": []}),
     r"^scenario\.environment\.corridors key '01' is not a floor number$"),
    (lambda d: d["environment"].update(corridors={"1_0": []}),
     r"^scenario\.environment\.corridors key '1_0' is not a floor number$"),
    (lambda d: d["environment"]["corridors"].update({" 2": []}), "key ' 2' is not a floor"),
    (lambda d: d["environment"]["corridors"].update({"+2": []}), "key '\\+2' is not a floor"),
    (lambda d: d["environment"]["corridors"].update({"-0": []}), "key '-0' is not a floor"),
    (lambda d: d["environment"]["corridors"].update({"None": []}), "key 'None' is not a floor"),
    (lambda d: d["environment"]["corridors"]["1"][0].append([1.0, 2.0, 3.0]),
     r"corridors\.1\[0\]\[2\] must be an \[x, y\] pair"),
    (lambda d: d["environment"]["graph"].update(nodes=3), "environment.graph: "),
    (lambda d: d["environment"].update(stairs=[{"from": "a"}]),
     r"stairs\[0\] is missing fields \['to'\]"),
    (lambda d: d["walk"].update(waypoints=["a", 2]), r"waypoints\[1\] must be a non-empty"),
    (lambda d: d["walk"].update(stops=[{"at": "b", "duration_s": "1"}]),
     r"stops\[0\]\.duration_s must be a finite number"),
    (lambda d: d["walk"].update(false_walking=[{"t": 0.0}]),
     r"false_walking\[0\] is missing fields \['duration_s'\]"),
    (lambda d: d["walk"].update(irregular_legs=[0.5]),
     r"irregular_legs\[0\] must be an integer"),
    (lambda d: d["walk"].update(irregular_periods=0.5), "irregular_periods must be an array"),
    (lambda d: d["walk"].update(cooldown_s=-0.02), "cooldown_s must be non-negative"),
    (lambda d: d["noise"].update(seed=-1), "noise.seed must be non-negative"),
    (lambda d: d["noise"].update(gyro_bias=0.1), r"unknown fields \['gyro_bias'\]"),
    (lambda d: d["noise"].update(compass_zones=[{"x_min": 0.0}]), r"compass_zones\[0\] is missing"),
])
def test_scenario_validation(mutate, message):
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(broken(mutate))


def far_landmark(d, value):
    """Landmark b moved to x = value, its edge told to trust its distance."""
    d["environment"]["graph"]["nodes"][1]["x"] = value
    d["environment"]["graph"]["edges"][0]["override"] = True


@pytest.mark.parametrize("where, place", [
    (r"aps\[1\]\.x", lambda d, v: d["environment"]["aps"][1].update(x=v)),
    (r"aps\[2\]\.y", lambda d, v: d["environment"]["aps"][2].update(y=v)),
    (r"corridors\.1\[0\]\[1\]\[0\]", lambda d, v: d["environment"]["corridors"]["1"][0][1]
     .__setitem__(0, v)),
    (r"graph\.nodes\[1\]\.x", far_landmark),
])
@pytest.mark.parametrize("value", [1e200, -1e200, 1.0000001e6, -1e300])
def test_a_coordinate_beyond_a_million_metres_is_refused(where, place, value):
    # an AP at 1e200 m overflowed the squared distance of the WiFi model
    with pytest.raises(ScenarioError, match=rf"^scenario\.environment\.{where} must be a "
                                            r"coordinate in \[-1e\+06, 1e\+06\] m, got "):
        scenario_from_dict(broken(lambda d: place(d, value)))


def test_a_coordinate_at_the_bound_is_read():
    d = broken(lambda d: d["environment"]["aps"][1].update(x=1e6, y=-1e6))
    sc = scenario_from_dict(d)
    assert (sc.environment.aps[1].x, sc.environment.aps[1].y) == (1e6, -1e6)
    assert all("ap-e" not in s.readings for s in trace_of(sc).wifi)  # far out of range



# ---------------------------------------------------------------------------
# channel synthesis against the per-phase and per-bump loops it replaced


def per_phase_mask_state(plan, ticks):
    """The reference _plan_state: one full-length mask per phase."""
    x, y, fl, hd = (np.empty(len(ticks)) for _ in range(4))
    for i, ph in enumerate(plan.phases):
        last = i == len(plan.phases) - 1
        mask = (ticks >= ph.t0) & ((ticks <= ph.t1) if last else (ticks < ph.t1))
        if not mask.any():
            continue
        tt = ticks[mask]
        if ph.kind in ("still", "turn"):
            x[mask], y[mask], fl[mask] = ph.x0, ph.y0, ph.floor0
        else:
            xp = np.array([ph.t0] + [s.tick for s in ph.steps], dtype=float)
            x[mask] = np.interp(tt, xp, [ph.x0] + [s.x for s in ph.steps])
            y[mask] = np.interp(tt, xp, [ph.y0] + [s.y for s in ph.steps])
            if ph.floor1 != ph.floor0:
                fl[mask] = ph.floor0 + (tt - ph.t0) / (ph.t1 - ph.t0) \
                    * (ph.floor1 - ph.floor0)
            else:
                fl[mask] = ph.floor0
        if ph.kind == "turn":
            prog = np.clip(tt, ph.rot0, ph.rot1) - ph.rot0
            hd[mask] = ph.heading0 + ph.omega * prog * TICK
        else:
            hd[mask] = ph.heading0
    return x, y, fl, hd


def per_bump_train(plan, n):
    """The reference _bump_train: one bump at a time."""
    az = np.full(n, GRAVITY)
    bumps = sorted([(s.tick, s.period_ticks) for s in plan.steps] + plan.false_bumps)
    for i, (tick, pt) in enumerate(bumps):
        gap_prev = tick - bumps[i - 1][0] if i > 0 else pt
        gap_next = bumps[i + 1][0] - tick if i + 1 < len(bumps) else pt
        w_lo = min(pt, gap_prev) / 2
        w_hi = min(pt, gap_next) / 2
        offs = np.arange(math.floor(-w_lo), math.ceil(w_hi) + 1)
        offs = offs[(offs >= -w_lo) & (offs < w_hi)]
        idx = tick + offs
        keep = (idx >= 0) & (idx < n)
        az[idx[keep]] += (BUMP_AMPLITUDE / 2) * (1 + np.cos(2 * np.pi * offs[keep] / pt))
    return az


def bits(arrays):
    return [a.view(np.uint64).tobytes() for a in arrays]


def busy_plan():
    """Stops, an irregular leg, false walking, and bumps on the first and
    the last tick."""
    sc = corridor_scenario(walk={
        "waypoints": ["a", "b", "a", "b"], "irregular_legs": [1],
        "irregular_periods": [0.4, 0.62, 0.5], "irregular_lengths": [0.5, 0.9, 0.7],
        "stops": [{"at": "b", "duration_s": 3.0}, {"at": "a", "duration_s": 1.5}],
        "false_walking": [{"t": 0.5, "duration_s": 1.2}, {"t": 21.0, "duration_s": 3.0}]})
    plan = plan_walk(sc.environment, sc.walk)
    edges = [(0, 20), (plan.total_ticks, 23)]
    return replace(plan, false_bumps=sorted(plan.false_bumps + edges))


def zero_length_phases(plan):
    """plan with a zero-length phase inside it and one at its end, so the
    last phase holds only the end tick."""
    mid = plan.phases[1]
    end = plan.phases[-1]
    phases = [*plan.phases[:2], replace(mid, kind="still", t0=mid.t1),
              *plan.phases[2:], replace(end, kind="still", t0=end.t1, x0=-1.0)]
    return replace(plan, phases=phases)


def demo_plan(name, **kw):
    sc = demo_scenario(name, **kw)
    return plan_walk(sc.environment, sc.walk)


PLANS = {
    "busy corridor": busy_plan,
    "zero-length phases": lambda: zero_length_phases(busy_plan()),
    "two floors": lambda: demo_plan("two_floor_demo", laps=0),
    "mixed quality": lambda: demo_plan("mixed_quality_demo"),
}


def tick_sets(total):
    rng = np.random.default_rng(0)
    return [np.arange(0, total + 1, MAG_EVERY), np.arange(0, total + 1, 3),
            np.arange(7, total + 1, 13), np.array([total]), np.array([], int),
            np.sort(rng.integers(0, total + 1, 200))]  # repeats too


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_state_is_the_per_phase_mask_loop(name):
    plan = PLANS[name]()
    for ticks in tick_sets(plan.total_ticks):
        assert bits(_plan_state(plan, ticks)) == bits(per_phase_mask_state(plan, ticks))


def test_the_last_phase_holds_the_end_tick():
    plan = zero_length_phases(busy_plan())
    x, *_ = _plan_state(plan, np.array([plan.total_ticks - 1, plan.total_ticks]))
    assert x[0] != -1.0 and x[1] == -1.0


@pytest.mark.parametrize("name", sorted(PLANS))
def test_bump_train_is_the_per_bump_loop(name):
    plan = PLANS[name]()
    n = plan.total_ticks + 1
    assert bits([_bump_train(plan, n)]) == bits([per_bump_train(plan, n)])


def test_bump_train_reaches_the_first_and_last_tick():
    plan = busy_plan()
    az = _bump_train(plan, plan.total_ticks + 1)
    assert az[0] == az[-1] == GRAVITY + BUMP_AMPLITUDE


def column_stack_channels(sc):
    """The reference accel, gyro and mag values and truth of
    generate_trace: each vector channel a column_stack of zero columns and
    its noisy axis, truth at the sorted ticks of one set."""
    plan = plan_walk(sc.environment, sc.walk)
    noise = sc.noise
    n = plan.total_ticks + 1
    rng_accel, rng_gyro = [np.random.default_rng(s)
                           for s in np.random.SeedSequence(noise.seed).spawn(6)][:2]
    zeros = np.zeros(n)
    az = _bump_train(plan, n)
    if noise.accel_std > 0:
        az = az + rng_accel.normal(0.0, noise.accel_std, n)
    wz = np.zeros(n)
    for ph in plan.phases:
        if ph.kind == "turn":
            wz[ph.rot0:ph.rot1] = ph.omega
    if noise.gyro_bias:
        wz = wz + noise.gyro_bias
    if noise.gyro_std > 0:
        wz = wz + rng_gyro.normal(0.0, noise.gyro_std, n)
    mag_ticks = np.arange(0, plan.total_ticks + 1, MAG_EVERY)
    x, y, fl, hd = _plan_state(plan, mag_ticks)
    psi = hd + _zone_bias(noise.compass_zones, x, y, fl)
    marks = {0, plan.total_ticks, *range(0, plan.total_ticks + 1, TRUTH_EVERY)}
    marks.update(t for ph in plan.phases for t in (ph.t0, ph.t1))
    marks.update(s.tick for s in plan.steps)
    truth_ticks = np.array(sorted(marks))
    tx, ty, tf, _ = _plan_state(plan, truth_ticks)
    return [np.column_stack([zeros, zeros, az]), np.column_stack([zeros, zeros, wz]),
            np.column_stack([np.cos(psi), np.sin(psi), np.zeros(len(psi))]),
            truth_ticks * TICK, np.column_stack([tx, ty]), tf]


NOISY = {
    "two floors, every inertial noise on": lambda: demo_scenario(
        "two_floor_demo", laps=1, seed=5, accel_std=0.05, gyro_std=0.01, gyro_bias=0.02),
    "two floors, as the file has it": lambda: demo_scenario("two_floor_demo", laps=0),
    "mixed quality": lambda: demo_scenario("mixed_quality_demo"),
    "busy corridor": lambda: corridor_scenario(walk={
        "waypoints": ["a", "b", "a"], "stops": [{"at": "b", "duration_s": 3.0}],
        "false_walking": [{"t": 0.5, "duration_s": 1.2}]},
        noise={"seed": 3, "accel_std_mps2": 0.1}),
}


@pytest.mark.parametrize("name", sorted(NOISY))
def test_trace_channels_are_the_column_stack_form(name):
    sc = NOISY[name]()
    trace = generate_trace(sc.environment, sc.walk, sc.noise)
    got = [trace.accel.v, trace.gyro.v, trace.mag.v,
           trace.truth.t, trace.truth.xy, trace.truth.floor]
    want = column_stack_channels(sc)
    assert [a.shape for a in got] == [a.shape for a in want]
    assert bits(got) == bits(want)
    assert trace.accel.t is trace.gyro.t
