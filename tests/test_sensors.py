import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridemap.sensors import (Channel, MotionState, SensorConfig,
                               SensorTrace, TraceError, TruthChannel,
                               WifiScan, _magnitudes, classify_motion,
                               detect_steps, dump_trace, load_trace,
                               moving_average)

from conftest import DT, GRAVITY, RATE, accel_channel, flat, trace_from_mags, walking


# ---------------------------------------------------------------------------
# magnitude: the orientation-free norm of each accelerometer sample


def accel_magnitude(ax, ay, az):
    return float(_magnitudes(Channel(t=np.zeros(1), v=np.array([[ax, ay, az]])))[0])


def test_magnitude_single_axis():
    assert accel_magnitude(0, 0, 9.81) == 9.81


def test_magnitude_345():
    assert accel_magnitude(3, 4, 0) == 5


def test_magnitude_zero():
    assert accel_magnitude(0, 0, 0) == 0


@given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
def test_magnitude_matches_hypot(ax, ay, az):
    assert math.isclose(accel_magnitude(ax, ay, az),
                        math.sqrt(ax * ax + ay * ay + az * az))


# ---------------------------------------------------------------------------
# trace io


def test_load_three_accel_lines(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text(
        '{"ch": "accel", "t": 0.0, "v": [0, 0, 9.8]}\n'
        '{"ch": "accel", "t": 0.02, "v": [0, 0, 9.9]}\n'
        '{"ch": "accel", "t": 0.04, "v": [0, 0, 9.7]}\n')
    trace = load_trace(p)
    assert len(trace.accel) == 3
    assert trace.accel.v[1, 2] == 9.9


def test_load_regressing_baro_names_channel(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text(
        '{"ch": "baro", "t": 1.0, "v": 1013.0}\n'
        '{"ch": "baro", "t": 0.5, "v": 1013.1}\n')
    with pytest.raises(TraceError, match="baro"):
        load_trace(p)


def test_load_empty_file(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text("")
    trace = load_trace(p)
    assert len(trace.accel) == 0
    assert trace.truth is None


def test_load_rejects_positive_rss(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text('{"ch": "wifi", "t": 0.0, "v": [["aa", 5]]}\n')
    with pytest.raises(TraceError):
        load_trace(p)


def test_load_rejects_duplicate_mac(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text('{"ch": "wifi", "t": 0.0, "v": [["aa", -50], ["aa", -51]]}\n')
    with pytest.raises(TraceError, match="duplicate"):
        load_trace(p)


def test_dump_load_round_trip(tmp_path):
    n = 20
    t = np.arange(n) * DT
    rng = np.random.default_rng(0)
    trace = SensorTrace(
        accel=Channel(t, rng.normal(size=(n, 3))),
        gyro=Channel(t, rng.normal(size=(n, 3))),
        mag=Channel(t[::4], rng.normal(size=(5, 3))),
        baro=Channel(t[:5], 1013.0 + np.arange(5) * 0.01),
        wifi=[WifiScan(t=0.1, readings={"aa:bb": -60, "cc:dd": -72}),
              WifiScan(t=0.3, readings={})],
        truth=TruthChannel(t[::2], rng.normal(size=(10, 2)),
                           np.repeat([1.0, 2.0], 5)),
    )
    path = tmp_path / "round.jsonl"
    dump_trace(trace, path)
    back = load_trace(path)
    for ch in ("accel", "gyro", "mag", "baro"):
        assert np.array_equal(getattr(back, ch).t, getattr(trace, ch).t)
        assert np.array_equal(getattr(back, ch).v, getattr(trace, ch).v)
    for field in ("t", "xy", "floor"):
        assert np.array_equal(getattr(back.truth, field),
                              getattr(trace.truth, field))
    assert back.wifi == trace.wifi
    again = tmp_path / "again.jsonl"
    dump_trace(back, again)
    assert again.read_bytes() == path.read_bytes()


def _awkward_trace() -> SensorTrace:
    """Floats whose shortest repr takes exponents, negative zero or 17
    digits, in every channel; no two channels share an array."""
    t = np.array([0.0, 1e-7, 0.1 + 0.2, 3.0, 1e16])
    v = np.array([[-0.0, 1e22, 1 / 3], [2.5e-300, -1e-5, 123456789.123],
                  [0.1, 0.2, 0.3], [7.0, -7.0, 1e15], [5e-324, 1.7976931348623157e308, 0.0]])
    return SensorTrace(
        accel=Channel(t.copy(), v.copy()), gyro=Channel(t.copy(), -v),
        mag=Channel(t.copy(), v[::-1].copy()), baro=Channel(t.copy(), v[:, 1].copy()),
        wifi=[WifiScan(t=0.1 + 0.2, readings={'a"b\\c': -1, "é": 0})],
        truth=TruthChannel(t.copy(), v[:, :2].copy(), v[:, 2].copy()),
    )


def test_dump_writes_what_json_dumps_writes():
    buf = io.StringIO()
    dump_trace(_awkward_trace(), buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 26
    for line in lines:
        assert json.dumps(json.loads(line)) == line


@pytest.mark.parametrize("ch,where", [(ch, where) for ch in ("accel", "gyro", "mag", "baro", "truth")
                                      for where in ("t", "v")] + [("wifi", "t")])
def test_dump_rejects_non_finite(ch, where, tmp_path):
    trace = _awkward_trace()
    if ch == "wifi":
        trace.wifi = [WifiScan(t=math.nan, readings={})]
    else:
        chan = trace.truth if ch == "truth" else getattr(trace, ch)
        values = chan.floor if ch == "truth" else chan.v
        (chan.t if where == "t" else values).flat[-1] = math.nan
    with pytest.raises(TraceError, match=repr(ch)):
        dump_trace(trace, tmp_path / "t.jsonl")


# ---------------------------------------------------------------------------
# motion classification


def test_constant_magnitude_all_still():
    trace = trace_from_mags(np.full(200, GRAVITY))
    labels = classify_motion(trace)
    assert len(labels) == 4
    assert all(state is MotionState.STILL for _, state in labels)


def test_sinusoid_all_walking():
    # amplitude 2 sinusoid has window variance 2 (>> 0.5 threshold)
    trace = trace_from_mags(walking(4.0, period=0.5, amplitude=2.0))
    labels = classify_motion(trace)
    assert len(labels) == 4
    assert all(state is MotionState.WALKING for _, state in labels)


def test_still_walk_still_boundaries():
    mags = np.concatenate([flat(3.0), walking(4.0), flat(3.0)])
    labels = classify_motion(trace_from_mags(mags))
    states = [s for _, s in labels]
    assert states == [MotionState.STILL] * 3 + [MotionState.WALKING] * 4 \
        + [MotionState.STILL] * 3
    assert labels[3][0] == pytest.approx(3.0)


def test_label_stamped_at_window_start():
    trace = trace_from_mags(np.full(100, GRAVITY))
    labels = classify_motion(trace)
    assert [t for t, _ in labels] == pytest.approx([0.0, 1.0])


def test_partial_window_unlabelled():
    trace = trace_from_mags(np.full(149, GRAVITY))
    assert len(classify_motion(trace)) == 2


# ---------------------------------------------------------------------------
# step detection


def test_ten_cycle_sinusoid_ten_steps():
    mags = np.concatenate([flat(2.0), walking(5.0, period=0.5), flat(2.0)])
    steps = detect_steps(trace_from_mags(mags))
    assert len(steps) == 10
    gaps = [s.periodicity for s in steps[1:]]
    assert all(abs(g - 0.5) <= DT + 1e-12 for g in gaps)


def test_constant_signal_no_steps():
    assert detect_steps(trace_from_mags(np.full(300, GRAVITY))) == []


def test_low_amplitude_no_steps():
    # variance 0.05^2/2 is far below the walking threshold
    mags = walking(5.0, period=0.5, amplitude=0.05)
    assert detect_steps(trace_from_mags(mags)) == []


def test_first_step_has_no_periodicity():
    mags = np.concatenate([flat(2.0), walking(3.0), flat(2.0)])
    steps = detect_steps(trace_from_mags(mags))
    assert steps[0].periodicity is None
    assert all(s.periodicity is not None for s in steps[1:])


def test_steps_carry_positive_variance():
    mags = np.concatenate([flat(2.0), walking(3.0), flat(2.0)])
    for s in detect_steps(trace_from_mags(mags)):
        assert s.accel_variance > 0.5


# periods whose peaks never fall exactly midway between samples: a
# symmetric tie has no strict local maximum and only happens synthetically
@settings(max_examples=30)
@given(st.integers(2, 12), st.sampled_from([0.42, 0.5, 0.74, 0.9]))
def test_step_count_tracks_cycle_count(cycles, period):
    mags = np.concatenate([flat(2.0),
                           walking(cycles * period, period=period),
                           flat(2.0)])
    steps = detect_steps(trace_from_mags(mags))
    assert len(steps) == cycles


def test_dump_interleaves_by_time(tmp_path):
    n = 10
    t = np.arange(n) * DT
    trace = SensorTrace(
        accel=Channel(t, np.zeros((n, 3))),
        baro=Channel(np.array([0.05]), np.array([1013.0])),
    )
    buf = io.StringIO()
    dump_trace(trace, buf)
    lines = buf.getvalue().splitlines()
    channels = [line.split('"')[3] for line in lines]
    assert channels[3] == "baro"  # lands between accel t=0.04 and t=0.06


# ---------------------------------------------------------------------------
# moving average


def running_sum_average(x: list[float], size: int) -> list[float]:
    """The sequential loop of a centered moving average: pad with size // 2
    copies of the first sample in front and the rest behind, keep one
    running sum, divide it on output."""
    s1 = size // 2
    p = [x[0]] * s1 + list(x) + [x[-1]] * (size - s1 - 1)
    acc = 0.0
    for k in range(size):
        acc += p[k]
    out = [acc / size]
    for k in range(1, len(x)):
        acc += p[k + size - 1] - p[k - 1]
        out.append(acc / size)
    return out


@pytest.mark.parametrize("n,size", [(1, 1), (7, 1), (1, 5), (3, 5), (4, 8),
                                    (5, 5), (10, 4), (50, 5), (200, 23)])
def test_moving_average_matches_running_sum(n, size):
    x = 9.81 + np.random.default_rng(n * 100 + size).normal(0, 3, n)
    assert moving_average(x, size).tolist() == running_sum_average(x.tolist(), size)


@settings(max_examples=60)
@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60),
       st.integers(1, 20))
def test_moving_average_matches_running_sum_anywhere(x, size):
    assert moving_average(np.array(x), size).tolist() == running_sum_average(x, size)


@pytest.mark.parametrize("size", [1, 2, 5, 8, 31])
def test_moving_average_keeps_a_constant(size):
    # 1013.25 is a binary fraction, so every running sum is exact
    x = np.full(40, 1013.25)
    assert np.array_equal(moving_average(x, size), x)


def test_moving_average_matches_scipy():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(11)
    for _ in range(300):
        n, size = int(rng.integers(1, 400)), int(rng.integers(1, 60))
        x = rng.choice([9.8, 1013.0]) + rng.choice([1e-3, 1.0, 1e4]) * rng.normal(size=n)
        assert np.array_equal(moving_average(x, size),
                              ndimage.uniform_filter1d(x, size=size, mode="nearest"))
