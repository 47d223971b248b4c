import io
import itertools
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridemap import records, sensors, tracefile
from stridemap.sensors import (CHANNELS, T_MAX_S, VALUE_MAX, Channel,
                               MotionState, SensorTrace, TraceError,
                               TruthChannel, WifiScan,
                               _magnitudes, classify_motion, detect_steps,
                               dump_trace, load_trace, motion_runs,
                               moving_average)

from stridemap.sim import generate_trace, load_scenario
from stridemap.tracefile import load_scans

from conftest import DT, GRAVITY, SCENARIOS, flat, trace_from_mags, walking


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


@given(st.lists(st.tuples(*[st.floats(allow_nan=False)] * 3), max_size=40))
def test_magnitudes_are_the_summed_squares_bit_for_bit(rows):
    v = np.array(rows, float).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.sqrt(np.sum(v * v, axis=1))
        got = _magnitudes(Channel(np.zeros(len(v)), v))
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


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
    assert len(trace.truth) == 0


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


def scan_readings_pair_by_pair(v) -> dict:
    """The reference: sensors._scan_readings as it read every scan, one
    pair at a time, before its whole-scan test."""
    if not isinstance(v, list):
        raise TraceError(f"WiFi scan must be a list of [mac, rss] pairs, got {records.shown(v)}")
    readings = {}
    for pair in v:
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and pair[0]):
            raise TraceError("WiFi reading must be a [mac, rss] pair with a "
                             f"non-empty string MAC, got {records.shown(pair)}")
        mac, value = pair
        if mac in readings:
            raise TraceError(f"duplicate MAC {records.shown(mac)} in scan")
        reading = records.rss(value)
        if reading is None:
            raise TraceError(f"RSS of {records.shown(mac)} {records.RSS_RULE}, "
                             f"got {records.shown(value)}")
        readings[mac] = reading
    return readings


def scan_outcome(read, v):
    """The readings, each with its type, in order; or the error text."""
    try:
        return [(mac, type(r), r) for mac, r in read(v).items()]
    except TraceError as exc:
        return str(exc)


# what may stand for a pair, a MAC or an RSS in a scan json.loads returns
ODD_PAIRS = [["aa", -50, 1], ["aa"], [], "ab", {"aa": -50, "bb": -60}, 5, None, [["aa"], -50],
             [{"a": 1}, -50], [None, -50], [5, -50], ["", -50]]
ODD_RSS = [True, False, -50.0, -0.0, 0.0, 1, -201, -200, 0, 10**400, -(10**400), "-50", None,
           [-50], math.nan, 1e308, -50.5]


def test_the_whole_scan_test_reads_each_pair_as_the_loop_does():
    base = [["aa", -50], ["bb", -200], ["cc", 0]]
    cases = [base, [], {"aa": -50}, "aa", None, -50,
             base + [["aa", -60]], base + [["bb", -50]], [["x", -1]] * 2]
    for k in range(len(base) + 1):
        cases += [base[:k] + [pair] + base[k:] for pair in ODD_PAIRS]
        cases += [base[:k] + [["dd", value]] + base[k:] for value in ODD_RSS]
    for v in cases:
        assert scan_outcome(sensors._scan_readings, v) == scan_outcome(
            scan_readings_pair_by_pair, v), v


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["aa", "bb", "cc", ""]),
              st.one_of(st.integers(-210, 10), st.sampled_from(ODD_RSS))).map(list),
    st.sampled_from(ODD_PAIRS)), max_size=6))
def test_the_whole_scan_test_loads_what_the_loop_loads(v):
    assert scan_outcome(sensors._scan_readings, v) == scan_outcome(
        scan_readings_pair_by_pair, v)


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
        truth=TruthChannel(t[::2], np.column_stack([rng.normal(size=(10, 2)),
                                                    np.repeat([1.0, 2.0], 5)])),
    )
    path = tmp_path / "round.jsonl"
    dump_trace(trace, path)
    back = load_trace(path)
    for ch in ("accel", "gyro", "mag", "baro"):
        assert np.array_equal(getattr(back, ch).t, getattr(trace, ch).t)
        assert np.array_equal(getattr(back, ch).v, getattr(trace, ch).v)
    for field in ("t", "v", "xy", "floor"):
        assert np.array_equal(getattr(back.truth, field),
                              getattr(trace.truth, field))
    assert back.wifi == trace.wifi
    again = tmp_path / "again.jsonl"
    dump_trace(back, again)
    assert again.read_bytes() == path.read_bytes()


def _awkward_trace() -> SensorTrace:
    """Floats whose shortest repr takes exponents, negative zero or 17
    digits, and the ends of the t and value ranges, in every channel; no
    two channels share an array."""
    t = np.array([0.0, 1e-7, 0.1 + 0.2, 3.0, T_MAX_S])
    v = np.array([[-0.0, VALUE_MAX, 1 / 3], [2.5e-300, -1e-5, 123456.789123],
                  [0.1, 0.2, 0.3], [7.0, -7.0, -VALUE_MAX], [5e-324, 999999.9999999999, 0.0]])
    return SensorTrace(
        accel=Channel(t.copy(), v.copy()), gyro=Channel(t.copy(), -v),
        mag=Channel(t.copy(), v[::-1].copy()), baro=Channel(t.copy(), v[:, 1].copy()),
        wifi=[WifiScan(t=0.1 + 0.2, readings={'a"b\\c': -1, "é": 0})],
        truth=TruthChannel(t.copy(), v.copy()),
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
        chan = getattr(trace, ch)
        (chan.t if where == "t" else chan.v).flat[-1] = math.nan
    with pytest.raises(TraceError, match=repr(ch)):
        dump_trace(trace, tmp_path / "t.jsonl")


@pytest.mark.parametrize("ch,where", [(ch, where) for ch in ("accel", "gyro", "mag", "baro", "truth")
                                      for where in ("t", "v")] + [("wifi", "t")])
def test_dump_rejects_a_number_out_of_its_range(ch, where, tmp_path):
    # what load_trace would refuse, so simulate never writes a trace that
    # track cannot read
    trace = _awkward_trace()
    if ch == "wifi":
        trace.wifi = [WifiScan(t=2 * T_MAX_S, readings={})]
    else:
        chan = getattr(trace, ch)
        if where == "t":
            chan.t[-1] = 2 * T_MAX_S
        else:
            chan.v.flat[-1] = -2 * VALUE_MAX
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceError, match=f"cannot write channel {ch!r}: every t must "
                                         r"be finite and in \[-1e\+10, 1e\+10\] s"):
        dump_trace(trace, path)
    assert not path.exists()


# a sample out of range -> its line and the one error its load gives
OUT_OF_RANGE = {
    "accel value whose square passes the float range": (
        '{"ch": "accel", "t": 0.0, "v": [1.3407807929942597e+154, 0.0, 9.8]}',
        "line 2: accel value must be at most 1e+06, got 1.3407807929942597e+154"),
    "baro value of 1e308": (
        '{"ch": "baro", "t": 0.0, "v": 1e+308}',
        "line 2: baro value must be at most 1e+06, got 1e+308"),
    "truth floor below the range": (
        '{"ch": "truth", "t": 0.0, "v": [0.0, 0.0, -1000000.5]}',
        "line 2: truth value must be at least -1e+06, got -1000000.5"),
    "gyro t past the range": (
        '{"ch": "gyro", "t": 1e+11, "v": [0.0, 0.0, 0.0]}',
        "line 2: gyro t must be at most 1e+10, got 100000000000.0"),
    "wifi t past the range": (
        '{"ch": "wifi", "t": -1e+11, "v": []}',
        "line 2: wifi t must be at least -1e+10, got -100000000000.0"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_a_number_out_of_its_range_names_its_line(tmp_path, case):
    line, message = OUT_OF_RANGE[case]
    path = tmp_path / "t.jsonl"
    path.write_text('{"ch": "mag", "t": 0.0, "v": [1.0, 0.0, 0.0]}\n' + line + "\n")
    for load in (fast_path_load, json_path_load):
        with pytest.raises(TraceError, match="^" + re.escape(message) + "$"):
            load(path)


# ---------------------------------------------------------------------------
# the two trace readers: dump_trace's lines a channel at a time, any other
# file one json.loads per line; the same arrays and the same errors


def json_path_load(path, channels=tuple(CHANNELS)) -> SensorTrace:
    """load_trace with the fast path switched off."""
    with mock.patch.object(sensors, "_canonical_columns",
                           side_effect=tracefile._Doubt):
        return load_trace(path, channels)


def fast_path_load(path, channels=tuple(CHANNELS)) -> SensorTrace:
    """load_trace that fails unless the fast path reads the whole file."""
    with mock.patch.object(sensors, "_json_columns",
                           side_effect=AssertionError("fell back to json")):
        return load_trace(path, channels)


def trace_bits(trace: SensorTrace):
    """Every array of a trace as bytes, with its shape and dtype: equal only
    when bit-equal (0.0 and -0.0 differ)."""
    def bits(a):
        return a.dtype.str, a.shape, a.tobytes()
    out = [(bits(c.t), bits(c.v)) for c in
           (trace.accel, trace.gyro, trace.mag, trace.baro, trace.truth)]
    out.append((bits(np.array([s.t for s in trace.wifi], float)),
                [s.readings for s in trace.wifi]))
    return out


def outcome(load, path, channels=tuple(CHANNELS)):
    try:
        return trace_bits(load(path, channels))
    except TraceError as exc:
        return f"TraceError: {exc}"


def json_path_scans(path) -> list[WifiScan]:
    """The WiFi scans of a json-path load of the wifi channel alone."""
    return json_path_load(path, ("wifi",)).wifi


def front_scans(path) -> list[WifiScan]:
    """load_scans that fails unless its front reads the whole file."""
    with mock.patch.object(sensors, "load_trace",
                           side_effect=AssertionError("left to load_trace")):
        return load_scans(path)


def scans_outcome(load, path):
    """Each scan's t, as its type and repr (so -0.0 is not 0.0), and its
    readings; or the TraceError's text."""
    try:
        return [(type(s.t), repr(s.t), s.readings) for s in load(path)]
    except TraceError as exc:
        return f"TraceError: {exc}"


# numbers within the range of both t and values
AWKWARD = st.one_of(
    st.sampled_from([5e-324, -5e-324, 1e-300, 2.5e-308, -0.0, 0.0, 0.1 + 0.2,
                     1 / 3, 2 / 3 * 1e-5, 123456.78912345678, 999999.9999999999,
                     VALUE_MAX, -VALUE_MAX]),
    st.floats(-VALUE_MAX, VALUE_MAX))


@st.composite
def traces(draw) -> SensorTrace:
    def channel(width, min_size=0):
        n = draw(st.integers(min_size, 4))
        t = np.sort(np.array(draw(st.lists(AWKWARD, min_size=n, max_size=n)), float))
        v = draw(st.lists(AWKWARD, min_size=n * width, max_size=n * width))
        return t, np.array(v, float).reshape(n, width)
    ax = {ch: channel(3, min_size=ch == "accel") for ch in ("accel", "gyro", "mag")}
    bt, bv = channel(1)
    tt, tv = channel(3)
    scans = [WifiScan(t, {f"ap{i}": draw(st.integers(-200, 0))
                          for i in range(draw(st.integers(0, 2)))})
             for t in sorted(draw(st.lists(AWKWARD, max_size=2)))]
    return SensorTrace(**{ch: Channel(*tv_) for ch, tv_ in ax.items()},
                       baro=Channel(bt, bv[:, 0].copy()), wifi=scans,
                       truth=TruthChannel(tt, tv))


@settings(max_examples=80, deadline=None)
@given(traces(), st.integers(0, 10**6))
def test_both_readers_load_a_dumped_trace_bit_equal(trace, pick):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.jsonl"
        dump_trace(trace, path)
        want = trace_bits(trace)
        assert trace_bits(fast_path_load(path)) == want
        # one line written compactly is not dump_trace's: json reads the file
        lines = path.read_text().splitlines(keepends=True)
        k = pick % len(lines)
        lines[k] = json.dumps(json.loads(lines[k]), separators=(",", ":")) + "\n"
        path.write_text("".join(lines))
        assert trace_bits(load_trace(path)) == want


GOOD = ('{"ch": "accel", "t": 0.0, "v": [0.5, -0.0, 9.8]}\n'
        '{"ch": "gyro", "t": 0.0, "v": [0.1, 0.2, 0.3]}\n'
        '{"ch": "wifi", "t": 0.01, "v": [["aa", -50]]}\n')
ACC = '{"ch": "accel", "t": 1.0, "v": [1.0, 2.0, 3.0]}'
DEEP_LIST = "[" * 100000 + "]" * 100000

# case -> trace text on which the fast path and the json path must agree
READER_CASES = {
    "canonical": GOOD,
    "integer -0, which json reads as +0.0": GOOD + '{"ch": "accel", "t": 1.0, "v": [-0, 0.0, 1.0]}\n',
    "two records on one line": GOOD + ACC + ACC + "\n",
    "a record and trailing junk": GOOD + ACC + " x\n",
    "a record and a trailing comma": GOOD + ACC + ",\n",
    "capital exponent": GOOD + '{"ch": "accel", "t": 1E5, "v": [1E+5, 1e5, 1.5E-5]}\n',
    "25-digit integer": GOOD + '{"ch": "accel", "t": 1234567890123456789012345, "v": [1.0, 2.0, 3.0]}\n',
    "25-digit float": GOOD + '{"ch": "accel", "t": 1234567890123456789012345.0, "v": [1.0, 2.0, 3.0]}\n',
    "leading zero": GOOD + '{"ch": "accel", "t": 01.5, "v": [1.0, 2.0, 3.0]}\n',
    "huge integer": GOOD + '{"ch": "accel", "t": 1.0, "v": [1' + "0" * 400 + ', 2.0, 3.0]}\n',
    "exponent past the float range": GOOD + '{"ch": "accel", "t": 1.0, "v": [1e+400, 2.0, 3.0]}\n',
    "400-digit integer baro value": GOOD + '{"ch": "baro", "t": 1.0, "v": ' + "9" * 400 + '}\n',
    "missing final newline": GOOD + ACC,
    "blank line": GOOD + "\n" + ACC + "\n",
    "CRLF line ends": (GOOD + ACC + "\n").replace("\n", "\r\n"),
    "NaN value": GOOD + '{"ch": "accel", "t": 1.0, "v": [NaN, 2.0, 3.0]}\n',
    "baro number moved past its slot": GOOD + '{"ch": "baro", "t": 1.0, "v": }1013.2\n',
    "baro number moved into a key": GOOD + '{"ch": "baro", "t": 1.0, "v5": }\n',
    "accel number moved past its slot": GOOD + '{"ch": "accel", "t": 1.0, "v": [1.0, 2.0, ]3.0}\n',
    "regressing canonical t": GOOD + ACC + "\n" + ACC.replace("1.0,", "0.5,", 1) + "\n",
    "accel sample of width 2": GOOD + '{"ch": "accel", "t": 1.0, "v": [1.0, 2.0]}\n',
    "permuted keys": GOOD + '{"t": 1.0, "ch": "accel", "v": [1.0, 2.0, 3.0]}\n',
    "unknown channel with a known prefix": GOOD + '{"ch": "accelx", "t": 1.0, "v": [1.0, 2.0, 3.0]}\n',
    "unknown channel with a known initial": GOOD + '{"ch": "acecl", "t": 1.0, "v": [1.0, 2.0, 3.0]}\n',
    "unknown gyro-like channel": GOOD + '{"ch": "gyor", "t": 1.0, "v": [1.0, 2.0, 3.0]}\n',
    "accel line cut short past its prefix": GOOD + '{"ch": "accel"}\n',
    "last line shorter than a prefix": GOOD + '{"ch": "a"}\n',
    "gyro line with a broken head": GOOD + '{"ch": "gyro", "t" : 1.0, "v": [1.0, 2.0, 3.0]}\n',
    "bad RSS in a canonical scan": GOOD + '{"ch": "wifi", "t": 1.0, "v": [["aa", 5]]}\n',
    "scan line naming another channel": GOOD + '{"ch": "wifi", "t": 1.0, "v": [], "ch": "gyro"}\n',
    "broken gyro line": GOOD + '{"ch": "gyro", "t": 1.0, oops}\n' + ACC + "\n",
    "compact gyro line of width 2": GOOD + '{"ch":"gyro","t":1.0,"v":[1.0,2.0]}\n',
    "broken gyro line, then a regressing accel line":
        GOOD + '{"ch": "gyro", oops\n' + ACC.replace("1.0,", "-1.0,", 1) + "\n",
    "bool value": GOOD + '{"ch": "accel", "t": 1.0, "v": [true, 0, 9.8]}\n',
    "bool t": GOOD + '{"ch": "accel", "t": false, "v": [0.0, 0.0, 9.8]}\n',
    "bool WiFi t": GOOD + '{"ch": "wifi", "t": true, "v": [["aa", -50]]}\n',
    "bool truth floor": GOOD + '{"ch": "truth", "t": 1.0, "v": [0.0, 0.0, true]}\n',
    "string t": GOOD + '{"ch": "accel", "t": "1.0", "v": [0.0, 0.0, 9.8]}\n',
}


@pytest.mark.parametrize("channels", [tuple(CHANNELS), ("accel", "wifi"), ("wifi",)])
@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_fast_path_agrees_with_json_path(case, channels, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(READER_CASES[case].encode())
    assert outcome(load_trace, path, channels) == outcome(json_path_load, path, channels)


# case -> trace text: READER_CASES, and WiFi t that json reads but the
# trace format refuses, and files without a scan
SCAN_CASES = {
    **READER_CASES,
    "NaN WiFi t": GOOD + '{"ch": "wifi", "t": NaN, "v": [["aa", -50]]}\n',
    "Infinity WiFi t": GOOD + '{"ch": "wifi", "t": Infinity, "v": []}\n',
    "-Infinity WiFi t": GOOD + '{"ch": "wifi", "t": -Infinity, "v": []}\n',
    "400-digit integer WiFi t": GOOD + '{"ch": "wifi", "t": 1' + "0" * 400 + ', "v": []}\n',
    "bool WiFi t first": '{"ch": "wifi", "t": false, "v": []}\n' + GOOD,
    "regressing WiFi t": GOOD + '{"ch": "wifi", "t": 0.005, "v": []}\n',
    "integer and -0.0 WiFi t": ('{"ch": "wifi", "t": -0.0, "v": []}\n'
                                '{"ch": "wifi", "t": 0, "v": []}\n' + GOOD),
    "WiFi t past the range": GOOD + '{"ch": "wifi", "t": 1e+11, "v": []}\n',
    "string WiFi t": GOOD + '{"ch": "wifi", "t": "1.0", "v": []}\n',
    "WiFi line without v": GOOD + '{"ch": "wifi", "t": 1.0}\n',
    "WiFi line nested too deep": GOOD + '{"ch": "wifi", "t": 1.0, "v": ' + DEEP_LIST + '}\n',
    "not UTF-8 in an accel line": GOOD + ACC[:-1] + "\udcff}\n",
    "lone CR": GOOD.replace("\n", "\r", 1),
    "junk first line": "oops\n" + GOOD,
    "blank first line": "\n" + GOOD,
    "no WiFi line": GOOD.replace('{"ch": "wifi", "t": 0.01, "v": [["aa", -50]]}\n', ""),
    "empty file": "",
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_load_scans_agrees_with_json_path(case, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(SCAN_CASES[case].encode(errors="surrogateescape"))
    assert scans_outcome(load_scans, path) == scans_outcome(json_path_scans, path)


def test_load_scans_reads_a_dumped_trace_without_load_trace(tmp_path):
    path = tmp_path / "t.jsonl"
    dump_trace(_awkward_trace(), path)
    assert front_scans(path) == _awkward_trace().wifi
    for case in ("canonical", "missing final newline", "CRLF line ends",
                 "broken gyro line", "two records on one line",
                 "integer and -0.0 WiFi t", "no WiFi line", "empty file"):
        path.write_bytes(SCAN_CASES[case].encode())
        assert scans_outcome(front_scans, path) == scans_outcome(json_path_scans, path)


@pytest.mark.parametrize("channels", [("wifi",), ("accel", "wifi")])
def test_a_subset_load_takes_the_json_path(channels, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(GOOD)
    with mock.patch.object(sensors, "_canonical_columns") as fast:
        trace = load_trace(path, channels)
    fast.assert_not_called()
    assert trace_bits(trace) == trace_bits(json_path_load(path, channels))


def test_integer_minus_zero_loads_as_json_reads_it(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(READER_CASES["integer -0, which json reads as +0.0"])
    v = load_trace(path).accel.v
    assert np.signbit(v[0, 1]) and not np.signbit(v[1, 0])


def test_fast_path_reads_the_canonical_cases(tmp_path):
    for case in ("canonical", "25-digit float", "missing final newline",
                 "CRLF line ends", "regressing canonical t",
                 "integer -0, which json reads as +0.0", "capital exponent",
                 "25-digit integer"):
        path = tmp_path / "t.jsonl"
        path.write_bytes(READER_CASES[case].encode())
        assert outcome(fast_path_load, path) == outcome(json_path_load, path)
    # a number orjson refuses lies past every bound: the fast path doubts it
    path.write_bytes(READER_CASES["exponent past the float range"].encode())
    with pytest.raises(tracefile._DOUBTS):
        sensors._canonical_columns(path)


def test_load_names_the_faulty_line(tmp_path):
    path = tmp_path / "t.jsonl"
    for case, message in [
            ("two records on one line", "line 4: invalid JSON: Extra data"),
            ("regressing canonical t", "line 5: timestamps regress in channel 'accel'"),
            ("bad RSS in a canonical scan", "line 4: RSS of 'aa' must be"),
            ("NaN value", "line 4: accel sample must be a finite t and 3 finite values"),
            ("baro number moved past its slot", "line 4: invalid JSON: Expecting value"),
            ("bool value", "line 4: accel sample must be a finite t and 3 finite values$"),
            ("bool t", "line 4: accel sample must be a finite t and 3 finite values$"),
            ("bool WiFi t", "line 4: wifi sample must be a finite t$"),
            ("bool truth floor", "line 4: truth sample must be a finite t and 3 finite values$"),
            ("string t", "line 4: accel sample must be a finite t and 3 finite values$")]:
        path.write_text(READER_CASES[case])
        with pytest.raises(TraceError, match="^" + message):
            load_trace(path)
    # an integer past the float range is no finite number, as t or as value
    huge = "1" + "0" * 400
    for line in ('{"ch": "baro", "t": 0.0, "v": %s}' % huge,
                 '{"ch": "baro", "t": %s, "v": 0.0}' % huge):
        path.write_text(line + "\n")
        with pytest.raises(TraceError, match="^" + re.escape(
                "line 1: baro sample must be a finite t and 1 finite value") + "$"):
            load_trace(path)


# the first faulty line in file order is named, whatever its kind: lines 1
# and 2 are clean, and each fault kind's line is faulty after either
FIRST_LINES = ('{"ch": "accel", "t": 0.0, "v": [0.0, 0.0, 9.8]}\n'
               '{"ch": "accel", "t": 2.0, "v": [0.0, 0.0, 9.8]}\n')
FAULTS = {
    "out of range": ('{"ch": "gyro", "t": 0.5, "v": [0.0, 0.0, 1e300]}',
                     "gyro value must be at most 1e+06, got 1e+300"),
    "bool": ('{"ch": "accel", "t": 3.0, "v": [true, 0.0, 9.8]}',
             "accel sample must be a finite t and 3 finite values"),
    "regressing t": ('{"ch": "accel", "t": 1.0, "v": [0.0, 0.0, 9.8]}',
                     "timestamps regress in channel 'accel'"),
    "bad scan": ('{"ch": "wifi", "t": 1.0, "v": [["aa", 5]]}', "RSS of 'aa' must be"),
    "invalid JSON": ('{"ch": "accel", oops', "invalid JSON"),
}


@pytest.mark.parametrize("third,fourth", list(itertools.product(FAULTS, repeat=2)))
def test_the_first_faulty_line_is_named_whatever_follows(third, fourth, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(FIRST_LINES + FAULTS[third][0] + "\n" + FAULTS[fourth][0] + "\n")
    for load in (load_trace, json_path_load):
        with pytest.raises(TraceError, match="^" + re.escape("line 3: " + FAULTS[third][1])):
            load(path)


def test_every_wifi_reader_names_a_bad_t_before_a_bad_scan(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(FIRST_LINES + '{"ch": "wifi", "t": true, "v": []}\n'
                    '{"ch": "wifi", "t": 1.0, "v": [["aa", 5]]}\n')
    for load in (load_trace, lambda path: load_trace(path, ("wifi",)), load_scans):
        with pytest.raises(TraceError, match="^line 3: wifi sample must be a finite t$"):
            load(path)


def test_skipped_channels_load_empty_and_are_never_parsed(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(READER_CASES["broken gyro line"]
                    + '{"ch":"mag","t":1.0,"v":[1.0]}\n'
                    + '{"ch": "truth", "t": 1.0, "v": [0.0, 0.0, 1.0]}\n')
    for load in (load_trace, json_path_load):
        trace = load(path, ("accel", "wifi"))
        assert len(trace.accel) == 2 and len(trace.wifi) == 1
        assert len(trace.gyro) == len(trace.mag) == len(trace.baro) == 0
        assert trace.gyro.v.shape == trace.truth.v.shape == (0, 3)
    with pytest.raises(TraceError, match="line 4: invalid JSON"):
        load_trace(path)


def test_a_skipped_line_is_checked_by_its_prefix_alone(tmp_path):
    # past its first 14 bytes a skipped line is never read, by the json
    # path or by load_scans's front; a line read needs its whole head
    path = tmp_path / "t.jsonl"
    path.write_text('{"ch": "accel", "t": 1.0, "v": [0.0, 0.0, 9.8]}\n'
                    '{"ch": "gyro",  "time": nope\n'
                    '{"ch": "truth"}\n'
                    '{"ch": "wifi", "t": 1.0, "v": [["aa", -50]]}\n')
    trace = json_path_load(path, ("wifi",))
    assert [(s.t, s.readings) for s in trace.wifi] == [(1.0, {"aa": -50})]
    assert len(trace.accel) == len(trace.gyro) == len(trace.truth) == 0
    assert front_scans(path) == trace.wifi
    with pytest.raises(TraceError, match="^line 2: invalid JSON"):
        load_trace(path, ("gyro", "wifi"))
    path.write_text('{"ch": "wifi", "t": 1.0, "v": [["aa", -50]]}\n'
                    '{"ch": "wifi",  "t": 2.0, "v": []}\n')
    with pytest.raises(AssertionError, match="left to load_trace"):
        front_scans(path)
    assert [s.t for s in load_scans(path)] == [1.0, 2.0]


def test_a_skipped_line_before_a_bad_line_does_not_move_the_error(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(READER_CASES["broken gyro line, then a regressing accel line"])
    for load in (load_trace, json_path_load):
        with pytest.raises(TraceError, match="^line 5: timestamps regress in channel 'accel'"):
            load(path, ("accel", "wifi"))


def test_timestamps_spanning_the_float_range_are_refused_without_a_warning(tmp_path):
    # their difference overflows; the range check does not subtract
    path = tmp_path / "t.jsonl"
    path.write_text('{"ch": "accel", "t": -1e+308, "v": [0.0, 0.0, 9.8]}\n'
                    '{"ch": "accel", "t": 1e+308, "v": [0.0, 0.0, 9.8]}\n')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for load in (load_trace, json_path_load):
            with pytest.raises(TraceError, match=re.escape(
                    "line 1: accel t must be at least -1e+10, got -1e+308")):
                load(path)


# tokens that stand where a number does: some JSON reads, some it refuses
TOKENS = ["01.5", "1.", ".5", "+1.5", "1.2.3", "1e", "--1", "1_0", "true", "NaN",
          "1e999", "1" + "0" * 400, "-0", "1E5"]
NUMBER_CHARS = "0123456789.eE+-"


@st.composite
def mutated_trace_files(draw) -> bytes:
    """A dumped trace with a few lines mutated: a number replaced by a
    token or moved elsewhere between the commas around it, a skeleton byte
    dropped, doubled or swapped with the next, or a CR or a number
    character inserted anywhere; maybe no final newline."""
    buf = io.StringIO()
    dump_trace(draw(traces()), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        spans = [m.span() for m in re.finditer(r"(?<=[ \[])-?[0-9][0-9.e+-]*", line)]
        how = draw(st.sampled_from(["drop", "double", "swap", "insert"]
                                   + ["number", "move"] * bool(spans)))
        if how == "number":
            a, b = draw(st.sampled_from(spans))
            line = line[:a] + draw(st.sampled_from(TOKENS)) + line[b:]
        elif how == "move":  # its slot left empty, the bytes around it intact
            a, b = draw(st.sampled_from(spans))
            end = line.find(",", b)
            i = draw(st.integers(line.rfind(",", 0, a) + 1,
                                 (len(line) - 1 if end < 0 else end) - (b - a)))
            rest = line[:a] + line[b:]
            line = rest[:i] + line[a:b] + rest[i:]
        elif how == "insert":
            i = draw(st.integers(0, len(line)))
            line = line[:i] + draw(st.sampled_from(["\r", *NUMBER_CHARS])) + line[i:]
        else:
            i = draw(st.sampled_from([i for i, c in enumerate(line[:-2])
                                      if c not in NUMBER_CHARS]))
            line = {"drop": line[:i] + line[i + 1:],
                    "double": line[:i] + line[i] + line[i:],
                    "swap": line[:i] + line[i + 1] + line[i] + line[i + 2:]}[how]
        lines[k] = line
    text = "".join(lines)
    return (text if draw(st.booleans()) else text.rstrip("\n")).encode()


@settings(max_examples=200, deadline=None)
@given(mutated_trace_files(), st.integers(1, 96))
def test_fast_path_accepts_only_what_json_reads_alike(text, block):
    # blocks of a few bytes, so lines and CRLF pairs straddle the reads
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(tracefile, "_BLOCK_BYTES", block):
        path = Path(d) / "t.jsonl"
        path.write_bytes(text)
        want = outcome(json_path_load, path)
        assert outcome(load_trace, path) == want
        if not isinstance(want, str):  # load_trace reads it: track and build-map see one WiFi
            assert scans_outcome(load_scans, path) == scans_outcome(
                lambda path: load_trace(path).wifi, path)
        try:
            fast = outcome(fast_path_load, path)
        except AssertionError:  # the fast path did not read this file
            return
        assert fast == want


@settings(max_examples=200, deadline=None)
@given(mutated_trace_files(), st.integers(1, 96))
def test_load_scans_accepts_only_what_json_reads_alike(text, block):
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(tracefile, "_BLOCK_BYTES", block):
        path = Path(d) / "t.jsonl"
        path.write_bytes(text)
        want = scans_outcome(json_path_scans, path)
        assert scans_outcome(load_scans, path) == want
        try:
            front = scans_outcome(front_scans, path)
        except AssertionError:  # the front left this file to load_trace
            return
        assert front == want


# number tokens orjson and json might read apart: past the float range, at
# its bottom, -0, a capital E, integers past 64 bits, and tokens both refuse
EDGE_TOKENS = ["4.9e-324", "2e-324", "-0", "-0.0", "1E5", "1e+400", "1" + "0" * 19,
               "1" + "0" * 399, "1.7976931348623157e308", "1.7976931348623159e308",
               "01", "1.", "+1", ".5", "1e", "--1", "-"]
NUMBER_TOKENS = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.integers(0, 2**64 - 1).map(
        lambda bits: repr(struct.unpack("<d", struct.pack("<Q", bits))[0])
    ).filter(lambda token: "n" not in token),  # finite: no nan or inf
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-"]), st.integers(1, 9),
              st.text("0123456789", min_size=16, max_size=24), st.integers(-340, 320)),
    st.builds("{}{}".format, st.sampled_from(["", "-"]),
              st.sampled_from([20, 400]).flatmap(
                  lambda n: st.integers(10 ** (n - 1), 10 ** n - 1))))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(*[NUMBER_TOKENS] * 4), min_size=1, max_size=4))
def test_block_parse_reads_numbers_as_json_bit_for_bit(rows):
    # orjson parses the numbers: the values json gives, or a doubt where
    # orjson or json refuses
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.jsonl"
        path.write_text("".join('{"ch": "accel", "t": %s, "v": [%s, %s, %s]}\n' % row
                                for row in rows))
        numbers = "[%s]" % ", ".join(map(", ".join, rows))
        try:
            orjson.loads(numbers)
            want = np.array(json.loads(numbers), float)
        except (ValueError, OverflowError):
            with pytest.raises(tracefile._DOUBTS):
                sensors._canonical_columns(path)
            return
        t, v = sensors._canonical_columns(path)["accel"]
    assert np.column_stack([t, v]).tobytes() == want.tobytes()


def traced_peak(call) -> tuple:
    """call's result, the bytes tracemalloc sees held after it and its peak."""
    tracemalloc.start()
    try:
        out = call()
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_load_memory_is_the_arrays_plus_a_block(tmp_path):
    # blocks far smaller than a channel, so a second copy of any channel
    # would show above the trace the load keeps and a few blocks
    n = 40000
    t = np.arange(n) * DT
    rng = np.random.default_rng(1)
    trace = SensorTrace(accel=Channel(t, rng.normal(size=(n, 3))),
                        gyro=Channel(t, rng.normal(size=(n, 3))),
                        baro=Channel(t[::10], 1013.0 + rng.normal(size=n // 10)),
                        wifi=[WifiScan(float(s), {"aa": -50}) for s in t[::50]])
    path = tmp_path / "long.jsonl"
    dump_trace(trace, path)
    with mock.patch.object(tracefile, "_BLOCK_BYTES", 1 << 14):
        back, kept, peak = traced_peak(lambda: fast_path_load(path))  # kept: the trace
        assert trace_bits(back) == trace_bits(trace)
        assert kept > sum(a.nbytes for c in (back.accel, back.gyro) for a in (c.t, c.v))
        assert peak < kept + 8 * tracefile._BLOCK_BYTES


@pytest.mark.parametrize("load", [fast_path_load, json_path_load])
def test_loaded_arrays_are_exact_and_own_their_memory(load, tmp_path):
    trace = _awkward_trace()
    path = tmp_path / "t.jsonl"
    dump_trace(trace, path)
    back = load(path)
    assert trace_bits(back) == trace_bits(trace)
    arrays = [a for c in (back.accel, back.gyro, back.mag, back.baro, back.truth)
              for a in (c.t, c.v)]
    for a in arrays:
        assert a.flags.c_contiguous and a.flags.owndata and a.base is None
        assert len(a) == 5 and a.nbytes == a.size * 8
    # truth's xy and floor are views of its v, no copies
    assert back.truth.xy.base is back.truth.v and back.truth.floor.base is back.truth.v


def test_a_file_that_changes_after_its_count_is_read_by_json(tmp_path):
    path = tmp_path / "t.jsonl"
    dump_trace(_awkward_trace(), path)
    want = outcome(json_path_load, path)
    counts = sensors._line_counts(path)
    for k, step in [(0, 1), (0, -1), (3, 1), (5, -1)]:  # accel, baro and truth
        wrong = counts.copy()
        wrong[k] += step
        with mock.patch.object(sensors, "_line_counts", return_value=wrong), \
                mock.patch.object(sensors, "_json_columns",
                                  wraps=sensors._json_columns) as json_columns:
            assert outcome(load_trace, path) == want
        json_columns.assert_called_once()


def test_an_error_quotes_a_value_by_its_first_100_characters():
    assert records.shown("x" * 98) == repr("x" * 98)
    assert records.shown("x" * 99) == repr("x" * 99)[:100] + "..."
    with pytest.raises(TraceError) as exc:
        sensors._scan_readings([["aa", -50], ["b" * 10**5, 1]])
    assert str(exc.value) == f"RSS of '{'b' * 99}... {records.RSS_RULE}, got 1"


def test_load_refuses_an_unknown_channel_name(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(GOOD)
    with pytest.raises(ValueError, match="compass"):
        load_trace(path, ("accel", "compass"))


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


W, S = MotionState.WALKING, MotionState.STILL


def test_motion_runs_end_where_the_next_starts():
    motion = [(t * 0.5, state) for t, state in enumerate([W, W, S, S, S, W, W, S, S])]
    assert motion_runs(motion) == [(W, 0.0, 1.0, 2), (S, 1.0, 2.5, 3),
                                   (W, 2.5, 3.5, 2), (S, 3.5, 4.5, 2)]


def test_motion_runs_end_the_last_run_one_last_spacing_on():
    # the spacing of the last two labels (0.5), not of the first two (1.0);
    # an interior run ends at the next run's first label, whatever the gaps
    motion = [(0.0, W), (1.0, S), (3.0, S), (4.0, W), (4.5, W)]
    assert motion_runs(motion) == [(W, 0.0, 1.0, 1), (S, 1.0, 4.0, 2),
                                   (W, 4.0, 5.0, 2)]


def test_motion_runs_of_one_label_and_of_none():
    assert motion_runs([(3.0, S)]) == [(S, 3.0, 3.0, 1)]
    assert motion_runs([]) == []


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


# periods whose peaks never fall exactly midway between samples, so each
# peak is one sample, not a two-sample flat top
@settings(max_examples=30)
@given(st.integers(2, 12), st.sampled_from([0.42, 0.5, 0.74, 0.9]))
def test_step_count_tracks_cycle_count(cycles, period):
    mags = np.concatenate([flat(2.0),
                           walking(cycles * period, period=period),
                           flat(2.0)])
    steps = detect_steps(trace_from_mags(mags))
    assert len(steps) == cycles


def bumps(*bump: float, cycles: int = 8, gap: int = 20) -> np.ndarray:
    """cycles of bump (m/s^2 over a 10 m/s^2 baseline), gap samples apart,
    between 2 s of baseline: whole numbers, so the smoothing is exact."""
    cycle = np.concatenate([np.zeros(gap - len(bump)), bump])
    return 10.0 + np.concatenate([np.zeros(100), np.tile(cycle, cycles), np.zeros(100)])


def test_a_flat_top_is_one_peak_at_its_first_sample():
    # a bump with two equal top samples smooths to a two-sample flat top
    mags = bumps(0, 2, 4, 6, 6, 4, 2)
    smooth = moving_average(mags, sensors.SMOOTHING_WIDTH)
    steps = detect_steps(trace_from_mags(mags))
    assert len(steps) == 8
    for s in steps:
        i = round(s.t / DT)
        assert smooth[i - 1] < smooth[i] == smooth[i + 1] > smooth[i + 2]


def test_a_flat_stretch_that_rises_on_exit_is_no_peak():
    # each bump rises to a flat shelf, then rises again to its one top
    mags = bumps(0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 6, 8, 6, 4, 2)
    smooth = moving_average(mags, sensors.SMOOTHING_WIDTH)
    steps = detect_steps(trace_from_mags(mags))
    assert len(steps) == 8
    for s in steps:
        i = round(s.t / DT)
        assert smooth[i - 1] < smooth[i] > smooth[i + 1]


def test_a_25_hz_demo_walk_gives_every_step():
    # at 25 Hz half the demo's step peaks are two-sample flat tops, which
    # a strict local maximum missed: 180 of its 360 steps
    sc = load_scenario(SCENARIOS / "two_floor_demo.json")
    trace = generate_trace(sc.environment, sc.walk, sc.noise)
    accel = Channel(t=trace.accel.t[::2].copy(), v=trace.accel.v[::2].copy())
    assert len(detect_steps(trace)) == 360
    assert len(detect_steps(replace(trace, accel=accel))) == 360


# ---------------------------------------------------------------------------
# dump_trace against the line-per-sample writer it replaced


def line_per_sample_dump(trace: SensorTrace) -> str:
    """The reference writer: _line_format % (t, *row) for each sample, a
    json.dumps line for each scan, and a stable sort on (t, channel
    order)."""
    rows = []
    for order, ch in enumerate(CHANNELS):
        if ch == "wifi":
            rows += [(s.t, order, json.dumps({"ch": ch, "t": s.t, "v": [
                [m, r] for m, r in s.readings.items()]})) for s in trace.wifi]
            continue
        c = getattr(trace, ch)
        t, v = c.t, c.v.reshape(len(c), CHANNELS[ch])
        fmt = sensors._line_format(ch)
        rows += [(ti, order, fmt % (ti, *row)) for ti, row in zip(t.tolist(), v.tolist())]
    rows.sort(key=lambda row: row[:2])
    return "".join(line + "\n" for _, _, line in rows)


# few distinct timestamps, so channels tie at one t and a chunk boundary
# falls inside a run of equal timestamps; -0.0 ties with 0.0
TIES = st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 0.1 + 0.2, 1.0, T_MAX_S])
NUMBERS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-308, 1e-5, VALUE_MAX, 9.81]),
                    AWKWARD)
MACS = st.one_of(st.sampled_from(["%", "%s", "%%", "%(t)s", '"', 'a"b\\c', "é", "ap-%d"]),
                 st.text(st.sampled_from('%s"é\\ab:'), min_size=1, max_size=4))


@st.composite
def tied_traces(draw) -> SensorTrace:
    def channel(width):
        n = draw(st.integers(0, 6))
        t = np.sort(np.array(draw(st.lists(TIES, min_size=n, max_size=n)), float))
        v = draw(st.lists(NUMBERS, min_size=n * width, max_size=n * width))
        return t, np.array(v, float).reshape(n, width)
    chans = {ch: Channel(*channel(3)) for ch in ("accel", "gyro", "mag")}
    bt, bv = channel(1)
    tt, tv = channel(3)
    scans = [WifiScan(t, draw(st.dictionaries(MACS, st.integers(-200, 0), max_size=3)))
             for t in sorted(draw(st.lists(TIES, max_size=3)))]
    return SensorTrace(**chans, baro=Channel(bt, bv[:, 0].copy()), wifi=scans,
                       truth=TruthChannel(tt, tv))


def all_six_at_one_t() -> SensorTrace:
    t = np.array([0.0, 1.0])
    v = np.array([[-0.0, 0.0, 5e-324], [VALUE_MAX, 1e-5, -0.0]])
    return SensorTrace(
        accel=Channel(t.copy(), v.copy()), gyro=Channel(t.copy(), v[::-1].copy()),
        mag=Channel(t.copy(), -v), baro=Channel(t.copy(), v[:, 0].copy()),
        wifi=[WifiScan(0.0, {"%s": -1, '"%"': -2}), WifiScan(1.0, {"é%%": 0})],
        truth=TruthChannel(t.copy(), v.copy()))


def dumped_in_chunks(trace: SensorTrace, rows: int) -> str:
    buf = io.StringIO()
    with mock.patch.object(sensors, "_CHUNK_ROWS", rows):
        dump_trace(trace, buf)
    return buf.getvalue()


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 4096])
def test_dump_is_the_line_per_sample_writer_at_ties(rows):
    trace = all_six_at_one_t()
    want = line_per_sample_dump(trace)
    assert len(want.splitlines()) == 12
    assert dumped_in_chunks(trace, rows) == want


@settings(max_examples=150, deadline=None)
@given(tied_traces(), st.integers(1, 5))
def test_dump_is_the_line_per_sample_writer(trace, rows):
    # -0.0 written as 0.0 would pass a json round trip, not this
    assert dumped_in_chunks(trace, rows) == line_per_sample_dump(trace)


def test_dump_keeps_minus_zero_apart_from_zero_in_one_chunk():
    trace = SensorTrace(baro=Channel(np.array([0.0, 0.0]), np.array([0.0, -0.0])))
    assert dumped_in_chunks(trace, 2) == (
        '{"ch": "baro", "t": 0.0, "v": 0.0}\n{"ch": "baro", "t": 0.0, "v": -0.0}\n')


def within(bound: float):
    """Floats within +-bound, drawn by float64 bit pattern (most far below
    1e-4 in magnitude, where orjson's text is not repr's) or by value."""
    return st.one_of(
        st.integers(0, 2**64 - 1).map(
            lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
        ).filter(lambda x: abs(x) <= bound),  # NaN fails too
        st.floats(-bound, bound))


def exact_text_trace(rows) -> SensorTrace:
    """An accel channel of rows (t, x, y, z), in t order, and a baro
    channel of the same t with each row's z."""
    a = np.array(rows, float).reshape(-1, 4)
    a = a[np.argsort(a[:, 0], kind="stable")]
    return SensorTrace(accel=Channel(a[:, 0].copy(), a[:, 1:].copy()),
                       baro=Channel(a[:, 0].copy(), a[:, 3].copy()))


# orjson writes 1e-05 as 0.00001 and 9.999e-05 as 0.00009999, with no "e"
EXACT_EDGES = [0.0, -0.0, 5e-324, 2.5e-300, *np.nextafter(1e-4, [0, 1]).tolist(), 1e-4,
               9.999e-05, 1e-05, VALUE_MAX]
CHUNKS = [1, 2, 3, 4, 5, sensors._CHUNK_ROWS]


@pytest.mark.parametrize("rows", CHUNKS)
def test_dump_writes_each_edge_number_as_repr(rows):
    # the reference writer formats each number with %r
    edges = EXACT_EDGES + [-x for x in EXACT_EDGES]
    t = edges + [T_MAX_S, -T_MAX_S]
    trace = exact_text_trace(np.column_stack([t, np.resize(edges, (len(t), 3))]))
    assert dumped_in_chunks(trace, rows) == line_per_sample_dump(trace)


@pytest.mark.parametrize("rows", CHUNKS)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(within(T_MAX_S), *[within(VALUE_MAX)] * 3), min_size=1, max_size=8))
def test_dump_writes_each_number_as_repr(rows, samples):
    trace = exact_text_trace(samples)
    assert dumped_in_chunks(trace, rows) == line_per_sample_dump(trace)


@pytest.mark.parametrize("trace", [
    SensorTrace(wifi=[WifiScan(0.0, {"a": -1}), WifiScan(1.0, {})]),
    SensorTrace(baro=Channel(np.array([0.0, 1.0]), np.array([1.0, 2.0])),
                wifi=[WifiScan(1.0, {"a": -1}), WifiScan(1.0, {"%s": -2})],
                truth=TruthChannel(np.array([1.0]), np.array([[0.5, 0.5, 1.0]])))],
    ids=["wifi only", "wifi tied between numeric rows"])
def test_dump_writes_a_chunk_without_numbers(trace):
    # a chunk of WiFi rows alone has no number to format
    assert dumped_in_chunks(trace, 1) == line_per_sample_dump(trace)


def test_dump_of_a_non_finite_last_channel_writes_nothing(tmp_path):
    trace = _awkward_trace()
    trace.truth.floor[-1] = math.inf  # truth is the last channel written
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceError, match="'truth'"):
        dump_trace(trace, path)
    assert not path.exists()
    buf = io.StringIO()
    with pytest.raises(TraceError, match="'truth'"):
        dump_trace(trace, buf)
    assert buf.getvalue() == ""


def six_loop_walk() -> tuple:
    """The environment, script and noise of a six-loop two-floor walk."""
    sc = load_scenario(SCENARIOS / "two_floor_demo.json")
    loop = sc.walk.waypoints
    return sc.environment, replace(sc.walk, waypoints=loop + loop[1:] * 5), sc.noise


def test_dump_memory_is_below_the_trace_arrays():
    # the writer holds a window of the merge order and one chunk, never a
    # second copy of the trace's numbers
    trace = generate_trace(*six_loop_walk())
    arrays = sum(a.nbytes for c in (trace.accel, trace.gyro, trace.mag, trace.baro, trace.truth)
                 for a in (c.t, c.v))
    _, _, peak = traced_peak(lambda: dump_trace(trace, os.devnull))
    assert peak < arrays / 2


def test_generate_memory_is_near_the_trace_it_returns():
    # each channel's values are written into their final arrays: no zero
    # columns stacked into a copy, no walk-long temporary outliving its use
    walk = six_loop_walk()
    trace, kept, peak = traced_peak(lambda: generate_trace(*walk))
    arrays = sum(a.nbytes for c in (trace.accel, trace.gyro, trace.mag, trace.baro)
                 for a in (c.t, c.v))
    assert arrays < kept  # kept: the trace, its scans and truth too
    assert peak < 1.3 * kept


def test_dump_refuses_a_channel_whose_t_regresses(tmp_path):
    for ch in CHANNELS:
        trace = _awkward_trace()
        if ch == "wifi":
            trace.wifi = [WifiScan(1.0, {}), WifiScan(0.5, {})]
        else:
            getattr(trace, ch).t[2] = -1.0
        path = tmp_path / "t.jsonl"
        with pytest.raises(TraceError, match=f"cannot write channel {ch!r}: t must not decrease"):
            dump_trace(trace, path)
        assert not path.exists()


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
# rolling variance against the index-array form it replaced


def gathered_rolling_variance(mag: np.ndarray, window: int) -> np.ndarray:
    """The reference: running sums gathered at each sample's clipped window
    bounds by index arrays, divided by the integer window lengths."""
    n = len(mag)
    csum = np.concatenate(([0.0], np.cumsum(mag)))
    csq = np.concatenate(([0.0], np.cumsum(mag * mag)))
    half = window // 2
    idx = np.arange(n)
    lo = np.clip(idx - half, 0, n)
    hi = np.clip(idx + (window - half), 0, n)
    cnt = hi - lo
    mean = (csum[hi] - csum[lo]) / cnt
    return (csq[hi] - csq[lo]) / cnt - mean * mean


@settings(max_examples=200)
@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60), st.integers(1, 80))
def test_rolling_variance_is_the_gathered_form_bit_for_bit(x, window):
    # windows wider than the array included: every sample's window clips
    mag = np.array(x)
    want = gathered_rolling_variance(mag, window)
    assert sensors._rolling_variance(mag, window).view(np.uint64).tolist() \
        == want.view(np.uint64).tolist()


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
