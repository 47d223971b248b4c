import io
import json
import math
import re
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridemap import radiomap
from stridemap.radiomap import (MapFormatError, QualityConfig, RadioMap, RadioMapEntry,
                                build_radio_map, interpolate_rp,
                                load_radio_map, save_radio_map,
                                segment_belief)
from stridemap.tracefile import WifiScan
from stridemap.trajectory import PathSegment, Pose, Trajectory


def seg(periods, t0=0.0, t1=10.0, x0=0.0, x1=12.6, floor=1.0, floor1=None):
    if floor1 is None:
        floor1 = floor
    pts = [Pose(t0, x0, 0.0, floor), Pose(t1, x1, 0.0, floor1)]
    return PathSegment(points=pts, periodicities=list(periods))


# ---------------------------------------------------------------------------
# period plausibility: the paper's chi(period) is 1 inside the band
# [period_min, period_max] and 0 outside; segment_belief keeps exactly the
# periods it scores 1


def test_chi_inside_band():
    # every period plausible: share 1 over the floored spread
    assert segment_belief(seg([0.5, 0.5])) == pytest.approx(200.0)


def test_chi_band_edges_inclusive():
    assert segment_belief(seg([0.4, 0.4])) == pytest.approx(200.0)
    assert segment_belief(seg([1.0, 1.0])) == pytest.approx(200.0)


def test_chi_outside_band():
    assert segment_belief(seg([1.5, 0.39])) == 0.0
    assert segment_belief(seg([1.01, 0.3999])) == 0.0


def test_chi_custom_band():
    cfg = QualityConfig(period_min=0.2, period_max=0.3)
    # 0.25 counts and 0.5 does not: share 0.5 over the floored spread
    assert segment_belief(seg([0.25, 0.25, 0.5]), cfg) == pytest.approx(100.0)
    assert segment_belief(seg([0.5, 0.5]), cfg) == 0.0


# ---------------------------------------------------------------------------
# segment belief


def test_belief_steady_walk():
    # all plausible, population spread of {.5,.6,.5,.6} is 0.05
    assert segment_belief(seg([0.5, 0.6, 0.5, 0.6])) == pytest.approx(20.0)


def test_belief_outlier_discounts_share():
    # valid share 1.6/3.1, spread of {.5,.6,.5} is 1/sqrt(450)
    b = segment_belief(seg([0.5, 1.5, 0.6, 0.5]))
    assert b == pytest.approx(16 / 31 * math.sqrt(450))
    assert b == pytest.approx(10.948750, abs=1e-6)


def test_belief_perfect_cadence_hits_spread_floor():
    assert segment_belief(seg([0.5, 0.5, 0.5, 0.5])) == pytest.approx(200.0)


def test_belief_undefined_below_two_periods():
    assert segment_belief(seg([0.7])) is None
    assert segment_belief(seg([])) is None


def test_belief_zero_when_nothing_plausible():
    assert segment_belief(seg([1.5, 2.0])) == 0.0


def test_belief_band_edges_count():
    assert segment_belief(seg([0.4, 1.0])) == pytest.approx(1 / 0.3)


@given(st.lists(st.floats(0.05, 3.0), min_size=2, max_size=30))
def test_belief_bounded(periods):
    b = segment_belief(seg(periods))
    assert 0.0 <= b <= 1.0 / QualityConfig().sigma_floor


def exact_sum(xs):
    """The sum of xs rounded once, from its exact rational value."""
    return float(sum(map(Fraction, xs)))


def exact_segment_belief(periods, cfg):
    """The reference: segment_belief with each sum exact_sum's."""
    if len(periods) < 2:
        return None
    valid = [p for p in periods if cfg.period_min <= p <= cfg.period_max]
    if not valid:
        return 0.0
    n = len(valid)
    mean = exact_sum(valid) / n
    spread = math.sqrt(exact_sum([(p - mean) * (p - mean) for p in valid]) / n)
    return exact_sum(valid) / exact_sum(periods) / max(spread, cfg.sigma_floor)


# positive periods, as every reader and run_pdr pass: the band edges, the
# floats next to them, the extremes of records.PERIOD and a few ties
PERIODS = st.one_of(
    st.sampled_from([0.4, 1.0, 0.39999999999999997, 1.0000000000000002, 0.5, 0.1 + 0.2,
                     5e-324, 2e10]),
    st.floats(0.05, 3.0), st.floats(0.0, 2e10, exclude_min=True))
# lengths on both sides of 8 and of 128, where a pairwise sum such as
# numpy's changes how it adds
LENGTHS = st.one_of(st.sampled_from([0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129,
                                     135, 136, 137, 255, 256, 257, 300]),
                    st.integers(0, 300))
BANDS = st.sampled_from([QualityConfig(), QualityConfig(period_min=-1.0),
                         QualityConfig(period_min=-0.0, period_max=0.0)])


@settings(max_examples=200, deadline=None)
@given(st.data(), LENGTHS, BANDS)
def test_belief_sums_are_exactly_rounded(data, n, cfg):
    periods = data.draw(st.lists(PERIODS, min_size=n, max_size=n))
    got = segment_belief(seg(periods), cfg)
    want = exact_segment_belief(periods, cfg)
    assert repr(got) == repr(want) and type(got) is type(want)


# ---------------------------------------------------------------------------
# scan placement


def test_interpolate_midpoint():
    p1, p2 = Pose(0, 0, 0, 1), Pose(2, 2, 0, 1)
    assert interpolate_rp(p1, p2, 1.0) == pytest.approx((1.0, 0.0, 1.0))


def test_interpolate_uneven_fraction():
    p1, p2 = Pose(10, 0, 0, 1), Pose(14, 4, 8, 1)
    assert interpolate_rp(p1, p2, 11.0) == pytest.approx((1.0, 2.0, 1.0))


def test_interpolate_endpoints_exact():
    p1, p2 = Pose(0, 0.1, 0.2, 1), Pose(2, 0.3, 0.7, 2)
    assert interpolate_rp(p1, p2, 0.0) == (p1.x, p1.y, p1.floor)
    assert interpolate_rp(p1, p2, 2.0) == (p2.x, p2.y, p2.floor)


def test_interpolate_outside_clamps():
    p1, p2 = Pose(0, 0, 0, 1), Pose(2, 2, 0, 1)
    assert interpolate_rp(p1, p2, -1.0) == (0.0, 0.0, 1.0)
    assert interpolate_rp(p1, p2, 3.0) == (2.0, 0.0, 1.0)


def test_interpolate_degenerate_pair():
    p1, p2 = Pose(5, 1, 2, 1), Pose(5, 9, 9, 2)
    assert interpolate_rp(p1, p2, 5.0) == (1.0, 2.0, 1.0)


def test_interpolate_fractional_floor():
    p1, p2 = Pose(0, 0, 0, 1), Pose(2, 0, 0, 2)
    assert interpolate_rp(p1, p2, 1.0)[2] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# map construction


GOOD = [0.5, 0.6, 0.5, 0.6]       # belief 20
POOR = [0.5, 1.5, 0.6, 0.5]       # belief ~10.9


def scans_at(*times):
    return [WifiScan(t=t, readings={"aa": -60, "bb": -70}) for t in times]


def test_only_believable_segments_contribute():
    traj = Trajectory(segments=[
        seg(GOOD, t0=0, t1=10, x0=0, x1=12.6),
        seg(POOR, t0=10, t1=20, x0=12.6, x1=0),
    ])
    rm = build_radio_map(traj, scans_at(2.0, 5.0, 8.0, 12.0, 15.0, 18.0))
    assert len(rm) == 3
    assert all(e.belief == pytest.approx(20.0) for e in rm.entries)
    assert [e.x for e in rm.entries] == pytest.approx([2.52, 6.3, 10.08])


def test_everything_filtered_gives_empty_map():
    traj = Trajectory(segments=[seg(POOR)])
    rm = build_radio_map(traj, scans_at(5.0))
    assert len(rm) == 0
    assert rm.config["belief_threshold"] == pytest.approx(15.0)


def test_lower_threshold_admits_a_poor_segment_but_no_undefined_belief():
    traj = Trajectory(segments=[
        seg(POOR, t0=0, t1=10, x0=0, x1=12.6),
        seg([0.7], t0=10, t1=20, x0=12.6, x1=0),
    ])
    rm = build_radio_map(traj, scans_at(5.0, 15.0), QualityConfig(belief_threshold=10.0))
    assert len(rm) == 1
    assert rm.entries[0].belief == pytest.approx(16 / 31 * math.sqrt(450))
    rm = build_radio_map(traj, scans_at(5.0, 15.0), QualityConfig(belief_threshold=-math.inf))
    assert [e.belief for e in rm.entries] == [pytest.approx(16 / 31 * math.sqrt(450))]


def test_scan_on_pose_timestamp_lands_exactly():
    pts = [Pose(0, 0, 0, 1), Pose(7, 4.41, 0, 1), Pose(10, 6.3, 0, 1)]
    traj = Trajectory(segments=[
        PathSegment(points=pts, periodicities=GOOD)])
    rm = build_radio_map(traj, scans_at(7.0))
    assert (rm.entries[0].x, rm.entries[0].y) == (4.41, 0.0)


def test_boundary_scan_enters_once():
    # the snap pose closing one segment opens the next; a scan exactly on
    # the seam brackets into both but must land in the map once
    traj = Trajectory(segments=[
        seg(GOOD, t0=0, t1=10, x0=0, x1=12.6),
        seg(GOOD, t0=10, t1=20, x0=12.6, x1=25.2),
    ])
    rm = build_radio_map(traj, scans_at(10.0))
    assert len(rm) == 1
    assert rm.entries[0].x == pytest.approx(12.6)


def test_boundary_scan_counts_in_both_segments():
    # each segment's accepted count is deduplicated only within the
    # segment: the seam scan counts for both, the map holds it once
    traj = Trajectory(segments=[
        seg(GOOD, t0=0, t1=10, x0=0, x1=12.6),
        seg(GOOD, t0=10, t1=20, x0=12.6, x1=25.2),
        seg(POOR, t0=20, t1=30, x0=25.2, x1=0),
    ])
    rm = build_radio_map(traj, scans_at(5.0, 10.0, 15.0, 18.0, 25.0))
    assert len(rm) == 4
    assert [n for _, n in rm.segments] == [2, 3, 0]
    assert [b for b, _ in rm.segments] == [segment_belief(s) for s in traj.segments]
    for k, segment in enumerate(traj.segments):
        single = Trajectory(segments=[segment])
        alone = build_radio_map(single, scans_at(5.0, 10.0, 15.0, 18.0, 25.0))
        assert len(alone) == rm.segments[k][1]


def test_repeated_scan_time_counts_once_per_segment():
    traj = Trajectory(segments=[seg(GOOD)])
    rm = build_radio_map(traj, scans_at(5.0, 5.0))
    assert len(rm) == 1
    assert [n for _, n in rm.segments] == [1]


def test_scan_outside_every_segment_dropped():
    traj = Trajectory(segments=[seg(GOOD, t0=0, t1=10)])
    rm = build_radio_map(traj, scans_at(11.0))
    assert len(rm) == 0


def test_fractional_floor_rounds_half_up():
    traj = Trajectory(segments=[
        seg(GOOD, t0=0, t1=10, floor=1.0, floor1=2.0)])
    rm = build_radio_map(traj, scans_at(5.0))
    assert rm.entries[0].floor == 2
    assert isinstance(rm.entries[0].floor, int)


def test_fingerprint_copied_from_scan():
    traj = Trajectory(segments=[seg(GOOD)])
    scan = WifiScan(t=5.0, readings={"aa": -60})
    rm = build_radio_map(traj, [scan])
    assert rm.entries[0].fp == {"aa": -60}
    assert rm.entries[0].fp is not scan.readings


def test_unsorted_scans_accepted():
    traj = Trajectory(segments=[seg(GOOD)])
    rm = build_radio_map(traj, scans_at(8.0, 2.0, 5.0))
    assert [e.x for e in rm.entries] == pytest.approx([2.52, 6.3, 10.08])


# ---------------------------------------------------------------------------
# persistence


def build_sample_map():
    traj = Trajectory(segments=[seg(GOOD)])
    scans = [WifiScan(t=float(t), readings={"aa": -60 - t, "bb": -70})
             for t in range(1, 10)]
    return build_radio_map(traj, scans)


def test_map_config_is_the_quality_config():
    cfg = QualityConfig(period_min=0.3, belief_threshold=5.0)
    rm = build_radio_map(Trajectory(segments=[]), [], cfg)
    assert rm.config == asdict(cfg)


def test_save_load_round_trip(tmp_path):
    rm = build_sample_map()
    path = tmp_path / "map.json"
    save_radio_map(rm, path)
    back = load_radio_map(path)
    assert back.config == rm.config
    assert back.entries == rm.entries


def test_save_load_empty_map(tmp_path):
    rm = build_radio_map(Trajectory(segments=[]), [])
    path = tmp_path / "map.json"
    save_radio_map(rm, path)
    back = load_radio_map(path)
    assert back.entries == []
    assert back.config == rm.config


def test_save_accepts_open_file():
    buf = io.StringIO()
    save_radio_map(build_sample_map(), buf)
    assert buf.getvalue().endswith("\n")


def test_save_is_deterministic(tmp_path):
    rm = build_sample_map()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_radio_map(rm, a)
    save_radio_map(rm, b)
    assert a.read_bytes() == b.read_bytes()


def json_map_text(radio_map) -> str:
    """The reference: a map file as json's indent=2 encoder writes it, the
    writer save_radio_map replaced."""
    obj = {
        "version": 1,
        "config": radio_map.config,
        "entries": [
            {"x": e.x, "y": e.y, "floor": e.floor, "belief": e.belief, "fp": e.fp}
            for e in radio_map.entries
        ],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def json_writes_finite(e: RadioMapEntry) -> bool:
    """Whether json writes an entry without NaN or an infinity."""
    try:
        json.dumps([e.x, e.y, e.floor, e.belief, e.fp], allow_nan=False)
    except ValueError:
        return False
    return True


def load_error(e: RadioMapEntry | None = None, config=None) -> str | None:
    """The error load_radio_map gives for a map of entry e alone (or of no
    entry) and config (or none), as json writes it, the entry's place
    "map.entries[0]"; None when it reads it."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "map.json"
        path.write_text(json_map_text(RadioMap(entries=[e] if e else [], config=config or {})))
        try:
            load_radio_map(path)
        except MapFormatError as exc:
            return str(exc)
    return None


def saved_text(radio_map) -> str:
    buf = io.StringIO()
    save_radio_map(radio_map, buf)
    return buf.getvalue()


# floats json writes in every form: signed zero, exponents both ways and
# subnormals, besides whatever hypothesis draws
EDGE_FLOATS = [-0.0, 0.0, 1e-7, 1e16, 1e22, 5e-324, 2.2250738585072014e-308, 1.5e-310,
               -1.7976931348623157e308, 0.1, 123456.789]
coordinates = st.one_of(st.sampled_from(EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))
# MACs with what json escapes, %, which a % template must not read, and
# text outside ASCII
macs = st.one_of(st.sampled_from(['a"b', "a\\b", "%s", "%%", "%(x)s", "\x00\x1f\n\t",
                                  "\u00e9\u2028", "\U0001f600", "\ud800", ""]),
                 st.text(max_size=6))
fingerprints = st.dictionaries(macs, st.integers(-200, 0), max_size=5)
# x and y within the +-1e6 m a map file takes, and floor within +-1e6
positions = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if abs(v) <= 1e6] + [1e6, -1e6]),
                      st.floats(-1e6, 1e6))
entries = st.builds(RadioMapEntry, x=positions, y=positions,
                    floor=st.integers(-(10**6), 10**6), belief=coordinates, fp=fingerprints)
# entries the template does not write: other scalar types, non-finite
# floats, readings that are not ints, some of them nested
odd_scalars = st.one_of(st.integers(), st.booleans(), st.none(),
                        st.sampled_from([math.nan, math.inf, -math.inf, 1]))
odd_entries = st.builds(
    RadioMapEntry, x=st.one_of(coordinates, odd_scalars), y=st.one_of(coordinates, odd_scalars),
    floor=st.one_of(st.integers(), odd_scalars, coordinates),
    belief=st.one_of(coordinates, odd_scalars),
    fp=st.one_of(fingerprints, st.dictionaries(macs, st.one_of(
        st.integers(), st.floats(), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)), max_size=3)))
# configs the map reader takes and configs it refuses: keys of QualityConfig
# or not, any number, NaN and the infinities among them
config_values = st.one_of(st.floats(), st.integers(), st.booleans())
configs = st.one_of(st.builds(lambda cfg: asdict(cfg), st.just(QualityConfig())),
                    st.dictionaries(st.sampled_from(sorted(asdict(QualityConfig()))),
                                    st.one_of(st.floats(0.001, 100), config_values)),
                    st.dictionaries(st.text(max_size=4), config_values, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(entries, entries, odd_entries), max_size=7), configs,
       st.integers(1, 4))
def test_save_writes_the_bytes_json_writes(map_entries, config, chunk):
    # a config that load_radio_map refuses is refused by the loader's
    # words, before any entry; an entry json writes with NaN or an infinity
    # is refused as such, and one that load_radio_map refuses by the
    # loader's words
    rm = RadioMap(entries=map_entries, config=config)
    bad = next((i for i, e in enumerate(map_entries)
                if not json_writes_finite(e) or load_error(e)), None)
    config_error = load_error(config=config)
    with mock.patch.object(radiomap, "_CHUNK_ENTRIES", chunk):  # chunks of a few entries
        if config_error:
            with pytest.raises(MapFormatError,
                               match=f"^cannot write map: {re.escape(config_error)}$"):
                saved_text(rm)
        elif bad is None:
            assert saved_text(rm) == json_map_text(rm)
        elif not json_writes_finite(map_entries[bad]):
            with pytest.raises(MapFormatError, match=f"^cannot write map: entry {bad} "
                                                     "must hold finite numbers$"):
                saved_text(rm)
        else:
            error = load_error(map_entries[bad]).replace("map.entries[0]", f"entry {bad}", 1)
            with pytest.raises(MapFormatError, match=f"^cannot write map: {re.escape(error)}$"):
                saved_text(rm)


@pytest.mark.parametrize("field, value, shown", [
    ("x", 2e6, "2000000.0"), ("y", math.nextafter(-1e6, -math.inf), "-1000000.0000000001"),
    ("floor", 10**7, "10000000"), ("floor", -(10**300), str(-(10**300))[:100] + "...")],
    ids=["x above", "y below", "floor above", "floor far below"])
def test_save_refuses_an_entry_out_of_the_range_load_takes(tmp_path, field, value, shown):
    # such an entry used to be saved, and loading the map then failed
    entry = replace(RadioMapEntry(0.0, 0.0, 1, 20.0, {"ap": -50}), **{field: value})
    rm = RadioMap(entries=[RadioMapEntry(0.0, 0.0, 1, 20.0, {})] * 3 + [entry])
    rule = "at least -1e+06" if value < 0 else "at most 1e+06"
    path = tmp_path / "map.json"
    with pytest.raises(MapFormatError, match=re.escape(
            f"cannot write map: entry 3.{field} must be {rule}, got {shown}")):
        save_radio_map(rm, path)
    path.write_text(json_map_text(rm))  # the map as json writes it
    with pytest.raises(MapFormatError, match=re.escape(
            f"map.entries[3].{field} must be {rule}, got {shown}")):
        load_radio_map(path)


@pytest.mark.parametrize("config, error", [
    ({"sigma_floor": 0.0}, "map.config.sigma_floor must be above 0, got 0.0"),
    ({"sigma_floor": math.nan}, "map.config.sigma_floor must be a finite number, got nan"),
    ({"nope": 1}, "map.config has unknown fields ['nope']"),
    ({"period_min": 2.0}, "map.config.period_min must be at most period_max (1.0), got 2.0")],
    ids=["sigma_floor 0", "sigma_floor nan", "unknown key", "band out of order"])
def test_save_refuses_a_config_load_refuses(tmp_path, config, error):
    # such a config used to be saved (NaN as a bare NaN, which is not
    # JSON), and loading the map then failed
    rm = RadioMap(entries=[RadioMapEntry(0.0, 0.0, 1, 20.0, {"ap": -50})], config=config)
    path = tmp_path / "map.json"
    with pytest.raises(MapFormatError, match=re.escape(f"cannot write map: {error}")):
        save_radio_map(rm, path)
    assert not path.exists()
    assert load_error(config=config) == error


def test_save_writes_the_bytes_json_writes_for_the_sample_maps():
    for rm in (build_sample_map(), build_radio_map(Trajectory(segments=[]), []),
               RadioMap(entries=[RadioMapEntry(0.0, 0.0, 1, 0.0, {})]),
               RadioMap(entries=[RadioMapEntry(-0.0, 1e-7, 0, 1e16,
                                               {'"': -1, "\\": -2, "%": -3, "\x07": -4,
                                                "\u00e9": -5})] * 600, config={})):
        assert saved_text(rm) == json_map_text(rm)


def traced_peak(call) -> int:
    """The peak of the memory tracemalloc sees while call runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_memory_is_a_chunk_not_the_text(tmp_path):
    fp = {f"00:11:22:33:44:{i:02x}": -40 - i for i in range(12)}
    rm = RadioMap(entries=[RadioMapEntry(i * 0.37, -i * 1.3, 1 + i % 3, 17.25, dict(fp))
                           for i in range(6000)], config=asdict(QualityConfig()))
    size = len(json_map_text(rm))
    path = tmp_path / "map.json"
    peak = traced_peak(lambda: save_radio_map(rm, path))
    assert path.read_text() == json_map_text(rm)
    assert peak < size / 5, (peak, size)
    # the writer it replaced held the whole text
    assert traced_peak(lambda: path.write_text(json_map_text(rm))) > size


def write_map(tmp_path, mutate):
    import json
    rm = build_sample_map()
    path = tmp_path / "map.json"
    save_radio_map(rm, path)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    return path


def test_load_rejects_unknown_top_field(tmp_path):
    path = write_map(tmp_path, lambda d: d.update(extra=1))
    with pytest.raises(MapFormatError, match=re.escape("map has unknown fields ['extra']")):
        load_radio_map(path)


def test_load_rejects_unknown_entry_field(tmp_path):
    path = write_map(tmp_path, lambda d: d["entries"][0].update(label="rp3"))
    with pytest.raises(MapFormatError,
                       match=re.escape("map.entries[0] has unknown fields ['label']")):
        load_radio_map(path)


def test_load_rejects_unknown_config_field(tmp_path):
    path = write_map(tmp_path, lambda d: d["config"].update(gamma=2.0))
    with pytest.raises(MapFormatError, match=re.escape("map.config has unknown fields ['gamma']")):
        load_radio_map(path)


def test_load_reads_version_and_floor_by_one_integer_rule(tmp_path):
    # a version of 1.0 used to load while a floor of 1.0 was refused; both
    # are integers as records.number reads them, and 1.5 is neither
    entry = lambda d: d["entries"][0]
    path = write_map(tmp_path, lambda d: (d.update(version=1.0),
                                          entry(d).update(floor=float(entry(d)["floor"]))))
    loaded = load_radio_map(path)
    assert loaded == build_sample_map()
    assert type(loaded.entries[0].floor) is int
    for key, mutate in (("version", lambda d: d.update(version=1.5)),
                        ("entries[0].floor", lambda d: entry(d).update(floor=1.5))):
        with pytest.raises(MapFormatError) as exc:
            load_radio_map(write_map(tmp_path, mutate))
        assert str(exc.value) == f"map.{key} must be an integer, got 1.5"


def test_load_rejects_positive_rss(tmp_path):
    path = write_map(tmp_path,
                     lambda d: d["entries"][0]["fp"].update(aa=3))
    with pytest.raises(MapFormatError, match=re.escape(
            "map.entries[0].fp: RSS of 'aa' must be a non-positive integer of at least "
            "-200 dBm, got 3")):
        load_radio_map(path)


def test_load_rejects_wrong_version(tmp_path):
    path = write_map(tmp_path, lambda d: d.update(version=2))
    with pytest.raises(MapFormatError, match=re.escape("map.version must be 1, got 2")):
        load_radio_map(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "map.json"
    path.write_text("not json {")
    with pytest.raises(MapFormatError, match=re.escape(
            "invalid JSON: Expecting value: line 1 column 1 (char 0)")):
        load_radio_map(path)
