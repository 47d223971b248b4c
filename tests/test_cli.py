import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridemap import cli, radiomap, sensors
from stridemap.cli import (SECTIONS, CliError, _Run, build_parser,
                           default_config, load_queries, main)
from stridemap.config import HEADING_SOURCES
from stridemap.radiomap import (MAP_VERSION, MapFormatError, RadioMap, build_radio_map,
                                load_radio_map)
from stridemap.records import array, members, read_json, version
from stridemap.sensors import load_trace
from stridemap.trajectory import Trajectory, load_trajectory
from test_sim import corridor_dict


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """One simulate -> track -> build-map run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("flow")
    d = corridor_dict(walk={"waypoints": ["a", "b", "a"]})
    write_json(root / "scenario.json", d)
    write_json(root / "graph.json", d["environment"]["graph"])

    assert main(["simulate", str(root / "scenario.json"),
                 "--out", str(root)]) == 0
    assert main(["track", str(root / "trace.jsonl"),
                 "--graph", str(root / "graph.json"),
                 "--out", str(root)]) == 0
    assert main(["build-map", str(root / "trajectory.jsonl"),
                 str(root / "trace.jsonl"), "--out", str(root)]) == 0

    entries = json.loads((root / "map.json").read_text())["entries"]
    lines = [json.dumps({"x": e["x"], "y": e["y"], "floor": e["floor"],
                         "fp": e["fp"]}) for e in entries]
    (root / "queries.jsonl").write_text("\n".join(lines) + "\n")
    return root


# ---------------------------------------------------------------------------
# pipeline outputs


def test_simulate_outputs(flow):
    assert (flow / "trace.jsonl").is_file()
    manifest = json.loads((flow / "manifest.json").read_text())
    assert manifest["command"] == "build-map"  # last writer in the fixture
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert manifest["overrides"] == {}
    assert manifest["config"] == default_config()


def test_track_outputs(flow):
    summary = json.loads((flow / "summary.json").read_text())
    assert summary["mean_error_m"] < 0.5  # noiseless walk, step-quantized
    rows = read_csv(flow / "error_cdf.csv")
    assert rows[0] == ["error_m", "cdf"]
    assert float(rows[-1][1]) == 1.0


def test_build_map_outputs(flow):
    data = json.loads((flow / "map.json").read_text())
    assert data["version"] == 1
    assert len(data["entries"]) > 0
    seg_rows = read_csv(flow / "segments.csv")
    assert seg_rows[0] == ["segment_id", "belief", "accepted_scans"]
    assert len(seg_rows) - 1 >= 2  # the turn at b closes a segment


def test_segment_counts_match_one_segment_builds(flow):
    traj = load_trajectory(flow / "trajectory.jsonl")  # periods included
    trace = load_trace(flow / "trace.jsonl")
    expected = [len(build_radio_map(Trajectory(segments=[seg]),
                                    trace.wifi))
                for seg in traj.segments]
    rows = read_csv(flow / "segments.csv")[1:]
    assert [int(r[2]) for r in rows] == expected
    assert sum(expected) > 0


def test_evaluate_exact_queries(flow, tmp_path):
    assert main(["evaluate", str(flow / "map.json"),
                 str(flow / "queries.jsonl"), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["floor_accuracy"] == 1.0
    # out-and-back walks revisit positions; the revisit differs by one ulp
    # and ties in fingerprint space, so "exact" is exact up to that tie
    assert summary["mean_error_m"] == pytest.approx(0.0, abs=1e-9)
    rows = read_csv(tmp_path / "report.csv")
    n_queries = len((flow / "queries.jsonl").read_text().splitlines())
    assert len(rows) - 1 == n_queries
    assert all(r[-1] == "1" for r in rows[1:])
    assert summary["n_queries"] == n_queries


def test_localize_known_fingerprint(flow, capsys):
    entry = json.loads((flow / "map.json").read_text())["entries"][0]
    rss_args = []
    for mac, rss in entry["fp"].items():
        rss_args += ["--rss", f"{mac}={rss}"]
    assert main(["localize", str(flow / "map.json")] + rss_args) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out == {"x": entry["x"], "y": entry["y"], "floor": entry["floor"]}


def test_localize_fingerprint_file(flow, tmp_path, capsys):
    entry = json.loads((flow / "map.json").read_text())["entries"][0]
    fp_path = tmp_path / "fp.json"
    write_json(fp_path, entry["fp"])
    assert main(["localize", str(flow / "map.json"),
                 "--fingerprint", str(fp_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    saved = json.loads((tmp_path / "location.json").read_text())
    assert saved["floor"] == entry["floor"]


def test_sweep_rows_equal_evaluate_at_each_tau(flow, tmp_path):
    taus = ["-90", "-80", "-70"]
    assert main(["sweep", str(flow / "map.json"), str(flow / "queries.jsonl"),
                 "--taus=" + ",".join(taus), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["tau"]) for r in rows] == [float(t) for t in taus]
    for tau, row in zip(taus, rows):
        out = tmp_path / f"tau{tau}"
        assert main(["evaluate", str(flow / "map.json"), str(flow / "queries.jsonl"),
                     "--set", f"localization.tau={tau}", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for key in ("floor_accuracy", "mean_error_m", "p50", "p75", "p90"):
            assert (float(row[key]) if row[key] else None) == summary[key], (tau, key)


def test_sweep_report(flow, tmp_path):
    assert main(["sweep", str(flow / "map.json"), str(flow / "queries.jsonl"),
                 "--taus=-90,-80,-70", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0][0] == "tau"
    assert [r[0] for r in rows[1:]] == ["-90.0", "-80.0", "-70.0"]


def test_reruns_are_byte_identical(flow, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["track", str(flow / "trace.jsonl"),
                     "--graph", str(flow / "graph.json"),
                     "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trajectory.jsonl", "summary.json", "error_cdf.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


# ---------------------------------------------------------------------------
# configuration plumbing


def test_set_override_recorded_in_manifest(flow, tmp_path):
    assert main(["evaluate", str(flow / "map.json"),
                 str(flow / "queries.jsonl"), "--out", str(tmp_path),
                 "--set", "localization.k=3",
                 "--set", "localization.metric=sorensen"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["overrides"] == {"localization.k": 3,
                                     "localization.metric": "sorensen"}
    assert manifest["config"]["localization"]["k"] == 3


def test_metric_override_still_scores_exact_queries(flow, tmp_path):
    assert main(["evaluate", str(flow / "map.json"),
                 str(flow / "queries.jsonl"), "--out", str(tmp_path),
                 "--set", "localization.metric=sorensen"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["floor_accuracy"] == 1.0
    assert summary["mean_error_m"] == pytest.approx(0.0, abs=1e-9)


def test_config_file_overlay(flow, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"quality": {"belief_threshold": 1000.0}})
    assert main(["build-map", str(flow / "trajectory.jsonl"),
                 str(flow / "trace.jsonl"), "--out", str(tmp_path),
                 "--config", str(cfg)]) == 0
    data = json.loads((tmp_path / "map.json").read_text())
    assert data["entries"] == []  # nothing clears an impossible threshold
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["quality"]["belief_threshold"] == 1000.0
    assert manifest["overrides"] == {}


def test_impossible_threshold_warns_empty(flow, tmp_path, capsys):
    assert main(["build-map", str(flow / "trajectory.jsonl"),
                 str(flow / "trace.jsonl"), "--out", str(tmp_path),
                 "--set", "quality.belief_threshold=1000.0"]) == 0
    assert "radio map is empty" in capsys.readouterr().err


def test_evaluate_empty_map_fails(flow, tmp_path, capsys):
    assert main(["build-map", str(flow / "trajectory.jsonl"),
                 str(flow / "trace.jsonl"), "--out", str(tmp_path),
                 "--set", "quality.belief_threshold=1000.0"]) == 0
    assert main(["evaluate", str(tmp_path / "map.json"),
                 str(flow / "queries.jsonl"), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "quality.nope=1",            # unknown leaf
    "nope.thing=1",              # unknown section
    "quality=5",                 # section, not a leaf
    'quality={"sigma_floor": 0.01}',  # a section, even as a valid tree
    "localization.k=3.5",        # non-integral for an int key
    "localization.k=true",       # bools never coerce
    "localization.k",            # missing value
    "pdr.heading_source=sextant",  # not one of HEADING_SOURCES
    "sensors.walking_threshold_s=2.0",  # removed: nothing read them
    "sensors.still_min_s=1.0",
    "sensors.still_max_s=8.0",
    "pdr.baro_smooth_s=2.0",     # a constant, not a setting
    "pdr.heading_threshold=0.5",  # set in degrees, as heading_threshold_deg
])
def test_bad_set_flags(flow, tmp_path, capsys, assignment):
    code = main(["evaluate", str(flow / "map.json"),
                 str(flow / "queries.jsonl"), "--out", str(tmp_path),
                 "--set", assignment])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_every_set_key_reaches_its_field():
    strings = {"pdr.heading_source": "pdr-gyro",
               "localization.metric": "sorensen",
               "localization.tau_scope": "map"}
    assignments = []
    for section, leaves in default_config().items():
        if section == "version":
            continue
        for key, default in leaves.items():
            dotted = f"{section}.{key}"
            value = strings[dotted] if dotted in strings else default + 1
            assignments += ["--set", f"{dotted}={value}"]
    args = build_parser().parse_args(["evaluate", "map.json", "q.jsonl",
                                      *assignments])
    run = _Run(args)
    assert len(run.overrides) == 25
    for section, cls in SECTIONS.items():
        cfg = getattr(run, section)
        assert type(cfg) is cls
        # a section is its dataclass: the tree's leaves are the fields' values
        assert asdict(cfg) == run.tree[section]
        assert all(getattr(cfg, f.name) != f.default for f in fields(cls))


def test_default_tree_is_exact():
    tree = default_config()
    assert tree["pdr"]["heading_threshold_deg"] == 30.0
    assert tree["pdr"]["heading_source"] == "landmark"
    assert sorted(tree["sensors"]) == ["acc_window", "gyro_window",
                                       "variance_threshold"]
    for section, cls in SECTIONS.items():
        assert tree[section] == asdict(cls())
        assert list(tree[section]) == [f.name for f in fields(cls)]


# one minimal argv per subcommand, simulate first
SUBCOMMAND_ARGV = [
    ["simulate", "s.json"],
    ["track", "t.jsonl"],
    ["build-map", "trajectory.jsonl", "t.jsonl"],
    ["localize", "map.json"],
    ["evaluate", "map.json", "q.jsonl"],
    ["sweep", "map.json", "q.jsonl", "--taus=-90"],
]


def assert_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV)
def test_no_subcommand_accepts_jobs(capsys, argv):
    assert_usage_error(capsys, argv + ["--jobs", "2"], "--jobs")


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV[1:])
def test_only_simulate_accepts_seed(capsys, argv):
    assert_usage_error(capsys, argv + ["--seed", "1"], "--seed")


def test_only_simulate_manifest_records_a_seed(flow, tmp_path, capsys):
    scenario = str(flow / "scenario.json")
    assert main(["simulate", scenario, "--seed", "7", "--out", str(tmp_path / "s7")]) == 0
    assert main(["simulate", scenario, "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s7" / "manifest.json").read_text())["seed"] == 7
    assert json.loads((tmp_path / "s" / "manifest.json").read_text())["seed"] is None
    fp = tmp_path / "fp.json"
    write_json(fp, json.loads((flow / "map.json").read_text())["entries"][0]["fp"])
    runs = {
        "track": ["track", str(flow / "trace.jsonl"), "--graph", str(flow / "graph.json")],
        "build-map": ["build-map", str(flow / "trajectory.jsonl"), str(flow / "trace.jsonl")],
        "localize": ["localize", str(flow / "map.json"), "--fingerprint", str(fp)],
        "evaluate": ["evaluate", str(flow / "map.json"), str(flow / "queries.jsonl")],
        "sweep": ["sweep", str(flow / "map.json"), str(flow / "queries.jsonl"),
                  "--taus=-90"],
    }
    for command, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / command)]) == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["command"] == command and "seed" not in manifest


@pytest.mark.parametrize("command", ["simulate", "track", "build-map", "localize",
                                     "evaluate", "sweep"])
def test_manifest_lists_exactly_the_files_written(flow, tmp_path, capsys, command):
    argv = {
        "simulate": ["simulate", str(flow / "scenario.json")],
        "track": ["track", str(flow / "trace.jsonl"), "--graph", str(flow / "graph.json")],
        "build-map": ["build-map", str(flow / "trajectory.jsonl"), str(flow / "trace.jsonl")],
        "localize": ["localize", str(flow / "map.json"), "--rss", "ap-w=-50"],
        "evaluate": ["evaluate", str(flow / "map.json"), str(flow / "queries.jsonl")],
        "sweep": ["sweep", str(flow / "map.json"), str(flow / "queries.jsonl"), "--taus=-90"],
    }[command]
    out = tmp_path / "fresh" / "out"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir())


def test_localize_without_out_writes_no_file(flow, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["localize", str(flow / "map.json"), "--rss", "ap-w=-50"]) == 0
    assert json.loads(capsys.readouterr().out).keys() == {"x", "y", "floor"}
    assert list(tmp_path.iterdir()) == []


def test_simulate_prints_scans_and_duration(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", str(DEMO), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'trace.jsonl'} (111 scans, 223.0 s)\n"


def test_simulate_streams_the_trace_and_a_failure_leaves_no_file(
        flow, tmp_path, monkeypatch, capsys):
    def fails_halfway(trace, fh):
        # the trace goes straight into the temp file, not a buffer
        assert Path(fh.name).name == "trace.jsonl.tmp"
        fh.write('{"ch": "accel", "t": 0.0, "v": [0.0, 0.0, 9.81]}\n')
        raise OSError("disk full")

    monkeypatch.setattr(sensors, "dump_trace", fails_halfway)
    out = tmp_path / "out"
    assert main(["simulate", str(flow / "scenario.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert list(out.iterdir()) == []  # no trace.jsonl, .tmp or manifest.json


@pytest.mark.parametrize("walk, aps, message", [
    ({}, {"x": 1e200}, "scenario.environment.aps[0].x must be at most 1e+06, got 1e+200"),
    ({"scan_interval_s": 1e-11}, {},
     "walk.scan_interval_s (1e-11 s) must be at least one sample tick (0.02 s)"),
    # these two were planned as no pause, with exit 0
    ({"stops": [{"at": "b", "duration_s": 1e-11}]}, {},
     "walk.stops at 'b' (1e-11 s) must be at least one sample tick (0.02 s)"),
    ({"warmup_s": 1e-11}, {}, "walk.warmup_s (1e-11 s) must be at least one sample tick (0.02 s)"),
])
def test_simulate_refuses_what_the_model_cannot_take_in_one_line(tmp_path, capsys,
                                                                 walk, aps, message):
    # an OverflowError and a ZeroDivisionError traceback before
    d = corridor_dict(walk=walk)
    d["environment"]["aps"][0].update(aps)
    write_json(tmp_path / "s.json", d)
    out = tmp_path / "out"
    assert main(["simulate", str(tmp_path / "s.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() or list(out.iterdir()) == []


def test_a_commit_that_fails_on_a_later_file_leaves_no_file(tmp_path):
    def fails_halfway(fh):
        fh.write("{")
        raise OSError("disk full")

    out = tmp_path / "out"
    run = _Run(build_parser().parse_args(["sweep", "map.json", "q.jsonl",
                                          "--taus=-90", "--out", str(out)]))
    run.add("sweep.csv", lambda fh: fh.write("written\n"))
    run.add("report.csv", fails_halfway)
    with pytest.raises(OSError, match="disk full"):
        run.commit({})
    assert list(out.iterdir()) == []  # no sweep.csv, .tmp or manifest.json


def test_config_file_unknown_key(flow, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"qualty": {"belief_threshold": 10.0}})
    assert main(["evaluate", str(flow / "map.json"),
                 str(flow / "queries.jsonl"), "--out", str(tmp_path),
                 "--config", str(cfg)]) == 1
    assert "qualty" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument errors


def test_missing_input_file(tmp_path, capsys):
    assert main(["track", str(tmp_path / "absent.jsonl"),
                 "--mode", "pdr-gyro"]) == 1
    assert "not found" in capsys.readouterr().err


def test_landmark_mode_requires_graph(flow, tmp_path, capsys):
    assert main(["track", str(flow / "trace.jsonl"),
                 "--out", str(tmp_path)]) == 1
    assert "--graph" in capsys.readouterr().err


def test_gyro_mode_needs_no_graph(flow, tmp_path):
    assert main(["track", str(flow / "trace.jsonl"), "--mode", "pdr-gyro",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "trajectory.jsonl").is_file()


@pytest.mark.parametrize("mode", HEADING_SOURCES)
def test_mode_takes_an_equal_set_and_overrides_a_config_file(flow, tmp_path, capsys, mode):
    other = next(m for m in HEADING_SOURCES if m != mode)
    write_json(tmp_path / "config.json", {"pdr": {"heading_source": other}})
    track = ["track", str(flow / "trace.jsonl"), "--graph", str(flow / "graph.json"),
             "--mode", mode]
    assert main(track + ["--out", str(tmp_path / "mode")]) == 0
    for name, extra in [("set", ["--set", f"pdr.heading_source={mode}"]),
                        ("config", ["--config", str(tmp_path / "config.json")])]:
        assert main(track + extra + ["--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config"]["pdr"]["heading_source"] == mode
        assert ((tmp_path / name / "trajectory.jsonl").read_bytes()
                == (tmp_path / "mode" / "trajectory.jsonl").read_bytes())
    capsys.readouterr()
    out = tmp_path / "contradiction"
    assert main(track + ["--set", f"pdr.heading_source={other}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --mode {mode} contradicts --set pdr.heading_source={other}\n")
    assert not out.exists()


def test_a_manifest_replays_its_run(demo_walks, tmp_path):
    # the manifest's config, given back as --config with no --set or
    # --mode, runs the same track
    trace = demo_walks[1][0]["track"][1]  # the 1x demo walk
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["track", trace, "--mode", "pdr-gyro",
                 "--set", "pdr.heading_threshold_deg=45", "--set", "sensors.acc_window=40",
                 "--out", str(first)]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    write_json(tmp_path / "config.json", config)
    assert main(["track", trace, "--config", str(tmp_path / "config.json"),
                 "--out", str(again)]) == 0
    for name in ("trajectory.jsonl", "summary.json", "error_cdf.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    assert json.loads((again / "manifest.json").read_text())["config"] == config


def test_malformed_start(flow, tmp_path, capsys):
    assert main(["track", str(flow / "trace.jsonl"), "--mode", "pdr-gyro",
                 "--start", "1,2", "--out", str(tmp_path)]) == 1
    assert "x,y,floor" in capsys.readouterr().err


def test_start_of_the_first_truth_pose_tracks_as_the_default(flow, tmp_path):
    # --start reads its text as finite x and y and an integral floor; the
    # first truth pose given as text is the pose track starts from without it
    trace = load_trace(flow / "trace.jsonl")
    x, y = trace.truth.xy[0].tolist()
    start = f"{x!r},{y!r},{int(trace.truth.floor[0])}"
    assert main(["track", str(flow / "trace.jsonl"), "--graph",
                 str(flow / "graph.json"), "--start", start,
                 "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "trajectory.jsonl").read_bytes()
            == (flow / "trajectory.jsonl").read_bytes())


def test_localize_needs_a_fingerprint(flow, capsys):
    assert main(["localize", str(flow / "map.json")]) == 1
    assert "fingerprint" in capsys.readouterr().err


def test_rss_flag_reads_an_integral_decimal_like_the_files(flow, tmp_path, capsys):
    # "-50.0" in a --fingerprint or query file reads as -50; so does the flag
    entry = json.loads((flow / "map.json").read_text())["entries"][0]
    fp = tmp_path / "fp.json"
    fp.write_text(json.dumps({mac: float(rss) for mac, rss in entry["fp"].items()}))
    rss_args = []
    for mac, rss in entry["fp"].items():
        rss_args += ["--rss", f"{mac}={float(rss)!r}"]
    assert main(["localize", str(flow / "map.json")] + rss_args) == 0
    assert main(["localize", str(flow / "map.json"), "--fingerprint", str(fp)]) == 0
    flag_fix, file_fix = capsys.readouterr().out.splitlines()
    assert json.loads(flag_fix) == json.loads(file_fix) == {
        "x": entry["x"], "y": entry["y"], "floor": entry["floor"]}


def test_malformed_rss_pair(flow, capsys):
    assert main(["localize", str(flow / "map.json"), "--rss", "aa"]) == 1
    assert "mac=rss" in capsys.readouterr().err


def test_query_file_validation(flow, tmp_path, capsys):
    bad = tmp_path / "queries.jsonl"
    bad.write_text('{"x": 0, "y": 0, "floor": 1, "fp": {}, "extra": 1}\n')
    assert main(["evaluate", str(flow / "map.json"), str(bad),
                 "--out", str(tmp_path)]) == 1
    assert "exactly x, y, floor, fp" in capsys.readouterr().err


GOOD_QUERY_FP = {"ap-w": -50, "ap-x": -200, "ap-y": 0}


@pytest.mark.parametrize("record,message", [
    ({"fp": {"ap-w": True}}, "RSS of 'ap-w' must be a non-positive integer of "
                             "at least -200 dBm, got True"),
    ({"fp": {"ap-w": -50, "ap-x": -50.5}}, "RSS of 'ap-x' must be a non-positive "
                                           "integer of at least -200 dBm, got -50.5"),
    ({"fp": {"ap-w": 1}}, "RSS of 'ap-w' must be a non-positive integer of at "
                          "least -200 dBm, got 1"),
    ({"fp": {"ap-w": -201}}, "RSS of 'ap-w' must be a non-positive integer of "
                             "at least -200 dBm, got -201"),
    ({"fp": {"ap-w": -50, "": -60}}, "fingerprint has an empty MAC"),
    ({"fp": [["ap-w", -50]]}, "fingerprint must be an object of mac: rss"),
    ({"x": None}, "query needs exactly x, y, floor, fp"),
    ({"x": math.inf}, "x, y and floor must be finite numbers, floor an integer"),
])
def test_query_file_errors_keep_their_text_and_line(tmp_path, record, message):
    good = {"x": 1.5, "y": 0, "floor": 1, "fp": GOOD_QUERY_FP}
    bad = {**good, **record}
    if bad["x"] is None:
        del bad["x"]
    path = tmp_path / "queries.jsonl"
    path.write_text("".join(json.dumps(q) + "\n" for q in [good] * 100 + [bad]))
    with pytest.raises(CliError) as exc:
        load_queries(path)
    assert str(exc.value) == f"{path}:101: {message}"


def test_query_file_reads_an_integral_decimal_rss(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"x": 0, "y": 0, "floor": 1, "fp": {"ap-w": -50}}\n'
                    '{"x": 0, "y": 0, "floor": 1, "fp": {"ap-w": -50.0, "ap-x": -60}}\n')
    second = load_queries(path)[1][1]
    assert second == {"ap-w": -50, "ap-x": -60}
    assert type(second["ap-w"]) is int


def typed(value):
    """value with the type of each number in it, so 1 and 1.0 differ."""
    if isinstance(value, (tuple, list)):
        return [typed(item) for item in value]
    if isinstance(value, dict):
        return [(key, typed(item)) for key, item in value.items()]
    return value, type(value)


def outcome(read, path, error):
    """What read gives for path: its result, typed, or its error's text."""
    try:
        return typed(read(path))
    except error as exc:
        return str(exc)


# number tokens orjson and json read apart or refuse apart: NaN and the
# infinities, past the float range, integers at and past 64 bits (orjson
# 3.8 reads one past them as a float), -0, integral floats, bools
NUMBER_EDGES = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0",
                "0", "1", "1.0", "true", "null", '"1"', "-50", "-50.0", "-200", "-201",
                "1e6", "1000000.0000000001", "-1e6", str(2**63), str(2**63 - 1),
                str(-2**63), str(-2**63 - 1), str(2**64), str(2**64 - 1), str(-2**64),
                str(10**30), str(-10**30), "1" + "0" * 400]
MAC_EDGES = ['"ap-1"', '"ap-2"', '""', '"\\ud800"', '"\\u00e9"', '"\\u0000"']


def query_line(x="0.5", y="-1.25", floor="1", fp='{"ap-1": -50, "ap-2": -71}') -> str:
    return '{"x": %s, "y": %s, "floor": %s, "fp": %s}' % (x, y, floor, fp)


# query file -> whether orjson alone reads it (a clean file, or one whose
# lines orjson refuses only where they are blank), else json re-reads it
QUERY_EDGES = {
    "clean": (query_line() + "\n" + query_line("-0.0", "1e-05", "-3") + "\n", True),
    "empty": ("", True),
    "no final newline": (query_line(), True),
    "CRLF": (query_line() + "\r\n" + query_line() + "\r\n", True),
    "blank lines": ("\n \t\n" + query_line() + "\n\n\t \r\n" + query_line() + "\n\n", True),
    "duplicate keys": ('{"x": 1.5, "y": 0.5, "floor": 2, "x": 0.5, "fp": '
                       '{"ap-2": -50, "ap-1": -60, "ap-2": -70}}\n', True),
    "floor -0": (query_line(floor="-0"), True),
    "x NaN": (query_line(x="NaN"), False),
    "y Infinity": (query_line(y="Infinity"), False),
    "x 1e400": (query_line(x="1e400"), False),
    "x 1e-400": (query_line(x="1e-400"), True),  # 0.0 to both
    "x -0": (query_line(x="-0"), False),
    "x is integral": (query_line(x="3"), False),
    "floor 1.0": (query_line(floor="1.0"), False),
    "floor true": (query_line(floor="true"), False),
    "RSS -50.0": (query_line(fp='{"ap-1": -50.0}'), False),
    "lone surrogate MAC": (query_line(fp='{"\\ud800": -50}'), False),
    "empty MAC": (query_line(fp='{"": -50}'), False),
    "BOM on line 1": ("\ufeff" + query_line(), False),
    "BOM on line 2": (query_line() + "\n\ufeff" + query_line(), False),
    "lone CR": (query_line() + "\r" + query_line(), False),
    "CR before CRLF": (query_line() + "\r\r\n" + query_line(), False),
    "form feed": (query_line() + "\n\x0c" + query_line(), False),
    "no-break space": (query_line() + "\xa0\n", False),
    "two queries on a line": (query_line() + " " + query_line(), False),
    "a list": ("[0.5, 1.5, 1, {}]", False),
    "missing fp": ('{"x": 0.5, "y": 0.5, "floor": 1}', False),
    "extra key": (query_line()[:-1] + ', "z": 1}', False),
    "byte not UTF-8": ((query_line() + "\n" + query_line(fp='{"ap\udcff": -50}'))
                       .encode("utf-8", "surrogateescape"), False),
    **{f"{where} {value}": (query_line(**{where: value} if where != "fp" else
                                       {"fp": '{"ap-1": %s}' % value}), False)
       for where in ("x", "floor", "fp")
       for value in (str(2**63), str(-2**63 - 1), str(2**64), str(-2**64), str(10**30))},
}


@pytest.mark.parametrize("case", sorted(QUERY_EDGES))
def test_query_reader_is_json_line_by_line(tmp_path, monkeypatch, case):
    # the same queries, or the same error, as json.loads a line at a time,
    # orjson's values taken only where json's are the same
    text, fast = QUERY_EDGES[case]
    path = tmp_path / "queries.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    reference = cli._json_queries
    want = outcome(reference, path, CliError)
    reread = []
    monkeypatch.setattr(cli, "_json_queries", lambda p: reread.append(p) or reference(p))
    assert outcome(load_queries, path, CliError) == want
    assert reread == ([] if fast else [path])


LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\n \t\n"]
QUERY_NUMBERS = st.one_of(
    st.sampled_from(NUMBER_EDGES),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.one_of(st.integers(2**64, 2**80), st.integers(-2**80, -2**63 - 1)).map(str))
CLEAN_FP = st.dictionaries(st.sampled_from(["ap-1", "ap-2", "ap-3", "\u00e9"]),
                           st.integers(-200, 0)).map(json.dumps)
ANY_FP = st.lists(st.tuples(st.sampled_from(MAC_EDGES), QUERY_NUMBERS), max_size=4).map(
    lambda pairs: "{%s}" % ", ".join(f"{mac}: {rss}" for mac, rss in pairs))
CLEAN_QUERY = st.builds(query_line, st.floats(-1e6, 1e6).map(repr), st.floats(-1e6, 1e6).map(repr),
                        st.integers(-10, 10).map(str), CLEAN_FP)
ANY_QUERY = st.one_of(
    st.builds(query_line, QUERY_NUMBERS, QUERY_NUMBERS, QUERY_NUMBERS, st.one_of(CLEAN_FP, ANY_FP)),
    st.builds(query_line, fp=ANY_FP),
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t", "\ufeff", "\x0c", "\xa0"]),
              CLEAN_QUERY, st.sampled_from(["", " ", "\t", "\x0c", "\u2028"])),
    st.sampled_from(["", "[]", "{}", "1", '{"x": 0.5}', "{", query_line() + query_line()]))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.one_of(CLEAN_QUERY, CLEAN_QUERY, ANY_QUERY),
                          st.sampled_from(LINE_ENDS)), max_size=5), st.booleans())
def test_query_reader_is_json_line_by_line_on_any_file(lines, final_newline):
    text = "".join(line + end for line, end in lines)
    if not final_newline:
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "queries.jsonl"
        path.write_bytes(text.encode())
        assert outcome(load_queries, path, CliError) == outcome(cli._json_queries, path, CliError)


def entry_line(x="0.5", y="-1.25", floor="1", belief="2.5", fp='{"ap-1": -50}') -> str:
    return '{"x": %s, "y": %s, "floor": %s, "belief": %s, "fp": %s}' % (x, y, floor, belief, fp)


# the map reader as it read every entry field by field
_read_map_by_field = members({
    "version": version(MAP_VERSION), "config": radiomap._read_config,
    "entries": array(radiomap._read_entry, list)}, ("version", "config", "entries"))


def read_map_by_field(path) -> RadioMap:
    data = _read_map_by_field(read_json(path, MapFormatError), "map", MapFormatError)
    return RadioMap(entries=data["entries"], config=data["config"])


def map_rows(read):
    """A map reader giving each entry's fields and the map's config."""
    def rows(path):
        radio_map = read(path)
        return [[e.x, e.y, e.floor, e.belief, e.fp] for e in radio_map.entries], radio_map.config
    return rows


def write_map(path, entries) -> None:
    """A map file of a list of entry texts, or of entries' own text."""
    text = entries if isinstance(entries, str) else "[%s]" % ", ".join(entries)
    path.write_text('{"config": {"sigma_floor": 0.05}, "entries": %s, "version": 1}' % text)


# map entries -> whether every entry is taken as parsed, else each is read
# field by field
MAP_EDGES = {
    "clean": ([entry_line(), entry_line("-0.0", "1e-05", "-3", "0.0", "{}")], True),
    "no entries": ([], True),
    "duplicate keys": (['{"x": 1.5, "y": 0.5, "floor": 2, "belief": 1.0, "x": 0.5, '
                        '"fp": {"ap-2": -50, "ap-1": -60, "ap-2": -70}}'], True),
    "x is integral": ([entry_line(), entry_line(x="5")], False),
    "an integral x before a clean entry": ([entry_line(x="5"), entry_line()], False),
    "floor 1.0": ([entry_line(floor="1.0")], False),
    "belief is integral": ([entry_line(belief="3")], False),
    "RSS -50.0": ([entry_line(fp='{"ap-1": -50.0}')], False),
    "x NaN": ([entry_line(), entry_line(x="NaN")], False),
    "y 1e7": ([entry_line(y="1e7")], False),
    "floor true": ([entry_line(floor="true")], False),
    "belief Infinity": ([entry_line(belief="Infinity")], False),
    "empty MAC": ([entry_line(fp='{"": -50}')], False),
    "fp is a list": ([entry_line(fp='[["ap-1", -50]]')], False),
    "extra key": ([entry_line()[:-1] + ', "label": 1}'], False),
    "missing key": (['{"x": 0.5, "y": 0.5, "floor": 1, "fp": {}}'], False),
    "entry is a list": (["[0.5, 0.5, 1, 1.0, {}]"], False),
    "entries is an object": ("{}", False),
    **{f"{where} {value}": ([entry_line(**{where: value} if where != "fp" else
                                        {"fp": '{"ap-1": %s}' % value})], False)
       for where in ("x", "floor", "fp")
       for value in (str(2**63), str(-2**63 - 1), str(2**64), str(10**30))},
}


@pytest.mark.parametrize("case", sorted(MAP_EDGES))
def test_map_reader_takes_clean_entries_as_a_field_by_field_read(tmp_path, monkeypatch, case):
    # the same map, or the same error, as every entry read field by field
    entries, fast = MAP_EDGES[case]
    path = tmp_path / "map.json"
    write_map(path, entries)
    want = outcome(map_rows(read_map_by_field), path, MapFormatError)
    reference, reread = radiomap._read_entry_array, []
    monkeypatch.setattr(radiomap, "_read_entry_array",
                        lambda *a: reread.append(a[1]) or reference(*a))
    assert outcome(map_rows(load_radio_map), path, MapFormatError) == want
    assert reread == ([] if fast else ["map.entries"])


CLEAN_ENTRY = st.builds(entry_line, st.floats(-1e6, 1e6).map(repr), st.floats(-1e6, 1e6).map(repr),
                        st.integers(-10, 10).map(str),
                        st.floats(allow_nan=False, allow_infinity=False).map(repr), CLEAN_FP)
ANY_ENTRY = st.builds(entry_line, QUERY_NUMBERS, QUERY_NUMBERS, QUERY_NUMBERS, QUERY_NUMBERS,
                      st.one_of(CLEAN_FP, ANY_FP))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(CLEAN_ENTRY, CLEAN_ENTRY, ANY_ENTRY), max_size=4))
def test_map_reader_takes_clean_entries_as_a_field_by_field_read_on_any_map(entries):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "map.json"
        write_map(path, entries)
        assert (outcome(map_rows(load_radio_map), path, MapFormatError)
                == outcome(map_rows(read_map_by_field), path, MapFormatError))


def test_sweep_rejects_bad_tau_list(flow, tmp_path, capsys):
    assert main(["sweep", str(flow / "map.json"), str(flow / "queries.jsonl"),
                 "--taus", "abc", "--out", str(tmp_path)]) == 1
    assert "--taus" in capsys.readouterr().err


GOOD_QUERY = '{"x": 0, "y": 0, "floor": 1, "fp": {"ap-w": -50}}\n'
GOOD_ACCEL = '{"ch": "accel", "t": 0.0, "v": [0, 0, 9.8]}\n'
GOOD_POSE = '{"t": 0, "x": 0, "y": 0, "floor": 1, "segment": 0, "periods": []}\n'
TRACK_BAD = ["track", "BAD", "--mode", "pdr-gyro"]
MAP_BAD = ["build-map", "BAD", "FLOW/trace.jsonl"]
GRAPH_BAD = ["track", "FLOW/trace.jsonl", "--graph", "BAD"]
TRACK_FLOW = ["track", "FLOW/trace.jsonl", "--graph", "FLOW/graph.json"]
MAP_FLOW = ["build-map", "FLOW/trajectory.jsonl", "FLOW/trace.jsonl"]
LOCALIZE_FLOW = ["localize", "FLOW/map.json", "--rss", "ap-w=-50"]
DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "two_floor_demo.json"


def demo_with(value, *path) -> str:
    """The two-floor demo scenario with the value at path replaced."""
    d = json.loads(DEMO.read_text())
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(d)


# case -> (bad file text, argv after the subcommand with BAD for the file,
# text the one error line must hold)
TWO_NODES = [{"id": "a", "x": 0, "y": 0, "floor": 1, "rules": ["acc"]},
             {"id": "b", "x": 10, "y": 0, "floor": 1, "rules": ["acc"]}]
EDGE_AB = {"from": "a", "to": "b", "heading_deg": 0, "distance_m": 10}
# JSON nested past the parser's recursion limit
DEEP = "[" * 100000 + "]" * 100000

MALFORMED = {
    "graph node without id": (
        json.dumps({"nodes": [{"x": 0, "y": 0, "floor": 1}], "edges": []}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.nodes[0] is missing fields ['id']"),
    "graph edge without to": (
        json.dumps({"nodes": [{"id": "a", "x": 0, "y": 0, "floor": 1}],
                    "edges": [{"from": "a"}]}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.edges[0] is missing fields ['distance_m', 'heading_deg', 'to']"),
    "graph nodes not an array": (
        json.dumps({"nodes": 3, "edges": []}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"], "graph.nodes must be an array"),
    "graph node x is NaN": (
        '{"nodes": [{"id": "a", "x": NaN, "y": 0, "floor": 1}], "edges": []}',
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.nodes[0].x must be a finite number, got nan"),
    # a node's range is a pose's: such a node used to be read, and track
    # then failed writing a pose, naming neither the graph nor the node
    "graph node floor is past the value range": (
        json.dumps({"nodes": [{"id": "a", "x": 0, "y": 0, "floor": 10**300}], "edges": []}),
        GRAPH_BAD, f"graph.nodes[0].floor must be at most 1e+06, got {str(10**300)[:100]}..."),
    "graph node x is past the value range": (
        json.dumps({"nodes": [{"id": "a", "x": 1e300, "y": 0, "floor": 1},
                              {"id": "b", "x": 0, "y": 0, "floor": 1}],
                    "edges": [{"from": "a", "to": "b", "heading_deg": 0, "distance_m": 1,
                               "override": True}]}),
        GRAPH_BAD, "graph.nodes[0].x must be at most 1e+06, got 1e+300"),
    "graph edge distance overflows": (
        json.dumps({"nodes": [{"id": "a", "x": 0, "y": 0, "floor": 1},
                              {"id": "b", "x": 1, "y": 0, "floor": 1}],
                    "edges": [{"from": "a", "to": "b", "heading_deg": 0,
                               "distance_m": 10**400}]}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        f"graph.edges[0].distance_m must be a finite number, got {str(10**400)[:100]}..."),
    # a graph value of the wrong type or an unknown key is refused, not
    # read as something else or ignored
    "graph auto_reverse is a string": (
        json.dumps({"nodes": TWO_NODES, "edges": [EDGE_AB], "auto_reverse": "false"}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.auto_reverse must be true or false, got 'false'"),
    "graph edge override is a string": (
        json.dumps({"nodes": TWO_NODES,
                    "edges": [dict(EDGE_AB, distance_m=5, override="no")]}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.edges[0].override must be true or false, got 'no'"),
    "graph node id is a number": (
        json.dumps({"nodes": [dict(TWO_NODES[0], id=5)], "edges": []}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.nodes[0].id must be a non-empty string, got 5"),
    "graph node id is empty": (
        json.dumps({"nodes": [dict(TWO_NODES[0], id="")], "edges": []}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.nodes[0].id must be a non-empty string, got ''"),
    "graph node rules is a string": (
        json.dumps({"nodes": [dict(TWO_NODES[0], rules="acc")], "edges": []}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.nodes[0].rules must be an array"),
    "graph node key is misspelt": (
        json.dumps({"nodes": [{"id": "a", "x": 0, "y": 0, "floor": 1, "rule": ["acc"]}],
                    "edges": []}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.nodes[0] has unknown fields ['rule']"),
    "graph edge key is unknown": (
        json.dumps({"nodes": TWO_NODES, "edges": [dict(EDGE_AB, heading=0)]}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph.edges[0] has unknown fields ['heading']"),
    # a value of the wrong type names its place, with no Python text
    # ("unhashable type: 'list'") in the line
    "graph node rule is a list": (
        json.dumps({"nodes": [dict(TWO_NODES[0], rules=[["acc"]])], "edges": []}),
        GRAPH_BAD, "error: graph.nodes[0].rules[0] must be one of ['acc', 'baro_in', "
                   "'baro_out', 'gyro', 'gyro+', 'gyro-'], got ['acc']"),
    # an id that names nothing is quoted by its first 100 characters
    "scenario waypoint is 50000 characters": (
        demo_with("x" * 50000, "walk", "waypoints", 1), ["simulate", "BAD"],
        "error: waypoint 'xxx"),
    "graph edge to is 50000 characters": (
        json.dumps({"nodes": TWO_NODES, "edges": [dict(EDGE_AB, to="y" * 50000)]}),
        GRAPH_BAD, "error: edge references unknown landmark 'yyy"),
    "graph edge endpoint is a list": (
        json.dumps({"nodes": TWO_NODES, "edges": [dict(EDGE_AB, to=["b"])]}),
        GRAPH_BAD, "error: graph.edges[0].to must be a non-empty string, got ['b']"),
    "graph top-level key is unknown": (
        json.dumps({"nodes": TWO_NODES, "edges": [EDGE_AB], "autoreverse": True}),
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "graph has unknown fields ['autoreverse']"),
    "map entry x overflows": (
        json.dumps({"version": 1, "config": {}, "entries": [
            {"x": 10**400, "y": 0, "floor": 1, "belief": 1.0, "fp": {"ap-w": -50}}]}),
        ["evaluate", "BAD", "FLOW/queries.jsonl"],
        f"map.entries[0].x must be a finite number, got {str(10**400)[:100]}..."),
    "map config is Infinity": (
        '{"version": 1, "config": {"sigma_floor": Infinity}, "entries": []}',
        ["localize", "BAD", "--rss", "ap-w=-50"],
        "map.config.sigma_floor must be a finite number, got inf"),
    "query fp is a list": (
        GOOD_QUERY + '{"x": 0, "y": 0, "floor": 1, "fp": [["ap-w", -50]]}\n',
        ["evaluate", "FLOW/map.json", "BAD"], ":2:"),
    "query x is text": (
        GOOD_QUERY + '{"x": "east", "y": 0, "floor": 1, "fp": {}}\n',
        ["evaluate", "FLOW/map.json", "BAD"], ":2:"),
    "query x is NaN": (
        GOOD_QUERY + '{"x": NaN, "y": 0, "floor": 1, "fp": {"ap-w": -50}}\n',
        ["evaluate", "FLOW/map.json", "BAD"], ":2: x, y and floor must be finite"),
    "query y is Infinity": (
        GOOD_QUERY + '{"x": 0, "y": Infinity, "floor": 1, "fp": {"ap-w": -50}}\n',
        ["sweep", "FLOW/map.json", "BAD", "--taus=-90"], ":2: x, y and floor must be finite"),
    "query rss is text": (
        GOOD_QUERY + '{"x": 0, "y": 0, "floor": 1, "fp": {"ap-w": "loud"}}\n',
        ["sweep", "FLOW/map.json", "BAD", "--taus=-90"], ":2:"),
    "fingerprint RSS overflows": (
        json.dumps({"ap-w": 10**400}),
        ["localize", "FLOW/map.json", "--fingerprint", "BAD"], "RSS of 'ap-w'"),
    "query RSS is positive": (
        GOOD_QUERY + '{"x": 0, "y": 0, "floor": 1, "fp": {"ap-w": 5}}\n',
        ["evaluate", "FLOW/map.json", "BAD"], ":2: RSS of 'ap-w' must be a non-positive"),
    "fingerprint is a list": (
        '[["ap-w", -50]]\n',
        ["localize", "FLOW/map.json", "--fingerprint", "BAD"], "fingerprint"),
    "accel samples of width 2": (
        GOOD_ACCEL + '{"ch": "accel", "t": 0.1, "v": [0, 0]}\n'
        '{"ch": "accel", "t": 0.2, "v": [0, 0]}\n', TRACK_BAD, "line 2"),
    "baro sample is a list": (
        GOOD_ACCEL + '{"ch": "baro", "t": 0.0, "v": [1013, 1014]}\n',
        TRACK_BAD, "line 2"),
    "truth sample of width 4": (
        GOOD_ACCEL + '{"ch": "truth", "t": 0.0, "v": [0, 0, 1, 7]}\n',
        TRACK_BAD, "line 2"),
    "NaN sample value": (
        GOOD_ACCEL + '{"ch": "gyro", "t": 0.0, "v": [NaN, 0, 0]}\n',
        TRACK_BAD, "line 2"),
    "NaN timestamp": (
        GOOD_ACCEL + '{"ch": "accel", "t": NaN, "v": [0, 0, 9.8]}\n',
        TRACK_BAD, "line 2"),
    "wifi reading is a triple": (
        GOOD_ACCEL + '{"ch": "wifi", "t": 1.0, "v": [["aa", -50, 3]]}\n',
        TRACK_BAD, "line 2"),
    "wifi scan is not a list": (
        GOOD_ACCEL + '{"ch": "wifi", "t": 1.0, "v": -50}\n',
        TRACK_BAD, "line 2"),
    "trajectory pose without segment": (
        GOOD_POSE + '{"t": 1, "x": 0, "y": 0, "floor": 1}\n',
        MAP_BAD, ":2:"),
    "trajectory line is a list": (
        GOOD_POSE + '[1, 0, 0, 1, 0]\n', MAP_BAD, ":2:"),
    "trajectory NaN time": (
        GOOD_POSE + '{"t": NaN, "x": 0, "y": 0, "floor": 1, "segment": 0}\n',
        MAP_BAD, ":2:"),
    "trajectory time is text": (
        GOOD_POSE + '{"t": "a", "x": 0, "y": 0, "floor": 1, "segment": 0}\n',
        MAP_BAD, ":2:"),
    "trajectory invalid JSON": (
        GOOD_POSE + '{"t": 1, x}\n', MAP_BAD, ":2: invalid JSON"),
    "trajectory time goes back in a segment": (
        GOOD_POSE + '{"t": 2, "x": 0, "y": 0, "floor": 1, "segment": 0}\n'
        '{"t": 1.5, "x": 0, "y": 0, "floor": 1, "segment": 0}\n',
        MAP_BAD, "bad.json:3: pose t 1.5 goes back in time from 2.0 in segment 0"),
    # used to go into the map as a 301-digit integer floor
    "trajectory pose floor is past the trace's value range": (
        GOOD_POSE + '{"t": 1, "x": 0, "y": 0, "floor": 1e300, "segment": 0}\n',
        MAP_BAD, "bad.json:2: pose floor must be at most 1e+06, got 1e+300"),
    "trajectory segment is fractional": (
        GOOD_POSE + '{"t": 1, "x": 0, "y": 0, "floor": 1, "segment": 0.5}\n',
        MAP_BAD, ":2:"),
    # a trajectory written before segments carried their step periods
    "trajectory segment without periods": (
        '{"t": 0, "x": 0, "y": 0, "floor": 1, "segment": 0}\n',
        MAP_BAD, "bad.json:1: segment 0 has no step periods; the file "
                 "predates them, re-run track"),
    "trajectory periods twice in a segment": (
        GOOD_POSE + '{"t": 1, "x": 0, "y": 0, "floor": 1, "segment": 0, '
        '"periods": [0.5]}\n',
        MAP_BAD, "bad.json:2: segment 0 carries periods twice"),
    "trajectory period is NaN": (
        '{"t": 0, "x": 0, "y": 0, "floor": 1, "segment": 0, "periods": [NaN]}\n',
        MAP_BAD, "bad.json:1: period must be a finite number, got nan"),
    "trajectory period is text": (
        '{"t": 0, "x": 0, "y": 0, "floor": 1, "segment": 0, "periods": ["0.5"]}\n',
        MAP_BAD, "bad.json:1: period must be a finite number, got '0.5'"),
    "trajectory period is a bool": (
        '{"t": 0, "x": 0, "y": 0, "floor": 1, "segment": 0, "periods": [true]}\n',
        MAP_BAD, "bad.json:1: period must be a finite number, got True"),
    # a period is the gap between two timestamps; the exactly rounded sum
    # in segment_belief would overflow on these
    "trajectory period is past twice the timestamp range": (
        '{"t": 0, "x": 0, "y": 0, "floor": 1, "segment": 0, '
        '"periods": [0.5, 0.5, 1e308, 1e308]}\n',
        MAP_BAD, "bad.json:1: period must be at most 2e+10, got 1e+308"),
    "trajectory periods is a long string": (
        '{"t": 0, "x": 0, "y": 0, "floor": 1, "segment": 0, "periods": "' + "x" * 50000 + '"}\n',
        MAP_BAD, "bad.json:1: periods must be a list, got 'xxx"),
    "trajectory periods is not a list": (
        '{"t": 0, "x": 0, "y": 0, "floor": 1, "segment": 0, "periods": 0.5}\n',
        MAP_BAD, "bad.json:1: periods must be a list, got 0.5"),
    "graph node floor is fractional": (
        json.dumps({"nodes": [{"id": "a", "x": 0, "y": 0, "floor": 1.7}], "edges": []}),
        GRAPH_BAD, "graph.nodes[0].floor must be an integer, got 1.7"),
    "query RSS is fractional": (
        GOOD_QUERY + '{"x": 0, "y": 0, "floor": 1, "fp": {"ap-w": -50.7}}\n',
        ["evaluate", "FLOW/map.json", "BAD"], ":2: RSS of 'ap-w' must be a non-positive integer"),
    "query floor is fractional": (
        GOOD_QUERY + '{"x": 0, "y": 0, "floor": 1.5, "fp": {"ap-w": -50}}\n',
        ["evaluate", "FLOW/map.json", "BAD"], ":2: x, y and floor"),
    "fingerprint RSS is fractional": (
        json.dumps({"ap-w": -50.7}),
        ["localize", "FLOW/map.json", "--fingerprint", "BAD"], "RSS of 'ap-w'"),
    "scenario corridors is a list": (
        demo_with([[[0.0, 0.0], [25.2, 0.0]]], "environment", "corridors"),
        ["simulate", "BAD"], "environment.corridors must be an object"),
    "scenario ap x is a list": (
        demo_with([1.0, 2.0], "environment", "aps", 0, "x"),
        ["simulate", "BAD"], "environment.aps[0].x must be a finite number"),
    "scenario ap tx power is Infinity": (
        demo_with(math.inf, "environment", "aps", 0, "tx_power_dbm"),
        ["simulate", "BAD"], "aps[0].tx_power_dbm must be a finite number"),
    "scenario accel noise is NaN": (
        demo_with(math.nan, "noise", "accel_std_mps2"),
        ["simulate", "BAD"], "noise.accel_std_mps2 must be a finite number"),
    "scenario ap floor is fractional": (
        demo_with(1.5, "environment", "aps", 0, "floor"),
        ["simulate", "BAD"], "aps[0].floor must be an integer"),
    "scenario seed is fractional": (
        demo_with(7.5, "noise", "seed"), ["simulate", "BAD"], "noise.seed must be an integer"),
    "scenario speed is true": (
        demo_with(True, "walk", "speed_mps"),
        ["simulate", "BAD"], "walk.speed_mps must be a finite number"),
    "scenario ap mac is a number": (
        demo_with(5, "environment", "aps", 0, "mac"),
        ["simulate", "BAD"], "aps[0].mac must be a non-empty string"),
    "scenario warmup is negative": (
        demo_with(-2.0, "walk", "warmup_s"), ["simulate", "BAD"], "warmup_s"),
    "scenario speed vanishes": (
        demo_with(5e-324, "walk", "speed_mps"), ["simulate", "BAD"],
        "walk.speed_mps (inf s) must be a finite duration"),
    "map RSS overflows a float": (
        json.dumps({"version": 1, "config": {}, "entries": [
            {"x": 0, "y": 0, "floor": 1, "belief": 1.0, "fp": {"ap-w": -10**400}}]}),
        ["localize", "BAD", "--rss", "ap-w=-50"],
        "map.entries[0].fp: RSS of 'ap-w' must be a non-positive integer of at least "
        f"-200 dBm, got {str(-10**400)[:100]}..."),
    "map RSS is far below the range": (
        json.dumps({"version": 1, "config": {}, "entries": [
            {"x": 0, "y": 0, "floor": 1, "belief": 1.0, "fp": {"ap-w": -10**17}},
            {"x": 5, "y": 0, "floor": 1, "belief": 1.0, "fp": {"ap-w": -50}}]}),
        ["localize", "BAD", "--rss", "ap-w=-50"],
        "map.entries[0].fp: RSS of 'ap-w' must be a non-positive integer of at least "
        f"-200 dBm, got {-10**17}"),
    "trace RSS is below the range": (
        GOOD_ACCEL + '{"ch": "wifi", "t": 1.0, "v": [["aa", -201]]}\n',
        TRACK_BAD, "line 2: RSS of 'aa' must be a non-positive integer of at least"),
    # a square or a sum of these once passed the float range: no step was
    # found, or a NaN floor ended the run
    "trace accel value passes the range": (
        GOOD_ACCEL + '{"ch": "accel", "t": 1.0, "v": [1.3407807929942597e+154, 0, 9.8]}\n',
        TRACK_BAD, "line 2: accel value must be at most 1e+06, got 1.3407807929942597e+154"),
    "trace baro value passes the range": (
        GOOD_ACCEL + '{"ch": "baro", "t": 1.0, "v": 1e308}\n',
        TRACK_BAD, "line 2: baro value must be at most 1e+06, got 1e+308"),
    "trace t passes the range": (
        GOOD_ACCEL + '{"ch": "accel", "t": 1e11, "v": [0, 0, 9.8]}\n',
        TRACK_BAD, "line 2: accel t must be at most 1e+10, got 100000000000.0"),
    # simulate refuses what track would refuse, before it writes a byte
    "scenario baro noise passes the trace range": (
        demo_with(1e7, "noise", "baro_std_hpa"), ["simulate", "BAD"],
        "cannot write channel 'baro': every t must be finite and in [-1e+10, 1e+10] s, "
        "every number value in [-1e+06, 1e+06]"),
    # a smoothing window sized by a 1e-15 s interval once asked for PiBs
    "trace barometer is sampled too fast": (
        GOOD_ACCEL + '{"ch": "mag", "t": 0.0, "v": [1, 0, 0]}\n'
        + "".join(f'{{"ch": "baro", "t": {k * 1e-15!r}, "v": 1013.0}}\n' for k in range(3)),
        ["track", "BAD", "--mode", "pdr-compass", "--start", "0,0,1"],
        "baro median sample interval 1e-15 s is below 0.001 s"),
    # a JSON bool is not a number, though numpy would read it as one
    "trace accel value is true": (
        GOOD_ACCEL + '{"ch": "accel", "t": 1.0, "v": [true, 0, 9.8]}\n', TRACK_BAD,
        "line 2: accel sample must be a finite t and 3 finite values"),
    "trace WiFi t is false": (
        GOOD_ACCEL + '{"ch": "wifi", "t": false, "v": [["aa", -50]]}\n', TRACK_BAD,
        "line 2: wifi sample must be a finite t"),
    # every fingerprint reader refuses an empty MAC, as the trace and map do
    "--rss MAC is empty": (
        "", ["localize", "FLOW/map.json", "--rss", "=-50"],
        "--rss MAC must be non-empty, got '=-50'"),
    "fingerprint file has an empty MAC": (
        json.dumps({"": -50}), ["localize", "FLOW/map.json", "--fingerprint", "BAD"],
        "bad.json: fingerprint has an empty MAC"),
    "query fingerprint has an empty MAC": (
        GOOD_QUERY + '{"x": 0, "y": 0, "floor": 1, "fp": {"ap-w": -50, "": -60}}\n',
        ["evaluate", "FLOW/map.json", "BAD"], "bad.json:2: fingerprint has an empty MAC"),
    "query RSS is below the range": (
        GOOD_QUERY + '{"x": 0, "y": 0, "floor": 1, "fp": {"ap-w": -201}}\n',
        ["evaluate", "FLOW/map.json", "BAD"],
        ":2: RSS of 'ap-w' must be a non-positive integer of at least -200 dBm"),
    "fingerprint RSS is below the range": (
        json.dumps({"ap-w": -300}),
        ["localize", "FLOW/map.json", "--fingerprint", "BAD"], "RSS of 'ap-w'"),
    "--rss value is below the range": (
        "", ["localize", "FLOW/map.json", "--rss", "ap-w=-201"],
        "--rss value for 'ap-w' must be a non-positive integer of at least"),
    "--rss value is fractional": (
        "", ["localize", "FLOW/map.json", "--rss", "ap-w=-50.7"],
        "--rss value for 'ap-w' must be a non-positive integer of at least "
        "-200 dBm, got '-50.7'"),
    "--rss value is nan": (
        "", ["localize", "FLOW/map.json", "--rss", "ap-w=nan"],
        "--rss value for 'ap-w' must be a non-positive integer of at least "
        "-200 dBm, got 'nan'"),
    "--rss value is -inf": (
        "", ["localize", "FLOW/map.json", "--rss", "ap-w=-inf"], "got '-inf'"),
    "--rss value is a decimal below the range": (
        "", ["localize", "FLOW/map.json", "--rss", "ap-w=-201.0"], "got '-201.0'"),
    "--rss value is text": (
        "", ["localize", "FLOW/map.json", "--rss", "ap-w=loud"], "got 'loud'"),
    "--rss names a MAC twice": (
        "", ["localize", "FLOW/map.json", "--rss", "ap-w=-50", "--rss", "ap-w=-60"],
        "duplicate MAC 'ap-w' in --rss"),
    # the pair is refused before the map is read: BAD is no map
    "--rss and --fingerprint together": (
        json.dumps({"ap-w": -50}),
        ["localize", "BAD", "--rss", "ap-w=-50", "--fingerprint", "BAD"],
        "--rss or --fingerprint, not both"),
    # the scenario reader's seed check does not see --seed
    "--seed is negative": (
        "", ["simulate", "FLOW/scenario.json", "--seed", "-1"],
        "--seed must be at least 0, got -1"),
    "fingerprint file is invalid JSON": (
        '{"ap-w": -50,}', ["localize", "FLOW/map.json", "--fingerprint", "BAD"],
        "bad.json: invalid JSON: Expecting property name"),
    # a byte that is not UTF-8 gives one line, with the prefix that the
    # file's reader puts on its invalid-JSON message
    "fingerprint file is not UTF-8": (
        b'{"ap-\xff": -50}', ["localize", "FLOW/map.json", "--fingerprint", "BAD"],
        "bad.json: not valid UTF-8"),
    "config file is not UTF-8": (
        b'{"localization": {"metric": "\xff"}}',
        ["localize", "FLOW/map.json", "--rss", "ap-w=-50", "--config", "BAD"],
        "bad.json: not valid UTF-8"),
    "map file is not UTF-8": (
        b'{"version": 1, "config": {}, "entries": [{"x": 0, "y": 0, "floor": 1, '
        b'"belief": 1, "fp": {"ap-\xff": -50}}]}',
        ["localize", "BAD", "--rss", "ap-w=-50"], "error: not valid UTF-8"),
    "graph file is not UTF-8": (
        b'{"nodes": [{"id": "\xff", "x": 0, "y": 0, "floor": 1}], "edges": []}',
        ["track", "FLOW/trace.jsonl", "--graph", "BAD"], "error: not valid UTF-8"),
    "scenario file is not UTF-8": (
        b'{"environment": "\xff"}', ["simulate", "BAD"], "error: not valid UTF-8"),
    # JSON nested too deep to parse is invalid JSON, with the reader's prefix
    "fingerprint file is nested too deep": (
        DEEP, ["localize", "FLOW/map.json", "--fingerprint", "BAD"],
        "bad.json: invalid JSON: maximum recursion depth exceeded"),
    "map file is nested too deep": (
        DEEP, ["localize", "BAD", "--rss", "ap-w=-50"],
        "error: invalid JSON: maximum recursion depth exceeded"),
    "config file is nested too deep": (
        DEEP, LOCALIZE_FLOW + ["--config", "BAD"],
        "bad.json: invalid JSON: maximum recursion depth exceeded"),
    "graph file is nested too deep": (
        DEEP, ["track", "FLOW/trace.jsonl", "--graph", "BAD"],
        "error: invalid JSON: maximum recursion depth exceeded"),
    "scenario file is nested too deep": (
        DEEP, ["simulate", "BAD"], "error: invalid JSON: maximum recursion depth exceeded"),
    "query line is nested too deep": (
        GOOD_QUERY + DEEP + "\n", ["evaluate", "FLOW/map.json", "BAD"],
        "bad.json:2: invalid JSON: maximum recursion depth exceeded"),
    "trace line is nested too deep": (
        DEEP, ["track", "BAD", "--mode", "pdr-gyro"],
        "error: line 1: invalid JSON: maximum recursion depth exceeded"),
    # dump_trace's head, so the fast path reads up to the scan
    "trace scan is nested too deep": (
        '{"ch": "accel", "t": 0.0, "v": [0.0, 0.0, 9.8]}\n'
        '{"ch": "wifi", "t": 0.0, "v": ' + DEEP + "}\n",
        ["track", "BAD", "--mode", "pdr-gyro"],
        "error: line 2: invalid JSON: maximum recursion depth exceeded"),
    "--set value is nested too deep": (
        "", LOCALIZE_FLOW + ["--set", "localization.tau=" + DEEP],
        "config.localization.tau must be a finite number, got '[[["),
    # config values: each is refused by its reader, named by its key
    "sensors.acc_window is 0": (
        "", TRACK_FLOW + ["--set", "sensors.acc_window=0"],
        "config.sensors.acc_window must be at least 1, got 0"),
    "sensors.gyro_window is 0": (
        "", TRACK_FLOW + ["--set", "sensors.gyro_window=0"],
        "config.sensors.gyro_window must be at least 1, got 0"),
    "sensors.acc_window is inf": (
        "", TRACK_FLOW + ["--set", "sensors.acc_window=Infinity"],
        "config.sensors.acc_window must be an integer, got inf"),
    "sensors.variance_threshold is NaN": (
        "", TRACK_FLOW + ["--set", "sensors.variance_threshold=NaN"],
        "config.sensors.variance_threshold must be a finite number, got nan"),
    "landmarks.baro_window_s is 0": (
        "", TRACK_FLOW + ["--set", "landmarks.baro_window_s=0"],
        "config.landmarks.baro_window_s must be at least 0.001, got 0.0"),
    # 1e-12 s windows once sized the window arrays at 1.58 PiB
    "landmarks.baro_window_s is 1e-12": (
        "", TRACK_FLOW + ["--set", "landmarks.baro_window_s=1e-12"],
        "config.landmarks.baro_window_s must be at least 0.001, got 1e-12"),
    "landmarks.baro_window_s is NaN": (
        "", TRACK_FLOW + ["--set", "landmarks.baro_window_s=NaN"],
        "config.landmarks.baro_window_s must be a finite number, got nan"),
    "pdr.initial_step_length is NaN": (
        "", TRACK_FLOW + ["--set", "pdr.initial_step_length=NaN"],
        "config.pdr.initial_step_length must be a finite number, got nan"),
    "pdr.heading_threshold_deg is inf": (
        "", TRACK_FLOW + ["--set", "pdr.heading_threshold_deg=Infinity"],
        "config.pdr.heading_threshold_deg must be a finite number, got inf"),
    # --mode once ran its own source, the manifest's overrides naming another
    "--mode contradicts --set pdr.heading_source": (
        "", ["track", "FLOW/trace.jsonl", "--mode", "pdr-gyro",
             "--set", "pdr.heading_source=landmark"],
        "error: --mode pdr-gyro contradicts --set pdr.heading_source=landmark"),
    "pdr.pressure_per_floor is 0": (
        "", TRACK_FLOW + ["--set", "pdr.pressure_per_floor=0"],
        "config.pdr.pressure_per_floor must be at least 0.001, got 0.0"),
    # a floor change past the float range once ended in an OverflowError
    "pdr.pressure_per_floor is 5e-324": (
        "", TRACK_FLOW + ["--set", "pdr.pressure_per_floor=5e-324"],
        "config.pdr.pressure_per_floor must be at least 0.001, got 5e-324"),
    # a pose past the float range once wrote Infinity into the trajectory
    "pdr.initial_step_length is 1e308": (
        "", TRACK_FLOW + ["--set", "pdr.initial_step_length=1e308"],
        "config.pdr.initial_step_length must be at most 5, got 1e+308"),
    "pdr.distance_floor is -1": (
        "", TRACK_FLOW + ["--set", "pdr.distance_floor=-1"],
        "config.pdr.distance_floor must be above 0, got -1.0"),
    "quality.sigma_floor is 0": (
        "", MAP_FLOW + ["--set", "quality.sigma_floor=0"],
        "config.quality.sigma_floor must be above 0, got 0.0"),
    "quality.period_max is -inf": (
        "", MAP_FLOW + ["--set", "quality.period_max=-Infinity"],
        "config.quality.period_max must be a finite number, got -inf"),
    "pdr.initial_step_length is 0": (
        "", TRACK_FLOW + ["--set", "pdr.initial_step_length=0"],
        "config.pdr.initial_step_length must be above 0, got 0.0"),
    "pdr.initial_step_length is -1": (
        "", TRACK_FLOW + ["--set", "pdr.initial_step_length=-1"],
        "config.pdr.initial_step_length must be above 0, got -1.0"),
    "pdr.min_steps_for_update is -3": (
        "", TRACK_FLOW + ["--set", "pdr.min_steps_for_update=-3"],
        "config.pdr.min_steps_for_update must be at least 0, got -3"),
    "landmarks.still_min_s above still_max_s": (
        "", TRACK_FLOW + ["--set", "landmarks.still_min_s=9"],
        "config.landmarks.still_min_s must be at most still_max_s (8.0), got 9.0"),
    "landmarks.still_max_s below still_min_s in a config file": (
        '{"landmarks": {"still_max_s": 0.5}}', TRACK_FLOW + ["--config", "BAD"],
        "config.landmarks.still_min_s must be at most still_max_s (0.5), got 1.0"),
    "quality.period_max below period_min": (
        "", MAP_FLOW + ["--set", "quality.period_max=0.1"],
        "config.quality.period_min must be at most period_max (0.1), got 0.4"),
    "map config band is inverted": (
        json.dumps({"version": 1, "config": {"period_min": 1.0, "period_max": 0.5},
                    "entries": []}),
        ["localize", "BAD", "--rss", "ap-w=-50"],
        "config.period_min must be at most period_max (0.5), got 1.0"),
    # only the config format there is: a manifest would record any other
    "config file version is 7": (
        '{"version": 7}', LOCALIZE_FLOW + ["--config", "BAD"],
        "bad.json: config.version must be 1, got 7"),
    "config version is 7 by --set": (
        "", LOCALIZE_FLOW + ["--set", "version=7"], "error: config.version must be 1, got 7"),
    "localization.metric is 50000 characters": (
        "", LOCALIZE_FLOW + ["--set", "localization.metric=" + "x" * 50000],
        "config.localization.metric must be one of ['euclidean', 'sorensen'], got 'xxx"),
    "localization.tau_scope is 50000 characters": (
        "", LOCALIZE_FLOW + ["--set", "localization.tau_scope=" + "x" * 50000],
        "config.localization.tau_scope must be one of ['both', 'map', 'query'], got 'xxx"),
    "map config sigma_floor is 0": (
        json.dumps({"version": 1, "config": {"sigma_floor": 0}, "entries": []}),
        ["localize", "BAD", "--rss", "ap-w=-50"],
        "error: map.config.sigma_floor must be above 0, got 0.0"),
    "localization.k is 0": (
        "", ["evaluate", "FLOW/map.json", "FLOW/queries.jsonl",
             "--set", "localization.k=0"],
        "config.localization.k must be at least 1, got 0"),
    "localization.tau is NaN by --set": (
        "", LOCALIZE_FLOW + ["--set", "localization.tau=NaN"],
        "config.localization.tau must be a finite number, got nan"),
    "localization.tau is NaN in a config file": (
        '{"localization": {"tau": NaN}}', LOCALIZE_FLOW + ["--config", "BAD"],
        "config.localization.tau must be a finite number, got nan"),
    "localization.tau is NaN for simulate": (
        "", ["simulate", "FLOW/scenario.json", "--set", "localization.tau=NaN"],
        "config.localization.tau must be a finite number, got nan"),
    "--taus holds nan": (
        "", ["sweep", "FLOW/map.json", "FLOW/queries.jsonl", "--taus=nan,inf"],
        "--taus value must be a finite number, got nan"),
    "--taus holds inf": (
        "", ["sweep", "FLOW/map.json", "FLOW/queries.jsonl", "--taus=-90,inf"],
        "--taus value must be a finite number, got inf"),
    # --start reads x, y and floor as every loader reads a pose
    "--start x is nan": (
        "", TRACK_FLOW + ["--start", "nan,0,1"], "--start must be x,y,floor"),
    "--start y is inf": (
        "", TRACK_FLOW + ["--start", "0,inf,1"], "got '0,inf,1'"),
    "--start floor is fractional": (
        "", TRACK_FLOW + ["--start", "0,0,1.5"], "integer floor in the same range, got '0,0,1.5'"),
    "--start is text": (
        "", TRACK_FLOW + ["--start", "a,b,c"], "--start must be x,y,floor"),
    "--start has four parts": (
        "", TRACK_FLOW + ["--start", "0,0,1,2"], "got '0,0,1,2'"),
    # and x and y within the bound of a trace's truth positions
    "--start x is past the trace's value range": (
        "", TRACK_FLOW + ["--mode", "pdr-compass", "--start", "1e308,0,1"],
        "x and y finite and in [-1e+06, 1e+06] m and an integer floor in the same range, "
        "got '1e308,0,1'"),
    "--start floor is past the trace's value range": (
        "", TRACK_FLOW + ["--mode", "pdr-compass", "--start", "0,0,1e300"],
        "and an integer floor in the same range, got '0,0,1e300'"),
    "--start y is just past the trace's value range": (
        "", TRACK_FLOW + ["--start", "0,-1000000.0000000001,1"], "got '0,-1000000.0000000001,1'"),
    # a JSON-lines reader strips a line of JSON's whitespace alone, so any
    # other space at either end (a form feed, a no-break space, a line
    # separator) is the line's, and json refuses it, in every such file
    "query line starts with a form feed": (
        GOOD_QUERY + "\x0c" + GOOD_QUERY, ["evaluate", "FLOW/map.json", "BAD"],
        "bad.json:2: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "trace line starts with a no-break space": (
        (GOOD_ACCEL + "\xa0" + GOOD_ACCEL.replace("0.0", "0.02")).encode(), TRACK_BAD,
        "error: line 2: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "trace WiFi line ends with a form feed": (
        '{"ch": "wifi", "t": 0.0, "v": [["aa", -50]]}\x0c\n',
        ["build-map", "FLOW/trajectory.jsonl", "BAD"], "error: line 1: invalid JSON: Extra data"),
    "trajectory line ends with a line separator": (
        (GOOD_POSE.rstrip("\n") + "\u2028\n").encode(), MAP_BAD,
        "bad.json:1: invalid JSON: Extra data"),
    # the first faulty line in file order is named, whatever its kind
    "trace WiFi t is a bool, then an RSS is out of range": (
        '{"ch": "accel", "t": 0.0, "v": [0.0, 0.0, 9.8]}\n'
        '{"ch": "wifi", "t": 0.0, "v": [["aa", -50]]}\n'
        '{"ch": "wifi", "t": true, "v": [["aa", -50]]}\n'
        '{"ch": "wifi", "t": 1.0, "v": [["aa", 5]]}\n',
        ["build-map", "FLOW/trajectory.jsonl", "BAD"],
        "error: line 3: wifi sample must be a finite t"),
}


def malformed_error(flow, tmp_path, capsys, case) -> str:
    """The one error line the MALFORMED case prints, having checked that
    it is one line, starts "error:" and holds the case's needle."""
    text, argv, needle = MALFORMED[case]
    bad = tmp_path / "bad.json"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.write_text(text)
    argv = [a.replace("FLOW", str(flow)).replace("BAD", str(bad)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and needle in err[0]
    return err[0]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_gives_one_error_line(flow, tmp_path, capsys, case):
    malformed_error(flow, tmp_path, capsys, case)


@pytest.mark.parametrize("case", ["--set value is nested too deep", "map entry x overflows",
                                  "map RSS overflows a float",
                                  "localization.metric is 50000 characters",
                                  "localization.tau_scope is 50000 characters",
                                  "trajectory periods is a long string"])
def test_an_error_quotes_a_long_value_cut_short(flow, tmp_path, capsys, case):
    # a 200 KB --set value or a 401-digit number is quoted by its first
    # 100 characters, not in full
    err = malformed_error(flow, tmp_path, capsys, case)
    assert len(err.encode()) < 1024 and err.endswith("...")


@pytest.mark.parametrize("case", ["scenario waypoint is 50000 characters",
                                  "graph edge to is 50000 characters"])
def test_a_reference_check_quotes_an_id_cut_short(flow, tmp_path, capsys, case):
    err = malformed_error(flow, tmp_path, capsys, case)
    assert len(err.encode()) < 1024 and "..." in err


LONG_MAC = "m" * 50000
# A flag whose own parser refuses a 40-50 KB argument.
LONG_FLAG_ERRORS = {
    "--set has no =": LOCALIZE_FLOW + ["--set", "x" * 50000],
    "--rss has no =": ["localize", "FLOW/map.json", "--rss", "ap-w" + "x" * 50000],
    "--rss MAC is empty": ["localize", "FLOW/map.json", "--rss", "=" + "9" * 50000],
    "--rss value is out of range": ["localize", "FLOW/map.json", "--rss", "ap-w=" + "9" * 50000],
    "--rss value is text": ["localize", "FLOW/map.json", "--rss", LONG_MAC + "=loud"],
    "--rss names a MAC twice": ["localize", "FLOW/map.json", "--rss", LONG_MAC + "=-50",
                                "--rss", LONG_MAC + "=-60"],
    "--start has 20001 parts": TRACK_FLOW + ["--start", "1," * 20000],
}


@pytest.mark.parametrize("case", sorted(LONG_FLAG_ERRORS))
def test_a_flag_error_quotes_its_argument_cut_short(flow, tmp_path, capsys, case):
    argv = [a.replace("FLOW", str(flow)) for a in LONG_FLAG_ERRORS[case]]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "..." in err[0]
    assert len(err[0].encode()) < 300


BROKEN_GYRO = '{"ch": "gyro", "t": 0.1, "v": [0.0, 0.0, oops]}\n'


def trace_with_broken_gyro(flow, tmp_path, replace=()) -> Path:
    """flow's trace with each (index, line) of replace put in, then
    BROKEN_GYRO inserted as line 2."""
    lines = (flow / "trace.jsonl").read_text().splitlines(keepends=True)
    for k, line in replace:
        lines[k] = line
    lines.insert(1, BROKEN_GYRO)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines))
    return path


def test_build_map_reads_no_gyro_line(flow, tmp_path, capsys):
    # build-map parses only WiFi lines, so a broken gyro line, which fails
    # track, and a broken accel line leave its map unchanged
    lines = (flow / "trace.jsonl").read_text().splitlines(keepends=True)
    k = next(i for i in range(60, len(lines)) if lines[i].startswith('{"ch": "accel"'))
    trace = trace_with_broken_gyro(
        flow, tmp_path, [(k, '{"ch": "accel", "t": -1.0, "v": [0.0, oops]}\n')])
    assert main(["build-map", str(flow / "trajectory.jsonl"), str(trace),
                 "--out", str(tmp_path / "map")]) == 0
    for name in ("map.json", "segments.csv"):
        assert (tmp_path / "map" / name).read_bytes() == (flow / name).read_bytes()
    capsys.readouterr()
    assert main(["track", str(trace), "--graph", str(flow / "graph.json"),
                 "--out", str(tmp_path / "track")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 2: invalid JSON")


@pytest.mark.parametrize("bad_wifi,message", [
    ('{"ch": "wifi", "t": 50, "v": [["ap-w", 7]]}\n',
     "RSS of 'ap-w' must be a non-positive integer of at least -200 dBm, got 7"),
    ('{"ch": "wifi", "t": -1.0, "v": []}\n',
     "timestamps regress in channel 'wifi'")], ids=["rss_above_zero", "time_regresses"])
def test_build_map_names_a_bad_wifi_line_past_a_broken_gyro_line(
        flow, tmp_path, capsys, bad_wifi, message):
    lines = (flow / "trace.jsonl").read_text().splitlines()
    scans = [i for i, line in enumerate(lines) if line.startswith('{"ch": "wifi"')]
    k = scans[len(scans) // 2]
    trace = trace_with_broken_gyro(flow, tmp_path, [(k, bad_wifi)])
    assert main(["build-map", str(flow / "trajectory.jsonl"), str(trace),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line {k + 2}: {message}"]


def test_build_map_takes_its_steps_from_the_trajectory(flow, tmp_path):
    # the periods come from track: a step setting given to build-map alone
    # used to find no steps and write an empty map
    assert main(["build-map", str(flow / "trajectory.jsonl"), str(flow / "trace.jsonl"),
                 "--set", "sensors.variance_threshold=3.0",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "map.json").read_bytes() == (flow / "map.json").read_bytes()


def trace_without_gyro(flow, tmp_path) -> Path:
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(line for line in (flow / "trace.jsonl").open()
                            if not line.startswith('{"ch": "gyro"')))
    return path


@pytest.mark.parametrize("mode", ["landmark", "pdr-gyro"])
def test_a_mode_that_turns_by_gyro_refuses_a_trace_without_one(
        flow, tmp_path, capsys, mode):
    # landmark mode used to track on with no turn data and pdr-gyro to keep
    # the first heading, both with exit 0
    trace = trace_without_gyro(flow, tmp_path)
    assert main(["track", str(trace), "--graph", str(flow / "graph.json"),
                 "--mode", mode, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {mode} mode needs at least two gyro samples, trace has 0"]
    assert not (tmp_path / "out" / "trajectory.jsonl").exists()


def test_compass_mode_tracks_a_trace_without_a_gyro(flow, tmp_path):
    trace = trace_without_gyro(flow, tmp_path)
    for name, path in (("bare", trace), ("full", flow / "trace.jsonl")):
        assert main(["track", str(path), "--mode", "pdr-compass",
                     "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "bare" / "trajectory.jsonl").read_bytes()
            == (tmp_path / "full" / "trajectory.jsonl").read_bytes())


def test_build_map_refuses_a_pose_that_goes_back_in_time(flow, tmp_path, capsys):
    # the swapped poses used to drop their segment's scans with exit 0
    lines = (flow / "trajectory.jsonl").read_text().splitlines(keepends=True)
    k = len(lines) // 2
    assert json.loads(lines[k])["segment"] == json.loads(lines[k + 1])["segment"]
    assert json.loads(lines[k])["t"] < json.loads(lines[k + 1])["t"]
    lines[k], lines[k + 1] = lines[k + 1], lines[k]
    traj = tmp_path / "trajectory.jsonl"
    traj.write_text("".join(lines))
    assert main(["build-map", str(traj), str(flow / "trace.jsonl"),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {traj}:{k + 2}: pose t ")
    assert not (tmp_path / "out").exists()


def test_build_map_refuses_a_step_period_not_above_0(tmp_path, capsys):
    # periods summing to 0 used to give every segment an infinite belief:
    # exit 0, "belief": Infinity in map.json and inf in segments.csv
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "mixed_quality_demo.json"
    write_json(tmp_path / "graph.json", json.loads(scenario.read_text())["environment"]["graph"])
    assert main(["simulate", str(scenario), "--seed", "3", "--out", str(tmp_path)]) == 0
    assert main(["track", str(tmp_path / "trace.jsonl"), "--graph", str(tmp_path / "graph.json"),
                 "--out", str(tmp_path)]) == 0
    records = [json.loads(line) for line in open(tmp_path / "trajectory.jsonl")]
    for rec in records:
        if "periods" in rec:
            rec["periods"] = [0.5, -0.5]
    traj = tmp_path / "bad.jsonl"
    traj.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    assert main(["build-map", str(traj), str(tmp_path / "trace.jsonl"),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {traj}:1: period must be above 0, got -0.5"]
    assert not (tmp_path / "out").exists()


def test_build_map_refuses_a_pose_out_of_its_range(flow, tmp_path, capsys):
    # x = -1e308 used to go into the map without an error
    records = [json.loads(line) for line in open(flow / "trajectory.jsonl")]
    records[3]["x"] = -1e308
    traj = tmp_path / "trajectory.jsonl"
    traj.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["build-map", str(traj), str(flow / "trace.jsonl"),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {traj}:4: pose x must be at least -1e+06, got -1e+308"]


@pytest.mark.parametrize("what", ["map entry", "query truth", "map entry floor",
                                  "query truth floor"])
def test_evaluate_refuses_a_position_out_of_its_range(flow, tmp_path, capsys, what):
    # each used to exit 0: an x or y and the mean error infinite ("mean_error_m":
    # Infinity is not JSON), a floor compared as a 301-digit integer
    data = json.loads((flow / "map.json").read_text())
    queries = (flow / "queries.jsonl").read_text().splitlines(keepends=True)
    if what == "map entry":
        for entry in data["entries"]:
            entry["x"] = 1e308
        message = "map.entries[0].x must be at most 1e+06, got 1e+308"
    elif what == "map entry floor":
        for entry in data["entries"]:
            entry["floor"] = -10**300
        message = f"map.entries[0].floor must be at least -1e+06, got {str(-10**300)[:100]}..."
    elif what == "query truth":
        queries[:2] = [json.dumps({**json.loads(q), "y": 1e308}) + "\n" for q in queries[:2]]
        message = f"{tmp_path / 'queries.jsonl'}:1: y must be at most 1e+06, got 1e+308"
    else:
        queries[1] = json.dumps({**json.loads(queries[1]), "floor": 1e300}) + "\n"
        message = f"{tmp_path / 'queries.jsonl'}:2: floor must be at most 1e+06, got 1e+300"
    write_json(tmp_path / "map.json", data)
    (tmp_path / "queries.jsonl").write_text("".join(queries))
    assert main(["evaluate", str(tmp_path / "map.json"), str(tmp_path / "queries.jsonl"),
                 "--set", "localization.k=3", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["track", "build-map"])
def test_a_trace_byte_that_is_not_utf8_names_its_line(flow, tmp_path, capsys, command):
    # the byte sits in a mag line, a channel build-map skips unparsed
    lines = (flow / "trace.jsonl").read_bytes().splitlines(keepends=True)
    k = next(i for i in range(300, len(lines)) if lines[i].startswith(b'{"ch": "mag"'))
    lines[k] = lines[k].replace(b"]", b"\xff]")
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(b"".join(lines))
    argv = {"track": ["track", str(trace), "--graph", str(flow / "graph.json")],
            "build-map": ["build-map", str(flow / "trajectory.jsonl"), str(trace)]}
    assert main(argv[command] + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: line {k + 1}: not valid UTF-8"]


def test_cli_import_loads_no_scipy():
    # every subcommand pays its imports again; scipy alone cost ~0.3 s
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import stridemap.cli, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# subcommand -> stridemap modules its process must not load, and numpy
# packages and orjson: build-map reads its scans and trajectory and a single
# fix is scored without numpy, no command loads numpy.ma, which np.median
# and np.percentile import, and orjson is loaded only where numpy is: by
# sensors, which track and simulate load to read and write the trace, and
# by the query reader of evaluate and sweep
UNLOADED = {
    "simulate": {"pdr", "radiomap", "localization", "trajectory", "numpy.ma"},
    "track": {"sim", "localization", "numpy.ma"},
    "build-map": {"sim", "localization", "pdr", "sensors", "landmarks", "numpy",
                  "numpy.ma", "orjson"},
    "localize": {"sim", "pdr", "landmarks", "sensors", "trajectory", "numpy", "orjson"},
    "evaluate": {"sim", "pdr", "landmarks", "sensors", "trajectory", "numpy.ma"},
    "sweep": {"sim", "pdr", "landmarks", "sensors", "trajectory", "numpy.ma"},
}


@pytest.mark.parametrize("command", sorted(UNLOADED))
def test_each_subcommand_loads_only_its_stages(flow, tmp_path, command):
    # a process pays for every module it loads, and each CLI call is one
    # process; the config tree, its readers and the package load no stage
    argv = {
        "simulate": ["FLOW/scenario.json"],
        "track": ["FLOW/trace.jsonl", "--graph", "FLOW/graph.json"],
        "build-map": ["FLOW/trajectory.jsonl", "FLOW/trace.jsonl"],
        "localize": ["FLOW/map.json", "--rss", "ap-w=-50"],
        "evaluate": ["FLOW/map.json", "FLOW/queries.jsonl"],
        "sweep": ["FLOW/map.json", "FLOW/queries.jsonl", "--taus=-90,-80"],
    }[command]
    argv = [command] + [a.replace("FLOW", str(flow)) for a in argv]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys; from stridemap.cli import main; "
         "assert main(sys.argv[1:]) == 0; print(json.dumps([m.split('.')[1] "
         "for m in sys.modules if m.startswith('stridemap.')] + [m for m in "
         "('numpy', 'numpy.ma', 'orjson') if m in sys.modules]))",
         *argv, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out.splitlines()[-1]))
    assert {"cli", "config", "records"} <= loaded
    assert not loaded & UNLOADED[command], sorted(loaded)
    assert ("orjson" in loaded) == (command in ("simulate", "track", "evaluate", "sweep"))


def test_localize_runs_where_numpy_cannot_be_imported(flow, tmp_path):
    # None in sys.modules makes every import of numpy raise ImportError
    (tmp_path / "fp.json").write_text(json.dumps({"ap-w": -50, "ap-n": -70}))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for flag in (["--rss", "ap-w=-50", "--rss", "ap-n=-70"],
                 ["--fingerprint", str(tmp_path / "fp.json")]):
        argv = ["localize", str(flow / "map.json"), *flag]
        outs = [subprocess.run(
            [sys.executable, "-c", block + "import sys; from stridemap.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, check=True).stdout
            for block in ("import sys; sys.modules['numpy'] = None; ", "")]
        assert outs[0] == outs[1] and json.loads(outs[0])["floor"] == 1


def test_build_map_runs_where_numpy_cannot_be_imported(flow, tmp_path):
    # the same files, byte for byte, as a run that may import numpy
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    outs = []
    for block in ("import sys; sys.modules['numpy'] = None; ", ""):
        out = tmp_path / str(len(outs))
        subprocess.run(
            [sys.executable, "-c", block + "import sys; from stridemap.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "build-map", str(flow / "trajectory.jsonl"),
             str(flow / "trace.jsonl"), "--out", str(out)],
            env=env, capture_output=True, text=True, check=True)
        outs.append({name: (out / name).read_bytes()
                     for name in ("map.json", "segments.csv", "manifest.json")})
    assert outs[0] == outs[1] and b'"fp"' in outs[0]["map.json"]


def test_strong_ap_clips_at_zero_dbm_through_the_pipeline(tmp_path):
    # an AP whose modelled level tops 0 dBm near it: simulate clips the
    # readings at 0, so track and build-map accept what it writes
    d = corridor_dict()
    d["environment"]["aps"][0]["tx_power_dbm"] = 30.0
    write_json(tmp_path / "scenario.json", d)
    write_json(tmp_path / "graph.json", d["environment"]["graph"])
    assert main(["simulate", str(tmp_path / "scenario.json"),
                 "--out", str(tmp_path)]) == 0
    assert main(["track", str(tmp_path / "trace.jsonl"),
                 "--graph", str(tmp_path / "graph.json"),
                 "--out", str(tmp_path)]) == 0
    assert main(["build-map", str(tmp_path / "trajectory.jsonl"),
                 str(tmp_path / "trace.jsonl"), "--out", str(tmp_path)]) == 0
    strongest = max(s.readings["ap-w"] for s in load_trace(tmp_path / "trace.jsonl").wifi)
    assert strongest == 0


# ---------------------------------------------------------------------------
# garbage collection: a command runs with the collector paused

COMMANDS = ("simulate", "track", "build-map", "localize", "evaluate", "sweep")


def demo_argv(d: Path, loops: int) -> dict[str, list[str]]:
    """Write two_floor_demo.json with its waypoint loop walked loops times,
    its graph and, once there is a map, about 1000 queries into d: command
    -> the argv of that command on this walk."""
    data = json.loads(DEMO.read_text())
    wp = data["walk"]["waypoints"]
    data["walk"]["waypoints"] = wp + wp[1:] * (loops - 1)
    write_json(d / "scenario.json", data)
    write_json(d / "graph.json", data["environment"]["graph"])
    return {"simulate": ["simulate", str(d / "scenario.json"), "--seed", "1"],
            "track": ["track", str(d / "trace.jsonl"), "--graph", str(d / "graph.json")],
            "build-map": ["build-map", str(d / "trajectory.jsonl"), str(d / "trace.jsonl")],
            "localize": ["localize", str(d / "map.json"), "--rss", "ap-01=-60"],
            "evaluate": ["evaluate", str(d / "map.json"), str(d / "queries.jsonl")],
            "sweep": ["sweep", str(d / "map.json"), str(d / "queries.jsonl"),
                      "--taus=-90,-80"]}


def write_queries(d: Path, n: int = 1000) -> None:
    """n queries at the map's own entries, taken in turn."""
    entries = json.loads((d / "map.json").read_text())["entries"]
    (d / "queries.jsonl").write_text("".join(
        json.dumps({"x": e["x"], "y": e["y"], "floor": e["floor"], "fp": e["fp"]}) + "\n"
        for e, _ in zip(entries * (n // len(entries) + 1), range(n))))


@pytest.fixture(scope="module")
def demo_walks(tmp_path_factory):
    """Every command on the 1x demo walk and on the walk with its loop
    walked twice (2x), in-process: loops -> (argv per command, the count of
    unreachable objects each call left). Each call starts from a collected
    heap with the collector off, which main leaves off, so gc.collect()
    after it finds all the cyclic garbage the call made."""
    runs = {}
    for loops in (1, 2):
        d = tmp_path_factory.mktemp(f"demo{loops}x")
        argv, left = demo_argv(d, loops), {}
        for command in COMMANDS:
            if command == "evaluate":
                write_queries(d)
            gc.collect()
            gc.disable()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv[command] + ["--out", str(d)]) == 0
                assert not gc.isenabled()
                left[command] = gc.collect()
            finally:
                gc.enable()
        runs[loops] = argv, left
    return runs


@pytest.mark.parametrize("command", ["track", "evaluate"])
def test_no_collection_runs_during_a_command(demo_walks, tmp_path, command):
    # with the collector on, track on the 1x walk ran 3 collections and
    # evaluate over 1000 queries 6, each over every object a command holds
    argv = demo_walks[1][0][command] + ["--out", str(tmp_path)]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        code = main(argv)
        collections = len(starts)  # before anything allocates, which may collect
    finally:
        gc.callbacks.remove(count)
    assert code == 0
    assert collections == 0, starts


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("outcome", ["returns 0", "error exits 1", "usage error"])
def test_main_puts_the_collector_back_as_it_found_it(monkeypatch, capsys, enabled, outcome):
    # the collector is off while the command runs, and as the caller had it
    # after main, on each way out: a return, an error: line, argparse's exit
    during = []

    def command(args):
        during.append(gc.isenabled())
        if outcome == "error exits 1":
            raise CliError("the map is gone")
        return 0

    monkeypatch.setattr(cli, "cmd_localize", command)
    argv = ["localize", "map.json"] + (["--bogus"] if outcome == "usage error" else [])
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(SystemExit) if outcome == "usage error" else contextlib.nullcontext():
            assert main(argv) == (1 if outcome == "error exits 1" else 0)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert after == enabled
    assert during == ([] if outcome == "usage error" else [False])
    err = capsys.readouterr().err
    assert err.startswith("usage:") if outcome == "usage error" else (
        err == ("error: the map is gone\n" if outcome == "error exits 1" else ""))


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_leaves_no_more_cyclic_garbage_on_a_longer_walk(demo_walks, command):
    # what the collector would free after a command is argparse's parser
    # alone, the same on a walk twice as long: the pipeline's data (arrays,
    # lists, dicts, frozen dataclasses) makes no reference cycles, so
    # pausing the collector holds back nothing that grows with the input
    assert demo_walks[1][1][command] == demo_walks[2][1][command]


def script_target() -> tuple[str, str]:
    """The module and function of the installed stridemap script, as
    pyproject.toml declares them."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    return re.search(r'^stridemap = "([\w.]+):(\w+)"$', text, re.M).groups()


def test_both_process_entries_exit_with_mains_code_and_write_the_same_bytes(flow, tmp_path):
    # `python -m stridemap.cli` and the installed script, run as its
    # wrapper runs it, stdout and stderr pipes that only a flush empties
    module, func = script_target()
    heads = {"module": ["-m", "stridemap.cli"],
             "script": ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]}
    cases = [
        (["simulate", str(flow / "scenario.json"), "--out", "out"], 0),
        (["track", "out/trace.jsonl", "--graph", str(flow / "graph.json"), "--out", "out"], 0),
        (["localize", str(flow / "map.json"), "--rss", "ap-w=-50"], 0),
        (["build-map", "missing.jsonl", "out/trace.jsonl"], 1),
        (["localize"], 2)]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = {}
    for name, head in heads.items():
        (tmp_path / name).mkdir()
        results = [subprocess.run([sys.executable, *head, *argv], cwd=tmp_path / name, env=env,
                                  capture_output=True, timeout=120) for argv, _ in cases]
        assert [r.returncode for r in results] == [code for _, code in cases]
        runs[name] = ([(r.stdout, r.stderr) for r in results],
                      {p.name: p.read_bytes() for p in (tmp_path / name / "out").iterdir()})
    assert runs["module"] == runs["script"]
    outputs, files = runs["module"]
    assert sorted(files) == ["error_cdf.csv", "manifest.json", "summary.json",
                             "trace.jsonl", "trajectory.jsonl"]
    assert files["trace.jsonl"] == (flow / "trace.jsonl").read_bytes()
    assert outputs[0][0].startswith(b"wrote out/trace.jsonl (") and outputs[0][1] == b""
    assert outputs[2][1] == b"" and json.loads(outputs[2][0])["floor"] == 1
    assert outputs[3] == (b"", b"error: trajectory file not found: missing.jsonl\n")
    assert outputs[4][0] == b"" and outputs[4][1].startswith(b"usage: stridemap localize")
