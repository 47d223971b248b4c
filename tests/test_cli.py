import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from stridemap import sensors
from stridemap.cli import (SECTIONS, CliError, _configs, _Outputs,
                           build_parser, default_config, effective_config,
                           load_queries, main)
from stridemap.pdr import HeadingSource, Trajectory, load_trajectory
from stridemap.radiomap import build_radio_map
from stridemap.sensors import load_trace
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
    "pdr.heading_source=sextant",  # not a HeadingSource value
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
    tree, overrides = effective_config(args)
    assert len(overrides) == 25
    assert tree["pdr"]["heading_threshold_deg"] == 31.0
    for (section, cls), cfg in zip(SECTIONS.items(), _configs(tree)):
        assert type(cfg) is cls
        assert len(tree[section]) == len(fields(cls))
        for f in fields(cls):
            value = getattr(cfg, f.name)
            assert value != f.default, f.name
            if f.name == "heading_threshold":
                assert value == math.radians(31.0)
            elif f.name == "heading_source":
                assert value is HeadingSource.GYRO
            else:
                assert value == tree[section][f.name]


def test_default_tree_is_exact():
    tree = default_config()
    assert tree["pdr"]["heading_threshold_deg"] == 30.0
    assert tree["pdr"]["heading_source"] == "landmark"
    assert sorted(tree["sensors"]) == ["acc_window", "gyro_window",
                                       "variance_threshold"]


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
    ({}, {"x": 1e200}, "scenario.environment.aps[0].x must be a coordinate in "
                       "[-1e+06, 1e+06] m, got 1e+200"),
    ({"scan_interval_s": 1e-11}, {},
     "walk.scan_interval_s (1e-11 s) must be at least one sample tick (0.02 s)"),
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

    outs = _Outputs(tmp_path)
    outs.add("trace.jsonl", lambda fh: fh.write("written\n"))
    outs.add("manifest.json", fails_halfway)
    with pytest.raises(OSError, match="disk full"):
        outs.commit()
    assert list(tmp_path.iterdir()) == []


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
        "--seed must be non-negative, got -1"),
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
        "config.localization.tau must be a number, got '[[["),
    # config values: each is refused by its dataclass, named by its key
    "sensors.acc_window is 0": (
        "", TRACK_FLOW + ["--set", "sensors.acc_window=0"],
        "config key 'sensors.acc_window' must be at least 1, got 0"),
    "sensors.gyro_window is 0": (
        "", TRACK_FLOW + ["--set", "sensors.gyro_window=0"],
        "config key 'sensors.gyro_window' must be at least 1, got 0"),
    "sensors.acc_window is inf": (
        "", TRACK_FLOW + ["--set", "sensors.acc_window=Infinity"],
        "config.sensors.acc_window must be an integer, got inf"),
    "sensors.variance_threshold is NaN": (
        "", TRACK_FLOW + ["--set", "sensors.variance_threshold=NaN"],
        "config key 'sensors.variance_threshold' must be finite, got nan"),
    "landmarks.baro_window_s is 0": (
        "", TRACK_FLOW + ["--set", "landmarks.baro_window_s=0"],
        "config key 'landmarks.baro_window_s' must be above 0, got 0.0"),
    "landmarks.baro_window_s is NaN": (
        "", TRACK_FLOW + ["--set", "landmarks.baro_window_s=NaN"],
        "config key 'landmarks.baro_window_s' must be finite, got nan"),
    "pdr.initial_step_length is NaN": (
        "", TRACK_FLOW + ["--set", "pdr.initial_step_length=NaN"],
        "config key 'pdr.initial_step_length' must be finite, got nan"),
    "pdr.heading_threshold_deg is inf": (
        "", TRACK_FLOW + ["--set", "pdr.heading_threshold_deg=Infinity"],
        "config key 'pdr.heading_threshold_deg' must be finite, got inf"),
    "pdr.pressure_per_floor is 0": (
        "", TRACK_FLOW + ["--set", "pdr.pressure_per_floor=0"],
        "config key 'pdr.pressure_per_floor' must be above 0, got 0.0"),
    "pdr.distance_floor is -1": (
        "", TRACK_FLOW + ["--set", "pdr.distance_floor=-1"],
        "config key 'pdr.distance_floor' must be above 0, got -1.0"),
    "quality.sigma_floor is 0": (
        "", MAP_FLOW + ["--set", "quality.sigma_floor=0"],
        "config key 'quality.sigma_floor' must be above 0, got 0.0"),
    "quality.period_max is -inf": (
        "", MAP_FLOW + ["--set", "quality.period_max=-Infinity"],
        "config key 'quality.period_max' must be finite, got -inf"),
    "pdr.initial_step_length is 0": (
        "", TRACK_FLOW + ["--set", "pdr.initial_step_length=0"],
        "config key 'pdr.initial_step_length' must be above 0, got 0.0"),
    "pdr.initial_step_length is -1": (
        "", TRACK_FLOW + ["--set", "pdr.initial_step_length=-1"],
        "config key 'pdr.initial_step_length' must be above 0, got -1.0"),
    "pdr.min_steps_for_update is -3": (
        "", TRACK_FLOW + ["--set", "pdr.min_steps_for_update=-3"],
        "config key 'pdr.min_steps_for_update' must be at least 0, got -3"),
    "landmarks.still_min_s above still_max_s": (
        "", TRACK_FLOW + ["--set", "landmarks.still_min_s=9"],
        "config key 'landmarks.still_min_s' must be at most still_max_s (8.0), got 9.0"),
    "landmarks.still_max_s below still_min_s in a config file": (
        '{"landmarks": {"still_max_s": 0.5}}', TRACK_FLOW + ["--config", "BAD"],
        "config key 'landmarks.still_min_s' must be at most still_max_s (0.5), got 1.0"),
    "quality.period_max below period_min": (
        "", MAP_FLOW + ["--set", "quality.period_max=0.1"],
        "config key 'quality.period_min' must be at most period_max (0.1), got 0.4"),
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
    "localization.k is 0": (
        "", ["evaluate", "FLOW/map.json", "FLOW/queries.jsonl",
             "--set", "localization.k=0"],
        "config key 'localization.k' must be at least 1, got 0"),
    "localization.tau is NaN by --set": (
        "", LOCALIZE_FLOW + ["--set", "localization.tau=NaN"],
        "config key 'localization.tau' must be finite, got nan"),
    "localization.tau is NaN in a config file": (
        '{"localization": {"tau": NaN}}', LOCALIZE_FLOW + ["--config", "BAD"],
        "config key 'localization.tau' must be finite, got nan"),
    "localization.tau is NaN for simulate": (
        "", ["simulate", "FLOW/scenario.json", "--set", "localization.tau=NaN"],
        "config key 'localization.tau' must be finite, got nan"),
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
        "", TRACK_FLOW + ["--start", "0,0,1.5"], "integer floor, got '0,0,1.5'"),
    "--start is text": (
        "", TRACK_FLOW + ["--start", "a,b,c"], "--start must be x,y,floor"),
    "--start has four parts": (
        "", TRACK_FLOW + ["--start", "0,0,1,2"], "got '0,0,1,2'"),
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
                                  "map RSS overflows a float"])
def test_an_error_quotes_a_long_value_cut_short(flow, tmp_path, capsys, case):
    # a 200 KB --set value or a 401-digit number is quoted by its first
    # 100 characters, not in full
    err = malformed_error(flow, tmp_path, capsys, case)
    assert len(err.encode()) < 1024 and err.endswith("...")


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


# subcommand -> stridemap modules its process must not load
UNLOADED = {
    "simulate": {"pdr", "radiomap", "localization"},
    "track": {"sim", "localization"},
    "build-map": {"sim", "localization"},
    "localize": {"sim", "pdr", "landmarks"},
    "evaluate": {"sim", "pdr", "landmarks"},
    "sweep": {"sim", "pdr", "landmarks"},
}


@pytest.mark.parametrize("command", sorted(UNLOADED))
def test_each_subcommand_loads_only_its_stages(flow, tmp_path, command):
    # a process pays for every module it loads, and each CLI call is one
    # process; the config tree and the package load no stage
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
         "for m in sys.modules if m.startswith('stridemap.')]))",
         *argv, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out.splitlines()[-1]))
    assert {"cli", "config", "sensors"} <= loaded
    assert not loaded & UNLOADED[command], sorted(loaded)


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
