"""Mutated input files through the CLI: whatever a record of a scenario,
trace, trajectory, landmark graph, radio map, query file, fingerprint or
config tree becomes, `simulate`, `track`, `build-map`, `evaluate` and
`localize` exit 0 or 1 without a traceback, and a failure prints exactly
one `error:` line; so does `localize` with any `--set` flag.
A trace from any scenario that `simulate` accepts is accepted by `track`
and `build-map`."""

import contextlib
import copy
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stridemap.cli import default_config, main
from test_sim import corridor_dict


def _trace_records() -> list[dict]:
    recs = []
    for i in range(60):
        t = i * 0.02
        recs.append({"ch": "accel", "t": t, "v": [0.0, 0.0, 9.8 + 3 * math.sin(i)]})
        recs.append({"ch": "gyro", "t": t, "v": [0.0, 0.0, 0.1]})
        if i % 5 == 0:
            recs.append({"ch": "mag", "t": t, "v": [1.0, 0.0, 0.0]})
            recs.append({"ch": "baro", "t": t, "v": 1013.0 - i * 0.01})
            recs.append({"ch": "truth", "t": t, "v": [i * 0.01, 0.0, 1.0]})
    recs.append({"ch": "wifi", "t": 0.5, "v": [["aa", -50], ["bb", -70]]})
    return recs


TRACE = _trace_records()
# The first pose of each segment carries that segment's step periods.
TRAJECTORY = [{"t": t, "x": t, "y": 0.0, "floor": 1.0, "segment": seg}
              | ({"periods": [0.5]} if first else {})
              for t, seg, first in ((0.0, 0, True), (0.4, 0, False),
                                    (0.6, 1, True), (1.1, 1, False))]
GRAPH_NODES = [{"id": "a", "x": 0.0, "y": 0.0, "floor": 1, "rules": ["acc"]},
               {"id": "b", "x": 10.0, "y": 0.0, "floor": 1, "rules": ["gyro+", "acc"]}]
GRAPH_EDGES = [{"from": "a", "to": "b", "heading_deg": 0.0, "distance_m": 10.0}]
MAP_CONFIG = {"belief_threshold": 0.5, "period_min": 0.3, "period_max": 1.2,
              "sigma_floor": 0.05}
MAP_ENTRIES = [{"x": float(x), "y": 0.0, "floor": 1, "belief": 0.9,
                "fp": {"aa": -40 - 5 * x, "bb": -80 + 5 * x}} for x in range(5)]
QUERIES = [{"x": 1.5, "y": 0.0, "floor": 1, "fp": {"aa": -47, "bb": -72}},
           {"x": 3.0, "y": 0.0, "floor": 1, "fp": {"aa": -55, "cc": -90}}]

# A scenario whose environment, walk and noise hold every key, each at its
# default unless given, with one stop and one compass zone; its sections,
# first AP, stop and zone are mutated apart.
SCENARIO = corridor_dict(
    walk={"speed_mps": 1.26, "step_length_m": 0.63,
          "stops": [{"at": "b", "duration_s": 1.0}], "false_walking": [],
          "irregular_legs": [], "irregular_periods": [0.42, 0.58, 0.74, 0.9],
          "irregular_lengths": [0.33, 0.33, 0.93, 0.93], "scan_interval_s": 2.0,
          "warmup_s": 2.0, "cooldown_s": 2.0},
    noise={"seed": 3, "accel_std_mps2": 0.0, "gyro_bias_rad_s": 0.0,
           "gyro_std_rad_s": 0.0, "baro_std_hpa": 0.0, "shadowing_std_db": 0.0,
           "compass_zones": [{"x_min": 0.0, "x_max": 5.0, "y_min": -1.0,
                              "y_max": 1.0, "floor": 1, "bias_deg": 10.0}]})
SCENARIO["environment"]["stairs"] = []
SCENARIO_LISTS = (("environment", "aps"), ("walk", "stops"), ("noise", "compass_zones"))
SCENARIO_RECORDS = ([SCENARIO[section] for section, _ in SCENARIO_LISTS]
                    + [SCENARIO[section][key][0] for section, key in SCENARIO_LISTS])

NUMBERS = st.one_of(st.floats(), st.integers(-10**3, 10**3), st.just(10**400))
# Every finite float: the scenario reader refuses what lies out of a
# number's range, and the tick grid and the 12 h walk budget what would
# plan a walk too fine or too long; NaN, Infinity and 10**400 are refused
# as no numbers at all.
SCENARIO_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-100, 100), st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))


def odd(numbers) -> st.SearchStrategy:
    """Values of every JSON type, numbers drawn from numbers."""
    return st.one_of(
        st.none(), st.booleans(), numbers, st.text(max_size=3),
        st.lists(numbers, max_size=5),
        st.lists(st.lists(st.one_of(st.text(max_size=2), numbers), max_size=3),
                 max_size=3),
        st.dictionaries(st.text(max_size=2), numbers, max_size=2),
    )


@st.composite
def mutated(draw, records: list[dict], numbers=NUMBERS,
            kinds=("drop", "swap", "width", "whole")) -> list:
    """records with one to three of them mutated: a key dropped, a value
    swapped for one of another type or width, a number swapped for
    another, or the whole record replaced."""
    recs: list = [dict(r) for r in records]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(recs) - 1))
        kind = draw(st.sampled_from(kinds))
        rec = recs[i]
        if kind == "whole" or not isinstance(rec, dict) or not rec:
            recs[i] = draw(odd(numbers))
            continue
        if kind == "number":
            numeric = sorted(k for k, v in rec.items()
                             if isinstance(v, (int, float)) and not isinstance(v, bool))
            if numeric:
                rec[draw(st.sampled_from(numeric))] = draw(numbers)
                continue
        key = draw(st.sampled_from(sorted(rec)))
        if kind == "drop":
            del rec[key]
        elif kind == "swap":
            rec[key] = draw(odd(numbers))
        else:
            rec[key] = draw(st.lists(numbers, max_size=5))
    return recs


def _write(path: Path, records: list) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def _assert_clean_exit(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


def _scenario(records: list):
    """SCENARIO_RECORDS put back together: each mutated AP, stop or zone
    goes first in its section's list while that list is the original."""
    sections = records[:len(SCENARIO_LISTS)]
    for (name, key), section, entry in zip(SCENARIO_LISTS, sections,
                                           records[len(SCENARIO_LISTS):]):
        if isinstance(section, dict) and section.get(key) is SCENARIO[name][key]:
            section[key] = [entry] + SCENARIO[name][key][1:]
    return dict(zip((name for name, _ in SCENARIO_LISTS), sections))


@settings(max_examples=60, deadline=None)
@given(mutated(SCENARIO_RECORDS, SCENARIO_NUMBERS))
def test_simulate_on_mutated_scenario(records):
    with tempfile.TemporaryDirectory() as d:
        scenario = _write_json(Path(d) / "scenario.json", _scenario(records))
        _assert_clean_exit(["simulate", scenario, "--out", d])


# Positive numbers that keep a retuned walk short and mostly valid: speeds
# and step lengths of at least 0.25, durations of at most 10 s.
SHORT_WALK_NUMBERS = st.one_of(st.integers(1, 10), st.floats(0.25, 10))


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@settings(max_examples=25, deadline=None)
@given(mutated(SCENARIO_RECORDS, SHORT_WALK_NUMBERS, kinds=("number",)))
def test_simulated_trace_tracks_and_maps(records):
    with tempfile.TemporaryDirectory() as d:
        data = _scenario(records)
        scenario = _write_json(Path(d) / "scenario.json", data)
        assume(_run(["simulate", scenario, "--out", d]) == 0)
        graph = _write_json(Path(d) / "graph.json", data["environment"]["graph"])
        trace = str(Path(d) / "trace.jsonl")
        assert _run(["track", trace, "--graph", graph, "--out", d]) == 0
        # poses in time order, each segment one block, numbered from 0
        poses = [json.loads(line) for line in
                 (Path(d) / "trajectory.jsonl").read_text().splitlines()]
        blocks = [k for k, _ in itertools.groupby(p["segment"] for p in poses)]
        assert ([p["t"] for p in poses] == sorted(p["t"] for p in poses)
                and blocks == list(range(len(blocks))))
        assert _run(["build-map", str(Path(d) / "trajectory.jsonl"), trace,
                     "--out", d]) == 0


def _with(i: int, value) -> list[dict]:
    """TRACE with record i's value replaced."""
    return TRACE[:i] + [{**TRACE[i], "v": value}] + TRACE[i + 1:]


# a value whose square, or a pressure whose sum, passes the float range:
# the first once tracked with no step found, the second ended in a NaN floor
@example(_with(0, [1.3407807929942597e+154, 0.0, 9.8]))
@example(_with(next(i for i, r in enumerate(TRACE) if r["ch"] == "baro"), 1e308))
@settings(max_examples=40, deadline=None)
@given(mutated(TRACE))
def test_track_on_mutated_trace(records):
    with tempfile.TemporaryDirectory() as d:
        trace = _write(Path(d) / "trace.jsonl", records)
        _assert_clean_exit(["track", trace, "--mode", "pdr-gyro", "--out", d])


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.tuples(mutated(TRAJECTORY), st.just(TRACE)),
                 st.tuples(st.just(TRAJECTORY), mutated(TRACE))))
def test_build_map_on_mutated_inputs(inputs):
    trajectory, trace = inputs
    with tempfile.TemporaryDirectory() as d:
        _assert_clean_exit(["build-map", _write(Path(d) / "traj.jsonl", trajectory),
                            _write(Path(d) / "trace.jsonl", trace), "--out", d])


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _map(records: list) -> dict:
    """A radio map whose first record is the config and the rest entries."""
    return {"version": 1, "config": records[0], "entries": records[1:]}


@settings(max_examples=30, deadline=None)
@given(mutated(GRAPH_NODES + GRAPH_EDGES))
def test_track_on_mutated_graph(records):
    k = len(GRAPH_NODES)
    graph = {"nodes": records[:k], "edges": records[k:], "auto_reverse": True}
    with tempfile.TemporaryDirectory() as d:
        _assert_clean_exit(["track", _write(Path(d) / "trace.jsonl", TRACE),
                            "--graph", _write_json(Path(d) / "graph.json", graph),
                            "--out", d])


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.tuples(mutated([MAP_CONFIG] + MAP_ENTRIES), st.just(QUERIES)),
                 st.tuples(st.just([MAP_CONFIG] + MAP_ENTRIES), mutated(QUERIES))))
def test_evaluate_on_mutated_inputs(inputs):
    map_records, queries = inputs
    with tempfile.TemporaryDirectory() as d:
        _assert_clean_exit(["evaluate", _write_json(Path(d) / "map.json", _map(map_records)),
                            _write(Path(d) / "queries.jsonl", queries), "--out", d])


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.tuples(mutated([MAP_CONFIG] + MAP_ENTRIES), st.just(QUERIES[0]["fp"])),
                 st.tuples(st.just([MAP_CONFIG] + MAP_ENTRIES),
                           mutated([QUERIES[0]["fp"]]).map(lambda r: r[0]))))
def test_localize_on_mutated_inputs(inputs):
    map_records, fingerprint = inputs
    with tempfile.TemporaryDirectory() as d:
        _assert_clean_exit(["localize", _write_json(Path(d) / "map.json", _map(map_records)),
                            "--fingerprint", _write_json(Path(d) / "fp.json", fingerprint),
                            "--out", d])


CONFIG = default_config()
# Every dotted key --set can name: the leaves, the sections and the version.
CONFIG_KEYS = sorted([f"{section}.{key}" for section, leaves in CONFIG.items()
                      if isinstance(leaves, dict) for key in leaves] + list(CONFIG))


@st.composite
def mutated_config(draw) -> dict:
    """The default config tree with one to three faults: a key of the tree
    or of a section dropped or given a value of any type (a section as a
    leaf, a leaf as a section, a string or non-finite number as a leaf), or
    an unknown key added."""
    tree = copy.deepcopy(CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from([tree] + [v for v in tree.values() if isinstance(v, dict)]))
        kind = draw(st.sampled_from(("drop", "swap", "section", "unknown")))
        key = draw(st.text(max_size=3) if kind == "unknown" or not node
                   else st.sampled_from(sorted(node)))
        if kind == "drop":
            node.pop(key, None)
        elif kind == "section":
            node[key] = draw(st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=2),
                                             odd(NUMBERS), max_size=2))
        else:
            node[key] = draw(odd(NUMBERS))
    return tree


def _localize_with(d: str, *flags: str) -> list[str]:
    return ["localize", _write_json(Path(d) / "given_map.json", _map([MAP_CONFIG] + MAP_ENTRIES)),
            "--rss", "aa=-50", *flags, "--out", d]


@settings(max_examples=60, deadline=None)
@given(mutated_config())
def test_localize_on_mutated_config(tree):
    with tempfile.TemporaryDirectory() as d:
        _assert_clean_exit(_localize_with(d, "--config", _write_json(Path(d) / "cfg.json", tree)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONFIG_KEYS) | st.text(max_size=5),
       odd(NUMBERS).map(json.dumps) | st.text(max_size=5))
def test_localize_on_mutated_set_flag(key, value):
    with tempfile.TemporaryDirectory() as d:
        # one argv word, so a key that starts with "-" reaches the config
        # reader instead of being taken by argparse for an option
        _assert_clean_exit(_localize_with(d, f"--set={key}={value}"))


def test_unmutated_inputs_are_accepted():
    """The fixtures above pass every check as they stand, so a mutation
    fails on what it changed rather than on a stale fixture."""
    graph = {"nodes": GRAPH_NODES, "edges": GRAPH_EDGES, "auto_reverse": True}
    every_default = ["--set=version=1"] + [
        f"--set={section}.{key}={json.dumps(value)}" for section, leaves in CONFIG.items()
        if isinstance(leaves, dict) for key, value in leaves.items()]
    with tempfile.TemporaryDirectory() as d:
        trace = _write(Path(d) / "trace.jsonl", TRACE)
        map_path = _write_json(Path(d) / "given_map.json", _map([MAP_CONFIG] + MAP_ENTRIES))
        for argv in (
                ["track", trace, "--mode", "pdr-gyro"],
                ["track", trace, "--graph", _write_json(Path(d) / "graph.json", graph)],
                ["build-map", _write(Path(d) / "traj.jsonl", TRAJECTORY), trace],
                ["evaluate", map_path, _write(Path(d) / "queries.jsonl", QUERIES)],
                ["localize", map_path, "--fingerprint",
                 _write_json(Path(d) / "fp.json", QUERIES[0]["fp"])],
                _localize_with(d, "--config", _write_json(Path(d) / "cfg.json", CONFIG),
                               *every_default)):
            assert _run(argv + ["--out", d]) == 0, argv
