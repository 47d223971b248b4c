"""Mutated trace and trajectory files through the CLI: whatever a record
becomes, `track` and `build-map` exit 0 or 1 without a traceback, and a
failure prints exactly one `error:` line."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from stridemap.cli import main


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
TRAJECTORY = [{"t": t, "x": t, "y": 0.0, "floor": 1.0, "segment": seg}
              for t, seg in ((0.0, 0), (0.4, 0), (0.6, 1), (1.1, 1))]

NUMBERS = st.one_of(st.floats(), st.integers(-10**3, 10**3), st.just(10**400))
ODD = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=3),
    st.lists(NUMBERS, max_size=5),
    st.lists(st.lists(st.one_of(st.text(max_size=2), NUMBERS), max_size=3),
             max_size=3),
    st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2),
)


@st.composite
def mutated(draw, records: list[dict]) -> list:
    """records with one to three of them mutated: a key dropped, a value
    swapped for one of another type or width, or the whole record
    replaced."""
    recs: list = [dict(r) for r in records]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(recs) - 1))
        kind = draw(st.sampled_from(["drop", "swap", "width", "whole"]))
        rec = recs[i]
        if kind == "whole" or not isinstance(rec, dict) or not rec:
            recs[i] = draw(ODD)
            continue
        key = draw(st.sampled_from(sorted(rec)))
        if kind == "drop":
            del rec[key]
        elif kind == "swap":
            rec[key] = draw(ODD)
        else:
            rec[key] = draw(st.lists(st.floats(), max_size=5))
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
