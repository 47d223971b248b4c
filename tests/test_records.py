"""records.fits, the one check of a whole record, against the per-field
readers: for the dataclasses the file readers read, an object's number
that the check passes is one its field's reader returns as it is, so the
readers that take such an object's numbers unread (a pose, a map entry, a
query) read what reading it field by field reads."""

import math
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stridemap import records
from stridemap.landmarks import _RULE_NAMES, Landmark
from stridemap.radiomap import RadioMapEntry
from stridemap.records import array, choice, field_reader, fingerprint, fits, record, text
from stridemap.sim import _UNIT_KEYS, Ap, CompassZone, Environment, NoiseModel, WalkScript
from stridemap.trajectory import Pose

# each class with the readers its file reader gives its other fields, and
# its renamed keys; WalkScript's bounds include above, NoiseModel renames
WALK_LISTS = ("waypoints", "stops", "false_walking", "irregular_legs", "irregular_periods",
              "irregular_lengths")
READERS = {RadioMapEntry: ({"fp": fingerprint}, {}),
           Landmark: ({"rules": array(choice(_RULE_NAMES))}, {}),
           Ap: ({}, {}), CompassZone: ({}, {}), Pose: ({}, {}),
           WalkScript: ({name: array(text) for name in WALK_LISTS}, {}),
           NoiseModel: ({"compass_zones": array(record(CompassZone))}, _UNIT_KEYS)}
# a value each field that is not a number takes
GOOD = {"fp": {"ap": -50}, "rules": ["acc"], "id": "a", "mac": "m", "compass_zones": [],
        **{name: ["a"] for name in WALK_LISTS}}
# numbers no reader takes as they are: ints, bools, non-finite floats,
# ints past the float range and at its edge, -0.0 and the float extremes
ODD = [0, 3, -7, True, False, None, "1.0", [1.0], -0.0, 2.0, 1.5, math.nan, math.inf,
       -math.inf, 10**400, -(10**400), 2**1023, 2**1024, sys.float_info.max,
       -sys.float_info.max, 5e-324]


def near(bound) -> list:
    """Values on a bound and just past it either way, as floats and ints."""
    return [bound, float(bound), math.nextafter(bound, math.inf),
            math.nextafter(bound, -math.inf), int(bound), int(bound) + 1, int(bound) - 1]


def taken(f) -> st.SearchStrategy:
    """Values of field f that its reader takes as they are."""
    above = "above" in f.metadata
    lo = f.metadata.get("above", f.metadata.get("at_least", -1e6))
    hi = f.metadata.get("at_most", 1e6)
    if f.type == "int":
        return st.integers(math.floor(lo) + 1 if above else math.ceil(lo), math.floor(hi))
    return st.floats(lo, hi, exclude_min=above)


def odd(f) -> st.SearchStrategy:
    """Numbers, or not, on and around field f's bounds and beyond."""
    edges = [v for key, b in f.metadata.items() if key != "one_of" for v in near(b)]
    return st.one_of(st.sampled_from(ODD), st.sampled_from(edges or ODD), st.floats(),
                     st.integers(-(10**7), 10**7))


@st.composite
def objects(draw, cls) -> dict:
    """A JSON object for cls, its keys in any order: every field a value
    its reader takes as it is, then a few of them replaced by odd values
    (a number field) or by "" (any other), and now and then a key dropped
    or added."""
    keys = READERS[cls][1]
    by_name = {f.name: f for f in fields(cls)}
    names = draw(st.permutations(list(by_name)))
    obj = {name: GOOD[name] if name in GOOD else draw(taken(by_name[name])) for name in names}
    for name in draw(st.lists(st.sampled_from(names), max_size=3)):
        obj[name] = "" if name in GOOD else draw(odd(by_name[name]))
    if draw(st.integers(0, 9)) == 0:
        obj.pop(draw(st.sampled_from(names)))
    if draw(st.integers(0, 9)) == 0:
        obj["extra"] = 1
    return {keys.get(name, name): value for name, value in obj.items()}


def outcome(read, value) -> str:
    """The value read, by repr so that 1 and 1.0 or -0.0 and 0.0 differ,
    or the error text."""
    try:
        return repr(read(value, "r", ValueError))
    except ValueError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("cls", list(READERS), ids=lambda cls: cls.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_one_check_reads_what_the_field_readers_read(cls, data):
    readers, keys = READERS[cls]
    obj = data.draw(objects(cls))
    by_key = {keys.get(f.name, f.name): f for f in fields(cls)}
    if obj.keys() == by_key.keys() and fits(cls, skip=readers)(
            {by_key[key].name: value for key, value in obj.items()}):
        checked = {name for name, *_ in records._numbers(cls, readers)}
        for key, f in by_key.items():
            if f.name in checked:
                assert outcome(field_reader(f), obj[key]) == repr(obj[key]), key


def test_the_check_takes_a_record_in_range_and_nothing_else():
    check = fits(Pose)
    assert check({"t": -1e10, "x": 1e6, "y": -1e6, "floor": 0.0})
    for key, value in [("t", math.nextafter(1e10, math.inf)), ("x", 1e6 + 0.5), ("y", 1),
                       ("floor", math.nan), ("floor", math.inf), ("t", True)]:
        assert not check({"t": 0.0, "x": 0.0, "y": 0.0, "floor": 0.0, key: value}), key
    # a float field without bounds is still finite; an int within a float
    zone = fits(CompassZone)
    ok = {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0, "floor": 10**300,
          "bias_deg": -1e308}
    assert zone(ok)
    assert not zone({**ok, "bias_deg": math.inf})
    assert not zone({**ok, "floor": 2**1024})
    # above 0 takes the least float above 0, not 0 itself
    env = fits(Environment)
    assert env({"floor_height_m": 5e-324}) and not env({"floor_height_m": 0.0})
