"""The strict reader of every input file and flag, and the file writers.

A reader is a function (value, where, error) that returns the value read,
or raises error naming where: "<where>.<key> must be ..., got <value>"
(the value quoted by shown), "<where> has unknown fields [...]" or
"<where> is missing fields [...]". Every number is finite and never a
bool. A number's range is declared once, as number's bounds (at_least,
above, at_most) in a reader map or in a dataclass field's metadata, which
record reads through field_reader. fits derives from it one check per
dataclass, which the readers of many records try first: a pose, and,
with clean_record's check of a fingerprint, a map entry or a query that
passes it is taken as parsed; only one that fails it is read field by
field, to convert an int in a float field or to word the fault.
This module needs nothing but the standard library.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import MISSING, Field, fields
from functools import partial
from pathlib import Path
from typing import Iterator

# Every RSS reading the toolkit loads is an integer in this range, dBm. Far
# below the weakest signal a radio reports, the floor keeps fingerprint
# vectors small integers, so the kNN distances are exact in float64.
RSS_MIN_DBM = -200
RSS_MAX_DBM = 0
RSS_RULE = f"must be a non-positive integer of at least {RSS_MIN_DBM} dBm"
# The range of every timestamp (seconds; Unix-epoch times fit) and of every
# position coordinate (m) and trace sample value a reader takes, so no
# square or sum of them leaves the floats; as number's bounds, TIMESTAMP and
# POSITION. A floor (a pose's, a map entry's, a query's) takes a trace
# value's range, so every truth floor a trace holds passes: FLOOR. A step
# period is the gap between two timestamps, so above 0 and at most twice
# T_MAX_S: PERIOD.
T_MAX_S = 1e10
VALUE_MAX = 1e6
TIMESTAMP = {"at_least": -T_MAX_S, "at_most": T_MAX_S}
PERIOD = {"above": 0, "at_most": 2 * T_MAX_S}
POSITION = {"at_least": -VALUE_MAX, "at_most": VALUE_MAX}
FLOOR = {"at_least": -VALUE_MAX, "at_most": VALUE_MAX}
_FLOAT_MAX = sys.float_info.max
# The whitespace JSON allows around a value.
_JSON_SPACE = " \t\r\n"
# The most characters of an offending value an error message quotes.
_SHOWN_CHARS = 100


def shown(value) -> str:
    """repr(value) as an error message quotes it: cut to its first
    _SHOWN_CHARS characters and "..." when longer."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def number(value, where: str, error: type[ValueError] = ValueError,
           integral: bool = False, *, at_least=None, above=None,
           at_most=None) -> float | int:
    """A JSON number as a float, or as an int when integral: never a bool,
    NaN or an infinity, with integral never fractional (1.5 is refused,
    not truncated), and at least at_least, above above and at most at_most
    where each is given; otherwise error naming where."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value) and not (integral and value % 1):
                read = int(value) if integral else float(value)
                if at_least is not None and not read >= at_least:
                    rule = f"at least {at_least:g}"
                elif above is not None and not read > above:
                    rule = f"above {above:g}"
                elif at_most is not None and not read <= at_most:
                    rule = f"at most {at_most:g}"
                else:
                    return read
                raise error(f"{where} must be {rule}, got {shown(read)}")
        except OverflowError:  # an integer beyond the float range
            pass
    kind = "an integer" if integral else "a finite number"
    raise error(f"{where} must be {kind}, got {shown(value)}")


def rss(value) -> int | None:
    """value as an RSS reading in dBm, or None unless it is an integer in
    [RSS_MIN_DBM, RSS_MAX_DBM]: never a bool or a fractional number, while
    an integral float such as -50.0 converts. Every trace, map, query and
    fingerprint reader checks its readings with it and names a failure
    with RSS_RULE."""
    if type(value) is not int:
        try:
            value = number(value, "RSS", integral=True)
        except ValueError:
            return None
    return value if RSS_MIN_DBM <= value <= RSS_MAX_DBM else None


def read_json(path: str | Path, error: type[Exception], prefix: str = ""):
    """The JSON value a file holds; a file that is not UTF-8 or not JSON
    raises error, its message starting with prefix."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError:
            raise error(f"{prefix}not valid UTF-8") from None
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise error(f"{prefix}invalid JSON: {exc}") from exc


def read_jsonl(path: str | Path, error: type[Exception], prefix: str = "line ",
               skip: tuple[str, ...] = ()) -> Iterator[tuple[int, object]]:
    """Line number and parsed record of each non-blank line of a JSON-lines
    file, less the lines that start with a string in skip, which are never
    parsed; a line that is not UTF-8 or not JSON, skipped or not, raises
    error located as f"{prefix}{lineno}". Lines end at LF, CRLF or a lone
    CR. A line is blank when it holds only JSON's whitespace (space, tab,
    CR, LF), which is all that is stripped: any other character, such as a
    form feed or a no-break space, is the line's and json refuses it."""
    # undecodable bytes read as lone surrogates, which no UTF-8 text holds
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError:
                    raise error(f"{prefix}{lineno}: not valid UTF-8") from None
            if line.startswith(skip):
                continue
            line = line.strip(_JSON_SPACE)
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                raise error(f"{prefix}{lineno}: invalid JSON: {exc}") from exc
            yield lineno, rec


def text(value, where: str, error: type[ValueError]) -> str:
    if isinstance(value, str) and value:
        return value
    raise error(f"{where} must be a non-empty string, got {shown(value)}")


def flag(value, where: str, error: type[ValueError]) -> bool:
    if isinstance(value, bool):
        return value
    raise error(f"{where} must be true or false, got {shown(value)}")


# The reader of a scalar, by its declared type.
SCALARS = {"float": number, "int": partial(number, integral=True), "str": text}


def choice(options: dict):
    """The reader of a name among the keys of options: the option it names."""
    def read(value, where: str, error: type[ValueError]):
        if isinstance(value, str) and value in options:
            return options[value]
        raise error(f"{where} must be one of {sorted(options)}, got {shown(value)}")
    return read


def field_reader(f: Field):
    """The reader of a scalar dataclass field: the SCALARS reader of its
    declared type, within the bounds its metadata holds, or, for a
    metadata of one_of, choice of those names."""
    if "one_of" in f.metadata:
        return choice({name: name for name in f.metadata["one_of"]})
    return partial(SCALARS[f.type], **f.metadata) if f.metadata else SCALARS[f.type]


def _numbers(cls, skip) -> list[tuple[str, type, float, float]]:
    """(name, type, lo, hi) of each float and int field of cls that number
    reads and skip does not name: number returns a value of that exact type
    in [lo, hi] as it is (no bound: the largest float; above: the next)."""
    return [(f.name, float if f.type == "float" else int,
             max(f.metadata.get("at_least", -_FLOAT_MAX),
                 math.nextafter(f.metadata.get("above", -math.inf), math.inf)),
             f.metadata.get("at_most", _FLOAT_MAX)) for f in fields(cls)
            if f.type in ("float", "int") and "one_of" not in f.metadata and f.name not in skip]


def fits(cls, skip=()):
    """The one check of a record of dataclass cls: whether a JSON object that
    holds every key of _numbers holds there values number returns as they are."""
    checks = _numbers(cls, skip)

    def check(obj: dict) -> bool:
        for key, kind, lo, hi in checks:
            value = obj[key]
            if type(value) is not kind or not lo <= value <= hi:
                return False
        return True
    return check


def version(expected: int):
    """The reader of a file format version: an integer, as number reads
    it, equal to expected."""
    def read(value, where: str, error: type[ValueError]) -> int:
        if number(value, where, error, integral=True) != expected:
            raise error(f"{where} must be {expected}, got {shown(value)}")
        return expected
    return read


def array(read, make=tuple):
    """The reader of a JSON array: each item read by read, the items passed
    to make."""
    def read_array(value, where: str, error: type[ValueError]):
        if not isinstance(value, list):
            raise error(f"{where} must be an array")
        return make([read(item, f"{where}[{i}]", error) for i, item in enumerate(value)])
    return read_array


def members(readers: dict, required=()):
    """The reader of a JSON object whose keys are among those of readers
    (key -> reader) and include every key of required: the dict of each
    key's value as its reader reads it, in file order."""
    allowed, required = readers.keys(), frozenset(required)

    def read(obj, where: str, error: type[ValueError]) -> dict:
        if not isinstance(obj, dict):
            raise error(f"{where} must be an object")
        if not (obj.keys() <= allowed and required <= obj.keys()):
            unknown = obj.keys() - allowed
            if unknown:
                raise error(f"{where} has unknown fields {sorted(unknown)}")
            raise error(f"{where} is missing fields {sorted(required - obj.keys())}")
        return {key: readers[key](value, f"{where}.{key}", error)
                for key, value in obj.items()}
    return read


def record(cls, readers: dict | None = None, keys: dict | None = None):
    """The reader of dataclass cls from a JSON object with a key per field
    (keys renames a field's key), required when the field has no default.
    A field is read by readers[its name], else by its field_reader."""
    readers, keys = readers or {}, keys or {}
    by_key = {keys.get(f.name, f.name): f for f in fields(cls)}
    read = members({key: readers.get(f.name) or field_reader(f) for key, f in by_key.items()},
                   [key for key, f in by_key.items()
                    if f.default is MISSING and f.default_factory is MISSING])

    def read_record(obj, where: str, error: type[ValueError]):
        return cls(**{by_key[key].name: value for key, value in read(obj, where, error).items()})
    return read_record


def clean_readings(readings: dict) -> bool:
    """Whether a reader takes a dict of readings as parsed: no empty MAC,
    and every reading an int in [RSS_MIN_DBM, RSS_MAX_DBM]."""
    return ("" not in readings and {int}.issuperset(map(type, readings.values()))
            and (not readings or RSS_MIN_DBM <= min(readings.values())
                 and max(readings.values()) <= RSS_MAX_DBM))


def clean_record(cls):
    """The one check of a parsed JSON object as a record of dataclass cls
    with a fingerprint field fp: a dict of exactly cls's keys, passing fits
    but for fp, with fp a dict of clean_readings. Its readers take an
    object that passes as parsed, its values as they are."""
    keys, check = {f.name for f in fields(cls)}, fits(cls, skip=("fp",))

    def clean(obj) -> bool:
        return (type(obj) is dict and obj.keys() == keys and check(obj)
                and type(obj["fp"]) is dict and clean_readings(obj["fp"]))
    return clean


def fingerprint(raw, where: str, error: type[ValueError]) -> dict[str, int]:
    """A {mac: rss} object as the readings of one scan: each MAC non-empty,
    each RSS as rss reads it."""
    if not isinstance(raw, dict):
        raise error(f"{where}: fingerprint must be an object of mac: rss")
    if "" in raw:
        raise error(f"{where}: fingerprint has an empty MAC")
    readings = {}
    for mac, value in raw.items():
        reading = rss(value)
        if reading is None:
            raise error(f"{where}: RSS of {shown(mac)} {RSS_RULE}, got {shown(value)}")
        readings[mac] = reading
    return readings


def writing(path):
    """A context giving an open file to write: path itself if it is one,
    else the file at path, opened for writing."""
    if hasattr(path, "write"):
        return contextlib.nullcontext(path)
    return open(path, "w")
