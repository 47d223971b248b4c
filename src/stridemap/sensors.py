"""Sensor trace ingestion and low-level motion signal processing.

Traces are JSON-lines files with one record per line:

    {"ch": "accel", "t": 1.234, "v": [ax, ay, az]}
    {"ch": "gyro",  "t": 1.234, "v": [wx, wy, wz]}
    {"ch": "mag",   "t": 1.234, "v": [mx, my, mz]}
    {"ch": "baro",  "t": 1.234, "v": 1013.25}
    {"ch": "wifi",  "t": 1.234, "v": [["aa:bb:cc:dd:ee:ff", -67], ...]}
    {"ch": "truth", "t": 1.234, "v": [x, y, floor]}

CHANNELS holds the values per sample (one is a bare number) and the
channel order at equal timestamps. On load, t (seconds) and every value
must be finite JSON numbers (never a bool or a string), samples must have
their channel's width, t must not
decrease within a channel, and a WiFi reading must be a [mac, rss] pair
(unique non-empty string MAC, RSS as read by rss); a violation raises
TraceError naming the first bad line.

A file whose every line has the layout dump_trace writes takes a fast
path, with any JSON number in a number's place (integers, -0 and 1E5
included), CRLF line ends, and with or without a final newline. It reads
the bytes a block of about _BLOCK_BYTES at a time, read on to a newline,
twice: a first pass counts each numeric channel's lines by the byte that
names a line's channel, and the second parses each channel's numbers
straight into t and v arrays of that final size, so memory holds the
arrays and one block's work. Per block, numpy finds the lines and
checks each line's first _PREFIX_LEN bytes, and the whole head
'{"ch": "<ch>", "t": ' of each line of a channel it reads, as 8-byte
words gathered at the line starts; with each run of number
characters collapsed to one 0, each numeric line's rest must be exactly its
channel's skeleton, so each number stands alone in its own slot; one
json.loads parses all the block's numbers, so the number grammar and the
values are json's own; and each WiFi line gets its own json.loads. Any
other file (other spacing or key order, blank lines, a lone CR, a token
json refuses) is read a line at a time with json.loads, with the same
arrays, and that path names every error. A trace must be UTF-8: a line that
is not raises TraceError "line N: not valid UTF-8", in any channel.
load_trace can read a subset of the channels and skip the lines of the
others unparsed: the CLI's build-map reads only wifi, so a malformed line
of another channel does not fail it, and skips the count. Both paths
check a skipped line by its _PREFIXES prefix alone. A WiFi scan of
distinct non-empty string MACs and in-range int readings is read by one
dict() and whole-scan tests; any other is read pair by pair, which words
the error.

dump_trace writes those lines as a stream: the rows of every channel,
each channel's t non-decreasing, are merged by (t, channel order) a
window of at most _CHUNK_ROWS rows per channel at a time, then formatted a
chunk of _CHUNK_ROWS lines at a time, the chunk's numbers gathered from
the channel arrays, with one % template, each distinct number of the
chunk formatted once. Memory holds the trace, one window of its merge
order and one chunk.

The step and motion parameters are SensorConfig, which lives with the
other stage configs in stridemap.config.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import json
import math
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain, groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import SensorConfig

# Width of the centered moving average applied before peak picking, samples.
SMOOTHING_WIDTH = 5
# Two accepted step peaks closer than this are jitter, seconds.
MIN_STEP_GAP_S = 0.3
# The trace format: values per sample of each channel, in write order at
# equal timestamps; a WiFi sample (None) is a scan of any length.
CHANNELS = {"accel": 3, "gyro": 3, "mag": 3, "baro": 1, "wifi": None, "truth": 3}
# Every line dump_trace writes starts '{"ch": "<ch>", '. Its first
# _PREFIX_LEN characters reach past the closing quote of the longest name,
# so they name the channel, and the json path skips by them, unparsed, the
# lines of a channel not asked for.
_PREFIX_LEN = len('{"ch": "') + max(map(len, CHANNELS)) + 1
_PREFIXES = {f'{{"ch": "{ch}", '[:_PREFIX_LEN]: ch for ch in CHANNELS}
# Trace lines dump_trace formats with one template and writes at once.
_CHUNK_ROWS = 4096
# Bytes the fast path reads at once; each block is cut after a newline,
# so memory holds one block's lines, not the file's.
_BLOCK_BYTES = 1 << 18
# Every RSS reading the toolkit loads is an integer in this range, dBm. Far
# below the weakest signal a radio reports, the floor keeps fingerprint
# vectors small integers, so the kNN distances are exact in float64.
RSS_MIN_DBM = -200
RSS_MAX_DBM = 0
RSS_RULE = f"must be a non-positive integer of at least {RSS_MIN_DBM} dBm"
# The most characters of an offending value an error message quotes.
_SHOWN_CHARS = 100


class TraceError(ValueError):
    """Raised when a trace or trajectory file violates its format."""


class MotionState(enum.Enum):
    WALKING = "walking"
    STILL = "still"


@dataclass(frozen=True)
class Channel:
    """Time series of samples: t has shape (n,), v shape (n, width), or
    (n,) for a channel of one value per sample."""

    t: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class WifiScan:
    """One WiFi scan: MAC -> RSS dBm (integers in [RSS_MIN_DBM, RSS_MAX_DBM])."""

    t: float
    readings: dict[str, int]


@dataclass(frozen=True)
class TruthChannel:
    """Embedded ground truth: planar position and floor per timestamp."""

    t: np.ndarray
    xy: np.ndarray
    floor: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def _sample_shape(ch: str) -> tuple[int, ...] | None:
    """Shape of one sample's values; None for WiFi, whose samples are scans."""
    width = CHANNELS[ch]
    return None if width is None else () if width == 1 else (width,)


def _empty(ch: str) -> Channel:
    return Channel(np.empty(0), np.empty((0, *_sample_shape(ch))))


def _head(ch: str) -> str:
    """The start of every line dump_trace writes for channel ch."""
    return '{"ch": "' + ch + '", "t": '


def _line_format(ch: str) -> str:
    """The line of one sample of numeric channel ch as dump_trace writes
    it, with %r for each number."""
    width = CHANNELS[ch]
    v = "%r" if width == 1 else "[" + ", ".join(["%r"] * width) + "]"
    return _head(ch) + '%r, "v": ' + v + "}"


# The fast path's view of dump_trace's lines, by channel index in CHANNELS.
# A line is a head '{"ch": "<ch>", "t": ' and a rest. The channels'
# initials differ, so the byte at offset _KIND_AT names a line's channel
# (_KIND). A head is checked as little-endian 8-byte words read at any byte
# offset (_words): _WORD0 and _WORD6[i] at offsets 0 and 6 are its first
# _PREFIX_LEN bytes, channel i's prefix in _PREFIXES, and _WORD_END ends
# every head, at offset _HEAD_LEN[i] - 8.
# A numeric line's rest, each run of number characters (_NUMBER) collapsed to
# one 0 (_MARK), is its skeleton: its line format with 0 for each number.
# _TO_LIST turns rests into the items of a JSON list of numbers, _NUMBERS per
# line. WiFi has no skeleton: json.loads reads its lines.
_HEAD_LEN = np.array([len(_head(ch)) for ch in CHANNELS])
_WORD0 = int.from_bytes(_head("")[:8].encode(), "little")
_WORD_END = int.from_bytes(_head("")[-8:].encode(), "little")
_WORD6 = np.array([int.from_bytes(_head(ch)[6:_PREFIX_LEN].encode(), "little")
                   for ch in CHANNELS], np.uint64)
_SKELETONS = [_line_format(ch)[len(_head(ch)):].replace("%r", "0").encode() + b"\n"
              if CHANNELS[ch] else None for ch in CHANNELS]
_NUMBERS = np.array([1 + (CHANNELS[ch] or 0) for ch in CHANNELS])
_KIND_AT = len('{"ch": "')
_KIND = np.full(256, -1)
_KIND[[ord(ch[0]) for ch in CHANNELS]] = range(len(CHANNELS))
_WIFI = list(CHANNELS).index("wifi")
_NUMBER = b"0123456789.eE+-"
_MARK = bytes.maketrans(_NUMBER, b"0" * len(_NUMBER))
_TO_LIST = bytes(c if c in _NUMBER + b"," else ord(",") if c == ord("\n") else ord(" ")
                 for c in range(256))


@dataclass
class SensorTrace:
    """All channels of one recording session."""

    accel: Channel = field(default_factory=lambda: _empty("accel"))
    gyro: Channel = field(default_factory=lambda: _empty("gyro"))
    mag: Channel = field(default_factory=lambda: _empty("mag"))
    baro: Channel = field(default_factory=lambda: _empty("baro"))
    wifi: list[WifiScan] = field(default_factory=list)
    truth: TruthChannel | None = None


@dataclass(frozen=True)
class StepEvent:
    """One detected step.

    periodicity is the gap to the previous accepted step peak in seconds,
    None for the first step of the trace.
    """

    t: float
    periodicity: float | None
    accel_variance: float


def _magnitudes(channel: Channel) -> np.ndarray:
    """The norm of each sample, summed x*x + y*y + z*z in one array: the
    same bits as np.sqrt(np.sum(v * v, axis=1)) without its (n, 3) squares."""
    x, y, z = channel.v.T
    mags = np.square(x, dtype=float)
    mags += y * y
    mags += z * z
    return np.sqrt(mags, out=mags)


def number(value, what: str, error: type[ValueError] = ValueError,
           integral: bool = False, finite: bool = True) -> float | int:
    """A JSON number as a float, or as an int when integral: never a bool,
    finite unless finite is False, and with integral never fractional (1.5
    is refused, not truncated); otherwise error naming what."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if (math.isfinite(value) or not finite) and not (integral and value % 1):
                return int(value) if integral else float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    kind = "an integer" if integral else "a finite number" if finite else "a number"
    raise error(f"{what} must be {kind}, got {shown(value)}")


def shown(value) -> str:
    """repr(value) as an error message quotes it: cut to its first
    _SHOWN_CHARS characters and "..." when longer."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


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
    error located as f"{prefix}{lineno}"."""
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
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                raise error(f"{prefix}{lineno}: invalid JSON: {exc}") from exc
            yield lineno, rec


# ---------------------------------------------------------------------------
# the strict reader of JSON objects
#
# The scenario, graph, map, fingerprint and config readers are built from
# these. A reader is a function (value, where, error) that returns the value
# read, or raises error naming where: "<where>.<key> must be ...",
# "<where> has unknown fields [...]" or "<where> is missing fields [...]".


def text(value, where: str, error: type[ValueError]) -> str:
    if isinstance(value, str) and value:
        return value
    raise error(f"{where} must be a non-empty string, got {shown(value)}")


def flag(value, where: str, error: type[ValueError]) -> bool:
    if isinstance(value, bool):
        return value
    raise error(f"{where} must be true or false, got {shown(value)}")


# The reader of a scalar, by its declared type.
SCALARS = {"float": number,
           "int": lambda value, where, error: number(value, where, error, integral=True),
           "str": text}


def choice(options: dict):
    """The reader of a name among the keys of options: the option it names."""
    def read(value, where: str, error: type[ValueError]):
        if isinstance(value, str) and value in options:
            return options[value]
        raise error(f"{where} must be one of {sorted(options)}, got {shown(value)}")
    return read


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
    A field is read by readers[its name], else by the SCALARS reader of its
    declared type."""
    readers, keys = readers or {}, keys or {}
    by_key = {keys.get(f.name, f.name): f for f in fields(cls)}
    read = members({key: readers.get(f.name) or SCALARS[f.type] for key, f in by_key.items()},
                   [key for key, f in by_key.items()
                    if f.default is MISSING and f.default_factory is MISSING])
    return lambda obj, where, error: cls(**{by_key[key].name: value for key, value
                                            in read(obj, where, error).items()})


def fingerprint(raw, where: str, error: type[ValueError]) -> dict[str, int]:
    """A {mac: rss} object as the readings of one scan: each MAC non-empty,
    each RSS as rss reads it. A fingerprint of in-range int readings, as
    files hold them, is returned as parsed."""
    if type(raw) is dict and "" not in raw and all(
            type(v) is int and RSS_MIN_DBM <= v <= RSS_MAX_DBM for v in raw.values()):
        return raw
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


def _scan_readings(v) -> dict[str, int]:
    """The readings of one WiFi scan; TraceError, without a line number,
    unless v is a list of [mac, rss] pairs. A scan of distinct non-empty
    string MACs and in-range int readings, as files hold them, is read by
    one dict(v) and whole-scan tests; any other goes pair by pair, which
    words the error."""
    if type(v) is list:
        try:
            readings = dict(v)
        except (TypeError, ValueError):  # a pair that is no pair, or an unhashable MAC
            readings = None
        if (readings is not None and len(readings) == len(v) and "" not in readings
                and {str}.issuperset(map(type, readings))
                and {int}.issuperset(map(type, readings.values()))
                and (not readings or RSS_MIN_DBM <= min(readings.values())
                     and max(readings.values()) <= RSS_MAX_DBM)):
            return readings
    if not isinstance(v, list):
        raise TraceError(f"WiFi scan must be a list of [mac, rss] pairs, got {shown(v)}")
    readings: dict[str, int] = {}
    for pair in v:
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and pair[0]):
            raise TraceError("WiFi reading must be a [mac, rss] pair with a "
                             f"non-empty string MAC, got {shown(pair)}")
        mac, value = pair
        if mac in readings:
            raise TraceError(f"duplicate MAC {shown(mac)} in scan")
        reading = rss(value)
        if reading is None:
            raise TraceError(f"RSS of {shown(mac)} {RSS_RULE}, got {shown(value)}")
        readings[mac] = reading
    return readings


def _checked(ch: str, t, v) -> Channel | None:
    """The samples of channel ch as arrays, or None unless every t and
    value is a finite number (never a bool), every sample has the channel's
    width and t is non-decreasing. WiFi values are scans and pass through."""
    shape = _sample_shape(ch)
    if not len(t):
        return Channel(np.empty(0), v if shape is None else _empty(ch).v)
    try:
        ta = np.asarray(t, float)
        va = v if shape is None else np.asarray(v, float)
    except (TypeError, ValueError, OverflowError):
        return None
    ok = (ta.shape == (len(t),) and np.isfinite(ta).all()
          and not (ta[1:] < ta[:-1]).any())
    if ok and shape is not None:
        ok = va.shape == (len(t), *shape) and np.isfinite(va).all()
    if ok and isinstance(t, list):  # parsed JSON: numpy reads true or "1.0" as a number
        ok = _numbers_only(t) and (shape is None or _numbers_only(
            v if shape == () else chain.from_iterable(v)))
    return Channel(ta, va) if ok else None


def _numbers_only(values) -> bool:
    """Whether parsed JSON values are all numbers: no bool, and no string,
    which numpy would also convert."""
    return set(map(type, values)) <= {int, float}


def _channel(path: str | Path, ch: str, t, v, channels) -> Channel:
    """_checked over the whole channel; when that fails, the error names
    the first bad record, found by bisecting for the shortest failing
    prefix (a prefix that fails keeps failing as it grows) and rereading
    the lines a load of channels reads."""
    chan = _checked(ch, t, v)
    if chan is not None:
        return chan
    k = bisect_left(range(len(t)), True,
                    key=lambda k: _checked(ch, t[:k + 1], v[:k + 1]) is None)
    lines = (n for n, rec in _trace_records(path, channels) if rec["ch"] == ch)
    lineno = next(islice(lines, k, None), "?")  # "?" if the file changed
    if _checked(ch, t[k:k + 1], v[k:k + 1]) is not None:
        raise TraceError(f"line {lineno}: timestamps regress in channel {ch!r}")
    width = CHANNELS[ch]
    values = "" if width is None else f" and {width} finite value{'s' * (width > 1)}"
    raise TraceError(f"line {lineno}: {ch} sample must be a finite t{values}")


def _trace_records(path: str | Path, channels) -> Iterator[tuple[int, object]]:
    """read_jsonl over a trace, less the lines whose prefix names a channel
    not in channels: the lines the fast path drops too."""
    skip = tuple(p for p, ch in _PREFIXES.items() if ch not in channels)
    return read_jsonl(path, TraceError, skip=skip)


def _json_columns(path: str | Path, channels) -> dict[str, tuple[list, list]]:
    """The t and v lists of each channel, one json.loads per line; a record
    of a channel not in channels is dropped once parsed, and the first
    faulty line raises TraceError naming it."""
    cols: dict[str, tuple[list, list]] = {ch: ([], []) for ch in CHANNELS}
    for lineno, rec in _trace_records(path, channels):
        try:
            ch, t, v = rec["ch"], rec["t"], rec["v"]
        except (KeyError, TypeError) as exc:
            raise TraceError(f"line {lineno}: missing ch/t/v") from exc
        try:
            ts, vs = cols[ch]
        except (KeyError, TypeError):
            raise TraceError(f"line {lineno}: unknown channel {shown(ch)}") from None
        if ch not in channels:
            continue
        if ch == "wifi":
            try:
                v = _scan_readings(v)
            except TraceError as exc:
                raise TraceError(f"line {lineno}: {exc}") from None
        ts.append(t)
        vs.append(v)
    return cols


class _NotCanonical(Exception):
    """A trace the fast path does not read."""


def _blocks(fh) -> Iterator[bytes]:
    """The lines of a binary file in blocks of about _BLOCK_BYTES, each
    read on to the end of its last line, so a line or a CRLF pair never
    spans two blocks; the last line gets its newline if it lacks one."""
    for data in iter(functools.partial(fh.read, _BLOCK_BYTES), b""):
        if not data.endswith(b"\n"):
            data += fh.readline()
        yield data if data.endswith(b"\n") else data + b"\n"


def _line_counts(path: str | Path) -> np.ndarray:
    """The lines of each channel in a trace, by channel index in CHANNELS,
    counted by the byte that names a dump_trace line's channel. The counts
    are exact for a file of dump_trace's lines and meaningless for any
    other, which the parse refuses."""
    counts = np.zeros(len(CHANNELS) + 1, np.int64)  # counts[0]: bytes naming none
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            arr = np.frombuffer(block, np.uint8)
            at = np.flatnonzero(arr[:-1] == ord("\n")) + (1 + _KIND_AT)
            kind = _KIND[arr[np.minimum(np.append(_KIND_AT, at), len(arr) - 1)]]
            counts += np.bincount(kind + 1, minlength=len(counts))
    return counts[1:]


def _skeletons(rests: bytes) -> bytes:
    """rests with each run of number characters collapsed to one 0."""
    marked = np.frombuffer(rests.translate(_MARK), np.uint8)
    isnum = marked == ord("0")
    first = np.append(True, ~(isnum[1:] & isnum[:-1]))  # each run's start, and all else
    return marked[first].tobytes()


def _words(data: bytes) -> np.ndarray:
    """The little-endian 8-byte word at each byte offset of data: a view of
    data's bytes, item k its bytes k to k + 7."""
    return np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))


def _block_columns(block: bytes, channels, cols: dict[str, tuple], filled: np.ndarray) -> None:
    """Parse block's lines of the channels in channels into cols: each
    numeric channel's t and v from row filled[i] on, advancing filled[i]
    (i its index in CHANNELS), and each WiFi line's t and readings appended
    to the WiFi lists. block holds whole lines, each ending in a newline.
    Any line dump_trace could not have written, or more lines of a channel
    than its arrays hold, raises _NotCanonical."""
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
        if b"\r" in block:  # a lone CR, which the json path reads as a line end
            raise _NotCanonical
    if not block.isascii():
        try:
            block.decode()
        except UnicodeDecodeError:  # the json path names the line
            raise _NotCanonical from None
    arr = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(arr == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    length = ends - starts  # each prefix, and the byte naming its channel, lie within its line
    if length.min() < _PREFIX_LEN:
        raise _NotCanonical
    kind = _KIND[arr[starts + _KIND_AT]]  # each line's channel index
    if kind.min() < 0:
        raise _NotCanonical
    # every line's prefix, all the json path reads of a line it skips; then
    # the rest of the head of each line read
    words = _words(block)
    read = np.array([ch in channels for ch in CHANNELS])[kind]
    if not ((words[starts] == _WORD0).all() and (words[starts + 6] == _WORD6[kind]).all()):
        raise _NotCanonical
    starts, ends, kind = starts[read], ends[read], kind[read]
    if ((ends - starts < _HEAD_LEN[kind]).any()  # so each head's last word lies in the block
            or not (words[starts + _HEAD_LEN[kind] - 8] == _WORD_END).all()):
        raise _NotCanonical
    want = [CHANNELS[ch] is not None and ch in channels for ch in CHANNELS]
    numeric = np.array(want)[kind]
    if numeric.any():
        lines = kind[numeric]
        # the rest of each numeric line: bytes from its head's end to its newline
        bounds = np.column_stack([starts[numeric] + _HEAD_LEN[lines], ends[numeric] + 1])
        runs = np.diff(bounds.ravel(), prepend=0, append=len(arr))
        rests = arr[np.repeat(np.arange(len(runs)) % 2 == 1, runs)].tobytes()
        if _skeletons(rests) != b"".join(map(_SKELETONS.__getitem__, lines.tolist())):
            raise _NotCanonical
        try:  # json's own number grammar and values, integers and -0 included
            values = np.array(json.loads(b"[%s]" % rests[:-1].translate(_TO_LIST)), float)
        except (ValueError, OverflowError):  # invalid JSON, or an int past float
            raise _NotCanonical from None
        owner = np.repeat(lines, _NUMBERS[lines])
        for i, ch in enumerate(CHANNELS):
            if want[i]:
                rows = values[owner == i].reshape(-1, _NUMBERS[i])
                t, v = cols[ch]
                lo, hi = filled[i], filled[i] + len(rows)
                if hi > len(t):  # more lines than counted: the file changed
                    raise _NotCanonical
                t[lo:hi] = rows[:, 0]
                v[lo:hi] = rows[:, 1:].reshape(v[lo:hi].shape)
                filled[i] = hi
    if "wifi" in channels:
        wifi = kind == _WIFI
        ts, vs = cols["wifi"]
        for s, e in zip(starts[wifi].tolist(), ends[wifi].tolist()):
            try:
                rec = json.loads(block[s:e])
                if rec["ch"] != "wifi":
                    raise _NotCanonical
                ts.append(rec["t"])
                vs.append(_scan_readings(rec["v"]))
            except (ValueError, KeyError, TypeError, RecursionError):  # TraceError among them
                raise _NotCanonical from None


def _canonical_columns(path: str | Path, channels) -> dict[str, tuple]:
    """The t and v of each channel of a trace whose every line dump_trace
    could have written, read a block at a time; a line of a channel not in
    channels is dropped by its head, unparsed. A first pass counts each
    numeric channel's lines, so its values are parsed straight into arrays
    of their final size. Any other line raises _NotCanonical, never
    TraceError: the json path names the faults."""
    cols = {ch: ([], []) for ch in CHANNELS}
    want = [CHANNELS[ch] is not None and ch in channels for ch in CHANNELS]
    counts = _line_counts(path) if any(want) else np.zeros(len(CHANNELS), np.int64)
    for i, ch in enumerate(CHANNELS):
        if want[i]:
            cols[ch] = (np.empty(counts[i]), np.empty((counts[i], *_sample_shape(ch))))
    filled = np.zeros(len(CHANNELS), np.int64)
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            _block_columns(block, channels, cols, filled)
    if (filled != counts)[want].any():  # fewer lines than counted: the file changed
        raise _NotCanonical
    return cols


def load_trace(path: str | Path, channels=tuple(CHANNELS)) -> SensorTrace:
    """Parse a JSONL trace file, validating each channel in channels
    against CHANNELS. The other channels load empty (truth as None), and
    their lines are skipped: by their start before any parse, or by "ch"
    after.
    A file of dump_trace's lines takes the fast path; any other is read a
    line at a time with json.loads, with the same arrays and errors."""
    unknown = set(channels) - CHANNELS.keys()
    if unknown:
        raise ValueError(f"unknown trace channels {sorted(unknown)}")
    try:
        cols = _canonical_columns(path, channels)
    except _NotCanonical:
        cols = _json_columns(path, channels)
    chans = {ch: _channel(path, ch, *cols.pop(ch), channels) for ch in CHANNELS}
    wifi = chans.pop("wifi")
    truth = chans.pop("truth")
    return SensorTrace(
        **chans,
        wifi=[WifiScan(t, r) for t, r in zip(wifi.t.tolist(), wifi.v)],
        truth=TruthChannel(truth.t, truth.v[:, :2].copy(),
                           truth.v[:, 2].copy()) if len(truth) else None,
    )


def writing(path):
    """A context giving an open file to write: path itself if it is one,
    else the file at path, opened for writing."""
    if hasattr(path, "write"):
        return contextlib.nullcontext(path)
    return open(path, "w")


def _merged(times: list[np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of channels whose t never decreases, in the order of a
    stable sort on (t, channel order), _CHUNK_ROWS rows at a time: each
    row's channel index and its sample's index in its channel. The rows
    are merged a window at a time; a window ends at the smallest
    (t, channel) among the channels' next _CHUNK_ROWS-th rows, so it holds
    every row before that one and at most _CHUNK_ROWS of each channel."""
    pos = [0] * len(times)  # each channel's first row not yet merged
    while True:
        heads = [t[p:p + _CHUNK_ROWS] for t, p in zip(times, pos)]
        full = [(h[-1], i) for i, h in enumerate(heads) if len(h) == _CHUNK_ROWS]
        take = list(map(len, heads))
        if full:
            bound, last = min(full)
            take = [k if i == last else
                    int(np.searchsorted(h, bound, "right" if i < last else "left"))
                    for i, (h, k) in enumerate(zip(heads, take))]
        if not any(take):
            return
        order = np.argsort(np.concatenate([h[:k] for h, k in zip(heads, take)]),
                           kind="stable")
        kind = np.repeat(np.arange(len(times), dtype=np.int8), take)[order]
        at = np.concatenate([np.arange(p, p + k) for p, k in zip(pos, take)])[order]
        for lo in range(0, len(order), _CHUNK_ROWS):
            yield kind[lo:lo + _CHUNK_ROWS], at[lo:lo + _CHUNK_ROWS]
        pos = [p + k for p, k in zip(pos, take)]


def dump_trace(trace: SensorTrace, path) -> None:
    """Write a trace as JSONL to a path or open file, channels interleaved
    by timestamp and in CHANNELS order at equal timestamps. A non-finite t
    or value, or a t that decreases within its channel, which load_trace
    would reject, raises TraceError naming the channel before the first
    byte is written, and before a path is opened.

    The rows come from _merged and are written _CHUNK_ROWS at a time: each
    numeric row's numbers gathered from its channel's arrays into the
    chunk's numbers, then one template joined from the rows' templates,
    filled by one % with each distinct number of the chunk formatted once.
    A numeric channel's rows share its line
    format, with %s for each number; a WiFi row has its own template,
    json.dumps's line with its % doubled. Numbers are told apart by their
    bits, so -0.0 and 0.0 stay distinct; %r of a finite float is json's
    text for it."""
    templates = [_line_format(ch).replace("%r", "%s") + "\n" if CHANNELS[ch] else ""
                 for ch in CHANNELS]  # template i for channel i; the "" is unused
    columns, times = [], []  # per channel: its columns of numbers, and its t
    for ch, width in CHANNELS.items():
        if ch == "wifi":  # MACs need json's string escaping
            t = np.array([s.t for s in trace.wifi], float)
            if not np.isfinite(t).all():
                raise TraceError("cannot write channel 'wifi': t must be finite")
            templates += [json.dumps({"ch": ch, "t": s.t, "v": [[m, r] for m, r in
                                                               s.readings.items()]})
                          .replace("%", "%%") + "\n" for s in trace.wifi]
            cols = ()
        else:
            if ch == "truth":
                tr = trace.truth
                cols = () if tr is None else (tr.t, *tr.xy.T, tr.floor)
            else:
                c = getattr(trace, ch)
                cols = (c.t, *c.v.reshape(len(c), width).T)
            if not all(np.isfinite(col).all() for col in cols):
                raise TraceError(f"cannot write channel {ch!r}: t and values must be finite")
            t = cols[0] if cols else np.empty(0)
        if (t[1:] < t[:-1]).any():
            raise TraceError(f"cannot write channel {ch!r}: t must not decrease")
        columns.append(cols)
        times.append(t)
    count = np.array(list(map(len, columns)))  # numbers per row of each channel
    with writing(path) as fh:
        for kind, at in _merged(times):
            n = count[kind]
            start = np.cumsum(n) - n  # each row's first number in the chunk
            numbers = np.empty(n.sum())
            for i, cols in enumerate(columns):
                mine = kind == i
                if mine.any():
                    s, j = start[mine], at[mine]
                    for off, col in enumerate(cols):
                        numbers[s + off] = col[j]
            distinct, which = np.unique(numbers.view(np.uint64), return_inverse=True)
            text = np.array(list(map(repr, distinct.view(float).tolist())), object)
            code = np.where(kind == _WIFI, len(CHANNELS) + at, kind)
            fh.write("".join(map(templates.__getitem__, code.tolist()))
                     % tuple(text[which].tolist()))


def write_text(path, text: str) -> None:
    """Write text to an open file, or replace the file at a path."""
    with writing(path) as fh:
        fh.write(text)


def classify_motion(
    trace: SensorTrace, cfg: SensorConfig = SensorConfig()
) -> list[tuple[float, MotionState]]:
    """Label tumbling accelerometer windows Walking or Still.

    One label per full window of cfg.acc_window samples, stamped with the
    window start time; a trailing partial window produces no label.
    """
    w = cfg.acc_window
    n = len(trace.accel) // w
    variances = _magnitudes(trace.accel)[: n * w].reshape(n, w).var(axis=1)
    return [(t0, MotionState.WALKING if var > cfg.variance_threshold
             else MotionState.STILL)
            for t0, var in zip(trace.accel.t[: n * w: w].tolist(), variances.tolist())]


def motion_runs(
    motion: list[tuple[float, MotionState]]
) -> list[tuple[MotionState, float, float, int]]:
    """The maximal runs of equal motion labels, as (state, start, end,
    labels): start is the first label's time and labels the run's count.

    A run ends where the next one starts. The last run ends one label
    spacing past its last label, the spacing taken from the last two
    labels; a lone label ends where it starts.
    """
    if not motion:
        return []
    runs = []
    for state, group in groupby(motion, key=itemgetter(1)):
        times = [t for t, _ in group]
        runs.append((state, times[0], len(times)))
    last = motion[-1][0]
    spacing = last - motion[-2][0] if len(motion) > 1 else 0.0
    ends = [start for _, start, _ in runs[1:]] + [last + spacing]
    return [(state, start, end, n) for (state, start, n), end in zip(runs, ends)]


def moving_average(x: np.ndarray, size: int) -> np.ndarray:
    """Centered moving average of width size, the ends padded with copies
    of the edge samples (size // 2 in front, the rest behind).

    One running sum, divided on output: np.cumsum adds strictly in order,
    so every value is bit-identical to scipy.ndimage.uniform_filter1d with
    mode="nearest".
    """
    s1 = size // 2
    p = np.pad(np.asarray(x, float), (s1, size - s1 - 1), mode="edge")
    return np.cumsum(np.concatenate((np.cumsum(p[:size])[-1:],
                                     p[size:] - p[:-size]))) / size


def _window_sums(x: np.ndarray, window: int) -> np.ndarray:
    """The sum of x over each sample's centered window, clipped to the
    array: x[max(i - window // 2, 0):i + window - window // 2] for sample
    i. Each sum is a difference of two running sums, both read by a slice
    of one copy of them padded with its first and last, so no index array
    is built."""
    n, half = len(x), window // 2
    a, b = min(half, n), min(window - half, n)
    run = np.empty(a + n + b)  # run[j] is the sum of x[:clip(j - a, 0, n)]
    run[:a + 1] = 0.0
    np.cumsum(x, out=run[a + 1:a + 1 + n])
    run[a + 1 + n:] = run[a + n]
    return run[a + b:a + b + n] - run[:n]


def _rolling_variance(mag: np.ndarray, window: int) -> np.ndarray:
    """Centered rolling population variance, edges clipped to the array."""
    cnt = _window_sums(np.ones(len(mag)), window)  # exact integers
    mean = _window_sums(mag, window)
    mean /= cnt
    var = _window_sums(mag * mag, window)
    var /= cnt
    var -= mean * mean
    return var


def detect_steps(
    trace: SensorTrace, cfg: SensorConfig = SensorConfig()
) -> list[StepEvent]:
    """Step peaks from the smoothed accelerometer magnitude.

    A candidate is a strict local maximum of the moving-average-smoothed
    magnitude whose surrounding window variance exceeds the walking
    threshold; candidates closer than MIN_STEP_GAP_S to the previously
    accepted peak are rejected as jitter.
    """
    if len(trace.accel) < 3:
        return []
    t = trace.accel.t
    mags = _magnitudes(trace.accel)
    # the variances first, so their temporaries never coexist with smooth
    variances = _rolling_variance(mags, cfg.acc_window)
    smooth = moving_average(mags, SMOOTHING_WIDTH)

    mid = smooth[1:-1]
    candidates = np.flatnonzero((mid > smooth[:-2]) & (mid > smooth[2:])) + 1

    steps: list[StepEvent] = []
    last_t = None
    for i in candidates:
        if variances[i] <= cfg.variance_threshold:
            continue
        ti = float(t[i])
        if last_t is not None and ti - last_t < MIN_STEP_GAP_S:
            continue
        periodicity = None if last_t is None else ti - last_t
        steps.append(StepEvent(t=ti, periodicity=periodicity,
                               accel_variance=float(variances[i])))
        last_t = ti
    return steps
