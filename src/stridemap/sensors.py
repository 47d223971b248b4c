"""Sensor trace ingestion and low-level motion signal processing.

The trace line format, its channels (CHANNELS), TraceError and WifiScan
are in stridemap.tracefile, which also reads a trace's WiFi scans alone
without numpy (load_scans); the ranges of t and values (T_MAX_S,
VALUE_MAX) are in stridemap.records.
load_trace reads whole traces into arrays, checking every channel it
reads as tracefile says. A load that fails reads the file again a line
at a time and raises TraceError "line N: ..." naming the first faulty
line in file order, whatever its fault: a line that is not UTF-8, in
any channel, is one.

A whole-trace load of a file whose every line has the layout dump_trace
writes takes a fast path, with any JSON number in a number's place
(integers, -0 and 1E5 included), and with or without a final newline.
It reads the file twice through tracefile._blocks, which takes CRLF as
LF and doubts a lone CR or a byte that is not UTF-8: a first pass counts
each channel's lines by the byte that names a line's channel, and the
second parses each numeric channel's numbers straight into t and v
arrays of that final size, so memory holds the arrays and one block's
work. Per block, numpy finds the lines and checks each line's whole head
'{"ch": "<ch>", "t": ' as 8-byte words gathered at the line starts;
with each run of number characters collapsed to one 0, each numeric
line's rest must be exactly its channel's skeleton, so each number
stands alone in its own slot; one orjson.loads parses all the block's
numbers, json's values bit for bit (tested); and each WiFi line is read
by tracefile._wifi_line. A file the fast path doubts (tracefile._DOUBTS:
other spacing or key order, blank lines, a lone CR, a number orjson
refuses, which lies past every bound) is read a line at a time with
json.loads, into the same arrays. load_trace can read a subset of the
channels: that load goes straight to the json path, which skips the
lines of the other channels by their _PREFIXES prefix alone, unparsed,
so a malformed line of another channel does not fail it.

dump_trace writes those lines as a stream: the rows of every channel,
each channel's t non-decreasing, are merged by (t, channel order) a
window of at most _CHUNK_ROWS rows per channel at a time, then written a
chunk of _CHUNK_ROWS lines at a time. A chunk's numbers are gathered from
the channel arrays into one array, and one orjson.dumps of it gives
their text, which is repr's for every number except the nonzero ones
below _REPR_BELOW in magnitude: repr writes those. One bytes % template
fills the chunk's lines. Memory holds the trace, one window of its merge
order and one chunk.

The step and motion parameters are SensorConfig, which lives with the
other stage configs in stridemap.config. The readers of the other input
files, and the file writer dump_trace shares, are in stridemap.records.
"""

from __future__ import annotations

import contextlib
import enum
import json
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np
import orjson

from .config import SensorConfig
from .records import T_MAX_S, VALUE_MAX, number, read_jsonl, shown, writing
from .tracefile import (_DOUBTS, _PREFIX_LEN, _PREFIXES, CHANNELS, TraceError,
                        WifiScan, _blocks, _Doubt, _head, _scan_readings, _wifi_line)

# Width of the centered moving average applied before peak picking, samples.
SMOOTHING_WIDTH = 5
# Two accepted step peaks closer than this are jitter, seconds.
MIN_STEP_GAP_S = 0.3
# Trace lines dump_trace formats with one template and writes at once.
_CHUNK_ROWS = 2048
# orjson writes a float's text as repr does, except for the nonzero ones
# below this magnitude (0.00001 for 1e-05) and for those of 1e16 and more,
# which no trace holds (T_MAX_S, VALUE_MAX).
_REPR_BELOW = 1e-4


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


class TruthChannel(Channel):
    """Embedded ground truth: v holds each timestamp's [x, y, floor], and
    xy and floor are views of it."""

    @property
    def xy(self) -> np.ndarray:
        return self.v[:, :2]

    @property
    def floor(self) -> np.ndarray:
        return self.v[:, 2]


def _sample_shape(ch: str) -> tuple[int, ...] | None:
    """Shape of one sample's values; None for WiFi, whose samples are scans."""
    width = CHANNELS[ch]
    return None if width is None else () if width == 1 else (width,)


def _empty(ch: str, kind: type[Channel] = Channel) -> Channel:
    return kind(np.empty(0), np.empty((0, *_sample_shape(ch))))


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
    truth: TruthChannel = field(default_factory=lambda: _empty("truth", TruthChannel))


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


def _checked(ch: str, t, v) -> Channel:
    """The samples of channel ch as arrays; one of _DOUBTS unless every t
    and value is a number (never a bool) within +-T_MAX_S and +-VALUE_MAX,
    every sample has the channel's width and t is non-decreasing. WiFi
    values are scans and pass through."""
    shape = _sample_shape(ch)
    if not len(t):
        return Channel(np.empty(0), v if shape is None else _empty(ch).v)
    ta = np.asarray(t, float)  # a value numpy cannot read raises
    va = v if shape is None else np.asarray(v, float)
    ok = (ta.shape == (len(t),) and _within(ta, T_MAX_S)
          and not (ta[1:] < ta[:-1]).any())
    if ok and shape is not None:
        ok = va.shape == (len(t), *shape) and _within(va, VALUE_MAX)
    if ok and isinstance(t, list):  # parsed JSON: numpy reads true or "1.0" as a number
        ok = _numbers_only(t) and (shape is None or _numbers_only(
            v if shape == () else chain.from_iterable(v)))
    if not ok:
        raise _Doubt
    return Channel(ta, va)


def _within(x: np.ndarray, bound: float) -> bool:
    """Whether every item of x lies in [-bound, bound]; min and max are
    NaN when any item is, and NaN fails both tests."""
    return not x.size or (-bound <= x.min() and x.max() <= bound)


def _numbers_only(values) -> bool:
    """Whether parsed JSON values are all numbers: no bool, and no string,
    which numpy would also convert."""
    return set(map(type, values)) <= {int, float}


def _trace_lines(path: str | Path, channels) -> Iterator[tuple[int, str, object, object]]:
    """(line number, channel, t, v) of each line of a trace whose channel
    is in channels, by json.loads, a WiFi v read by _scan_readings; other
    channels' lines are skipped by their _PREFIXES prefix unparsed, or by
    "ch". The first line not UTF-8 or not JSON, without ch, t or v, of no
    channel or with a faulty scan raises TraceError naming it."""
    skip = tuple(p for p, ch in _PREFIXES.items() if ch not in channels)
    for lineno, rec in read_jsonl(path, TraceError, skip=skip):
        try:
            ch, t, v = rec["ch"], rec["t"], rec["v"]
        except (KeyError, TypeError) as exc:
            raise TraceError(f"line {lineno}: missing ch/t/v") from exc
        if type(ch) is not str or ch not in CHANNELS:
            raise TraceError(f"line {lineno}: unknown channel {shown(ch)}")
        if ch not in channels:
            continue
        if ch == "wifi":
            try:
                v = _scan_readings(v)
            except TraceError as exc:
                raise TraceError(f"line {lineno}: {exc}") from None
        yield lineno, ch, t, v


def _json_columns(path: str | Path, channels) -> dict[str, tuple[list, list]]:
    """The t and v lists of each channel, read by _trace_lines."""
    cols: dict[str, tuple[list, list]] = {ch: ([], []) for ch in CHANNELS}
    for _, ch, t, v in _trace_lines(path, channels):
        cols[ch][0].append(t)
        cols[ch][1].append(v)
    return cols


def _check_sample(where: str, ch: str, t, v, last) -> None:
    """Raise TraceError, its text starting with where, unless a parsed
    sample of channel ch after one at t last passes _checked's checks, in
    this order: a finite t and width of values, their ranges, t >= last."""
    width = CHANNELS[ch]
    values = [] if width is None else [v] if width == 1 else v
    try:
        if type(values) is not list or len(values) != (width or 0):
            raise TraceError
        for x in [t, *values]:
            number(x, where, TraceError)
    except TraceError:
        shape = "" if width is None else f" and {width} finite value{'s' * (width > 1)}"
        raise TraceError(f"{where}: {ch} sample must be a finite t{shape}") from None
    for name, x, bound in [("t", t, T_MAX_S), *(("value", x, VALUE_MAX) for x in values)]:
        number(x, f"{where}: {ch} {name}", TraceError, at_least=-bound, at_most=bound)
    if t < last:
        raise TraceError(f"{where}: timestamps regress in channel {ch!r}")


def _name_first_fault(path: str | Path, channels) -> NoReturn:
    """Raise TraceError naming the first faulty line, in file order and of
    any kind, among the lines of a trace a load of channels reads: the file
    read again by _trace_lines, each sample checked by _check_sample."""
    last = dict.fromkeys(CHANNELS, -T_MAX_S)
    for lineno, ch, t, v in _trace_lines(path, channels):
        _check_sample(f"line {lineno}", ch, t, v, last[ch])
        last[ch] = t
    raise TraceError(f"{path} changed while it was read")


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


def _block_columns(block: bytes, cols: dict[str, tuple], filled: np.ndarray) -> None:
    """Parse block's lines into cols: each numeric channel's t and v from
    row filled[i] on, advancing filled[i] (i its index in CHANNELS), and
    each WiFi line's t and readings, read by _wifi_line, appended to the
    WiFi lists. block is one of _blocks. Any line dump_trace could not have
    written, or more lines of a channel than its arrays hold, raises one
    of _DOUBTS."""
    arr = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(arr == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    length = ends - starts  # the byte naming each line's channel lies within it
    if length.min() < _PREFIX_LEN:
        raise _Doubt
    kind = _KIND[arr[starts + _KIND_AT]]  # each line's channel index
    if kind.min() < 0 or (length < _HEAD_LEN[kind]).any():
        raise _Doubt
    # each line's whole head, its last word within the line
    words = _words(block)
    if not ((words[starts] == _WORD0).all() and (words[starts + 6] == _WORD6[kind]).all()
            and (words[starts + _HEAD_LEN[kind] - 8] == _WORD_END).all()):
        raise _Doubt
    numeric = kind != _WIFI
    if numeric.any():
        lines = kind[numeric]
        # the rest of each numeric line: bytes from its head's end to its newline
        bounds = np.column_stack([starts[numeric] + _HEAD_LEN[lines], ends[numeric] + 1])
        runs = np.diff(bounds.ravel(), prepend=0, append=len(arr))
        rests = arr[np.repeat(np.arange(len(runs)) % 2 == 1, runs)].tobytes()
        if _skeletons(rests) != b"".join(map(_SKELETONS.__getitem__, lines.tolist())):
            raise _Doubt
        # orjson parses the numbers, json's values bit for bit (tested),
        # integers and -0 included; a number it refuses (past the float
        # range, so past every bound) raises orjson.JSONDecodeError
        values = np.array(orjson.loads(b"[%s]" % rests[:-1].translate(_TO_LIST)), float)
        owner = np.repeat(lines, _NUMBERS[lines])
        for i, ch in enumerate(CHANNELS):
            if i != _WIFI:
                rows = values[owner == i].reshape(-1, _NUMBERS[i])
                t, v = cols[ch]
                lo, hi = filled[i], filled[i] + len(rows)
                if hi > len(t):  # more lines than counted: the file changed
                    raise _Doubt
                t[lo:hi] = rows[:, 0]
                v[lo:hi] = rows[:, 1:].reshape(v[lo:hi].shape)
                filled[i] = hi
    ts, vs = cols["wifi"]
    for s, e in zip(starts[~numeric].tolist(), ends[~numeric].tolist()):
        t, readings = _wifi_line(block, s, e)
        ts.append(t)
        vs.append(readings)
    filled[_WIFI] = len(ts)


def _canonical_columns(path: str | Path) -> dict[str, tuple]:
    """The t and v of each channel of a trace whose every line dump_trace
    could have written, read a block at a time. A first pass counts each
    channel's lines, so the numeric channels' values are parsed straight
    into arrays of their final size. Any other line raises one of _DOUBTS:
    the json path names the faults."""
    counts = _line_counts(path)
    cols = {ch: ([], []) if ch == "wifi" else
            (np.empty(n), np.empty((n, *_sample_shape(ch)))) for ch, n in zip(CHANNELS, counts)}
    filled = np.zeros(len(CHANNELS), np.int64)
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            _block_columns(block, cols, filled)
    if (filled != counts).any():  # fewer lines than counted: the file changed
        raise _Doubt
    return cols


def load_trace(path: str | Path, channels=tuple(CHANNELS)) -> SensorTrace:
    """Parse a JSONL trace file, validating each channel in channels
    against CHANNELS. The other channels load empty, truth too, and their
    lines are skipped: by their start before any parse, or by "ch" after.
    A whole-trace load of a file of dump_trace's lines takes the fast
    path; a subset load, or one of any other file, is read a line at a
    time with json.loads, with the same arrays and errors."""
    unknown = set(channels) - CHANNELS.keys()
    if unknown:
        raise ValueError(f"unknown trace channels {sorted(unknown)}")
    cols = None
    if set(channels) == CHANNELS.keys():
        with contextlib.suppress(*_DOUBTS):
            cols = _canonical_columns(path)
    try:
        if cols is None:
            cols = _json_columns(path, channels)
        chans = {ch: _checked(ch, *cols.pop(ch)) for ch in CHANNELS}
    except _DOUBTS:
        _name_first_fault(path, channels)
    wifi, truth = chans.pop("wifi"), chans.pop("truth")
    return SensorTrace(
        **chans,
        wifi=[WifiScan(t, r) for t, r in zip(wifi.t.tolist(), wifi.v)],
        truth=TruthChannel(truth.t, truth.v),
    )


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
    or value, one out of its range (T_MAX_S, VALUE_MAX) or a t that
    decreases within its channel, which load_trace would reject, raises
    TraceError naming the channel before the first byte is written, and
    before a path is opened.

    The rows come from _merged and are written _CHUNK_ROWS at a time: each
    numeric row's numbers gathered from its channel's arrays into the
    chunk's numbers, then one bytes template joined from the rows'
    templates, filled by one % with the numbers' texts. One orjson.dumps
    of the chunk's numbers, split at its commas, gives their texts; a
    nonzero number below _REPR_BELOW in magnitude gets repr's instead, so
    every text is repr's (tested), which is json's, and -0.0 stays apart
    from 0.0. A
    numeric channel's rows share its line format, with %s for each
    number; a WiFi row has its own template, json.dumps's line with its %
    doubled. Templates and texts are bytes, which hold a number's text in
    fewer bytes than str; a chunk is ASCII (json.dumps escapes the rest)
    and is decoded once."""
    templates = [_line_format(ch).replace("%r", "%s").encode() + b"\n" if CHANNELS[ch] else b""
                 for ch in CHANNELS]  # template i for channel i; the b"" is unused
    columns, times = [], []  # per channel: its columns of numbers, and its t
    for ch, width in CHANNELS.items():
        if ch == "wifi":  # MACs need json's string escaping
            t = np.array([s.t for s in trace.wifi], float)
            templates += [json.dumps({"ch": ch, "t": s.t, "v": [[m, r] for m, r in
                                                               s.readings.items()]})
                          .replace("%", "%%").encode() + b"\n" for s in trace.wifi]
            cols = ()
        else:
            c = getattr(trace, ch)
            cols = (c.t, *c.v.reshape(len(c), width).T)
            t = c.t
        if not (_within(t, T_MAX_S) and all(_within(col, VALUE_MAX) for col in cols[1:])):
            raise TraceError(f"cannot write channel {ch!r}: every t must be finite and in "
                             f"[-{T_MAX_S:g}, {T_MAX_S:g}] s, every number value in "
                             f"[-{VALUE_MAX:g}, {VALUE_MAX:g}]")
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
            # a chunk of WiFi rows alone has no numbers, and b"".split(b",") is [b""]
            text = (orjson.dumps(numbers, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
                    if len(numbers) else [])
            small = np.flatnonzero((np.abs(numbers) < _REPR_BELOW) & (numbers != 0))
            for k, x in zip(small.tolist(), numbers[small].tolist()):
                text[k] = repr(x).encode()
            code = np.where(kind == _WIFI, len(CHANNELS) + at, kind)
            fh.write((b"".join(map(templates.__getitem__, code.tolist()))
                      % tuple(text)).decode())


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

    A candidate is a rise of the moving-average-smoothed magnitude followed
    by a fall, at the first sample of any flat top between them, whose
    surrounding window variance exceeds the walking threshold; candidates
    closer than MIN_STEP_GAP_S to the previously accepted peak are rejected
    as jitter. A flat stretch that rises on exit is no peak.
    """
    if len(trace.accel) < 3:
        return []
    t = trace.accel.t
    mags = _magnitudes(trace.accel)
    # the peaks first, their temporaries gone before the variances': a
    # rise of the smoothed magnitude whose next change is a fall
    steps_up = np.diff(moving_average(mags, SMOOTHING_WIDTH))
    changes = np.flatnonzero(steps_up)
    rises = (steps_up > 0)[changes]
    candidates = changes[:-1][rises[:-1] & ~rises[1:]] + 1
    del steps_up, changes, rises
    variances = _rolling_variance(mags, cfg.acc_window)

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
