"""The trace line format, and a trace's WiFi scans read without numpy.

Traces are JSON-lines files with one record per line:

    {"ch": "accel", "t": 1.234, "v": [ax, ay, az]}
    {"ch": "gyro",  "t": 1.234, "v": [wx, wy, wz]}
    {"ch": "mag",   "t": 1.234, "v": [mx, my, mz]}
    {"ch": "baro",  "t": 1.234, "v": 1013.25}
    {"ch": "wifi",  "t": 1.234, "v": [["aa:bb:cc:dd:ee:ff", -67], ...]}
    {"ch": "truth", "t": 1.234, "v": [x, y, floor]}

CHANNELS holds the values per sample (one is a bare number) and the
channel order at equal timestamps. On load, t (seconds) and every value
must be finite JSON numbers (never a bool or a string), t within
+-T_MAX_S and each value within +-VALUE_MAX (records holds both),
samples must have their channel's width, t must not decrease within a
channel, and a WiFi reading must be a [mac, rss] pair (unique non-empty
string MAC, RSS as read by stridemap.records.rss). stridemap.sensors reads and writes
whole traces; this module holds the format they share.

_blocks reads a file in blocks cut after a newline for both block
readers, sensors.load_trace's fast path (with numpy) and load_scans; it
takes CRLF as LF and doubts a lone CR or a byte that is not UTF-8, and
_wifi_line reads one WiFi line for both, leaving its t to the caller.
load_scans reads only the WiFi scans, as load_trace(path, ("wifi",))
does, for build-map: per block one regex search finds each line without
the _PREFIXES prefix of another channel, which must be a WiFi line, and
each t must be an int or a float in [the t before it, T_MAX_S]. A file
a block reader doubts (one of _DOUBTS) goes to load_trace's json path,
so all readers give the same scans and errors. This module needs only
the stdlib and records.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .records import RSS_RULE, T_MAX_S, clean_readings, rss, shown

# The trace format: values per sample of each channel, in write order at
# equal timestamps; a WiFi sample (None) is a scan of any length.
CHANNELS = {"accel": 3, "gyro": 3, "mag": 3, "baro": 1, "wifi": None, "truth": 3}
# Every line dump_trace writes starts '{"ch": "<ch>", '. Its first
# _PREFIX_LEN characters reach past the closing quote of the longest name,
# so they name the channel, and a reader skips by them, unparsed, the
# lines of a channel it does not read.
_PREFIX_LEN = len('{"ch": "') + max(map(len, CHANNELS)) + 1
_PREFIXES = {f'{{"ch": "{ch}", '[:_PREFIX_LEN]: ch for ch in CHANNELS}
# Bytes a block reader reads at once; each block is cut after a newline,
# so memory holds one block's lines, not the file's.
_BLOCK_BYTES = 1 << 18


class TraceError(ValueError):
    """Raised when a trace or trajectory file violates its format."""


@dataclass(frozen=True)
class WifiScan:
    """One WiFi scan: MAC -> RSS dBm (integers in [RSS_MIN_DBM, RSS_MAX_DBM])."""

    t: float
    readings: dict[str, int]


def _head(ch: str) -> str:
    """The start of every line dump_trace writes for channel ch."""
    return '{"ch": "' + ch + '", "t": '


def _scan_readings(v) -> dict[str, int]:
    """The readings of one WiFi scan; TraceError, without a line number,
    unless v is a list of [mac, rss] pairs. A scan of distinct string MACs
    that clean_readings passes is read by one dict(v); any other goes pair
    by pair, which words the error."""
    if type(v) is list:
        try:
            readings = dict(v)
        except (TypeError, ValueError):  # a pair that is no pair, or an unhashable MAC
            readings = None
        if (readings is not None and len(readings) == len(v)
                and {str}.issuperset(map(type, readings)) and clean_readings(readings)):
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


class _Doubt(Exception):
    """A file a block reader leaves to the json path."""


# What a block reader raises on a file it doubts: _Doubt, or the error of a
# parse (json.loads, orjson.loads, float, a key, _scan_readings's TraceError).
_DOUBTS = (_Doubt, ValueError, KeyError, TypeError, OverflowError, RecursionError)


def _blocks(fh) -> Iterator[bytes]:
    """The lines of a binary file in blocks of about _BLOCK_BYTES, each
    read cut after its last newline and the file position set back to the
    cut, or, if it holds none, read on to one; the last line gets its
    newline if it lacks one. CRLF reads as LF; a lone CR, which the json
    path reads as a line end, or a byte that is not UTF-8 raises _Doubt."""
    while data := fh.read(_BLOCK_BYTES):
        cut = data.rfind(b"\n") + 1
        if not cut:
            data += fh.readline()
        elif cut < len(data):
            fh.seek(cut - len(data), 1)
            data = data[:cut]
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n")
            if b"\r" in data:
                raise _Doubt
        if not data.isascii():
            try:
                data.decode()
            except UnicodeDecodeError:  # the json path names the line
                raise _Doubt from None
        yield data if data.endswith(b"\n") else data + b"\n"


def _wifi_line(block: bytes, start: int, end: int) -> tuple[object, dict[str, int]]:
    """t, as parsed, and the readings of the WiFi line block[start:end],
    which must start with its whole head; one of _DOUBTS for any other."""
    if not block.startswith(_WIFI_HEAD, start):
        raise _Doubt
    rec = json.loads(block[start:end])
    if rec["ch"] != "wifi":
        raise _Doubt
    return rec["t"], _scan_readings(rec["v"])


# load_scans's view of dump_trace's lines: a line that starts with no prefix
# in _OTHERS, those of the channels other than WiFi, must be a WiFi line,
# which starts with _WIFI_HEAD. _WIFI_OR_ODD finds the newline before each.
_OTHERS = tuple(p.encode() for p, ch in _PREFIXES.items() if ch != "wifi")
_WIFI_OR_ODD = re.compile(b'\n(?!\\{"ch": "(?:%s))'
                          % b"|".join(re.escape(p[len(b'{"ch": "'):]) for p in _OTHERS))
_WIFI_HEAD = _head("wifi").encode()


def _wifi_lines(block: bytes) -> Iterator[int]:
    """The offset of each line of a block that does not start with the
    prefix of a channel other than WiFi: the block's WiFi lines, and its
    lines of no channel."""
    if not block.startswith(_OTHERS):
        yield 0
    # the block's last newline ends it and starts no line
    for match in _WIFI_OR_ODD.finditer(block, 0, len(block) - 1):
        yield match.end()


def load_scans(path: str | Path) -> list[WifiScan]:
    """The WiFi scans of a trace, as load_trace(path, ("wifi",)).wifi:
    the same scans, or the same TraceError. A file of dump_trace's lines
    is read without numpy; load_trace reads any other."""
    scans = []
    last = -T_MAX_S  # each t lies in [last, T_MAX_S]
    try:
        with open(path, "rb") as fh:
            for block in _blocks(fh):
                for start in _wifi_lines(block):
                    t, readings = _wifi_line(block, start, block.index(b"\n", start))
                    if type(t) is not float and type(t) is not int:
                        raise _Doubt
                    t = float(t)
                    if not last <= t <= T_MAX_S:  # NaN fails too
                        raise _Doubt
                    last = t
                    scans.append(WifiScan(t, readings))
    except _DOUBTS:
        from .sensors import load_trace
        return load_trace(path, ("wifi",)).wifi
    return scans
