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
+-T_MAX_S and each value within +-VALUE_MAX, samples must have their
channel's width, t must not decrease within a channel, and a WiFi
reading must be a [mac, rss] pair (unique non-empty string MAC, RSS as
read by stridemap.records.rss). stridemap.sensors reads and writes
whole traces; this module holds the format they share.

load_scans reads only the WiFi scans, as sensors.load_trace(path,
("wifi",)) does, for a command that needs nothing else (build-map). Its
front reads a file of dump_trace's lines a block of about _BLOCK_BYTES
at a time, as bytes. Per block it refuses a lone CR and a byte that is
not UTF-8 and takes CRLF as LF. One regex search finds each line that
does not start with the _PREFIXES prefix of another channel; each must
be a WiFi line with the whole head '{"ch": "wifi", "t": ', so every line
is checked by its prefix, and is parsed by json.loads. Each t must be an
int or a float within +-T_MAX_S and no smaller than the one before it. A
file the front doubts goes to load_trace, which reads it or words its
fault, so both give the same scans and the same errors. This module
needs nothing but the standard library and records.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .records import RSS_MAX_DBM, RSS_MIN_DBM, RSS_RULE, rss, shown

# The range of every trace timestamp (seconds; Unix-epoch times fit) and of
# every numeric sample value, so no square or sum of them leaves the floats.
T_MAX_S = 1e10
VALUE_MAX = 1e6
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


def _blocks(fh) -> Iterator[bytes]:
    """The lines of a binary file in blocks of about _BLOCK_BYTES, each
    read on to the end of its last line, so a line or a CRLF pair never
    spans two blocks; the last line gets its newline if it lacks one."""
    for data in iter(functools.partial(fh.read, _BLOCK_BYTES), b""):
        if not data.endswith(b"\n"):
            data += fh.readline()
        yield data if data.endswith(b"\n") else data + b"\n"


# The front's view of dump_trace's lines, as bytes: a line that starts
# with no prefix in _OTHERS, those of the channels other than WiFi, must be
# a WiFi line, which starts with its whole head _WIFI_HEAD. _WIFI_OR_ODD
# finds the newline before each such line.
_OTHERS = tuple(p.encode() for p, ch in _PREFIXES.items() if ch != "wifi")
_WIFI_OR_ODD = re.compile(b'\n(?!\\{"ch": "(?:%s))'
                          % b"|".join(re.escape(p[len(b'{"ch": "'):]) for p in _OTHERS))
_WIFI_HEAD = _head("wifi").encode()


class _Doubt(Exception):
    """A trace the front leaves to load_trace."""


def _wifi_lines(block: bytes) -> Iterator[int]:
    """The offset of each line of a block that does not start with the
    prefix of a channel other than WiFi: the block's WiFi lines, and its
    lines of no channel."""
    if not block.startswith(_OTHERS):
        yield 0
    # the block's last newline ends it and starts no line
    for match in _WIFI_OR_ODD.finditer(block, 0, len(block) - 1):
        yield match.end()


def _front_scans(path: str | Path) -> list[WifiScan]:
    """The WiFi scans of a file of dump_trace's lines; _Doubt, or the
    error a parse or a scan raises, for any other file."""
    scans = []
    last = -T_MAX_S  # each t lies in [last, T_MAX_S]
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n")
                if b"\r" in block:  # a lone CR, which load_trace reads as a line end
                    raise _Doubt
            if not block.isascii():
                block.decode()  # UnicodeDecodeError, a ValueError, if not UTF-8
            for start in _wifi_lines(block):
                if not block.startswith(_WIFI_HEAD, start):
                    raise _Doubt
                rec = json.loads(block[start:block.index(b"\n", start)].decode())
                t = rec["t"]
                if rec["ch"] != "wifi" or type(t) is not float and type(t) is not int:
                    raise _Doubt
                t = float(t)
                if not last <= t <= T_MAX_S:  # NaN fails too
                    raise _Doubt
                last = t
                scans.append(WifiScan(t, _scan_readings(rec["v"])))
    return scans


def load_scans(path: str | Path) -> list[WifiScan]:
    """The WiFi scans of a trace, as load_trace(path, ("wifi",)).wifi:
    the same scans, or the same TraceError. A file of dump_trace's lines
    is read without numpy; load_trace reads any other."""
    try:
        return _front_scans(path)
    except (_Doubt, ValueError, KeyError, TypeError, OverflowError, RecursionError):
        from .sensors import load_trace
        return load_trace(path, ("wifi",)).wifi
