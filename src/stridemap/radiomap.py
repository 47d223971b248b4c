"""Quality-gated WiFi radio map construction.

Scans are placed by linear interpolation between the trajectory poses that
bracket them inside a single path segment, and kept only when the segment's
walking-quality belief clears a threshold. Belief rewards step periods that
sit inside the plausible human cadence band and walks with steady cadence.
The belief parameters are QualityConfig, in stridemap.config; a map file
records them. The belief's sums are exactly rounded (math.fsum), so it
has the same bits on every Python, and the module needs no numpy, so
build-map and the map readers load none.

A map file is the text json.dumps(obj, sort_keys=True, indent=2) writes.
save_radio_map formats it without json's pure-Python indent encoder: each
entry from one % template, its fp by json's C encoder, a chunk of entries
at a time, so memory never holds the whole text.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .config import QualityConfig, in_order, section_reader
from .records import (FLOOR, POSITION, array, clean_record, fingerprint, members,
                      read_json, record, version, writing)

if TYPE_CHECKING:  # a map reader such as localize loads neither module
    from .tracefile import WifiScan
    from .trajectory import PathSegment, Pose, Trajectory


class MapFormatError(ValueError):
    """Radio map file violates the expected schema, or a map cannot be
    written as one."""


@dataclass(frozen=True)
class RadioMapEntry:
    x: float = field(metadata=POSITION)
    y: float = field(metadata=POSITION)
    floor: int = field(metadata=FLOOR)
    belief: float
    fp: dict[str, int]  # MAC -> RSS dBm


@dataclass
class RadioMap:
    """Map entries plus the quality config they were built under.

    segments is filled by build_radio_map and never saved: the belief of
    each trajectory segment and the number of scans it accepted,
    deduplicated only within that segment, so a scan landing exactly on a
    snap shared by two segments counts in both while the map holds it once.
    """

    entries: list[RadioMapEntry] = field(default_factory=list)
    config: dict[str, float] = field(default_factory=dict)
    segments: list[tuple[float | None, int]] = field(default_factory=list,
                                                     compare=False)

    def __len__(self) -> int:
        return len(self.entries)


def segment_belief(segment: PathSegment, cfg: QualityConfig = QualityConfig()) -> float | None:
    """Walking-quality belief of a path segment, or None when undefined.

    The duration-weighted share of plausible step periods is divided by the
    population spread of the plausible periods (floored at cfg.sigma_floor
    so perfectly steady cadence stays finite). Fewer than two measured
    periods leave the spread meaningless, so the belief is undefined.

    Each of the three sums (of the plausible periods, of their squared
    deviations from their mean, of all periods) is math.fsum's, exactly
    rounded, so the belief has the same bits on every Python. Periods lie
    in records.PERIOD, as every reader and run_pdr give them, so no sum
    is 0 or overflows.
    """
    periods = segment.periodicities
    if len(periods) < 2:
        return None
    valid = [p for p in periods if cfg.period_min <= p <= cfg.period_max]
    if not valid:
        return 0.0
    n = len(valid)
    total = math.fsum(valid)
    mean = total / n
    deviations = [p - mean for p in valid]
    spread = math.sqrt(math.fsum([d * d for d in deviations]) / n)
    return total / math.fsum(periods) / max(spread, cfg.sigma_floor)


def trusted(belief: float | None, cfg: QualityConfig) -> bool:
    """Whether a segment's belief clears cfg.belief_threshold: only then do
    its scans enter the map and its steps recalibrate the step length."""
    return belief is not None and belief > cfg.belief_threshold


def interpolate_rp(p1: Pose, p2: Pose, t: float) -> tuple[float, float, float]:
    """Position and continuous floor at time t between two poses.

    Endpoint times return the endpoint pose exactly; a degenerate pair
    (equal times) returns the first pose.
    """
    if t <= p1.t or p2.t <= p1.t:
        return p1.x, p1.y, p1.floor
    if t >= p2.t:
        return p2.x, p2.y, p2.floor
    frac = (t - p1.t) / (p2.t - p1.t)
    return (p1.x + (p2.x - p1.x) * frac,
            p1.y + (p2.y - p1.y) * frac,
            p1.floor + (p2.floor - p1.floor) * frac)


def build_radio_map(
    trajectory: Trajectory,
    scans: Sequence[WifiScan],
    cfg: QualityConfig = QualityConfig(),
) -> RadioMap:
    """Reference points from scans bracketed inside believable segments.

    A scan contributes once per position: the shared snap pose between
    consecutive segments would otherwise duplicate scans landing exactly on
    a segment boundary. Scans outside every kept segment's time span are
    dropped, as are scans whose bracketing poses straddle a snap.
    """
    ordered = sorted(scans, key=lambda s: s.t)
    scan_t = [s.t for s in ordered]
    entries: list[RadioMapEntry] = []
    seen: set[tuple[float, float, int, float]] = set()
    per_segment: list[tuple[float | None, set]] = []
    for seg in trajectory.segments:
        placed: set[tuple[float, float, int, float]] = set()
        belief = segment_belief(seg, cfg)
        per_segment.append((belief, placed))
        if not trusted(belief, cfg):
            continue
        pts = seg.points
        if len(pts) < 2:
            continue
        times = [p.t for p in pts]
        lo = bisect_left(scan_t, times[0])
        for scan in ordered[lo:bisect_right(scan_t, times[-1], lo)]:
            j = min(max(bisect_right(times, scan.t) - 1, 0), len(pts) - 2)
            x, y, f = interpolate_rp(pts[j], pts[j + 1], scan.t)
            floor = math.floor(f + 0.5)  # half up
            key = (x, y, floor, scan.t)
            placed.add(key)
            if key in seen:
                continue
            seen.add(key)
            entries.append(RadioMapEntry(
                x=x, y=y, floor=floor, belief=belief, fp=dict(scan.readings)))
    return RadioMap(entries=entries, config=asdict(cfg),
                    segments=[(b, len(p)) for b, p in per_segment])


MAP_VERSION = 1
# A map file's keys and types; its config holds any of QualityConfig's fields.
_read_entry = record(RadioMapEntry, {"fp": fingerprint})
_read_config_fields = section_reader(QualityConfig)


def _read_config(obj, where: str, error: type[ValueError]) -> dict:
    """A map's config: QualityConfig's fields, any of them, each in its
    range, and with defaults for the keys it lacks, in_order."""
    config = _read_config_fields(obj, where, error)
    in_order(QualityConfig(**config), where, error)
    return config


_read_entry_array = array(_read_entry, list)
_clean_entry = clean_record(RadioMapEntry)


def _read_entries(items, where: str, error: type[ValueError]) -> list[RadioMapEntry]:
    """A map's entries: each made from its object as parsed when every
    one passes _clean_entry, as a map save_radio_map writes does; else
    each read by _read_entry, which converts or words the first fault."""
    if type(items) is list:
        entries = [RadioMapEntry(**obj) for obj in items if _clean_entry(obj)]
        if len(entries) == len(items):
            return entries
    return _read_entry_array(items, where, error)


_read_map = members({
    "version": version(MAP_VERSION),
    "config": _read_config,
    "entries": _read_entries},
    ("version", "config", "entries"))


# _ENTRY is one entry of the "entries" list as indent=2 writes it, and _FP
# json's C encoder with the separators indent=2 puts between an fp's members.
_ENTRY = ('    {\n      "belief": %r,\n      "floor": %r,\n      "fp": %s,\n'
          '      "x": %r,\n      "y": %r\n    }')
_FP = json.JSONEncoder(sort_keys=True, separators=(",\n        ", ": ")).encode
# Entries formatted and written at once.
_CHUNK_ENTRIES = 256


def _entry_text(e: RadioMapEntry, i: int) -> str:
    """Entry i as the map file holds it: through _ENTRY when it passes
    _clean_entry, whose %r is json's text; any other entry through
    json.dumps itself, which refuses NaN and the infinities, and then only
    if load_radio_map would read it."""
    fp = e.fp
    obj = {"x": e.x, "y": e.y, "floor": e.floor, "belief": e.belief, "fp": fp}
    if _clean_entry(obj):
        return _ENTRY % (e.belief, e.floor,
                         "{\n        %s\n      }" % _FP(fp)[1:-1] if fp else "{}", e.x, e.y)
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise MapFormatError(f"cannot write map: entry {i} must hold finite numbers") from None
    try:  # the entry as a map file holds it, keys sorted
        _read_entry(json.loads(text), f"entry {i}", MapFormatError)
    except MapFormatError as exc:
        raise MapFormatError(f"cannot write map: {exc}") from None
    return "    " + text.replace("\n", "\n    ")


def save_radio_map(radio_map: RadioMap, path) -> None:
    """Write a map as JSON to a path or open file: the text of
    json.dumps(obj, sort_keys=True, indent=2) and a newline, the entries
    formatted and written _CHUNK_ENTRIES at a time, so memory never holds
    the whole text. A config load_radio_map would refuse raises
    MapFormatError before a byte is written. An entry json cannot write
    raises json's TypeError, or MapFormatError for a number that is not
    finite, after the entries before it are written."""
    entries = radio_map.entries
    config = json.dumps(radio_map.config, sort_keys=True, indent=2)
    try:  # the config as the map file holds it
        _read_config(json.loads(config), "map.config", MapFormatError)
    except MapFormatError as exc:
        raise MapFormatError(f"cannot write map: {exc}") from None
    with writing(path) as fh:
        fh.write('{\n  "config": %s,\n  "entries": [' % config.replace("\n", "\n  "))
        for lo in range(0, len(entries), _CHUNK_ENTRIES):
            chunk = map(_entry_text, entries[lo:lo + _CHUNK_ENTRIES], count(lo))
            fh.write(("\n" if lo == 0 else ",\n") + ",\n".join(chunk))
        fh.write('%s],\n  "version": %r\n}\n' % ("\n  " if entries else "", MAP_VERSION))


def load_radio_map(path: str | Path) -> RadioMap:
    """Parse and validate a radio map file; unknown fields are errors, and
    its config, with defaults for the keys it lacks, must be in_order."""
    data = _read_map(read_json(path, MapFormatError), "map", MapFormatError)
    return RadioMap(entries=data["entries"], config=data["config"])
