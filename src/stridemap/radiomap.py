"""Quality-gated WiFi radio map construction.

Scans are placed by linear interpolation between the trajectory poses that
bracket them inside a single path segment, and kept only when the segment's
walking-quality belief clears a threshold. Belief rewards step periods that
sit inside the plausible human cadence band and walks with steady cadence.
The belief parameters are QualityConfig, in stridemap.config; a map file
records them.

A map file is the text json.dumps(obj, sort_keys=True, indent=2) writes.
save_radio_map formats it without json's pure-Python indent encoder: each
entry from one % template, its fp by json's C encoder, a chunk of entries
at a time, so memory never holds the whole text.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .config import ConfigError, QualityConfig
from .sensors import (WifiScan, array, fingerprint, members, number,
                      read_json, record, version, writing)

if TYPE_CHECKING:  # no runtime dependency on the trajectory module
    from .pdr import PathSegment, Pose, Trajectory


class MapFormatError(ValueError):
    """Radio map file violates the expected schema."""


@dataclass(frozen=True)
class RadioMapEntry:
    x: float
    y: float
    floor: int
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
    """
    periods = np.asarray(segment.periodicities, dtype=float)
    if periods.size < 2:
        return None
    valid = periods[(periods >= cfg.period_min) & (periods <= cfg.period_max)]
    if valid.size == 0:
        return 0.0
    share = float(valid.sum() / periods.sum())
    spread = float(valid.std())
    return share / max(spread, cfg.sigma_floor)


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


def _round_half_up(f: float) -> int:
    return int(math.floor(f + 0.5))


def build_radio_map(
    trajectory: Trajectory,
    scans: Sequence[WifiScan],
    cfg: QualityConfig = QualityConfig(),
    belief_filter: Callable[[float | None], bool] | None = None,
) -> RadioMap:
    """Reference points from scans bracketed inside believable segments.

    A scan contributes once per position: the shared snap pose between
    consecutive segments would otherwise duplicate scans landing exactly on
    a segment boundary. Scans outside every kept segment's time span are
    dropped, as are scans whose bracketing poses straddle a snap.
    """
    if belief_filter is None:
        belief_filter = lambda b: b is not None and b > cfg.belief_threshold

    ordered = sorted(scans, key=lambda s: s.t)
    scan_t = [s.t for s in ordered]
    entries: list[RadioMapEntry] = []
    seen: set[tuple[float, float, int, float]] = set()
    per_segment: list[tuple[float | None, set]] = []
    for seg in trajectory.segments:
        placed: set[tuple[float, float, int, float]] = set()
        belief = segment_belief(seg, cfg)
        per_segment.append((belief, placed))
        if not belief_filter(belief):
            continue
        pts = seg.points
        if len(pts) < 2:
            continue
        times = [p.t for p in pts]
        lo = bisect_left(scan_t, times[0])
        for scan in ordered[lo:bisect_right(scan_t, times[-1], lo)]:
            j = min(max(bisect_right(times, scan.t) - 1, 0), len(pts) - 2)
            x, y, f = interpolate_rp(pts[j], pts[j + 1], scan.t)
            floor = _round_half_up(f)
            key = (x, y, floor, scan.t)
            placed.add(key)
            if key in seen:
                continue
            seen.add(key)
            entries.append(RadioMapEntry(
                x=x, y=y, floor=floor,
                belief=0.0 if belief is None else float(belief),
                fp=dict(scan.readings)))
    return RadioMap(entries=entries, config=asdict(cfg),
                    segments=[(b, len(p)) for b, p in per_segment])


MAP_VERSION = 1
# A map file's keys and types; its config holds any of QualityConfig's fields.
_read_map = members({
    "version": version(MAP_VERSION),
    "config": members({f.name: number for f in fields(QualityConfig)}),
    "entries": array(record(RadioMapEntry, {"fp": fingerprint}), list)},
    ("version", "config", "entries"))


# _ENTRY is one entry of the "entries" list as indent=2 writes it, and _FP
# json's C encoder with the separators indent=2 puts between an fp's members.
_ENTRY = ('    {\n      "belief": %r,\n      "floor": %r,\n      "fp": %s,\n'
          '      "x": %r,\n      "y": %r\n    }')
_FP = json.JSONEncoder(sort_keys=True, separators=(",\n        ", ": ")).encode
# Entries formatted and written at once.
_CHUNK_ENTRIES = 256


def _entry_text(e: RadioMapEntry) -> str:
    """An entry as the map file holds it: through _ENTRY when x, y and
    belief are finite floats, floor an int and fp a dict of int readings,
    whose %r is json's text; any other entry through json.dumps itself."""
    fp = e.fp
    if (type(e.x) is type(e.y) is type(e.belief) is float and type(e.floor) is int
            and math.isfinite(e.x + e.y + e.belief)  # an overflowing sum only falls back
            and type(fp) is dict and {int}.issuperset(map(type, fp.values()))):
        return _ENTRY % (e.belief, e.floor,
                         "{\n        %s\n      }" % _FP(fp)[1:-1] if fp else "{}", e.x, e.y)
    obj = {"x": e.x, "y": e.y, "floor": e.floor, "belief": e.belief, "fp": fp}
    return "    " + json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n    ")


def save_radio_map(radio_map: RadioMap, path) -> None:
    """Write a map as JSON to a path or open file: the text of
    json.dumps(obj, sort_keys=True, indent=2) and a newline, the entries
    formatted and written _CHUNK_ENTRIES at a time, so memory never holds
    the whole text. An entry json cannot write raises json's TypeError
    after the entries before it are written."""
    entries = radio_map.entries
    with writing(path) as fh:
        fh.write('{\n  "config": %s,\n  "entries": ['
                 % json.dumps(radio_map.config, sort_keys=True, indent=2).replace("\n", "\n  "))
        for lo in range(0, len(entries), _CHUNK_ENTRIES):
            chunk = map(_entry_text, entries[lo:lo + _CHUNK_ENTRIES])
            fh.write(("\n" if lo == 0 else ",\n") + ",\n".join(chunk))
        fh.write('%s],\n  "version": %r\n}\n' % ("\n  " if entries else "", MAP_VERSION))


def load_radio_map(path: str | Path) -> RadioMap:
    """Parse and validate a radio map file; unknown fields are errors, and
    its config must pass QualityConfig's own checks."""
    data = _read_map(read_json(path, MapFormatError), "map", MapFormatError)
    try:
        QualityConfig(**data["config"])  # the rules of a config the map is built under
    except ConfigError as exc:
        raise MapFormatError(f"map.config.{exc}") from None
    return RadioMap(entries=data["entries"], config=data["config"])
