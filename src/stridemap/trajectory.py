"""Trajectory files: the poses of a walk by path segment, as JSON lines.

A Trajectory is its path segments, in time order; each segment holds its
poses and the step periods of the steps inside it. stridemap.pdr makes
them from a trace. dump_trajectory writes a trajectory as JSON lines and
load_trajectory reads them back. A pose's ranges are its fields'
metadata (records.TIMESTAMP, POSITION and FLOOR), and both test a pose by
the one check records.fits derives from them: the reader reads a field
through its reader only for a pose that fails it (another type, or to
word an error), and the writer refuses what the reader would refuse.
Step periods lie in records.PERIOD. This module needs nothing but the
standard library, records and tracefile, so build-map reads a trajectory
without loading numpy or the tracking stages.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from operator import itemgetter
from pathlib import Path

from .records import (FLOOR, PERIOD, POSITION, T_MAX_S, TIMESTAMP, VALUE_MAX,
                      field_reader, fits, number, read_jsonl, shown, writing)
from .tracefile import TraceError


@dataclass(frozen=True)
class Pose:
    t: float = field(metadata=TIMESTAMP)
    x: float = field(metadata=POSITION)
    y: float = field(metadata=POSITION)
    floor: float = field(metadata=FLOOR)  # continuous; round for discrete floor decisions


@dataclass
class PathSegment:
    """The poses from one anchor up to the next snap, which opens the next
    segment; every pose of a walk lives in exactly one segment.

    points[0] is the opening anchor: the initial pose, or the snap pose of
    the landmark named by landmark (None for the initial anchor).
    periodicities holds the step periods of the steps inside the segment,
    in time order: run_pdr fills it, and a trajectory file carries it on
    the segment's first line.
    """

    points: list[Pose]
    periodicities: list[float] = field(default_factory=list)
    landmark: str | None = None


@dataclass
class Trajectory:
    """A walk as its path segments, in time order; poses and visits are
    read from the segments."""

    segments: list[PathSegment]

    @property
    def poses(self) -> list[Pose]:
        """Every pose of the walk: the segments' points, in segment order."""
        return [p for seg in self.segments for p in seg.points]

    @property
    def visits(self) -> list[tuple[float, str]]:
        """(time, landmark id) of each snap, in time order."""
        return [(seg.points[0].t, seg.landmark) for seg in self.segments
                if seg.landmark is not None]


# json.dumps's encoder, refusing NaN and the infinities, which no reader takes.
_FINITE_JSON = json.JSONEncoder(allow_nan=False).encode
# The fields of a trajectory line that make its pose and name its segment,
# the one check of its pose, and each pose field's name and reader.
_POSE_KEYS = itemgetter("t", "x", "y", "floor", "segment")
_pose_fits = fits(Pose)
_POSE_READERS = [(f.name, field_reader(f)) for f in fields(Pose)]
# The containers of a segment's step periods load_trajectory takes: a list,
# or a tuple, which json writes as one.
_PERIOD_LISTS = (list, tuple)


def _pose(rec, path, ln: int) -> tuple[float, float, float, float, int]:
    """t, x, y, floor and segment of line ln: as they are when the pose
    passes _pose_fits and the segment is an int, else each read by number,
    then by its field's reader; TraceError naming path and ln if any fails."""
    try:
        t, x, y, floor, segment = _POSE_KEYS(rec)
        # isfinite raises OverflowError for a segment number would refuse
        if not (_pose_fits(rec) and type(segment) is int and math.isfinite(segment)):
            t, x, y, floor = (number(rec[k], k) for k in ("t", "x", "y", "floor"))
            segment = number(segment, "segment", integral=True)
            t, x, y, floor = (read(v, f"{path}:{ln}: pose {k}", TraceError)
                              for (k, read), v in zip(_POSE_READERS, (t, x, y, floor)))
        return t, x, y, floor, segment
    except TraceError:  # a finite number out of its range
        raise
    except (KeyError, TypeError, ValueError, OverflowError):
        raise TraceError(f"{path}:{ln}: pose needs finite numbers t, x, y, "
                         f"floor and an integer segment") from None


def _clean_periods(periods) -> bool:
    """Whether every step period of one of _PERIOD_LISTS is a finite float
    in PERIOD's range, so that load_trajectory takes them as they are."""
    return ({float}.issuperset(map(type, periods)) and math.isfinite(sum(periods))
            and min(periods, default=1) > 0 and max(periods, default=1) <= PERIOD["at_most"])


def _periods(periods) -> list:
    """periods as load_trajectory takes them: as they are when they are
    clean (_clean_periods), else each read by number; ValueError if periods
    is not one of _PERIOD_LISTS, or one is not a finite number in that
    range."""
    if not isinstance(periods, _PERIOD_LISTS):
        raise ValueError(f"periods must be a list, got {shown(periods)}")
    if _clean_periods(periods):
        return periods
    return [number(v, "period", **PERIOD) for v in periods]


# A trajectory line of a pose that passes _pose_fits, as _FINITE_JSON writes
# it, %r being json's text of a float and %d of an int; a segment's first
# line also carries its periods, each a float, joined by ", " (_FIRST_LINE).
_LINE = '{"t": %r, "x": %r, "y": %r, "floor": %r, "segment": %d}'
_FIRST_LINE = _LINE[:-1] + ', "periods": [%s]}'


def dump_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as JSON lines (path or open file), each pose with
    the index of the segment that holds it, so every pose is written once;
    each segment's first line also carries its step periods. A line that
    load_trajectory would refuse (a number that is not finite, a pose out
    of its range, periods that are not a list, a period that is not a
    finite number in PERIOD's range) raises TraceError before a byte is
    written. A pose that passes _pose_fits, with clean periods on a
    segment's first line, is written through the _LINE or _FIRST_LINE
    template; any other line goes through _FINITE_JSON and the checks of
    load_trajectory's readers, which word the error."""
    lines = []
    for k, seg in enumerate(traj.segments):
        periods = seg.periodicities
        clean = isinstance(periods, _PERIOD_LISTS) and _clean_periods(periods)
        for i, pose in enumerate(seg.points):
            rec = {"t": pose.t, "x": pose.x, "y": pose.y, "floor": pose.floor,
                   "segment": k}
            if _pose_fits(rec) and (i or clean):
                lines.append(_LINE % (pose.t, pose.x, pose.y, pose.floor, k) if i else
                             _FIRST_LINE % (pose.t, pose.x, pose.y, pose.floor, k,
                                            ", ".join(map(repr, periods))))
                continue
            if i == 0:
                if not isinstance(seg.periodicities, _PERIOD_LISTS):  # a set fails json too
                    raise TraceError(f"cannot write trajectory: line {len(lines) + 1} "
                                     f"(segment {k}) periods must be a list, got "
                                     f"{shown(seg.periodicities)}")
                rec["periods"] = seg.periodicities
            try:
                lines.append(_FINITE_JSON(rec))
            except ValueError:
                raise TraceError(f"cannot write trajectory: line {len(lines) + 1} "
                                 f"(segment {k}) must hold finite numbers") from None
            try:
                if not _pose_fits(rec):
                    _pose(rec, path, 0)
                if i == 0:
                    _periods(seg.periodicities)
            except ValueError:  # TraceError too
                raise TraceError(f"cannot write trajectory: line {len(lines)} (segment {k}) "
                                 f"must hold t within +-{T_MAX_S:g} s, x and y within "
                                 f"+-{VALUE_MAX:g} m, floor within +-{VALUE_MAX:g} and "
                                 f"step periods above 0 and at most "
                                 f"{PERIOD['at_most']:g} s") from None
    with writing(path) as fh:
        fh.write("".join(line + "\n" for line in lines))


def load_trajectory(path: str | Path) -> Trajectory:
    """Read a trajectory export: one segment per segment index, in index
    order, each with its poses in file order and the step periods its first
    line carries. A pose earlier than the one before it in its segment is
    refused, and so is a segment whose first line has no periods (a file
    written before trajectories carried them), a later line with periods
    again, or a period that is not a finite number in PERIOD's range."""
    segs: dict[int, PathSegment] = {}
    for ln, rec in read_jsonl(path, TraceError, f"{path}:"):
        t, x, y, floor, segment = _pose(rec, path, ln)
        pose = Pose(t, x, y, floor)
        seg = segs.get(segment)
        if seg is None:
            if "periods" not in rec:
                raise TraceError(f"{path}:{ln}: segment {segment} has no step "
                                 f"periods; the file predates them, re-run track")
            try:
                periodicities = _periods(rec["periods"])
            except ValueError as exc:
                raise TraceError(f"{path}:{ln}: {exc}") from None
            seg = segs[segment] = PathSegment(points=[], periodicities=periodicities)
        elif "periods" in rec:
            raise TraceError(f"{path}:{ln}: segment {segment} carries periods twice")
        elif pose.t < seg.points[-1].t:
            raise TraceError(f"{path}:{ln}: pose t {pose.t!r} goes back in time "
                             f"from {seg.points[-1].t!r} in segment {segment}")
        seg.points.append(pose)
    return Trajectory(segments=[segs[k] for k in sorted(segs)])
