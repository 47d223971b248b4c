"""Sensor trace ingestion and low-level motion signal processing.

Traces are JSON-lines files with one record per line:

    {"ch": "accel", "t": 1.234, "v": [ax, ay, az]}
    {"ch": "gyro",  "t": 1.234, "v": [wx, wy, wz]}
    {"ch": "mag",   "t": 1.234, "v": [mx, my, mz]}
    {"ch": "baro",  "t": 1.234, "v": 1013.25}
    {"ch": "wifi",  "t": 1.234, "v": [["aa:bb:cc:dd:ee:ff", -67], ...]}
    {"ch": "truth", "t": 1.234, "v": [x, y, floor]}

Timestamps are seconds and must be non-decreasing within each channel.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import uniform_filter1d

# Width of the centered moving average applied before peak picking, samples.
SMOOTHING_WIDTH = 5
# Two accepted step peaks closer than this are jitter, seconds.
MIN_STEP_GAP_S = 0.3


class TraceError(ValueError):
    """Raised when a trace file violates the channel contracts."""


class MotionState(enum.Enum):
    WALKING = "walking"
    STILL = "still"


@dataclass(frozen=True)
class SensorConfig:
    """Windowing and thresholding parameters for the accel/gyro pipeline."""

    acc_window: int = 50            # samples per motion/variance window
    variance_threshold: float = 0.5  # (m/s^2)^2, walking vs still
    gyro_window: int = 10           # samples per angular-rate window


@dataclass(frozen=True)
class VectorChannel:
    """Time series of 3-vectors, shape (n,) and (n, 3)."""

    t: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class ScalarChannel:
    """Time series of scalars, shape (n,) and (n,)."""

    t: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class WifiScan:
    """One WiFi scan: MAC -> RSS dBm (negative-or-zero integers)."""

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


def _empty_vector() -> VectorChannel:
    return VectorChannel(np.empty(0), np.empty((0, 3)))


def _empty_scalar() -> ScalarChannel:
    return ScalarChannel(np.empty(0), np.empty(0))


@dataclass
class SensorTrace:
    """All channels of one recording session."""

    accel: VectorChannel = field(default_factory=_empty_vector)
    gyro: VectorChannel = field(default_factory=_empty_vector)
    mag: VectorChannel = field(default_factory=_empty_vector)
    baro: ScalarChannel = field(default_factory=_empty_scalar)
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


def accel_magnitude(ax: float, ay: float, az: float) -> float:
    """Orientation-free accelerometer magnitude."""
    return math.sqrt(ax * ax + ay * ay + az * az)


def _magnitudes(channel: VectorChannel) -> np.ndarray:
    return np.sqrt(np.sum(channel.v * channel.v, axis=1))


def infer_rate(t: np.ndarray) -> float:
    """Sampling rate in Hz from the median inter-sample gap."""
    if len(t) < 2:
        raise TraceError("cannot infer sampling rate from fewer than 2 samples")
    gap = float(np.median(np.diff(t)))
    if gap <= 0:
        raise TraceError("non-positive median sample gap")
    return 1.0 / gap


def _check_nondecreasing(t: np.ndarray, channel: str) -> None:
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise TraceError(f"timestamps regress in channel {channel!r}")


def load_trace(path: str | Path) -> SensorTrace:
    """Parse a JSONL trace file, validating per-channel invariants."""
    acc_t, acc_v = [], []
    gyr_t, gyr_v = [], []
    mag_t, mag_v = [], []
    bar_t, bar_v = [], []
    wifi: list[WifiScan] = []
    tru_t, tru_xy, tru_f = [], [], []

    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: invalid JSON: {exc}") from exc
            try:
                ch, t, v = rec["ch"], rec["t"], rec["v"]
            except (KeyError, TypeError) as exc:
                raise TraceError(f"line {lineno}: missing ch/t/v") from exc
            if ch == "accel":
                acc_t.append(t)
                acc_v.append(v)
            elif ch == "gyro":
                gyr_t.append(t)
                gyr_v.append(v)
            elif ch == "mag":
                mag_t.append(t)
                mag_v.append(v)
            elif ch == "baro":
                bar_t.append(t)
                bar_v.append(v)
            elif ch == "wifi":
                readings: dict[str, int] = {}
                for mac, rss in v:
                    if mac in readings:
                        raise TraceError(
                            f"line {lineno}: duplicate MAC {mac!r} in scan")
                    if not isinstance(rss, int) or rss > 0:
                        raise TraceError(
                            f"line {lineno}: RSS must be a non-positive "
                            f"integer, got {rss!r}")
                    readings[mac] = rss
                wifi.append(WifiScan(t=float(t), readings=readings))
            elif ch == "truth":
                tru_t.append(t)
                tru_xy.append(v[:2])
                tru_f.append(v[2])
            else:
                raise TraceError(f"line {lineno}: unknown channel {ch!r}")

    trace = SensorTrace(
        accel=VectorChannel(np.asarray(acc_t, float), np.asarray(acc_v, float).reshape(-1, 3)),
        gyro=VectorChannel(np.asarray(gyr_t, float), np.asarray(gyr_v, float).reshape(-1, 3)),
        mag=VectorChannel(np.asarray(mag_t, float), np.asarray(mag_v, float).reshape(-1, 3)),
        baro=ScalarChannel(np.asarray(bar_t, float), np.asarray(bar_v, float)),
        wifi=wifi,
        truth=TruthChannel(
            np.asarray(tru_t, float),
            np.asarray(tru_xy, float).reshape(-1, 2),
            np.asarray(tru_f, float),
        ) if tru_t else None,
    )
    for name in ("accel", "gyro", "mag", "baro"):
        _check_nondecreasing(getattr(trace, name).t, name)
    _check_nondecreasing(np.asarray([s.t for s in wifi]), "wifi")
    if trace.truth is not None:
        _check_nondecreasing(trace.truth.t, "truth")
    return trace


def dump_trace(trace: SensorTrace, path) -> None:
    """Write a trace as JSONL to a path or open file, channels interleaved
    by timestamp."""
    rows: list[tuple[float, int, str]] = []

    def add(ch, t, v, order):
        rows.append((float(t), order, json.dumps({"ch": ch, "t": t, "v": v})))

    for i in range(len(trace.accel)):
        add("accel", trace.accel.t[i], list(trace.accel.v[i]), 0)
    for i in range(len(trace.gyro)):
        add("gyro", trace.gyro.t[i], list(trace.gyro.v[i]), 1)
    for i in range(len(trace.mag)):
        add("mag", trace.mag.t[i], list(trace.mag.v[i]), 2)
    for i in range(len(trace.baro)):
        add("baro", trace.baro.t[i], float(trace.baro.v[i]), 3)
    for scan in trace.wifi:
        add("wifi", scan.t, [[m, r] for m, r in scan.readings.items()], 4)
    if trace.truth is not None:
        for i in range(len(trace.truth)):
            add("truth", trace.truth.t[i],
                [float(trace.truth.xy[i, 0]), float(trace.truth.xy[i, 1]),
                 float(trace.truth.floor[i])], 5)
    rows.sort(key=lambda r: (r[0], r[1]))
    write_text(path, "".join(line + "\n" for _, _, line in rows))


def write_text(path, text: str) -> None:
    """Write text to an open file, or replace the file at a path."""
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _window_variances(mag: np.ndarray, window: int) -> np.ndarray:
    """Population variance of each full tumbling window."""
    n = len(mag) // window
    if n == 0:
        return np.empty(0)
    blocks = mag[: n * window].reshape(n, window)
    return blocks.var(axis=1)


def classify_motion(
    trace: SensorTrace, cfg: SensorConfig = SensorConfig()
) -> list[tuple[float, MotionState]]:
    """Label tumbling accelerometer windows Walking or Still.

    One label per full window of cfg.acc_window samples, stamped with the
    window start time; a trailing partial window produces no label.
    """
    mags = _magnitudes(trace.accel)
    variances = _window_variances(mags, cfg.acc_window)
    labels = []
    for i, var in enumerate(variances):
        t0 = float(trace.accel.t[i * cfg.acc_window])
        state = MotionState.WALKING if var > cfg.variance_threshold else MotionState.STILL
        labels.append((t0, state))
    return labels


def _rolling_variance(mag: np.ndarray, window: int) -> np.ndarray:
    """Centered rolling population variance, edges clipped to the array."""
    n = len(mag)
    csum = np.concatenate(([0.0], np.cumsum(mag)))
    csq = np.concatenate(([0.0], np.cumsum(mag * mag)))
    half = window // 2
    idx = np.arange(n)
    lo = np.clip(idx - half, 0, n)
    hi = np.clip(idx + (window - half), 0, n)
    cnt = hi - lo
    mean = (csum[hi] - csum[lo]) / cnt
    return (csq[hi] - csq[lo]) / cnt - mean * mean


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
    smooth = uniform_filter1d(mags, size=SMOOTHING_WIDTH, mode="nearest")
    variances = _rolling_variance(mags, cfg.acc_window)

    inner = np.arange(1, len(smooth) - 1)
    is_peak = (smooth[inner] > smooth[inner - 1]) & (smooth[inner] > smooth[inner + 1])
    candidates = inner[is_peak]

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
