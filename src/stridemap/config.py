"""The parameters of every pipeline stage, in one module.

Each stage takes one frozen dataclass: SensorConfig (steps and motion),
LandmarkConfig (the three detectors), PdrConfig (dead reckoning and
landmark matching), QualityConfig (segment belief) and LocalizationConfig
(kNN matching). The CLI's config tree has one section per class and one
key per field, with the field default as the key's default.

A config refuses, with a ConfigError naming the field, any number that is
not finite, a window below 1 sample, a zero or negative value of a field
some stage divides by or steps with (the initial step length), a negative
step count, and a band whose lower end lies above its upper end (the stop
duration window, the step period band). This module needs nothing but
the standard library, so a command can read and check the whole tree
without loading the stages it does not run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

# Heading agreement gate, degrees; PdrConfig holds it in radians.
HEADING_THRESHOLD_DEG = 30.0
METRICS = ("euclidean", "sorensen")
TAU_SCOPES = ("both", "map", "query")


class ConfigError(ValueError):
    """A config field set out of its range: field names it and rule says
    what it must be."""

    def __init__(self, field: str, rule: str, value):
        super().__init__(f"{field} {rule}, got {value!r}")
        self.field = field
        self.rule = rule


def _check(cfg, at_least: dict[str, int] | None = None,
           positive: tuple[str, ...] = (),
           ordered: tuple[tuple[str, str], ...] = ()) -> None:
    """ConfigError for the first field of cfg out of range: every float
    finite, each field in at_least at least its minimum, each in positive
    above 0, and the first field of each ordered pair at most the
    second."""
    at_least = at_least or {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f.name, "must be finite", value)
        if f.name in at_least and value < at_least[f.name]:
            raise ConfigError(f.name, f"must be at least {at_least[f.name]}", value)
        if f.name in positive and not value > 0:
            raise ConfigError(f.name, "must be above 0", value)
    for low, high in ordered:
        bound = getattr(cfg, high)
        if getattr(cfg, low) > bound:
            raise ConfigError(low, f"must be at most {high} ({bound!r})",
                              getattr(cfg, low))


@dataclass(frozen=True)
class SensorConfig:
    """Windowing and thresholding parameters for the accel/gyro pipeline."""

    acc_window: int = 50            # samples per motion/variance window
    variance_threshold: float = 0.5  # (m/s^2)^2, walking vs still
    gyro_window: int = 10           # samples per angular-rate window

    def __post_init__(self):
        _check(self, at_least={"acc_window": 1, "gyro_window": 1})


@dataclass(frozen=True)
class LandmarkConfig:
    """Thresholds for the three landmark detection rules."""

    walking_min_s: float = 2.0     # walking required on both sides of a stop
    still_min_s: float = 1.0       # stop duration window, lower bound
    still_max_s: float = 8.0       # stop duration window, upper bound
    gyro_rate_threshold: float = 1.1   # rad/s, windowed |mean wz|
    baro_window_s: float = 1.0     # tumbling pressure window
    baro_flat_threshold: float = 0.05  # hPa, adjacent window means equal
    baro_change_threshold: float = 0.3  # hPa, total ramp change

    def __post_init__(self):
        _check(self, positive=("baro_window_s",),
               ordered=(("still_min_s", "still_max_s"),))


class HeadingSource(enum.Enum):
    COMPASS = "pdr-compass"
    GYRO = "pdr-gyro"
    LANDMARK = "landmark"


@dataclass(frozen=True)
class PdrConfig:
    """Dead reckoning and landmark matching parameters."""

    initial_step_length: float = 0.63     # meters
    pressure_per_floor: float = 0.45      # hPa between adjacent floors
    heading_threshold: float = math.radians(HEADING_THRESHOLD_DEG)
    confidence_threshold: float = 0.25    # minimum landmark match score
    distance_floor: float = 0.1           # meters, caps the distance term
    min_steps_for_update: int = 3         # step-length calibration gate
    heading_source: HeadingSource = HeadingSource.LANDMARK

    def __post_init__(self):
        _check(self, positive=("initial_step_length", "pressure_per_floor",
                               "distance_floor"),
               at_least={"min_steps_for_update": 0})


@dataclass(frozen=True)
class QualityConfig:
    """Segment belief parameters."""

    period_min: float = 0.4        # seconds, plausible step period band
    period_max: float = 1.0
    sigma_floor: float = 0.005     # seconds, caps the steadiness term
    belief_threshold: float = 15.0  # minimum belief for map inclusion

    def __post_init__(self):
        _check(self, positive=("sigma_floor",),
               ordered=(("period_min", "period_max"),))


@dataclass(frozen=True)
class LocalizationConfig:
    k: int = 1
    metric: str = "euclidean"
    tau: float = -90.0            # dBm detection threshold
    tau_scope: str = "both"       # where tau filters: map, query, or both

    def __post_init__(self):
        _check(self, at_least={"k": 1})
        if self.metric not in METRICS:
            raise ConfigError("metric", f"must be one of {METRICS}", self.metric)
        if self.tau_scope not in TAU_SCOPES:
            raise ConfigError("tau_scope", f"must be one of {TAU_SCOPES}",
                              self.tau_scope)
