"""The parameters of every pipeline stage, in one module.

Each stage takes one frozen dataclass: SensorConfig (steps and motion),
LandmarkConfig (the three detectors), PdrConfig (dead reckoning and
landmark matching), QualityConfig (segment belief) and LocalizationConfig
(kNN matching). The CLI's config tree has one section per class and one
key per field, with the field default as the key's default.

The dataclasses are plain data, checked by no code when made. Their
section_reader checks a config read from a file or a flag (the config
tree, a map's stored quality config): each field's range or names are
declared once, in its metadata, as stridemap.records.field_reader reads
it, and in_order checks the one rule that spans two fields, a band (the
stop duration window, the step period band) whose lower end must not lie
above its upper end. This module needs nothing but the standard library
and records, so a command can read and check the whole tree without
loading the stages it does not run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .records import field_reader, members, shown

HEADING_SOURCES = ("pdr-compass", "pdr-gyro", "landmark")
METRICS = ("euclidean", "sorensen")
TAU_SCOPES = ("both", "map", "query")


@dataclass(frozen=True)
class SensorConfig:
    """Windowing and thresholding parameters for the accel/gyro pipeline."""

    acc_window: int = field(default=50, metadata={"at_least": 1})  # samples, variance window
    variance_threshold: float = 0.5  # (m/s^2)^2, walking vs still
    gyro_window: int = field(default=10, metadata={"at_least": 1})  # samples, angular rate


@dataclass(frozen=True)
class LandmarkConfig:
    """Thresholds for the three landmark detection rules."""

    walking_min_s: float = 2.0     # walking required on both sides of a stop
    still_min_s: float = 1.0       # stop duration window, lower bound
    still_max_s: float = 8.0       # stop duration window, upper bound
    gyro_rate_threshold: float = 1.1   # rad/s, windowed |mean wz|
    baro_window_s: float = field(default=1.0, metadata={"at_least": 1e-3})  # s, tumbling pressure window
    baro_flat_threshold: float = 0.05  # hPa, adjacent window means equal
    baro_change_threshold: float = 0.3  # hPa, total ramp change


@dataclass(frozen=True)
class PdrConfig:
    """Dead reckoning and landmark matching parameters."""

    initial_step_length: float = field(default=0.63, metadata={"above": 0, "at_most": 5})  # meters
    pressure_per_floor: float = field(default=0.45, metadata={"at_least": 1e-3})  # hPa per floor
    heading_threshold_deg: float = 30.0   # heading agreement gate, degrees
    confidence_threshold: float = 0.25    # minimum landmark match score
    distance_floor: float = field(default=0.1, metadata={"above": 0})  # m, caps the distance term
    min_steps_for_update: int = field(default=3, metadata={"at_least": 0})  # calibration gate
    heading_source: str = field(default="landmark", metadata={"one_of": HEADING_SOURCES})

    @property
    def heading_threshold(self) -> float:
        """The heading agreement gate in radians."""
        return math.radians(self.heading_threshold_deg)


@dataclass(frozen=True)
class QualityConfig:
    """Segment belief parameters."""

    period_min: float = 0.4        # seconds, plausible step period band
    period_max: float = 1.0
    sigma_floor: float = field(default=0.005, metadata={"above": 0})  # s, caps the steadiness term
    belief_threshold: float = 15.0  # minimum belief for map inclusion


@dataclass(frozen=True)
class LocalizationConfig:
    k: int = field(default=1, metadata={"at_least": 1})
    metric: str = field(default="euclidean", metadata={"one_of": METRICS})
    tau: float = -90.0            # dBm detection threshold
    tau_scope: str = field(default="both", metadata={"one_of": TAU_SCOPES})  # where tau filters


def section_reader(cls):
    """The reader of a config section, the config tree's or a map's: an
    object holding any of cls's fields, each read by its field_reader."""
    return members({f.name: field_reader(f) for f in fields(cls)})


# The band of each config whose lower end may not lie above its upper end.
_BANDS = {LandmarkConfig: ("still_min_s", "still_max_s"),
          QualityConfig: ("period_min", "period_max")}


def in_order(cfg, where: str, error: type[ValueError]):
    """cfg, unless the lower end of its band lies above the upper end:
    then error naming where, the config's place in its file."""
    if type(cfg) in _BANDS:
        low, high = _BANDS[type(cfg)]
        bound = getattr(cfg, high)
        if getattr(cfg, low) > bound:
            raise error(f"{where}.{low} must be at most {high} ({shown(bound)}), "
                        f"got {shown(getattr(cfg, low))}")
    return cfg
