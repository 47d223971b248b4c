import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

# When a hypothesis test fails, hypothesis's pytest plugin imports this
# module, which imports libcst where it is installed; libcst's import
# raises a DeprecationWarning (from mypy_extensions) that the error filter
# in pyproject.toml would turn into a pytest INTERNALERROR ending the whole
# run. Import it once here, that warning ignored for this import alone.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

from stridemap.sensors import Channel, SensorTrace, WifiScan
from stridemap.sim import load_scenario

RATE = 50.0
DT = 1.0 / RATE
GRAVITY = 9.81


def accel_channel(mags: np.ndarray, t0: float = 0.0) -> Channel:
    """Vertical-only accelerometer channel from a magnitude series."""
    n = len(mags)
    t = t0 + np.arange(n) * DT
    v = np.column_stack([np.zeros(n), np.zeros(n), mags])
    return Channel(t=t, v=v)


def gyro_channel(wz: np.ndarray, t0: float = 0.0) -> Channel:
    n = len(wz)
    t = t0 + np.arange(n) * DT
    v = np.column_stack([np.zeros(n), np.zeros(n), wz])
    return Channel(t=t, v=v)


def flat(seconds: float) -> np.ndarray:
    return np.full(int(round(seconds * RATE)), GRAVITY)


def walking(seconds: float, period: float = 0.5, amplitude: float = 2.0) -> np.ndarray:
    t = np.arange(int(round(seconds * RATE))) * DT
    return GRAVITY + amplitude * np.sin(2 * np.pi * t / period)


def trace_from_mags(mags: np.ndarray) -> SensorTrace:
    return SensorTrace(accel=accel_channel(mags))


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# two_floor_demo.json's walk ends with this lap of the ground floor
GROUND_LAP = ("D1", "C2", "D2", "C3", "C4", "C1")


def demo_scenario(name: str, laps=None, noise=None, **noise_fields):
    """The scenario of scenarios/<name>.json. With laps, the walk's
    closing ground-floor lap is walked that many times instead (0 ends the
    walk where the lap starts); noise replaces the file's noise model, and
    noise_fields then replace fields of whichever model is used."""
    sc = load_scenario(SCENARIOS / f"{name}.json")
    walk = sc.walk
    if laps is not None:
        route = walk.waypoints
        assert route[-len(GROUND_LAP):] == GROUND_LAP, \
            f"{name}.json's walk no longer ends with the lap {GROUND_LAP}"
        walk = replace(walk, waypoints=route[:-len(GROUND_LAP)] + GROUND_LAP * laps)
    return replace(sc, walk=walk,
                   noise=replace(sc.noise if noise is None else noise, **noise_fields))


@pytest.fixture
def wifi_scan():
    def make(t: float, **rss: int) -> WifiScan:
        return WifiScan(t=t, readings={k.replace("_", ":"): v
                                       for k, v in rss.items()})
    return make


ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
