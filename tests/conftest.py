import numpy as np
import pytest

from stridemap.sensors import Channel, SensorTrace, WifiScan

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
