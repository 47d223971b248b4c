"""Offline indoor localization toolkit.

Turns smartphone sensor traces (accelerometer, gyroscope, magnetometer,
barometer, WiFi scans) into calibrated walking trajectories and
quality-gated WiFi radio maps, and evaluates fingerprint localization
against those maps. A step-quality belief decides which walk segments are
trustworthy enough to calibrate stride length and to contribute
fingerprints.

Every name below is loaded from its module on first access, so importing
the package, or one command of its CLI, loads only the stages it uses.
"""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "config": ("LandmarkConfig", "LocalizationConfig", "PdrConfig",
               "QualityConfig", "SensorConfig"),
    "landmarks": ("Edge", "GraphError", "Landmark", "LandmarkEvent",
                  "LandmarkGraph", "Rule", "RuleKind", "detect_acc_landmarks",
                  "detect_baro_landmarks", "detect_gyro_landmarks",
                  "graph_from_dict", "load_landmark_graph"),
    "localization": ("EvaluationReport", "LocalizationResult", "Neighbors",
                     "Readings", "VectorizedMap", "evaluate", "knn",
                     "knn_localize", "read_fingerprints", "vectorize_map"),
    "pdr": ("MatchState", "attach_periodicities", "landmark_confidence",
            "match_landmark", "run_pdr", "trajectory_errors",
            "update_step_length"),
    "radiomap": ("MapFormatError", "RadioMap", "RadioMapEntry",
                 "build_radio_map", "interpolate_rp", "load_radio_map",
                 "save_radio_map", "segment_belief"),
    "sensors": ("Channel", "MotionState", "SensorTrace", "StepEvent",
                "TruthChannel", "classify_motion", "detect_steps", "dump_trace",
                "load_trace"),
    "sim": ("Ap", "CompassZone", "Environment", "NoiseModel", "Scenario",
            "ScenarioError", "WalkScript", "generate_test_queries",
            "generate_trace", "load_scenario", "plan_walk",
            "scenario_from_dict"),
    "tracefile": ("TraceError", "WifiScan", "load_scans"),
    "trajectory": ("PathSegment", "Pose", "Trajectory", "dump_trajectory",
                   "load_trajectory"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
