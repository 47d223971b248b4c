"""Offline indoor localization toolkit.

Turns smartphone sensor traces (accelerometer, gyroscope, magnetometer,
barometer, WiFi scans) into calibrated walking trajectories and
quality-gated WiFi radio maps, and evaluates fingerprint localization
against those maps. A step-quality belief decides which walk segments are
trustworthy enough to calibrate stride length and to contribute
fingerprints.
"""

from .landmarks import (
    Edge,
    GraphError,
    Landmark,
    LandmarkConfig,
    LandmarkEvent,
    LandmarkGraph,
    Rule,
    RuleKind,
    detect_acc_landmarks,
    detect_baro_landmarks,
    detect_gyro_landmarks,
    graph_from_dict,
    graph_to_dict,
    load_landmark_graph,
)
from .localization import (
    EvaluationReport,
    LocalizationConfig,
    LocalizationResult,
    Neighbors,
    Readings,
    VectorizedMap,
    evaluate,
    knn,
    knn_localize,
    map_min_rss,
    map_universe,
    read_fingerprints,
    to_positive,
    vectorize_map,
)
from .pdr import (
    HeadingSource,
    MatchState,
    PathSegment,
    PdrConfig,
    Pose,
    Trajectory,
    attach_periodicities,
    dump_trajectory,
    landmark_confidence,
    load_trajectory,
    match_landmark,
    run_pdr,
    trajectory_errors,
    update_step_length,
)
from .radiomap import (
    MapFormatError,
    QualityConfig,
    RadioMap,
    RadioMapEntry,
    build_radio_map,
    interpolate_rp,
    load_radio_map,
    save_radio_map,
    segment_belief,
)
from .sensors import (
    Channel,
    MotionState,
    SensorConfig,
    SensorTrace,
    StepEvent,
    TraceError,
    TruthChannel,
    WifiScan,
    classify_motion,
    detect_steps,
    dump_trace,
    load_trace,
)
from .sim import (
    Ap,
    CompassZone,
    Environment,
    NoiseModel,
    Scenario,
    ScenarioError,
    WalkScript,
    generate_test_queries,
    generate_trace,
    load_scenario,
    mixed_quality_scenario,
    plan_walk,
    scenario_from_dict,
    scenario_to_dict,
    two_floor_scenario,
)

__version__ = "0.1.0"
