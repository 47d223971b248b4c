"""Every import of the test and source modules is used, at module level
and in each function body, and every private module-level name of the
package is read by some other part of it. The scans read each module's
syntax tree, so they need no linter. The package exports its names, loaded
from their modules on first access."""

import ast
import importlib
from pathlib import Path

import pytest

import stridemap

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "stridemap").glob("*.py"))
MODULES = [p for p in sorted([*(ROOT / "tests").glob("*.py"), *SOURCES])
           if p.name != "__init__.py"]  # a package's __init__ re-exports


def _bound(nodes) -> set[str]:
    """The names the import statements among nodes bind."""
    bound = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound


def _read(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """The names that source's imports bind and nothing in their scope
    reads: each module-level import against the whole module, and each
    import in a function body against that function."""
    tree = ast.parse(source)
    unused = _bound(tree.body) - _read(tree)
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unused |= _bound(ast.walk(fn)) - _read(fn)
    return sorted(unused)


def test_scan_finds_unused_imports():
    source = ("import a, b.c\nimport d as e\nfrom __future__ import annotations\n"
              "from f import g, h as i\n\ndef j():\n    return b.c(i)\n\n"
              "def k():\n    from m import n, o\n    if n:\n        import p\n"
              "    return n\n\nasync def q():\n    from r import s\n"
              "    return g\n")
    # module level: a and e (g is read in q); o, p and s in their functions
    assert unused_imports(source) == ["a", "e", "o", "p", "s"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each private name a module-level def, class or
    assignment binds; dunder names are left out."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(name, stmt) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def _referenced(node) -> set[str]:
    """The names node reads, as a name, an attribute or an import."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def unreferenced_privates(sources: list[str]) -> list[str]:
    """The private module-level names of sources that no statement other
    than their own definition reads, in any of the sources."""
    trees = [ast.parse(source) for source in sources]
    reads = [(stmt, _referenced(stmt)) for tree in trees for stmt in tree.body]
    return sorted(name for tree in trees for name, own in _private_definitions(tree)
                  if not any(name in names for stmt, names in reads if stmt is not own))


def test_scan_finds_unreferenced_privates():
    sources = ["_A = 1\n_B: int = 2\n\ndef _c():\n    return _c()\n\n"
               "class _D:\n    pass\n\ndef __getattr__(name):\n    return _A\n",
               "from m import _D\nx = m._E\n_E = _F = 3\n"]
    # _A is read by __getattr__, _D by the import, _E as an attribute;
    # _c reads only itself
    assert unreferenced_privates(sources) == ["_B", "_F", "_c"]


def test_every_private_package_name_is_read():
    assert unreferenced_privates([p.read_text() for p in SOURCES]) == []


# every name `from stridemap import ...` offers: every name it offered
# before, and load_scans, less to_positive, which only tests called, and
# HeadingSource, whose values are now the strings of config.HEADING_SOURCES
EXPORTS = [
    "Ap", "Channel", "CompassZone", "Edge", "Environment", "EvaluationReport",
    "GraphError", "Landmark", "LandmarkConfig",
    "LandmarkEvent", "LandmarkGraph", "LocalizationConfig",
    "LocalizationResult", "MapFormatError", "MatchState", "MotionState",
    "Neighbors", "NoiseModel", "PathSegment", "PdrConfig", "Pose",
    "QualityConfig", "RadioMap", "RadioMapEntry", "Readings", "Rule",
    "RuleKind", "Scenario", "ScenarioError", "SensorConfig", "SensorTrace",
    "StepEvent", "TraceError", "Trajectory", "TruthChannel", "VectorizedMap",
    "WalkScript", "WifiScan", "attach_periodicities", "build_radio_map",
    "classify_motion", "detect_acc_landmarks", "detect_baro_landmarks",
    "detect_gyro_landmarks", "detect_steps", "dump_trace", "dump_trajectory",
    "evaluate", "generate_test_queries", "generate_trace", "graph_from_dict",
    "interpolate_rp", "knn", "knn_localize", "landmark_confidence",
    "load_landmark_graph", "load_radio_map", "load_scans", "load_scenario",
    "load_trace", "load_trajectory", "match_landmark", "plan_walk",
    "read_fingerprints", "run_pdr", "save_radio_map", "scenario_from_dict",
    "segment_belief", "trajectory_errors", "update_step_length", "vectorize_map",
]


def test_package_exports_every_name_it_did():
    assert stridemap.__all__ == EXPORTS
    for name in EXPORTS:
        scope = {}
        exec(f"from stridemap import {name}", scope)
        assert scope[name] is getattr(stridemap, name)
        module = importlib.import_module(scope[name].__module__)
        assert getattr(module, name) is scope[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        stridemap.no_such_name
    with pytest.raises(ImportError):
        exec("from stridemap import no_such_name", {})


@pytest.mark.parametrize("module,name", [
    ("sensors", "SensorConfig"), ("landmarks", "LandmarkConfig"),
    ("pdr", "PdrConfig"),
    ("radiomap", "QualityConfig"), ("localization", "LocalizationConfig")])
def test_config_classes_keep_their_stage_module_names(module, name):
    config = importlib.import_module("stridemap.config")
    stage = importlib.import_module(f"stridemap.{module}")
    assert getattr(stage, name) is getattr(config, name)


def test_pdr_imports_no_landmark_detector():
    # the event list is built in landmarks (detect_events); pdr only reads it
    pdr = ast.parse((ROOT / "src" / "stridemap" / "pdr.py").read_text())
    detectors = [name for name in _bound(ast.walk(pdr))
                 if name.startswith("detect_") and name.endswith("_landmarks")]
    assert detectors == []
