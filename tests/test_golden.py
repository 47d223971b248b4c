"""Golden digests of every file the CLI writes on the demo scenarios.

Criterion 8 checks that two runs agree with each other; this pins what they
agree on. Each demo scenario is simulated (seed 1), tracked in all three
heading modes, mapped from each trajectory, and its landmark map is
evaluated, swept and queried by localize. The sha256 of every output file,
manifests included with the run directory replaced by "<root>" and the
scenarios directory by "<scenarios>", must equal the digest below, in any
checkout. A change that alters a format on purpose updates these
digests and says so in CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from stridemap.cli import main
from stridemap.sim import generate_test_queries, load_scenario
from conftest import SCENARIOS

MODES = ("landmark", "pdr-compass", "pdr-gyro")


def run_pipeline(root, scenario_path):
    """Every subcommand on one scenario; returns {relative path: bytes}."""
    sc = load_scenario(scenario_path)
    graph = root / "graph.json"
    graph.write_text(json.dumps(
        json.loads(scenario_path.read_text())["environment"]["graph"]) + "\n")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("simulate", scenario_path, "--seed", 1, "--out", root / "sim")
    trace = root / "sim" / "trace.jsonl"
    for mode in MODES:
        run("track", trace, "--graph", graph, "--mode", mode,
            "--out", root / "track" / mode)
        run("build-map", root / "track" / mode / "trajectory.jsonl", trace,
            "--out", root / "map" / mode)

    map_path = root / "map" / "landmark" / "map.json"
    entries = json.loads(map_path.read_text())["entries"]
    positions = [(e["x"], e["y"], e["floor"]) for e in entries[::4]]
    queries = generate_test_queries(
        sc.environment, positions, replace(sc.noise, seed=3, shadowing_std=2.0))
    queries_path = root / "queries.jsonl"
    queries_path.write_text("".join(
        json.dumps({"x": x, "y": y, "floor": f, "fp": fp}) + "\n"
        for (x, y, f), fp in queries))
    fingerprint = root / "fp.json"
    fingerprint.write_text(json.dumps(queries[0][1]) + "\n")

    run("evaluate", map_path, queries_path, "--set", "localization.k=3",
        "--out", root / "evaluate")
    run("sweep", map_path, queries_path, "--taus=-90,-80,-70",
        "--out", root / "sweep")
    run("localize", map_path, "--fingerprint", fingerprint,
        "--out", root / "localize")

    files = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and "/" in rel:  # outputs live in subdirectories
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = data.replace(str(root).encode(), b"<root>").replace(
                    str(scenario_path.parent).encode(), b"<scenarios>")
            files[rel] = data
    return files


GOLDEN = {
    "two_floor_demo": {
        "evaluate/manifest.json":
            "ee16cb0240907ce7793e8cd089f680175a85285fcfd72860633878ddbe9bb5fb",
        "evaluate/report.csv":
            "4d07e7fe6e7e57ca4ef57f9cba9ab0acc2817c68c460dbec0efc1a83dd0b27c2",
        "evaluate/summary.json":
            "9005f81e7958f132db8d967bdc292293964bab728cb6fce9f835eb8844a45c59",
        "localize/location.json":
            "5fb1279d4d5eab81d18c4d07f68bce710622d042902d0e396d4b40c786e004d1",
        "localize/manifest.json":
            "7802294f524d18eaa8993ffa437371ac25cbe18b9b949d3fd093cfe22115f27d",
        "map/landmark/manifest.json":
            "c6e6e5a1dad4294325307a86923e7c8c24a525962b7b9ff8fea0fe1041a40df3",
        "map/landmark/map.json":
            "dd4f491597b2c324e5e866f322e7dadb3ea4ef4cfe3ea25fe66030c27e1cc19b",
        "map/landmark/segments.csv":
            "696c543d11068ca560aa4dab8fb799966ca9d28ce8596840a98b7db8bf4c6318",
        "map/pdr-compass/manifest.json":
            "d316e1bb98a6c9d0f7cd8ab2e2bd15c4e9fd44f6d85e8218f1200740537638cc",
        "map/pdr-compass/map.json":
            "bfc09c74ad8835dd8b6cb06c037a47fc7c796cafa66305479043965b9938b1b2",
        "map/pdr-compass/segments.csv":
            "3aaffdb162a7ec91858430a195f258d1f9c823107e4a2619d43a8ea03d4392d1",
        "map/pdr-gyro/manifest.json":
            "a7952edc66c7039f98b39708e464225b76d8ae85fcaef41031971233f6e6ffda",
        "map/pdr-gyro/map.json":
            "7d56b6b7dbf287fb8d64b2835218f2bf0e55fbdf66b2b49a5c0b6ccbfd88da54",
        "map/pdr-gyro/segments.csv":
            "3aaffdb162a7ec91858430a195f258d1f9c823107e4a2619d43a8ea03d4392d1",
        "sim/manifest.json":
            "9f597c88632c18fa805cfb2437cf648b8c02c76c525edd422b854ae1a3b1a99b",
        "sim/trace.jsonl":
            "6e703612eea1ddfd50b105f23a5bc51cbe07076d38c8a1f645f1d3ff5288965d",
        "sweep/manifest.json":
            "4a6ab73dfa2473c7fbac2d9c076a8c0d64e2cf801860bbfa49ea5cb162da8576",
        "sweep/sweep.csv":
            "e95ca65cb713dbc15ff0ccaf382b212973d24a5aff6370732883b91200249342",
        "track/landmark/error_cdf.csv":
            "6f7387d1545598c66e60a9ad6f68723e13f7011062058a59831cb268e52c69c1",
        "track/landmark/manifest.json":
            "be5bb221f9ae1cbee50c82387c8b62b425f9c90880cd233904f0789822d95400",
        "track/landmark/summary.json":
            "c1017fd724380c81920c47bb7608f786f9e55af77b1af0ae3c0de11cd3e7a241",
        "track/landmark/trajectory.jsonl":
            "e97c2ef80880c12ec12aa929bd984ae2089e9a6fd211c2cf5fc5007eadebea0b",
        "track/pdr-compass/error_cdf.csv":
            "73534f08907e4a1465196bbe8c02c33227cad72529efd5adeb73a40272ff6f46",
        "track/pdr-compass/manifest.json":
            "2594c6a8e24976cf5841d313218dd7dba74f3a5d11625ad8c698a400dae509bc",
        "track/pdr-compass/summary.json":
            "f3cee5f208c70dc52bb4dfa4e6f3e5a3920456c54b305f2cf9383bb3f4786258",
        "track/pdr-compass/trajectory.jsonl":
            "fe76c7eeb99e4169db45ea224321fd92e1905e7304e1479c2f5d3156346b4103",
        "track/pdr-gyro/error_cdf.csv":
            "918c56a2c674b3494b791c82bbea024a494e26195c907685d4b72b72075ea771",
        "track/pdr-gyro/manifest.json":
            "c717493c5983efdad6508059dd18129708fe9de2697b07030f7fd697f912bad7",
        "track/pdr-gyro/summary.json":
            "28a3357af0cdcc4cc18e7956a1cfcfd2d0862e535662910952c1bdc1f271821b",
        "track/pdr-gyro/trajectory.jsonl":
            "9f2cf803d443c4433c603cd22fa42704866da56b2b82c02eb47e1957971ab23c",
    },
    "mixed_quality_demo": {
        "evaluate/manifest.json":
            "ee16cb0240907ce7793e8cd089f680175a85285fcfd72860633878ddbe9bb5fb",
        "evaluate/report.csv":
            "bd923d841626e2b050d3da4dbd09ee684fc0beece1306366de2a75825e4724c1",
        "evaluate/summary.json":
            "12942b929e046d3ac26f3f946cb355dabc3b890f656f9d3729a04c00573f4c0d",
        "localize/location.json":
            "5fb1279d4d5eab81d18c4d07f68bce710622d042902d0e396d4b40c786e004d1",
        "localize/manifest.json":
            "7802294f524d18eaa8993ffa437371ac25cbe18b9b949d3fd093cfe22115f27d",
        "map/landmark/manifest.json":
            "c6e6e5a1dad4294325307a86923e7c8c24a525962b7b9ff8fea0fe1041a40df3",
        "map/landmark/map.json":
            "e33a352c91a942748d17e57389470484a76d5d522fff4d21db26c39ffcda7dfd",
        "map/landmark/segments.csv":
            "f9b03b5599fcc6f0ca2b8990b4f94140ea6e6ebef6acb548540a44eee8c1c90a",
        "map/pdr-compass/manifest.json":
            "d316e1bb98a6c9d0f7cd8ab2e2bd15c4e9fd44f6d85e8218f1200740537638cc",
        "map/pdr-compass/map.json":
            "3fd8686cca20df834f3fbd4e238cfaf705117a2ef7108edc3ddc3065695afbfc",
        "map/pdr-compass/segments.csv":
            "d1e6f57832a59097737423b229ba215295d540f9f8ce0f36d81becb73dc56ec2",
        "map/pdr-gyro/manifest.json":
            "a7952edc66c7039f98b39708e464225b76d8ae85fcaef41031971233f6e6ffda",
        "map/pdr-gyro/map.json":
            "3fd8686cca20df834f3fbd4e238cfaf705117a2ef7108edc3ddc3065695afbfc",
        "map/pdr-gyro/segments.csv":
            "d1e6f57832a59097737423b229ba215295d540f9f8ce0f36d81becb73dc56ec2",
        "sim/manifest.json":
            "c32510096e42ff71794e097653937156760de6daba615d5838f894fdc4049bd8",
        "sim/trace.jsonl":
            "b42d8ae88baea58b232de9ec0d0b9c8abfe656f5e2bd2d04e545c97008e521e1",
        "sweep/manifest.json":
            "4a6ab73dfa2473c7fbac2d9c076a8c0d64e2cf801860bbfa49ea5cb162da8576",
        "sweep/sweep.csv":
            "a3ae692b0481e59860a7883eaf65980c17c8b48b0ff53eba2fb7e85e62b50f44",
        "track/landmark/error_cdf.csv":
            "02720de476f3495566a4d2cf7276915a7123e90eb8f63cc97e20ffde97dfd747",
        "track/landmark/manifest.json":
            "be5bb221f9ae1cbee50c82387c8b62b425f9c90880cd233904f0789822d95400",
        "track/landmark/summary.json":
            "38cf0b36dcd299bad617a299a7e248b560d2950d7fc1eaa203127d22c32d6d87",
        "track/landmark/trajectory.jsonl":
            "65a3985a5a75d66f3e96e389320a13d18c355f1c0a77586794343e4084c97da0",
        "track/pdr-compass/error_cdf.csv":
            "53600253c8c1253647c476f347d8d5c6f0404541e2743dae993663713ea228e4",
        "track/pdr-compass/manifest.json":
            "2594c6a8e24976cf5841d313218dd7dba74f3a5d11625ad8c698a400dae509bc",
        "track/pdr-compass/summary.json":
            "529783d45533752ff94bc8d531a0c680c737512a4a76d0f345fb4801212fad5a",
        "track/pdr-compass/trajectory.jsonl":
            "d425bc240fd1d0c18eea22deccd22e7c3040cd8d7c4fc3d7d8cfa5ddd1b92497",
        "track/pdr-gyro/error_cdf.csv":
            "6664432fe405bb38e9a41a5515386a0baa1a5cfd27f88930a77bdcb60ee2a01d",
        "track/pdr-gyro/manifest.json":
            "c717493c5983efdad6508059dd18129708fe9de2697b07030f7fd697f912bad7",
        "track/pdr-gyro/summary.json":
            "f8c8ea9b2eb47ce26bd1fcf3b53cf8d7ff23faffc088dba46afe8a851aa87a6a",
        "track/pdr-gyro/trajectory.jsonl":
            "df4d123b58fe60df7e2388da58245b36f850c6ccf5d768cb28751394f4429b81",
    },
}


@pytest.mark.parametrize("name", ["two_floor_demo", "mixed_quality_demo"])
def test_outputs_match_their_golden_digests(tmp_path, name, capsys):
    files = run_pipeline(tmp_path, SCENARIOS / f"{name}.json")
    capsys.readouterr()
    digests = {rel: hashlib.sha256(data).hexdigest() for rel, data in files.items()}
    assert digests == GOLDEN[name]
