"""End-to-end acceptance gate.

Every test prints (and records for the terminal summary) one PASS/FAIL
line. Tolerances are pinned beside the assertions they guard; runtime
budgets are asserted where a criterion carries one.
"""

import json
import math
from functools import lru_cache
from time import perf_counter

import numpy as np

from conftest import ACCEPTANCE_RESULTS, demo_scenario
from stridemap.cli import main as cli_main
from stridemap.landmarks import Landmark, Rule, RuleKind
from stridemap.localization import (LocalizationConfig, VectorizedMap,
                                    evaluate, knn, read_fingerprints,
                                    vectorize_map)
from stridemap.config import HEADING_SOURCES
from stridemap.pdr import (PathSegment, PdrConfig, Pose, Trajectory,
                           landmark_confidence, run_pdr, trajectory_errors)
from stridemap.radiomap import (QualityConfig, RadioMap, RadioMapEntry,
                                build_radio_map, interpolate_rp,
                                segment_belief)
from stridemap.sensors import WifiScan, detect_steps
from stridemap.sim import (NoiseModel, generate_test_queries, generate_trace,
                           plan_walk)
from test_sim import corridor_dict

TOL_EQ = 1e-9          # closed-form oracle agreement
TOL_VISIT = 1e-6       # position error at a noiseless landmark visit
TOL_SELF = 1e-9        # self-query error; exact up to duplicate-entry ties


def record(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    return line


def first_pose(trace):
    return (float(trace.truth.xy[0, 0]), float(trace.truth.xy[0, 1]),
            float(trace.truth.floor[0]))


def truth_positions(trace, stride=1, integer_floor=False):
    out = []
    truth = trace.truth
    for i in range(0, len(truth.t), stride):
        f = float(truth.floor[i])
        if integer_floor and f != int(f):
            continue
        out.append((float(truth.xy[i, 0]), float(truth.xy[i, 1]), int(round(f))))
    return out


def tracked(scenario):
    trace = generate_trace(scenario.environment, scenario.walk, scenario.noise)
    traj = run_pdr(trace, scenario.environment.graph, first_pose(trace))
    return trace, traj


@lru_cache(maxsize=None)
def mixed_artifacts(seed: int):
    sc = demo_scenario("mixed_quality_demo", seed=seed)
    trace, traj = tracked(sc)
    return sc, trace, traj


# ---------------------------------------------------------------------------
# criterion 1: closed-form pieces against brute-force arithmetic


def oracle_belief(periods, cfg):
    if len(periods) < 2:
        return None
    valid = [p for p in periods if cfg.period_min <= p <= cfg.period_max]
    if not valid:
        return 0.0
    share = math.fsum(valid) / math.fsum(periods)
    mean = math.fsum(valid) / len(valid)
    sigma = math.sqrt(math.fsum((v - mean) ** 2 for v in valid) / len(valid))
    return share / max(sigma, cfg.sigma_floor)


def fold(angle):
    # independent circular fold via atan2 instead of modular reduction
    return abs(math.atan2(math.sin(angle), math.cos(angle)))


def oracle_confidence(rules, kind, sign, est_h, ref_h, traveled, ref_d, cfg):
    matched = False
    for rule in rules:
        if rule.kind is not kind:
            continue
        if rule.turn_sign is not None and rule.turn_sign != sign:
            continue
        matched = True
        break
    if not matched:
        return 0.0
    if fold(est_h - ref_h) >= cfg.heading_threshold:
        return 0.0
    return 1.0 / max(abs(ref_d - traveled), cfg.distance_floor)


def oracle_interp(p1, p2, t):
    if t <= p1.t or p2.t <= p1.t:
        return (p1.x, p1.y, p1.floor)
    if t >= p2.t:
        return (p2.x, p2.y, p2.floor)
    w = (t - p1.t) / (p2.t - p1.t)
    return (p1.x * (1 - w) + p2.x * w,
            p1.y * (1 - w) + p2.y * w,
            p1.floor * (1 - w) + p2.floor * w)


def oracle_vector(fp, universe, tau, min_rss):
    out = []
    for mac in universe:
        rss = fp.get(mac)
        # a reading no stronger than min_rss is no detection
        out.append(rss - min_rss if rss is not None and rss >= tau and rss > min_rss
                   else 0.0)
    return out


def oracle_euclidean(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def oracle_sorensen(a, b):
    return sum(abs(x - y) for x, y in zip(a, b)) / sum(x + y
                                                       for x, y in zip(a, b))


def test_criterion_1_closed_form_oracles():
    rng = np.random.default_rng(101)
    t0 = perf_counter()
    worst = {}

    n = 0
    diff = 0.0
    for _ in range(1200):
        periods = [float(p) for p in rng.uniform(0.1, 1.8, rng.integers(0, 10))]
        cfg = QualityConfig(period_min=float(rng.uniform(0.3, 0.5)),
                            period_max=float(rng.uniform(0.9, 1.2)),
                            sigma_floor=float(rng.uniform(1e-3, 1e-2)))
        got = segment_belief(PathSegment(points=[], periodicities=periods), cfg)
        want = oracle_belief(periods, cfg)
        assert (got is None) == (want is None)
        if got is not None:
            diff = max(diff, abs(got - want))
        n += 1
    worst["segment_belief"] = (n, diff)

    n = 0
    diff = 0.0
    kinds = list(RuleKind)
    while n < 1000:
        k_rules = []
        for _ in range(int(rng.integers(1, 4))):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            sign = int(rng.choice([-1, 1])) if (
                kind is RuleKind.GYRO and rng.random() < 0.5) else None
            k_rules.append(Rule(kind, sign))
        lm = Landmark("x", 0.0, 0.0, 1, tuple(k_rules))
        kind = kinds[int(rng.integers(0, len(kinds)))]
        sign = int(rng.choice([-1, 0, 1]))
        est_h, ref_h = (float(v) for v in rng.uniform(-2 * math.pi,
                                                      2 * math.pi, 2))
        traveled, ref_d = (float(v) for v in rng.uniform(0.0, 60.0, 2))
        r = float(rng.uniform(0.3, 0.8))  # the heading gate, radians
        cfg = PdrConfig(heading_threshold_deg=math.degrees(r),
                        distance_floor=float(rng.uniform(0.05, 0.2)))
        # regenerate draws sitting on the heading gate: the two folds may
        # disagree there by one ulp; the gate boundary is unit-tested exactly
        if abs(fold(est_h - ref_h) - cfg.heading_threshold) < 1e-6:
            continue
        got = landmark_confidence(lm, kind, est_h, ref_h, traveled, ref_d,
                                  cfg, detected_sign=sign)
        want = oracle_confidence(k_rules, kind, sign, est_h, ref_h,
                                 traveled, ref_d, cfg)
        diff = max(diff, abs(got - want))
        n += 1
    worst["landmark_confidence"] = (n, diff)

    n = 0
    diff = 0.0
    for _ in range(1200):
        t1 = float(rng.uniform(0, 100))
        dt = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 10))
        p1 = Pose(t1, *(float(v) for v in rng.uniform(-50, 50, 2)),
                  float(rng.uniform(0, 3)))
        p2 = Pose(t1 + dt, *(float(v) for v in rng.uniform(-50, 50, 2)),
                  float(rng.uniform(0, 3)))
        t = float(rng.uniform(t1 - 2, t1 + dt + 2))
        if rng.random() < 0.2:
            t = p1.t if rng.random() < 0.5 else p2.t
        got = interpolate_rp(p1, p2, t)
        want = oracle_interp(p1, p2, t)
        diff = max(diff, max(abs(g - w) for g, w in zip(got, want)))
        n += 1
    worst["interpolate_rp"] = (n, diff)

    macs = [f"ap{i}" for i in range(8)]
    n = 0
    diff = 0.0
    for _ in range(1200):
        universe = tuple(sorted(
            macs[i] for i in rng.choice(8, size=int(rng.integers(1, 8)),
                                        replace=False)))
        fp = {macs[int(i)]: int(rng.integers(-100, -19))
              for i in rng.choice(8, size=int(rng.integers(0, 7)),
                                  replace=False)}
        tau = float(rng.uniform(-100, -40))
        min_rss = float(rng.integers(-106, -96))
        got = read_fingerprints([fp]).vectors(universe, tau, min_rss)[0]
        want = oracle_vector(fp, universe, tau, min_rss)
        diff = max(diff, float(np.abs(got - np.array(want)).max()))
        n += 1
    worst["vectors"] = (n, diff)

    # the kNN kernel on one-entry maps, over vectors built as the pipeline
    # builds them: RSS in [-200, 0] dBm minus one below the weakest reading
    n = 0
    de = ds = 0.0
    for _ in range(1200):
        m = int(rng.integers(1, 11))
        rss = rng.integers(-200, 1, (2, m))
        present = rng.random((2, m)) > 0.3
        min_rss = float(rss.min()) - 1.0
        a, b = np.where(present, rss - min_rss, 0.0)
        if a.sum() + b.sum() == 0.0:
            a[0] = 1.0
        for metric in ("euclidean", "sorensen"):
            index = VectorizedMap(
                cfg=LocalizationConfig(metric=metric),
                universe=tuple(f"x{i}" for i in range(m)), min_rss=min_rss,
                matrix=b[None], xs=np.zeros(1), ys=np.zeros(1),
                floors=np.zeros(1, int))
            got = float(knn(index, a[None]).dist[0, 0])
            if metric == "euclidean":
                de = max(de, abs(got - oracle_euclidean(a, b)))
            else:
                ds = max(ds, abs(got - oracle_sorensen(a, b)))
        n += 1
    worst["euclidean"] = (n, de)
    worst["sorensen"] = (n, ds)

    elapsed = perf_counter() - t0
    max_diff = max(d for _, d in worst.values())
    counts_ok = all(c >= 1000 for c, _ in worst.values())
    ok = max_diff < TOL_EQ and counts_ok and elapsed < 5.0
    line = record(1, "closed-form oracles", ok,
                  f"max |diff| {max_diff:.3e} over "
                  f"{sum(c for c, _ in worst.values())} cases, "
                  f"{elapsed:.1f} s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 2: map builder against an independent double-loop reference


def reference_radio_map(traj, scans, cfg):
    # pure-python belief, each sum exactly rounded and each square one
    # rounded product: x ** 2 calls libm's pow, which may round differently
    def belief(periods):
        if len(periods) < 2:
            return None
        valid = [p for p in periods
                 if cfg.period_min <= p <= cfg.period_max]
        if not valid:
            return 0.0
        share = math.fsum(valid) / math.fsum(periods)
        mean = math.fsum(valid) / len(valid)
        sigma = math.sqrt(math.fsum((v - mean) * (v - mean) for v in valid) / len(valid))
        return share / max(sigma, cfg.sigma_floor)

    ordered = sorted(scans, key=lambda s: s.t)
    entries = []
    seen = set()
    for seg in traj.segments:
        b = belief(seg.periodicities)
        if b is None or not b > cfg.belief_threshold:
            continue
        pts = seg.points
        if len(pts) < 2:
            continue
        for sc in ordered:
            if sc.t < pts[0].t or sc.t > pts[-1].t:
                continue
            j = 0
            for i in range(len(pts) - 1):
                if pts[i].t <= sc.t:
                    j = i
            p1, p2 = pts[j], pts[j + 1]
            if sc.t <= p1.t or p2.t <= p1.t:
                x, y, f = p1.x, p1.y, p1.floor
            elif sc.t >= p2.t:
                x, y, f = p2.x, p2.y, p2.floor
            else:
                w = (sc.t - p1.t) / (p2.t - p1.t)
                x = p1.x + (p2.x - p1.x) * w
                y = p1.y + (p2.y - p1.y) * w
                f = p1.floor + (p2.floor - p1.floor) * w
            floor = int(math.floor(f + 0.5))
            key = (x, y, floor, sc.t)
            if key in seen:
                continue
            seen.add(key)
            entries.append(RadioMapEntry(x=x, y=y, floor=floor,
                                         belief=float(b),
                                         fp=dict(sc.readings)))
    return RadioMap(entries=entries,
                    config={"belief_threshold": cfg.belief_threshold,
                            "period_min": cfg.period_min,
                            "period_max": cfg.period_max,
                            "sigma_floor": cfg.sigma_floor})


def random_instance(rng):
    macs = [f"m{i}" for i in range(6)]
    segments = []
    t = float(rng.uniform(0, 10))
    for _ in range(int(rng.integers(1, 11))):
        n_pts = int(rng.integers(1, 7))
        times = t + np.cumsum(rng.uniform(0.5, 5.0, n_pts))
        t = float(times[-1])
        pts = [Pose(float(tt), float(rng.uniform(0, 30)),
                    float(rng.uniform(0, 30)), float(rng.uniform(0.5, 3.5)))
               for tt in times]
        periods = [float(p) for p in rng.uniform(0.2, 1.4,
                                                 rng.integers(0, 8))]
        segments.append(PathSegment(points=pts, periodicities=periods))
    scans = []
    t_lo = segments[0].points[0].t - 5.0
    for _ in range(int(rng.integers(0, 51))):
        if rng.random() < 0.25:
            seg = segments[int(rng.integers(0, len(segments)))]
            st = seg.points[int(rng.integers(0, len(seg.points)))].t
        else:
            st = float(rng.uniform(t_lo, t + 5.0))
        idx = rng.choice(6, size=int(rng.integers(0, 5)), replace=False)
        scans.append(WifiScan(t=st, readings={
            macs[int(i)]: int(rng.integers(-95, -29)) for i in idx}))
    cfg = QualityConfig(belief_threshold=float(
        rng.choice([0.0, 5.0, 10.0, 15.0, 20.0, 100.0])))
    return Trajectory(segments=segments), scans, cfg


def test_criterion_2_map_builder_reference():
    rng = np.random.default_rng(202)
    t0 = perf_counter()
    mismatches = 0
    for _ in range(200):
        traj, scans, cfg = random_instance(rng)
        got = build_radio_map(traj, scans, cfg)
        want = reference_radio_map(traj, scans, cfg)
        if got.entries != want.entries or got.config != want.config:
            mismatches += 1
    elapsed = perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    line = record(2, "map builder reference", ok,
                  f"{mismatches}/200 instances disagree, {elapsed:.1f} s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 3: landmark calibration beats raw compass and gyro headings


def test_criterion_3_heading_mode_comparison():
    t0 = perf_counter()
    means = {m: [] for m in HEADING_SOURCES}
    wins = 0
    for seed in range(10):
        # the demo file's noise: gyro bias and drift, 15 degree compass zones
        sc = demo_scenario("two_floor_demo", laps=2, seed=seed)
        trace = generate_trace(sc.environment, sc.walk, sc.noise)
        init = first_pose(trace)
        errs = {}
        for mode in HEADING_SOURCES:
            graph = sc.environment.graph if mode == "landmark" else None
            traj = run_pdr(trace, graph, init,
                           PdrConfig(heading_source=mode))
            errs[mode] = float(trajectory_errors(traj, trace).mean())
            means[mode].append(errs[mode])
        if errs["landmark"] < errs["pdr-compass"] and errs["landmark"] < errs["pdr-gyro"]:
            wins += 1
    elapsed = perf_counter() - t0
    lm = float(np.mean(means["landmark"]))
    co = float(np.mean(means["pdr-compass"]))
    gy = float(np.mean(means["pdr-gyro"]))
    ok = lm <= 1.5 and wins == 10 and elapsed < 30.0
    line = record(3, "heading mode comparison", ok,
                  f"landmark {lm:.2f} m vs compass {co:.2f} m / gyro "
                  f"{gy:.2f} m, {wins}/10 seeds, {elapsed:.1f} s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 4: belief gating separates good maps from bad ones


def test_criterion_4_quality_gate_payoff():
    t0 = perf_counter()
    wins = 0
    hi_all, lo_all = [], []
    for seed in range(10):
        sc, trace, traj = mixed_artifacts(seed)
        hi = build_radio_map(traj, trace.wifi, QualityConfig(belief_threshold=18.0))
        # the segments of belief below 10 alone, under a gate each clears
        lo = build_radio_map(
            Trajectory(segments=[s for s in traj.segments
                                 if (b := segment_belief(s)) is not None and b < 10.0]),
            trace.wifi, QualityConfig(belief_threshold=-math.inf))
        queries = generate_test_queries(
            sc.environment, truth_positions(trace, stride=4), sc.noise)
        e_hi = evaluate(queries, hi).mean_error_m
        e_lo = evaluate(queries, lo).mean_error_m
        hi_all.append(e_hi)
        lo_all.append(e_lo)
        if e_hi < e_lo:
            wins += 1
    elapsed = perf_counter() - t0
    ok = wins == 10 and elapsed < 30.0
    line = record(4, "quality gate payoff", ok,
                  f"high-belief {np.mean(hi_all):.2f} m vs low-belief "
                  f"{np.mean(lo_all):.2f} m, {wins}/10 seeds, {elapsed:.1f} s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 5: floor recognition under pressure noise


def floor_accuracy_for(seed, baro_std):
    sc = demo_scenario("two_floor_demo", laps=1,
                       noise=NoiseModel(seed=seed, baro_std=baro_std))
    trace, traj = tracked(sc)
    rm = build_radio_map(traj, trace.wifi)
    queries = generate_test_queries(
        sc.environment,
        truth_positions(trace, stride=2, integer_floor=True), sc.noise)
    return evaluate(queries, rm).floor_accuracy


def test_criterion_5_floor_recognition():
    t0 = perf_counter()
    clean = [floor_accuracy_for(seed, 0.0) for seed in range(8)]
    noisy = [floor_accuracy_for(seed, 0.05) for seed in range(8)]
    elapsed = perf_counter() - t0
    ok = (all(a == 1.0 for a in clean)          # exact when noiseless
          and all(a >= 0.95 for a in noisy)     # pinned floor under noise
          and elapsed < 20.0)
    line = record(5, "floor recognition", ok,
                  f"noiseless min {min(clean):.4f}, 0.05 hPa min "
                  f"{min(noisy):.4f} over 8 seeds, {elapsed:.1f} s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 6: threshold monotonicity


def test_criterion_6_threshold_monotonicity():
    _, trace, traj = mixed_artifacts(0)
    thresholds = [float(v) for v in range(0, 31, 3)]
    sizes = [len(build_radio_map(
        traj, trace.wifi, QualityConfig(belief_threshold=th)))
        for th in thresholds]
    entries_mono = all(a >= b for a, b in zip(sizes, sizes[1:]))

    rm = build_radio_map(traj, trace.wifi)
    taus = [float(v) for v in range(-100, -39, 5)]
    uni_sizes = [len(vectorize_map(rm, LocalizationConfig(tau=tau)).universe)
                 for tau in taus]
    universe_mono = all(a >= b for a, b in zip(uni_sizes, uni_sizes[1:]))

    rng = np.random.default_rng(606)
    macs = [f"ap{i}" for i in range(8)]
    vec_mono = True
    for _ in range(50):
        fp = {macs[int(i)]: int(rng.integers(-100, -19))
              for i in rng.choice(8, size=int(rng.integers(1, 8)),
                                  replace=False)}
        prev = None
        for tau in taus:
            v = read_fingerprints([fp]).vectors(tuple(macs), tau, -101.0)[0]
            if prev is not None and not np.all(v <= prev):
                vec_mono = False
            prev = v

    ok = entries_mono and universe_mono and vec_mono
    line = record(6, "threshold monotonicity", ok,
                  f"entries {sizes[0]}->{sizes[-1]}, universe "
                  f"{uni_sizes[0]}->{uni_sizes[-1]}, vectors componentwise "
                  f"over {len(taus)} taus")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 7: noiseless walk is tracked exactly


def test_criterion_7_noiseless_exactness():
    sc = demo_scenario("two_floor_demo", laps=0, noise=NoiseModel())
    plan = plan_walk(sc.environment, sc.walk)
    trace, traj = tracked(sc)

    steps = detect_steps(trace)
    steps_ok = len(steps) == plan.scripted_step_count

    truth = trace.truth
    nodes = sc.environment.graph.nodes
    visit_err = 0.0
    for t, lid in traj.visits:
        tx = float(np.interp(t, truth.t, truth.xy[:, 0]))
        ty = float(np.interp(t, truth.t, truth.xy[:, 1]))
        visit_err = max(visit_err, math.hypot(nodes[lid].x - tx,
                                              nodes[lid].y - ty))
    visits_ok = len(traj.visits) > 0 and visit_err < TOL_VISIT

    rm = build_radio_map(traj, trace.wifi)
    queries = [((e.x, e.y, e.floor), dict(e.fp)) for e in rm.entries]
    rep = evaluate(queries, rm)
    self_ok = rep.floor_accuracy == 1.0 and max(rep.errors) <= TOL_SELF

    ok = steps_ok and visits_ok and self_ok
    line = record(7, "noiseless exactness", ok,
                  f"steps {len(steps)}/{plan.scripted_step_count}, "
                  f"{len(traj.visits)} visits worst {visit_err:.2e} m, "
                  f"self-query max {max(rep.errors):.2e} m")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: CLI runs are byte-identical


def run_cli(args):
    assert cli_main(args) == 0


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_criterion_8_cli_reproducibility(tmp_path, capsys):
    shared = tmp_path / "shared"
    shared.mkdir()
    d = corridor_dict(walk={"waypoints": ["a", "b", "a"]})
    (shared / "scenario.json").write_text(json.dumps(d))
    (shared / "graph.json").write_text(json.dumps(d["environment"]["graph"]))

    run_cli(["simulate", str(shared / "scenario.json"), "--out", str(shared)])
    run_cli(["track", str(shared / "trace.jsonl"),
             "--graph", str(shared / "graph.json"), "--out", str(shared)])
    run_cli(["build-map", str(shared / "trajectory.jsonl"),
             str(shared / "trace.jsonl"), "--out", str(shared)])
    entries = json.loads((shared / "map.json").read_text())["entries"]
    (shared / "queries.jsonl").write_text("\n".join(
        json.dumps({"x": e["x"], "y": e["y"], "floor": e["floor"],
                    "fp": e["fp"]}) for e in entries) + "\n")
    mac, rss = next(iter(entries[0]["fp"].items()))

    commands = {
        "simulate": ["simulate", str(shared / "scenario.json")],
        "track": ["track", str(shared / "trace.jsonl"),
                  "--graph", str(shared / "graph.json")],
        "build-map": ["build-map", str(shared / "trajectory.jsonl"),
                      str(shared / "trace.jsonl")],
        "evaluate": ["evaluate", str(shared / "map.json"),
                     str(shared / "queries.jsonl")],
        "sweep": ["sweep", str(shared / "map.json"),
                  str(shared / "queries.jsonl"), "--taus=-90,-80"],
        "localize": ["localize", str(shared / "map.json"),
                     "--rss", f"{mac}={rss}"],
    }

    capsys.readouterr()   # drop the setup runs' progress output
    unstable = []
    for name, args in commands.items():
        outs, prints = [], []
        for run in ("one", "two"):
            out = tmp_path / f"{name}-{run}"
            run_cli(args + ["--out", str(out)])
            outs.append(dir_bytes(out))
            # progress lines echo the out dir, the one argument that differs
            prints.append(capsys.readouterr().out.replace(str(out), "OUT"))
        if outs[0] != outs[1] or prints[0] != prints[1]:
            unstable.append(name)

    ok = not unstable
    line = record(8, "cli reproducibility", ok,
                  "all six subcommands byte-identical across re-runs"
                  if ok else f"unstable: {', '.join(unstable)}")
    assert ok, line
