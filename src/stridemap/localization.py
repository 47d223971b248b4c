"""Fingerprint matching against a radio map.

Raw fingerprints (MAC -> RSS dBm) are recast as non-negative vectors over
the map's AP universe: a detected AP at or above the RSS threshold scores
its offset from one below the weakest map reading, everything else scores
zero. Nearest neighbors under Euclidean or Sorensen distance then vote on
position and floor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import inf
from typing import Sequence

import numpy as np

from .radiomap import RadioMap

METRICS = ("euclidean", "sorensen")
TAU_SCOPES = ("both", "map", "query")


@dataclass(frozen=True)
class LocalizationConfig:
    k: int = 1
    metric: str = "euclidean"
    tau: float = -90.0            # dBm detection threshold
    tau_scope: str = "both"       # where tau filters: map, query, or both

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.tau_scope not in TAU_SCOPES:
            raise ValueError(f"tau_scope must be one of {TAU_SCOPES}")


@dataclass(frozen=True, eq=False)
class FingerprintVector:
    ap_index: tuple[str, ...]
    values: np.ndarray
    tau: float
    min_rss: float


@dataclass(frozen=True)
class LocalizationResult:
    x: float
    y: float
    floor: int
    neighbors: tuple[tuple[int, float], ...]  # (entry index, distance) ascending


def map_min_rss(radio_map: RadioMap) -> float:
    """One below the weakest reading anywhere in the map, so every
    detected AP vectorizes to a strictly positive value."""
    lowest = None
    for e in radio_map.entries:
        for rss in e.fp.values():
            if lowest is None or rss < lowest:
                lowest = rss
    if lowest is None:
        raise ValueError("radio map has no RSS readings")
    return float(lowest - 1)


def map_universe(radio_map: RadioMap, tau: float = -inf) -> tuple[str, ...]:
    """Sorted MACs seen at or above tau in at least one map entry."""
    macs = {mac for e in radio_map.entries for mac, rss in e.fp.items() if rss >= tau}
    return tuple(sorted(macs))


def to_positive(
    fp: dict[str, int],
    universe: Sequence[str],
    tau: float,
    min_rss: float,
) -> FingerprintVector:
    """Non-negative vector form of a raw fingerprint.

    Component i is RSS_i - min_rss when AP i is present at or above tau,
    else 0. min_rss at most one below the weakest map reading keeps the
    present components positive; APs outside the universe are ignored.
    """
    values = np.zeros(len(universe))
    for i, mac in enumerate(universe):
        rss = fp.get(mac)
        if rss is not None and rss >= tau:
            values[i] = rss - min_rss
    return FingerprintVector(ap_index=tuple(universe), values=values,
                             tau=tau, min_rss=min_rss)


def _check_universe(a: FingerprintVector, b: FingerprintVector) -> None:
    if a.ap_index != b.ap_index:
        raise ValueError("fingerprint universes differ")


def euclidean(a: FingerprintVector, b: FingerprintVector) -> float:
    _check_universe(a, b)
    return float(np.sqrt(((a.values - b.values) ** 2).sum()))


def sorensen(a: FingerprintVector, b: FingerprintVector) -> float:
    """Normalized L1 dissimilarity in [0, 1] for non-negative vectors."""
    _check_universe(a, b)
    denom = float((a.values + b.values).sum())
    if denom == 0.0:
        raise ValueError("sorensen distance undefined for two empty fingerprints")
    return float(np.abs(a.values - b.values).sum() / denom)


@dataclass(frozen=True, eq=False)
class VectorizedMap:
    """Immutable matching index: vectorized entries plus their poses."""

    cfg: LocalizationConfig
    universe: tuple[str, ...]
    min_rss: float
    matrix: np.ndarray            # (n_entries, n_aps)
    xs: np.ndarray
    ys: np.ndarray
    floors: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)


def _scope_taus(cfg: LocalizationConfig) -> tuple[float, float]:
    map_tau = cfg.tau if cfg.tau_scope in ("both", "map") else -inf
    query_tau = cfg.tau if cfg.tau_scope in ("both", "query") else -inf
    return map_tau, query_tau


def vectorize_map(radio_map: RadioMap, cfg: LocalizationConfig = LocalizationConfig()) -> VectorizedMap:
    if not radio_map.entries:
        raise ValueError("radio map is empty")
    map_tau, _ = _scope_taus(cfg)
    min_rss = map_min_rss(radio_map)
    universe = map_universe(radio_map, map_tau)
    matrix = np.zeros((len(radio_map.entries), len(universe)))
    for row, e in enumerate(radio_map.entries):
        matrix[row] = to_positive(e.fp, universe, map_tau, min_rss).values
    return VectorizedMap(
        cfg=cfg,
        universe=universe,
        min_rss=min_rss,
        matrix=matrix,
        xs=np.array([e.x for e in radio_map.entries]),
        ys=np.array([e.y for e in radio_map.entries]),
        floors=np.array([e.floor for e in radio_map.entries]),
    )


def _distances(matrix: np.ndarray, q: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        return np.sqrt(((matrix - q) ** 2).sum(axis=1))
    diff = np.abs(matrix - q).sum(axis=1)
    denom = (matrix + q).sum(axis=1)
    # two empty fingerprints are indistinguishable: distance zero
    return np.divide(diff, denom, out=np.zeros_like(diff), where=denom != 0)


def _index(radio_map: RadioMap | VectorizedMap, cfg: LocalizationConfig) -> VectorizedMap:
    """The map vectorized under cfg; an index passed in must already be."""
    if not isinstance(radio_map, VectorizedMap):
        return vectorize_map(radio_map, cfg)
    if radio_map.cfg != cfg:
        raise ValueError("index was vectorized under a different config")
    return radio_map


def knn_localize(
    query: dict[str, int],
    radio_map: RadioMap | VectorizedMap,
    cfg: LocalizationConfig = LocalizationConfig(),
) -> LocalizationResult:
    """Estimate a pose for one raw fingerprint.

    Position is the centroid of the k nearest entries; the floor is the
    neighbors' majority floor, with count ties resolved to the single
    nearest neighbor's floor. Distance ties keep map insertion order. A k
    beyond the map size uses every entry.
    """
    index = _index(radio_map, cfg)
    _, query_tau = _scope_taus(cfg)
    q = to_positive(query, index.universe, query_tau, index.min_rss).values
    dist = _distances(index.matrix, q, cfg.metric)
    order = np.argsort(dist, kind="stable")[: min(cfg.k, len(dist))]
    neighbors = tuple((int(i), float(dist[i])) for i in order)

    x = float(index.xs[order].mean())
    y = float(index.ys[order].mean())
    counts = Counter(int(index.floors[i]) for i in order)
    top = max(counts.values())
    leaders = [f for f, c in counts.items() if c == top]
    floor = leaders[0] if len(leaders) == 1 else int(index.floors[order[0]])
    return LocalizationResult(x=x, y=y, floor=floor, neighbors=neighbors)


@dataclass(frozen=True)
class QueryResult:
    query_id: int
    truth_x: float
    truth_y: float
    truth_floor: int
    est_x: float
    est_y: float
    est_floor: int
    error_m: float
    floor_correct: bool


@dataclass
class EvaluationReport:
    """Per-query outcomes plus the aggregate accuracy statistics.

    mean_error_m and the percentiles cover only queries whose floor was
    recognized correctly; they are None when no floor was ever correct.
    """

    rows: list[QueryResult]
    floor_accuracy: float
    mean_error_m: float | None
    errors: list[float] = field(default_factory=list)  # sorted, correct-floor only
    p50: float | None = None
    p75: float | None = None
    p90: float | None = None

    def summary(self) -> dict:
        return {
            "floor_accuracy": self.floor_accuracy,
            "mean_error_m": self.mean_error_m,
            "p50": self.p50,
            "p75": self.p75,
            "p90": self.p90,
            "n_queries": len(self.rows),
        }


def evaluate(
    test: Sequence[tuple[tuple[float, float, int], dict[str, int]]],
    radio_map: RadioMap | VectorizedMap,
    cfg: LocalizationConfig = LocalizationConfig(),
) -> EvaluationReport:
    """Run every (truth pose, fingerprint) query against the map."""
    if not test:
        raise ValueError("no test queries")
    index = _index(radio_map, cfg)

    rows: list[QueryResult] = []
    for qid, (truth, fp) in enumerate(test):
        tx, ty, tf = float(truth[0]), float(truth[1]), int(truth[2])
        res = knn_localize(fp, index, cfg)
        err = float(np.hypot(res.x - tx, res.y - ty))
        rows.append(QueryResult(
            query_id=qid, truth_x=tx, truth_y=ty, truth_floor=tf,
            est_x=res.x, est_y=res.y, est_floor=res.floor,
            error_m=err, floor_correct=res.floor == tf))

    correct = sorted(r.error_m for r in rows if r.floor_correct)
    floor_accuracy = sum(r.floor_correct for r in rows) / len(rows)
    if correct:
        arr = np.array(correct)
        return EvaluationReport(
            rows=rows, floor_accuracy=floor_accuracy,
            mean_error_m=float(arr.mean()), errors=correct,
            p50=float(np.percentile(arr, 50)),
            p75=float(np.percentile(arr, 75)),
            p90=float(np.percentile(arr, 90)))
    return EvaluationReport(rows=rows, floor_accuracy=floor_accuracy,
                            mean_error_m=None)
