"""Fingerprint matching against a radio map.

Raw fingerprints (MAC -> RSS dBm) are recast as non-negative vectors over
the map's AP universe. min_rss is one below the weakest map reading; an AP
read at or above the RSS threshold and above min_rss is detected and
scores its offset from min_rss, everything else scores zero. Nearest
neighbors under Euclidean or Sorensen distance then vote on position and
floor.

Two scorers apply that one rule. knn scores a whole matrix of query
vectors with numpy against the map's index (VectorizedMap, made by
vectorize_map): evaluate passes every query at once, sweep once per tau.
knn_localize takes the RadioMap itself and scores its one fingerprint in
plain Python, so a single fix never imports numpy, whose import takes
longer than the fix itself on a map of up to about 30,000 entries. Since
every loader bounds RSS to [RSS_MIN_DBM, RSS_MAX_DBM], vector components
are small integers and every distance sum is exact in any order; both
scorers add the centroid left to right, nearest neighbour first. So the
two return the same bits. knn forms its sums in float32, half the memory
traffic, when the arrays it is given show every component an integer and
no sum past 2^24 in magnitude, so that float32 holds each sum exactly, and
in float64 otherwise; the distances it returns are float64 either way.
The matching parameters (k, metric, tau and its scope) are
LocalizationConfig, in stridemap.config.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from math import floor, inf, sqrt
from operator import mul, sub
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .config import LocalizationConfig

if TYPE_CHECKING:  # numpy is imported by the batch functions that use it
    import numpy as np

    from .radiomap import RadioMap

@dataclass(frozen=True)
class LocalizationResult:
    x: float
    y: float
    floor: int
    neighbors: tuple[tuple[int, float], ...]  # (entry index, distance) ascending


@dataclass(frozen=True, eq=False)
class Readings:
    """A batch of raw fingerprints as one matrix: rss[i, j] is fingerprint
    i's reading of macs[j] in dBm, NaN where it has none. NaN compares
    false with every tau, so an absent AP never counts as detected."""

    macs: tuple[str, ...]         # sorted
    rss: np.ndarray               # (n_fingerprints, n_macs)

    def universe(self, tau: float = -inf) -> tuple[str, ...]:
        """Sorted MACs read at or above tau by at least one fingerprint."""
        seen = (self.rss >= tau).any(axis=0)
        return tuple(mac for mac, hit in zip(self.macs, seen.tolist()) if hit)

    def vectors(self, universe: Sequence[str], tau: float, min_rss: float) -> np.ndarray:
        """Non-negative vector form of every fingerprint over universe.

        Component j is RSS_j - min_rss when AP j is read at or above tau
        and above min_rss, else 0: a reading no stronger than min_rss, which
        lies below the weakest map reading, is no detection. APs outside the
        universe are ignored.
        """
        import numpy as np
        col = {mac: j for j, mac in enumerate(self.macs)}
        have = [j for j, mac in enumerate(universe) if mac in col]
        rss = self.rss[:, [col[universe[j]] for j in have]]
        out = np.zeros((len(self.rss), len(universe)))
        out[:, have] = np.where((rss >= tau) & (rss > min_rss), rss - min_rss, 0.0)
        return out


def read_fingerprints(fps: Sequence[dict[str, int]]) -> Readings:
    """Readings of fps, in order, over every MAC any of them reports."""
    import numpy as np
    macs = sorted({mac for fp in fps for mac in fp})
    col = {mac: j for j, mac in enumerate(macs)}
    rows = np.repeat(np.arange(len(fps)), [len(fp) for fp in fps])
    cols = [col[mac] for fp in fps for mac in fp]
    matrix = np.full((len(fps), len(macs)), np.nan)
    matrix[rows, cols] = [rss for fp in fps for rss in fp.values()]
    return Readings(macs=tuple(macs), rss=matrix)


class _Components(dict):
    """Readings.vectors' rule in plain Python: self[rss] is the component
    of a reading under tau and min_rss, worked out once per distinct
    reading, and self[None], an AP not read, is 0. Looking readings up
    spares a Python-level test per AP and entry."""

    def __init__(self, tau: float, min_rss: float):
        super().__init__({None: 0.0})
        self.tau, self.min_rss = tau, min_rss

    def __missing__(self, rss: float) -> float:
        value = self[rss] = (rss - self.min_rss
                             if rss >= self.tau and rss > self.min_rss else 0.0)
        return value


def _vector(fp: dict[str, int], universe: Sequence[str], tau: float,
            min_rss: float) -> list[float]:
    """One fingerprint's components over universe, in plain Python."""
    return list(map(_Components(tau, min_rss).__getitem__, map(fp.get, universe)))


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


def vectorize_map(radio_map: RadioMap, cfg: LocalizationConfig = LocalizationConfig(),
                  readings: Readings | None = None,
                  reuse: VectorizedMap | None = None) -> VectorizedMap:
    """The matching index of radio_map under cfg. readings, when given,
    must be read_fingerprints of the map's entries, and reuse an index of
    the same map under another config, whose min_rss and pose columns are
    taken as they are; a caller vectorizing one map under several configs
    reads and builds those once."""
    import numpy as np
    if not radio_map.entries:
        raise ValueError("radio map is empty")
    map_tau, _ = _scope_taus(cfg)
    if readings is None:
        readings = read_fingerprints([e.fp for e in radio_map.entries])
    elif len(readings.rss) != len(radio_map.entries):
        raise ValueError("readings do not match the map entries")
    if reuse is None:
        if not np.isfinite(readings.rss).any():
            raise ValueError("radio map has no RSS readings")
        # one below the weakest reading anywhere in the map, so every
        # detected AP vectorizes to a strictly positive value
        min_rss = float(np.nanmin(readings.rss)) - 1.0
        xs = np.array([e.x for e in radio_map.entries])
        ys = np.array([e.y for e in radio_map.entries])
        floors = np.array([e.floor for e in radio_map.entries])
    elif len(reuse) != len(radio_map.entries):
        raise ValueError("reused index does not match the map entries")
    else:
        min_rss, xs, ys, floors = reuse.min_rss, reuse.xs, reuse.ys, reuse.floors
    universe = readings.universe(map_tau)
    return VectorizedMap(cfg=cfg, universe=universe, min_rss=min_rss,
                         matrix=readings.vectors(universe, map_tau, min_rss),
                         xs=xs, ys=ys, floors=floors)


@dataclass(frozen=True, eq=False)
class Neighbors:
    """The k nearest entries of every query row and the pose they vote for.

    Row i of index and dist lists query i's neighbours nearest first, with
    distance ties in map order. x and y are their centroid; floor is their
    majority floor, a count tie going to the nearest neighbour's floor.
    """

    index: np.ndarray             # (n_queries, k) entry indices
    dist: np.ndarray              # (n_queries, k)
    x: np.ndarray                 # (n_queries,)
    y: np.ndarray
    floor: np.ndarray


def _scorer(m: np.ndarray, metric: str) -> tuple[
        Callable[[np.ndarray], np.ndarray],
        Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """The (rank, finish) pair that scores query rows q against the rows
    of m. rank(q) is a (queries, entries) score whose order along each
    row, ties included, is the order of the distances; finish(q, picked)
    turns the float64 scores picked from each row into distances.

    Every component is 0 or an RSS in [-200, 0] dBm minus an integral
    min_rss in [-201, -1] below it, so an integer in [0, 201]. Each sum below
    is then an exact integer, whatever order BLAS adds in: always in float64,
    and in float32 too, the dtype of m and q where knn finds _fits_float32,
    as none then passes 2^24. So the result has the same bits as summing
    (m - q)**2, or |m - q| over m + q, entry by entry in float64. Euclidean
    ranks on the partial score |m|^2 - 2 q.m, exact in the same way: it is
    the squared distance less |q|^2, which is the same along a row, and
    sqrt keeps distinct integers distinct. So the neighbours and their ties
    are those of the distance, and only the k picked get |q|^2, summed in
    float64 from the float64 rows, added and the root taken. Sorensen ranks
    on the distance itself, its integer sums divided in float64.
    """
    import numpy as np
    if metric == "euclidean":
        m_sq = (m * m).sum(axis=1)
        minus_2mt = -2 * m.T

        def partial(q: np.ndarray) -> np.ndarray:
            part = q @ minus_2mt
            part += m_sq
            return part

        def distance(q: np.ndarray, picked: np.ndarray) -> np.ndarray:
            return np.sqrt(picked + (q * q).sum(axis=1)[:, None])
        return partial, distance
    columns = np.ascontiguousarray(m.T)
    m_sum = m.sum(axis=1)

    def sorensen(q: np.ndarray) -> np.ndarray:
        # sum |a - b| = sum a + sum b - 2 sum min(a, b), one AP at a time
        shared = np.zeros((len(q), len(m)), m.dtype)
        low = np.empty_like(shared)
        for j, column in enumerate(columns):
            shared += np.minimum(q[:, j, None], column, out=low)
        total = m_sum + q.sum(axis=1)[:, None]
        diff = total - 2 * shared
        # two empty fingerprints are indistinguishable: distance zero
        return np.divide(diff, total, out=np.zeros(diff.shape),
                         where=total != 0, dtype=np.float64)
    return sorensen, lambda q, score: score


# float32 holds every integer of at most this magnitude exactly
FLOAT32_EXACT = 2.0 ** 24


def _fits_float32(m: np.ndarray, q: np.ndarray, metric: str) -> bool:
    """Whether _scorer may score the rows of q against those of m in
    float32 and get float64's bits: every component of both is an integer
    and no sum it forms, partial sums in any order included, can pass
    FLOAT32_EXACT in magnitude. The bounds are over the largest rows, not
    over pairs, so they can only err towards float64."""
    import numpy as np
    if not ((np.rint(m) == m).all() and (np.rint(q) == q).all()):
        return False
    if metric == "euclidean":
        # each partial sum of q.(-2 m), and |m|^2 - 2 q.m itself, lies
        # within |m|^2 + 2 |q| |m| of 0 (Cauchy-Schwarz). With M and Q the
        # largest |m|^2 and |q|^2: M + 2 sqrt(Q M) <= 2^24, squared so that
        # it is checked exactly, and Q <= 2^24 keeps q exact where M is 0
        m_sq = float((m * m).sum(axis=1).max(initial=0.0))
        q_sq = float((q * q).sum(axis=1).max(initial=0.0))
        return (m_sq <= FLOAT32_EXACT and q_sq <= FLOAT32_EXACT
                and (FLOAT32_EXACT - m_sq) ** 2 >= 4 * q_sq * m_sq)
    # each partial sum of sum a, sum b and sum min(a, b) lies within
    # sum |a| + sum |b| of 0, and so does sum a + sum b - 2 sum min(a, b)
    # when no component is negative, else within three times that
    reach = (float(np.abs(m).sum(axis=1).max(initial=0.0))
             + float(np.abs(q).sum(axis=1).max(initial=0.0)))
    if m.min(initial=0.0) < 0 or q.min(initial=0.0) < 0:
        reach *= 3
    return reach <= FLOAT32_EXACT


def _nearest(score: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the indices of the k smallest scores in ascending order,
    ties in index order (a stable argsort cut at k), and those scores in
    float64, which holds a float32 score exactly. Each of k argmin passes
    takes the first of the row's remaining minima, and every pass but the
    last sets it to inf in score, which is overwritten."""
    import numpy as np
    rows = np.arange(len(score))
    index = np.empty((len(score), k), dtype=np.intp)
    picked = np.empty((len(score), k))
    for j in range(k):
        if j:
            score[rows, col] = inf
        col = score.argmin(axis=1)
        index[:, j] = col
        picked[:, j] = score[rows, col]
    return index, picked


# float32 elements per row-chunk temporary of the kNN kernel: 512 KB, small
# enough that sorensen's per-AP passes stay in cache. A float64 score, when
# the inputs do not fit float32, takes half as many rows.
CHUNK_ELEMENTS = 1 << 17


def knn(index: VectorizedMap, queries: np.ndarray) -> Neighbors:
    """The kNN fix of every row of queries (vectors over index.universe).

    Rows are scored in float32 where _fits_float32 finds every sum exact
    in it, else in float64, in chunks whose temporaries, the (rows,
    entries) score matrix and the (rows, k, floors) vote, hold about
    CHUNK_ELEMENTS elements between them, half as many when the score is
    float64, so memory does not grow with the number of queries. A k
    beyond the map size uses every entry.
    """
    import numpy as np
    if queries.ndim != 2 or queries.shape[1] != len(index.universe):
        raise ValueError(f"query vectors need one column per universe AP "
                         f"({len(index.universe)}), got shape {queries.shape}")
    k = min(index.cfg.k, len(index))
    labels, codes = np.unique(index.floors, return_inverse=True)
    dtype = (np.float32 if _fits_float32(index.matrix, queries, index.cfg.metric)
             else np.float64)
    rank, finish = _scorer(index.matrix.astype(dtype, copy=False), index.cfg.metric)
    scored = queries.astype(dtype, copy=False)
    elements = CHUNK_ELEMENTS if dtype is np.float32 else CHUNK_ELEMENTS // 2
    step = max(1, elements // (len(index) + k * len(labels)))
    parts = []
    # at least one chunk, so that an empty batch still gives (0, k) arrays
    for lo in range(0, max(len(queries), 1), step):
        chunk = queries[lo:lo + step]
        nearest, picked = _nearest(rank(scored[lo:lo + step]), k)
        votes = (codes[nearest][:, :, None] == np.arange(len(labels))).sum(axis=1)
        top = votes.max(axis=1, keepdims=True)
        sole = (votes == top).sum(axis=1) == 1
        floor = np.where(sole, labels[votes.argmax(axis=1)],
                         index.floors[nearest[:, 0]])
        dist = finish(chunk, picked)
        # the centroid is summed from 0.0, nearest first, as knn_localize
        # adds it; numpy's mean adds 8 or more in another order
        x, y = np.zeros(len(chunk)), np.zeros(len(chunk))
        for column in nearest.T:
            x += index.xs[column]
            y += index.ys[column]
        parts.append((nearest, dist, x / k, y / k, floor))
    return Neighbors(*(np.concatenate(col) for col in zip(*parts)))


def _distances(rows: Iterable[Iterable[float]], q: list[float],
               metric: str) -> list[float]:
    """The distance from q to each row, as knn's scorer computes it. Every
    sum adds integers exactly (see _scorer), so each distance has knn's
    bits, and ranking on it gives knn's neighbours and ties."""
    if metric == "euclidean":
        def distance(row: Iterable[float]) -> float:
            d = list(map(sub, row, q))
            return sqrt(sum(map(mul, d, d)))
    else:
        q_sum = sum(q)

        def distance(row: Iterable[float]) -> float:
            row = list(row)
            total = sum(row) + q_sum
            return (total - 2.0 * sum(map(min, row, q))) / total if total else 0.0
    return list(map(distance, rows))


def knn_localize(
    query: dict[str, int],
    radio_map: RadioMap,
    cfg: LocalizationConfig = LocalizationConfig(),
) -> LocalizationResult:
    """Estimate a pose for one raw fingerprint, in plain Python.

    The vectors, distances, neighbours, centroid and floor vote are knn's,
    bit for bit, but no numpy is imported: for one fingerprint that import
    takes longer than scoring a map of up to about 30,000 entries.
    """
    map_tau, query_tau = _scope_taus(cfg)
    entries = radio_map.entries
    if not entries:
        raise ValueError("radio map is empty")
    weakest = min((min(e.fp.values()) for e in entries if e.fp), default=None)
    if weakest is None:
        raise ValueError("radio map has no RSS readings")
    min_rss = weakest - 1.0
    universe = sorted({mac for e in entries for mac, rss in e.fp.items()
                       if rss >= map_tau})
    # each row is made as it is scored, so no map matrix is held
    component = _Components(map_tau, min_rss).__getitem__
    rows = (map(component, map(e.fp.get, universe)) for e in entries)
    dist = _distances(rows, _vector(query, universe, query_tau, min_rss), cfg.metric)
    # ties in map order, as a stable sort gives them
    nearest = heapq.nsmallest(cfg.k, range(len(dist)), key=dist.__getitem__)
    x = y = 0.0
    for i in nearest:
        x += entries[i].x
        y += entries[i].y
    floors = [entries[i].floor for i in nearest]
    (floor, top), *rest = Counter(floors).most_common(2)
    if rest and rest[0][1] == top:
        floor = floors[0]
    return LocalizationResult(
        x=x / len(nearest), y=y / len(nearest), floor=int(floor),
        neighbors=tuple((i, dist[i]) for i in nearest))


def _percentile(ranked: list[float], p: float) -> float:
    """np.percentile(ranked, p) of a sorted non-empty list by numpy's
    default linear method, bit for bit, without the numpy.ma import it
    costs: the virtual index (n - 1) * q (q = p / 100), and the values
    at its floor i and at i + 1 lerped by numpy's _lerp, from the nearer
    of the two; at or past the last index, the last value twice."""
    at = (len(ranked) - 1) * (p / 100)
    if at >= len(ranked) - 1:
        i = j = -1
    else:
        i = floor(at)
        j = i + 1
    a, b, t = ranked[i], ranked[j], at - i
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


@dataclass(eq=False)
class EvaluationReport:
    """Per-query outcomes as columns, element i for query i, plus the
    aggregate accuracy statistics.

    mean_error_m and the percentiles cover only queries whose floor was
    recognized correctly; they are None when no floor was ever correct.
    """

    truth_x: np.ndarray
    truth_y: np.ndarray
    truth_floor: np.ndarray
    fix: Neighbors                # the estimates: fix.x, fix.y, fix.floor
    error_m: np.ndarray           # planar distance from truth to the fix
    floor_correct: np.ndarray     # bool
    floor_accuracy: float
    errors: np.ndarray            # sorted error_m of the floor-correct queries
    mean_error_m: float | None = None
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
            "n_queries": len(self.error_m),
        }


def evaluate(
    test: Sequence[tuple[tuple[float, float, int], dict[str, int]]],
    radio_map: RadioMap | VectorizedMap,
    cfg: LocalizationConfig = LocalizationConfig(),
    readings: Readings | None = None,
    reuse: EvaluationReport | None = None,
) -> EvaluationReport:
    """Run every (truth pose, fingerprint) query against the map in one knn
    call. readings, when given, must be read_fingerprints of the test
    fingerprints, and reuse a report on the same queries, whose truth
    columns are taken as they are; a caller scoring the same queries under
    several configs reads and builds those once."""
    import numpy as np
    if not test:
        raise ValueError("no test queries")
    index = radio_map if isinstance(radio_map, VectorizedMap) else vectorize_map(radio_map, cfg)
    if index.cfg != cfg:
        raise ValueError("index was vectorized under a different config")
    if readings is None:
        readings = read_fingerprints([fp for _, fp in test])
    elif len(readings.rss) != len(test):
        raise ValueError("readings do not match the test queries")
    if reuse is None:
        tx = np.array([float(t[0]) for t, _ in test])
        ty = np.array([float(t[1]) for t, _ in test])
        tf = np.array([int(t[2]) for t, _ in test])
    elif len(reuse.error_m) != len(test):
        raise ValueError("reused report does not match the test queries")
    else:
        tx, ty, tf = reuse.truth_x, reuse.truth_y, reuse.truth_floor
    _, query_tau = _scope_taus(cfg)
    nb = knn(index, readings.vectors(index.universe, query_tau, index.min_rss))
    error_m = np.hypot(nb.x - tx, nb.y - ty)
    floor_correct = nb.floor == tf
    correct = np.sort(error_m[floor_correct])
    stats = {}
    if len(correct):
        ranked = correct.tolist()
        stats = dict(mean_error_m=float(correct.mean()),
                     p50=_percentile(ranked, 50), p75=_percentile(ranked, 75),
                     p90=_percentile(ranked, 90))
    return EvaluationReport(
        truth_x=tx, truth_y=ty, truth_floor=tf, fix=nb, error_m=error_m,
        floor_correct=floor_correct,
        floor_accuracy=int(floor_correct.sum()) / len(test), errors=correct,
        **stats)
