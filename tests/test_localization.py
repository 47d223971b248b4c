import math
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stridemap.localization import (LocalizationConfig, VectorizedMap,
                                    _percentile, _vector, evaluate, knn,
                                    knn_localize, read_fingerprints,
                                    vectorize_map)
from stridemap.radiomap import RadioMap, RadioMapEntry
from stridemap.records import record


def dist(a, b, metric="euclidean"):
    """Distance from query vector a to map vector b, as the kNN kernel
    computes it: a one-entry index and a one-row query matrix."""
    index = VectorizedMap(
        cfg=LocalizationConfig(metric=metric),
        universe=tuple(f"ap{i}" for i in range(len(b))), min_rss=-96.0,
        matrix=np.array([b], float), xs=np.zeros(1), ys=np.zeros(1),
        floors=np.ones(1, int))
    return float(knn(index, np.array([a], float)).dist[0, 0])


def make_map(*entries):
    return RadioMap(entries=[RadioMapEntry(x=x, y=y, floor=f, belief=20.0,
                                           fp=fp)
                             for x, y, f, fp in entries])


# ---------------------------------------------------------------------------
# vector form


def test_universe_is_sorted_macs():
    rm = make_map((0, 0, 1, {"bb": -60, "aa": -40}),
                  (5, 0, 1, {"cc": -70}))
    # tau filters only the queries, so the map keeps every MAC
    assert vectorize_map(rm, LocalizationConfig(tau_scope="query")).universe \
        == ("aa", "bb", "cc")


def test_universe_drops_macs_below_tau_everywhere():
    rm = make_map((0, 0, 1, {"aa": -95, "bb": -50}),
                  (5, 0, 1, {"aa": -93, "bb": -55}))
    assert vectorize_map(rm, LocalizationConfig(tau=-90.0)).universe == ("bb",)


def test_min_rss_sits_below_weakest_reading():
    rm = make_map((0, 0, 1, {"aa": -40, "bb": -95}))
    assert vectorize_map(rm).min_rss == -96.0


def test_min_rss_requires_readings():
    with pytest.raises(ValueError, match="no RSS readings"):
        vectorize_map(make_map((0, 0, 1, {})))


def _positive(fp, universe, tau, min_rss):
    # one query's vector through the batch path Readings.vectors
    return read_fingerprints([fp]).vectors(universe, tau, min_rss)[0]


def test_to_positive_offsets_present_aps():
    fp = _positive({"aa": -60}, ("aa", "bb"), tau=-90.0, min_rss=-96.0)
    assert fp.tolist() == [36.0, 0.0]


def test_to_positive_zeroes_below_tau():
    fp = _positive({"aa": -93}, ("aa",), tau=-90.0, min_rss=-96.0)
    assert fp.tolist() == [0.0]


def test_to_positive_keeps_reading_at_tau():
    fp = _positive({"aa": -90}, ("aa",), tau=-90.0, min_rss=-96.0)
    assert fp.tolist() == [6.0]


def test_to_positive_ignores_aps_outside_universe():
    fp = _positive({"zz": -30}, ("aa", "bb"), tau=-90.0, min_rss=-96.0)
    assert fp.tolist() == [0.0, 0.0]


@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                       st.integers(-200, 0), max_size=4),
       st.integers(-100, -40), st.integers(-201, -1))
@example({"a": -96, "b": -99}, -100, -96)
def test_to_positive_never_negative(fp, tau, min_rss):
    # a query may read as weak as min_rss or weaker than the map's weakest
    # reading, min_rss + 1
    out = _positive(fp, ("a", "b", "c", "d"), float(tau), float(min_rss))
    assert (out >= 0).all()


@given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                                st.integers(-200, 0), max_size=4), max_size=4),
       st.integers(-100, -40), st.integers(-201, -1))
@example([{"aa": -60, "zz": -30}, {}, {"bb": -91, "aa": -90}], -90, -96)
def test_readings_vectorize_a_batch_like_each_fingerprint(fps, tau, min_rss):
    # the batch rule against knn_localize's one-query rule, never negative
    universe = ("a", "aa", "b", "bb", "c", "cc", "d")
    batch = read_fingerprints(fps).vectors(universe, float(tau), float(min_rss))
    assert batch.tolist() == [_vector(fp, universe, float(tau), float(min_rss))
                              for fp in fps]
    assert (batch >= 0).all()


# ---------------------------------------------------------------------------
# distances: the kernel on closed-form cases


def test_euclidean_identity():
    assert dist([36, 20], [36, 20]) == 0.0


def test_euclidean_three_four_five():
    assert dist([3, 0], [0, 4]) == 5.0


def test_euclidean_direct_substitution():
    assert dist([36, 20, 0], [30, 20, 8]) == 10.0


def test_sorensen_identity():
    assert dist([36, 20], [36, 20], "sorensen") == 0.0


def test_sorensen_disjoint_is_one():
    assert dist([1, 0], [0, 1], "sorensen") == 1.0


def test_sorensen_direct_substitution():
    assert dist([36, 20], [30, 26], "sorensen") == 12 / 112


def test_sorensen_two_empty_is_zero():
    # two empty fingerprints are indistinguishable
    assert dist([0, 0], [0, 0], "sorensen") == 0.0


def test_universe_mismatch_rejected():
    index = vectorize_map(THREE)
    with pytest.raises(ValueError, match="universe"):
        knn(index, np.zeros((1, len(index.universe) + 1)))
    with pytest.raises(ValueError, match="universe"):
        knn(index, np.zeros(len(index.universe)))


# vectors as the pipeline builds them: RSS minus an integral min_rss
rss_vector = st.lists(st.integers(0, 201), min_size=1, max_size=8)


@given(rss_vector)
def test_sorensen_bounded_and_symmetric(values):
    a, b = values, list(reversed(values))
    if sum(values) == 0:
        return
    d = dist(a, b, "sorensen")
    assert 0.0 <= d <= 1.0
    assert d == dist(b, a, "sorensen")


@given(rss_vector, rss_vector)
def test_euclidean_symmetric(v1, v2):
    n = min(len(v1), len(v2))
    a, b = v1[:n], v2[:n]
    assert dist(a, b) == dist(b, a)


# ---------------------------------------------------------------------------
# k nearest neighbors


THREE = make_map(
    (0.0, 0.0, 1, {"aa": -40, "bb": -60}),
    (5.0, 0.0, 1, {"aa": -60, "bb": -40}),
    (0.0, 5.0, 2, {"aa": -70, "cc": -50}),
)


def test_exact_query_returns_entry_pose():
    res = knn_localize({"aa": -40, "bb": -60}, THREE)
    assert (res.x, res.y, res.floor) == (0.0, 0.0, 1)
    assert res.neighbors[0][1] == 0.0


def test_k3_majority_floor_and_centroid():
    cfg = LocalizationConfig(k=3)
    res = knn_localize({"aa": -40, "bb": -60}, THREE, cfg)
    assert res.floor == 1
    assert (res.x, res.y) == pytest.approx((5 / 3, 5 / 3))


def test_floor_count_tie_goes_to_nearest():
    cfg = LocalizationConfig(k=2)
    res = knn_localize({"aa": -70, "cc": -50}, THREE, cfg)
    assert res.floor == 2


def test_k_beyond_map_size_uses_all():
    cfg = LocalizationConfig(k=50)
    res = knn_localize({"aa": -40, "bb": -60}, THREE, cfg)
    assert len(res.neighbors) == 3


def fp_at(x, y):
    aps = {"n": (0.0, 0.0), "e": (10.0, 0.0), "s": (0.0, 10.0)}
    return {mac: int(round(-40 - 20 * math.log10(
        max(math.hypot(x - ax, y - ay), 1.0)))) for mac, (ax, ay) in aps.items()}


def test_nearest_signal_is_nearest_position():
    # clean log-distance fingerprints: the 1-NN in signal space must be the
    # spatially closest reference point
    rm = make_map(*[(x, 0.0, 1, fp_at(x, 0.0)) for x in (0.0, 2.0, 4.0, 6.0)])
    res = knn_localize(fp_at(2.2, 0.0), rm)
    assert (res.x, res.y) == (2.0, 0.0)


def same_report(a, b) -> bool:
    """Equal summaries, per-query columns and kNN fixes."""
    columns = [(a, b, name) for name in ("truth_x", "truth_y", "truth_floor",
                                         "error_m", "floor_correct", "errors")]
    columns += [(a.fix, b.fix, name) for name in ("index", "dist", "x", "y", "floor")]
    return a.summary() == b.summary() and all(
        np.array_equal(getattr(ra, name), getattr(rb, name)) for ra, rb, name in columns)


def test_evaluate_with_index_pins_its_config():
    idx = vectorize_map(THREE, LocalizationConfig(k=1))
    queries = [((0.0, 0.0, 1), {"aa": -40})]
    with pytest.raises(ValueError, match="vectorized under a different config"):
        evaluate(queries, idx, LocalizationConfig(k=3))
    assert same_report(evaluate(queries, idx, LocalizationConfig(k=1)),
                       evaluate(queries, THREE, LocalizationConfig(k=1)))


def test_evaluate_reuses_given_readings():
    test = [((0.0, 0.0, 1), {"aa": -40, "bb": -60}), ((5.0, 0.0, 1), {"cc": -50})]
    readings = read_fingerprints([fp for _, fp in test])
    for tau in (-90.0, -55.0):
        cfg = LocalizationConfig(k=2, tau=tau)
        assert same_report(evaluate(test, THREE, cfg, readings),
                           evaluate(test, THREE, cfg))
    with pytest.raises(ValueError, match="readings do not match"):
        evaluate(test[:1], THREE, LocalizationConfig(), readings)


def test_vectorize_map_reuses_given_readings():
    readings = read_fingerprints([e.fp for e in THREE.entries])
    for tau, scope in ((-90.0, "both"), (-55.0, "map"), (-55.0, "query")):
        cfg = LocalizationConfig(tau=tau, tau_scope=scope)
        a, b = vectorize_map(THREE, cfg, readings), vectorize_map(THREE, cfg)
        assert (a.universe, a.min_rss) == (b.universe, b.min_rss)
        for name in ("matrix", "xs", "ys", "floors"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    with pytest.raises(ValueError, match="readings do not match"):
        vectorize_map(THREE, LocalizationConfig(),
                      read_fingerprints([e.fp for e in THREE.entries[:1]]))


def test_sweep_reuses_pose_columns_across_taus():
    test = [((0.0, 0.0, 1), {"aa": -40, "bb": -60}), ((5.0, 0.0, 1), {"cc": -50})]
    index = report = None
    for tau in (-90.0, -55.0):
        cfg = LocalizationConfig(k=2, tau=tau)
        index = vectorize_map(THREE, cfg, reuse=index)
        fresh = vectorize_map(THREE, cfg)
        assert (index.cfg, index.universe, index.min_rss) == (fresh.cfg, fresh.universe,
                                                              fresh.min_rss)
        for name in ("matrix", "xs", "ys", "floors"):
            assert np.array_equal(getattr(index, name), getattr(fresh, name))
        report = evaluate(test, index, cfg, reuse=report)
        assert same_report(report, evaluate(test, THREE, cfg))
    with pytest.raises(ValueError, match="reused index does not match"):
        vectorize_map(RadioMap(entries=THREE.entries[:1]), reuse=index)
    with pytest.raises(ValueError, match="reused report does not match"):
        evaluate(test[:1], THREE, LocalizationConfig(k=2), reuse=report)


def test_vectorize_rejects_empty_map():
    with pytest.raises(ValueError, match="empty"):
        vectorize_map(RadioMap())


def test_map_scope_tau_shrinks_universe():
    rm = make_map((0, 0, 1, {"aa": -95, "bb": -50}),
                  (5, 0, 1, {"aa": -93, "bb": -55}))
    both = vectorize_map(rm, LocalizationConfig(tau=-90.0, tau_scope="map"))
    off = vectorize_map(rm, LocalizationConfig(tau=-90.0, tau_scope="query"))
    assert both.universe == ("bb",)
    assert off.universe == ("aa", "bb")


# ---------------------------------------------------------------------------
# the batched kernel against a per-query reference


def reference_vector(fp, universe, tau, min_rss):
    return np.array([fp[mac] - min_rss if mac in fp and fp[mac] >= tau
                     and fp[mac] > min_rss else 0.0 for mac in universe])


def reference_distances(matrix, q, metric):
    """One query against every entry, as the pipeline scored it before the
    batched kernel."""
    if metric == "euclidean":
        return np.sqrt(((matrix - q) ** 2).sum(axis=1))
    diff = np.abs(matrix - q).sum(axis=1)
    denom = (matrix + q).sum(axis=1)
    return np.divide(diff, denom, out=np.zeros_like(diff), where=denom != 0)


def centroid(values):
    """The mean both kernels take: a sum from 0.0, left to right."""
    return reduce(add, values, 0.0) / len(values)


def reference_fix(fp, rm, cfg):
    """(neighbors, x, y, floor) of one query: stable argsort, Counter vote,
    the centroid summed nearest first."""
    map_tau = cfg.tau if cfg.tau_scope in ("both", "map") else -math.inf
    query_tau = cfg.tau if cfg.tau_scope in ("both", "query") else -math.inf
    min_rss = min(r for e in rm.entries for r in e.fp.values()) - 1.0
    universe = sorted({mac for e in rm.entries for mac, r in e.fp.items()
                       if r >= map_tau})
    matrix = np.array([reference_vector(e.fp, universe, map_tau, min_rss)
                       for e in rm.entries]).reshape(len(rm.entries), len(universe))
    d = reference_distances(matrix, reference_vector(fp, universe, query_tau, min_rss),
                            cfg.metric)
    order = np.argsort(d, kind="stable")[: min(cfg.k, len(d))]
    xs = np.array([e.x for e in rm.entries])
    ys = np.array([e.y for e in rm.entries])
    floors = [rm.entries[i].floor for i in order]
    counts = Counter(floors)
    top = max(counts.values())
    leaders = [f for f, c in counts.items() if c == top]
    floor = leaders[0] if len(leaders) == 1 else floors[0]
    neighbors = tuple((int(i), float(d[i])) for i in order)
    return neighbors, centroid(xs[order].tolist()), centroid(ys[order].tolist()), floor


MACS = ("a", "b", "c", "d", "e")
fingerprint = st.dictionaries(st.sampled_from(MACS + ("zz",)),
                              st.integers(-200, 0), max_size=5)


# coordinates whose sums round: a centroid of 8 or more of them shows the
# order its sum is taken in
coordinate = st.one_of(st.integers(0, 9).map(float),
                       st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
                       st.integers(0, 10**6).map(lambda i: i / 97))


@st.composite
def knn_cases(draw, metrics=("euclidean", "sorensen")):
    # a small pool drawn with replacement: duplicate rows give distance ties
    pool = draw(st.lists(fingerprint, min_size=1, max_size=5))
    n = draw(st.integers(1, 20))
    entries = [(draw(coordinate), draw(coordinate),
                draw(st.integers(0, 2)), dict(draw(st.sampled_from(pool))))
               for _ in range(n)]
    if not any(fp for *_, fp in entries):
        entries[0][3]["a"] = draw(st.integers(-200, 0))
    queries = draw(st.lists(st.one_of(st.sampled_from(pool), fingerprint),
                            min_size=1, max_size=6))
    cfg = LocalizationConfig(k=draw(st.integers(1, 17)),
                             metric=draw(st.sampled_from(metrics)),
                             tau=float(draw(st.integers(-205, 5))),
                             tau_scope=draw(st.sampled_from(["both", "map", "query"])))
    return make_map(*entries), queries, cfg


@settings(max_examples=200, deadline=None)
@given(knn_cases())
def test_kernel_matches_per_query_reference(case):
    rm, queries, cfg = case
    est = evaluate([((0.0, 0.0, 0), fp) for fp in queries], rm, cfg).fix
    assert len(est.x) == len(queries)
    for i, fp in enumerate(queries):
        neighbors, x, y, floor = reference_fix(fp, rm, cfg)
        fix = knn_localize(fp, rm, cfg)
        assert fix.neighbors == neighbors
        assert (fix.x, fix.y, fix.floor) == (x, y, floor)
        assert (est.x[i], est.y[i], est.floor[i]) == (x, y, floor)


# a query reading weaker than the map's weakest detects nothing: it is
# at Sorensen distance 1 from both entries, not negative or 0
@example((make_map((0.0, 0.0, 1, {"aa": -50}), (5.0, 0.0, 2, {"bb": -60})),
          [{"aa": -90}, {"aa": -62}],
          LocalizationConfig(k=2, metric="sorensen", tau=-100.0)))
@settings(max_examples=100, deadline=None)
@given(knn_cases(metrics=("sorensen",)))
def test_sorensen_distance_lies_in_zero_to_one(case):
    rm, queries, cfg = case
    est = evaluate([((0.0, 0.0, 0), fp) for fp in queries], rm, cfg).fix
    assert ((0.0 <= est.dist) & (est.dist <= 1.0)).all()
    for fp in queries:
        assert all(0.0 <= d <= 1.0 for _, d in knn_localize(fp, rm, cfg).neighbors)


# duplicated rows tie; the empty query is the all-zero vector
CHUNKED_MAP = make_map(
    (0.0, 0.0, 1, {"a": -40, "b": -60}),
    (1.0, 0.0, 1, {"a": -40, "b": -60}),
    (2.0, 0.0, 2, {"a": -60, "c": -50}),
    (3.0, 0.0, 2, {"a": -60, "c": -50}),
    (4.0, 1.0, 1, {"b": -45, "c": -70, "d": -80}),
    (5.0, 1.0, 2, {"d": -55}),
    (6.0, 1.0, 1, {"a": -40, "b": -60}),
)
CHUNKED_QUERIES = [{"a": -40, "b": -60}, {}, {"a": -60, "c": -50},
                   {"a": -50, "b": -50, "c": -50, "d": -50}, {"d": -55},
                   {"zz": -30}, {"b": -45, "c": -70}, {"a": -41, "b": -59},
                   {"c": -60, "d": -70}]


@pytest.mark.parametrize("k", [1, 3, 20])
def test_kernel_across_chunk_boundaries(monkeypatch, k):
    import stridemap.localization as loc
    cfg = LocalizationConfig(k=k)
    n, floors = len(CHUNKED_MAP.entries), 2
    # two query rows per chunk: 9 queries run as 2, 2, 2, 2 and 1
    monkeypatch.setattr(loc, "CHUNK_ELEMENTS", 2 * (n + min(k, n) * floors))
    rows = []
    nearest = loc._nearest
    monkeypatch.setattr(loc, "_nearest",
                        lambda score, k: rows.append(len(score)) or nearest(score, k))
    est = evaluate([((0.0, 0.0, 1), fp) for fp in CHUNKED_QUERIES],
                   CHUNKED_MAP, cfg).fix
    assert rows == [2, 2, 2, 2, 1]
    for i, fp in enumerate(CHUNKED_QUERIES):
        neighbors, x, y, floor = reference_fix(fp, CHUNKED_MAP, cfg)
        assert tuple(zip(est.index[i].tolist(), est.dist[i].tolist())) == neighbors
        assert (est.x[i], est.y[i], est.floor[i]) == (x, y, floor)


# ---------------------------------------------------------------------------
# float32 scoring and its float64 fallback


def scored_dtypes(monkeypatch):
    """A list that gets the dtype of each map matrix knn scores against."""
    import stridemap.localization as loc
    seen, scorer = [], loc._scorer
    monkeypatch.setattr(loc, "_scorer",
                        lambda m, metric: seen.append(m.dtype) or scorer(m, metric))
    return seen


def test_non_integral_components_score_in_float64(monkeypatch):
    seen = scored_dtypes(monkeypatch)
    # float32 would round 0.1 and 1 + 2^-30, and so every distance below
    # but the first
    assert dist([0.5, 0], [0, 0.25]) == math.sqrt(0.5 ** 2 + 0.25 ** 2)
    assert dist([1, 0], [0, 0.1]) == math.sqrt(1 ** 2 + 0.1 ** 2)
    assert dist([1 + 2 ** -30, 0], [2, 0]) == 1 - 2 ** -30
    total = (0.2 + 0.1) + (0.1 + 0.3)
    assert dist([0.1, 0.3], [0.2, 0.1], "sorensen") == (total - 2 * (0.1 + 0.1)) / total
    assert seen == [np.float64] * 4


def test_integral_components_score_in_float32(monkeypatch):
    seen = scored_dtypes(monkeypatch)
    assert dist([3, 0], [0, 4]) == 5.0
    assert dist([3, 1], [1, 4], "sorensen") == 5 / 9
    assert seen == [np.float32] * 2


def component_map(*rows):
    """Entry i, at (i, 0) on floor i, reads AP j at rows[i][j] - 201 dBm,
    and no AP whose component is 0. An entry reading -200 dBm (component
    1) makes min_rss -201, so that under tau -200 every component is the
    row's own."""
    return make_map(*[(float(i), 0.0, i, {f"ap{j:05d}": c - 201 for j, c in enumerate(row) if c})
                      for i, row in enumerate(rows)])


# Squared norms 2^24 + 5 and 2^24 + 4, which float32 rounds alike, and
# 2^24 and 2^24 - 1, which it holds: 415 * 201^2 is 2^24 - 10801. An empty
# query is nearer the second entry of each pair.
SQUARES = [201] * 415
EUCLIDEAN_PAST = (SQUARES + [103, 14, 1], SQUARES + [103, 14])
EUCLIDEAN_UNDER = (SQUARES + [103, 8, 8, 8], SQUARES + [103, 13, 4, 2, 1, 1])
# Sorensen: a query whose one component, at the last AP, is 200, against
# entries holding 201 and 200 there. sum a + sum b is 2^24 + 5 and 2^24 + 4
# past the bound, 2^24 and 2^24 - 1 under it, as 83466 * 201 + 1 is
# 2^24 - 549. sum min(a, b) is 200 for both, so the second is the nearer.
SUMS = [201] * 83466 + [1]
SORENSEN_PAST = (SUMS + [153, 201], SUMS + [153, 200])
SORENSEN_UNDER = (SUMS + [148, 201], SUMS + [148, 200])


@pytest.mark.parametrize("metric, rows, query, dtype", [
    ("euclidean", EUCLIDEAN_PAST, {}, np.float64),
    ("euclidean", EUCLIDEAN_UNDER, {}, np.float32),
    ("sorensen", SORENSEN_PAST, {f"ap{len(SUMS) + 1:05d}": -1}, np.float64),
    ("sorensen", SORENSEN_UNDER, {f"ap{len(SUMS) + 1:05d}": -1}, np.float32),
], ids=["euclidean-past", "euclidean-under", "sorensen-past", "sorensen-under"])
def test_float32_only_while_every_sum_fits(monkeypatch, metric, rows, query, dtype):
    rm = component_map(*rows)
    cfg = LocalizationConfig(k=2, metric=metric, tau=-200.0)
    seen = scored_dtypes(monkeypatch)
    est = evaluate([((0.0, 0.0, 1), query)], rm, cfg).fix
    assert seen == [dtype]
    neighbors, x, y, floor = reference_fix(query, rm, cfg)
    assert [i for i, _ in neighbors] == [1, 0]
    fix = knn_localize(query, rm, cfg)
    assert (fix.neighbors, fix.x, fix.y, fix.floor) == (neighbors, x, y, floor)
    assert tuple(zip(est.index[0].tolist(), est.dist[0].tolist())) == neighbors
    assert (est.x[0], est.y[0], est.floor[0]) == (x, y, floor) == (0.5, 0.0, 1)


# ---------------------------------------------------------------------------
# config validation: a config read from a file or a flag is checked by the
# rules its fields declare; one built in code is taken as given

read_config = record(LocalizationConfig)


def test_k_must_be_positive():
    with pytest.raises(ValueError, match=r"^config\.k must be at least 1, got 0$"):
        read_config({"k": 0}, "config", ValueError)


def test_unknown_metric_rejected():
    with pytest.raises(ValueError, match=r"^config\.metric must be one of \['euclidean', "
                                         r"'sorensen'\], got 'cosine'$"):
        read_config({"metric": "cosine"}, "config", ValueError)


def test_unknown_tau_scope_rejected():
    with pytest.raises(ValueError, match=r"^config\.tau_scope must be one of \['both', "
                                         r"'map', 'query'\], got 'neither'$"):
        read_config({"tau_scope": "neither"}, "config", ValueError)
    assert read_config({"tau_scope": "map", "k": 2.0}, "config", ValueError) == \
        LocalizationConfig(k=2, tau_scope="map")


# ---------------------------------------------------------------------------
# evaluation


def test_exact_queries_score_perfectly():
    test = [((e.x, e.y, e.floor), dict(e.fp)) for e in THREE.entries]
    rep = evaluate(test, THREE)
    assert rep.floor_accuracy == 1.0
    assert rep.mean_error_m == 0.0
    assert (rep.p50, rep.p75, rep.p90) == (0.0, 0.0, 0.0)


def test_offset_query_measures_distance():
    test = [((2.0, 0.0, 1), {"aa": -40, "bb": -60})]
    rep = evaluate(test, THREE)
    assert rep.mean_error_m == pytest.approx(2.0)
    assert rep.floor_accuracy == 1.0


def test_wrong_floor_excluded_from_error_stats():
    test = [
        ((0.0, 0.0, 1), {"aa": -40, "bb": -60}),   # exact, floor 1
        ((3.0, 5.0, 1), {"aa": -70, "cc": -50}),   # lands on floor 2
    ]
    rep = evaluate(test, THREE)
    assert rep.floor_accuracy == 0.5
    assert rep.mean_error_m == 0.0
    assert len(rep.errors) == 1


def test_no_correct_floor_leaves_stats_undefined():
    test = [((0.0, 0.0, 3), {"aa": -40, "bb": -60})]
    rep = evaluate(test, THREE)
    assert rep.floor_accuracy == 0.0
    assert rep.mean_error_m is None
    assert rep.p90 is None


def test_summary_shape():
    test = [((0.0, 0.0, 1), {"aa": -40, "bb": -60})]
    s = evaluate(test, THREE).summary()
    assert s == {"floor_accuracy": 1.0, "mean_error_m": 0.0, "p50": 0.0,
                 "p75": 0.0, "p90": 0.0, "n_queries": 1}


def test_evaluate_rejects_empty_test_set():
    with pytest.raises(ValueError, match="queries"):
        evaluate([], THREE)


def test_row_bookkeeping():
    test = [((2.0, 0.0, 1), {"aa": -40, "bb": -60})]
    rep = evaluate(test, THREE)
    assert len(rep.error_m) == 1
    assert (rep.truth_x[0], rep.truth_y[0], rep.truth_floor[0]) == (2.0, 0.0, 1)
    assert (rep.fix.x[0], rep.fix.y[0], rep.fix.floor[0]) == (0.0, 0.0, 1)
    assert rep.error_m[0] == pytest.approx(2.0)
    assert rep.floor_correct.dtype == bool and rep.floor_correct[0]


# errors with ties; + 0.0 turns -0.0 into 0.0, which no error is
@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 2.5]),
                          st.floats(0.0, 1e6).map(lambda v: v + 0.0)),
                min_size=1, max_size=300))
@example([0.0])
@example([2.5] * 300)
def test_percentile_is_numpys_without_numpy_ma(values):
    ranked = sorted(values)
    for p in (50, 75, 90):
        got = _percentile(ranked, p)
        assert type(got) is float
        assert got.hex() == float(np.percentile(np.array(ranked), p)).hex()
