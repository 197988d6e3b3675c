import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    complete_edges,
    edge_array,
    graph_from_edges,
    memory_test_graph,
    random_annotated,
    random_edges,
    star_edges,
    traced_peak,
)
from polarnet import metrics
from polarnet.errors import DataError, FitError, SingleGroupError
from polarnet.generators import barabasi_albert, erdos_renyi, two_community, watts_strogatz
from polarnet.metrics import (
    DegreeDistribution,
    assortativity,
    average_clustering,
    clustering_coefficients,
    cross_connection_ratio,
    degree_distribution,
    density,
    fit_power_law,
    metrics_report,
    mixing_matrix,
)


def test_density_complete():
    for n in (2, 3, 6):
        assert density(graph_from_edges(n, complete_edges(n))) == 1.0


def test_density_edgeless_and_errors():
    assert density(graph_from_edges(4, [])) == 0.0
    with pytest.raises(DataError):
        density(graph_from_edges(1, []))


@pytest.mark.parametrize("metric", [metrics.mean_degree, metrics.clustering_coefficients])
def test_metric_of_the_empty_graph_is_a_data_error(metric):
    with pytest.raises(DataError, match="undefined for the empty graph"):
        metric(graph_from_edges(0, []))


def test_degree_distribution_known():
    assert degree_distribution(graph_from_edges(3, complete_edges(3))).counts == {2: 3}
    assert degree_distribution(graph_from_edges(5, star_edges(4))).counts == {1: 4, 4: 1}


def test_fit_recovers_constructed_exponent():
    counts = {k: round(1e8 * k**-2.0) for k in range(1, 101)}
    dist = DegreeDistribution(counts=counts, n=sum(counts.values()))
    fit = fit_power_law(dist, k_min=1)
    assert abs(fit.gamma - 2.0) <= 0.01
    assert fit.r2 > 0.9999


def test_fit_insufficient_support():
    dist = DegreeDistribution(counts={2: 3}, n=3)
    with pytest.raises(FitError):
        fit_power_law(dist)
    with pytest.raises(FitError):
        fit_power_law(DegreeDistribution(counts={1: 5, 2: 3, 3: 2}, n=10), k_min=0)


def test_fit_rejects_increasing_histogram():
    dist = DegreeDistribution(counts={1: 1, 2: 10, 3: 100}, n=111)
    with pytest.raises(FitError):
        fit_power_law(dist)


def test_ba_exponent_with_tail_filter():
    g = barabasi_albert(20000, 3, seed=0)
    assert min(g.degrees) >= 3
    fit = fit_power_law(degree_distribution(g), k_min=3, min_count=5)
    assert 2.6 <= fit.gamma <= 3.4


def test_local_clustering_known():
    k3 = graph_from_edges(3, complete_edges(3))
    assert np.array_equal(clustering_coefficients(k3), [1.0, 1.0, 1.0])
    star = clustering_coefficients(graph_from_edges(5, star_edges(4)))
    assert star[0] == 0.0  # no neighbor-neighbor links
    assert star[1] == 0.0  # degree < 2 counts as 0


def test_clustering_matches_brute_force():
    rng = np.random.default_rng(3)
    edges = random_edges(rng, 30, 0.2)
    g = graph_from_edges(30, edges)
    cc = clustering_coefficients(g)
    for i in range(30):
        assert cc[i] == pytest.approx(
            oracles.brute_local_clustering(30, edges, i), abs=1e-12
        )
    assert average_clustering(g) == pytest.approx(
        oracles.brute_average_clustering(30, edges), abs=1e-12
    )


def _clustering_graph(name):
    rng = np.random.default_rng(12)
    if name == "complete":
        return graph_from_edges(9, complete_edges(9))
    if name == "star":
        return graph_from_edges(12, star_edges(11))
    if name == "ba-hubs":
        return barabasi_albert(3000, 3, seed=2)
    # isolated nodes inside and after the edges (the last 15 nodes)
    return graph_from_edges(60, random_edges(rng, 45, 0.08))


def _most_forward_wedges(g):
    """The most wedges one node heads in the forward algorithm: pairs of its
    arcs to nodes ranked above it in (degree, id) order."""
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(g.n)
    src = np.repeat(np.arange(g.n), g.degrees)
    out = np.bincount(src[rank[src] < rank[g.indices]], minlength=g.n)
    return int((out * (out - 1) // 2).max())


@pytest.mark.parametrize("block_work", [None, 1, 2, 7, 40])
@pytest.mark.parametrize("name", ["complete", "star", "ba-hubs", "isolated-tail"])
def test_clustering_equals_loop_oracle(monkeypatch, name, block_work):
    g = _clustering_graph(name)
    if block_work is not None:  # force many row and wedge blocks
        monkeypatch.setattr(metrics, "_BLOCK_WORK", block_work)
        if block_work < 20 and name in ("complete", "ba-hubs"):  # 28 and 21 at most
            assert _most_forward_wedges(g) > block_work  # one node's wedges overflow a block
    cc = clustering_coefficients(g)
    expected = oracles.loop_clustering(g.indptr, g.indices)
    assert np.array_equal(cc, expected)


def test_clustering_dense_graph_equals_loop_oracle():
    g = erdos_renyi(2000, 0.2, seed=5)
    assert np.array_equal(
        clustering_coefficients(g), oracles.loop_clustering(g.indptr, g.indices)
    )


@pytest.mark.parametrize(
    "make",
    [lambda: barabasi_albert(60_000, 2, seed=3), lambda: two_community(40_000, 20_000, 2e-4, 2e-6, 1)],
    ids=["ba", "two-community"],
)
def test_clustering_equals_loop_oracle_where_int32_keys_wrap(make):
    # at n = 60,000 a key v*n + w passes 2**31: formed in int32 it would wrap
    g = make()
    assert (g.n - 1) * g.n >= 2**31
    assert np.array_equal(clustering_coefficients(g), oracles.loop_clustering(g.indptr, g.indices))


def _assert_clustering_equals_loop_oracle(g):
    expected = oracles.loop_clustering(g.indptr, g.indices)
    assert np.array_equal(clustering_coefficients(g), expected)


def _disjoint_triangles(count):
    return [(3 * t + a, 3 * t + b) for t in range(count) for a, b in ((0, 1), (0, 2), (1, 2))]


@pytest.mark.parametrize("k_ring", [2, 4, 6])
def test_clustering_ring_lattice_degree_ties(k_ring):
    # every node has degree k_ring, so the (degree, id) rank rests on ids alone
    g = watts_strogatz(40, k_ring, 0.0, seed=0)
    assert np.all(g.degrees == k_ring)
    _assert_clustering_equals_loop_oracle(g)


def test_clustering_disjoint_triangles():
    g = graph_from_edges(21, _disjoint_triangles(7))
    _assert_clustering_equals_loop_oracle(g)
    assert np.all(clustering_coefficients(g) == 1.0)


@pytest.mark.parametrize("n", [1, 5])
def test_clustering_without_edges(n):
    g = graph_from_edges(n, [])
    _assert_clustering_equals_loop_oracle(g)
    assert np.array_equal(clustering_coefficients(g), np.zeros(n))
    assert average_clustering(g) == 0.0


def test_clustering_one_wedge_per_block_with_empty_out_lists(monkeypatch):
    # the highest-ranked node of each component heads no arc (the star's hub,
    # a triangle's last corner), and leaves head arcs with no later partner
    monkeypatch.setattr(metrics, "_BLOCK_WORK", 1)
    edges = _disjoint_triangles(3) + [(9, 9 + i) for i in range(1, 6)] + [(15, 16), (16, 17), (15, 17), (17, 9)]
    rng = np.random.default_rng(44)
    edges += [(20 + u, 20 + v) for u, v in random_edges(rng, 25, 0.2)]
    _assert_clustering_equals_loop_oracle(graph_from_edges(50, edges))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_clustering_equals_loop_oracle_property(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    p = data.draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
    _assert_clustering_equals_loop_oracle(graph_from_edges(n, random_edges(rng, n, p)))


def test_average_clustering_complete():
    assert average_clustering(graph_from_edges(4, complete_edges(4))) == 1.0


def test_mixing_matrix_cross_labeled_bipartite():
    g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [1, 1, 0, 0])
    m = mixing_matrix(g, g.opinions)
    assert np.allclose(m, [[0.0, 0.5], [0.5, 0.0]])
    assert assortativity(m) == pytest.approx(-1.0)


def test_mixing_matrix_disjoint_cliques():
    edges = complete_edges(3) + [(u + 3, v + 3) for u, v in complete_edges(3)]
    g = graph_from_edges(6, edges, [0, 0, 0, 1, 1, 1])
    m = mixing_matrix(g, g.opinions)
    assert np.allclose(m, [[0.5, 0.0], [0.0, 0.5]])
    assert assortativity(m) == pytest.approx(1.0)
    assert cross_connection_ratio(m) == 0.0


def test_mixing_matrix_matches_enumeration():
    rng = np.random.default_rng(9)
    g = random_annotated(rng, 40, 0.15)
    m = mixing_matrix(g, g.opinions)
    expected = oracles.brute_mixing(edge_array(g).tolist(), g.opinions)
    assert np.allclose(m, expected, atol=1e-12)


@settings(max_examples=30)
@given(st.data())
def test_mixing_matrix_invariants(data):
    n = data.draw(st.integers(min_value=2, max_value=20))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10**6)))
    g = random_annotated(rng, n, 0.3)
    if g.edge_count == 0:
        with pytest.raises(DataError):
            mixing_matrix(g, g.opinions)
        return
    m = mixing_matrix(g, g.opinions)
    assert abs(m.sum() - 1.0) < 1e-12
    assert np.array_equal(m, m.T)
    assert m.min() >= 0.0


def test_mixing_matrix_label_validation():
    g = graph_from_edges(3, complete_edges(3))
    with pytest.raises(DataError):
        mixing_matrix(g, np.array([0, 1]))
    with pytest.raises(DataError):
        mixing_matrix(g, np.array([0, 1, 2]))
    with pytest.raises(DataError):  # not truncated to 0 by an integer cast
        mixing_matrix(g, np.array([0, 0.5, 1]))
    assert np.array_equal(mixing_matrix(g, np.array([0.0, 1.0, 1.0])), mixing_matrix(g, np.array([0, 1, 1])))


def test_assortativity_single_group_degenerate():
    g = graph_from_edges(3, complete_edges(3), [1, 1, 1])
    with pytest.raises(SingleGroupError):
        assortativity(mixing_matrix(g, g.opinions))


def test_assortativity_matches_brute_force():
    rng = np.random.default_rng(21)
    g = random_annotated(rng, 40, 0.2)
    m = mixing_matrix(g, g.opinions)
    assert assortativity(m) == pytest.approx(
        oracles.brute_assortativity(m.tolist()), abs=1e-12
    )


def test_random_relabeling_assortativity_near_zero():
    g = erdos_renyi(2000, 0.002, seed=4)
    assert g.edge_count >= 1000
    rng = np.random.default_rng(77)
    values = []
    for _ in range(100):
        labels = (rng.random(g.n) < 0.5).astype(np.uint8)
        values.append(assortativity(mixing_matrix(g, labels)))
    assert float(np.mean(np.abs(values))) < 0.05


def test_cross_connection_zero_denominator():
    g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [1, 1, 0, 0])
    m = mixing_matrix(g, g.opinions)
    with pytest.raises(DataError):
        cross_connection_ratio(m)


def test_metrics_report_fields_and_subgraph_nan():
    rng = np.random.default_rng(2)
    ba = barabasi_albert(400, 2, seed=6)
    g = graph_from_edges(400, edge_array(ba), (rng.random(400) < 0.5).astype(np.uint8))
    rep = metrics_report(g)
    assert 0.0 <= rep.density <= 1.0
    assert 0.0 <= rep.avg_clustering <= 1.0
    assert -1.0 <= rep.assortativity <= 1.0
    assert rep.mean_degree == pytest.approx(2 * g.edge_count / g.n)
    # single-opinion graph: polarization metrics undefined, reported as NaN
    single = barabasi_albert(200, 2, seed=1)  # generator output is all one opinion
    rep_single = metrics_report(single)
    assert np.isnan(rep_single.assortativity)
    assert np.isnan(rep_single.cross_connection)
    assert rep_single.density == pytest.approx(2 * single.edge_count / (200 * 199))


def test_clustering_coefficients_range_property():
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = random_annotated(rng, 25, 0.25)
        cc = clustering_coefficients(g)
        assert cc.min() >= 0.0 and cc.max() <= 1.0


def test_metrics_report_allocates_at_most_2_5_times_the_adjacency():
    """Bound: 2.5x ``indices.nbytes`` above the graph itself.

    The triangle count holds one int64 array of the forward arc keys (0.5x)
    and arrays of one entry per node; its wedges and the keys themselves are
    formed in blocks. The report peaked at 3.3x when the arc-sized int32
    ends, the forward mask and an int64 wedge count lived beside the keys,
    and at 6.4x with int64 copies of every arc.
    """
    g = memory_test_graph()
    report, peak = traced_peak(metrics_report, g)
    assert report.avg_clustering > 0
    assert peak <= 2.5 * g.indices.nbytes
