import math
import re
import sys

import numpy as np
import pytest

from helpers import edge_array, structurally_equal, traced_peak
from oracles import loop_barabasi_albert, loop_watts_strogatz, scalar_bernoulli_indices
from polarnet import generators
from polarnet.cli import main
from polarnet.errors import ConfigError
from polarnet.generators import (
    _CHUNK,
    MAX_NODES,
    GeneratorSpec,
    _barabasi_albert_edges,
    _bernoulli_indices,
    _pair_from_triangular,
    _watts_strogatz_edges,
    barabasi_albert,
    erdos_renyi,
    two_community,
    watts_strogatz,
)
from polarnet.graph import AnnotatedGraph
from polarnet.metrics import (
    assortativity,
    average_clustering,
    degree_distribution,
    fit_power_law,
    mixing_matrix,
)


def test_triangular_decode_covers_all_pairs():
    n = 10
    pairs = n * (n - 1) // 2
    i, j = _pair_from_triangular(np.arange(pairs), np.empty((pairs, 2), dtype=np.int64)).T
    assert set(zip(i.tolist(), j.tolist())) == {(i, j) for j in range(n) for i in range(j)}


def _isqrt_decode(q: int) -> tuple[int, int]:
    j = (1 + math.isqrt(8 * q + 1)) // 2
    return q - j * (j - 1) // 2, j


def test_triangular_decode_equals_isqrt(monkeypatch):
    # every small index, and the indices around the last rows of the
    # largest graph allowed, where 8q + 1 no longer fits in int64; in one
    # block and in blocks of 7
    top = MAX_NODES * (MAX_NODES - 1) // 2
    rows = [j * (j - 1) // 2 + d for j in range(MAX_NODES - 50, MAX_NODES) for d in (-1, 0, 1)]
    q = np.array([*range(45), *range(top - 200, top), *rows], dtype=np.int64)
    for block in (generators._DECODE_BLOCK, 7):
        monkeypatch.setattr(generators, "_DECODE_BLOCK", block)
        i, j = _pair_from_triangular(q, np.empty((q.size, 2), dtype=np.int64)).T
        assert i.dtype == j.dtype == np.int64
        assert list(zip(i.tolist(), j.tolist())) == [_isqrt_decode(x) for x in q.tolist()]
    assert _isqrt_decode(top - 1) == (MAX_NODES - 2, MAX_NODES - 1)


def _pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


# pair count of the 113,038-node ER benchmark graph
ER_PAIRS = 113_038 * 113_037 // 2


def _sampler_moments(total, p, sample, seeds):
    """Mean and variance over seeds of the kept count and of the count in
    each bin: one position a bin up to _CHUNK + 1 positions, else 64 bins."""
    width = 1 if total <= _CHUNK + 1 else -(-total // 64)
    counts = np.array([np.bincount(np.asarray(sample(total, p, _pcg(s)), dtype=np.int64) // width,
                                   minlength=-(-total // width)) for s in seeds], dtype=float)
    kept = counts.sum(axis=1)
    return np.append(counts.mean(axis=0), kept.mean()), np.append(counts.var(axis=0), kept.var()), kept


def _var_se(x):
    return np.sqrt(np.var((x - x.mean()) ** 2) / x.size)


@pytest.mark.parametrize(
    ("total", "p", "runs"),
    [
        (12, 0.3, 2000),
        (1000, 0.01, 2000),
        # the first chunk's _CHUNK draws reach position _CHUNK - 1, so total is
        # crossed on its last draw, or on the first or second of the next chunk
        (_CHUNK - 1, 1 - 1e-12, 3),
        (_CHUNK, 1 - 1e-12, 3),
        (_CHUNK + 1, 1 - 1e-12, 3),
        # chunks of one draw, as the int64 bound on positions forces
        (2**61 - 1, 3e-18, 2000),
    ],
)
def test_bernoulli_law_equals_scalar_loop(total, p, runs):
    # the count in each bin and the mean and variance of the kept count
    # agree with the one-skip-a-draw loop within 4.5 combined standard
    # errors, on disjoint seeds; a count that never varies must be equal
    got_mean, got_var, got = _sampler_moments(total, p, _bernoulli_indices, range(runs))
    want_mean, want_var, want = _sampler_moments(total, p, scalar_bernoulli_indices, range(runs, 2 * runs))
    assert (np.abs(got_mean - want_mean) <= 4.5 * np.sqrt((got_var + want_var) / runs)).all()
    assert abs(got.var() - want.var()) <= 4.5 * math.hypot(_var_se(got), _var_se(want))


def test_bernoulli_indices_clip_before_the_int_cast():
    # with a subnormal p the quotient overflows to inf; the skip is still
    # total + 1, so nothing is kept
    for total in (1000, ER_PAIRS):
        got = _bernoulli_indices(total, 5e-324, _pcg(0))
        assert got.dtype == np.int64 and got.size == 0


def _canonical(n, edges):
    return edge_array(AnnotatedGraph.from_edge_array(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)))


@pytest.mark.parametrize(
    ("n", "k_ring", "p_rewire", "seed"),
    [
        (10, 2, 0.0, 0),
        (5, 4, 0.5, 3),  # the lattice is complete: every node is saturated
        (7, 6, 1.0, 4),
    ],
)
def test_array_ws_equals_loop(n, k_ring, p_rewire, seed):
    # nothing is rewired, so the graph is the lattice whatever the stream
    got = _watts_strogatz_edges(n, k_ring, p_rewire, _pcg(seed))
    assert np.array_equal(_canonical(n, got), _canonical(n, loop_watts_strogatz(n, k_ring, p_rewire, _pcg(seed))))


@pytest.mark.parametrize(
    ("n", "k_ring", "p_rewire", "seed"),
    [(9, 4, 1.0, 5), (300, 6, 1.0, 2), (20, 16, 1.0, 0), (20, 16, 1.0, 1), (113_038, 4, 0.1, 0)],
)
def test_ws_rewired_graph_is_simple(n, k_ring, p_rewire, seed):
    # rewiring keeps the edge count, and each node keeps the k_ring / 2
    # lattice edges it starts, whether their far ends moved or not
    edges = _watts_strogatz_edges(n, k_ring, p_rewire, _pcg(seed))
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    assert edges.shape == (n * k_ring // 2, 2)
    assert (lo < hi).all() and lo.min() >= 0 and hi.max() < n
    assert np.unique(lo * n + hi).size == edges.shape[0]
    assert np.bincount(edges.ravel(), minlength=n).min() >= k_ring // 2


def _edge_frequencies(n, draw, seeds):
    counts = np.zeros((n, n))
    for seed in seeds:
        e = np.asarray(draw(seed), dtype=np.int64).reshape(-1, 2)
        counts[e.min(axis=1), e.max(axis=1)] += 1
    return counts[np.triu_indices(n, 1)] / len(seeds)


@pytest.mark.parametrize(("n", "k_ring", "p_rewire"), [(10, 4, 0.3), (7, 4, 1.0), (12, 6, 0.6)])
def test_ws_edge_law_equals_loop(n, k_ring, p_rewire):
    # every node pair is an edge as often as under the loop, within 4.5
    # combined binomial standard errors, on disjoint seeds of 2,000 each
    runs = 2000
    got = _edge_frequencies(n, lambda s: _watts_strogatz_edges(n, k_ring, p_rewire, _pcg(s)), range(runs))
    want = _edge_frequencies(n, lambda s: loop_watts_strogatz(n, k_ring, p_rewire, _pcg(s)), range(runs, 2 * runs))
    se = np.sqrt((got * (1 - got) + want * (1 - want)) / runs)
    assert (np.abs(got - want) <= 4.5 * se).all()


@pytest.mark.parametrize(("n", "m"), [(8, 2), (10, 3), (6, 1)])
def test_ba_edge_law_equals_loop(n, m):
    # every node pair is an edge as often as under the loop, within 4.5
    # combined binomial standard errors, on disjoint seeds of 2,000 each
    runs = 2000
    got = _edge_frequencies(n, lambda s: _barabasi_albert_edges(n, m, _pcg(s)), range(runs))
    want = _edge_frequencies(n, lambda s: loop_barabasi_albert(n, m, _pcg(s)), range(runs, 2 * runs))
    se = np.sqrt((got * (1 - got) + want * (1 - want)) / runs)
    assert (np.abs(got - want) <= 4.5 * se).all()


@pytest.mark.parametrize(
    ("n", "m", "seed"),
    [(2, 1, 0), (3, 1, 1), (2000, 1, 2), (3, 2, 3), (3000, 2, 4), (4, 3, 5), (800, 3, 6), (6, 5, 7), (500, 5, 8),
     (113_038, 2, 0)],
)
def test_ba_graph_is_simple(n, m, seed):
    # the m-clique, then m distinct targets for each later node
    edges = _barabasi_albert_edges(n, m, _pcg(seed))
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    assert edges.shape == (m * (m - 1) // 2 + m * (n - m), 2)
    assert (lo < hi).all() and lo.min() >= 0 and hi.max() < n
    assert np.unique(lo * n + hi).size == edges.shape[0]
    assert np.bincount(edges.ravel(), minlength=n).min() >= m


def test_skip_sampler_unbiased_per_position():
    total, p, trials = 12, 0.3, 20000
    counts = np.zeros(total)
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(trials):
        for q in _bernoulli_indices(total, p, rng):
            counts[q] += 1
    sigma = (p * (1 - p) / trials) ** 0.5
    assert np.abs(counts / trials - p).max() < 4 * sigma


def test_er_edge_cases():
    assert erdos_renyi(10, 0.0, seed=1).edge_count == 0
    g = erdos_renyi(8, 1.0, seed=1)
    assert g.edge_count == 8 * 7 // 2


def test_er_mean_degree_matches_binomial_expectation():
    mean_degrees = []
    for seed in range(20):
        g = erdos_renyi(2000, 0.005, seed=seed)
        mean_degrees.append(2 * g.edge_count / g.n)
    assert abs(float(np.mean(mean_degrees)) - 10.0) <= 0.5


def test_er_invalid_params():
    with pytest.raises(ConfigError):
        erdos_renyi(1, 0.5, seed=0)
    with pytest.raises(ConfigError):
        erdos_renyi(10, 1.5, seed=0)


def test_generators_deterministic_per_seed():
    for build in (
        lambda s: erdos_renyi(300, 0.02, s),
        lambda s: watts_strogatz(300, 6, 0.3, s),
        lambda s: barabasi_albert(300, 2, s),
        lambda s: two_community(150, 150, 0.05, 0.005, s),
    ):
        a, b, c = build(42), build(42), build(43)
        assert structurally_equal(a, b)
        assert not structurally_equal(a, c)


def test_generators_outputs_validate():
    for g in (
        erdos_renyi(100, 0.1, 3),
        watts_strogatz(100, 8, 0.4, 3),
        barabasi_albert(100, 3, 3),
        two_community(60, 40, 0.1, 0.01, 3),
    ):
        g.validate()


@pytest.mark.parametrize(
    ("build", "args"),
    [
        (erdos_renyi, (50_000, 1.4e-4)),
        (watts_strogatz, (50_000, 6, 0.1)),
        (barabasi_albert, (50_000, 3)),
        (two_community, (40_000, 10_000, 2e-4, 2e-6)),
    ],
    ids=["er", "ws", "ba", "two-community"],
)
def test_generators_allocate_at_most_2_35_times_the_adjacency(build, args):
    """Bound: 2.35x ``indices.nbytes``, the build included. Each generator
    fills one edge array and hands it to the build, which frees it before
    its sort; ER, WS, BA and two-community peak at 2.02-2.04x. They peaked
    at 4.43, 4.48, 3.48 and 5.45x when they stacked and concatenated copies
    of their edges, and at 3.43-3.48x when the build re-scanned its CSR
    with ``validate``.

    CPython 3.10 keeps a call's arguments on the caller's stack until the
    call returns, so there the edge array lives through the build; from
    3.11 the callee holds them alone. The 3.10 factor, 2.7x, is not
    measured on 3.10: a wrapper that keeps ``from_edge_array``'s arguments
    alive through the call read 2.31, 2.36, 2.36 and 2.33x on CPython 3.11
    with numpy 2.4, and numpy 1.24's temporaries were not checked, so
    whether it holds on 3.10 with numpy 1.24 is unknown.
    """
    _pcg(0)  # numpy loads numpy.random on first use, outside the generator's own memory
    g, peak = traced_peak(build, *args, 1)
    assert g.edge_count > 140_000
    assert peak <= (2.35 if sys.version_info >= (3, 11) else 2.7) * g.indices.nbytes


@pytest.mark.parametrize(
    "params",
    [
        ["--kind", "er", "--n", "50000", "--p", "1.4e-4"],
        ["--kind", "ws", "--n", "50000", "--k-ring", "6", "--p-rewire", "0.1"],
        ["--kind", "ba", "--n", "50000", "--m", "3"],
        ["--kind", "two-community", "--n-pro", "40000", "--n-anti", "10000", "--p-in", "2e-4", "--p-out", "2e-6"],
    ],
    ids=["er", "ws", "ba", "two-community"],
)
def test_generate_allocates_at_most_2_6_times_the_edge_array(tmp_path, params):
    """Bound: 2.6x the bytes of the generator's ``(k, 2)`` int64 edge
    array, for the whole ``generate`` command at the sizes of the build
    bound above. The command writes one sorted key per edge and never
    builds the graph; it peaked at 3.47-3.50x when it built and validated
    the CSR graph only to write it back out. WS at high ``p_rewire`` is
    left out: there its rewiring loop's Python objects outweigh the edges.

    CPython 3.10 keeps a call's arguments on the caller's stack until the
    call returns, so there the edge array lives through the whole write.
    The 3.10 factor, 3.7x, is not measured on 3.10: holding the edge array
    through the write read 3.08-3.34x on CPython 3.11 with numpy 2.4, and
    numpy 1.24's temporaries were not checked."""
    _pcg(0)  # numpy loads numpy.random on first use, outside the command's own memory
    edges = tmp_path / "e.csv"
    argv = ["generate", *params, "--seed", "1", "--out-edges", str(edges), "--out-attrs", str(tmp_path / "a.csv")]
    code, peak = traced_peak(main, argv)
    k = edges.read_bytes().count(b"\n") - 1  # the header line
    assert code == 0 and k > 140_000
    assert peak <= (2.6 if sys.version_info >= (3, 11) else 3.7) * 16 * k


def test_ws_ring_lattice_clustering_closed_form():
    # unrewired ring lattice: CC = 3(k-2) / (4(k-1))
    g = watts_strogatz(10, 4, 0.0, seed=0)
    assert average_clustering(g) == pytest.approx(0.5)
    g = watts_strogatz(40, 6, 0.0, seed=0)
    assert average_clustering(g) == pytest.approx(3 * 4 / (4 * 5))


def test_ws_unrewired_degrees_uniform():
    g = watts_strogatz(20, 6, 0.0, seed=9)
    assert set(g.degrees.tolist()) == {6}
    assert g.edge_count == 20 * 3


def test_ws_fully_rewired_low_clustering():
    g = watts_strogatz(2000, 8, 1.0, seed=2)
    assert average_clustering(g) < 0.05
    assert g.edge_count == 2000 * 4  # rewiring preserves edge count


def test_ws_invalid_params():
    with pytest.raises(ConfigError):
        watts_strogatz(10, 3, 0.1, 0)  # odd k
    with pytest.raises(ConfigError):
        watts_strogatz(10, 10, 0.1, 0)  # k >= n


def test_ba_degree_floor_and_edge_count():
    for n, m in ((50, 1), (200, 2), (500, 5)):
        g = barabasi_albert(n, m, seed=n)
        assert int(g.degrees.min()) >= m
        assert g.edge_count == m * (n - m) + m * (m - 1) // 2


def test_ba_exponent_near_three():
    gammas = []
    for seed in range(3):
        g = barabasi_albert(20000, 3, seed=seed)
        fit = fit_power_law(degree_distribution(g), k_min=3, min_count=5)
        gammas.append(fit.gamma)
    assert 2.6 <= float(np.mean(gammas)) <= 3.4


def test_ba_invalid_params():
    with pytest.raises(ConfigError):
        barabasi_albert(5, 5, 0)
    with pytest.raises(ConfigError):
        barabasi_albert(5, 0, 0)


def test_two_community_fully_separated():
    g = two_community(30, 30, 0.3, 0.0, seed=5)
    assert assortativity(mixing_matrix(g, g.opinions)) == pytest.approx(1.0)


def test_two_community_random_mixing_limit():
    g = two_community(1500, 1500, 0.003, 0.003, seed=8)
    r = assortativity(mixing_matrix(g, g.opinions))
    assert abs(r) < 0.05


def test_two_community_polarized_magnitude():
    g = two_community(2000, 2000, 0.004, 0.00004, seed=13)
    r = assortativity(mixing_matrix(g, g.opinions))
    assert r > 0.9
    assert g.opinions[:2000].all() and not g.opinions[2000:].any()


def test_two_community_invalid_params():
    with pytest.raises(ConfigError):
        two_community(10, 10, 0.1, 0.2, 0)  # p_in < p_out
    with pytest.raises(ConfigError):
        two_community(0, 10, 0.1, 0.0, 0)


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"kind": "er", "n": 10, "p": 0.1, "seed": -1}, "key 'graph_seed' (generate --seed) must be >= 0"),
        ({"kind": "er", "n": MAX_NODES + 1, "p": 0.0}, "n must be <= 2147483647"),
        ({"kind": "two-community", "n_pro": 2**30, "n_anti": 2**30, "p_in": 0.0, "p_out": 0.0},
         "n_pro + n_anti must be <= 2147483647"),
    ],
)
def test_generator_spec_rejects_negative_seed_and_oversize(fields, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        GeneratorSpec(**fields)


def test_generators_reject_negative_seed():
    for build in (
        lambda: erdos_renyi(10, 0.1, -1),
        lambda: watts_strogatz(10, 4, 0.1, -1),
        lambda: barabasi_albert(10, 2, -1),
        lambda: two_community(5, 5, 0.2, 0.0, -1),
    ):
        with pytest.raises(ConfigError, match=re.escape("key 'graph_seed' (generate --seed) must be >= 0, got -1")):
            build()


@pytest.mark.parametrize(
    ("build", "args", "message"),
    [
        (erdos_renyi, (10.5, 0.1, 0), "key 'n' must be an integer, got 10.5"),
        (erdos_renyi, (10, 0.1, 1.5), "key 'graph_seed' must be an integer, got 1.5"),
        (barabasi_albert, (20, 2.5, 0), "key 'm' must be an integer, got 2.5"),
        (watts_strogatz, (20.0, 4, 0.1, 0), "key 'n' must be an integer, got 20.0"),
        (watts_strogatz, (20, True, 0.1, 0), "key 'k_ring' must be an integer, got True"),
        (two_community, (5.5, 5, 0.2, 0.0, 0), "key 'n_pro' must be an integer, got 5.5"),
        (two_community, (5, 5, 0.2, 0.0, 1.5), "key 'graph_seed' must be an integer, got 1.5"),
        # once numpy's bare TypeError above, and here an allocation of more
        # than 17 GB in from_edge_array
        (erdos_renyi, (MAX_NODES + 1, 0.0, 0), "n must be <= 2147483647, got 2147483648"),
        (watts_strogatz, (MAX_NODES + 1, 4, 0.0, 0), "n must be <= 2147483647"),
        (barabasi_albert, (MAX_NODES + 1, 2, 0), "n must be <= 2147483647"),
        (two_community, (2**30, 2**30, 0.0, 0.0, 0), "n_pro + n_anti must be <= 2147483647"),
    ],
)
def test_generators_check_counts_before_drawing(build, args, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build(*args)


PUBLIC = {"er": erdos_renyi, "ws": watts_strogatz, "ba": barabasi_albert, "two-community": two_community}


@pytest.mark.parametrize(
    ("kind", "fields", "message"),
    [
        # each kind's own rules
        ("er", {"n": 1, "p": 0.5}, "erdos_renyi requires n >= 2"),
        ("ws", {"n": 10, "k_ring": 3, "p_rewire": 0.1}, "k_ring must be a positive even integer"),
        ("ws", {"n": 10, "k_ring": 0, "p_rewire": 0.1}, "k_ring must be a positive even integer"),
        ("ws", {"n": 10, "k_ring": 10, "p_rewire": 0.1}, "k_ring must be smaller than n"),
        ("ba", {"n": 5, "m": 0}, "barabasi_albert requires m >= 1"),
        ("ba", {"n": 5, "m": 5}, "barabasi_albert requires n > m"),
        ("two-community", {"n_pro": 0, "n_anti": 10, "p_in": 0.1, "p_out": 0.0},
         "both communities need at least one node"),
        ("two-community", {"n_pro": 10, "n_anti": 10, "p_in": 0.1, "p_out": 0.2}, "two_community requires p_in >= p_out"),
        # the checks every kind shares
        ("er", {"n": 10, "p": math.nan}, "p must lie in [0, 1], got nan"),
        ("ws", {"n": 10, "k_ring": 4, "p_rewire": 1.5}, "p_rewire must lie in [0, 1], got 1.5"),
        ("two-community", {"n_pro": 5, "n_anti": 5, "p_in": math.nan, "p_out": 0.0}, "p_in must lie in [0, 1], got nan"),
        ("ba", {"n": 10, "m": 2, "seed": -1}, "key 'graph_seed' (generate --seed) must be >= 0, got -1"),
        ("er", {"n": 10, "p": 0.1, "seed": 1.5}, "key 'graph_seed' must be an integer, got 1.5"),
        ("ws", {"n": 20, "k_ring": 4.0, "p_rewire": 0.1}, "key 'k_ring' must be an integer, got 4.0"),
        ("two-community", {"n_pro": 5, "n_anti": True, "p_in": 0.2, "p_out": 0.0},
         "key 'n_anti' must be an integer, got True"),
        ("ba", {"n": MAX_NODES + 1, "m": 2}, "n must be <= 2147483647, got 2147483648"),
        ("two-community", {"n_pro": 2**30, "n_anti": 2**30, "p_in": 0.0, "p_out": 0.0},
         "n_pro + n_anti must be <= 2147483647, got 2147483648"),
    ],
)
def test_library_calls_and_specs_raise_one_message(kind, fields, message):
    fields = {"seed": 0, **fields}
    with pytest.raises(ConfigError) as public:
        PUBLIC[kind](**fields)
    with pytest.raises(ConfigError) as spec:
        GeneratorSpec(kind, **fields).edges()
    assert str(public.value) == str(spec.value) == message


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    ("kind", "fields"),
    [
        # ER's and two-community's pair counts and WS's ring keys overflow
        # int32 at these sizes; BA's arithmetic does not, and is held alike
        ("er", {"n": 70_000, "p": 2e-5}),
        ("ws", {"n": 70_000, "k_ring": 4, "p_rewire": 0.1}),
        ("ba", {"n": 70_000, "m": 2}),
        ("two-community", {"n_pro": 50_000, "n_anti": 50_000, "p_in": 2e-5, "p_out": 1e-7}),
    ],
)
def test_numpy_integer_sizes_give_the_python_int_graph(kind, fields, dtype):
    want = PUBLIC[kind](**fields, seed=0)
    sized = {key: dtype(value) if isinstance(value, int) else value for key, value in fields.items()}
    assert want.edge_count > 40_000
    assert structurally_equal(PUBLIC[kind](**sized, seed=dtype(0)), want)
    assert structurally_equal(GeneratorSpec(kind, dtype(0), **sized).build(), want)


def test_generator_spec_dispatch_and_validation():
    g = GeneratorSpec(kind="er", n=50, p=0.1, seed=1).build()
    assert g.n == 50
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="er", n=50).build()  # missing p
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="nope", n=50).build()
    g2 = GeneratorSpec(kind="two-community", n_pro=20, n_anti=30, p_in=0.2, p_out=0.0, seed=2).build()
    assert g2.n == 50
