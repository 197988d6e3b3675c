import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import polarnet
from helpers import complete_edges, graph_from_edges, path_edges, random_edges, star_edges, traced_peak
from polarnet.epidemic import (
    CURVE_RANGE,
    INFECTED,
    NEVER,
    RECOVERED,
    SUSCEPTIBLE,
    DelayTable,
    EpidemicParams,
    delay_table,
    infect,
    initial_state,
    infectiousness_integral,
    run_batch,
    seed_infections,
    status_on,
    step_day,
)
from polarnet.errors import ConfigError, DataError
from polarnet.generators import two_community
from polarnet.graph import Opinion


def _status(state, params):
    """S/I/R code of each node of ``state`` on its day."""
    return status_on(state.day_infected, state.day, params.max_infectious_days)


def _final_status(rec, params):
    """S/I/R code of each node of ``rec`` on the last day of its run."""
    return status_on(rec.day_infected, rec.lengths[:, None] - 1, params.max_infectious_days)


def test_integral_zero_before_onset():
    assert infectiousness_integral(0, 5.5, 2.14) == 0.0
    assert infectiousness_integral(-3, 5.5, 2.14) == 0.0


def test_integral_total_mass():
    total = sum(infectiousness_integral(t, 5.5, 2.14) for t in range(1, 61))
    assert abs(total - 1.0) <= 1e-6


def test_integral_matches_quadrature():
    for t in range(1, 31):
        expected = oracles.integral_oracle(t, 5.5, 2.14)
        assert infectiousness_integral(t, 5.5, 2.14) == pytest.approx(expected, abs=1e-8)


def test_integral_param_validation():
    with pytest.raises(ValueError):
        infectiousness_integral(3, -1.0, 2.0)
    with pytest.raises(ValueError):
        infectiousness_integral(3, 5.5, 0.0)
    # NaN and infinite parameters are rejected, not turned into NaN, 0.0 or a
    # ZeroDivisionError
    for mean, sd in ((math.nan, 2.0), (5.5, math.nan), (math.inf, 2.0), (5.5, math.inf)):
        with pytest.raises(ValueError):
            infectiousness_integral(3, mean, sd)


def test_integral_masses_bounded_over_the_curve_range():
    # a log-spaced grid over the accepted square, corners included: every
    # mass of days 1..365 is finite and in [0, 1]; just outside it is refused
    lo, hi = CURVE_RANGE
    grid = np.geomspace(lo, hi, 9)
    assert (grid[0], grid[-1]) == (lo, hi)
    for mean in grid:
        for sd in grid:
            masses = np.array([infectiousness_integral(t, mean, sd) for t in range(1, 366)])
            assert (np.isfinite(masses) & (masses >= 0) & (masses <= 1)).all(), (mean, sd)
    for mean, sd in ((lo * 0.99, 1.0), (1.0, lo * 0.99), (hi * 1.01, 1.0), (1.0, hi * 1.01)):
        with pytest.raises(ValueError, match="must lie in"):
            infectiousness_integral(3, mean, sd)


_PATH = graph_from_edges(5, path_edges(5))  # <k> = 1.6 <= I_bar: q = 1, hazard[0] is P


def test_transmission_probability_formula_oracle():
    params = EpidemicParams()  # I_bar = 2
    rate = 4.0 * 1.14 * 0.88 / 2.0
    expected = 1.0 - math.exp(-rate * oracles.integral_oracle(6, 5.5, 2.14))
    assert oracles.ptable(params)[6] == pytest.approx(expected, abs=1e-8)
    assert delay_table(_PATH, params).hazard[0, 5] == pytest.approx(expected, abs=1e-8)


def test_transmission_probability_zero_cases():
    zero_rate = delay_table(_PATH, EpidemicParams(infection_rate=0.0))
    assert zero_rate.hazard.shape == (2, 21) and not zero_rate.hazard.any()
    assert zero_rate.delays[zero_rate.keys.searchsorted(0, side="right")] == NEVER  # u = 0 misses
    # integral vanishes far beyond the curve: probability follows
    late = delay_table(_PATH, EpidemicParams(max_infectious_days=300)).hazard[0, 199]
    assert late == pytest.approx(0.0, abs=1e-12)


def test_transmission_probability_bounds_and_monotonicity():
    params = EpidemicParams()
    probs = delay_table(_PATH, params).hazard[0]
    assert ((0.0 <= probs) & (probs < 1.0)).all()
    masses = [infectiousness_integral(t, 5.5, 2.14) for t in range(1, 22)]
    order = np.argsort(masses)
    assert np.array_equal(np.argsort(probs), order)  # monotone in the integral


@pytest.mark.parametrize(
    "params",
    [
        EpidemicParams(),
        EpidemicParams(infection_rate=7.5, vei=0.25, max_infectious_days=9, curve_mean=3.0, curve_sd=1.0),
        EpidemicParams(daily_interactions=0.7, network_scale=1.3, vei=1.0, max_infectious_days=40),
        EpidemicParams(infection_rate=0.0, vei=0.0, max_infectious_days=1),
    ],
)
def test_delay_table_hazard_equals_oracle_exactly(params):
    # the engine's one constructor of the delay law gives, bit for bit, the
    # reference table c_s * q * P(t) on graphs with q < 1 and q = 1
    rng = np.random.default_rng(6)
    qs = []
    for n, edges in (
        (5, path_edges(5)),
        (10, complete_edges(10)),
        (6, []),
        (40, random_edges(rng, 40, 0.3)),
    ):
        q = oracles.brute_contact_probability(n, edges, params.daily_interactions)
        expected = np.outer([1, 1 - params.vei], q * oracles.ptable(params)[1:])
        hazard = delay_table(graph_from_edges(n, edges), params).hazard
        assert hazard.shape == expected.shape and (hazard == expected).all()
        qs.append(q)
    assert min(qs) < 1.0 == max(qs)


def test_params_validation():
    with pytest.raises(ConfigError):
        EpidemicParams(vet=1.5)
    with pytest.raises(ConfigError):
        EpidemicParams(daily_interactions=0.0)
    with pytest.raises(ConfigError):
        EpidemicParams(vet_mode="sometimes")


def test_seed_infections_all_pool_exhaustive():
    state = initial_state(6, None, [1])
    seed_infections(state, EpidemicParams(seed_count=6))
    assert (_status(state, EpidemicParams()) == INFECTED).all()
    assert state.cases.tolist() == [[[6], [0]]]


@pytest.mark.parametrize("n", [50, 10_000, 10_001, 60_000])
def test_seed_infections_all_pool_draws_as_choice_of_arange(n):
    # numpy shuffles a full index array up to 10,000 candidates or beyond
    # n / 50 picks, else runs Floyd's algorithm: both sides of each switch
    for count in (1, 3, n // 50, n // 50 + 1, n // 2):
        ref = np.random.default_rng(count)
        want = np.sort(ref.choice(np.arange(n), count, replace=False))
        state = initial_state(n, None, [count])
        seed_infections(state, EpidemicParams(seed_count=count))
        assert np.array_equal(np.flatnonzero(state.day_infected >= 0), want), count
        assert state.rngs[0].random() == ref.random(), count  # the generator is left where choice leaves it


def test_seed_infections_pool_too_small():
    vacc = np.array([True, True, False])
    state = initial_state(3, vacc, [1])
    with pytest.raises(DataError):
        seed_infections(state, EpidemicParams(seed_count=2, seed_pool="unvaccinated"))


def test_run_batch_rejects_flags_beyond_the_nodes():
    g = graph_from_edges(5, path_edges(5))
    with pytest.raises(DataError, match="vaccinated flags must cover every node"):
        run_batch(g, EpidemicParams(seed_count=1), [1], np.zeros(g.n + 1, dtype=bool))


def test_seed_infections_deterministic():
    a = initial_state(50, None, [9])
    b = initial_state(50, None, [np.random.default_rng(9)])
    seed_infections(a, EpidemicParams(seed_count=5))
    seed_infections(b, EpidemicParams(seed_count=5))
    assert np.array_equal(a.day_infected, b.day_infected)


def test_seed_infections_uniform_over_pool():
    # vaccinated fraction among index cases tracks the population fraction
    n, frac, draws = 200, 0.3, 1000
    vacc = np.zeros(n, dtype=bool)
    vacc[: int(n * frac)] = True
    hits = 0
    for s in range(draws):
        state = initial_state(n, vacc, [s])
        seed_infections(state, EpidemicParams(seed_count=1))
        hits += int(state.vaccinated[state.day_infected >= 0][0])
    sigma = math.sqrt(draws * frac * (1 - frac))
    assert abs(hits - draws * frac) <= 3 * sigma


def test_step_day_no_infected_moves_to_horizon():
    g = graph_from_edges(4, complete_edges(4))
    params = EpidemicParams(horizon=6)
    state = initial_state(4, None, [3])
    before = state.day_infected.copy()
    step_day(g, state, params, delay_table(g, params))
    assert state.day == 6  # nothing pending: straight to the horizon
    assert np.array_equal(state.day_infected, before)
    assert state.cases.tolist() == [[[0] * 7, [0] * 7]]  # days 0..6
    step_day(g, state, params, delay_table(g, params))
    assert state.day == 7  # past the horizon, one day on


def test_step_day_hand_trace_on_path():
    # P(1) forced to 1: every arc's delay is one day, so the steps are
    # deterministic. Path 0-1-2-3-4 seeded at node 2, infectious for 2 days,
    # then recovery.
    g = graph_from_edges(5, path_edges(5))
    params = EpidemicParams(
        max_infectious_days=2, horizon=10, curve_mean=0.5, curve_sd=0.1, infection_rate=1e6
    )
    table = delay_table(g, params)
    assert table.hazard[0, 0] == 1.0  # q = 1 and P(1) = 1
    state = initial_state(5, None, [0])
    infect(state, np.array([2]), params)
    assert state.sources.tolist() == [2]

    step_day(g, state, params, table)  # day 1: 2 infects 1 and 3
    assert state.day == 1 and state.sources.tolist() == [1, 3]
    assert _status(state, params).tolist() == [0, 1, 1, 1, 0]
    step_day(g, state, params, table)  # day 2: 1 infects 0, 3 infects 4
    assert state.day == 2 and state.sources.tolist() == [0, 4]
    assert _status(state, params).tolist() == [1, 1, 1, 1, 1]
    step_day(g, state, params, table)  # no S left: nothing pending, so the horizon
    assert state.day == 10 and state.sources.size == 0
    # the statuses between follow from the infection days alone
    on = [status_on(state.day_infected, day, params.max_infectious_days).tolist() for day in (3, 4, 5)]
    assert on[0] == [1, 1, 2, 1, 1]  # day 3: node 2 expires
    assert on[1] == [1, 2, 2, 2, 1]  # day 4: 1 and 3 expire
    assert on[2] == [2, 2, 2, 2, 2]  # day 5: 0 and 4 expire
    assert _status(state, params).tolist() == [2, 2, 2, 2, 2]
    assert state.cases[0, 0].tolist() == [1, 2, 2] + [0] * 8

    # a table that delays every arc into a vaccinated node by 2 days: node 3,
    # vaccinated, is reached on day 0 for day 2 and stays susceptible on day 1
    keys = np.array([1, 1, 1, 1, 2], dtype=np.int64) << 53  # F_0 = (1, 1), F_1 = (0, 1)
    slow = DelayTable(table.hazard, keys, table.delays)
    state = initial_state(5, np.arange(5) == 3, [0])
    infect(state, np.array([2]), params)
    step_day(g, state, params, slow)
    assert state.day == 1 and state.sources.tolist() == [1]
    assert state.day_infected[3] == 2 - NEVER < -1
    assert _status(state, params).tolist() == [0, 1, 1, 0, 0]
    step_day(g, state, params, slow)  # day 2: 1 infects 0, and 3's drawn day comes
    assert state.day == 2 and state.day_infected.tolist() == [2, 1, 0, 2, -1]


def test_contact_probability_from_mean_degree():
    params = EpidemicParams()  # I_bar = 2
    ptable = oracles.ptable(params)[1:]
    # <k> = 1.6 on the path: every neighbour daily
    assert np.array_equal(delay_table(_PATH, params).hazard[0], ptable)
    k10 = graph_from_edges(10, complete_edges(10))  # <k> = 9
    assert oracles.brute_contact_probability(10, complete_edges(10), 2.0) == pytest.approx(2.0 / 9.0)
    assert np.allclose(delay_table(k10, params).hazard[0], ptable * 2.0 / 9.0)
    no_edges = delay_table(graph_from_edges(5, []), params)
    assert np.array_equal(no_edges.hazard[0], ptable)  # q = 1


def test_step_day_daily_contacts_on_star():
    # The infectiousness curve is concentrated on day 1 and the rate is huge,
    # so P(1) = 1: each leaf is infected on day 1 iff its edge is active,
    # with probability q = I_bar / <k>.
    leaves, seeds = 20, 400
    g = graph_from_edges(leaves + 1, star_edges(leaves))
    params = EpidemicParams(
        daily_interactions=0.5, curve_mean=0.5, curve_sd=0.1, infection_rate=1e6
    )
    assert oracles.ptable(params)[1] == 1.0
    table = delay_table(g, params)
    q = table.hazard[0, 0]
    assert q == pytest.approx(0.5 / (2.0 * leaves / (leaves + 1)))
    infected = []
    for s in range(seeds):
        state = initial_state(leaves + 1, None, [s])
        infect(state, np.array([0]), params)
        assert state.sources.tolist() == [0]
        step_day(g, state, params, table)
        infected.append(state.cases[0, 0, -1])  # day 1, or 0 at the horizon
    sigma = math.sqrt(leaves * q * (1 - q) / seeds)
    assert abs(float(np.mean(infected)) - q * leaves) <= 3 * sigma


def test_vet_one_blocks_all_vaccinated_transmission():
    g = graph_from_edges(8, complete_edges(8))
    params = EpidemicParams(vet=1.0, infection_rate=50.0, seed_count=2)
    vacc = np.ones(8, dtype=bool)
    rec = run_batch(g, params, [5], vacc)
    assert int(rec.cases[0, 1].sum()) == 2  # nothing beyond the index cases


def test_run_epidemic_edgeless_single_case():
    g = graph_from_edges(5, [])
    rec = run_batch(g, EpidemicParams(seed_count=1), [2])
    assert int(rec.cases.sum()) == 1
    assert (_final_status(rec, EpidemicParams()) == RECOVERED).sum() == 1


def test_run_epidemic_saturates_complete_graph():
    g = graph_from_edges(10, complete_edges(10))
    params = EpidemicParams(infection_rate=100.0, seed_count=1)
    rec = run_batch(g, params, [1])
    assert int(rec.cases[0, 0].sum()) == 10


def test_run_epidemic_deterministic():
    rng = np.random.default_rng(12)
    g = graph_from_edges(40, random_edges(rng, 40, 0.1))
    params = EpidemicParams(seed_count=3)
    vacc = rng.random(40) < 0.4
    a = run_batch(g, params, [77], vacc)
    b = run_batch(g, params, [77], vacc)
    assert np.array_equal(a.cases, b.cases)
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.day_infected, b.day_infected)


@pytest.mark.parametrize("vet_mode", ["once", "daily"])
def test_run_matches_reference_implementation(vet_mode):
    rng = np.random.default_rng(100)
    contact_probs = []
    for trial in range(8):
        n = int(rng.integers(8, 30))
        edges = random_edges(rng, n, 0.2)
        g = graph_from_edges(n, edges)
        vacc = rng.random(n) < 0.5
        params = EpidemicParams(max_infectious_days=6, horizon=40, vet_mode=vet_mode, seed_count=2)
        seed = int(rng.integers(0, 2**31))
        rec = run_batch(g, params, [seed], vacc)
        contact_probs.append(
            oracles.brute_contact_probability(n, edges, params.daily_interactions)
        )
        ref_u, ref_v, ref_status, ref_day = oracles.first_passage_run(
            n,
            edges,
            oracles.ptable(params),
            daily_interactions=params.daily_interactions,
            count=2,
            pool="all",
            vaccinated=vacc,
            seed=seed,
            vet=params.vet,
            vei=params.vei,
            vet_mode=vet_mode,
            max_infectious_days=params.max_infectious_days,
            horizon=params.horizon,
        )
        assert rec.cases[0].tolist() == [ref_u, ref_v]
        assert rec.day_infected[0].tolist() == ref_day
        code = {"S": SUSCEPTIBLE, "I": INFECTED, "R": RECOVERED}
        assert _final_status(rec, params)[0].tolist() == [code[s] for s in ref_status]
    assert min(contact_probs) < 1.0  # the daily edge-activity factor is exercised


@pytest.mark.parametrize("horizon", [365, 12])
def test_run_length_and_final_status_rule(horizon):
    # A run lasts min(horizon, last infection day + T + 1) + 1 days; at its
    # end the cases of its last T + 1 days are Infected, earlier ones
    # Recovered. With the long horizon every run dies out first; the short
    # one cuts runs while cases are still infectious.
    rng = np.random.default_rng(33)
    T, cut = 5, 0
    for trial in range(40):
        n = int(rng.integers(10, 40))
        g = graph_from_edges(n, random_edges(rng, n, 0.2))
        params = EpidemicParams(
            infection_rate=6.0, max_infectious_days=T, horizon=horizon,
            vet_mode="daily" if trial % 2 else "once", seed_count=2,
        )
        rec = run_batch(g, params, [trial], rng.random(n) < 0.3)
        daily = rec.cases[0].sum(axis=0)
        last = int(np.flatnonzero(daily)[-1])
        assert rec.lengths[0] == daily.size == min(horizon, last + T + 1) + 1
        end = daily.size - 1
        counts = np.bincount(_final_status(rec, params)[0], minlength=3)
        assert counts[INFECTED] == daily[max(end - T, 0) :].sum()
        assert counts[RECOVERED] == daily[: max(end - T, 0)].sum()
        assert counts[SUSCEPTIBLE] == n - daily.sum()
        if end < horizon:
            assert counts[INFECTED] == 0
        cut += end == horizon and counts[INFECTED] > 0
    assert (cut > 0) == (horizon == 12)


@pytest.mark.parametrize("horizon", [365, 9])
@pytest.mark.parametrize("pool", ["all", "unvaccinated"])
@pytest.mark.parametrize("vet_mode", ["once", "daily"])
def test_run_batch_equals_per_run_records(vet_mode, pool, horizon):
    # Runs stepped together in batches of 1, 3 and all 7 give each run, as its
    # row cut at its length, the record it gets as a batch of one, from the
    # same Generator seed; past its length the row is zero. Near
    # its threshold the graph lets some runs die out while others go on, so
    # the whole batch keeps stepping runs that are already over.
    g = two_community(60, 60, 0.06, 0.01, seed=3)
    params = EpidemicParams(infection_rate=2.5, horizon=horizon, vet_mode=vet_mode, seed_count=2, seed_pool=pool)
    runs = 7
    vaccinated = np.random.default_rng(4).random((runs, g.n)) < 0.4
    expected = [
        run_batch(g, params, [np.random.default_rng(s)], vaccinated[s]) for s in range(runs)
    ]
    for size in (1, 3, runs):
        for start in range(0, runs, size):
            batch = range(start, min(start + size, runs))
            rngs = [np.random.default_rng(s) for s in batch]
            got = run_batch(g, params, rngs, vaccinated[start : batch.stop])
            assert got.cases.shape[:2] == (len(batch), 2)
            assert got.day_infected.shape == (len(batch), g.n)
            for row, want in enumerate(expected[start : batch.stop]):
                length = int(got.lengths[row])
                assert length == want.lengths[0]
                assert np.array_equal(got.cases[row, :, :length], want.cases[0])
                assert not got.cases[row, :, length:].any()
                assert np.array_equal(got.day_infected[row], want.day_infected[0])
    last = [int(np.flatnonzero(r.cases[0].sum(axis=0))[-1]) for r in expected]
    ends = [int(r.lengths[0]) - 1 for r in expected]
    if horizon == 365:  # some run is extinct before another's last infection
        assert min(ends) < max(last) and max(ends) < horizon
    else:  # the horizon cuts some run with cases still infectious
        assert max(ends) == horizon and max(last) > horizon - params.max_infectious_days - 1


def test_run_batch_records_days_drawn_past_the_horizon_as_never():
    # the horizon cuts these runs while arcs drawn from their last cases
    # point past it: the state holds those days as codes below -1, and the
    # record holds only -1 (never infected) and infection days
    g = two_community(200, 200, 0.05, 0.005, 1)
    params = EpidemicParams(horizon=4, seed_count=5)
    state = seed_infections(initial_state(g.n, None, [3, 4]), params)
    table = delay_table(g, params)
    while state.day < params.horizon:
        step_day(g, state, params, table)
    assert (state.day_infected < -1).any()
    record = run_batch(g, params, [3, 4])
    assert ((record.day_infected == -1) | (record.day_infected >= 0)).all()
    assert np.array_equal(record.day_infected.ravel(), np.maximum(state.day_infected, -1))


def test_run_batch_allocates_at_most_twice_its_state():
    """Bound: 2.6x ``runs * n * 5`` bytes for one run on 50,000 nodes. The
    state is 5 bytes a node, its int32 day and its bool vaccination flags,
    and the run peaks at 2.31x that (about 0.58 MB). With a second int32 day
    array the state was 9 bytes a node and the run peaked at 0.78 MB, 3.1x
    the 5 bytes, which this bound refuses. The case count builds its key in
    place in the array of the cases' flat indices, and seeding passes ``n``
    to ``rng.choice``, not an int64 ``np.arange(n)``; with five case-sized
    int64 temporaries and that array the run peaked at 4.5x the 5 bytes.

    CPython 3.10 keeps a call's arguments alive until the call returns; the
    engine frees none of its arguments early, so that should not matter
    here. The 3.10 factor, 2.9x, is not measured on 3.10 (it keeps the
    1.1 ratio the 3.10 bound had to the 3.11 one), and numpy 1.24's
    temporaries were not checked."""
    g = two_community(25_000, 25_000, 2e-4, 2e-6, 1)
    vaccinated = g.opinions == int(Opinion.PRO)
    np.random.default_rng(0).random()  # numpy loads numpy.random on first use, outside the run's own memory
    record, peak = traced_peak(run_batch, g, EpidemicParams(seed_count=10), [1], vaccinated)
    assert record.cases.sum() > 10_000  # an outbreak: the case count is large
    assert peak <= (2.6 if sys.version_info >= (3, 11) else 2.9) * 1 * g.n * 5


def test_run_epidemic_leaves_scipy_sparse_unloaded():
    # the engine is numpy only: scipy.sparse (csgraph included) would add
    # about 11 MB to every simulating process
    src = str(Path(polarnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from polarnet.epidemic import EpidemicParams, run_batch\n"
        "from polarnet.generators import two_community\n"
        "g = two_community(200, 200, 0.02, 0.001, seed=1)\n"
        "rec = run_batch(g, EpidemicParams(seed_count=5), [3])\n"
        "assert rec.cases.sum() > 5\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _sweep_and_engine_runs(n, edges, params, vaccinated, runs):
    """(final size, days) of ``runs`` daily-sweep reference runs and as many engine runs.

    The two samples use disjoint seeds, so they are independent.
    """
    g = graph_from_edges(n, edges)
    table = oracles.ptable(params)
    sweep, engine = [], []
    for s in range(runs):
        ref_u, ref_v, _ = oracles.reference_run(
            n,
            edges,
            table,
            daily_interactions=params.daily_interactions,
            count=1,
            pool="all",
            vaccinated=vaccinated,
            seed=10**6 + s,
            vet=params.vet,
            vei=params.vei,
            vet_mode=params.vet_mode,
            max_infectious_days=params.max_infectious_days,
            horizon=params.horizon,
        )
        sweep.append((sum(ref_u) + sum(ref_v), len(ref_u)))
        rec = run_batch(g, replace(params, seed_count=1), [s], vaccinated)
        engine.append((int(rec.cases.sum()), int(rec.lengths[0])))
    return np.array(sweep), np.array(engine)


@pytest.mark.parametrize("vet_mode", ["once", "daily"])
def test_final_size_law_matches_daily_sweep(vet_mode):
    # Two-sample chi-square on the final-size histograms of the daily-sweep
    # reference and of the first-passage engine, bins pooled up to >= 10 runs.
    from scipy.stats import chi2

    rng = np.random.default_rng(21)
    n, runs = 10, 1500
    edges = random_edges(rng, n, 0.35)
    vaccinated = rng.random(n) < 0.5
    params = EpidemicParams(
        infection_rate=2.0, vet=0.5, vei=0.5, max_infectious_days=6, horizon=60, vet_mode=vet_mode
    )
    assert oracles.brute_contact_probability(n, edges, params.daily_interactions) < 1.0
    assert 0 < vaccinated.sum() < n
    sweep, engine = _sweep_and_engine_runs(n, edges, params, vaccinated, runs)
    a = np.bincount(sweep[:, 0], minlength=n + 1)
    b = np.bincount(engine[:, 0], minlength=n + 1)
    bins, acc = [], np.zeros(2)
    for pair in zip(a, b):
        acc += pair
        if acc.sum() >= 10:
            bins.append(acc)
            acc = np.zeros(2)
    bins[-1] = bins[-1] + acc
    observed = np.array(bins)
    assert len(observed) >= 5  # the sizes spread over many bins
    stat = float((((observed[:, 0] - observed[:, 1]) ** 2) / observed.sum(axis=1)).sum())
    assert stat < chi2.ppf(0.999, len(observed) - 1), (stat, observed.tolist())


def test_near_critical_extinction_and_attack_rate_match_daily_sweep():
    # A two-type (vaccinated / unvaccinated) random graph near its epidemic
    # threshold: about 60% of outbreaks stop within three cases. The early-
    # extinction frequency, the mean attack rate and the mean run length of
    # 2000 engine runs must each lie within 4 standard errors of 2000
    # daily-sweep reference runs.
    rng = np.random.default_rng(5)
    n, runs = 60, 2000
    edges = random_edges(rng, n, 4.5 / n)
    vaccinated = rng.random(n) < 0.5
    params = EpidemicParams(infection_rate=2.5, vet=0.5, vei=0.5)
    sweep, engine = _sweep_and_engine_runs(n, edges, params, vaccinated, runs)
    early = sweep[:, 0] <= 3, engine[:, 0] <= 3
    pooled = (early[0].mean() + early[1].mean()) / 2
    assert 0.4 < pooled < 0.8
    assert abs(early[0].mean() - early[1].mean()) <= 4 * math.sqrt(2 * pooled * (1 - pooled) / runs)
    for column in (0, 1):  # final size (attack rate times n), then days
        x, y = sweep[:, column], engine[:, column]
        assert abs(x.mean() - y.mean()) <= 4 * math.sqrt((x.var() + y.var()) / runs), column


def test_conservation_and_single_infection():
    rng = np.random.default_rng(55)
    g = graph_from_edges(30, random_edges(rng, 30, 0.15))
    params = EpidemicParams(max_infectious_days=5, horizon=50, seed_count=3)
    state = initial_state(30, rng.random(30) < 0.3, [8])
    seed_infections(state, params)
    table = delay_table(g, params)
    ever_infected = set(np.flatnonzero(_status(state, params) == INFECTED).tolist())
    cumulative = 3
    while state.day < params.horizon and (_status(state, params) == INFECTED).any():
        step_day(g, state, params, table)
        status = _status(state, params)
        s, i, r = np.bincount(status, minlength=3)
        assert s + i + r == 30
        new_today = int(state.cases[0, :, -1].sum())
        assert new_today >= 0
        cumulative += new_today
        now_infected = set(np.flatnonzero(status != SUSCEPTIBLE).tolist())
        assert ever_infected <= now_infected  # S -> I -> R, never back
        assert len(now_infected) == cumulative  # each agent infected at most once
        ever_infected = now_infected


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    vei_pair=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
def test_vei_monotone_per_exposure(seed, vei_pair):
    # common random numbers: raising VEI can never turn a miss into a hit
    lo, hi = min(vei_pair), max(vei_pair)
    outcomes = []
    for vei in (lo, hi):
        g = graph_from_edges(2, [(0, 1)])
        params = EpidemicParams(vei=vei, max_infectious_days=3)
        state = initial_state(2, np.array([False, True]), [seed])
        infect(state, np.array([0]), params)
        assert state.sources.tolist() == [0]
        step_day(g, state, params, delay_table(g, params))
        outcomes.append(int(_status(state, params)[1] == INFECTED))
    assert outcomes[1] <= outcomes[0]
