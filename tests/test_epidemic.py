import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import polarnet
from helpers import complete_edges, graph_from_edges, path_edges, random_edges, star_edges
from polarnet.epidemic import (
    INFECTED,
    RECOVERED,
    SUSCEPTIBLE,
    EpidemicParams,
    Seeding,
    contact_probability,
    delay_table,
    exposure_table,
    infect,
    initial_state,
    infectiousness_integral,
    run_batch,
    run_epidemic,
    seed_infections,
    step_day,
    transmission_probability,
    transmission_table,
)
from polarnet.errors import DataError
from polarnet.generators import two_community


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


def test_transmission_probability_formula_oracle():
    params = EpidemicParams()  # I_bar = 2
    rate = 4.0 * 1.14 * 0.88 / 2.0
    expected = 1.0 - math.exp(-rate * oracles.integral_oracle(6, 5.5, 2.14))
    assert transmission_probability(6, params) == pytest.approx(expected, abs=1e-8)


def test_transmission_probability_zero_cases():
    zero_rate = EpidemicParams(infection_rate=0.0)
    assert all(transmission_probability(t, zero_rate) == 0.0 for t in range(1, 22))
    # integral vanishes far beyond the curve: probability follows
    late = transmission_probability(200, EpidemicParams(max_infectious_days=300))
    assert late == pytest.approx(0.0, abs=1e-12)


def test_transmission_probability_bounds_and_monotonicity():
    params = EpidemicParams()
    probs = [transmission_probability(t, params) for t in range(1, 22)]
    assert all(0.0 <= p < 1.0 for p in probs)
    masses = [infectiousness_integral(t, 5.5, 2.14) for t in range(1, 22)]
    order = np.argsort(masses)
    assert np.array_equal(np.argsort(probs), order)  # monotone in the integral
    with pytest.raises(ValueError):
        transmission_probability(0, params)


def test_params_validation():
    with pytest.raises(ValueError):
        EpidemicParams(vet=1.5)
    with pytest.raises(ValueError):
        EpidemicParams(daily_interactions=0.0)
    with pytest.raises(ValueError):
        EpidemicParams(vet_mode="sometimes")


def test_seed_infections_all_pool_exhaustive():
    state = initial_state(6, None, rng=1)
    seed_infections(state, Seeding(6, "all"), EpidemicParams())
    assert (state.status == INFECTED).all()
    assert state.cases.tolist() == [[[6], [0]]]


def test_seed_infections_pool_too_small():
    vacc = np.array([True, True, False])
    state = initial_state(3, vacc, rng=1)
    with pytest.raises(DataError):
        seed_infections(state, Seeding(2, "unvaccinated"), EpidemicParams())


def test_seed_infections_deterministic():
    a = initial_state(50, None, rng=9)
    b = initial_state(50, None, rng=9)
    seed_infections(a, Seeding(5, "all"), EpidemicParams())
    seed_infections(b, Seeding(5, "all"), EpidemicParams())
    assert np.array_equal(a.status, b.status)


def test_seed_infections_uniform_over_pool():
    # vaccinated fraction among index cases tracks the population fraction
    n, frac, draws = 200, 0.3, 1000
    vacc = np.zeros(n, dtype=bool)
    vacc[: int(n * frac)] = True
    hits = 0
    for s in range(draws):
        state = initial_state(n, vacc, rng=s)
        seed_infections(state, Seeding(1, "all"), EpidemicParams())
        hits += int(state.vaccinated[state.status == INFECTED][0])
    sigma = math.sqrt(draws * frac * (1 - frac))
    assert abs(hits - draws * frac) <= 3 * sigma


def test_step_day_no_infected_only_increments_day():
    g = graph_from_edges(4, complete_edges(4))
    state = initial_state(4, None, rng=3)
    before = state.status.copy()
    step_day(g, state, EpidemicParams())
    assert state.day == 1
    assert np.array_equal(state.status, before)
    assert state.cases.tolist() == [[[0, 0], [0, 0]]]  # days 0 and 1


def test_step_day_hand_trace_on_path():
    # P(1) forced to 1: every arc's delay is one day, so the steps are
    # deterministic. Path 0-1-2-3-4 seeded at node 2, infectious for 2 days,
    # then recovery.
    g = graph_from_edges(5, path_edges(5))
    params = EpidemicParams(
        max_infectious_days=2, horizon=10, curve_mean=0.5, curve_sd=0.1, infection_rate=1e6
    )
    assert transmission_table(params)[1] == 1.0 and contact_probability(g, params) == 1.0
    table = delay_table(g, params)
    state = initial_state(5, None, rng=0)
    infect(state, np.array([2]), params)
    assert 0 in state.cohorts

    step_day(g, state, params, table)  # day 1: 2 infects 1 and 3
    assert state.status.tolist() == [0, 1, 1, 1, 0]
    step_day(g, state, params, table)  # day 2: 1 infects 0, 3 infects 4
    assert state.status.tolist() == [1, 1, 1, 1, 1]
    step_day(g, state, params, table)  # day 3: node 2 expires; no S left
    assert state.status.tolist() == [1, 1, 2, 1, 1]
    step_day(g, state, params, table)  # day 4: 1 and 3 expire
    assert state.status.tolist() == [1, 2, 2, 2, 1]
    step_day(g, state, params, table)  # day 5: 0 and 4 expire
    assert state.status.tolist() == [2, 2, 2, 2, 2]
    assert state.cases[0, 0].tolist() == [1, 2, 2, 0, 0, 0]


def test_contact_probability_from_mean_degree():
    params = EpidemicParams()  # I_bar = 2
    path = graph_from_edges(5, path_edges(5))  # <k> = 1.6: every neighbour daily
    assert contact_probability(path, params) == 1.0
    assert np.array_equal(exposure_table(path, params), transmission_table(params))
    k10 = graph_from_edges(10, complete_edges(10))  # <k> = 9
    assert contact_probability(k10, params) == pytest.approx(2.0 / 9.0)
    assert np.allclose(exposure_table(k10, params), transmission_table(params) * 2.0 / 9.0)
    assert contact_probability(graph_from_edges(5, []), params) == 1.0  # no edges


def test_step_day_daily_contacts_on_star():
    # The infectiousness curve is concentrated on day 1 and the rate is huge,
    # so P(1) = 1: each leaf is infected on day 1 iff its edge is active,
    # with probability q = I_bar / <k>.
    leaves, seeds = 20, 400
    g = graph_from_edges(leaves + 1, star_edges(leaves))
    params = EpidemicParams(
        daily_interactions=0.5, curve_mean=0.5, curve_sd=0.1, infection_rate=1e6
    )
    assert transmission_table(params)[1] == 1.0
    q = contact_probability(g, params)
    assert q == pytest.approx(0.5 / (2.0 * leaves / (leaves + 1)))
    infected = []
    for s in range(seeds):
        state = initial_state(leaves + 1, None, rng=s)
        infect(state, np.array([0]), params)
        assert 0 in state.cohorts
        step_day(g, state, params)
        infected.append(state.cases[0, 0, -1])
    sigma = math.sqrt(leaves * q * (1 - q) / seeds)
    assert abs(float(np.mean(infected)) - q * leaves) <= 3 * sigma


def test_vet_one_blocks_all_vaccinated_transmission():
    g = graph_from_edges(8, complete_edges(8))
    params = EpidemicParams(vet=1.0, infection_rate=50.0)
    vacc = np.ones(8, dtype=bool)
    rec = run_epidemic(g, params, Seeding(2, "all"), seed=5, vaccinated=vacc)
    assert int(rec.cases[0, 1].sum()) == 2  # nothing beyond the index cases


def test_run_epidemic_edgeless_single_case():
    g = graph_from_edges(5, [])
    rec = run_epidemic(g, EpidemicParams(), Seeding(1, "all"), seed=2)
    assert int(rec.cases.sum()) == 1
    assert (rec.final_status == RECOVERED).sum() == 1


def test_run_epidemic_saturates_complete_graph():
    g = graph_from_edges(10, complete_edges(10))
    params = EpidemicParams(infection_rate=100.0)
    rec = run_epidemic(g, params, Seeding(1, "all"), seed=1)
    assert int(rec.cases[0, 0].sum()) == 10


def test_run_epidemic_deterministic():
    rng = np.random.default_rng(12)
    g = graph_from_edges(40, random_edges(rng, 40, 0.1))
    params = EpidemicParams()
    vacc = rng.random(40) < 0.4
    a = run_epidemic(g, params, Seeding(3, "all"), seed=77, vaccinated=vacc)
    b = run_epidemic(g, params, Seeding(3, "all"), seed=77, vaccinated=vacc)
    assert np.array_equal(a.cases, b.cases)
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.final_status, b.final_status)


@pytest.mark.parametrize("vet_mode", ["once", "daily"])
def test_run_matches_reference_implementation(vet_mode):
    rng = np.random.default_rng(100)
    contact_probs = []
    for trial in range(8):
        n = int(rng.integers(8, 30))
        edges = random_edges(rng, n, 0.2)
        g = graph_from_edges(n, edges)
        vacc = rng.random(n) < 0.5
        params = EpidemicParams(max_infectious_days=6, horizon=40, vet_mode=vet_mode)
        seed = int(rng.integers(0, 2**31))
        rec = run_epidemic(g, params, Seeding(2, "all"), seed=seed, vaccinated=vacc)
        contact_probs.append(
            oracles.brute_contact_probability(n, edges, params.daily_interactions)
        )
        ref_u, ref_v, ref_status = oracles.first_passage_run(
            n,
            edges,
            transmission_table(params),
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
        code = {"S": SUSCEPTIBLE, "I": INFECTED, "R": RECOVERED}
        assert rec.final_status[0].tolist() == [code[s] for s in ref_status]
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
            vet_mode="daily" if trial % 2 else "once",
        )
        rec = run_epidemic(g, params, Seeding(2, "all"), seed=trial, vaccinated=rng.random(n) < 0.3)
        daily = rec.cases[0].sum(axis=0)
        last = int(np.flatnonzero(daily)[-1])
        assert rec.lengths[0] == daily.size == min(horizon, last + T + 1) + 1
        end = daily.size - 1
        counts = np.bincount(rec.final_status[0], minlength=3)
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
    # row cut at its length, the record run_epidemic gives it alone, from the
    # same Generator seed; past its length the row is zero. Near
    # its threshold the graph lets some runs die out while others go on, so
    # the whole batch keeps stepping runs that are already over.
    g = two_community(60, 60, 0.06, 0.01, seed=3)
    params = EpidemicParams(infection_rate=2.5, horizon=horizon, vet_mode=vet_mode)
    seeding = Seeding(2, pool)
    runs = 7
    vaccinated = np.random.default_rng(4).random((runs, g.n)) < 0.4
    expected = [
        run_epidemic(g, params, seeding, np.random.default_rng(s), vaccinated[s]) for s in range(runs)
    ]
    for size in (1, 3, runs):
        for start in range(0, runs, size):
            batch = range(start, min(start + size, runs))
            rngs = [np.random.default_rng(s) for s in batch]
            got = run_batch(g, params, seeding, rngs, vaccinated[start : batch.stop])
            assert got.cases.shape[:2] == (len(batch), 2)
            assert got.final_status.shape == (len(batch), g.n)
            for row, want in enumerate(expected[start : batch.stop]):
                length = int(got.lengths[row])
                assert length == want.lengths[0]
                assert np.array_equal(got.cases[row, :, :length], want.cases[0])
                assert not got.cases[row, :, length:].any()
                assert np.array_equal(got.final_status[row], want.final_status[0])
    last = [int(np.flatnonzero(r.cases[0].sum(axis=0))[-1]) for r in expected]
    ends = [int(r.lengths[0]) - 1 for r in expected]
    if horizon == 365:  # some run is extinct before another's last infection
        assert min(ends) < max(last) and max(ends) < horizon
    else:  # the horizon cuts some run with cases still infectious
        assert max(ends) == horizon and max(last) > horizon - params.max_infectious_days - 1


def test_run_epidemic_leaves_scipy_sparse_unloaded():
    # the engine is numpy only: scipy.sparse (csgraph included) would add
    # about 11 MB to every simulating process
    src = str(Path(polarnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from polarnet.epidemic import EpidemicParams, Seeding, run_epidemic\n"
        "from polarnet.generators import two_community\n"
        "g = two_community(200, 200, 0.02, 0.001, seed=1)\n"
        "rec = run_epidemic(g, EpidemicParams(), Seeding(5, 'all'), seed=3)\n"
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
    table = transmission_table(params)
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
        rec = run_epidemic(g, params, Seeding(1, "all"), seed=s, vaccinated=vaccinated)
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
    params = EpidemicParams(max_infectious_days=5, horizon=50)
    state = initial_state(30, rng.random(30) < 0.3, rng=8)
    seed_infections(state, Seeding(3, "all"), params)
    table = delay_table(g, params)
    ever_infected = set(np.flatnonzero(state.status == INFECTED).tolist())
    cumulative = 3
    while state.day < params.horizon and state.infected_count > 0:
        step_day(g, state, params, table)
        s, i, r = state.counts()
        assert s + i + r == 30
        new_today = int(state.cases[0, :, -1].sum())
        assert new_today >= 0
        cumulative += new_today
        now_infected = set(np.flatnonzero(state.status != SUSCEPTIBLE).tolist())
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
        state = initial_state(2, np.array([False, True]), rng=seed)
        infect(state, np.array([0]), params)
        assert 0 in state.cohorts
        step_day(g, state, params)
        outcomes.append(int(state.status[1] == INFECTED))
    assert outcomes[1] <= outcomes[0]
