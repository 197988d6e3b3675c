import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import complete_edges, graph_from_edges
from oracles import reference_allocation
from polarnet import experiment
from polarnet.config import STRATEGIES, RunConfig
from polarnet.epidemic import EpidemicParams, Seeding, run_batch
from polarnet.experiment import (
    AUTO_THREADS_MIN_ARCS,
    BATCH_NODES,
    Allocation,
    EnsembleSummary,
    compare_scenarios,
    resolve_threads,
    run_ensemble,
    usable_cpus,
    _fractions,
)
from polarnet.errors import DataError
from polarnet.generators import erdos_renyi, two_community
from polarnet.graph import Opinion
from polarnet.metrics import assortativity, mixing_matrix


def test_polarized_allocation_is_the_pro_set():
    g = two_community(40, 60, 0.1, 0.01, seed=1)
    flags = Allocation.of(g, "polarized").draw(g, 0)
    assert np.array_equal(flags, g.opinions == int(Opinion.PRO))
    assert int(flags.sum()) == 40


def test_homogeneous_allocation_count_and_all_pro_graph():
    g = two_community(40, 60, 0.1, 0.01, seed=1)
    flags = Allocation.of(g, "homogeneous").draw(g, 3)
    assert int(flags.sum()) == 40  # same dose count as the pro community
    all_pro = graph_from_edges(5, complete_edges(5), [1] * 5)
    assert Allocation.of(all_pro, "homogeneous").draw(all_pro, 3).all()


def test_polarized_status_mixing_equals_opinion_mixing():
    g = two_community(50, 50, 0.15, 0.02, seed=4)
    flags = Allocation.of(g, "polarized").draw(g, 0)
    assert np.allclose(
        mixing_matrix(g, flags.astype(np.uint8)), mixing_matrix(g, g.opinions)
    )


def test_homogeneous_allocation_near_zero_assortativity():
    g = two_community(1000, 1000, 0.008, 0.00008, seed=2)
    allocation, values = Allocation.of(g, "homogeneous"), []
    for s in range(30):
        flags = allocation.draw(g, s)
        values.append(assortativity(mixing_matrix(g, flags.astype(np.uint8))))
    assert float(np.mean(np.abs(values))) < 0.05


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_allocation_draws_as_the_reference_allocator(strategy):
    # the same flags and the same next draw from the stream on 100 seeds; on
    # the all-pro graph homogeneous draws every node, and must still draw
    graphs = [two_community(40, 60, 0.1, 0.01, seed=1)]
    graphs += [graph_from_edges(5, complete_edges(5), [opinion] * 5) for opinion in (1, 0)]
    for g in graphs:
        allocation = Allocation.of(g, strategy)
        for seed in range(100):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(allocation.draw(g, got_rng), reference_allocation(g, strategy, want_rng))
            assert got_rng.random() == want_rng.random()


def _summary(cases, lengths, n_unvacc, n_vacc):
    """The ensemble of hand-built (runs, 2, days) case counts and run lengths."""
    sizes = np.array([n_unvacc, n_vacc, n_unvacc + n_vacc])
    daily = _fractions(np.array(cases, dtype=np.int64), sizes)
    return EnsembleSummary(Allocation("polarized", (0.0, 1.0), n_vacc), daily, np.array(lengths), sizes)


def _summary_from_counts(new_unvacc, new_vacc, n_unvacc, n_vacc):
    """The one-run ensemble of hand-built daily counts."""
    return _summary([[new_unvacc, new_vacc]], [len(new_unvacc)], n_unvacc, n_vacc)


def test_attack_rate_hand_count():
    run = _summary_from_counts([1, 2, 2, 0], [0, 1, 0, 0], n_unvacc=10, n_vacc=5)
    assert run.mean_attack_rate["unvaccinated"] == pytest.approx(0.5)
    assert run.mean_attack_rate["vaccinated"] == pytest.approx(0.2)
    assert run.mean_attack_rate["all"] == pytest.approx(6 / 15)
    assert run.sizes.tolist() == [10, 5, 15]
    assert run.lengths.tolist() == [4]
    assert np.array_equal(run.daily[0], np.array([[1, 2, 2, 0], [0, 1, 0, 0], [1, 3, 2, 0]]) / [[10], [5], [15]])
    # the attack rate is the row sum, also of a run shorter than the ensemble
    short = [[3, 1, 0, 0], [1, 0, 0, 0]]  # zero-padded past its 2 days
    two = _summary([[[1, 2, 2, 0], [0, 1, 0, 0]], short], [4, 2], n_unvacc=10, n_vacc=5)
    assert two.lengths.tolist() == [4, 2]
    assert np.array_equal(two.daily[1, :, 2:], np.zeros((3, 2)))
    assert two.mean_attack_rate["unvaccinated"] == pytest.approx((0.5 + 0.4) / 2)
    assert [s.size for s in two.series(0)] == [4, 2]


def test_attack_rate_index_cases_only_when_no_spread():
    g = graph_from_edges(20, complete_edges(20))
    params = EpidemicParams(infection_rate=0.0)
    cfg = RunConfig(params=params, seeding=Seeding(5, "all"), n_runs=4, strategy="homogeneous")
    ens = run_ensemble(g, cfg)
    assert ens.mean_attack_rate["all"] == pytest.approx(5 / 20)


def test_attack_rate_errors():
    # an empty subpopulation has no attack rate, and there are only SUBPOPS
    run = _summary_from_counts([1, 0], [0, 0], n_unvacc=4, n_vacc=0)
    assert np.isnan(run.mean_attack_rate["vaccinated"])
    assert run.mean_attack_rate["unvaccinated"] == pytest.approx(0.25)
    with pytest.raises(KeyError):
        run.mean_attack_rate["everyone"]


def test_time_to_peak_earliest_argmax_and_scaling():
    run = _summary_from_counts([0, 1, 3, 2], [0, 0, 0, 0], 10, 5)
    assert run.mean_t_peak["unvaccinated"] == 2
    scaled = _summary_from_counts([0, 2, 6, 4], [0, 0, 0, 0], 20, 5)
    assert scaled.mean_t_peak["unvaccinated"] == 2
    tie = _summary_from_counts([0, 3, 3, 1], [0, 0, 0, 0], 10, 5)
    assert tie.mean_t_peak["unvaccinated"] == 1
    # no infection in the subpopulation: no peak
    assert np.isnan(run.mean_t_peak["vaccinated"])


def test_single_run_ensemble_equals_its_run():
    g = two_community(80, 80, 0.06, 0.005, seed=3)
    ens = run_ensemble(g, RunConfig(n_runs=1, master_seed=11))
    run = ens.daily[0]
    assert np.allclose(ens.mean_curves["unvaccinated"], run[0])
    assert ens.mean_attack_rate["all"] == pytest.approx(run[2].sum())
    assert ens.mean_t_peak["unvaccinated"] == np.argmax(run[0])


def test_resolve_threads(monkeypatch):
    # explicit counts are clamped to the batch count and to the CPU count
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 64)
    assert resolve_threads(1, 100, 10**9) == 1
    assert resolve_threads(3, 2, 10) == 2
    assert resolve_threads(10**9, 4, 10**9) == 4
    assert resolve_threads(5000, 5000, 10**9) == 64
    assert resolve_threads(5000, 5000, 10) == 64
    # auto: one thread per CPU up to the batch count, one on small graphs
    assert resolve_threads(0, 100, AUTO_THREADS_MIN_ARCS) == 64
    assert resolve_threads(0, 8, AUTO_THREADS_MIN_ARCS) == 8
    assert resolve_threads(0, 100, AUTO_THREADS_MIN_ARCS - 1) == 1
    monkeypatch.setattr(experiment, "usable_cpus", lambda: None)  # CPU count unknown
    assert resolve_threads(0, 100, AUTO_THREADS_MIN_ARCS) == 1
    assert resolve_threads(3, 100, 10**9) == 1


def test_usable_cpus_is_the_affinity_where_the_platform_reports_one(monkeypatch):
    # pinned to one CPU of two (``taskset -c 0``): explicit and auto counts start one thread
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpus() == 1
    assert resolve_threads(2, 12, 10) == 1
    assert resolve_threads(0, 12, AUTO_THREADS_MIN_ARCS) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity: the CPU count
    assert usable_cpus() == 2
    assert resolve_threads(2, 12, 10) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() is None


def _recorded_ensemble(monkeypatch, threads, fail):
    """Run 12 one-run batches on ``threads`` threads of 2 CPUs, the first
    batch to start raising MemoryError if ``fail``; returns the thread that
    started each batch, in start order, and the ensemble or the error."""
    g = two_community(40_000, 30_000, 2e-5, 1e-6, seed=1)
    assert BATCH_NODES // g.n == 1  # one run per batch
    started, lock = [], threading.Lock()

    def recorded(*args):
        with lock:
            started.append(threading.current_thread())
            first = len(started) == 1
        if fail and first:
            raise MemoryError("injected")
        time.sleep(0.02)  # the failure is recorded before a batch started beside it ends
        return run_batch(*args)

    monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiment, "run_batch", recorded)
    cfg = RunConfig(params=EpidemicParams(horizon=10), n_runs=12, threads=threads)
    try:
        return started, run_ensemble(g, cfg)
    except MemoryError as exc:
        return started, exc


def test_calling_thread_runs_batches_beside_its_helpers(monkeypatch):
    before, ensembles = threading.active_count(), []
    for threads in (1, 2):
        started, ens = _recorded_ensemble(monkeypatch, threads, fail=False)
        assert len(started) == 12
        assert threading.current_thread() in started  # the calling thread runs batches
        assert len(set(started)) <= threads
        assert threading.active_count() == before  # every helper has ended
        ensembles.append(ens)
    one, two = ensembles
    assert np.array_equal(one.daily, two.daily) and np.array_equal(one.lengths, two.lengths)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_batch_stops_the_hand_out(monkeypatch, threads):
    before = threading.active_count()
    started, error = _recorded_ensemble(monkeypatch, threads, fail=True)
    assert isinstance(error, MemoryError) and str(error) == "injected"
    assert 1 <= len(started) <= threads  # of 12 batches, none starts after the failure
    assert threading.active_count() == before


def test_hand_out_under_stress_runs_each_batch_once(monkeypatch):
    # 8 threads on at most 2 cores, switching every microsecond, taking 1,000
    # one-run batches of a 20-node graph: a batch handed out twice or never
    # would change the call count or the results
    g = two_community(10, 10, 0.3, 0.05, seed=1)
    calls = []

    def counted(*args):
        calls.append(None)
        return run_batch(*args)

    monkeypatch.setattr(experiment, "BATCH_NODES", 1)
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 8)
    monkeypatch.setattr(experiment, "run_batch", counted)
    cfg = RunConfig(params=EpidemicParams(horizon=5), n_runs=1000, strategy="homogeneous", threads=1)
    want, got = run_ensemble(g, cfg), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: got.append(run_ensemble(g, replace(cfg, threads=8))))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and len(got) == 1
    assert len(calls) == 2 * 1000
    assert np.array_equal(got[0].daily, want.daily) and np.array_equal(got[0].lengths, want.lengths)


def test_ensemble_deterministic_and_thread_invariant():
    g = two_community(100, 100, 0.05, 0.005, seed=6)
    cfg = RunConfig(
        seeding=Seeding(3, "all"), n_runs=8, master_seed=99, strategy="homogeneous", threads=1
    )
    a = run_ensemble(g, cfg)
    b = run_ensemble(g, cfg)
    c = run_ensemble(g, replace(cfg, threads=4))
    for other in (b, c):
        for s in ("unvaccinated", "vaccinated", "all"):
            assert np.array_equal(a.mean_curves[s], other.mean_curves[s])
            assert a.mean_attack_rate[s] == other.mean_attack_rate[s]


def test_batched_ensemble_equals_per_run_records_for_any_threads():
    # 45,000 nodes: batches of BATCH_NODES // n = 2 runs, so 5 runs step as
    # batches of 2, 2 and 1, on one thread or on three
    g = two_community(22500, 22500, 0.0002, 0.00001, seed=5)
    assert BATCH_NODES // g.n == 2
    params = EpidemicParams(horizon=40)
    seeding = Seeding(5, "all")
    for strategy in ("polarized", "homogeneous"):
        children = np.random.SeedSequence(31).spawn(6)
        records = []
        for child in children[1:]:
            rng = np.random.Generator(np.random.PCG64(child))
            vaccinated = Allocation.of(g, strategy).draw(g, rng)  # polarized draws nothing
            records.append(run_batch(g, params, seeding, [rng], vaccinated))
        lengths = np.concatenate([r.lengths for r in records])
        cases = np.zeros((len(records), 2, lengths.max()), dtype=np.int64)
        for row, r in zip(cases, records):
            row[:, : r.lengths[0]] = r.cases[0]
        sizes = np.array([g.n - 22500, 22500, g.n])
        for threads in (1, 3):
            cfg = RunConfig(
                params=params, seeding=seeding, n_runs=5, master_seed=31,
                strategy=strategy, threads=threads,
            )
            ens = run_ensemble(g, cfg)
            assert np.array_equal(ens.daily, _fractions(cases, sizes))
            assert np.array_equal(ens.lengths, lengths)
            assert np.array_equal(ens.sizes, sizes)


def test_ensemble_aggregation_order_invariant():
    g = two_community(60, 60, 0.08, 0.01, seed=9)
    ens = run_ensemble(g, RunConfig(n_runs=6, master_seed=5))
    again = EnsembleSummary(ens.allocation, ens.daily[::-1], ens.lengths[::-1], ens.sizes)
    for s in ("unvaccinated", "vaccinated", "all"):
        assert np.allclose(ens.mean_curves[s], again.mean_curves[s])
        assert ens.mean_attack_rate[s] == pytest.approx(again.mean_attack_rate[s])


def test_homogeneous_redraw_toggle():
    g = two_community(100, 100, 0.05, 0.005, seed=2)
    cfg = RunConfig(n_runs=5, master_seed=7, strategy="homogeneous")
    fixed = run_ensemble(g, replace(cfg, homogeneous_redraw=False))
    redraw = run_ensemble(g, replace(cfg, homogeneous_redraw=True))
    # the two modes disagree on at least one curve with these seeds
    length = max(fixed.days, redraw.days)

    def padded(ens):
        out = np.zeros(length)
        out[: ens.days] = ens.mean_curves["unvaccinated"]
        return out

    assert not np.allclose(padded(fixed), padded(redraw))


@pytest.mark.parametrize("redraw", [True, False])
@pytest.mark.parametrize("strategy", ["polarized", "homogeneous"])
def test_ensemble_sizes_are_the_pro_dose_split(strategy, redraw):
    # both allocations give every run exactly the pro count of doses, so one
    # (unvaccinated, vaccinated, all) row holds for the whole ensemble; the
    # shares are (0, 1) polarized and (phi, phi) homogeneous
    g = two_community(30, 50, 0.1, 0.01, seed=8)
    allocation = Allocation.of(g, strategy)
    phi = allocation.shares[0]
    assert allocation.shares == ((0.0, 1.0) if strategy == "polarized" else (phi, phi))
    assert allocation.doses == 30
    assert strategy == "polarized" or round(phi * g.n) == allocation.doses
    cfg = RunConfig(n_runs=3, master_seed=4, strategy=strategy, homogeneous_redraw=redraw)
    ens = run_ensemble(g, cfg)
    assert ens.allocation == allocation
    assert ens.sizes.tolist() == [g.n - allocation.doses, allocation.doses, g.n] == [g.n - 30, 30, g.n]


def test_compare_no_effect_when_vaccine_useless():
    g = two_community(150, 150, 0.04, 0.004, seed=10)
    params = EpidemicParams(vet=0.0, vei=0.0)
    comp = compare_scenarios(g, RunConfig(params=params, n_runs=40, master_seed=21))
    assert 0.9 <= comp.ar_ratio["all"] <= 1.1


def test_compare_reports_all_subpops():
    g = two_community(120, 120, 0.05, 0.002, seed=12)
    comp = compare_scenarios(g, RunConfig(n_runs=5, master_seed=3))
    for s in ("unvaccinated", "vaccinated", "all"):
        assert s in comp.ar_ratio
        assert comp.polarized.mean_curves[s].size == comp.polarized.days


@pytest.mark.parametrize(
    "g, missing",
    [
        (erdos_renyi(60, 0.1, seed=2), "anti"),  # the generators label every node pro
        (graph_from_edges(5, complete_edges(5), [0] * 5), "pro"),
    ],
)
def test_compare_rejects_a_single_opinion_graph(g, missing):
    with pytest.raises(DataError, match=f"no {missing} node"):
        compare_scenarios(g, RunConfig(n_runs=2, master_seed=1))


def test_compare_runs_on_a_two_community_graph_with_a_small_group():
    g = two_community(100, 3, 0.05, 0.01, seed=4)
    comp = compare_scenarios(g, RunConfig(n_runs=2, master_seed=1))
    assert comp.polarized.sizes.tolist() == [3, 100, 103]
