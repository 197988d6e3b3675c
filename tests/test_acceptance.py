"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. The
yearly annotated reference networks are access-restricted; criterion 3
runs only when they are present (see README for the expected data layout).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import complete_edges, graph_from_edges, random_edges
from polarnet.cli import main as cli_main
from polarnet.config import RunConfig
from polarnet.epidemic import (
    INFECTED,
    SUSCEPTIBLE,
    EpidemicParams,
    Seeding,
    delay_table,
    initial_state,
    infectiousness_integral,
    seed_infections,
    status_on,
    step_day,
)
from polarnet.errors import SingleGroupError
from polarnet.experiment import compare_scenarios
from polarnet.generators import barabasi_albert, erdos_renyi, two_community
from polarnet.graph import Opinion, load_edge_list, subgraph_by_opinion
from polarnet.metrics import (
    DegreeDistribution,
    assortativity,
    average_clustering,
    clustering_coefficients,
    cross_connection_ratio,
    degree_distribution,
    density,
    fit_power_law,
    mixing_matrix,
)


def report(criterion: int, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


# -- criterion 1: metric oracles on 200 random annotated graphs -------------


def test_criterion_01_metric_oracles_brute_force():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    checked = 0
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 51))
        edges = random_edges(rng, n, float(rng.uniform(0.08, 0.3)))
        labels = (rng.random(n) < 0.5).astype(np.uint8)
        g = graph_from_edges(n, edges, labels)

        diffs = [abs(density(g) - oracles.brute_density(n, edges))] if edges else []
        cc = clustering_coefficients(g)
        for i in range(n):
            diffs.append(abs(cc[i] - oracles.brute_local_clustering(n, edges, i)))
        diffs.append(abs(average_clustering(g) - oracles.brute_average_clustering(n, edges)))
        if edges:
            m = mixing_matrix(g, labels)
            bm = np.array(oracles.brute_mixing(edges, labels))
            diffs.append(float(np.abs(m - bm).max()))
            e2 = float((m @ m).sum())
            if abs(1.0 - e2) >= 1e-12:
                diffs.append(abs(assortativity(m) - oracles.brute_assortativity(m.tolist())))
            else:
                with pytest.raises(SingleGroupError):
                    assortativity(m)
            if m[0, 0] + m[1, 1] > 0:
                diffs.append(
                    abs(cross_connection_ratio(m) - oracles.brute_cross_connection(m.tolist()))
                )
        worst = max(worst, max(diffs))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0 and checked == 200
    report(1, ok, f"worst deviation {worst:.2e} over {checked} graphs in {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


# -- criterion 2: assortativity extremes and random relabelings --------------


def test_criterion_02_assortativity_extremes():
    cliques = complete_edges(4) + [(u + 4, v + 4) for u, v in complete_edges(4)]
    g_assort = graph_from_edges(8, cliques, [0] * 4 + [1] * 4)
    r_plus = assortativity(mixing_matrix(g_assort, g_assort.opinions))

    bipartite = [(i, 3 + j) for i in range(3) for j in range(3)]
    g_cross = graph_from_edges(6, bipartite, [1, 1, 1, 0, 0, 0])
    r_minus = assortativity(mixing_matrix(g_cross, g_cross.opinions))

    g = erdos_renyi(2000, 0.004, seed=4)
    rng = np.random.default_rng(77)
    values = []
    for _ in range(100):
        labels = (rng.random(g.n) < 0.5).astype(np.uint8)
        values.append(abs(assortativity(mixing_matrix(g, labels))))
    ok = r_plus == 1.0 and r_minus == -1.0 and max(values) < 0.05
    report(
        2,
        ok,
        f"r(+)={r_plus}, r(-)={r_minus}, relabeling max |r|={max(values):.3f} "
        f"(edges={g.edge_count})",
    )
    assert r_plus == 1.0
    assert r_minus == -1.0
    assert max(values) < 0.05
    assert float(np.mean(values)) < 0.05


# -- criterion 3: yearly dataset reproduction (when data present) ------------

_DATA_DIR = Path(os.environ.get("POLARNET_DATA", Path(__file__).parent.parent / "data"))

_YEARLY = {
    2020: dict(
        n=113038, e=223099, anti_pct=29, dens=0.00003, cc=0.05, assort=0.92,
        dens_pro=0.00004, dens_anti=0.00016, gamma=2.47, gamma_pro=2.64, gamma_anti=2.22,
    ),
    2021: dict(
        n=18826, e=75750, anti_pct=47, dens=0.00043, cc=0.17, assort=0.99,
        dens_pro=0.00067, dens_anti=0.00109, gamma=2.1, gamma_pro=2.14, gamma_anti=2.06,
    ),
    2022: dict(
        n=3617, e=14604, anti_pct=69, dens=0.00223, cc=0.18, assort=0.99,
        dens_pro=0.00529, dens_anti=0.00360, gamma=2.07, gamma_pro=2.18, gamma_anti=1.97,
    ),
}


@pytest.mark.parametrize("year", [2020, 2021, 2022])
def test_criterion_03_yearly_network_reproduction(year):
    edges = _DATA_DIR / f"{year}_edges.csv"
    attrs = _DATA_DIR / f"{year}_attrs.csv"
    if not (edges.exists() and attrs.exists()):
        report(3, True, f"{year}: SKIPPED (dataset not present under {_DATA_DIR})")
        pytest.skip(f"annotated network for {year} not available")
    t0 = time.monotonic()
    expected = _YEARLY[year]
    g = load_edge_list(edges, attrs)
    anti_pct = 100.0 * float((g.opinions == int(Opinion.ANTI)).mean())
    checks = {
        "n": g.n == expected["n"],
        "edges": g.edge_count == expected["e"],
        "anti%": abs(anti_pct - expected["anti_pct"]) <= 1.0,
        "density": abs(density(g) - expected["dens"]) <= 0.00001,
        "cc": abs(average_clustering(g) - expected["cc"]) <= 0.01,
        "assort": abs(assortativity(mixing_matrix(g, g.opinions)) - expected["assort"]) <= 0.005,
        "gamma": abs(fit_power_law(degree_distribution(g)).gamma - expected["gamma"]) <= 0.15,
    }
    for op, tag in ((Opinion.PRO, "pro"), (Opinion.ANTI, "anti")):
        sub = subgraph_by_opinion(g, op)
        checks[f"density_{tag}"] = abs(density(sub) - expected[f"dens_{tag}"]) <= 0.00001
        checks[f"gamma_{tag}"] = (
            abs(fit_power_law(degree_distribution(sub)).gamma - expected[f"gamma_{tag}"]) <= 0.15
        )
    elapsed = time.monotonic() - t0
    failed = [k for k, v in checks.items() if not v]
    ok = not failed and (year != 2020 or elapsed < 120.0)
    report(3, ok, f"{year}: {'all metrics in tolerance' if ok else 'failed: ' + ','.join(failed)} ({elapsed:.0f}s)")
    assert not failed
    if year == 2020:
        assert elapsed < 120.0


# -- criterion 4: infectiousness integral vs quadrature ----------------------


def test_criterion_04_infectiousness_integral():
    worst = max(
        abs(infectiousness_integral(t, 5.5, 2.14) - oracles.integral_oracle(t, 5.5, 2.14))
        for t in range(1, 31)
    )
    total = sum(infectiousness_integral(t, 5.5, 2.14) for t in range(1, 61))
    ok = worst <= 1e-8 and abs(total - 1.0) <= 1e-6
    report(4, ok, f"max quadrature deviation {worst:.2e}, total mass {total:.8f}")
    assert worst <= 1e-8
    assert abs(total - 1.0) <= 1e-6


# -- criterion 5: power-law fit recovery -------------------------------------


def test_criterion_05_power_law_recovery():
    t0 = time.monotonic()
    counts = {k: round(1e8 * k**-2.0) for k in range(1, 101)}
    fit = fit_power_law(DegreeDistribution(counts=counts, n=sum(counts.values())))
    gammas = []
    for seed in range(10):
        g = barabasi_albert(20000, 3, seed=seed)
        gammas.append(fit_power_law(degree_distribution(g), k_min=3, min_count=5).gamma)
    mean_gamma = float(np.mean(gammas))
    elapsed = time.monotonic() - t0
    ok = abs(fit.gamma - 2.0) <= 0.02 and 2.6 <= mean_gamma <= 3.4 and elapsed < 30.0
    report(
        5,
        ok,
        f"synthetic gamma={fit.gamma:.4f}, scale-free mean gamma={mean_gamma:.2f} "
        f"over 10 seeds in {elapsed:.1f}s",
    )
    assert abs(fit.gamma - 2.0) <= 0.02
    assert 2.6 <= mean_gamma <= 3.4
    assert elapsed < 30.0


# -- criteria 6+7: desk-scale screening effect and peak ordering -------------

_SCREENING_RUNS = 100


@pytest.fixture(scope="module")
def screening_comparison():
    g = two_community(2000, 2000, 0.004, 0.00004, seed=2022)
    params = EpidemicParams()  # study defaults, daily_interactions = 2
    t0 = time.monotonic()
    cfg = RunConfig(
        params=params, seeding=Seeding(10, "all"), n_runs=_SCREENING_RUNS, master_seed=7
    )
    comp = compare_scenarios(g, cfg)
    return comp, time.monotonic() - t0


def test_criterion_06_polarization_screening(screening_comparison):
    comp, elapsed = screening_comparison
    ar_pol = comp.polarized.mean_attack_rate["unvaccinated"]
    ar_hom = comp.homogeneous.mean_attack_rate["unvaccinated"]
    ratio = ar_pol / ar_hom
    vacc_pol = comp.polarized.mean_attack_rate["vaccinated"]
    vacc_hom = comp.homogeneous.mean_attack_rate["vaccinated"]
    ok = ratio >= 1.5 and vacc_pol <= vacc_hom and elapsed < 300.0
    report(
        6,
        ok,
        f"unvaccinated AR {ar_pol:.3f} vs {ar_hom:.3f} (ratio {ratio:.2f}, need >= 1.5); "
        f"vaccinated AR {vacc_pol:.3f} vs {vacc_hom:.3f}; {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert vacc_pol <= vacc_hom
    assert ratio >= 1.5, (
        f"polarized/homogeneous unvaccinated attack-rate ratio {ratio:.3f} < 1.5: "
        "with agents averaging I_bar = 2 daily interactions on this mean-degree-8 "
        "graph, the vaccinated nodes interleaved by the homogeneous allocation "
        "should screen its unvaccinated far more than the polarized allocation's "
        "vaccinated pro block screens the anti block (README, sensitivity note)"
    )


def test_criterion_07_time_to_peak_ordering(screening_comparison):
    comp, _ = screening_comparison
    tp_pol = comp.polarized.mean_t_peak["unvaccinated"]
    tp_hom = comp.homogeneous.mean_t_peak["unvaccinated"]
    ok = tp_pol <= tp_hom
    report(7, ok, f"mean T_peak polarized {tp_pol:.1f} <= homogeneous {tp_hom:.1f}")
    assert tp_pol <= tp_hom


# -- criterion 8: null-effect control ----------------------------------------


def test_criterion_08_null_effect_control():
    g = two_community(2000, 2000, 0.004, 0.00004, seed=2022)
    params = EpidemicParams(vet=0.0, vei=0.0)
    comp = compare_scenarios(g, RunConfig(params=params, seeding=Seeding(10, "all"), master_seed=8))
    ratio = (
        comp.polarized.mean_attack_rate["unvaccinated"]
        / comp.homogeneous.mean_attack_rate["unvaccinated"]
    )
    ok = 0.9 <= ratio <= 1.1
    report(8, ok, f"ineffective-vaccine AR ratio {ratio:.3f} (must lie in [0.9, 1.1])")
    assert 0.9 <= ratio <= 1.1


# -- criterion 9: byte-identical CLI outputs ----------------------------------

_COMPARE_FILES = (
    "curves_polarized.csv",
    "curves_homogeneous.csv",
    "summary.csv",
    "curves_unvaccinated.svg",
    "curves_vaccinated.svg",
    "curves_all.svg",
)


def test_criterion_09_compare_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "generator=two-community\nn_pro=150\nn_anti=150\np_in=0.03\np_out=0.001\n"
        "graph_seed=3\nn_runs=6\nseed_count=5\nmaster_seed=11\n"
    )
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / name
        code = cli_main(
            ["compare", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
        )
        assert code == 0
        outs.append(out)
    mismatched = [
        f
        for f in _COMPARE_FILES
        if not (
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() == (outs[2] / f).read_bytes()
        )
    ]
    ok = not mismatched
    report(9, ok, "all outputs byte-identical across reruns and thread counts" if ok else f"mismatch: {mismatched}")
    assert not mismatched


# -- criterion 10: stepwise invariants over randomized simulations ------------


def test_criterion_10_conservation_invariants():
    rng = np.random.default_rng(10)
    violations = 0
    sims = 0
    for _ in range(1000):
        n = int(rng.integers(5, 26))
        g = graph_from_edges(n, random_edges(rng, n, float(rng.uniform(0.1, 0.4))))
        params = EpidemicParams(
            infection_rate=float(rng.uniform(0.5, 8.0)),
            vei=float(rng.uniform(0.0, 1.0)),
            vet=float(rng.uniform(0.0, 1.0)),
            max_infectious_days=int(rng.integers(2, 9)),
            horizon=30,
            vet_mode="daily" if rng.random() < 0.5 else "once",
        )
        vaccinated = rng.random(n) < float(rng.uniform(0.0, 0.8))
        state = initial_state(n, vaccinated, [int(rng.integers(0, 2**31))])
        seed_infections(state, Seeding(1, "all"), params)
        table = delay_table(g, params)
        status = status_on(state.day_infected, state.day, params.max_infectious_days)
        ever = set(np.flatnonzero(status == INFECTED).tolist())
        cumulative = 1
        while state.day < params.horizon and (status == INFECTED).any():
            step_day(g, state, params, table)
            status = status_on(state.day_infected, state.day, params.max_infectious_days)
            s, i, r = np.bincount(status, minlength=3)
            new = state.cases[0, :, -1]
            cumulative += int(new.sum())
            touched = set(np.flatnonzero(status != SUSCEPTIBLE).tolist())
            if (
                s + i + r != n
                or (new < 0).any()
                or not ever <= touched
                or len(touched) != cumulative
            ):
                violations += 1
                break
            ever = touched
        sims += 1
    ok = violations == 0 and sims == 1000
    report(10, ok, f"{sims} randomized simulations, {violations} invariant violations")
    assert violations == 0
