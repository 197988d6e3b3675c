"""Vaccine-allocation scenarios and Monte Carlo ensembles.

Two allocations are compared at equal dose counts on the same graph:
``POLARIZED`` vaccinates exactly the pro-opinion nodes, ``HOMOGENEOUS``
spreads the same number of doses uniformly at random over all nodes.
Ensembles derive one independent RNG stream per run from a master seed, so
results are bit-identical regardless of how runs are scheduled.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .epidemic import EpidemicParams, RunRecord, Seeding, delay_table, run_batch
from .errors import DataError
from .graph import AnnotatedGraph, Opinion

SUBPOPS = ("unvaccinated", "vaccinated", "all")

# the fewest arcs on which "auto" starts more than one thread: on 2 cores two
# threads ran 40 runs no faster than one at 808k arcs and 1.17x faster at 1.2M
AUTO_THREADS_MIN_ARCS = 1_000_000

# nodes stepped together in one batch of runs: 32 runs of a 4,000-node graph,
# one run at a time above 65,536 nodes
BATCH_NODES = 2**17


class AllocationStrategy(Enum):
    POLARIZED = "polarized"
    HOMOGENEOUS = "homogeneous"


def allocate_vaccines(
    g: AnnotatedGraph, strategy: AllocationStrategy, rng
) -> np.ndarray:
    """Per-node vaccination flags; dose count always equals the pro count."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.PCG64(rng))
    pro = g.opinions == int(Opinion.PRO)
    if strategy is AllocationStrategy.POLARIZED:
        return pro.copy()
    doses = int(pro.sum())
    flags = np.zeros(g.n, dtype=bool)
    flags[rng.choice(g.n, size=doses, replace=False)] = True
    return flags


@dataclass(frozen=True)
class RunSummary:
    """Per-day new-infection fractions of one run, by subpopulation.

    Row i of ``daily`` (shape ``(3, days)``) is subpopulation ``SUBPOPS[i]``
    divided by its size ``sizes[i]``, so its attack rate is exactly the row
    sum. The row of an empty subpopulation is all zeros.
    """

    daily: np.ndarray
    sizes: tuple[int, int, int]


def summarize_run(record: RunRecord) -> RunSummary:
    n_vacc = int(record.vaccinated.sum())
    sizes = (record.vaccinated.size - n_vacc, n_vacc, record.vaccinated.size)
    counts = (record.new_unvacc, record.new_vacc, record.new_unvacc + record.new_vacc)
    daily = np.array([c / size if size else np.zeros(c.size) for c, size in zip(counts, sizes)])
    return RunSummary(daily=daily, sizes=sizes)


def _row(subpop: str) -> int:
    if subpop not in SUBPOPS:
        raise DataError(f"subpop must be one of {SUBPOPS}")
    return SUBPOPS.index(subpop)


def attack_rate(run: RunSummary, subpop: str) -> float:
    """Cumulative infected fraction of the subpopulation at run end."""
    row = _row(subpop)
    if run.sizes[row] == 0:
        raise DataError(f"subpopulation {subpop!r} is empty")
    return float(run.daily[row].sum())


def time_to_peak(run: RunSummary, subpop: str) -> int:
    """Day of the maximum daily new-infection count; earliest day on ties."""
    series = run.daily[_row(subpop)]
    if not series.any():
        raise DataError(f"no infections in subpopulation {subpop!r}")
    return int(np.argmax(series))


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregates over an ensemble; every field is recomputable from runs."""

    strategy: AllocationStrategy
    runs: list[RunSummary]
    mean_curves: dict[str, np.ndarray]  # subpop -> padded daily mean fractions
    band_low: dict[str, np.ndarray]  # pointwise 10th percentile
    band_high: dict[str, np.ndarray]  # pointwise 90th percentile
    mean_attack_rate: dict[str, float]
    mean_t_peak: dict[str, float]

    @property
    def days(self) -> int:
        return self.mean_curves["all"].size


def _aggregate(strategy: AllocationStrategy, runs: list[RunSummary]) -> EnsembleSummary:
    stack = np.zeros((len(runs), len(SUBPOPS), max(r.daily.shape[1] for r in runs)))
    for padded, run in zip(stack, runs):
        padded[:, : run.daily.shape[1]] = run.daily
    mean_curves, lo, hi, mean_ar, mean_tp = {}, {}, {}, {}, {}
    for row, subpop in enumerate(SUBPOPS):
        curves = stack[:, row]
        mean_curves[subpop] = curves.mean(axis=0)
        lo[subpop] = np.quantile(curves, 0.1, axis=0)
        hi[subpop] = np.quantile(curves, 0.9, axis=0)
        # each run's own unpadded row sum, then one mean over the runs: the
        # padded stack would sum in another order and round differently
        ars = [float(r.daily[row].sum()) if r.sizes[row] else math.nan for r in runs]
        mean_ar[subpop] = float(np.mean(ars))
        # runs where the subpop saw no infection have no peak; average the rest
        seen = curves.any(axis=1)
        mean_tp[subpop] = float(np.mean(curves.argmax(axis=1)[seen])) if seen.any() else math.nan
    return EnsembleSummary(
        strategy=strategy,
        runs=runs,
        mean_curves=mean_curves,
        band_low=lo,
        band_high=hi,
        mean_attack_rate=mean_ar,
        mean_t_peak=mean_tp,
    )


def _seed_sequence(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def resolve_threads(threads: int, n_batches: int, arc_count: int) -> int:
    """Worker threads for ``n_batches`` batches of runs, at most ``n_batches``
    and the CPU count; 0 is "auto"."""
    cpus = os.cpu_count() or 1
    if threads == 0:
        threads = cpus if arc_count >= AUTO_THREADS_MIN_ARCS else 1
    return max(1, min(threads, cpus, n_batches))


def run_ensemble(
    g: AnnotatedGraph,
    params: EpidemicParams,
    strategy: AllocationStrategy,
    n_runs: int,
    master_seed,
    seeding: Seeding = Seeding(),
    threads: int = 1,
    homogeneous_redraw: bool = True,
) -> EnsembleSummary:
    """n_runs independent runs with per-run seeds derived from master_seed.

    Runs are stepped in batches of up to ``BATCH_NODES // g.n`` runs, and a
    batch is the thread pool's unit of work; each run keeps its own stream,
    so neither changes a result.

    Homogeneous allocations are redrawn every run by default so ensemble
    variance includes allocation randomness; ``homogeneous_redraw=False``
    freezes a single random allocation for the whole ensemble instead.
    """
    if n_runs < 1:
        raise DataError("ensemble needs n_runs >= 1")
    children = _seed_sequence(master_seed).spawn(n_runs + 1)
    fixed = None
    if strategy is AllocationStrategy.HOMOGENEOUS and not homogeneous_redraw:
        fixed = allocate_vaccines(g, strategy, np.random.Generator(np.random.PCG64(children[0])))
    elif strategy is AllocationStrategy.POLARIZED:
        fixed = allocate_vaccines(g, strategy, 0)  # deterministic, share across runs

    table = delay_table(g, params)
    size = max(1, min(n_runs, BATCH_NODES // max(g.n, 1)))
    batches = [range(i, min(i + size, n_runs)) for i in range(0, n_runs, size)]

    def job(batch: range) -> list[RunSummary]:
        rngs = [np.random.Generator(np.random.PCG64(children[i + 1])) for i in batch]
        if fixed is not None:
            vaccinated = fixed
        else:
            vaccinated = np.array([allocate_vaccines(g, strategy, rng) for rng in rngs])
        return [summarize_run(r) for r in run_batch(g, params, seeding, rngs, vaccinated, table)]

    workers = resolve_threads(threads, len(batches), g.indices.size)
    if workers == 1:
        parts = [job(b) for b in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, batches))
    runs = [run for part in parts for run in part]
    return _aggregate(strategy, runs)


@dataclass(frozen=True)
class Comparison:
    """Paired polarized-vs-homogeneous ensembles on one graph."""

    polarized: EnsembleSummary
    homogeneous: EnsembleSummary
    ar_ratio: dict[str, float]  # polarized mean AR / homogeneous mean AR
    t_peak_diff: dict[str, float]  # polarized mean minus homogeneous mean


def compare_scenarios(
    g: AnnotatedGraph,
    params: EpidemicParams,
    n_runs: int,
    master_seed,
    seeding: Seeding = Seeding(),
    threads: int = 1,
    homogeneous_redraw: bool = True,
) -> Comparison:
    """Run both strategies on the same graph and report paired statistics."""
    pol_ss, hom_ss = _seed_sequence(master_seed).spawn(2)
    pol = run_ensemble(
        g, params, AllocationStrategy.POLARIZED, n_runs, pol_ss, seeding, threads
    )
    hom = run_ensemble(
        g, params, AllocationStrategy.HOMOGENEOUS, n_runs, hom_ss, seeding, threads,
        homogeneous_redraw=homogeneous_redraw,
    )
    ratio = {
        s: pol.mean_attack_rate[s] / hom.mean_attack_rate[s]
        if hom.mean_attack_rate[s]
        else float("nan")
        for s in SUBPOPS
    }
    diff = {s: pol.mean_t_peak[s] - hom.mean_t_peak[s] for s in SUBPOPS}
    return Comparison(polarized=pol, homogeneous=hom, ar_ratio=ratio, t_peak_diff=diff)
