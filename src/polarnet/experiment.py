"""Vaccine-allocation scenarios and Monte Carlo ensembles.

Two allocations are compared at equal dose counts on the same graph:
``"polarized"`` vaccinates exactly the pro-opinion nodes, ``"homogeneous"``
spreads the same number of doses uniformly at random over all nodes.
:func:`run_ensemble` runs the strategy of a :class:`RunConfig` and
:func:`compare_scenarios` runs both; each takes every other setting from the
config. Ensembles derive one independent RNG stream per run from the master
seed, so results are bit-identical regardless of how runs are scheduled.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .epidemic import RunRecord, delay_table, run_batch
from .graph import AnnotatedGraph, Opinion

SUBPOPS = ("unvaccinated", "vaccinated", "all")

# the fewest arcs on which "auto" starts more than one thread: on 2 cores two
# threads ran 40 runs no faster than one at 808k arcs and 1.17x faster at 1.2M
AUTO_THREADS_MIN_ARCS = 1_000_000

# nodes stepped together in one batch of runs: 32 runs of a 4,000-node graph,
# one run at a time above 65,536 nodes
BATCH_NODES = 2**17


def allocate_vaccines(g: AnnotatedGraph, strategy: str, rng) -> np.ndarray:
    """Per-node vaccination flags of the ``"polarized"`` or ``"homogeneous"``
    strategy; dose count always equals the pro count."""
    pro = g.opinions == int(Opinion.PRO)
    if strategy == "polarized":
        return pro.copy()
    doses = int(pro.sum())
    flags = np.zeros(g.n, dtype=bool)
    flags[np.random.default_rng(rng).choice(g.n, size=doses, replace=False)] = True
    return flags


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregates over an ensemble; every field is recomputable from
    ``daily``, ``lengths`` and ``sizes``.

    ``daily[r, i]`` is run r's daily new infections in subpopulation
    ``SUBPOPS[i]`` divided by its size ``sizes[r, i]``, all zeros for an
    empty subpopulation and zero-padded past the run's ``lengths[r]`` days,
    so a run's attack rate is its row sum.
    """

    strategy: str
    daily: np.ndarray  # (runs, 3, days) daily new-infection fractions
    lengths: np.ndarray  # (runs,) days of each run
    sizes: np.ndarray  # (runs, 3) subpopulation sizes
    mean_curves: dict[str, np.ndarray]  # subpop -> padded daily mean fractions
    band_low: dict[str, np.ndarray]  # pointwise 10th percentile
    band_high: dict[str, np.ndarray]  # pointwise 90th percentile
    mean_attack_rate: dict[str, float]  # NaN for an empty subpopulation
    mean_t_peak: dict[str, float]  # mean earliest peak day of the runs with a case

    @property
    def days(self) -> int:
        return self.mean_curves["all"].size

    def series(self, row: int) -> list[np.ndarray]:
        """Row ``row`` of each run's ``daily``, cut at the run's own length."""
        return [run[row, :n] for run, n in zip(self.daily, self.lengths.tolist())]


def _fractions(records: list[RunRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``daily``, ``lengths`` and ``sizes`` (see :class:`EnsembleSummary`) of a
    batch's records, which need not outlive the batch."""
    lengths = np.array([r.days for r in records])
    n = records[0].vaccinated.size
    n_vacc = np.array([int(r.vaccinated.sum()) for r in records])
    sizes = np.column_stack((n - n_vacc, n_vacc, np.full(len(records), n)))
    daily = np.zeros((len(records), len(SUBPOPS), int(lengths.max())))
    for counts, r in zip(daily, records):
        counts[:2, : r.days] = r.new_unvacc, r.new_vacc
    daily[:, 2] = daily[:, 0] + daily[:, 1]
    daily /= np.maximum(sizes, 1)[:, :, None]  # an empty subpopulation's row stays 0
    return daily, lengths, sizes


def _aggregate(
    strategy: str, daily: np.ndarray, lengths: np.ndarray, sizes: np.ndarray
) -> EnsembleSummary:
    mean_curves, lo, hi, mean_ar, mean_tp = {}, {}, {}, {}, {}
    for row, subpop in enumerate(SUBPOPS):
        curves = daily[:, row]
        mean_curves[subpop] = curves.mean(axis=0)
        lo[subpop] = np.quantile(curves, 0.1, axis=0)
        hi[subpop] = np.quantile(curves, 0.9, axis=0)
        # each run's own unpadded row sum, then one mean over the runs: the
        # padded stack would sum in another order and round differently
        ars = [run[:n].sum() for run, n in zip(curves, lengths.tolist())]
        mean_ar[subpop] = float(np.mean(np.where(sizes[:, row] > 0, ars, math.nan)))
        # runs where the subpop saw no infection have no peak; average the rest
        seen = curves.any(axis=1)
        mean_tp[subpop] = float(np.mean(curves.argmax(axis=1)[seen])) if seen.any() else math.nan
    return EnsembleSummary(
        strategy=strategy,
        daily=daily,
        lengths=lengths,
        sizes=sizes,
        mean_curves=mean_curves,
        band_low=lo,
        band_high=hi,
        mean_attack_rate=mean_ar,
        mean_t_peak=mean_tp,
    )


def resolve_threads(threads: int, n_batches: int, arc_count: int) -> int:
    """Worker threads for ``n_batches`` batches of runs, at most ``n_batches``
    and the CPU count; 0 is "auto"."""
    cpus = os.cpu_count() or 1
    if threads == 0:
        threads = cpus if arc_count >= AUTO_THREADS_MIN_ARCS else 1
    return max(1, min(threads, cpus, n_batches))


def run_ensemble(g: AnnotatedGraph, cfg: RunConfig) -> EnsembleSummary:
    """``cfg.n_runs`` independent runs of ``cfg.strategy``, with per-run seeds
    derived from ``cfg.master_seed``."""
    return _ensemble(g, cfg, cfg.strategy, np.random.SeedSequence(cfg.master_seed))


def _ensemble(
    g: AnnotatedGraph, cfg: RunConfig, strategy: str, seed: np.random.SeedSequence
) -> EnsembleSummary:
    """``cfg.n_runs`` runs of ``strategy``, run i on child i + 1 of ``seed``.

    Runs are stepped in batches of up to ``BATCH_NODES // g.n`` runs, and a
    batch is the thread pool's unit of work; each run keeps its own stream,
    so neither changes a result.

    Homogeneous allocations are redrawn every run by default so ensemble
    variance includes allocation randomness; ``cfg.homogeneous_redraw=False``
    freezes a single random allocation (from child 0) for the whole ensemble
    instead.
    """
    children = seed.spawn(cfg.n_runs + 1)
    fixed = None
    if strategy == "polarized" or not cfg.homogeneous_redraw:
        # one allocation shared by every run: the pro set, or one draw from child 0
        fixed = allocate_vaccines(g, strategy, children[0])

    table = delay_table(g, cfg.params)
    size = max(1, min(cfg.n_runs, BATCH_NODES // max(g.n, 1)))
    batches = [range(i, min(i + size, cfg.n_runs)) for i in range(0, cfg.n_runs, size)]

    def job(batch: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rngs = [np.random.default_rng(children[i + 1]) for i in batch]
        if fixed is not None:
            vaccinated = fixed
        else:
            vaccinated = np.array([allocate_vaccines(g, strategy, rng) for rng in rngs])
        return _fractions(run_batch(g, cfg.params, cfg.seeding, rngs, vaccinated, table))

    workers = resolve_threads(cfg.threads, len(batches), g.indices.size)
    if workers == 1:
        parts = [job(b) for b in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, batches))
    stacks, lengths, sizes = zip(*parts)
    daily = np.zeros((cfg.n_runs, len(SUBPOPS), max(stack.shape[2] for stack in stacks)))
    for batch, stack in zip(batches, stacks):
        daily[batch.start : batch.stop, :, : stack.shape[2]] = stack
    return _aggregate(strategy, daily, np.concatenate(lengths), np.concatenate(sizes))


@dataclass(frozen=True)
class Comparison:
    """Paired polarized-vs-homogeneous ensembles on one graph."""

    polarized: EnsembleSummary
    homogeneous: EnsembleSummary
    ar_ratio: dict[str, float]  # polarized mean AR / homogeneous mean AR
    t_peak_diff: dict[str, float]  # polarized mean minus homogeneous mean


def compare_scenarios(g: AnnotatedGraph, cfg: RunConfig) -> Comparison:
    """Run both strategies on the same graph and report paired statistics;
    ``cfg.strategy`` plays no part."""
    pol_ss, hom_ss = np.random.SeedSequence(cfg.master_seed).spawn(2)
    pol = _ensemble(g, cfg, "polarized", pol_ss)
    hom = _ensemble(g, cfg, "homogeneous", hom_ss)
    pol_ar, hom_ar = pol.mean_attack_rate, hom.mean_attack_rate
    ratio = {s: pol_ar[s] / hom_ar[s] if hom_ar[s] else math.nan for s in SUBPOPS}
    diff = {s: pol.mean_t_peak[s] - hom.mean_t_peak[s] for s in SUBPOPS}
    return Comparison(polarized=pol, homogeneous=hom, ar_ratio=ratio, t_peak_diff=diff)
