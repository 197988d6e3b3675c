"""Vaccine allocations and Monte Carlo ensembles.

An :class:`Allocation` is a vaccination share per opinion plus its draw. Those
of ``config.STRATEGIES`` give equal dose counts: ``"polarized"`` vaccinates
the pro-opinion nodes, ``"homogeneous"`` as many nodes uniformly at random.
:func:`run_ensemble` runs the strategy of a :class:`RunConfig` and
:func:`compare_scenarios` runs both; each takes every other setting from the
config. Ensembles derive one independent RNG stream per run from the master
seed, so results are bit-identical regardless of how runs are scheduled.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import STRATEGIES, RunConfig
from .epidemic import delay_table, run_batch
from .errors import DataError
from .graph import AnnotatedGraph, Opinion

SUBPOPS = ("unvaccinated", "vaccinated", "all")

# the fewest arcs on which "auto" starts more than one thread: on 2 cores two
# threads ran 40 runs no faster than one at 808k arcs and 1.17x faster at 1.2M
AUTO_THREADS_MIN_ARCS = 1_000_000

# nodes stepped together in one batch of runs: 32 runs of a 4,000-node graph,
# one run at a time above 65,536 nodes
BATCH_NODES = 2**17


@dataclass(frozen=True)
class Allocation:
    """Vaccination probability ``shares[o]`` of opinion o; every draw gives ``doses`` doses."""

    strategy: str  # its name in config.STRATEGIES
    shares: tuple[float, float]  # (v_anti, v_pro)
    doses: int

    @classmethod
    def of(cls, g: AnnotatedGraph, strategy: str) -> Allocation:
        """``strategy`` on ``g``: shares (0, 1) or (phi, phi), phi the pro fraction; doses the pro count."""
        doses = int(np.count_nonzero(g.opinions == int(Opinion.PRO)))
        phi = doses / max(g.n, 1)
        return cls(strategy, dict(zip(STRATEGIES, ((0.0, 1.0), (phi, phi))))[strategy], doses)

    def draw(self, g: AnnotatedGraph, rng) -> np.ndarray:
        """Per-node flags. Unequal shares (0 or 1) give a fixed opinion set, drawing nothing; equal
        shares take ``doses`` nodes by one ``rng.choice``, made even of all or none to keep the stream."""
        if self.shares[0] != self.shares[1]:
            return (np.array(self.shares) == 1)[g.opinions]
        flags = np.zeros(g.n, dtype=bool)
        flags[np.random.default_rng(rng).choice(g.n, size=self.doses, replace=False)] = True
        return flags


@dataclass(frozen=True)
class EnsembleSummary:
    """The runs of an ensemble; its statistics are derived from them, each
    on first use.

    ``daily[r, i]`` is run r's daily new infections in subpopulation
    ``SUBPOPS[i]`` divided by its size ``sizes[i]``, all zeros for an empty
    subpopulation and zero-padded past the run's ``lengths[r]`` days, so a
    run's attack rate is its row sum. Every run of ``allocation`` gives its
    ``doses``, so the sizes are one row for all runs.
    """

    allocation: Allocation
    daily: np.ndarray  # (runs, 3, days) daily new-infection fractions
    lengths: np.ndarray  # (runs,) days of each run
    sizes: np.ndarray  # (3,) subpopulation sizes

    @property
    def days(self) -> int:
        return self.daily.shape[2]

    @cached_property
    def mean_curves(self) -> dict[str, np.ndarray]:
        """Subpopulation -> padded daily mean fractions."""
        return {subpop: self.daily[:, row].mean(axis=0) for row, subpop in enumerate(SUBPOPS)}

    @cached_property
    def mean_attack_rate(self) -> dict[str, float]:
        """Subpopulation -> mean of the runs' attack rates; NaN if it is empty."""
        mean_ar = {}
        for row, subpop in enumerate(SUBPOPS):
            # each run's own unpadded row sum, then one mean over the runs: the
            # padded stack would sum in another order and round differently
            ars = [run[:n].sum() for run, n in zip(self.daily[:, row], self.lengths.tolist())]
            mean_ar[subpop] = float(np.mean(ars)) if self.sizes[row] > 0 else math.nan
        return mean_ar

    @cached_property
    def mean_t_peak(self) -> dict[str, float]:
        """Subpopulation -> mean earliest peak day of the runs with a case in it."""
        mean_tp = {}
        for row, subpop in enumerate(SUBPOPS):
            curves = self.daily[:, row]
            seen = curves.any(axis=1)  # a run with no case in the subpopulation has no peak
            mean_tp[subpop] = float(np.mean(curves.argmax(axis=1)[seen])) if seen.any() else math.nan
        return mean_tp

    def series(self, row: int) -> list[np.ndarray]:
        """Row ``row`` of each run's ``daily``, cut at the run's own length."""
        return [run[row, :n] for run, n in zip(self.daily, self.lengths.tolist())]


def _fractions(cases: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``daily`` (see :class:`EnsembleSummary`) of the (runs, 2, days) case
    counts of :class:`~polarnet.epidemic.RunRecord` and the (3,) ``sizes``."""
    daily = np.empty((len(cases), len(SUBPOPS), cases.shape[2]))
    daily[:, :2] = cases
    daily[:, 2] = daily[:, 0] + daily[:, 1]
    daily /= np.maximum(sizes, 1)[:, None]  # an empty subpopulation's row stays 0
    return daily


def usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity where reported, else the CPU count; None if unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def resolve_threads(threads: int, n_batches: int, arc_count: int) -> int:
    """Worker threads, the calling thread among them, for ``n_batches``
    batches of runs: at most ``n_batches`` and :func:`usable_cpus`; 0 is "auto"."""
    cpus = usable_cpus() or 1
    if threads == 0:
        threads = cpus if arc_count >= AUTO_THREADS_MIN_ARCS else 1
    return max(1, min(threads, cpus, n_batches))


def run_ensemble(g: AnnotatedGraph, cfg: RunConfig) -> EnsembleSummary:
    """``cfg.n_runs`` independent runs of ``cfg.strategy``, with per-run seeds
    derived from ``cfg.master_seed``."""
    return _ensemble(g, cfg, Allocation.of(g, cfg.strategy), np.random.SeedSequence(cfg.master_seed))


def _ensemble(
    g: AnnotatedGraph, cfg: RunConfig, allocation: Allocation, seed: np.random.SeedSequence
) -> EnsembleSummary:
    """``cfg.n_runs`` runs of ``allocation``, run i on child i + 1 of ``seed``.

    Runs are stepped in batches of up to ``BATCH_NODES // g.n`` runs, handed
    out in index order to the calling thread and ``workers - 1`` helpers; a
    failed batch stops the hand-out and is raised once every worker is done.
    Each run keeps its own stream, so neither changes a result.

    Each run draws its own allocation, so ensemble variance includes its randomness,
    unless ``cfg.homogeneous_redraw`` is false: then one draw from child 0 serves all runs.
    """
    children = seed.spawn(cfg.n_runs + 1)
    fixed = None if cfg.homogeneous_redraw else allocation.draw(g, children[0])

    table = delay_table(g, cfg.params)
    size = max(1, min(cfg.n_runs, BATCH_NODES // max(g.n, 1)))
    batches = [range(i, min(i + size, cfg.n_runs)) for i in range(0, cfg.n_runs, size)]

    def job(batch: range) -> tuple[np.ndarray, np.ndarray]:
        rngs = [np.random.default_rng(children[i + 1]) for i in batch]
        vaccinated = fixed
        if fixed is None:  # each run's draw fills its row: no list of draws lives beside the stack
            vaccinated = np.empty((len(batch), g.n), dtype=bool)
            for row, rng in zip(vaccinated, rngs):
                row[:] = allocation.draw(g, rng)
        record = run_batch(g, cfg.params, cfg.seeding, rngs, vaccinated, table)
        return record.cases, record.lengths  # no (runs, n) infection days outlive the job

    workers = resolve_threads(cfg.threads, len(batches), g.indices.size)
    parts, todo, lock, failures = [None] * len(batches), iter(enumerate(batches)), threading.Lock(), []

    def work() -> None:  # runs batches until none is left or one has failed
        try:
            while not failures:
                with lock:
                    i, batch = next(todo, (0, None))
                if batch is None:
                    break
                parts[i] = job(batch)
        except BaseException as exc:  # raised below, once every worker is done
            failures.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    stacks, lengths = zip(*parts)
    cases = np.zeros((cfg.n_runs, 2, max(stack.shape[2] for stack in stacks)), dtype=np.int64)
    for batch, stack in zip(batches, stacks):
        cases[batch.start : batch.stop, :, : stack.shape[2]] = stack
    sizes = np.array([g.n - allocation.doses, allocation.doses, g.n])
    return EnsembleSummary(allocation, _fractions(cases, sizes), np.concatenate(lengths), sizes)


class Comparison(NamedTuple):
    """Paired ensembles on one graph, in ``config.STRATEGIES`` order."""

    polarized: EnsembleSummary
    homogeneous: EnsembleSummary

    @property
    def ar_ratio(self) -> dict[str, float]:
        """Subpopulation -> polarized mean AR / homogeneous mean AR."""
        pol_ar, hom_ar = self.polarized.mean_attack_rate, self.homogeneous.mean_attack_rate
        return {s: pol_ar[s] / hom_ar[s] if hom_ar[s] else math.nan for s in SUBPOPS}


def compare_scenarios(g: AnnotatedGraph, cfg: RunConfig) -> Comparison:
    """Run both strategies on the same graph and report paired statistics;
    ``cfg.strategy`` plays no part.

    Raises DataError when the graph lacks either opinion: with no anti node
    the polarized allocation leaves no one unvaccinated, and with no pro node
    it vaccinates no one, so there is nothing to compare.
    """
    for opinion in Opinion:
        if not (g.opinions == int(opinion)).any():
            raise DataError(f"compare needs pro and anti nodes, but the graph has no {opinion} node")
    seeds = np.random.SeedSequence(cfg.master_seed).spawn(len(STRATEGIES))
    return Comparison(*(_ensemble(g, cfg, Allocation.of(g, s), seed) for s, seed in zip(STRATEGIES, seeds)))
