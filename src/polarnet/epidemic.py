"""Agent-based virus transmission over a contact graph, run as first passage.

Per interaction, an infector who was infected t days ago transmits with
probability ``P(t) = 1 - exp(-lambda(t))`` where lambda scales the mass of a gamma
infectiousness curve on [t-1, t] by ``infection_rate * age_scale *
asymptomatic_scale * network_scale / daily_interactions``.

Agents average ``daily_interactions`` (I_bar) interactions a day: every edge
is active on a given day with probability ``q = min(1, I_bar / <k>)``, where
``<k> = 2 * edge_count / n`` is the graph's mean degree. When ``<k> <= I_bar``
every neighbour is met every day. An exposure therefore infects with
probability ``q * P(t)``. Summed over an average agent's I_bar daily
interactions, the hazard is about ``infection_rate * age_scale *
asymptomatic_scale * network_scale`` times the curve mass, as in
OpenABM-Covid19 (Hinch et al. 2021), on any graph with ``<k> >= I_bar``.

Vaccination acts on both sides: an infected vaccinated agent transmits
only if a uniform draw exceeds ``vet`` (once, at infection, or with
``vet_mode="daily"`` anew for each infectious day), and exposures of a
vaccinated susceptible infect with ``1 - vei`` times the probability above.

Exposures are independent daily trials, recovery is absorbing and updates
are synchronous, so the process is first-passage percolation (Kenah &
Robins 2007): a node is infected on the least day d + k over its infected
neighbours, d a neighbour's infection day and k its arc's delay, the first
day of the window 1..T (T = ``max_infectious_days``) on which the arc's
trial succeeds; ``P(k <= j) = F_s(j) = 1 - prod_{t<=j} (1 - c_s q P(t))``
for a target of status s, ``c_s`` = 1 unvaccinated and 1 - vei vaccinated.

Determinism contract (fixed so optimized and reference implementations can
share one random stream):

1. Seeding: one ``rng.choice(pool, size=count, replace=False)`` call for
   the ``Seeding``'s pool and count, then one uniform per *vaccinated* index
   case in ascending node order for the transmitter flag u > vet (skipped in
   ``vet_mode="daily"``).
2. A step from day d draws for the cohort infected on day d:
   a. ``vet_mode="daily"`` only: one (m, T) uniform array for its m
      vaccinated members, ascending; a member is active on day t of its
      window iff its row's entry t exceeds vet.
   b. One uniform u per arc from a transmitter of the cohort to a node
      susceptible at the start of the step, transmitters ascending, arcs in
      adjacency order. The arc's delay is the least k with u < F_s(k) (in
      daily mode through the source's active days), none if u >= F_s(T);
      the target's tentative day becomes the least of its own and d + k.
   c. The step moves to the least tentative day, else to the first
      recovery day (infection day + T + 1), else to d + 1; never past
      ``horizon`` unless d is there. Agents past their window recover; the
      nodes whose tentative day it is are infected, and each vaccinated one,
      ascending, draws a uniform for its transmitter flag (once mode).

A run stops when nobody is infected or on day ``horizon``, so it lasts
``min(horizon, last infection day + T + 1) + 1`` days; cases still in their
window at the horizon stay Infected.

:func:`run_batch` steps several runs together over one flat ``run * n +
node`` index, from one common day to the next, and returns one
:class:`RunRecord` for the whole batch, a row per run. The runs of a batch
share only the graph and the delay table, and each draws from its own
Generator in the order above, so neither the batch size nor the number of
threads running batches can change a result. :func:`run_epidemic` is the
batch of one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graph import AnnotatedGraph, gather_rows

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2

VET_MODES = ("once", "daily")
SEED_POOLS = ("all", "unvaccinated")
NEVER = np.iinfo(np.int32).max  # tentative day of a node no arc reaches
# longest infectious window, one year: the P(t) table and, in daily mode, each
# vaccinated infector's draws grow with it
MAX_INFECTIOUS_DAYS = 365


@dataclass(frozen=True)
class EpidemicParams:
    """All transmission constants; defaults match the study configuration.

    Config-file keys in parentheses.
    """

    infection_rate: float = 4.0  # overall scale (R)
    age_scale: float = 1.14  # susceptible-age factor (S_as)
    asymptomatic_scale: float = 0.88  # asymptomatic-infector factor (A_si)
    network_scale: float = 1.0  # network-type factor (B_n)
    daily_interactions: float = 2.0  # mean daily interactions per agent (I_bar)
    curve_mean: float = 5.5  # infectiousness-curve mean, days (mu)
    curve_sd: float = 2.14  # infectiousness-curve width, days (sigma)
    vet: float = 0.9  # effectiveness against transmission (VET)
    vei: float = 0.6  # effectiveness against infection (VEI)
    max_infectious_days: int = 21  # t_max_infectious
    horizon: int = 365  # simulation length, days
    vet_mode: str = "once"  # "once": u drawn at infection; "daily": per day

    def __post_init__(self):
        positive = (
            ("S_as", self.age_scale),
            ("A_si", self.asymptomatic_scale),
            ("B_n", self.network_scale),
            ("I_bar", self.daily_interactions),
            ("mu", self.curve_mean),
            ("sigma", self.curve_sd),
        )
        for key, value in positive:  # false for NaN too
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {value}")
        if not 0 <= self.infection_rate < math.inf:
            raise ValueError(f"R must be non-negative and finite, got {self.infection_rate}")
        for key, value in (("VET", self.vet), ("VEI", self.vei)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1], got {value}")
        if not 1 <= self.max_infectious_days <= MAX_INFECTIOUS_DAYS:
            raise ValueError(f"t_max_infectious must lie in [1, {MAX_INFECTIOUS_DAYS}]")
        # every day d + k and recovery day d + T + 1 must stay below NEVER (int32)
        last = NEVER - self.max_infectious_days - 2
        if not 1 <= self.horizon <= last:
            raise ValueError(f"horizon must lie in [1, {last}]")
        if self.vet_mode not in VET_MODES:
            raise ValueError(f"vet_mode must be one of {VET_MODES}")


@dataclass(frozen=True)
class Seeding:
    """How index cases are placed on day 0. Config-file keys in parentheses."""

    count: int = 10  # index cases per run (seed_count)
    pool: str = "all"  # "all" or "unvaccinated" (seed_pool)

    def __post_init__(self):
        if self.pool not in SEED_POOLS:
            raise ConfigError(f"key 'seed_pool' must be one of {SEED_POOLS}")
        if self.count < 1:
            raise ConfigError("key 'seed_count' must be >= 1")


def infectiousness_integral(t: int, curve_mean: float, curve_sd: float) -> float:
    """Mass of the gamma infectiousness density on [t-1, t]; 0 for t <= 0.

    The gamma is parameterized by mean and standard deviation:
    shape = (mean/sd)^2, scale = sd^2/mean.
    """
    if curve_mean <= 0 or curve_sd <= 0:
        raise ValueError("curve mean and sd must be positive")
    if t <= 0:
        return 0.0
    shape = (curve_mean / curve_sd) ** 2
    scale = curve_sd**2 / curve_mean
    return _gamma_p(shape, t / scale) - _gamma_p(shape, (t - 1) / scale)


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x): its series for x < a + 1,
    else 1 - Q(a, x) with Q by Lentz's continued fraction (Press et al.,
    *Numerical Recipes*, 6.2)."""
    if x <= 0.0:
        return 0.0
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    prefix = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while abs(term) >= abs(total) * eps:
            k += 1.0
            term *= x / k
            total += term
        return total * prefix
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < eps:
            break
    return 1.0 - prefix * h


def transmission_probability(t: int, params: EpidemicParams) -> float:
    """Per-interaction infection probability on day t since infection."""
    if t < 1:
        raise ValueError("transmission probability is defined for t >= 1")
    rate = (
        params.infection_rate
        * params.age_scale
        * params.asymptomatic_scale
        * params.network_scale
        / params.daily_interactions
    )
    mass = infectiousness_integral(t, params.curve_mean, params.curve_sd)
    return -math.expm1(-rate * mass)


def transmission_table(params: EpidemicParams) -> np.ndarray:
    """P(t) for t = 0..max_infectious_days (index 0 is unused and 0)."""
    days = range(1, params.max_infectious_days + 1)
    return np.array([0.0] + [transmission_probability(t, params) for t in days])


def contact_probability(g: AnnotatedGraph, params: EpidemicParams) -> float:
    """Daily probability q that an edge is active: min(1, I_bar / <k>).

    q is 1 when the mean degree <k> is at most I_bar (every neighbour met
    every day) and on an edgeless graph.
    """
    if g.edge_count == 0:
        return 1.0
    mean_degree = 2.0 * g.edge_count / g.n
    return min(1.0, params.daily_interactions / mean_degree)


def exposure_table(g: AnnotatedGraph, params: EpidemicParams) -> np.ndarray:
    """Per-exposure infection probability q * P(t), indexed like the P table."""
    return contact_probability(g, params) * transmission_table(params)


_UNIT = 2.0**53  # rng.random() draws multiples of 2**-53


@dataclass(frozen=True)
class DelayTable:
    """An arc's delay law on one graph: ``hazard[s, t-1] = c_s * q * P(t)``.

    ``keys`` holds ``ceil(2**53 F_0(1..T))``, ``2**53``, ``2**53 + ceil(2**53
    F_1(1..T))``: for u = m / 2**53 a searchsorted of ``m + s * 2**53`` finds,
    exactly, the entry of ``delays`` holding the least k with u < F_s(k), or
    NEVER.
    """

    hazard: np.ndarray
    keys: np.ndarray
    delays: np.ndarray


def delay_table(g: AnnotatedGraph, params: EpidemicParams) -> DelayTable:
    """The table :func:`step_day` inverts each arc's uniform with."""
    hazard = np.outer([1.0, 1.0 - params.vei], exposure_table(g, params)[1:])
    keys = np.ceil((1.0 - np.cumprod(1.0 - hazard, axis=1)) * _UNIT).astype(np.int64)
    keys = np.concatenate((keys[0], [1 << 53], keys[1] + (1 << 53)))
    span = np.append(np.arange(1, params.max_infectious_days + 1), NEVER)
    return DelayTable(hazard, keys, np.concatenate((span, span)).astype(np.int32))


@dataclass
class SimulationState:
    """Mutable state of a batch of runs on one graph of ``n`` nodes.

    Node ``v`` of run ``b`` sits at flat index ``b * n + v`` of every array;
    a single run is the batch of one. ``day`` is the batch's common day.
    """

    n: int
    day: int
    status: np.ndarray  # int8: SUSCEPTIBLE / INFECTED / RECOVERED
    day_infected: np.ndarray  # int32, -1 while never infected
    transmitter: np.ndarray  # bool, meaningful while INFECTED
    vaccinated: np.ndarray  # bool, fixed for the whole run
    rngs: list[np.random.Generator]  # one per run
    tentative: np.ndarray  # int32: least day d + k drawn for a susceptible, else NEVER
    cohorts: dict[int, np.ndarray]  # infected flat indices by infection day, filed by infect

    @property
    def infected_count(self) -> int:
        return int((self.status == INFECTED).sum())

    def counts(self) -> tuple[int, int, int]:
        """(susceptible, infected, recovered) agents, over all runs."""
        return tuple(int(c) for c in np.bincount(self.status, minlength=3))

    @property
    def cases(self) -> np.ndarray:
        """Agents infected per run on each day 0..day, laid out as in :class:`RunRecord`."""
        return _new_cases(self, self.day + 1)


def _new_cases(state: SimulationState, days: int) -> np.ndarray:
    """(runs, 2, days) agents infected per run, unvaccinated then vaccinated, per day."""
    runs = len(state.rngs)
    cases = np.flatnonzero(state.day_infected >= 0)
    key = (cases // state.n * 2 + state.vaccinated[cases]) * days + state.day_infected[cases]
    return np.bincount(key, minlength=runs * 2 * days).reshape(runs, 2, days)


def initial_state(n: int, vaccinated: np.ndarray | None, rng) -> SimulationState:
    """Day-0 state of one run, or of one run per entry if ``rng`` is a list.

    ``rng`` entries are seeds or Generators; ``vaccinated`` is None, one
    (n,) row shared by every run, or a (runs, n) array.
    """
    rngs = [
        r if isinstance(r, np.random.Generator) else np.random.Generator(np.random.PCG64(r))
        for r in (rng if isinstance(rng, list) else [rng])
    ]
    size = len(rngs) * n
    if vaccinated is None:
        vaccinated = np.zeros(size, dtype=bool)
    else:
        vaccinated = np.asarray(vaccinated, dtype=bool)
        if vaccinated.shape not in ((n,), (len(rngs), n)):
            raise DataError("vaccinated flags must cover every node")
        vaccinated = np.broadcast_to(vaccinated, (len(rngs), n)).reshape(size)
    return SimulationState(
        n=n,
        day=0,
        status=np.zeros(size, dtype=np.int8),
        day_infected=np.full(size, -1, dtype=np.int32),
        transmitter=np.zeros(size, dtype=bool),
        vaccinated=vaccinated,
        rngs=rngs,
        tentative=np.full(size, NEVER, dtype=np.int32),
        cohorts={},
    )


def _uniforms(state: SimulationState, flat: np.ndarray, *tail: int) -> np.ndarray:
    """``rng.random((k_b, *tail))`` of each run b for its k_b entries of ``flat``
    (ascending flat indices), stacked in run order."""
    if len(state.rngs) == 1:
        return state.rngs[0].random((flat.size, *tail))
    out = np.empty((flat.size, *tail))
    stops = flat.searchsorted(np.arange(1, len(state.rngs) + 1) * state.n).tolist()
    for rng, start, stop in zip(state.rngs, [0] + stops, stops):
        if stop > start:
            rng.random(out=out[start:stop])
    return out


def infect(state: SimulationState, nodes: np.ndarray, params: EpidemicParams) -> None:
    """Infect ``nodes`` (ascending flat indices, all of the day's cases) on
    ``state.day``: status, infection day, transmitter flag and cohort."""
    vacc = state.vaccinated[nodes]
    state.status[nodes] = INFECTED
    state.day_infected[nodes] = state.day
    flags = ~vacc  # unvaccinated agents always transmit
    flags[vacc] = _uniforms(state, nodes[vacc]) > params.vet if params.vet_mode == "once" else True
    state.transmitter[nodes] = flags
    if nodes.size:
        state.cohorts[state.day] = nodes


def seed_infections(
    state: SimulationState, seeding: Seeding, params: EpidemicParams
) -> SimulationState:
    """Infect ``seeding.count`` distinct agents of each run, drawn uniformly
    from its pool, on day 0: step 1 of the determinism contract."""
    n, count, chosen = state.n, seeding.count, []
    for b, rng in enumerate(state.rngs):
        own = state.vaccinated[b * n : (b + 1) * n]
        candidates = np.arange(n) if seeding.pool == "all" else np.flatnonzero(~own)
        if count > candidates.size:
            raise DataError(f"seed pool has {candidates.size} agent(s), cannot seed {count}")
        chosen.append(np.sort(rng.choice(candidates, size=count, replace=False)) + b * n)
    infect(state, np.concatenate(chosen), params)
    return state


def step_day(
    g: AnnotatedGraph,
    state: SimulationState,
    params: EpidemicParams,
    table: DelayTable | None = None,
) -> SimulationState:
    """One cohort step of every run in the batch (mutates state): step 2 of the
    determinism contract.

    Draws the arcs of the cohorts infected on ``state.day``, then moves to
    the next day on which a node of some run is infected or recovers (one
    day on if nothing is pending). ``table`` defaults to :func:`delay_table`
    of ``g`` and ``params``.
    """
    if table is None:
        table = delay_table(g, params)
    T, day, status = params.max_infectious_days, state.day, state.status
    cohorts = state.cohorts
    if day in cohorts:  # contract 2a and 2b
        sources = cohorts[day][state.transmitter[cohorts[day]]]
        if params.vet_mode == "daily":
            vacc_src = state.vaccinated[sources]
            active = _uniforms(state, sources[vacc_src], T) > params.vet
        node = sources % state.n
        neighbours, lengths = gather_rows(g.indptr, g.indices, node)
        if len(state.rngs) > 1:
            neighbours = neighbours + np.repeat(sources - node, lengths)  # run * n
        open_ = status[neighbours] == SUSCEPTIBLE
        targets = neighbours[open_]
        u = _uniforms(state, targets)
        row = state.vaccinated[targets]
        key = (u * _UNIT).astype(np.int64) + row * (1 << 53)
        delay = table.delays[table.keys.searchsorted(key, side="right")]
        if params.vet_mode == "daily" and active.size:
            masked = np.repeat(vacc_src, lengths)[open_]
            slot = np.repeat(np.cumsum(vacc_src) - 1, lengths)[open_][masked]
            cdf = 1.0 - np.cumprod(1.0 - table.hazard[row[masked].astype(np.intp)] * active[slot], axis=1)
            delay[masked] = table.delays[(u[masked, None] >= cdf).sum(axis=1)]
        hit = delay < NEVER
        np.minimum.at(state.tentative, targets[hit], day + delay[hit])

    nxt = int(state.tentative.min())  # contract 2c
    if nxt == NEVER:
        nxt = min(cohorts) + T + 1 if cohorts else day + 1
    nxt = min(nxt, max(params.horizon, day + 1))
    for d in [d for d in cohorts if d + T < nxt]:
        status[cohorts.pop(d)] = RECOVERED
    newly = np.flatnonzero(state.tentative == nxt)
    state.tentative[newly] = NEVER
    state.day = nxt
    infect(state, newly, params)
    return state


@dataclass(frozen=True)
class RunRecord:
    """Raw output of a batch of runs, one row per run.

    ``cases[r, 0]`` and ``cases[r, 1]`` count run r's unvaccinated and
    vaccinated agents infected on each day, day 0 holding the index cases;
    the row is zero past the run's ``lengths[r]`` days.
    """

    cases: np.ndarray  # (runs, 2, days) int64
    lengths: np.ndarray  # (runs,) days of each run
    final_status: np.ndarray  # (runs, n) int8


def run_batch(
    g: AnnotatedGraph,
    params: EpidemicParams,
    seeding: Seeding,
    rngs: list,
    vaccinated: np.ndarray | None = None,
    table: DelayTable | None = None,
) -> RunRecord:
    """One full run per entry of ``rngs`` (seeds or Generators), stepped
    together, as one record with a row per run.

    ``vaccinated`` is None, one (n,) row for every run or a (runs, n) array;
    ``table`` defaults to :func:`delay_table` of ``g`` and ``params``. Each
    row, cut at its length, equals the :func:`run_epidemic` record of its
    own Generator.
    """
    state = initial_state(g.n, vaccinated, list(rngs))
    seed_infections(state, seeding, params)
    if table is None:
        table = delay_table(g, params)
    step_day(g, state, params, table)
    while state.day < params.horizon and state.day in state.cohorts:
        step_day(g, state, params, table)
    # every run lasts min(horizon, last infection day + T + 1) + 1 days and
    # ends with the cases of its last T + 1 days Infected
    T, runs = params.max_infectious_days, len(state.rngs)
    day = state.day_infected.reshape(runs, g.n)
    end = np.minimum(params.horizon, day.max(axis=1) + T + 1)
    cases = _new_cases(state, int(end.max()) + 1)
    status = np.where(day >= (end - T)[:, None], INFECTED, RECOVERED).astype(np.int8)
    status[day < 0] = SUSCEPTIBLE
    return RunRecord(cases, end + 1, status)


def run_epidemic(
    g: AnnotatedGraph,
    params: EpidemicParams,
    seeding: Seeding,
    seed,
    vaccinated: np.ndarray | None = None,
) -> RunRecord:
    """One full run: seed, then step cohort by cohort until extinction or the horizon.

    ``seed`` may be an int, a SeedSequence, or a ready Generator. The record
    is the batch of one.
    """
    return run_batch(g, params, seeding, [seed], vaccinated)
