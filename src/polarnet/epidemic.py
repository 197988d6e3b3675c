"""Daily-step agent-based virus transmission over a contact graph.

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

Vaccination acts on both sides: an infected vaccinated agent transmits at
all only if a uniform draw u exceeds ``vet`` (by default decided once, at
infection time), and an exposure of a vaccinated susceptible proceeds only
if a uniform draw v exceeds ``vei``.

Determinism contract (fixed so optimized and reference implementations can
share one random stream):

1. Seeding: one ``rng.choice(pool, size=count, replace=False)`` call, then
   one uniform per *vaccinated* index case in ascending node order for the
   transmitter flag (skipped in ``vet_mode="daily"``).
2. Each day, in order:
   a. ``vet_mode="daily"`` only: one uniform per active vaccinated infector,
      ascending node order; the agent transmits today only if u > vet.
   b. Exposures are the (infector, susceptible neighbor) pairs, infectors
      ascending, neighbors in adjacency order, filtered against the
      start-of-day state. One array of gate draws v (used only for
      vaccinated targets), then one array of transmission draws x, both in
      exposure order. An exposure infects iff x < q * P(t) and, for
      vaccinated targets, v > vei; the one draw x decides both whether the
      edge is active today and whether it transmits.
   c. Newly infected nodes, ascending: one uniform per vaccinated one for
      its transmitter flag (``vet_mode="once"``; "daily" sets it True).

Infections found on one day never transmit the same day (synchronous
update); agents whose time since infection exceeds ``max_infectious_days``
turn Recovered, which is absorbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .graph import AnnotatedGraph, gather_rows

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2

VET_MODES = ("once", "daily")
SEED_POOLS = ("all", "unvaccinated")


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
        for key, value in positive:
            if not value > 0:
                raise ValueError(f"{key} must be positive, got {value}")
        if self.infection_rate < 0:
            raise ValueError(f"R must be non-negative, got {self.infection_rate}")
        for key, value in (("VET", self.vet), ("VEI", self.vei)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1], got {value}")
        if self.max_infectious_days < 1:
            raise ValueError("t_max_infectious must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.vet_mode not in VET_MODES:
            raise ValueError(f"vet_mode must be one of {VET_MODES}")

    def with_overrides(self, **kwargs) -> "EpidemicParams":
        return replace(self, **kwargs)


def infectiousness_integral(t: int, curve_mean: float, curve_sd: float) -> float:
    """Mass of the gamma infectiousness density on [t-1, t]; 0 for t <= 0.

    The gamma is parameterized by mean and standard deviation:
    shape = (mean/sd)^2, scale = sd^2/mean.
    """
    if curve_mean <= 0 or curve_sd <= 0:
        raise ValueError("curve mean and sd must be positive")
    if t <= 0:
        return 0.0
    from scipy.special import gammainc  # only the simulations need scipy.special

    shape = (curve_mean / curve_sd) ** 2
    scale = curve_sd**2 / curve_mean
    hi = gammainc(shape, t / scale)
    lo = gammainc(shape, max(t - 1, 0) / scale)
    return float(hi - lo)


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
    table = np.zeros(params.max_infectious_days + 1, dtype=np.float64)
    for t in range(1, params.max_infectious_days + 1):
        table[t] = transmission_probability(t, params)
    return table


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


@dataclass
class SimulationState:
    """Mutable per-agent state, struct-of-arrays for the daily sweep."""

    day: int
    status: np.ndarray  # int8: SUSCEPTIBLE / INFECTED / RECOVERED
    day_infected: np.ndarray  # int32, -1 while never infected
    transmitter: np.ndarray  # bool, meaningful while INFECTED
    vaccinated: np.ndarray  # bool, fixed for the whole run
    rng: np.random.Generator
    new_unvacc: list[int] = field(default_factory=list)  # per-day counts
    new_vacc: list[int] = field(default_factory=list)

    @property
    def infected_count(self) -> int:
        return int((self.status == INFECTED).sum())

    def counts(self) -> tuple[int, int, int]:
        return (
            int((self.status == SUSCEPTIBLE).sum()),
            int((self.status == INFECTED).sum()),
            int((self.status == RECOVERED).sum()),
        )


def initial_state(n: int, vaccinated: np.ndarray | None, rng) -> SimulationState:
    if vaccinated is None:
        vaccinated = np.zeros(n, dtype=bool)
    else:
        vaccinated = np.asarray(vaccinated, dtype=bool)
        if vaccinated.shape != (n,):
            raise DataError("vaccinated flags must cover every node")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.PCG64(rng))
    return SimulationState(
        day=0,
        status=np.zeros(n, dtype=np.int8),
        day_infected=np.full(n, -1, dtype=np.int32),
        transmitter=np.zeros(n, dtype=bool),
        vaccinated=vaccinated,
        rng=rng,
    )


def seed_infections(
    state: SimulationState,
    count: int,
    pool: str = "all",
    vet_mode: str = "once",
    vet: float = 0.9,
) -> SimulationState:
    """Infect ``count`` distinct agents drawn uniformly from the pool on day 0."""
    if pool not in SEED_POOLS:
        raise DataError(f"seed pool must be one of {SEED_POOLS}")
    if count < 1:
        raise DataError("seeding requires count >= 1")
    candidates = (
        np.arange(state.status.size)
        if pool == "all"
        else np.flatnonzero(~state.vaccinated)
    )
    if count > candidates.size:
        raise DataError(
            f"seed pool has {candidates.size} agent(s), cannot seed {count}"
        )
    chosen = np.sort(state.rng.choice(candidates, size=count, replace=False))
    state.status[chosen] = INFECTED
    state.day_infected[chosen] = state.day
    if vet_mode == "daily":
        state.transmitter[chosen] = True
    else:
        vacc = state.vaccinated[chosen]
        u = state.rng.random(int(vacc.sum()))
        flags = np.ones(chosen.size, dtype=bool)
        flags[vacc] = u > vet
        state.transmitter[chosen] = flags
    state.new_vacc.append(int(state.vaccinated[chosen].sum()))
    state.new_unvacc.append(int((~state.vaccinated[chosen]).sum()))
    return state


def step_day(
    g: AnnotatedGraph,
    state: SimulationState,
    params: EpidemicParams,
    ptable: np.ndarray | None = None,
) -> SimulationState:
    """Advance one day with a synchronous contact sweep (mutates state).

    ``ptable`` is the per-exposure table q * P(t); by default it is built
    from ``g`` and ``params`` with :func:`exposure_table`.
    """
    if ptable is None:
        ptable = exposure_table(g, params)
    day = state.day + 1
    status, rng = state.status, state.rng

    infected = np.flatnonzero(status == INFECTED)
    t_since = day - state.day_infected[infected]
    expired = infected[t_since > params.max_infectious_days]
    active = infected[
        (t_since >= 1)
        & (t_since <= params.max_infectious_days)
        & state.transmitter[infected]
    ]
    if params.vet_mode == "daily" and active.size:
        vacc_active = state.vaccinated[active]
        u = rng.random(int(vacc_active.sum()))
        today = np.ones(active.size, dtype=bool)
        today[vacc_active] = u > params.vet
        active = active[today]

    newly = np.empty(0, dtype=np.int64)
    if active.size:
        contacts, lengths = gather_rows(g.indptr, g.indices, active)
        t_exp = np.repeat(day - state.day_infected[active], lengths)
        sus = status[contacts] == SUSCEPTIBLE
        targets = contacts[sus]
        if targets.size:
            p = ptable[t_exp[sus]]
            gate = rng.random(targets.size)
            draw = rng.random(targets.size)
            vacc_t = state.vaccinated[targets]
            hit = (draw < p) & (~vacc_t | (gate > params.vei))
            newly = np.unique(targets[hit])

    status[expired] = RECOVERED
    if newly.size:
        status[newly] = INFECTED
        state.day_infected[newly] = day
        if params.vet_mode == "daily":
            state.transmitter[newly] = True
        else:
            vacc_new = state.vaccinated[newly]
            u = rng.random(int(vacc_new.sum()))
            flags = np.ones(newly.size, dtype=bool)
            flags[vacc_new] = u > params.vet
            state.transmitter[newly] = flags
    state.new_vacc.append(int(state.vaccinated[newly].sum()) if newly.size else 0)
    state.new_unvacc.append(int((~state.vaccinated[newly]).sum()) if newly.size else 0)
    state.day = day
    return state


@dataclass(frozen=True)
class Seeding:
    """How index cases are placed on day 0."""

    count: int = 10
    pool: str = "all"


@dataclass(frozen=True)
class RunRecord:
    """Raw output of one simulation run."""

    new_unvacc: np.ndarray  # int64 per day, day 0 = index cases
    new_vacc: np.ndarray
    final_status: np.ndarray
    vaccinated: np.ndarray

    @property
    def days(self) -> int:
        return self.new_unvacc.size


def run_epidemic(
    g: AnnotatedGraph,
    params: EpidemicParams,
    seeding: Seeding,
    seed,
    vaccinated: np.ndarray | None = None,
) -> RunRecord:
    """One full run: seed, then step daily until extinction or the horizon.

    ``seed`` may be an int, a SeedSequence, or a ready Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.PCG64(seed))
    state = initial_state(g.n, vaccinated, rng)
    seed_infections(state, seeding.count, seeding.pool, params.vet_mode, params.vet)
    ptable = exposure_table(g, params)
    while state.day < params.horizon and state.infected_count > 0:
        step_day(g, state, params, ptable)
    return RunRecord(
        new_unvacc=np.array(state.new_unvacc, dtype=np.int64),
        new_vacc=np.array(state.new_vacc, dtype=np.int64),
        final_status=state.status.copy(),
        vaccinated=state.vaccinated.copy(),
    )
