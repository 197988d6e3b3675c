"""Independent brute-force oracles the test suite checks the package against.

Everything here works from primitive data (node counts, edge lists, plain
Python dicts) with naive enumeration, so it shares no code path with the
implementations under test. The epidemic reference below shares only the
documented random-stream contract and the per-day transmission table
:func:`ptable`, built from the package's infectiousness integral, whose values
have their own quadrature oracle.
"""

from __future__ import annotations

import math

import numpy as np

from helpers import edge_array
from polarnet.epidemic import infectiousness_integral
from polarnet.graph import Opinion


# -- structural metrics ----------------------------------------------------


def neighbor_sets(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_density(n: int, edges) -> float:
    return len(set(frozenset(e) for e in edges)) / (n * (n - 1) / 2)


def brute_local_clustering(n: int, edges, i: int) -> float:
    adj = neighbor_sets(n, edges)
    nbrs = sorted(adj[i])
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for a in range(k):
        for b in range(a + 1, k):
            if nbrs[b] in adj[nbrs[a]]:
                links += 1
    return 2.0 * links / (k * (k - 1))


def brute_average_clustering(n: int, edges) -> float:
    return sum(brute_local_clustering(n, edges, i) for i in range(n)) / n


def brute_mixing(edges, labels) -> list[list[float]]:
    m = [[0.0, 0.0], [0.0, 0.0]]
    for u, v in edges:
        a, b = int(labels[u]), int(labels[v])
        m[a][b] += 1.0
        m[b][a] += 1.0
    total = 2.0 * len(edges)
    return [[m[i][j] / total for j in range(2)] for i in range(2)]


def brute_assortativity(m) -> float:
    e2 = 0.0
    for i in range(2):
        for j in range(2):
            e2 += sum(m[i][k] * m[k][j] for k in range(2))
    trace = m[0][0] + m[1][1]
    return (trace - e2) / (1.0 - e2)


def brute_cross_connection(m) -> float:
    return 2.0 * m[1][0] / (m[0][0] + m[1][1])


def loop_clustering(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Local clustering of every node of a CSR graph, one node at a time.

    For node i it marks i's neighbours, gathers the neighbour rows of those
    neighbours and counts the marked entries: each link between two
    neighbours is seen from both ends, so the count is twice i's triangles.
    """
    n = indptr.size - 1
    cc = np.zeros(n, dtype=np.float64)
    mark = np.zeros(n, dtype=bool)
    for i in range(n):
        nbrs = indices[indptr[i] : indptr[i + 1]]
        k = nbrs.size
        if k < 2:
            continue
        mark[nbrs] = True
        starts = indptr[nbrs]
        lengths = indptr[nbrs + 1] - starts
        ends = np.cumsum(lengths)
        pos = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
        cc[i] = float(mark[indices[pos]].sum()) / (k * (k - 1))
        mark[nbrs] = False
    return cc


# -- graph files -------------------------------------------------------------


def reference_edge_files(edges, labels, opinions) -> tuple[str, str]:
    """Edge and attribute file texts, one f-string per written line.

    ``edges`` are node-id pairs (duplicates and either orientation allowed,
    no self-loops), ``labels`` the external label of each node id and
    ``opinions`` 1 (pro) or 0 (anti) per node id.
    """
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    edge_text = "src,dst\n" + "".join(f"{labels[u]},{labels[v]}\n" for u, v in pairs)
    attr_text = "node,opinion\n" + "".join(
        f"{label},{'pro' if op else 'anti'}\n" for label, op in zip(labels, opinions)
    )
    return edge_text, attr_text


def fstring_edge_files(g, path, attr_path) -> None:
    """Save ``g`` as the package's writer did before it formatted whole
    arrays: one f-string per line, the edge rows in blocks of 65,536."""
    edges = edge_array(g)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("src,dst\n")
        for lo in range(0, len(edges), 1 << 16):
            block = g.labels[edges[lo : lo + (1 << 16)]].tolist()
            fh.write("".join(f"{a},{b}\n" for a, b in block))
    rows = zip(g.labels.tolist(), g.opinions.tolist())
    with open(attr_path, "w", encoding="utf-8") as fh:
        fh.write("node,opinion\n" + "".join(f"{label},{'pro' if op else 'anti'}\n" for label, op in rows))


# -- generator sampling ------------------------------------------------------


def scalar_bernoulli_indices(total: int, p: float, rng: np.random.Generator) -> list[int]:
    """Indices in [0, total) kept independently with probability p, one
    geometric skip per ``rng.random()`` draw: the loop the array sampler
    must reproduce index for index and draw for draw."""
    if total <= 0 or p <= 0.0:
        return []
    if p >= 1.0:
        return list(range(total))
    out = []
    log_q = math.log1p(-p)
    pos = -1
    while True:
        r = rng.random()
        pos += 1 + int(math.log1p(-r) / log_q)
        if pos >= total:
            return out
        out.append(pos)


def loop_watts_strogatz(n: int, k_ring: int, p_rewire: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Watts-Strogatz edges (u < v) drawn by the package's former loop: a
    ``list[set]`` adjacency, one ``rng.random()`` per lattice edge taken
    ring by ring, and ``rng.integers(n)`` until a new target is found."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for offset in range(1, k_ring // 2 + 1):
        for u in range(n):
            v = (u + offset) % n
            adj[u].add(v)
            adj[v].add(u)
    for offset in range(1, k_ring // 2 + 1):
        for u in range(n):
            v = (u + offset) % n
            if rng.random() >= p_rewire:
                continue
            if v not in adj[u] or len(adj[u]) >= n - 1:
                continue  # already rewired away, or u saturated
            while True:
                w = int(rng.integers(n))
                if w != u and w not in adj[u]:
                    break
            adj[u].discard(v)
            adj[v].discard(u)
            adj[u].add(w)
            adj[w].add(u)
    return [(u, v) for u in range(n) for v in adj[u] if u < v]


def loop_barabasi_albert(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Barabasi-Albert edges drawn by the package's former loop: an m-clique,
    then for each new node ``rng.integers(len(endpoints))`` until m distinct
    targets are picked from the list of all edge endpoints so far."""
    edges: list[tuple[int, int]] = [(i, j) for i in range(m) for j in range(i + 1, m)]
    endpoints: list[int] = [u for e in edges for u in e]
    for v in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            if endpoints:
                targets.add(endpoints[int(rng.integers(len(endpoints)))])
            else:
                targets.add(int(rng.integers(v)))  # m=1 bootstrap: no edges yet
        for t in sorted(targets):
            edges.append((t, v))
            endpoints.extend((t, v))
    return edges


# -- gamma curve quadrature ------------------------------------------------


def gamma_pdf(u: float, mean: float, sd: float) -> float:
    shape = (mean / sd) ** 2
    scale = sd**2 / mean
    if u <= 0:
        return 0.0
    return (
        u ** (shape - 1.0)
        * math.exp(-u / scale)
        / (math.gamma(shape) * scale**shape)
    )


def _simpson(f, a, b, fa, fm, fb):
    m = (a + b) / 2
    return (b - a) / 6 * (fa + 4 * fm + fb), m


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = (a + b) / 2
    lm, rm = (a + m) / 2, (m + b) / 2
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15 * tol:
        return left + right + (left + right - whole) / 15
    return _adaptive(f, a, m, fa, flm, fm, left, tol / 2, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, tol / 2, depth - 1
    )


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-12) -> float:
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    fm = f((a + b) / 2)
    whole, _ = _simpson(f, a, b, fa, fm, fb)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, depth=50)


def integral_oracle(t: int, mean: float, sd: float) -> float:
    if t <= 0:
        return 0.0
    return adaptive_quadrature(lambda u: gamma_pdf(u, mean, sd), max(t - 1, 0.0), t)


# -- reference epidemic (plain dict/loop implementation) --------------------


def ptable(params) -> np.ndarray:
    """Per-interaction transmission probability P(t) for t = 0..T (index 0
    unused and 0): ``1 - exp(-rate * mass(t))`` with ``rate = R * S_as * A_si
    * B_n / I_bar`` and ``mass`` the curve's mass on [t - 1, t]."""
    rate = (
        params.infection_rate
        * params.age_scale
        * params.asymptomatic_scale
        * params.network_scale
        / params.daily_interactions
    )
    days = range(1, params.max_infectious_days + 1)
    masses = [infectiousness_integral(t, params.curve_mean, params.curve_sd) for t in days]
    return np.array([0.0] + [-math.expm1(-rate * mass) for mass in masses])


def brute_contact_probability(n: int, edges, daily_interactions: float) -> float:
    """Daily edge-activity probability min(1, I_bar / mean degree)."""
    m = len(set(frozenset(e) for e in edges))
    if m == 0:
        return 1.0
    return min(1.0, daily_interactions / (2.0 * m / n))


def reference_run(
    n: int,
    edges,
    ptable,
    *,
    daily_interactions: float,
    count: int,
    pool: str,
    vaccinated,
    seed: int,
    vet: float,
    vei: float,
    vet_mode: str,
    max_infectious_days: int,
    horizon: int,
):
    """Loop-based epidemic run following the documented stream contract.

    ``ptable`` holds the per-interaction probabilities P(t); each exposure
    infects with probability q * P(t), q from the graph's mean degree.
    Returns (new_unvacc per day, new_vacc per day, final status strings).
    """
    q = brute_contact_probability(n, edges, daily_interactions)
    rng = np.random.Generator(np.random.PCG64(seed))
    adj = [sorted(s) for s in neighbor_sets(n, edges)]
    vacc = [bool(vaccinated[i]) for i in range(n)]
    status = ["S"] * n
    day_infected = [-1] * n
    transmitter = [False] * n

    candidates = np.array(
        [i for i in range(n) if pool == "all" or not vacc[i]], dtype=np.int64
    )
    chosen = np.sort(rng.choice(candidates, size=count, replace=False))
    for i in chosen:
        status[i] = "I"
        day_infected[i] = 0
    if vet_mode == "daily":
        for i in chosen:
            transmitter[i] = True
    else:
        u = rng.random(sum(vacc[i] for i in chosen))
        ui = 0
        for i in chosen:
            if vacc[i]:
                transmitter[i] = bool(u[ui] > vet)
                ui += 1
            else:
                transmitter[i] = True
    new_vacc = [sum(1 for i in chosen if vacc[i])]
    new_unvacc = [len(chosen) - new_vacc[0]]

    day = 0
    while day < horizon and any(s == "I" for s in status):
        day += 1
        infected = [i for i in range(n) if status[i] == "I"]
        t_of = {i: day - day_infected[i] for i in infected}
        expired = [i for i in infected if t_of[i] > max_infectious_days]
        active = [
            i
            for i in infected
            if 1 <= t_of[i] <= max_infectious_days and transmitter[i]
        ]
        if vet_mode == "daily":
            vacc_active = [i for i in active if vacc[i]]
            u = rng.random(len(vacc_active))
            allowed = {i: bool(uu > vet) for i, uu in zip(vacc_active, u)}
            active = [i for i in active if not vacc[i] or allowed[i]]
        exposures = [
            (i, j) for i in active for j in adj[i] if status[j] == "S"
        ]
        v = rng.random(len(exposures))
        x = rng.random(len(exposures))
        newly = set()
        for k, (i, j) in enumerate(exposures):
            if vacc[j] and not v[k] > vei:
                continue
            if x[k] < q * ptable[t_of[i]]:
                newly.add(j)
        for i in expired:
            status[i] = "R"
        newly = sorted(newly)
        for j in newly:
            status[j] = "I"
            day_infected[j] = day
        if vet_mode == "daily":
            for j in newly:
                transmitter[j] = True
        else:
            u = rng.random(sum(vacc[j] for j in newly))
            ui = 0
            for j in newly:
                if vacc[j]:
                    transmitter[j] = bool(u[ui] > vet)
                    ui += 1
                else:
                    transmitter[j] = True
        new_vacc.append(sum(1 for j in newly if vacc[j]))
        new_unvacc.append(len(newly) - new_vacc[-1])
    return new_unvacc, new_vacc, status


def first_passage_run(
    n: int,
    edges,
    ptable,
    *,
    daily_interactions: float,
    count: int,
    pool: str,
    vaccinated,
    seed: int,
    vet: float,
    vei: float,
    vet_mode: str,
    max_infectious_days: int,
    horizon: int,
):
    """Loop-based first-passage run following the engine's stream contract.

    Same arguments as :func:`reference_run`, and its result followed by each
    node's infection day (-1 if never). Each step draws the
    arcs of the cohort infected on the current day once, turns each uniform
    into a delay through the per-day hazards c * (q * P(t)) of its target,
    and moves on to the next day on which someone is infected or recovers.
    """
    q = brute_contact_probability(n, edges, daily_interactions)
    T = max_infectious_days
    rng = np.random.Generator(np.random.PCG64(seed))
    adj = [sorted(s) for s in neighbor_sets(n, edges)]
    vacc = [bool(vaccinated[i]) for i in range(n)]
    status = ["S"] * n
    day_infected = [-1] * n
    transmitter = [False] * n
    tentative = [None] * n
    new_unvacc, new_vacc = [], []

    def infect(nodes, day):
        for i in nodes:
            status[i] = "I"
            day_infected[i] = day
            transmitter[i] = True
        if vet_mode == "once":
            u = rng.random(sum(vacc[i] for i in nodes))
            for i, uu in zip([i for i in nodes if vacc[i]], u):
                transmitter[i] = bool(uu > vet)
        new_vacc.append(sum(1 for i in nodes if vacc[i]))
        new_unvacc.append(len(nodes) - new_vacc[-1])

    def delay(u, target, active):
        """Least k in 1..T with u < 1 - prod_{t<=k} (1 - hazard), else None."""
        c = 1.0 - vei if vacc[target] else 1.0
        survival = 1.0
        for t in range(1, T + 1):
            if active[t - 1]:
                survival *= 1.0 - c * (q * ptable[t])
            if u < 1.0 - survival:
                return t
        return None

    candidates = np.array(
        [i for i in range(n) if pool == "all" or not vacc[i]], dtype=np.int64
    )
    infect(sorted(int(i) for i in rng.choice(candidates, size=count, replace=False)), 0)
    day = 0
    while True:
        cohort = [i for i in range(n) if status[i] == "I" and day_infected[i] == day]
        sources = [i for i in cohort if transmitter[i]]
        active = {i: [True] * T for i in sources}
        if vet_mode == "daily":
            vacc_sources = [i for i in sources if vacc[i]]
            block = rng.random((len(vacc_sources), T))
            for i, draws in zip(vacc_sources, block):
                active[i] = [bool(x > vet) for x in draws]
        arcs = [(i, j) for i in sources for j in adj[i] if status[j] == "S"]
        for (i, j), u in zip(arcs, rng.random(len(arcs))):
            k = delay(u, j, active[i])
            if k is not None and (tentative[j] is None or day + k < tentative[j]):
                tentative[j] = day + k

        pending = [tentative[j] for j in range(n) if status[j] == "S" and tentative[j] is not None]
        infected = [i for i in range(n) if status[i] == "I"]
        if pending:
            nxt = min(pending)
        elif infected:
            nxt = min(day_infected[i] for i in infected) + T + 1
        else:
            nxt = day + 1
        nxt = min(nxt, max(horizon, day + 1))
        for i in infected:
            if nxt - day_infected[i] > T:
                status[i] = "R"
        newly = [j for j in range(n) if status[j] == "S" and tentative[j] == nxt]
        new_unvacc.extend([0] * (nxt - day - 1))
        new_vacc.extend([0] * (nxt - day - 1))
        infect(newly, nxt)
        day = nxt
        if day >= horizon or "I" not in status:
            return new_unvacc, new_vacc, status, day_infected


# -- vaccine allocation (the string-branching allocator it replaced) ----------


def reference_allocation(g, strategy: str, rng) -> np.ndarray:
    """Per-node vaccination flags of the ``"polarized"`` or ``"homogeneous"``
    strategy; dose count always equals the pro count."""
    pro = g.opinions == int(Opinion.PRO)
    if strategy == "polarized":
        return pro.copy()
    doses = int(pro.sum())
    flags = np.zeros(g.n, dtype=bool)
    flags[np.random.default_rng(rng).choice(g.n, size=doses, replace=False)] = True
    return flags
