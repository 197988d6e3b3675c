"""Synthetic network generators: random, small-world, scale-free, planted.

Every generator is deterministic given its parameters and a non-negative
seed, and returns a validated :class:`~polarnet.graph.AnnotatedGraph`.
Random-graph and two-community edges are drawn with geometric skip sampling
over whole arrays, so cost scales with the number of edges rather than the
number of node pairs. The skips are drawn in chunks and the generator is
then rewound to the last draw used, so the edges and the random stream are
exactly those of drawing one skip at a time. Watts-Strogatz and
Barabasi-Albert stay Python loops: their streams interleave ``random()``
and ``integers()`` draws that depend on the graph built so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import AnnotatedGraph, Opinion


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


_CHUNK = 1 << 18  # most skips drawn per rng.random call


def _skips(r: np.ndarray, log_q: float, total: int) -> np.ndarray:
    """Geometric skips ``1 + int(log1p(-r) / log_q)``, each at most ``total + 1``.

    numpy's log1p may differ from math.log1p in the last bit, which moves
    the truncation only where the quotient lies at an integer; quotients
    within a relative 1e-9 of one are recomputed with math.log1p, as the
    scalar loop had them.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal p gives inf
        x = np.log1p(-r) / log_q
        near = np.flatnonzero(np.abs(x - np.rint(x)) <= 1e-9 * x)
    x[near] = [math.log1p(-v) / log_q for v in r[near].tolist()]
    return 1 + np.minimum(x, total).astype(np.int64)


def _bernoulli_indices(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices in [0, total) kept independently with probability p, as int64.

    Geometric skips (Batagelj & Brandes 2005) are drawn in chunks and summed;
    then the generator is rewound to just past the draw that crossed
    ``total``. Indices and stream equal those of drawing one skip at a time.
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    log_q = math.log1p(-p)
    start = rng.bit_generator.state
    # k skips of at most total + 1 (give or take the float rounding of a
    # clipped skip) keep every position of a chunk below 2^63
    limit = max(1, min(_CHUNK, (1 << 62) // (total + 1)))
    parts, pos, used = [], -1, 0
    while True:
        # the draws expected to cross total, plus four standard deviations
        expected = (total - 1 - pos) * p + 1
        k = min(limit, int(expected + 4 * math.sqrt(expected)) + 16)
        positions = pos + np.cumsum(_skips(rng.random(k), log_q, total))
        end = int(np.searchsorted(positions, total))
        parts.append(positions[:end])
        if end < k:
            rng.bit_generator.state = start
            rng.bit_generator.advance(used + end + 1)
            return np.concatenate(parts)
        pos, used = int(positions[-1]), used + k


def _pair_from_triangular(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j of the flat indices q = j(j-1)/2 + i."""
    # j = floor((1 + sqrt(8q + 1)) / 2); half a row up, float rounding cannot
    # push the estimate below j, so it is j or j + 1
    j = (np.sqrt(8.0 * q + 1.0) // 2 + 1).astype(np.int64)
    j -= j * (j - 1) // 2 > q
    return q - j * (j - 1) // 2, j


def erdos_renyi(n: int, p: float, seed) -> AnnotatedGraph:
    """G(n, p): each unordered pair is an edge independently with prob p."""
    if n < 2:
        raise ConfigError("erdos_renyi requires n >= 2")
    if not 0.0 <= p <= 1.0:
        raise ConfigError("edge probability must lie in [0, 1]")
    rng = _rng(seed)
    i, j = _pair_from_triangular(_bernoulli_indices(n * (n - 1) // 2, p, rng))
    return AnnotatedGraph.from_edge_array(n, np.column_stack([i, j]))


def watts_strogatz(n: int, k_ring: int, p_rewire: float, seed) -> AnnotatedGraph:
    """Ring lattice of degree k_ring with independent edge rewiring.

    For each lattice edge (taken ring by ring, as in the original scheme)
    the far endpoint is replaced, with probability p_rewire, by a uniform
    target that creates neither a self-loop nor a duplicate edge.
    """
    if k_ring < 2 or k_ring % 2 != 0:
        raise ConfigError("k_ring must be a positive even integer")
    if k_ring >= n:
        raise ConfigError("k_ring must be smaller than n")
    if not 0.0 <= p_rewire <= 1.0:
        raise ConfigError("rewiring probability must lie in [0, 1]")
    rng = _rng(seed)
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
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return AnnotatedGraph.from_edge_array(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def barabasi_albert(n: int, m: int, seed) -> AnnotatedGraph:
    """Preferential attachment from an m-clique seed.

    Each new node attaches to m distinct existing nodes chosen with
    probability proportional to degree; duplicate targets are resolved by
    rejection sampling, keeping the graph simple.
    """
    if m < 1:
        raise ConfigError("barabasi_albert requires m >= 1")
    if n <= m:
        raise ConfigError("barabasi_albert requires n > m")
    rng = _rng(seed)
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
    return AnnotatedGraph.from_edge_array(n, np.array(edges, dtype=np.int64))


def two_community(
    n_pro: int, n_anti: int, p_in: float, p_out: float, seed
) -> AnnotatedGraph:
    """Planted two-block graph with opinions assigned by block.

    Within-community pairs connect with probability p_in, cross-community
    pairs with p_out <= p_in (equality gives the random-mixing control).
    Nodes [0, n_pro) are pro, the rest anti.
    """
    if n_pro < 1 or n_anti < 1:
        raise ConfigError("both communities need at least one node")
    if not (0.0 <= p_out <= 1.0 and 0.0 <= p_in <= 1.0):
        raise ConfigError("connection probabilities must lie in [0, 1]")
    if p_in < p_out:
        raise ConfigError("two_community requires p_in >= p_out")
    rng = _rng(seed)
    pro = _pair_from_triangular(_bernoulli_indices(n_pro * (n_pro - 1) // 2, p_in, rng))
    anti = _pair_from_triangular(_bernoulli_indices(n_anti * (n_anti - 1) // 2, p_in, rng))
    cross = _bernoulli_indices(n_pro * n_anti, p_out, rng)
    edges = np.concatenate([
        np.column_stack(pro),
        n_pro + np.column_stack(anti),
        np.column_stack([cross // n_anti, n_pro + cross % n_anti]),
    ])
    n = n_pro + n_anti
    opinions = np.empty(n, dtype=np.uint8)
    opinions[:n_pro] = Opinion.PRO
    opinions[n_pro:] = Opinion.ANTI
    return AnnotatedGraph.from_edge_array(n, edges, opinions=opinions)


# most nodes of a generated graph: every pair index n(n-1)/2 then fits in int64
MAX_NODES = 2**31 - 1

# the parameters each generator kind needs
_REQUIRED = {
    "er": ("n", "p"),
    "ws": ("n", "k_ring", "p_rewire"),
    "ba": ("n", "m"),
    "two-community": ("n_pro", "n_anti", "p_in", "p_out"),
}
GENERATOR_KINDS = tuple(_REQUIRED)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parsed description of a synthetic graph to build."""

    kind: str
    seed: int = 0
    n: int | None = None
    p: float | None = None
    k_ring: int | None = None
    p_rewire: float | None = None
    m: int | None = None
    n_pro: int | None = None
    n_anti: int | None = None
    p_in: float | None = None
    p_out: float | None = None

    def __post_init__(self):
        if self.kind not in _REQUIRED:
            raise ConfigError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        for key in ("p", "p_rewire", "p_in", "p_out"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {value}")
        if self.seed < 0:
            raise ConfigError(f"key 'graph_seed' (generate --seed) must be >= 0, got {self.seed}")
        both = None if None in (self.n_pro, self.n_anti) else self.n_pro + self.n_anti
        for key, value in (("n", self.n), ("n_pro + n_anti", both)):
            if value is not None and value > MAX_NODES:
                raise ConfigError(f"{key} must be <= {MAX_NODES}, got {value}")

    def build(self) -> AnnotatedGraph:
        missing = [name for name in _REQUIRED[self.kind] if getattr(self, name) is None]
        if missing:
            raise ConfigError(
                f"generator {self.kind!r} needs parameter(s): {', '.join(missing)}"
            )
        if self.kind == "er":
            return erdos_renyi(self.n, self.p, self.seed)
        if self.kind == "ws":
            return watts_strogatz(self.n, self.k_ring, self.p_rewire, self.seed)
        if self.kind == "ba":
            return barabasi_albert(self.n, self.m, self.seed)
        return two_community(self.n_pro, self.n_anti, self.p_in, self.p_out, self.seed)
