"""Synthetic network generators: random, small-world, scale-free, planted.

Every generator is deterministic given its parameters and a non-negative
seed, draws by ``Generator.random`` and ``Generator.integers`` alone, and
returns a validated :class:`~polarnet.graph.AnnotatedGraph`. Each works over
whole numpy arrays:

- random-graph and two-community edges by geometric skip sampling, so cost
  scales with the number of edges rather than of node pairs; the skips are
  drawn in chunks;
- Watts-Strogatz by one array comparison that picks the rewired lattice
  edges, and blocks of uniform targets for them; only the rewire events are
  walked in Python;
- Barabasi-Albert by drawing the targets of a chunk of nodes at once and
  resolving them over the endpoint list in rounds; a node that draws a
  target twice draws on alone until its targets are distinct.

:class:`GeneratorSpec` alone checks the parameters and draws the edges; the
four public functions describe their graph by one and build it, so a library
call and a config file raise the same messages.

Memory: each generator fills one preallocated ``(k, 2)`` int64 edge array in
place, beside only its own index arrays (ER's flat indices, two-community's
three blocks of them, WS's kept and rewired edges; at high ``p_rewire``,
WS's rewiring loop keeps its events in Python lists that outweigh the edge
array). :meth:`GeneratorSpec.edges` returns the array, and
:meth:`GeneratorSpec.build` hands it to
:meth:`AnnotatedGraph.from_edge_array` as its only reference, so the build
frees it before its sort (from CPython 3.11; 3.10 keeps a call's arguments
alive until it returns); ``polarnet generate`` hands it to
:func:`~polarnet.graph.save_edge_array`, which never builds the graph.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_integers
from .graph import AnnotatedGraph, Opinion


# most nodes of a generated graph: every pair index n(n-1)/2 then fits in int64
MAX_NODES = 2**31 - 1


_CHUNK = 1 << 18  # most skips drawn per rng.random call


def _bernoulli_indices(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices in [0, total) kept independently with probability p, as int64.

    Geometric skip sampling (Batagelj & Brandes 2005): the gap to the next
    kept index is ``1 + floor(log(1 - r) / log(1 - p))`` for a uniform r.
    Skips are drawn in chunks sized to cross ``total`` with high
    probability; the draws beyond ``total`` go unused.
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    log_q = math.log1p(-p)
    # k skips of at most total + 1 (give or take the float rounding of a
    # clipped skip) keep every position of a chunk below 2^63
    limit = max(1, min(_CHUNK, (1 << 62) // (total + 1)))
    parts, pos = [], -1
    while pos < total:
        # the draws expected to cross total, plus four standard deviations
        expected = (total - 1 - pos) * p + 1
        k = min(limit, int(expected + 4 * math.sqrt(expected)) + 16)
        # the skips are worked out in the buffer of their draws, the
        # positions in the buffer of the skips
        skips = rng.random(k)
        with np.errstate(over="ignore", invalid="ignore"):  # a subnormal p gives inf
            np.negative(skips, out=skips)
            np.log1p(skips, out=skips)
            skips /= log_q
            np.minimum(skips, total, out=skips)
        positions = skips.astype(np.int64)
        del skips
        positions += 1
        positions[0] += pos
        np.cumsum(positions, out=positions)
        pos = int(positions[-1])
        parts.append(positions[: np.searchsorted(positions, total)])  # positions increase
    return np.concatenate(parts)


_DECODE_BLOCK = 1 << 16  # flat indices decoded per block


def _pair_from_triangular(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the pairs i < j of the flat indices q = j(j-1)/2 + i as the
    rows of ``out``, an int64 array of shape (q.size, 2); returns ``out``.
    The float and int64 temporaries span one block of ``_DECODE_BLOCK``
    indices at a time."""
    for lo in range(0, q.size, _DECODE_BLOCK):
        block = q[lo : lo + _DECODE_BLOCK]
        i, j = out[lo : lo + _DECODE_BLOCK, 0], out[lo : lo + _DECODE_BLOCK, 1]
        # j = floor((1 + sqrt(8q + 1)) / 2); half a row up, float rounding
        # cannot push the estimate below j, so it is j or j + 1
        j[:] = np.sqrt(8.0 * block + 1.0) // 2 + 1
        j -= j * (j - 1) // 2 > block
        np.subtract(block, j * (j - 1) // 2, out=i)
    return out


def _erdos_renyi_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Edges of G(n, p), each pair decoded from its kept flat index."""
    q = _bernoulli_indices(n * (n - 1) // 2, p, rng)
    return _pair_from_triangular(q, np.empty((q.size, 2), dtype=np.int64))


def _watts_strogatz_edges(n: int, k_ring: int, p_rewire: float, rng: np.random.Generator) -> np.ndarray:
    """Edges of the ring lattice with each lattice edge (u, v), taken ring by
    ring, rewired with probability p_rewire: unless u is saturated, v is
    replaced by a uniform target w that is neither u nor a neighbour of u.

    One ``rng.random(total) < p_rewire`` array picks the rewired edges, and
    their targets come from blocks of ``rng.integers(n, size=...)``, drawn
    again while a target is refused. Lattice edge e joins ``e % n`` and
    ``(e % n + e // n + 1) % n``; it is still in the graph until its own
    turn, so neighbourhoods follow from the ring arithmetic, the lattice
    edges removed so far and the set of rewired edges.
    """
    reach = k_ring // 2
    total = n * reach
    hits = np.flatnonzero(rng.random(total) < p_rewire).tolist()
    removed = bytearray(total)  # lattice edges rewired away
    rewired: set[int] = set()  # edges added by rewiring, as min * n + max
    degree = [k_ring] * n
    targets: list[int] = []
    t = 0  # next unused target
    for e in hits:
        u = e % n
        if degree[u] >= n - 1:
            continue  # u saturated
        while True:
            if t == len(targets):
                targets, t = rng.integers(n, size=len(hits) + 64).tolist(), 0
            w = targets[t]
            t += 1
            d = (w - u) % n
            if d == 0:
                continue
            key = u * n + w if u < w else w * n + u
            if key in rewired:
                continue
            if d <= reach and not removed[(d - 1) * n + u]:
                continue
            if n - d <= reach and not removed[(n - d - 1) * n + w]:
                continue
            break
        v = (u + e // n + 1) % n
        removed[e] = 1
        rewired.add(key)
        degree[v] -= 1
        degree[w] += 1
    added = np.fromiter(rewired, dtype=np.int64, count=len(rewired))
    del hits, targets, degree, rewired
    kept = np.flatnonzero(np.frombuffer(removed, dtype=np.uint8) == 0)
    edges = np.empty((total, 2), dtype=np.int64)
    u, v = edges[: kept.size, 0], edges[: kept.size, 1]
    np.divmod(kept, n, out=(v, u))  # v holds e // n until it becomes the far end
    v += u
    v += 1
    v %= n
    np.divmod(added, n, out=(edges[kept.size :, 0], edges[kept.size :, 1]))
    return edges


_BA_CHUNKS = (1 << 8, 1 << 16)  # fewest and most nodes drawn per rng.integers call


def _attach(draws: np.ndarray, targets: np.ndarray, first: int, ends: np.ndarray) -> int:
    """Resolve each node's first m draws (one row of ``draws`` per node) into
    its sorted row of ``targets``, from row ``first``.

    Draw i picks entry i of the list of all edge endpoints: the seed clique's
    ``ends``, then for each later node w its sorted targets, each followed by
    w itself, so a node is picked with probability proportional to degree. A
    draw on an earlier node of the chunk waits for that node's row, and the
    rows are filled in rounds. Returns the index of the first node whose m
    draws repeat a target (its row holds them all), or the chunk size.
    """
    size, m = draws.shape
    c0 = ends.size
    flat = draws.ravel()
    val = np.empty_like(flat)
    inside = flat < c0
    val[inside] = ends[flat[inside]]
    pend = np.flatnonzero(~inside)
    row, slot = np.divmod(flat[pend] - c0, 2 * m)
    odd = slot % 2 == 1
    val[pend[odd]] = m + row[odd]
    pend, row, slot = pend[~odd], row[~odd] - first, slot[~odd] // 2
    before = row < 0
    val[pend[before]] = targets[first + row[before], slot[before]]
    pend, row, slot = pend[~before], row[~before], slot[~before]
    rows = val.reshape(size, m)
    chunk = targets[first : first + size]
    done = np.zeros(size, dtype=bool)
    while True:
        ready = ~done
        ready[pend // m] = False
        new = np.flatnonzero(ready)
        chunk[new] = np.sort(rows[new], axis=1)
        done[new] = True
        if not pend.size:
            break
        hit = done[row]
        val[pend[hit]] = chunk[row[hit], slot[hit]]
        pend, row, slot = pend[~hit], row[~hit], slot[~hit]
    repeats = np.flatnonzero((chunk[:, 1:] == chunk[:, :-1]).any(axis=1))
    return int(repeats[0]) if repeats.size else size


def _barabasi_albert_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Edges of preferential attachment (Barabasi & Albert 1999) from an
    m-clique: each new node v draws uniform indices into the list of all
    edge endpoints so far, i.e. existing nodes with probability proportional
    to degree, until it holds m distinct targets, then joins each of them.

    Node v's draws all share the bound ``m(m-1) + 2m(v-m)``, so a chunk of
    nodes takes its first m draws each from one ``rng.integers`` call. A
    node whose m draws repeat a target keeps the distinct ones and draws on,
    one at a time; the rows after it are dropped and drawn again.
    """
    ends = np.column_stack(np.triu_indices(m, 1)).ravel()
    c0 = ends.size
    edges = np.empty((c0 // 2 + m * (n - m), 2), dtype=np.int64)
    edges[: c0 // 2] = ends.reshape(-1, 2)
    joins = edges[c0 // 2 :].reshape(n - m, m, 2)  # row w - m: node w's edges
    joins[:, :, 1] = np.arange(m, n)[:, None]
    targets = joins[:, :, 0]  # row w - m: sorted targets of node w
    v = m
    if c0 == 0:  # m = 1: no endpoints yet, so node 1 joins node 0
        targets[0] = 0
        v += 1
    chunk = _BA_CHUNKS[0]
    while v < n:
        size = min(chunk, n - v)
        bounds = np.repeat(c0 + 2 * m * (np.arange(v, v + size) - m), m)
        kept = _attach(rng.integers(bounds).reshape(size, m), targets, v - m, ends)
        v += kept
        if kept == size:
            chunk = min(2 * chunk, _BA_CHUNKS[1])
            continue
        picked = set(targets[v - m].tolist())
        while len(picked) < m:
            i = int(rng.integers(bounds[kept * m]))
            row, slot = divmod(i - c0, 2 * m)
            picked.add(int(ends[i]) if i < c0 else m + row if slot % 2 else int(targets[row, slot // 2]))
        targets[v - m] = sorted(picked)
        v += 1
        chunk = max(chunk // 2, _BA_CHUNKS[0])
    return edges


def _two_community_edges(n_pro: int, n_anti: int, p_in: float, p_out: float, rng: np.random.Generator) -> np.ndarray:
    """Edges among the pro nodes [0, n_pro), among the anti nodes, then
    across, each block drawn by skip sampling over its pair indices."""
    pro = _bernoulli_indices(n_pro * (n_pro - 1) // 2, p_in, rng)
    anti = _bernoulli_indices(n_anti * (n_anti - 1) // 2, p_in, rng)
    cross = _bernoulli_indices(n_pro * n_anti, p_out, rng)
    edges = np.empty((pro.size + anti.size + cross.size, 2), dtype=np.int64)
    _pair_from_triangular(pro, edges[: pro.size])
    inside = edges[pro.size : pro.size + anti.size]
    _pair_from_triangular(anti, inside)
    inside += n_pro
    across = edges[pro.size + anti.size :]
    np.divmod(cross, n_anti, out=(across[:, 0], across[:, 1]))
    across[:, 1] += n_pro
    return edges




# each generator kind: its edge function, the parameters that function takes
# before its rng, and the kind's own rules as (holds, message) pairs
_KINDS = {
    "er": (_erdos_renyi_edges, ("n", "p"), ((lambda g: g.n >= 2, "erdos_renyi requires n >= 2"),)),
    "ws": (_watts_strogatz_edges, ("n", "k_ring", "p_rewire"), (
        (lambda g: g.k_ring >= 2 and g.k_ring % 2 == 0, "k_ring must be a positive even integer"),
        (lambda g: g.k_ring < g.n, "k_ring must be smaller than n"),
    )),
    "ba": (_barabasi_albert_edges, ("n", "m"), (
        (lambda g: g.m >= 1, "barabasi_albert requires m >= 1"),
        (lambda g: g.n > g.m, "barabasi_albert requires n > m"),
    )),
    "two-community": (_two_community_edges, ("n_pro", "n_anti", "p_in", "p_out"), (
        (lambda g: g.n_pro >= 1 and g.n_anti >= 1, "both communities need at least one node"),
        (lambda g: g.p_in >= g.p_out, "two_community requires p_in >= p_out"),
    )),
}
GENERATOR_KINDS = tuple(_KINDS)
_COUNTS = ("n", "k_ring", "m", "n_pro", "n_anti")


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
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}")
        unused = [k for k, v in vars(self).items() if v is not None and k not in ("kind", "seed", *_KINDS[self.kind][1])]
        if unused:
            raise ConfigError(f"generator {self.kind!r} takes no parameter(s): {', '.join(unused)}")
        counts = [(key, getattr(self, key)) for key in _COUNTS if getattr(self, key) is not None]
        require_integers(("graph_seed", self.seed), *counts)
        sizes = [("n", self.n)]
        if self.n_pro is not None and self.n_anti is not None:
            sizes.append(("n_pro + n_anti", int(self.n_pro) + int(self.n_anti)))
        for key, value in sizes:
            if value is not None and value > MAX_NODES:
                raise ConfigError(f"{key} must be <= {MAX_NODES}, got {value}")
        for key in ("p", "p_rewire", "p_in", "p_out"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {value}")
        if self.seed < 0:
            raise ConfigError(f"key 'graph_seed' (generate --seed) must be >= 0, got {self.seed}")

    def edges(self) -> tuple[int, np.ndarray, np.ndarray | None]:
        """(node count, the ``(k, 2)`` int64 edge array, each node's Opinion
        value or None for all pro) of the described graph, drawn after its
        kind's rules from ``PCG64(seed)``."""
        draw, names, rules = _KINDS[self.kind]
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ConfigError(f"generator {self.kind!r} needs parameter(s): {', '.join(missing)}")
        for holds, message in rules:
            if not holds(self):
                raise ConfigError(message)
        # Python ints: a numpy integer size would overflow in its own width
        args = [operator.index(getattr(self, name)) if name in _COUNTS else getattr(self, name) for name in names]
        if self.n is not None:
            n, opinions = operator.index(self.n), None
        else:  # two blocks: nodes [0, n_pro) are pro, the rest anti
            blocks = operator.index(self.n_pro), operator.index(self.n_anti)
            n, opinions = sum(blocks), np.repeat(np.uint8([Opinion.PRO, Opinion.ANTI]), blocks)
        return n, draw(*args, np.random.Generator(np.random.PCG64(operator.index(self.seed)))), opinions

    def build(self) -> AnnotatedGraph:
        """The described graph; the edge array goes to the build as its only
        reference."""
        n, *edges, opinions = self.edges()
        return AnnotatedGraph.from_edge_array(n, edges.pop(), opinions)


def erdos_renyi(n: int, p: float, seed) -> AnnotatedGraph:
    """G(n, p): each unordered pair is an edge independently with prob p."""
    return GeneratorSpec("er", seed, n=n, p=p).build()


def watts_strogatz(n: int, k_ring: int, p_rewire: float, seed) -> AnnotatedGraph:
    """Ring lattice of degree k_ring with independent edge rewiring.

    For each lattice edge (taken ring by ring, as in the original scheme)
    the far endpoint is replaced, with probability p_rewire, by a uniform
    target that creates neither a self-loop nor a duplicate edge.
    """
    return GeneratorSpec("ws", seed, n=n, k_ring=k_ring, p_rewire=p_rewire).build()


def barabasi_albert(n: int, m: int, seed) -> AnnotatedGraph:
    """Preferential attachment from an m-clique seed.

    Each new node attaches to m distinct existing nodes chosen with
    probability proportional to degree; duplicate targets are resolved by
    rejection sampling, keeping the graph simple.
    """
    return GeneratorSpec("ba", seed, n=n, m=m).build()


def two_community(
    n_pro: int, n_anti: int, p_in: float, p_out: float, seed
) -> AnnotatedGraph:
    """Planted two-block graph with opinions assigned by block.

    Within-community pairs connect with probability p_in, cross-community
    pairs with p_out <= p_in (equality gives the random-mixing control).
    Nodes [0, n_pro) are pro, the rest anti.
    """
    return GeneratorSpec("two-community", seed, n_pro=n_pro, n_anti=n_anti, p_in=p_in, p_out=p_out).build()
