"""Structural and polarization metrics for annotated graphs.

Covers edge density, degree histograms with log-log power-law fits, local
and average clustering, 2x2 attribute mixing matrices, the assortativity
coefficient derived from them, and the cross-connection ratio between the
two opinion groups. Triangles are counted by the forward algorithm
(Schank & Wagner 2005; Latapy 2008) in numpy alone. All operations are pure
functions over an immutable graph and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, FitError, SingleGroupError
from .graph import AnnotatedGraph, row_blocks

_DEGENERATE_EPS = 1e-12
# arcs or wedges per block of the triangle count; bounds its temporaries
_BLOCK_WORK = 1 << 14


@dataclass(frozen=True)
class DegreeDistribution:
    """Exact degree histogram: ``counts[k]`` nodes have degree k."""

    counts: dict[int, int]
    n: int


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares log-log fit of P(k) ~ k**(-gamma) for k >= k_min."""

    gamma: float
    k_min: int
    r2: float


@dataclass(frozen=True)
class MetricsReport:
    """One graph's worth of structural metrics.

    ``assortativity`` and ``cross_connection`` are NaN when every edge
    endpoint carries the same opinion (single-group subgraphs).
    """

    density: float
    mean_degree: float
    avg_clustering: float
    power_law: PowerLawFit
    assortativity: float
    cross_connection: float


def density(g: AnnotatedGraph) -> float:
    """Fraction of possible edges present: E / (n(n-1)/2)."""
    if g.n < 2:
        raise DataError("density is undefined for graphs with fewer than 2 nodes")
    return g.edge_count / (g.n * (g.n - 1) / 2)


def mean_degree(g: AnnotatedGraph) -> float:
    if g.n < 1:
        raise DataError("mean degree is undefined for the empty graph")
    return 2 * g.edge_count / g.n


def degree_distribution(g: AnnotatedGraph) -> DegreeDistribution:
    counts = np.bincount(g.degrees) if g.n else np.empty(0, dtype=np.int64)
    return DegreeDistribution(
        counts={int(k): int(c) for k, c in enumerate(counts) if c > 0},
        n=g.n,
    )


def fit_power_law(
    dist: DegreeDistribution, k_min: int = 1, min_count: int = 1
) -> PowerLawFit:
    """Fit gamma by linear regression of log P(k) on log k.

    Only degrees k >= max(k_min, 1) with nonzero counts participate; at
    least three distinct such degrees are required. ``min_count`` drops
    degrees observed fewer than that many times: the scattered tail of
    once-seen degrees otherwise flattens the slope on noisy empirical
    histograms (it cannot change the fit on exact power-law data).
    """
    if k_min < 1:
        raise FitError("k_min must be >= 1 (log k is undefined at 0)")
    ks = np.array(
        sorted(k for k, c in dist.counts.items() if k >= k_min and c >= min_count),
        dtype=np.float64,
    )
    if ks.size < 3:
        raise FitError(
            f"need at least 3 distinct degrees >= {k_min} "
            f"with count >= {min_count}, found {ks.size}"
        )
    log_k = np.log(ks)
    log_p = np.log([dist.counts[int(k)] / dist.n for k in ks])
    slope, intercept = np.polyfit(log_k, log_p, 1)
    residuals = log_p - (slope * log_k + intercept)
    ss_tot = float(np.sum((log_p - log_p.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(residuals**2)) / ss_tot
    gamma = -float(slope)
    if gamma <= 0:
        raise FitError(f"degree histogram is not decaying (gamma={gamma:.3f})")
    return PowerLawFit(gamma=gamma, k_min=k_min, r2=r2)


def _triangles(g: AnnotatedGraph) -> np.ndarray:
    """Number of triangles at each node (int64), by the forward algorithm.

    Nodes are renumbered by rank in (degree, id) order and each edge is kept
    once, as the arc ``u -> v`` from its lower-ranked end. A triangle is then
    one wedge of two out-arcs ``u -> v``, ``u -> w`` (v ranked below w) of its
    lowest-ranked corner, closed by the arc ``v -> w``: each is found once,
    by a search for the key ``v*n + w`` among the sorted arc keys ``u*n + v``.

    Memory: beyond the graph, one int64 array of the edge count (the arc
    keys, half the adjacency's bytes) and a few arrays of one entry per
    node. The keys are filled from blocks of about ``_BLOCK_WORK`` arcs, and
    the wedges are listed in blocks of nodes that head about ``_BLOCK_WORK``
    wedges and arcs (a node that heads more is a block of its own). Each
    block's keys are searched in sorted order and the hits mapped back.

    Ranks are int32 (``n`` < 2**31). Every key is formed in int64, the arc
    keys in their int64 buffer and the closing keys from int64 ids, since an
    int32 ``v * n`` would wrap.
    """
    n, indptr = g.n, g.indptr
    rank = np.empty(n, dtype=np.int32)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(n, dtype=np.int32)
    keys = np.empty(g.edge_count, dtype=np.int64)
    filled = 0
    for lo, hi in row_blocks(indptr, _BLOCK_WORK):
        src = np.repeat(rank[lo:hi], np.diff(indptr[lo : hi + 1]))
        dst = rank[g.indices[indptr[lo] : indptr[hi]]]
        forward = src < dst
        block = keys[filled : filled + np.count_nonzero(forward)]
        block[:] = src[forward]  # the store casts to int64
        block *= n
        block += dst[forward]
        filled += block.size
    keys.sort()
    # rank r's out-list is keys[out[r]:out[r + 1]]; its k arcs head
    # k*(k-1)/2 wedges, and the arcs count too in cutting the blocks
    out = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    cost = np.zeros(n + 1, dtype=np.int64)
    k = cost[1:]
    np.subtract(out[1:], out[:-1], out=k)
    k *= k + 1
    k //= 2
    np.cumsum(cost, out=cost)
    tri = np.zeros(n, dtype=np.int64)
    for lo, hi in row_blocks(cost, _BLOCK_WORK):
        first = out[lo]
        u = np.repeat(np.arange(lo, hi), np.diff(out[lo : hi + 1]))  # the block's arcs' tails
        v = keys[first : out[hi]] % n
        # arc a heads the wedges it makes with arcs a+1 .. a+later[a]
        later = out[u + 1] - first
        later -= np.arange(1, u.size + 1)
        h = np.flatnonzero(later)
        cnt = later[h]
        a = np.repeat(h, cnt)
        b = np.repeat(h - np.cumsum(cnt) + cnt, cnt)
        b += np.arange(1, b.size + 1)
        need = v[a] * n
        need += v[b]
        order = np.argsort(need)
        need = need[order]
        found = np.searchsorted(keys, need)
        np.minimum(found, keys.size - 1, out=found)
        hit = order[keys[found] == need]
        a, b = a[hit], b[hit]
        tri += np.bincount(np.concatenate([u[a], v[a], v[b]]), minlength=n)
    return tri[rank]


def clustering_coefficients(g: AnnotatedGraph) -> np.ndarray:
    """Local clustering coefficient of every node."""
    if g.n < 1:
        raise DataError("clustering is undefined for the empty graph")
    twice = 2 * _triangles(g)
    deg = g.degrees  # taken after the count, so as not to add to its peak
    return np.divide(twice, deg * (deg - 1), out=np.zeros(g.n), where=deg >= 2)


def average_clustering(g: AnnotatedGraph) -> float:
    """Mean local clustering over all nodes (degree-<2 nodes count as 0)."""
    return float(clustering_coefficients(g).mean())


def mixing_matrix(g: AnnotatedGraph, labels: np.ndarray) -> np.ndarray:
    """2x2 matrix of edge-endpoint label pairings, both orientations.

    ``labels`` holds one binary attribute (0 or 1) per node. Entry (a, b)
    is the fraction of directed arcs whose endpoints carry labels (a, b);
    the result is symmetric and sums to 1.
    """
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise DataError("labels must provide one value per node")
    if not ((labels == 0) | (labels == 1)).all():  # before the cast, which would truncate 0.5
        raise DataError("labels must be binary (0 or 1)")
    labels = labels.astype(np.uint8)
    if g.edge_count == 0:
        raise DataError("mixing matrix is undefined for an empty edge set")
    # the CSR arcs hold each edge in both orientations; code 2*a + b per arc
    codes = np.repeat(labels << 1, g.degrees)
    codes += labels[g.indices]
    pairs = np.bincount(codes, minlength=4)
    return pairs.reshape(2, 2) / (2 * g.edge_count)


def assortativity(m: np.ndarray) -> float:
    """Newman's attribute assortativity r = (tr e - sum(e@e)) / (1 - sum(e@e)).

    +1 for fully separated groups, 0 for random mixing, -1 for a fully
    cross-linked (bipartite-like) labeling.
    """
    m = np.asarray(m, dtype=np.float64)
    s = float((m @ m).sum())
    if abs(1.0 - s) < _DEGENERATE_EPS:
        raise SingleGroupError(
            "all edge endpoints share one label; assortativity is undefined"
        )
    return (float(np.trace(m)) - s) / (1.0 - s)


def cross_connection_ratio(m: np.ndarray) -> float:
    """Off-diagonal weight relative to within-group weight: 2*e10/(e00+e11)."""
    m = np.asarray(m, dtype=np.float64)
    denom = m[0, 0] + m[1, 1]
    if denom == 0:
        raise DataError("no within-group edges; cross-connection ratio undefined")
    return float(2.0 * m[1, 0] / denom)


def metrics_report(g: AnnotatedGraph, k_min: int = 1) -> MetricsReport:
    """All metrics for one graph (or opinion subgraph).

    On single-opinion graphs the mixing-matrix-based fields come out NaN
    rather than raising, so per-community reports stay available.
    """
    m = mixing_matrix(g, g.opinions)
    try:
        r = assortativity(m)
        cross = cross_connection_ratio(m)
    except SingleGroupError:
        r = float("nan")
        cross = float("nan")
    return MetricsReport(
        density=density(g),
        mean_degree=mean_degree(g),
        avg_clustering=average_clustering(g),
        power_law=fit_power_law(degree_distribution(g), k_min=k_min),
        assortativity=r,
        cross_connection=cross,
    )
