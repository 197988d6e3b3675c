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
from .graph import AnnotatedGraph

_DEGENERATE_EPS = 1e-12
# wedges per block of the triangle count; bounds its memory on dense graphs
_BLOCK_WORK = 1 << 16


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
    """
    n, deg = g.n, g.degrees
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    src, dst = rank[np.repeat(np.arange(n), deg)], rank[g.indices]
    keys = np.sort((src * n + dst)[src < dst])
    u, v = np.divmod(keys, n)
    # arc a heads the wedges it makes with arcs a+1 .. a+later[a] of its out-list
    later = np.cumsum(np.bincount(u, minlength=n))[u] - np.arange(u.size) - 1
    heads = np.flatnonzero(later)
    work = np.cumsum(later[heads])  # wedges headed by heads[:j+1]
    tri = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < heads.size:
        done = int(work[lo] - later[heads[lo]])
        hi = max(lo + 1, int(np.searchsorted(work, done + _BLOCK_WORK, side="right")))
        h = heads[lo:hi]
        cnt = later[h]
        a = np.repeat(h, cnt)
        b = np.repeat(h - np.cumsum(cnt) + cnt, cnt) + np.arange(1, int(work[hi - 1]) - done + 1)
        need = v[a] * n + v[b]
        closed = keys[np.minimum(np.searchsorted(keys, need), keys.size - 1)] == need
        a, b = a[closed], b[closed]
        tri += np.bincount(np.concatenate([u[a], v[a], v[b]]), minlength=n)
        lo = hi
    return tri[rank]


def clustering_coefficients(g: AnnotatedGraph) -> np.ndarray:
    """Local clustering coefficient of every node."""
    if g.n < 1:
        raise DataError("clustering is undefined for the empty graph")
    deg = g.degrees
    return np.divide(2 * _triangles(g), deg * (deg - 1), out=np.zeros(g.n), where=deg >= 2)


def average_clustering(g: AnnotatedGraph) -> float:
    """Mean local clustering over all nodes (degree-<2 nodes count as 0)."""
    return float(clustering_coefficients(g).mean())


def mixing_matrix(g: AnnotatedGraph, labels: np.ndarray) -> np.ndarray:
    """2x2 matrix of edge-endpoint label pairings, both orientations.

    ``labels`` holds one binary attribute (0 or 1) per node. Entry (a, b)
    is the fraction of directed arcs whose endpoints carry labels (a, b);
    the result is symmetric and sums to 1.
    """
    labels = np.asarray(labels).astype(np.int64)
    if labels.shape != (g.n,):
        raise DataError("labels must provide one value per node")
    if labels.size and (labels.min() < 0 or labels.max() > 1):
        raise DataError("labels must be binary (0 or 1)")
    if g.edge_count == 0:
        raise DataError("mixing matrix is undefined for an empty edge set")
    # the CSR arcs hold each edge in both orientations
    pairs = np.bincount(2 * np.repeat(labels, g.degrees) + labels[g.indices], minlength=4)
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
