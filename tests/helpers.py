"""Small graph builders shared across test modules."""

from __future__ import annotations

import threading
import time
import tracemalloc

import numpy as np

from polarnet import experiment
from polarnet.epidemic import run_batch
from polarnet.generators import two_community
from polarnet.graph import AnnotatedGraph


def graph_from_edges(n, edges, opinions=None) -> AnnotatedGraph:
    return AnnotatedGraph.from_edge_array(
        n,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        opinions=None if opinions is None else np.array(opinions, dtype=np.uint8),
    )


def memory_test_graph() -> AnnotatedGraph:
    """40,000 pro and 10,000 anti nodes, about 171k edges: large enough that
    arc-sized temporaries dwarf the fixed allocations of a call."""
    return two_community(40_000, 10_000, 2e-4, 2e-6, 1)


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc traced during the call)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_on_batches(monkeypatch, batch_nodes, cpus=4) -> list:
    """Patch ``experiment`` so an ensemble on an n-node graph steps batches of
    ``batch_nodes // n`` runs on at most ``cpus`` threads, whatever this
    machine's CPU count; returns the list to which each batch appends the
    thread that started it."""
    started, lock = [], threading.Lock()

    def recorded(*args):
        with lock:
            started.append(threading.current_thread())
        time.sleep(0.005)  # hands the GIL to a waiting helper, so every thread takes a batch
        return run_batch(*args)

    monkeypatch.setattr(experiment, "BATCH_NODES", batch_nodes)
    monkeypatch.setattr(experiment, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiment, "run_batch", recorded)
    return started


def threads_per_ensemble(started, batches) -> list[int]:
    """How many threads started batches in each ensemble, of the ensembles of
    ``batches`` batches each that ran one after another and filled ``started``."""
    assert started and len(started) % batches == 0, f"{len(started)} batches, not ensembles of {batches}"
    return [len(set(started[i : i + batches])) for i in range(0, len(started), batches)]


def degree(g: AnnotatedGraph, i: int) -> int:
    if not 0 <= i < g.n:
        raise IndexError(f"node id {i} out of range [0, {g.n})")
    return int(g.indptr[i + 1] - g.indptr[i])


def neighbors(g: AnnotatedGraph, i: int) -> np.ndarray:
    if not 0 <= i < g.n:
        raise IndexError(f"node id {i} out of range [0, {g.n})")
    return g.indices[g.indptr[i] : g.indptr[i + 1]]


def edge_array(g: AnnotatedGraph) -> np.ndarray:
    """All edges of ``g`` as an (edge_count, 2) array with src < dst."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    mask = src < g.indices
    return np.column_stack([src[mask], g.indices[mask]])


def structurally_equal(a: AnnotatedGraph, b: AnnotatedGraph) -> bool:
    return (
        a.n == b.n
        and a.edge_count == b.edge_count
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.opinions, b.opinions)
    )


def complete_edges(n) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_edges(leaves) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, leaves + 1)]


def path_edges(n) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def random_edges(rng, n, p) -> list[tuple[int, int]]:
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                out.append((i, j))
    return out


def random_annotated(rng, n, p) -> AnnotatedGraph:
    opinions = (rng.random(n) < 0.5).astype(np.uint8)
    return graph_from_edges(n, random_edges(rng, n, p), opinions)
