"""Seeded inputs of the benchmark workloads.

The 113k-node stand-in for the 2020 network is drawn here with plain numpy,
never with ``polarnet.generators``, so a change to a generator cannot change
the input of another workload. Its sizes follow the 2020 row of the
acceptance suite's criterion 3: 113,038 nodes, 29% anti, 223,099 edges, block
densities 0.00004 (pro) and 0.00016 (anti). Each block is a Chung-Lu graph
with power-law expected degrees; uniform random cross edges join the blocks,
8,314 of them, which puts the assortativity of the opinion labels near the
row's 0.92.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from workloads import E_ANTI, E_CROSS, E_PRO, N_ANTI, N_NODES, N_PRO

GAMMA_PRO = 2.64
GAMMA_ANTI = 2.22


def _chung_lu(n: int, n_edges: int, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """Exactly ``n_edges`` distinct non-loop pairs on ``n`` nodes.

    Endpoints are drawn with probability proportional to the expected degree
    ``w_i ~ (i + 1) ** (-1 / (gamma - 1))``, capped at the structural cutoff
    ``sqrt(2 * n_edges)``, so the degree law has exponent ``gamma``. Pairs are
    kept in draw order until ``n_edges`` distinct ones are found.
    """
    w = (np.arange(n, dtype=np.float64) + 1.0) ** (-1.0 / (gamma - 1.0))
    w *= 2.0 * n_edges / w.sum()
    np.minimum(w, np.sqrt(2.0 * n_edges), out=w)
    p = w / w.sum()
    keys = np.empty(0, dtype=np.int64)
    while True:
        draw = rng.choice(n, size=(int(1.5 * n_edges), 2), p=p)
        lo, hi = draw.min(axis=1), draw.max(axis=1)
        keys = np.concatenate([keys, (lo * np.int64(n) + hi)[lo != hi]])
        uniq, first = np.unique(keys, return_index=True)
        if uniq.size >= n_edges:
            kept = keys[np.sort(first)[:n_edges]]
            return np.column_stack([kept // n, kept % n])


def standin_2020(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges as node-label pairs, node labels, pro flags) of the stand-in.

    Node ``i`` is pro for ``i < N_PRO``; labels are a seeded shuffle of
    ``1_000_000 + i`` so the loader's label remapping does real work.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    pro = _chung_lu(N_PRO, E_PRO, GAMMA_PRO, rng)
    anti = _chung_lu(N_ANTI, E_ANTI, GAMMA_ANTI, rng) + N_PRO
    cross_keys = rng.choice(N_PRO * N_ANTI, size=E_CROSS, replace=False)
    cross = np.column_stack([cross_keys // N_ANTI, N_PRO + cross_keys % N_ANTI])
    edges = np.concatenate([pro, anti, cross])
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    labels = 1_000_000 + rng.permutation(N_NODES).astype(np.int64)
    is_pro = np.arange(N_NODES) < N_PRO
    return labels[edges], labels, is_pro


def write_standin(seed: int, edge_path: Path, attr_path: Path) -> None:
    """Write the stand-in in the load format: edges, then node opinions."""
    edges, labels, is_pro = standin_2020(seed)
    edge_path.parent.mkdir(parents=True, exist_ok=True)
    rows = "\n".join(f"{u},{v}" for u, v in edges.tolist())
    edge_path.write_text("src,dst\n" + rows + "\n", encoding="utf-8")
    order = np.random.Generator(np.random.PCG64(seed)).permutation(N_NODES)
    names = np.where(is_pro, "pro", "anti")
    rows = "\n".join(f"{labels[i]},{names[i]}" for i in order.tolist())
    attr_path.write_text("node,opinion\n" + rows + "\n", encoding="utf-8")


if __name__ == "__main__":
    # python3 bench/inputs.py SEED EDGES_CSV ATTRS_CSV
    write_standin(int(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]))
