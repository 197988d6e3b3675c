"""Correctness checks of the workload outputs, computed apart from polarnet.

Each check returns a list of failure messages (empty when the outputs are
right). Nothing here imports polarnet: metrics are recomputed from the input
files with numpy and scipy, and the ``compare`` outputs are checked against
properties the method must have.
"""

from __future__ import annotations

import json
import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy import sparse, stats

import workloads as wl

REL_TOL = 1e-9
# every CSV value is rounded to 6 decimals, so each carries up to 5e-7 error;
# the tolerances below add up these errors, plus 1e-12 for float arithmetic
ROUNDING = 5e-7
EPS = 1e-12


def read_graph(edge_path: Path, attr_path: Path):
    """(edges as dense-id pairs, pro flags) of an edge + attribute file pair."""
    raw = np.loadtxt(edge_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    rows = [line.split(",") for line in attr_path.read_text(encoding="utf-8").split()[1:]]
    nodes = np.array([int(r[0]) for r in rows], dtype=np.int64)
    pro_of = np.array([r[1].strip().lower() == "pro" for r in rows])
    labels, inverse = np.unique(np.concatenate([nodes, raw.ravel()]), return_inverse=True)
    pro = np.zeros(labels.size, dtype=bool)
    pro[inverse[: nodes.size]] = pro_of
    return inverse[nodes.size :].reshape(-1, 2), pro


def expected_metrics(n: int, edges: np.ndarray, pro: np.ndarray) -> dict[str, float]:
    """The ``polarnet metrics`` report of a simple graph, from its definitions."""
    e = edges.shape[0]
    adj = sparse.csr_matrix(
        (np.ones(2 * e), (np.r_[edges[:, 0], edges[:, 1]], np.r_[edges[:, 1], edges[:, 0]])),
        shape=(n, n),
    )
    deg = np.asarray(adj.sum(axis=1)).ravel()
    closed = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel()  # 2 * triangles
    pairs = deg * (deg - 1)
    cc = np.divide(closed, pairs, out=np.zeros(n), where=pairs > 0)

    ks, counts = np.unique(deg[deg >= 1].astype(np.int64), return_counts=True)
    fit = stats.linregress(np.log(ks), np.log(counts / n))

    a, b = pro[edges[:, 0]].astype(int), pro[edges[:, 1]].astype(int)
    mix = np.zeros((2, 2))
    np.add.at(mix, (a, b), 1.0)
    np.add.at(mix, (b, a), 1.0)
    mix /= 2 * e
    row = mix.sum(axis=1)
    single = math.isclose(float(row @ row), 1.0, abs_tol=1e-12)
    return {
        "density": e / (n * (n - 1) / 2),
        "mean_degree": 2 * e / n,
        "avg_clustering": float(cc.mean()),
        "power_law_gamma": -fit.slope,
        "power_law_kmin": 1.0,
        "power_law_r2": fit.rvalue**2,
        "assortativity": math.nan if single else (np.trace(mix) - row @ row) / (1 - row @ row),
        "cross_connection": math.nan if single else 2 * mix[1, 0] / (mix[0, 0] + mix[1, 1]),
    }


def _induced(edges: np.ndarray, keep: np.ndarray) -> tuple[int, np.ndarray]:
    remap = np.full(keep.size, -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    inside = keep[edges[:, 0]] & keep[edges[:, 1]]
    return int(keep.sum()), remap[edges[inside]]


def check_metrics(edge_path: Path, attr_path: Path, reports: dict[str, Path]) -> list[str]:
    """Compare each report (``whole``, ``pro``, ``anti``) with a recomputation."""
    edges, pro = read_graph(edge_path, attr_path)
    graphs = {
        "whole": (pro.size, edges, pro),
        "pro": (*_induced(edges, pro), np.ones(int(pro.sum()), dtype=bool)),
        "anti": (*_induced(edges, ~pro), np.zeros(int((~pro).sum()), dtype=bool)),
    }
    failures = []
    for name, path in reports.items():
        rows = (line.split(",") for line in path.read_text().split()[1:])
        got = {key: float(value) for key, value in rows}
        want = expected_metrics(*graphs[name])
        if set(got) != set(want):
            failures.append(f"metrics {name}: rows {sorted(got)} != {sorted(want)}")
            continue
        for key, value in want.items():
            same_nan = math.isnan(value) and math.isnan(got[key])
            if not same_nan and not math.isclose(got[key], value, rel_tol=REL_TOL, abs_tol=1e-15):
                failures.append(f"metrics {name}: {key} = {got[key]!r}, recomputed {value!r}")
    return failures


def _curves(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_compare(out: Path, n: int, n_pro: int, seed_count: int, n_runs: int) -> list[str]:
    """Method properties of one ``polarnet compare`` output directory."""
    failures = []
    summary = {}
    for line in (out / "summary.csv").read_text().split()[1:]:
        scenario, subpop, ar, _ = line.split(",")
        summary[scenario, subpop] = float(ar)
    sizes = {"unvaccinated": n - n_pro, "vaccinated": n_pro, "all": n}
    for scenario in ("polarized", "homogeneous"):
        c = _curves(out / f"curves_{scenario}.csv")
        days = c.shape[0]
        if not np.array_equal(c[:, 0], np.arange(days)):
            failures.append(f"{scenario}: day column is not 0..{days - 1}")
        if abs(c[0, 3] - seed_count / n) > ROUNDING + EPS:
            failures.append(f"{scenario}: day-0 new_all {c[0, 3]} != {seed_count}/{n}")
        drift = np.abs(np.cumsum(c[:, 1:4], axis=0) - c[:, 4:7]).max()
        if drift > ROUNDING * (days + 1) + EPS:
            failures.append(f"{scenario}: cum columns drift {drift:.2e} from running sums")
        # equal doses: n_vacc is the pro count under both allocations
        counts = n * c[:, 3] - sizes["unvaccinated"] * c[:, 1] - sizes["vaccinated"] * c[:, 2]
        if np.abs(counts).max() > 2 * n * ROUNDING + EPS:
            failures.append(f"{scenario}: n*new_all != n_unvacc*new_unvacc + n_vacc*new_vacc")
        for col, subpop in zip((4, 5, 6), ("unvaccinated", "vaccinated", "all")):
            ar = summary.get((scenario, subpop), math.nan)
            if not 0.0 <= ar <= 1.0:
                failures.append(f"{scenario}/{subpop}: attack rate {ar} outside [0, 1]")
            if abs(c[-1, col] - ar) > 2 * ROUNDING + EPS:
                failures.append(f"{scenario}/{subpop}: last cum {c[-1, col]} != summary {ar}")
    if not summary["polarized", "unvaccinated"] > summary["homogeneous", "unvaccinated"]:
        failures.append("polarized unvaccinated AR does not exceed homogeneous")
    if summary["polarized", "vaccinated"] > summary["homogeneous", "vaccinated"]:
        failures.append("polarized vaccinated AR exceeds homogeneous")
    for subpop in sizes:
        root = ET.parse(out / f"curves_{subpop}.svg").getroot()
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        if len(lines) != 2 * n_runs:
            failures.append(f"curves_{subpop}.svg: {len(lines)} polylines, want {2 * n_runs}")
    return failures


def check_generated(kind: str, params: dict, edge_path: Path, attr_path: Path) -> list[str]:
    """Simple-graph and edge-count properties of one ``polarnet generate`` output."""
    failures = []
    e = np.loadtxt(edge_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    rows = [line.split(",") for line in attr_path.read_text(encoding="utf-8").split()[1:]]
    nodes = np.array([int(r[0]) for r in rows])
    n = params.get("n") or params["n_pro"] + params["n_anti"]
    if not np.array_equal(np.sort(nodes), np.arange(n)):
        failures.append(f"{kind}: attribute file does not list nodes 0..{n - 1}")
    if np.any(e[:, 0] == e[:, 1]):
        failures.append(f"{kind}: self-loop written")
    keys = np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])
    if np.unique(keys).size != keys.size:
        failures.append(f"{kind}: duplicate edge written")
    count = e.shape[0]
    if kind == "ba":
        m = params["m"]
        exact = m * (m - 1) // 2 + m * (n - m)
    elif kind == "ws":
        exact = n * params["k_ring"] // 2
    else:
        exact = None
    if exact is not None and count != exact:
        failures.append(f"{kind}: {count} edges, want exactly {exact}")
    if kind == "er":
        blocks = [(n * (n - 1) // 2, params["p"])]
    elif kind == "two-community":
        a, b = params["n_pro"], params["n_anti"]
        blocks = [(a * (a - 1) // 2, params["p_in"]), (b * (b - 1) // 2, params["p_in"]),
                  (a * b, params["p_out"])]
        pro = {int(r[0]) for r in rows if r[1].strip() == "pro"}
        if pro != set(range(a)):
            failures.append(f"{kind}: pro nodes are not the first {a}")
    else:
        blocks = []
    if blocks:
        mean = sum(t * p for t, p in blocks)
        sd = math.sqrt(sum(t * p * (1 - p) for t, p in blocks))
        if abs(count - mean) > 5 * sd:
            failures.append(f"{kind}: {count} edges, binomial mean {mean:.0f} +- 5*{sd:.0f}")
    return failures


def check(name: str, work: Path, out: Path) -> list[str]:
    """Every check of workload ``name`` on the outputs of one round in ``out``."""
    if name == "screening-4k":
        n_pro, n_anti = wl.SCREENING_NODES
        return check_compare(out, n_pro + n_anti, n_pro, wl.SEED_COUNT, wl.SCREENING_RUNS)
    if name == "compare-113k":
        return check_compare(out, wl.N_NODES, wl.N_PRO, wl.SEED_COUNT, wl.STANDIN_RUNS)
    if name == "metrics-113k":
        reports = {sub: out / f"{sub}.csv" for sub in wl.SUBGRAPHS}
        return check_metrics(*wl.standin_files(work), reports)
    return [
        failure
        for kind, params in wl.GENERATE.items()
        for failure in check_generated(
            kind, params, out / f"{kind}_edges.csv", out / f"{kind}_attrs.csv"
        )
    ]


if __name__ == "__main__":
    # python3 bench/checks.py WORKLOAD WORK_DIR OUT_DIR -> JSON list of failures
    print(json.dumps(check(sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]))))
