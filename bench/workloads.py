"""The four workloads: their sizes, seeds and ``polarnet`` commands.

This module imports no numpy. The process that starts and times the
commands imports only it, so that process stays small: a child begins on its
parent's address space before it execs, and Linux counts that memory in the
child's ``ru_maxrss``, so a large parent would hide the children's peaks.
"""

from __future__ import annotations

from pathlib import Path

# the 113k-node stand-in for the 2020 network (criterion 3's 2020 row)
N_NODES = 113_038
N_ANTI = round(0.29 * N_NODES)  # 32,781
N_PRO = N_NODES - N_ANTI  # 80,257
E_PRO = 128_822  # 0.00004 * N_PRO * (N_PRO - 1) / 2
E_ANTI = 85_963  # 0.00016 * N_ANTI * (N_ANTI - 1) / 2
E_CROSS = 8_314  # the rest of the row's 223,099 edges

SCREENING_NODES = (2000, 2000)  # pro, anti
SCREENING_RUNS = 100  # per allocation
STANDIN_RUNS = 20  # per allocation
SEED_COUNT = 10
COMPARE_THREADS = {"screening-4k": 1, "compare-113k": 2}
SUBGRAPHS = {"whole": [], "pro": ["--subgraph", "pro"], "anti": ["--subgraph", "anti"]}
GENERATE = {
    "er": {"n": N_NODES, "p": 0.0000354},
    "ws": {"n": N_NODES, "k_ring": 4, "p_rewire": 0.1},
    "ba": {"n": N_NODES, "m": 2},
    "two-community": {"n_pro": N_PRO, "n_anti": N_ANTI, "p_in": 0.00006, "p_out": 0.0000002},
}
NAMES = ("screening-4k", "compare-113k", "metrics-113k", "generate-113k")


def uses_standin(name: str) -> bool:
    return name in ("compare-113k", "metrics-113k")


def standin_files(work: Path) -> tuple[Path, Path]:
    return work / "standin" / "edges.csv", work / "standin" / "attrs.csv"


def write_config(name: str, seed: int, work: Path) -> Path:
    """Write the ``compare`` config of a workload; seed 0 of ``screening-4k``
    is the criterion-6 config (graph seed 2022, master seed 7)."""
    path = work / f"{name}.cfg"
    if name == "screening-4k":
        n_pro, n_anti = SCREENING_NODES
        text = (
            f"generator=two-community\nn_pro={n_pro}\nn_anti={n_anti}\n"
            f"p_in=0.004\np_out=0.00004\ngraph_seed={2022 + seed}\n"
            f"master_seed={7 + seed}\nn_runs={SCREENING_RUNS}\n"
        )
    else:
        edges, attrs = standin_files(work)
        text = f"edges={edges}\nattrs={attrs}\nmaster_seed={seed}\nn_runs={STANDIN_RUNS}\n"
    path.write_text(text + f"seed_count={SEED_COUNT}\n", encoding="utf-8")
    return path


def commands(name: str, seed: int, work: Path, out: Path) -> list[list[str]]:
    """The ``polarnet`` argument lists of one round writing into ``out``."""
    if name in COMPARE_THREADS:
        cfg = work / f"{name}.cfg"
        return [["compare", "--config", str(cfg), "--out", str(out),
                 "--threads", str(COMPARE_THREADS[name])]]
    if name == "metrics-113k":
        edges, attrs = standin_files(work)
        return [
            ["metrics", "--edges", str(edges), "--attrs", str(attrs), *flags,
             "--out", str(out / f"{sub}.csv")]
            for sub, flags in SUBGRAPHS.items()
        ]
    return [
        ["generate", "--kind", kind, "--seed", str(seed),
         *[a for key, value in params.items() for a in (f"--{key.replace('_', '-')}", str(value))],
         "--out-edges", str(out / f"{kind}_edges.csv"), "--out-attrs", str(out / f"{kind}_attrs.csv")]
        for kind, params in GENERATE.items()
    ]
