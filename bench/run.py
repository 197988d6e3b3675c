"""Benchmark of the ``polarnet`` CLI on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It works in the checkout that holds it. Each workload command runs in a
fresh process, as users run it: ``polarnet.cli:main``, the console-script
entry point, with ``src`` on ``PYTHONPATH``. The inputs are drawn from
``--seed`` into ``.bench_work/`` before the timed region. Whole rounds of the
workload's commands repeat until ``--seconds`` have passed, and every figure
is the median over the rounds.

``--trace 0`` runs each round untraced, then the set-up of each command in
its own process (``bench/setup_probe.py``). It reports ``wall_s``,
``setup_s``, ``cpu_s`` and ``peak_rss_mb``. ``--trace 1`` runs each round
untraced, then under ``bench/tracer.py``, and reports the per-layer metrics.
Every run checks the outputs of its first round with ``bench/checks.py``, and
that every later round, traced or not, wrote the same bytes. The last line of
standard output is one JSON object.

This process imports no numpy, and it runs input drawing and checks in
child processes, so that it stays small (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ENTRY = "import sys; from polarnet.cli import main; sys.exit(main())"
MIN_ROUNDS = 2  # so that set-up, timed once per round, is timed several times

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "config.resolve_graph_s": "s",
    **{f"generators.{g}_s": "s" for g in tracer.GENERATORS},
    "generators.edges": "count",
    "graph.load_s": "s",
    "graph.load_rss_mb": "MB",
    "graph.build_s": "s",
    "graph.validate_s": "s",
    "graph.subgraph_s": "s",
    "graph.save_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "metrics.report_s": "s",
    "metrics.clustering_s": "s",
    "metrics.mixing_s": "s",
    "metrics.power_law_s": "s",
    "epidemic.run_s": "s",
    "epidemic.run_ms_p50": "ms",
    "epidemic.run_ms_p90": "ms",
    "epidemic.step_day_us": "us",
    "epidemic.runs": "count",
    "epidemic.days": "count",
    "epidemic.infections": "count",
    "experiment.ensemble_s": "s",
    "experiment.runs_per_s": "1/s",
    "experiment.ensemble_self_s": "s",
    "output.svg_s": "s",
    "output.csv_s": "s",
    "output.bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "bench.trace_overhead_s": "s",
}


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


def run_process(args: list[str], log: Path) -> Proc:
    """Run ``python3 args...`` to its end; its wall time and own rusage (``wait4``).

    OpenBLAS is held to one thread, so the only threads a workload starts
    are the ones ``--threads`` asks for.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, *args]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        print(f"exit {proc.returncode}: {' '.join(argv)}\n{tail}", file=sys.stderr)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode == 0)


def run_round(commands: list[list[str]], prefix: list[str], out: Path) -> list[Proc]:
    out.mkdir(parents=True, exist_ok=True)
    return [run_process([*prefix, *cmd], out / f"log{i}.txt") for i, cmd in enumerate(commands)]


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every output file of a round directory (logs and spans excluded)."""
    sums = {}
    for path in sorted(out.iterdir()):
        if path.is_file() and not path.name.startswith(("log", "spans")):
            with open(path, "rb") as fh:
                sums[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return sums


def check(name: str, out: Path) -> list[str]:
    """The workload's correctness checks, run in a child process."""
    log = WORK / "check.json"
    if not run_process([str(BENCH / "checks.py"), name, str(WORK), str(out)], log).ok:
        return ["the checks did not run to their end"]
    return json.loads(log.read_text().splitlines()[-1])


@dataclass
class Round:
    plain: list[Proc]  # the workload's commands, untraced
    other: list[Proc]  # their set-up probes, or the same commands traced
    traces: list[dict]  # span files of the traced commands


def measure(name: str, seed: int, seconds: float, traced: bool):
    """Whole rounds until ``seconds`` have passed, and at least ``MIN_ROUNDS``.

    Returns the rounds, the check failures, and the processes attempted and
    failed. Round 0 is checked; every later output must match its bytes.
    """
    rounds: list[Round] = []
    failures: list[str] = []
    reference = None
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        k = len(rounds)
        out = WORK / f"round-{k}"
        commands = wl.commands(name, seed, WORK, out)
        plain = run_round(commands, ["-c", ENTRY], out)
        other_dir = WORK / f"{'traced' if traced else 'setup'}-{k}"
        traces = []
        if traced:
            commands = wl.commands(name, seed, WORK, other_dir)
            spans = [other_dir / f"spans{i}.json" for i in range(len(commands))]
            other = run_round(
                [[str(s), *cmd] for s, cmd in zip(spans, commands)],
                [str(BENCH / "tracer.py")],
                other_dir,
            )
            traces = [json.loads(s.read_text()) for s in spans if s.exists()]
        else:
            other = run_round(commands, [str(BENCH / "setup_probe.py")], other_dir)
        for directory in (out, other_dir) if traced else (out,):
            got = digest(directory)
            if reference is None:
                reference = got
                failures += check(name, directory)
            elif got != reference:
                failures.append(f"{directory.name}: outputs differ from round 0")
        shutil.rmtree(out)
        shutil.rmtree(other_dir)
        rounds.append(Round(plain, other, traces))
    procs = [p for r in rounds for p in r.plain + r.other]
    return rounds, failures, len(procs), sum(not p.ok for p in procs)


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(sum(p.wall_s for p in r.plain) for r in rounds),
        "setup_s": med(sum(p.wall_s for p in r.other) for r in rounds),
        "cpu_s": med(sum(p.cpu_s for p in r.plain) for r in rounds),
        "peak_rss_mb": med(max(p.rss_mb for p in r.plain) for r in rounds),
    }


def per_layer(rounds: list[Round]) -> dict[str, float]:
    layers = [tracer.layer_metrics(r.traces) for r in rounds]
    out = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    out["bench.trace_overhead_s"] = statistics.median(
        sum(p.wall_s for p in r.other) - sum(p.wall_s for p in r.plain) for r in rounds
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polarnet" / "cli.py").is_file():
        print(f"no polarnet sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    if wl.uses_standin(args.workload):
        prep = [str(BENCH / "inputs.py"), str(args.seed), *map(str, wl.standin_files(WORK))]
        if not run_process(prep, WORK / "inputs.log").ok:
            return 2
    if args.workload in wl.COMPARE_THREADS:
        wl.write_config(args.workload, args.seed, WORK)

    rounds, failures, attempted, failed = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if not args.trace:
        values, units = end_to_end(rounds), END_TO_END
    elif all(len(r.traces) == len(r.plain) for r in rounds):
        values, units = per_layer(rounds), PER_LAYER
        for missing in sorted({m for r in rounds for t in r.traces for m in t["missing"]}):
            print(f"note: {missing} not found, so the metrics it feeds read 0", file=sys.stderr)
    else:
        failures.append("a traced command wrote no spans")
        values, units = dict.fromkeys(PER_LAYER, 0.0), PER_LAYER
    shutil.rmtree(WORK, ignore_errors=True)

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} processes attempted, {failed} failed")
    for key, unit in units.items():
        print(f"  {key:30s} {values[key]:16.6f} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
