"""Traced in-process run of one ``polarnet`` command, and the layer metrics.

Run as ``python3 bench/tracer.py SPANS.json polarnet-args...``: it times
``import polarnet.cli``, wraps the public functions of each module under the
name their callers look them up by, runs ``polarnet.cli.main`` on the
arguments and writes the spans (name, start, end, parent) and counts to
``SPANS.json`` when the command ends. The spans stay in memory until then.

:func:`layer_metrics` turns the span files of one workload round into the
per-layer metrics. A layer's self time is its span minus the part of that
span its child spans cover. A function that no longer exists under a wrapped
name is skipped, and the metrics it feeds read 0.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import threading
import time

LAYERS = ("cli", "config", "graph", "generators", "metrics", "epidemic", "experiment", "output")

# (module, attribute, span name): each public function under the name its
# caller looks it up by. ``Class.method`` attributes are wrapped on the class.
WRAPPED = (
    ("polarnet.cli", "main", "cli.main"),
    ("polarnet.cli", "parse_config", "config.parse_config"),
    ("polarnet.config", "RunConfig.resolve_graph", "config.resolve_graph"),
    ("polarnet.cli", "load_edge_list", "graph.load_edge_list"),
    ("polarnet.config", "load_edge_list", "graph.load_edge_list"),
    ("polarnet.cli", "save_edge_list", "graph.save_edge_list"),
    ("polarnet.cli", "subgraph_by_opinion", "graph.subgraph_by_opinion"),
    ("polarnet.graph", "AnnotatedGraph.from_edge_array", "graph.from_edge_array"),
    ("polarnet.graph", "AnnotatedGraph.validate", "graph.validate"),
    ("polarnet.generators", "erdos_renyi", "generators.erdos_renyi"),
    ("polarnet.generators", "watts_strogatz", "generators.watts_strogatz"),
    ("polarnet.generators", "barabasi_albert", "generators.barabasi_albert"),
    ("polarnet.generators", "two_community", "generators.two_community"),
    ("polarnet.cli", "metrics_report", "metrics.metrics_report"),
    ("polarnet.metrics", "average_clustering", "metrics.average_clustering"),
    ("polarnet.metrics", "mixing_matrix", "metrics.mixing_matrix"),
    ("polarnet.metrics", "assortativity", "metrics.assortativity"),
    ("polarnet.metrics", "cross_connection_ratio", "metrics.cross_connection_ratio"),
    ("polarnet.metrics", "degree_distribution", "metrics.degree_distribution"),
    ("polarnet.metrics", "fit_power_law", "metrics.fit_power_law"),
    ("polarnet.cli", "compare_scenarios", "experiment.compare_scenarios"),
    ("polarnet.cli", "run_ensemble", "experiment.run_ensemble"),
    ("polarnet.experiment", "run_ensemble", "experiment.run_ensemble"),
    ("polarnet.experiment", "run_epidemic", "epidemic.run_epidemic"),
    ("polarnet.epidemic", "step_day", "epidemic.step_day"),
    ("polarnet.cli", "write_curves_csv", "output.write_curves_csv"),
    ("polarnet.cli", "write_summary_csv", "output.write_summary_csv"),
    ("polarnet.cli", "write_metrics_csv", "output.write_metrics_csv"),
    ("polarnet.cli", "emit_svg_plot", "output.emit_svg_plot"),
)

GENERATORS = ("two_community", "erdos_renyi", "watts_strogatz", "barabasi_albert")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Spans ``[name, start, end, parent]`` and per-span counts, in memory.

    A span's parent is the innermost open span of its thread. A worker
    thread's outermost span takes the main thread's innermost open span, the
    one that started the pool.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else -1
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.counts.append({})
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()


def _count(rec: Recorder, sid: int, name: str, args, kwargs, result, before_rss: float):
    """Counts recorded at the span's boundary, from its arguments and result."""
    counts = rec.counts[sid]
    if name == "graph.load_edge_list" or name.startswith("generators."):
        counts["nodes"] = int(result.n)
        counts["edges"] = int(result.edge_count)
    if name == "graph.load_edge_list":
        counts["rss_growth_mb"] = _peak_rss_mb() - before_rss
    elif name == "epidemic.run_epidemic":
        counts["infections"] = int(result.new_unvacc.sum() + result.new_vacc.sum())
    elif name.startswith("output."):
        path = kwargs.get("path", args[-1])
        counts["bytes"] = os.path.getsize(path)


def _wrap(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before_rss = _peak_rss_mb() if name == "graph.load_edge_list" else 0.0
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        _count(rec, sid, name, args, kwargs, result, before_rss)
        return result

    return traced


def install(rec: Recorder) -> list[str]:
    """Wrap every function of ``WRAPPED`` that exists; return those missing."""
    missing = []
    for module_name, attr, name in WRAPPED:
        owner = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if raw is None:
            missing.append(f"{module_name}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(_wrap(rec, raw.__func__, name)))
        else:
            setattr(owner, leaf, _wrap(rec, raw, name))
    return missing


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(sid, []), start, end)
        for sid, (_, start, end, _) in enumerate(spans)
    ]


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload round from its commands' traces."""
    span: dict[str, float] = {}  # summed duration per span name
    own: dict[str, float] = dict.fromkeys((f"{layer}.self_s" for layer in LAYERS), 0.0)
    counts: dict[str, float] = {}  # summed count per "layer:key"
    run_ms: list[float] = []
    step_s: list[float] = []
    load_rss = [0.0]
    ensemble_self_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        for (name, start, end, _), self_s, c in zip(spans, self_times(spans), trace["counts"]):
            layer = name.split(".")[0]
            span[name] = span.get(name, 0.0) + end - start
            own[f"{layer}.self_s"] += self_s
            if name == "experiment.run_ensemble":
                ensemble_self_s += self_s
            for key in ("nodes", "edges", "infections", "bytes"):
                counts[f"{layer}:{key}"] = counts.get(f"{layer}:{key}", 0.0) + c.get(key, 0)
            if name == "epidemic.run_epidemic":
                run_ms.append(1000.0 * (end - start))
            elif name == "epidemic.step_day":
                step_s.append(end - start)
            elif name == "graph.load_edge_list":
                load_rss.append(c["rss_growth_mb"])

    def total(*names: str) -> float:
        return sum(span.get(name, 0.0) for name in names)

    ensemble_s = total("experiment.run_ensemble")
    return {
        "cli.import_s": sum(trace["import_s"] for trace in traces),
        "config.resolve_graph_s": total("config.resolve_graph"),
        **{f"generators.{g}_s": total(f"generators.{g}") for g in GENERATORS},
        "generators.edges": counts.get("generators:edges", 0.0),
        "graph.load_s": total("graph.load_edge_list"),
        "graph.load_rss_mb": max(load_rss),
        "graph.build_s": total("graph.from_edge_array"),
        "graph.validate_s": total("graph.validate"),
        "graph.subgraph_s": total("graph.subgraph_by_opinion"),
        "graph.save_s": total("graph.save_edge_list"),
        "graph.nodes": counts.get("graph:nodes", 0.0) + counts.get("generators:nodes", 0.0),
        "graph.edges": counts.get("graph:edges", 0.0) + counts.get("generators:edges", 0.0),
        "metrics.report_s": total("metrics.metrics_report"),
        "metrics.clustering_s": total("metrics.average_clustering"),
        "metrics.mixing_s": total(
            "metrics.mixing_matrix", "metrics.assortativity", "metrics.cross_connection_ratio"
        ),
        "metrics.power_law_s": total("metrics.degree_distribution", "metrics.fit_power_law"),
        "epidemic.run_s": total("epidemic.run_epidemic"),
        "epidemic.run_ms_p50": _quantile(run_ms, 0.5),
        "epidemic.run_ms_p90": _quantile(run_ms, 0.9),
        "epidemic.step_day_us": 1e6 * sum(step_s) / len(step_s) if step_s else 0.0,
        "epidemic.runs": float(len(run_ms)),
        "epidemic.days": float(len(step_s)),
        "epidemic.infections": counts.get("epidemic:infections", 0.0),
        "experiment.ensemble_s": ensemble_s,
        "experiment.runs_per_s": len(run_ms) / ensemble_s if ensemble_s else 0.0,
        "experiment.ensemble_self_s": ensemble_self_s,
        "output.svg_s": total("output.emit_svg_plot"),
        "output.csv_s": total(
            "output.write_curves_csv", "output.write_summary_csv", "output.write_metrics_csv"
        ),
        "output.bytes": counts.get("output:bytes", 0.0),
        **own,
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import polarnet.cli

    import_s = time.perf_counter() - t0
    rec = Recorder()
    missing = install(rec)
    code = polarnet.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"import_s": import_s, "spans": rec.spans, "counts": rec.counts, "missing": missing},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
