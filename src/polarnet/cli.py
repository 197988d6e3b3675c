"""Command-line interface: ``metrics``, ``generate``, ``simulate``, ``compare``.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 for data
or validation errors, i/o errors and running out of memory.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import fields
from pathlib import Path

from .config import STRATEGIES, RunConfig, parse_config, scalar_fields
from .errors import ConfigError, PolarnetError
from .experiment import SUBPOPS, compare_scenarios, run_ensemble
from .generators import GENERATOR_KINDS, GeneratorSpec
from .graph import Opinion, load_edge_list, save_edge_array
from .metrics import metrics_report
from .output import CurveGroup, emit_svg_plot, write_curves_csv, write_metrics_csv, write_summary_csv

_COLORS = {"polarized": "#c62828", "homogeneous": "#757575"}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--edges", help="edge CSV (overrides config)")
    sub.add_argument("--attrs", help="attribute CSV (overrides config)")
    sub.add_argument("--seed", type=int, help="master seed (overrides config)")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument("--threads", type=int, help="worker threads, 0 = auto")


def _load_run_config(args) -> RunConfig:
    flags = {"edges": args.edges, "attrs": args.attrs, "master_seed": args.seed,
             "out_dir": args.out, "threads": args.threads}
    flags = {key: value for key, value in flags.items() if value is not None}
    cfg = parse_config(args.config, **flags) if args.config else RunConfig(**flags)
    cfg.require_graph()
    return cfg


def _refuse_overwrite(outputs: dict, inputs: dict, make_dir: bool = False) -> None:
    """Raise a ConfigError if an output resolves to an input (None: unset) or
    to another output, so no command writes over a file it reads or wrote;
    then, before any work, the OSError that writing an output would raise:
    its folder must be a directory, or with ``make_dir`` absent below one."""
    paths = [(name, Path(path).resolve()) for name, path in {**outputs, **inputs}.items() if path is not None]
    for i, (name, path) in enumerate(paths[: len(outputs)]):
        for other, other_path in paths[i + 1 :]:
            if path == other_path:
                raise ConfigError(f"{name} and {other} name the same file: {path}")
    for path in (Path(path) for path in outputs.values() if path is not None):
        folder = path.parent
        try:  # a folder that is missing or below a file fails stat with the errno a write into it would
            os.stat(folder)
            code = 0 if folder.is_dir() else errno.EEXIST if make_dir else errno.ENOTDIR
        except OSError as exc:  # mkdir(parents=True) makes a missing folder below a directory
            code = 0 if make_dir and exc.errno == errno.ENOENT else exc.errno
        if code:
            raise OSError(code, os.strerror(code), str(folder if make_dir else path))


def _run_outputs(cfg: RunConfig, args, *names: str) -> dict[str, Path]:
    """The path of each output file name in ``cfg.out_dir``, none of them an
    input, in a directory that exists or can be made."""
    out = {name: Path(cfg.out_dir) / name for name in names}
    _refuse_overwrite({str(path): path for path in out.values()},
                      {"edges": cfg.edges, "attrs": cfg.attrs, "--config": args.config}, make_dir=True)
    return out


def cmd_metrics(args) -> int:
    if args.kmin < 1:
        raise ConfigError("--kmin must be >= 1")
    _refuse_overwrite({"--out": args.out}, {"--edges": args.edges, "--attrs": args.attrs})
    g = load_edge_list(args.edges, args.attrs, Opinion.parse(args.subgraph) if args.subgraph else None)
    report = metrics_report(g, k_min=args.kmin)
    write_metrics_csv(report, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_generate(args) -> int:
    spec = GeneratorSpec(**{f.name: getattr(args, f.name) for f in fields(GeneratorSpec)})
    _refuse_overwrite({"--out-edges": args.out_edges, "--out-attrs": args.out_attrs}, {})
    # the edge array goes to the writer as its only reference, so it can free it
    n, *pairs, opinions = spec.edges()
    edge_count = save_edge_array(n, pairs.pop(), args.out_edges, args.out_attrs, opinions)
    print(f"wrote {args.out_edges} ({n} nodes, {edge_count} edges) and {args.out_attrs}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    curves = _run_outputs(cfg, args, "curves.csv")["curves.csv"]
    g = cfg.resolve_graph()
    summary = run_ensemble(g, cfg)
    curves.parent.mkdir(parents=True, exist_ok=True)
    write_curves_csv(summary, curves)
    print(f"wrote {curves}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_run_config(args)
    out_dir = Path(cfg.out_dir)
    out = _run_outputs(cfg, args, *(f"curves_{s}.csv" for s in STRATEGIES), "summary.csv",
                       *(f"curves_{s}.svg" for s in SUBPOPS))
    g = cfg.resolve_graph()
    comparison = compare_scenarios(g, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ens in comparison:
        write_curves_csv(ens, out[f"curves_{ens.allocation.strategy}.csv"])
    write_summary_csv(comparison, out["summary.csv"])
    for row, subpop in enumerate(SUBPOPS):
        groups = [CurveGroup(ens.allocation.strategy, _COLORS[ens.allocation.strategy], ens.series(row))
                  for ens in comparison]
        emit_svg_plot(groups, f"Daily new infections among {subpop}", out[f"curves_{subpop}.svg"])
    ratio = comparison.ar_ratio
    print(f"wrote {out_dir}/summary.csv (unvaccinated AR ratio {ratio['unvaccinated']:.3f}, "
          f"whole-population AR ratio {ratio['all']:.3f})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polarnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser("metrics", help="structural metrics of an annotated graph")
    p_metrics.add_argument("--edges", required=True)
    p_metrics.add_argument("--attrs", required=True)
    p_metrics.add_argument("--subgraph", choices=["pro", "anti"], help="restrict to one opinion community")
    p_metrics.add_argument("--kmin", type=int, default=1, help="smallest degree in the power-law fit")
    p_metrics.add_argument("--out", required=True, help="report CSV path")
    p_metrics.set_defaults(func=cmd_metrics)

    p_gen = sub.add_parser("generate", help="write a synthetic graph in the load format")
    p_gen.add_argument("--kind", required=True, choices=list(GENERATOR_KINDS))
    for name, kind in scalar_fields(GeneratorSpec, skip=("kind", "seed")):
        p_gen.add_argument(f"--{name.replace('_', '-')}", type=kind)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-edges", required=True)
    p_gen.add_argument("--out-attrs", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo ensemble for one allocation strategy")
    _add_run_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="polarized vs homogeneous allocation on one graph")
    _add_run_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1 via _Parser, --help exits 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PolarnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
