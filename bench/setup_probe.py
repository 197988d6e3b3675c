"""Set-up part of one ``polarnet`` command, for the ``setup_s`` metric.

Run as ``python3 bench/setup_probe.py polarnet-args...`` with the arguments
of a workload command. It imports ``polarnet.cli``, parses the arguments with
the CLI's own parser, reads the config and acquires the graph the command
would work on (``resolve_graph``, ``load_edge_list`` or the generator), then
exits without doing the command's work or writing anything.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    from polarnet import GeneratorSpec, load_edge_list, parse_config
    from polarnet.cli import build_parser

    args = build_parser().parse_args(argv)
    if args.command == "generate":
        GeneratorSpec(
            kind=args.kind, seed=args.seed, n=args.n, p=args.p, k_ring=args.k_ring,
            p_rewire=args.p_rewire, m=args.m, n_pro=args.n_pro, n_anti=args.n_anti,
            p_in=args.p_in, p_out=args.p_out,
        ).build()
    elif args.command == "metrics":
        load_edge_list(args.edges, args.attrs)
    else:
        parse_config(args.config).resolve_graph()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
