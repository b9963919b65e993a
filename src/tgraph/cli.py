"""Command line front end.

Exit codes: 0 for success or a confirmed positive verdict, 1 for a negative
verdict (no map, no edge, a failed fixture), 2 for an undecided verdict
(budget exhausted), 3 and up for usage, input or file-system errors, and
for a pool worker that dies during a threaded build.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool

from . import __version__
from .arrows import (arrow_map_exists, dual_condition, enumerate_arrow_maps,
                     oriented_pair)
from .assembly import (SCHEMA_VERSION, EdgeCache, PipelineDepth, build_tgraph,
                       count_table, graph_to_csv, graph_to_dot, graph_to_json,
                       table_to_csv)
from .edges import EdgeStatus, decide_edge
from .groebner import DEFAULT_BUDGET
from .monomial import (Grading, enumerate_ideals, format_ideal,
                       format_monomial, parse_ideal)
from .poly import _check_char

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

_DEPTHS = sorted(depth.value for depth in PipelineDepth)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="tgraph", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"tgraph {__version__} (schema {SCHEMA_VERSION})")
    parser.add_argument("--json", action="store_true",
                        help="machine readable output on stdout")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="S-pair ceiling for the exact solver")
    parser.add_argument("--char", type=int, default=0,
                        help="prime characteristic pre-screen (0 = exact)")
    parser.add_argument("--cache-dir", default=None,
                        help="edge-record cache directory "
                             "(or set TGRAPH_CACHE_DIR)")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel workers for full graph builds")
    parser.add_argument("--output", default=None,
                        help="write the main result to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideals", help="list the fixed points for colength d")
    p.add_argument("d", type=int)

    for name in ("arrowmap", "dual"):
        p = sub.add_parser(name)
        p.add_argument("M")
        p.add_argument("N")
        p.add_argument("--alpha", type=int, required=True)
        p.add_argument("--beta", type=int, required=True)
        if name == "arrowmap":
            p.add_argument("--enumerate", action="store_true",
                           dest="enumerate_all")
            p.add_argument("--limit", type=int, default=None)
        else:
            p.add_argument("--r1", type=int, default=None)
            p.add_argument("--r2", type=int, default=None)

    p = sub.add_parser("edge-ideal", help="print the edge equations")
    p.add_argument("M")
    p.add_argument("N")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)

    p = sub.add_parser("edge", help="decide one pair and grading")
    p.add_argument("M")
    p.add_argument("N")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--dimension", action="store_true")

    p = sub.add_parser("tgraph", help="build the graph for colength d")
    p.add_argument("d", type=int)
    p.add_argument("--depth", choices=_DEPTHS, default="full")
    p.add_argument("--format", choices=("json", "dot", "csv"), default="json")
    p.add_argument("--dimension", action="store_true")

    p = sub.add_parser("table", help="summary counts for a colength range")
    p.add_argument("dmin", type=int)
    p.add_argument("dmax", type=int)
    p.add_argument("--depth", choices=_DEPTHS, default="full")

    sub.add_parser("verify-fixtures", help="replay the packaged golden runs")
    return parser


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_pair(args):
    M = parse_ideal(args.M)
    N = parse_ideal(args.N)
    return M, N, Grading(args.alpha, args.beta)


def _oriented_pair(args, incomparable):
    """(big, small, grading), or None after writing `incomparable`."""
    M, N, g = _parse_pair(args)
    oriented = oriented_pair(M, N, g)
    if oriented is None:
        _emit(args, incomparable + "\n")
        return None
    return (*oriented, g)


def _cache(args):
    import os

    path = args.cache_dir or os.environ.get("TGRAPH_CACHE_DIR")
    return EdgeCache(path) if path else None


def cmd_ideals(args):
    ideals = enumerate_ideals(args.d)
    if args.json:
        payload = {
            "schema": f"tgraph.ideals/{SCHEMA_VERSION}",
            "d": args.d,
            "ideals": [
                {"index": i + 1,
                 "partition": M.to_partition(),
                 "ideal": format_ideal(M)}
                for i, M in enumerate(ideals)
            ],
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"{i + 1}: {'+'.join(map(str, M.to_partition()))}: "
                 f"{format_ideal(M)}" for i, M in enumerate(ideals)]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_arrowmap(args):
    pair = _oriented_pair(args, "no arrow map: the pair is not comparable")
    if pair is None:
        return EXIT_NEGATIVE
    big, small, g = pair
    if args.enumerate_all:
        maps = enumerate_arrow_maps(big, small, g, limit=args.limit)
    else:
        witness = arrow_map_exists(big, small, g)
        maps = [witness] if witness else []
    if args.json:
        payload = {
            "schema": f"tgraph.arrow-maps/{SCHEMA_VERSION}",
            "count": len(maps),
            "maps": [f.to_json() for f in maps],
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = []
        for k, f in enumerate(maps, start=1):
            moved = ", ".join(
                f"{format_monomial(m)} -> {format_monomial(v)}"
                for m, v in f.moved_pairs()) or "identity"
            lines.append(f"map {k}: {moved}")
        if not maps:
            lines.append("no arrow map")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if maps else EXIT_NEGATIVE


def cmd_dual(args):
    pair = _oriented_pair(args,
                          "no dual arrow map: the pair is not comparable")
    if pair is None:
        return EXIT_NEGATIVE
    big, small, g = pair
    box = None
    if args.r1 is not None or args.r2 is not None:
        if args.r1 is None or args.r2 is None:
            raise ValueError("give both --r1 and --r2 or neither")
        box = (args.r1, args.r2)
    witness, used = dual_condition(big, small, g, box=box)
    if args.json:
        payload = {
            "schema": f"tgraph.dual/{SCHEMA_VERSION}",
            "box": list(used),
            "exists": witness is not None,
            "map": witness.to_json() if witness else None,
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        verdict = "exists" if witness else "does not exist"
        _emit(args, f"dual arrow map (box x^{used[0]}, y^{used[1]}): "
                    f"{verdict}\n")
    return EXIT_OK if witness else EXIT_NEGATIVE


def _edge_ideal_payload(ideal):
    return {
        "schema": f"tgraph.edge-ideal/{SCHEMA_VERSION}",
        "pair": [format_ideal(ideal.M), format_ideal(ideal.N)],
        "grading": {"alpha": ideal.grading.alpha, "beta": ideal.grading.beta},
        "variables": [v.label() for v in ideal.ring.vars],
        "generators": [
            {"n": format_monomial(n), "s": format_monomial(s), "poly": str(p)}
            for n, s, p in ideal.generators
        ],
    }


def cmd_edge_ideal(args):
    from .cells import edge_ideal

    pair = _oriented_pair(args, "the pair is not comparable for this grading")
    if pair is None:
        return EXIT_NEGATIVE
    big, small, g = pair
    ideal = edge_ideal(big, small, g)
    if args.json:
        _emit(args, json.dumps(_edge_ideal_payload(ideal), indent=2,
                               sort_keys=True) + "\n")
    else:
        lines = [f"pair: {format_ideal(big)} over {format_ideal(small)}",
                 f"variables: {', '.join(v.label() for v in ideal.ring.vars)}"]
        for n, s, p in ideal.generators:
            lines.append(
                f"F[{format_monomial(n)}; {format_monomial(s)}] = {p}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_edge(args):
    M, N, g = _parse_pair(args)
    record = decide_edge(M, N, g, budget=args.budget,
                         with_dimension=args.dimension, char=args.char)
    if args.json:
        _emit(args, json.dumps(record.to_json(), indent=2, sort_keys=True)
              + "\n")
    else:
        dim = "" if record.dimension is None else f", dimension {record.dimension}"
        _emit(args, f"{record.status.value}{dim}\n")
    return {EdgeStatus.EDGE: EXIT_OK, EdgeStatus.NO_EDGE: EXIT_NEGATIVE,
            EdgeStatus.UNKNOWN: EXIT_UNKNOWN}[record.status]


def cmd_tgraph(args):
    if args.char:
        raise ValueError("graph builds are exact; drop --char")
    graph = build_tgraph(args.d, PipelineDepth(args.depth),
                         budget=args.budget, with_dimension=args.dimension,
                         cache=_cache(args), threads=args.threads)
    if args.format == "json":
        _emit(args, graph_to_json(graph))
    elif args.format == "dot":
        _emit(args, graph_to_dot(graph))
    else:
        _emit(args, graph_to_csv(graph))
    return EXIT_OK


def cmd_table(args):
    if args.char:
        raise ValueError("tables are exact; drop --char")
    rows = count_table(args.dmin, args.dmax, PipelineDepth(args.depth),
                       budget=args.budget, cache=_cache(args))
    unknown = sum(row.unknown for row in rows)
    if args.json:
        payload = {
            "schema": f"tgraph.table/{SCHEMA_VERSION}",
            "depth": args.depth,
            "rows": [
                {"d": r.d, "ideals": r.ideals, "pairs": r.pairs,
                 "pairs_ordered": r.ordered, "pairs_arrowmap": r.arrowmap,
                 "pairs_dual_arrowmap": r.dual, "edges": r.edges,
                 "unknown": r.unknown}
                for r in rows
            ],
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit(args, table_to_csv(rows))
    return EXIT_UNKNOWN if unknown else EXIT_OK


def cmd_verify_fixtures(args):
    from .fixtures import run_all

    failures = run_all(print)
    return EXIT_NEGATIVE if failures else EXIT_OK


_COMMANDS = {
    "ideals": cmd_ideals,
    "arrowmap": cmd_arrowmap,
    "dual": cmd_dual,
    "edge-ideal": cmd_edge_ideal,
    "edge": cmd_edge,
    "tgraph": cmd_tgraph,
    "table": cmd_table,
    "verify-fixtures": cmd_verify_fixtures,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_char(args.char)
    except ValueError as exc:
        parser.error(f"--char: {exc}")
    if args.budget < 1:
        parser.error("--budget must be at least 1")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if getattr(args, "limit", None) is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, BrokenProcessPool) as exc:
        sys.stderr.write(f"tgraph: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
