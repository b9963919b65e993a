"""Command line front end.

Exit codes: 0 for success or a confirmed positive verdict, 1 for a negative
verdict (no map, no edge, a failed fixture), 2 for an undecided verdict
(budget exhausted), also when a full graph or table build leaves a pair
undecided, 3 and up for usage, input or file-system errors, and for a worker
process that dies during a threaded build.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .arrows import (SCHEMA_VERSION, dual_condition, enumerate_arrow_maps,
                     oriented_pair)
from .assembly import (TABLE_HEADER, EdgeCache, PipelineDepth, build_tgraph,
                       count_table, graph_to_csv, graph_to_dot, graph_to_json,
                       table_to_csv)
from .cells import edge_ideal
from .edges import EdgeStatus, decide_edge
from .groebner import DEFAULT_BUDGET, _check_char
from .monomial import (Grading, enumerate_ideals, format_ideal,
                       format_monomial, minimal_box, parse_ideal)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

_GRAPH_FORMATS = {"json": graph_to_json, "dot": graph_to_dot,
                  "csv": graph_to_csv}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _int_option(check):
    """An argparse type: an int that `check` accepts (it raises ValueError)."""
    def parse(text):
        try:
            check(value := int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _at_least_one(value):
    if value < 1:
        raise ValueError("must be at least 1")


def _options(*parents):
    return argparse.ArgumentParser(add_help=False, parents=parents)


def build_parser():
    count = _int_option(_at_least_one)
    output = _options()
    output.add_argument("--output", help="write the main result to this path")
    printed = _options(output)
    printed.add_argument("--json", action="store_true",
                         help="machine readable output on stdout")
    pair = _options()
    pair.add_argument("M")
    pair.add_argument("N")
    pair.add_argument("--alpha", type=int, required=True)
    pair.add_argument("--beta", type=int, required=True)
    budget = _options()
    budget.add_argument("--budget", type=count, default=DEFAULT_BUDGET,
                        help="S-pair ceiling for the exact solver")
    cached = _options()
    cached.add_argument("--cache-dir", help="edge-record cache directory "
                        "(or set TGRAPH_CACHE_DIR)")
    cached.add_argument("--depth", default="full",
                        choices=sorted(depth.value for depth in PipelineDepth))

    parser = _Parser(prog="tgraph", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"tgraph {__version__} (schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideals", parents=[printed],
                       help="list the fixed points for colength d")
    p.add_argument("d", type=int)

    p = sub.add_parser("arrowmap", parents=[printed, pair])
    p.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    p.add_argument("--limit", type=count)

    p = sub.add_parser("dual", parents=[printed, pair])
    p.add_argument("--r1", type=int)
    p.add_argument("--r2", type=int)

    sub.add_parser("edge-ideal", parents=[printed, pair],
                   help="print the edge equations")

    p = sub.add_parser("edge", parents=[printed, pair, budget],
                       help="decide one pair and grading")
    p.add_argument("--char", type=_int_option(_check_char), default=0,
                   help="prime characteristic pre-screen (0 = exact)")
    p.add_argument("--dimension", action="store_true")

    p = sub.add_parser("tgraph", parents=[output, budget, cached],
                       help="build the graph for colength d")
    p.add_argument("d", type=int)
    p.add_argument("--threads", type=count, default=1,
                   help="parallel workers for full graph builds")
    p.add_argument("--format", choices=_GRAPH_FORMATS, default="json")
    p.add_argument("--dimension", action="store_true")

    p = sub.add_parser("table", parents=[printed, budget, cached],
                       help="summary counts for a colength range")
    p.add_argument("dmin", type=int)
    p.add_argument("dmax", type=int)

    sub.add_parser("verify-fixtures", help="replay the packaged golden runs")
    return parser


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(args, payload, text):
    """The command's one output: its JSON document under --json, else its
    text, so every verdict prints a document under --json."""
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(args, text)


def _parse_pair(args):
    M = parse_ideal(args.M)
    N = parse_ideal(args.N)
    return M, N, Grading(args.alpha, args.beta)


def _cache(args):
    """The edge cache of a full build; below full depth nothing reads one,
    so none is opened and its directory is left as it is."""
    if PipelineDepth(args.depth) is not PipelineDepth.FULL:
        return None
    path = args.cache_dir or os.environ.get("TGRAPH_CACHE_DIR")
    return EdgeCache(path) if path else None


def cmd_ideals(args):
    ideals = enumerate_ideals(args.d)
    payload = {
        "schema": f"tgraph.ideals/{SCHEMA_VERSION}",
        "d": args.d,
        "ideals": [
            {"index": i + 1,
             "partition": M.rows,
             "ideal": format_ideal(M)}
            for i, M in enumerate(ideals)
        ],
    }
    lines = [f"{i + 1}: {'+'.join(map(str, M.rows))}: "
             f"{format_ideal(M)}" for i, M in enumerate(ideals)]
    _write(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_arrowmap(args):
    if args.limit is not None and not args.enumerate_all:
        raise ValueError("--limit needs --enumerate")
    pair = oriented_pair(*_parse_pair(args))
    if pair is None:
        maps, lines = [], ["no arrow map: the pair is not comparable"]
    else:
        maps = enumerate_arrow_maps(pair,
                                    args.limit if args.enumerate_all else 1)
        lines = []
        for k, f in enumerate(maps, start=1):
            moved = ", ".join(
                f"{format_monomial(m)} -> {format_monomial(v)}"
                for m, v in f.moved_pairs()) or "identity"
            lines.append(f"map {k}: {moved}")
        if not maps:
            lines.append("no arrow map")
    payload = {
        "schema": f"tgraph.arrow-maps/{SCHEMA_VERSION}",
        "count": len(maps),
        "maps": [f.to_json() for f in maps],
    }
    _write(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK if maps else EXIT_NEGATIVE


def cmd_dual(args):
    box = None
    if args.r1 is not None or args.r2 is not None:
        if args.r1 is None or args.r2 is None:
            raise ValueError("give both --r1 and --r2 or neither")
        box = (args.r1, args.r2)
    M, N, g = _parse_pair(args)
    pair = oriented_pair(M, N, g)
    if pair is None:
        witness, used = None, box or minimal_box(M, N)
        text = "no dual arrow map: the pair is not comparable\n"
    else:
        witness, used = dual_condition(pair, box=box)
        verdict = "exists" if witness else "does not exist"
        text = (f"dual arrow map (box x^{used[0]}, y^{used[1]}): "
                f"{verdict}\n")
    payload = {
        "schema": f"tgraph.dual/{SCHEMA_VERSION}",
        "box": list(used),
        "exists": witness is not None,
        "map": witness.to_json() if witness else None,
    }
    _write(args, payload, text)
    return EXIT_OK if witness else EXIT_NEGATIVE


def cmd_edge_ideal(args):
    M, N, g = _parse_pair(args)
    pair = oriented_pair(M, N, g)
    if pair is None:
        variables, generators = [], []
        lines = ["the pair is not comparable for this grading"]
    else:
        ideal = edge_ideal(pair)
        M, N = ideal.M, ideal.N
        variables = [v.label() for v in ideal.ring.vars]
        generators = [(format_monomial(n), format_monomial(s), str(p))
                      for n, s, p in ideal.generators]
        lines = [f"pair: {format_ideal(M)} over {format_ideal(N)}",
                 f"variables: {', '.join(variables)}"]
        lines += [f"F[{n}; {s}] = {p}" for n, s, p in generators]
    payload = {
        "schema": f"tgraph.edge-ideal/{SCHEMA_VERSION}",
        "pair": [format_ideal(M), format_ideal(N)],
        "grading": {"alpha": g.alpha, "beta": g.beta},
        "variables": variables,
        "generators": [{"n": n, "s": s, "poly": p}
                       for n, s, p in generators],
    }
    _write(args, payload, "\n".join(lines) + "\n")
    return EXIT_NEGATIVE if pair is None else EXIT_OK


def cmd_edge(args):
    M, N, g = _parse_pair(args)
    record = decide_edge(M, N, g, budget=args.budget,
                         with_dimension=args.dimension, char=args.char)
    dim = "" if record.dimension is None else f", dimension {record.dimension}"
    _write(args, record.to_json(), f"{record.status.value}{dim}\n")
    return {EdgeStatus.EDGE: EXIT_OK, EdgeStatus.NO_EDGE: EXIT_NEGATIVE,
            EdgeStatus.UNKNOWN: EXIT_UNKNOWN}[record.status]


def cmd_tgraph(args):
    graph = build_tgraph(args.d, PipelineDepth(args.depth),
                         budget=args.budget, with_dimension=args.dimension,
                         cache=_cache(args), threads=args.threads)
    _emit(args, _GRAPH_FORMATS[args.format](graph))
    return EXIT_UNKNOWN if graph.undecided_pairs() else EXIT_OK


def cmd_table(args):
    rows = count_table(args.dmin, args.dmax, PipelineDepth(args.depth),
                       budget=args.budget, cache=_cache(args))
    payload = {
        "schema": f"tgraph.table/{SCHEMA_VERSION}",
        "depth": args.depth,
        "rows": [{**dict(zip(TABLE_HEADER, r)), "unknown": r.unknown}
                 for r in rows],
    }
    _write(args, payload, table_to_csv(rows))
    return EXIT_UNKNOWN if any(r.unknown for r in rows) else EXIT_OK


def cmd_verify_fixtures(args):
    from .fixtures import run_all

    return EXIT_NEGATIVE if run_all(print) else EXIT_OK


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
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"tgraph: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
