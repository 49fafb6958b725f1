"""Command-line interface.

Exit codes: 0 success, 1 analysis precondition failure or failed check,
2 parse error or a file that cannot be opened, 3 guard or resource error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import _kernels
from .bench import format_bench, run_bench
from .checks import oracle_check
from .connectivity import (
    is_biconnected,
    is_strongly_biconnected,
    is_strongly_connected,
)
from .dot import export_dot
from .edgelist import emit_edge_list, parse_edge_list
from .errors import (
    EdgeListParseError,
    GenerationBudgetError,
    GuardError,
    NotStronglyBiconnectedError,
    NotStronglyConnectedError,
)
from .generate import gen_random_sb
from .graph import underlying
from .report import FAMILIES, _family, analyze, render_report
from .resilience import components_2esb, components_2vsb

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_PARSE = 2
EXIT_GUARD = 3

_BY_KIND = {f.kind: f for f in FAMILIES}
# The enumeration-based kinds: guarded, and not part of the report.
_GUARDED = {"2esb": components_2esb, "2vsb": components_2vsb}


class _PathError(Exception):
    """A file named on the command line could not be opened."""


def _open(path, mode, **kwargs):
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise _PathError(f"cannot open {path!r}: {exc.strerror}") from None


def _read_graph(path):
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    with _open(path, "rb") as handle:
        return parse_edge_list(handle)


def _emit(data, fmt, text_renderer):
    if fmt == "json":
        print(json.dumps(data, indent=2, separators=(",", ": ")))
    else:
        print(text_renderer(data), end="")


def _family_text(family):
    """One line per block; a skipped value prints its reason, and a flat
    vertex list (b_articulation_points) prints as one line."""
    if isinstance(family, dict):
        return f"skipped: {family['skipped']}\n"
    if not family:
        return "(empty)\n"
    if isinstance(family[0], int):
        family = [family]
    return "".join(" ".join(str(v) for v in block) + "\n" for block in family)


def cmd_check(args):
    g = _read_graph(args.file)
    data = {
        "n": g.n,
        "m": g.m,
        "strongly_connected": is_strongly_connected(g),
        "underlying_biconnected": is_biconnected(underlying(g)),
        "strongly_biconnected": is_strongly_biconnected(g),
    }
    _emit(
        data,
        args.format,
        lambda d: "".join(f"{k}: {v}\n" for k, v in d.items()),
    )
    return EXIT_OK


def cmd_analyze(args):
    g = _read_graph(args.file)
    report = analyze(g)
    if args.format == "json":
        print(render_report(report), end="")
    else:
        d = report.as_dict()
        print(f"n: {d['n']}\nm: {d['m']}")
        print(f"strongly_biconnected: {d['strongly_biconnected']}")
        for f in FAMILIES:
            print(f"[{f.key}]")
            print(_family_text(d[f.key]), end="")
    return EXIT_OK


def cmd_blocks(args):
    g = _read_graph(args.file)
    kind = args.kind
    if kind in _GUARDED:
        family = _family(_GUARDED[kind](g, guard=args.guard))
    else:
        family = _BY_KIND[kind].compute(g)
    field = "vertices" if kind == "bap" else "blocks"
    _emit({"kind": kind, field: family}, args.format,
          lambda d: _family_text(d[field]))
    return EXIT_OK


def cmd_oracle(args):
    if args.count:
        mismatches = 0
        first = None
        for i in range(args.count):
            n = args.nmin + i % (args.nmax - args.nmin + 1)
            g = gen_random_sb(n, args.p, args.seed + i)
            result = oracle_check(g, guard=args.guard)
            if not result.passed:
                mismatches += 1
                first = first or result
        if mismatches:
            print(f"FAIL: {mismatches}/{args.count} graphs mismatched")
            print(first.describe())
            return EXIT_PRECONDITION
        print(f"ok: {args.count} random graphs, fast paths agree with oracles")
        return EXIT_OK
    g = _read_graph(args.file)
    result = oracle_check(g, guard=args.guard)
    print(result.describe())
    return EXIT_OK if result.passed else EXIT_PRECONDITION


def cmd_gen(args):
    g = gen_random_sb(args.n, args.p, args.seed, max_tries=args.max_tries)
    text = emit_edge_list(
        g, comment=f"gen n={args.n} p={args.p} seed={args.seed}"
    )
    if args.output and args.output != "-":
        with _open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_bench(args):
    backends = None if args.backends == "all" else [args.backends]
    result = run_bench(
        sizes=args.sizes, seed=args.seed, backends=backends,
        repeat=args.repeat,
    )
    if args.format == "json":
        print(json.dumps(result, indent=2, separators=(",", ": ")))
    else:
        print(format_bench(result), end="")
    return EXIT_OK


def cmd_export_dot(args):
    g = _read_graph(args.file)
    highlight = None
    if args.highlight != "none":
        highlight = _BY_KIND[args.highlight].compute(g)
    print(export_dot(g, highlight=highlight), end="")
    return EXIT_OK


def _bench_sizes(text):
    """--sizes: comma-separated vertex counts, each at least 3 (the
    generator's minimum)."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if min(sizes) < 3:
        raise argparse.ArgumentTypeError(f"every size must be >= 3, got {text!r}")
    return sizes


def _at_least(floor):
    """argparse type: an integer no smaller than `floor`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    return parse


def _probability(text):
    """argparse type: a float in (0, 1]; NaN is rejected by the range test."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _add_common(parser, guard_default=12):
    parser.add_argument("file", nargs="?", default="-",
                        help="edge-list file, or - for stdin")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--guard", type=int, default=guard_default,
                        help="size guard for enumeration-based operations")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sbgraph",
        description="Connectivity analysis for strongly biconnected "
        "directed graphs",
    )
    backends = _kernels.available_backends()
    parser.add_argument(
        "--kernels", choices=backends,
        help="force a kernel backend (default: compiled when available)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="connectivity predicates for one graph")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="full decomposition report")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("blocks", help="one decomposition family")
    p.add_argument(
        "--kind",
        required=True,
        choices=("2eb", "2sb", "2e", "2s", "sbc", "2esb", "2vsb",
                 "bbridges", "bap"),
    )
    _add_common(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("oracle", help="cross-check fast paths vs oracles")
    _add_common(p)
    p.add_argument("--count", type=_at_least(0), default=0,
                   help="check this many generated graphs instead of a file")
    p.add_argument("--nmin", type=_at_least(3), default=3)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--p", type=_probability, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a strongly biconnected graph")
    p.add_argument("--n", type=_at_least(3), required=True)
    p.add_argument("--p", type=_probability, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-tries", type=_at_least(1), default=20000)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time the block pipeline per backend")
    p.add_argument("--sizes", type=_bench_sizes, default="50,100,200")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--backends", default="all", choices=("all", *backends))
    p.add_argument("--repeat", type=_at_least(1), default=3)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-dot", help="emit the graph in DOT format")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--highlight", choices=("none", "2eb", "2sb", "sbc"),
                   default="none")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle" and args.count and args.nmax < args.nmin:
        parser.error(
            f"oracle --nmax ({args.nmax}) must be >= --nmin ({args.nmin})"
        )
    if args.kernels:
        _kernels.set_backend(args.kernels)
    try:
        return args.func(args)
    except EdgeListParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotStronglyBiconnectedError, NotStronglyConnectedError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (GuardError, GenerationBudgetError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _PathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
