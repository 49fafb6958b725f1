"""Command-line interface.

A file argument and stdin (`-`) are both read as bytes and decoded by
`parse_edge_list`, so one input gives one result or one error either way.
The kernel backend is chosen by SBGRAPH_KERNELS alone (see `_kernels`).

Exit codes: 0 success, 1 analysis precondition failure or failed check,
2 parse error, or a file or standard stream that cannot be opened, read
or written, 3 guard or resource error, running out of memory included.
"""

from __future__ import annotations

import argparse
import os
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
from .report import FAMILIES, _family, analyze, json_text, render_report
from .resilience import components_2esb, components_2vsb

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_PARSE = 2
EXIT_GUARD = 3

# Every `blocks --kind`: the report's families plus the 2esb / 2vsb sets.
_BY_KIND = {f.kind: f.compute for f in FAMILIES}
_BY_KIND["2esb"] = lambda g: _family(components_2esb(g))
_BY_KIND["2vsb"] = lambda g: _family(components_2vsb(g))


class _StreamError(Exception):
    """A file, stdin or stdout could not be opened, read or written."""


def _open(path, mode, **kwargs):
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        reason = exc.strerror
    except ValueError as exc:  # e.g. an embedded NUL byte
        reason = str(exc)
    raise _StreamError(f"cannot open {path!r}: {reason}")


def _read_graph(path):
    name = "stdin" if path == "-" else repr(path)
    try:
        if path == "-":
            if sys.stdin is None:  # the process started with fd 0 closed
                raise _StreamError("cannot read stdin: it is closed")
            return parse_edge_list(sys.stdin.buffer)
        with _open(path, "rb") as handle:
            return parse_edge_list(handle)
    except OSError as exc:
        raise _StreamError(f"cannot read {name}: {exc.strerror}") from None


def _out(text):
    """Print text and flush stdout.  A stdout closed at start-up is an
    error, as a closed stdin is.  After a failed write, fd 1 goes to
    os.devnull, so the interpreter's last flush of what stdout still
    buffers cannot fail a second time."""
    if sys.stdout is None:  # the process started with fd 1 closed
        raise _StreamError("cannot write stdout: it is closed")
    try:
        print(text, end="", flush=True)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _StreamError(f"cannot write stdout: {exc.strerror}") from None


def _emit(data, fmt, text_renderer):
    if fmt == "json":
        _out(json_text(data) + "\n")
    else:
        _out(text_renderer(data))


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
        _out(render_report(report))
    else:
        d = report.as_dict()
        _out(f"n: {d['n']}\nm: {d['m']}\n")
        _out(f"strongly_biconnected: {d['strongly_biconnected']}\n")
        for f in FAMILIES:
            _out(f"[{f.key}]\n" + _family_text(d[f.key]))
    return EXIT_OK


def cmd_blocks(args):
    g = _read_graph(args.file)
    kind = args.kind
    family = _BY_KIND[kind](g)
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
            _out(f"FAIL: {mismatches}/{args.count} graphs mismatched\n"
                 f"{first.describe()}\n")
            return EXIT_PRECONDITION
        _out(f"ok: {args.count} random graphs, fast paths agree with oracles\n")
        return EXIT_OK
    g = _read_graph(args.file)
    result = oracle_check(g, guard=args.guard)
    _out(f"{result.describe()}\n")
    return EXIT_OK if result.passed else EXIT_PRECONDITION


def cmd_gen(args):
    g = gen_random_sb(args.n, args.p, args.seed, max_tries=args.max_tries)
    text = emit_edge_list(
        g, comment=f"gen n={args.n} p={args.p} seed={args.seed}"
    )
    if args.output and args.output != "-":
        try:
            with _open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _StreamError(
                f"cannot write {args.output!r}: {exc.strerror}"
            ) from None
    else:
        _out(text)
    return EXIT_OK


def cmd_bench(args):
    backends = None if args.backends == "all" else [args.backends]
    result = run_bench(
        sizes=args.sizes, seed=args.seed, backends=backends,
        repeat=args.repeat,
    )
    _emit(result, args.format, format_bench)
    return EXIT_OK


def cmd_export_dot(args):
    g = _read_graph(args.file)
    highlight = None
    if args.highlight != "none":
        highlight = _BY_KIND[args.highlight](g)
    _out(export_dot(g, highlight=highlight))
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


def _add_common(parser, *flags):
    """The file argument, and --format when flags name it."""
    parser.add_argument("file", nargs="?", default="-",
                        help="edge-list file, or - for stdin")
    if "--format" in flags:
        parser.add_argument("--format", choices=("json", "text"),
                            default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sbgraph",
        description="Connectivity analysis for strongly biconnected "
        "directed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="connectivity predicates for one graph")
    _add_common(p, "--format")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="full decomposition report")
    _add_common(p, "--format")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("blocks", help="one decomposition family")
    p.add_argument("--kind", required=True, choices=tuple(_BY_KIND))
    _add_common(p, "--format")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("oracle", help="cross-check fast paths vs oracles")
    _add_common(p)
    p.add_argument("--guard", type=int, default=12, help="oracle size limit")
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
    p.add_argument("--backends", default="all",
                   choices=("all", *_kernels.available_backends()))
    p.add_argument("--repeat", type=_at_least(1), default=3)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-dot", help="emit the graph in DOT format")
    _add_common(p)
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
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return EXIT_GUARD
    except _StreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
