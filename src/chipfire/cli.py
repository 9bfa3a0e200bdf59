"""Command-line front end.

    chipfire table --n 4                     arrival table as CSV or JSON
    chipfire stable --n 4                    stable-configuration bit rows
    chipfire distance --n 15                 distance distribution
    chipfire firings --n 10                  total firing count (both routes)
    chipfire diff --n 9                      difference table
    chipfire segment --n 9                   four-part split summary
    chipfire sequences total-firings --upto 10
    chipfire verify --n 2..12 --trials 10    invariant scorecard
    chipfire render --kind stable-dots --n 9 --out fig.svg

CSV output carries no header unless ``--header`` is given, so files for
different n concatenate cleanly.  Exit codes: 0 all good, 1 invariant
failure, 2 usage error, 3 I/O error.  The library raises ``ValueError`` for
arguments outside a function's domain (``segment --n 0``) and
``ChipfireError`` for failed invariants, so the two map to exit 2 and 1.

A command pays only for the modules it runs.  This module imports
:mod:`chipfire.core` alone; each command imports its own modules when it
runs (``distance`` loads :mod:`chipfire.stable`, ``diff``
:mod:`chipfire.difftable`, ``table`` nothing more), and ``main`` adds to
the parser the arguments of the one command named on the command line.
Its argument builder imports what the arguments need: ``sequences`` reads
its choices from ``sequences.SEQUENCES``, ``verify`` its ``--trials`` cap
from ``oracle.MAX_TRIALS`` and ``render`` its kinds from ``render.KINDS``.
The top-level help, usage and errors show only the command names and their
help text, so they load nothing.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache, partial
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .core import MAX_EXPONENT, ChipfireError, Row, intermediate_configuration

if TYPE_CHECKING:
    from .checks import CheckResult
    from .difftable import DiffRow

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# argument helpers


def _exponent(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= n <= MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"n must be in 0..{MAX_EXPONENT}, got {n}")
    return n


def _exponent_range(text: str) -> range:
    """Accept a single exponent or an inclusive span like ``2..12``."""
    lo, sep, hi = text.partition("..")
    try:
        start = int(lo)
        stop = int(hi) if sep else start
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exponent range: {text!r}") from None
    if not 0 <= start <= stop <= MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"bad exponent range: {text!r}")
    return range(start, stop + 1)


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# serialization


def _formatted(rows: Iterable[Row | DiffRow], row_format: Callable[[int], str]) -> Iterator[str]:
    """Each row as ``row_format(width) % (index, y_min, *values)``.

    One ``%`` per row formats every entry in C, instead of one Python
    ``str`` call per entry.  Both row formats are ``lru_cache`` functions,
    so each width's format is built once.
    """
    for r in rows:
        values = r.values
        yield row_format(len(values)) % (r.index, r.y_min, *values)


@lru_cache(maxsize=None)
def _csv_format(width: int) -> str:
    return "%d,%d," + " ".join(["%d"] * width) + "\n"


def _csv_lines(rows: Iterable[Row | DiffRow], header: bool) -> Iterator[str]:
    """``index,y_min,values`` lines, the entries joined by spaces, as the
    rows stream."""
    if header:
        yield "index,y_min,values\n"
    yield from _formatted(rows, _csv_format)


def rows_to_csv(rows: Iterable[Row | DiffRow], header: bool = False) -> str:
    """Arrival or difference rows as ``index,y_min,values`` lines.

    Each entry is written with ``%d``: exactly ``str`` of the entry, since
    rows hold only ints.
    """
    return "".join(_csv_lines(rows, header))


@lru_cache(maxsize=None)
def _json_format(width: int) -> str:
    # One row object of json.dumps(..., indent=2) at depth 2, after a comma.
    values = ",\n        ".join(["%d"] * width)
    values = f"[\n        {values}\n      ]" if width else "[]"
    return ',\n    {\n      "index": %d,\n      "y_min": %d,\n      "values": ' + values + "\n    }"


def _json_lines(n: int, row_count: int, rows: Iterable[Row | DiffRow]) -> Iterator[str]:
    """``{"n", "row_count", "rows"}`` in the bytes of ``json.dumps(indent=2)``,
    written as the rows stream."""
    head = '{\n  "n": %d,\n  "row_count": %d' % (n, row_count)
    return _json_object(head, _formatted(rows, _json_format))


def _json_object(head: str, lines: Iterator[str]) -> Iterator[str]:
    """A ``json.dumps(indent=2)`` object whose last key is ``"rows"``:
    ``head`` opens it and holds the keys before that one, and each of
    ``lines`` is one row, led by the comma that follows the row before."""
    yield head + ',\n  "rows": ['
    first = next(lines, None)
    if first is None:
        yield "]\n}\n"
        return
    yield first[1:]  # no comma before the first row
    yield from lines
    yield "\n  ]\n}\n"


# One stable row object of json.dumps(..., indent=2) at depth 2, after a
# comma; the bits are digits, which JSON writes as they are.
_STABLE_JSON_ROW = ',\n    {\n      "index": %d,\n      "y_min": %d,\n      "bits": "%s"\n    }'


def rows_from_csv(text: str) -> list[Row]:
    """Parse ``rows_to_csv`` output (with or without header) back into rows."""
    out: list[Row] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("index,"):
            continue
        index, y_min, values = line.split(",", 2)
        out.append(
            Row(
                index=int(index),
                y_min=int(y_min),
                values=tuple(int(v) for v in values.split()),
            )
        )
    return out


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks to ``out`` (stdout when None) as they arrive."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _json(payload) -> str:
    import json  # only JSON output needs it

    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands


def _emit_rows(args, mapped: Callable[[Iterable[Row]], Iterable[Row | DiffRow]] = iter) -> int:
    """Write ``mapped`` of the table's rows (by default the rows themselves)
    as CSV or JSON, one row at a time.

    ``mapped`` gives one row per arrival row.  JSON states ``row_count``
    before the rows, so it first counts the arrival rows of one stream,
    building no mapped row, then writes the mapped rows of a fresh one.
    Both formats hold a few rows at a time, so memory follows the widest
    row.
    """
    if args.format == "csv":
        _emit(_csv_lines(mapped(_table_rows(args)), args.header), args.out)
    else:
        row_count = sum(1 for _ in _table_rows(args))
        _emit(_json_lines(args.n, row_count, mapped(_table_rows(args))), args.out)
    return EXIT_OK


def _table_rows(args) -> Iterator[Row]:
    """The table's rows, stopped after ``--max-rows``.  A limit past
    ``sys.maxsize``, which ``islice`` refuses, exceeds every table, so the
    whole table is written."""
    limit = args.max_rows and min(args.max_rows, sys.maxsize)
    return islice(intermediate_configuration(args.n), limit)


def _cmd_table(args) -> int:
    return _emit_rows(args)


def _emit_result(
    args,
    header: str,
    csv_lines: Callable[[], Iterable[str]],
    payload: Callable[[], dict],
) -> int:
    """Write one command's result in the requested format; build only that one."""
    if args.format == "csv":
        lines = [header] if args.header else []
        lines.extend(csv_lines())
        _emit(["\n".join(lines) + "\n"], args.out)
    else:
        _emit([_json(payload())], args.out)
    return EXIT_OK


def _cmd_stable(args) -> int:
    from . import stable

    rows = stable.stable_configuration(args.n)
    # Both formats stream row by row, like table.  JSON puts chip_count
    # before the rows, so a first pass sums it and a second, over a fresh
    # stream, writes the rows.
    if args.format == "csv":
        lines = (f"{r.index},{r.y_min},{r.pattern()}\n" for r in rows)
        _emit(chain(["index,y_min,bits\n"] if args.header else [], lines), args.out)
    else:
        head = '{\n  "n": %d,\n  "chip_count": %d' % (args.n, sum(r.chip_count for r in rows))
        lines = (
            _STABLE_JSON_ROW % (r.index, r.y_min, r.pattern())
            for r in stable.stable_configuration(args.n)
        )
        _emit(_json_object(head, lines), args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    from . import stable

    d = stable.distance_distribution(args.n)
    return _emit_result(
        args,
        "offset,count",
        lambda: (f"{i},{d.count(i)}" for i in d.offsets()),
        lambda: {"n": d.n, "half_width": d.half_width, "counts": list(d.counts)},
    )


def _cmd_firings(args) -> int:
    from . import stable

    total = stable.total_firings(args.n)
    return _emit_result(
        args,
        "n,total_firings",
        lambda: [f"{args.n},{total}"],
        lambda: {"n": args.n, "total_firings": total},
    )


def _cmd_diff(args) -> int:
    from . import difftable

    return _emit_rows(args, partial(map, difftable.diff_row))


def _cmd_segment(args) -> int:
    from . import structure

    seg = structure.segment(args.n)

    def csv_line() -> list[str]:
        spans = ",".join(f"{part.start},{part.stop}" for _, part in seg.parts())
        return [f"{seg.n},{spans},{seg.longest_length},{seg.first_longest_row}"]

    return _emit_result(
        args,
        "n,top_start,top_stop,midsection_start,midsection_stop,"
        "rectangle_start,rectangle_stop,bottom_start,bottom_stop,"
        "longest_length,first_longest_row",
        csv_line,
        lambda: {
            "n": seg.n,
            **{name: [part.start, part.stop] for name, part in seg.parts()},
            "longest_length": seg.longest_length,
            "first_longest_row": seg.first_longest_row,
        },
    )


def _cmd_sequences(args) -> int:
    from . import sequences

    if args.id == "half-nonzero-rows":
        values = sequences.half_nonzero_rows(args.upto)
        offset = 1
    else:
        values = sequences.generate(args.id, args.upto)
        offset = sequences.SEQUENCES[args.id].offset
    return _emit_result(
        args,
        "index,value",
        lambda: (f"{offset + k},{v}" for k, v in enumerate(values)),
        lambda: {"id": args.id, "offset": offset, "values": values},
    )


def _cmd_verify(args) -> int:
    from . import checks

    properties = None if args.properties is None else args.properties.split(",")
    results = checks.scorecard(args.n, properties, args.trials, args.seed)
    failed = checks.failures(results)
    lines = [*map(_format_check, results)]
    lines.append(f"summary: {len(results)} checks, {len(failed)} failures")
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_INVARIANT if failed else EXIT_OK


def _format_check(r: CheckResult) -> str:
    where = f"n={r.n} " if r.n is not None else ""
    if r.advisory:
        verdict = "report holds" if r.passed else "report does-not-hold"
    else:
        verdict = "pass" if r.passed else "FAIL"
    detail = f" ({r.detail})" if r.detail else ""
    return f"{where}{r.name}: {verdict}{detail}"


def _cmd_render(args) -> int:
    from . import render

    spec = render.RenderSpec(
        kind=args.kind,
        n=args.n,
        out_path=args.out,
        width=args.width,
        height=args.height,
        dot_radius=args.dot_radius,
    )
    path = render.render(spec)
    sys.stdout.write(f"{path}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
#
# Each command has its own argument builder, which imports what its
# arguments need.  ``main`` runs only the builder of the command it was
# given, so help, usage and errors for one command load no other command's
# modules; the top level lists every command by its name and help text.


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("--header", action="store_true", help="include a CSV header line")


def _table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_exponent, required=True)
    _output_flags(p)


def _table_args(p: argparse.ArgumentParser) -> None:
    _table_flags(p)
    p.add_argument("--max-rows", type=_positive, default=None)


def _sequences_args(p: argparse.ArgumentParser) -> None:
    from . import sequences

    p.add_argument("id", choices=sorted(sequences.SEQUENCES) + ["half-nonzero-rows"])
    p.add_argument("--upto", type=int, required=True, help="last index, inclusive")
    _output_flags(p)


def _verify_args(p: argparse.ArgumentParser) -> None:
    from . import oracle

    p.add_argument("--n", type=_exponent_range, required=True, metavar="N or A..B")
    p.add_argument("--properties", default=None, help="comma-separated name filters")
    p.add_argument("--trials", type=int, default=10,
                   help=f"random oracle runs per n, at most {oracle.MAX_TRIALS} "
                   "(< 2 disables the oracle)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def _render_args(p: argparse.ArgumentParser) -> None:
    from . import render

    p.add_argument("--kind", choices=render.KINDS, required=True)
    p.add_argument("--n", type=_exponent, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=_positive, default=960)
    p.add_argument("--height", type=_positive, default=640)
    p.add_argument("--dot-radius", type=float, default=2.0)


_Builder = Callable[[argparse.ArgumentParser], None]

#: The commands in help order: help text, argument builder, and the
#: function that runs the command.
_COMMANDS: dict[str, tuple[str, _Builder, Callable[..., int]]] = {
    "table": ("arrival table rows", _table_args, _cmd_table),
    "stable": ("stable-configuration bit rows", _table_flags, _cmd_stable),
    "distance": ("distance distribution", _table_flags, _cmd_distance),
    "firings": ("total firing count", _table_flags, _cmd_firings),
    "diff": ("difference table rows", _table_args, _cmd_diff),
    "segment": ("four-part row segmentation", _table_flags, _cmd_segment),
    "sequences": ("derived integer sequences", _sequences_args, _cmd_sequences),
    "verify": ("run the invariant scorecard", _verify_args, _cmd_verify),
    "render": ("emit an SVG figure", _render_args, _cmd_render),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``chipfire`` parser, with the arguments of ``command`` only (of no
    command when None or not a command name)."""
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing tables on the first-quadrant lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add_arguments(p)
            p.set_defaults(func=run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option with a value, so the first argument
    # that is not an option is the one argparse reads as the command.
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except ChipfireError as exc:
        sys.stderr.write(f"chipfire: {exc}\n")
        return EXIT_INVARIANT
    except ValueError as exc:
        sys.stderr.write(f"chipfire: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"chipfire: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
