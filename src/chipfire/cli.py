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
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from . import checks, difftable, oracle, render, sequences, stable, structure
from .core import MAX_EXPONENT, ChipfireError, Row, intermediate_configuration

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


def _csv_lines(rows: Iterable[Row | difftable.DiffRow], header: bool) -> Iterator[str]:
    if header:
        yield "index,y_min,values\n"
    for r in rows:
        yield f"{r.index},{r.y_min},{' '.join(map(str, r.values))}\n"


def rows_to_csv(rows: Iterable[Row | difftable.DiffRow], header: bool = False) -> str:
    """Arrival or difference rows as ``index,y_min,values`` lines."""
    return "".join(_csv_lines(rows, header))


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
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands


def _emit_rows(args, rows: Iterable[Row | difftable.DiffRow]) -> int:
    # CSV streams row by row; JSON puts row_count before the rows, so it
    # lists them first.
    if args.format == "csv":
        _emit(_csv_lines(rows, args.header), args.out)
    else:
        listed = [
            {"index": r.index, "y_min": r.y_min, "values": list(r.values)}
            for r in rows
        ]
        _emit([_json({"n": args.n, "row_count": len(listed), "rows": listed})], args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    return _emit_rows(args, islice(intermediate_configuration(args.n), args.max_rows))


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
    rows = stable.stable_configuration(args.n)
    # CSV streams row by row, like table; JSON puts chip_count before the
    # rows, so it lists them first.
    if args.format == "csv":
        lines = (f"{r.index},{r.y_min},{r.pattern()}\n" for r in rows)
        _emit(chain(["index,y_min,bits\n"] if args.header else [], lines), args.out)
    else:
        listed = list(rows)
        payload = {
            "n": args.n,
            "chip_count": sum(r.chip_count for r in listed),
            "rows": [{"index": r.index, "y_min": r.y_min, "bits": r.pattern()} for r in listed],
        }
        _emit([_json(payload)], args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    d = stable.distance_distribution(args.n)
    return _emit_result(
        args,
        "offset,count",
        lambda: (f"{i},{d.count(i)}" for i in d.offsets()),
        lambda: {"n": d.n, "half_width": d.half_width, "counts": list(d.counts)},
    )


def _cmd_firings(args) -> int:
    total = stable.total_firings(args.n)
    return _emit_result(
        args,
        "n,total_firings",
        lambda: [f"{args.n},{total}"],
        lambda: {"n": args.n, "total_firings": total},
    )


def _cmd_diff(args) -> int:
    return _emit_rows(args, map(difftable.diff_row, intermediate_configuration(args.n)))


def _cmd_segment(args) -> int:
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
    if args.trials >= 2:
        oracle.check_trials(args.trials)
    properties = args.properties.split(",") if args.properties else None
    all_results: list[checks.CheckResult] = []
    lines: list[str] = []
    if properties is None or any(p in "minimal-row-descent" for p in properties):
        descent = checks.minimal_descent_check()
        all_results.append(descent)
        lines.append(_format_check(descent))
    for n in args.n:
        for result in checks.run_checks(
            n, properties=properties, oracle_trials=args.trials, seed=args.seed
        ):
            all_results.append(result)
            lines.append(_format_check(result))
    failed = checks.failures(all_results)
    lines.append(f"summary: {len(all_results)} checks, {len(failed)} failures")
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_INVARIANT if failed else EXIT_OK


def _format_check(r: checks.CheckResult) -> str:
    where = f"n={r.n} " if r.n is not None else ""
    if r.advisory:
        verdict = "report holds" if r.passed else "report does-not-hold"
    else:
        verdict = "pass" if r.passed else "FAIL"
    detail = f" ({r.detail})" if r.detail else ""
    return f"{where}{r.name}: {verdict}{detail}"


def _cmd_render(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing tables on the first-quadrant lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write to a file instead of stdout")
        p.add_argument("--header", action="store_true", help="include a CSV header line")

    def add_table_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=_exponent, required=True)
        add_output_flags(p)

    p_table = sub.add_parser("table", help="arrival table rows")
    add_table_flags(p_table)
    p_table.add_argument("--max-rows", type=_positive, default=None)
    p_table.set_defaults(func=_cmd_table)

    p_stable = sub.add_parser("stable", help="stable-configuration bit rows")
    add_table_flags(p_stable)
    p_stable.set_defaults(func=_cmd_stable)

    p_distance = sub.add_parser("distance", help="distance distribution")
    add_table_flags(p_distance)
    p_distance.set_defaults(func=_cmd_distance)

    p_firings = sub.add_parser("firings", help="total firing count")
    add_table_flags(p_firings)
    p_firings.set_defaults(func=_cmd_firings)

    p_diff = sub.add_parser("diff", help="difference table rows")
    add_table_flags(p_diff)
    p_diff.set_defaults(func=_cmd_diff)

    p_segment = sub.add_parser("segment", help="four-part row segmentation")
    p_segment.add_argument("--n", type=_exponent, required=True)
    add_output_flags(p_segment)
    p_segment.set_defaults(func=_cmd_segment)

    p_seq = sub.add_parser("sequences", help="derived integer sequences")
    p_seq.add_argument(
        "id",
        choices=sorted(sequences.SEQUENCES) + ["half-nonzero-rows"],
    )
    p_seq.add_argument("--upto", type=int, required=True, help="last index, inclusive")
    add_output_flags(p_seq)
    p_seq.set_defaults(func=_cmd_sequences)

    p_verify = sub.add_parser("verify", help="run the invariant scorecard")
    p_verify.add_argument("--n", type=_exponent_range, required=True,
                          metavar="N or A..B")
    p_verify.add_argument("--properties", default=None,
                          help="comma-separated name filters")
    p_verify.add_argument("--trials", type=int, default=10,
                          help=f"random oracle runs per n, at most {oracle.MAX_TRIALS} "
                          "(< 2 disables the oracle)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_render = sub.add_parser("render", help="emit an SVG figure")
    p_render.add_argument("--kind", choices=render.KINDS, required=True)
    p_render.add_argument("--n", type=_exponent, required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--width", type=_positive, default=960)
    p_render.add_argument("--height", type=_positive, default=640)
    p_render.add_argument("--dot-radius", type=float, default=2.0)
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
