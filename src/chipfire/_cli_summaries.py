"""The ``distance``, ``firings`` and ``segment`` commands, which each write
one summary of a table as CSV or JSON.

Each command takes ``--n`` and the output flags alone, and imports the
library module it runs when it runs (:mod:`chipfire.stable` for
``distance`` and ``firings``, :mod:`chipfire.structure` for ``segment``).
Each reads the whole table, so each refuses an n past
``core.MAX_TABLE_EXPONENT`` before it reads any row; the library functions
it runs take every n up to ``core.MAX_EXPONENT``.
"""

from __future__ import annotations

from .cli import _emit_result
from .core import MAX_TABLE_EXPONENT


def _check_table_exponent(args) -> None:
    if args.n > MAX_TABLE_EXPONENT:
        raise ValueError(
            f"{args.command} is computed up to n={MAX_TABLE_EXPONENT}, got n={args.n}"
        )


def _cmd_distance(args) -> int:
    from . import stable

    _check_table_exponent(args)
    d = stable.distance_distribution(args.n)
    return _emit_result(
        args,
        "offset,count",
        (f"{i},{d.count(i)}" for i in d.offsets()),
        {"n": d.n, "half_width": d.half_width, "counts": list(d.counts)},
    )


def _cmd_firings(args) -> int:
    from . import stable

    _check_table_exponent(args)
    total = stable.total_firings(args.n)
    return _emit_result(
        args,
        "n,total_firings",
        [f"{args.n},{total}"],
        {"n": args.n, "total_firings": total},
    )


def _cmd_segment(args) -> int:
    from . import structure

    _check_table_exponent(args)
    seg = structure.segment(args.n)
    spans = ",".join(f"{part.start},{part.stop}" for _, part in seg.parts())
    return _emit_result(
        args,
        "n,top_start,top_stop,midsection_start,midsection_stop,"
        "rectangle_start,rectangle_stop,bottom_start,bottom_stop,"
        "longest_length,first_longest_row",
        [f"{seg.n},{spans},{seg.longest_length},{seg.first_longest_row}"],
        {
            "n": seg.n,
            **{name: [part.start, part.stop] for name, part in seg.parts()},
            "longest_length": seg.longest_length,
            "first_longest_row": seg.first_longest_row,
        },
    )
