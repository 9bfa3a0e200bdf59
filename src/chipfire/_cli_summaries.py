"""The ``distance``, ``firings`` and ``segment`` commands, which each write
one summary of a table as CSV or JSON.

Each command takes ``--n`` and the output flags alone, and imports the
library module it runs when it runs (:mod:`chipfire.stable` for
``distance`` and ``firings``, :mod:`chipfire.structure` for ``segment``).
"""

from __future__ import annotations

from .cli import _emit_result


def _cmd_distance(args) -> int:
    from . import stable

    d = stable.distance_distribution(args.n)
    return _emit_result(
        args,
        "offset,count",
        (f"{i},{d.count(i)}" for i in d.offsets()),
        {"n": d.n, "half_width": d.half_width, "counts": list(d.counts)},
    )


def _cmd_firings(args) -> int:
    from . import stable

    total = stable.total_firings(args.n)
    return _emit_result(
        args,
        "n,total_firings",
        [f"{args.n},{total}"],
        {"n": args.n, "total_firings": total},
    )


def _cmd_segment(args) -> int:
    from . import structure

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
