"""The ``table``, ``diff`` and ``stable`` commands, which write a table row
by row, and their CSV and JSON row writers.

Each command imports the library module it runs when it runs (``diff``
:mod:`chipfire.difftable`, ``stable`` :mod:`chipfire.stable`, ``table``
nothing more), so ``table`` compiles neither.  Every format streams: a row
is written as it arrives, and JSON states its count before the rows by
making a first pass over a fresh stream, so memory follows the widest row.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache, partial
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .cli import EXIT_OK, _emit, _positive, _table_flags
from .core import Row, intermediate_configuration

if TYPE_CHECKING:
    from .difftable import DiffRow


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


def _table_args(p: argparse.ArgumentParser) -> None:
    _table_flags(p)
    p.add_argument("--max-rows", type=_positive, default=None)


# diff takes the arguments of table, whose handler writes the rows as they are.
_diff_args = _table_args
_cmd_table = _emit_rows


def _cmd_diff(args) -> int:
    from . import difftable

    return _emit_rows(args, partial(map, difftable.diff_row))


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
