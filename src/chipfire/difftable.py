"""First-difference tables of the arrival rows and their shape checks.

Row ``i`` of the difference table holds, at ``(x, y)``,

    F'(x, y) = F(x-1, y) - F(x, y-1)

with both parents taken from arrival row ``i - 1`` (zero outside its span).
Reading in increasing y this is the padded first-difference of that row:
the leading entry, the consecutive differences, then minus the trailing
entry.  Palindromic arrival rows make every difference row antisymmetric,
so the left half (positions with ``y <= x``) carries all the information;
in real tables it is nonnegative and, prefixed with the implicit zero
margin, weakly rises and then weakly falls.

A :class:`DiffRow` is a function of its arrival row alone and keeps only
that row, so it is built one way, by :func:`diff_row`, through
``core._trusted`` since it has nothing to validate.  ``core`` packs the
source row's first differences in its lanes with a few whole-row
operations, each biased to be positive.  The ``values`` are read on their
first read, off those bare difference lanes, as signed lanes: adding the
bias once more and flipping each lane's top bit leaves every entry in two's
complement, which ``memoryview.cast`` reads as signed ints (lanes wider
than 64 bits by slicing the bytes).  The sign maps and the CLI read them.
:func:`unimodal_check` and :func:`row_max_abs` read no values: they read
the row's lane context, built by ``core._diff_context`` and kept in the
row: the difference lanes with their second differences, which every lane
fold of ``verify`` shares.  The signs of the second differences give the
shape of the left half, and two lane comparisons prove that the left
half's peak bounds every entry.  Only a row that fails that proof (never a
row of a correct table) has its largest entry taken from its values.  The
values, the lane context and the shape are each computed on first read and
kept in the row (``core._once``): the shape is read once per streamed row,
and it takes nine Python calls per fresh row for both readers together
(see ``core``).

Nothing here checks antisymmetry: the source rows of a table are not
validated, so a corrupted table reaches the ``diff-antisymmetry`` check of
:mod:`chipfire.checks`, the one place that tests it.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

from .core import (
    Row,
    _diff_context,
    _diff_values,
    _Record,
    _lane_shape,
    _once,
    _trusted,
    intermediate_configuration,
)


class DiffRow(_Record):
    """One row of the difference table, trimmed like its source row.

    ``values[k]`` sits at ``y = y_min + k``, ``x = index - y``.  ``source``
    is arrival row ``index - 1``; on a correct table the values are
    antisymmetric, entry k equals minus entry ``width - 1 - k``.  Read-only.
    """

    _fields = ("index", "y_min", "source")

    def __init__(self, index: int, y_min: int, source: Row) -> None:
        self.__dict__.update(index=index, y_min=y_min, source=source)

    @_once
    def values(self) -> tuple[int, ...]:
        return _diff_values(self.source)

    # A _once keeps its value under its function's name, so each of these
    # is bound to the name of its core builder.
    _diff_context = _once(_diff_context)
    _lane_shape = _once(_lane_shape)

    @property
    def width(self) -> int:
        return self.source.width + 1 if self.source.width else 0

    @property
    def is_empty(self) -> bool:
        return self.source.is_empty

    def _half(self) -> int:
        # y = y_min + k <= index - y  <=>  k <= index // 2 - y_min
        return min(max(self.index // 2 - self.y_min + 1, 0), self.width)

    def left_half(self) -> tuple[int, ...]:
        """Entries at positions with ``y <= x`` (the diagonal included)."""
        return self.values[: self._half()]


def diff_row(prev: Row) -> DiffRow:
    """Difference row ``prev.index + 1`` computed from arrival row ``prev``."""
    return _trusted(DiffRow, index=prev.index + 1, y_min=prev.y_min, source=prev)


def diff_table(n: int) -> Iterator[DiffRow]:
    """Stream difference rows 1 .. last nonzero arrival row + 1."""
    for row in intermediate_configuration(n):
        yield diff_row(row)


def row_max_abs(d: DiffRow) -> int:
    """Largest absolute entry, 0 for an empty row.

    Exact whether or not ``d`` is antisymmetric: nothing checks that on
    construction.  The lanes prove the left half's peak
    to be the answer on every row of a correct table; any other row falls
    back to its values.
    """
    if not d.source.width:
        return 0
    top = d._lane_shape[1]
    if top is None:
        top = max(max(d.values), -min(d.values))
    return top


def unimodal_check(d: DiffRow) -> bool:
    """Whether the left half weakly rises and then weakly falls.

    The half is prefixed with a single zero for the implicit margin, so a
    row whose first stored entry is already its peak still counts.  It is
    unimodal exactly when no strict rise follows a strict fall.
    """
    return d._lane_shape[0]


class SignRow(NamedTuple):
    """Signs of the consecutive differences within one difference row.

    ``signs[k]`` (one of ``+ 0 -``) compares ``values[k+1]`` against
    ``values[k]``, i.e. it sits between ``y = y_min + k`` and the next
    position.
    """

    index: int
    y_min: int
    signs: str


def _signs(values: tuple[int, ...]) -> str:
    return "".join(
        "+" if b > a else "-" if b < a else "0"
        for a, b in zip(values, islice(values, 1, None))
    )


def sign_map(n: int) -> list[SignRow]:
    """Per-row sign strings for the whole difference table of ``2**n`` chips.

    Zeros mark exactly the pairs of equal neighbours.
    """
    return [
        SignRow(index=d.index, y_min=d.y_min, signs=_signs(d.values))
        for d in diff_table(n)
    ]
