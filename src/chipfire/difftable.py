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

A difference row has a packed view like an arrival row: its entries,
biased to be positive, in the lanes of :mod:`chipfire.core`.  For a row
from :func:`diff_row` that view is a few whole-row operations on the
source row's packed int, and :func:`unimodal_check` and
:func:`row_max_abs` read only it: the signs of the second differences give
the shape of the left half, and two lane comparisons prove that the left
half's peak bounds every entry.  Only a row that fails that proof (never a
row of a correct table) has its largest entry taken from its values.
``values`` are built from the source row on their first read; the sign
maps, plateaus and the checks that compare entries read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import add, sub
from typing import Iterator, NamedTuple

from .core import (
    Row,
    _diff_lanes,
    _lane_shape,
    _pack_diffs,
    _trusted,
    intermediate_configuration,
)


@dataclass(frozen=True)
class DiffRow:
    """One row of the difference table, trimmed like its source row.

    ``values[k]`` sits at ``y = y_min + k``, ``x = index - y``.  Values are
    antisymmetric: entry k equals minus entry ``len - 1 - k``.  The
    constructor checks this; rows that :func:`diff_row` derives from a
    table row are not checked, like the kernel rows they come from, so a
    corrupted table reaches the ``diff-antisymmetry`` check instead.

    Like :class:`Row`, every difference row has ``width`` (the number of
    entries) and a packed view.  A row from :func:`diff_row` keeps its
    source row, derives the view from the source's and builds ``values`` on
    first read; a row built through this constructor packs its values on
    first read of the view.
    """

    index: int
    y_min: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        v = self.values
        if self.index < 1:
            raise ValueError("difference rows start at index 1")
        if not v:
            if self.y_min != 0:
                raise ValueError("empty difference rows must have y_min = 0")
            return
        if self.y_min < 0:
            raise ValueError(f"y_min must be nonnegative, got {self.y_min}")
        if self.y_min + len(v) - 1 > self.index:
            raise ValueError("span leaves the quadrant")
        # Each entry of the first half (the middle one included) must cancel
        # its mirror; a nonzero middle entry fails as twice itself.
        if any(map(add, v[: (len(v) + 1) // 2], reversed(v))):
            raise ValueError("difference row must be antisymmetric")

    def __getattr__(self, name: str):
        # Reached only for attributes missing from the instance; what is
        # derived is cached, so later reads are plain attribute reads.
        d = self.__dict__
        if name == "values":
            v = d["source"].values
            values = d["values"] = (v[0], *map(sub, v[1:], v), -v[-1])
            return values
        if name == "width":
            return len(self.values)
        if name in ("packed", "lane"):
            source = d.get("source")
            view = _diff_lanes(source) if source is not None else _pack_diffs(self.values)
            d["packed"], d["lane"] = view
            return d[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def is_empty(self) -> bool:
        return not self.width

    def _half(self) -> int:
        # y = y_min + k <= index - y  <=>  k <= index // 2 - y_min
        return min(max(self.index // 2 - self.y_min + 1, 0), self.width)

    @cached_property
    def _shape(self) -> tuple[bool, int | None]:
        # Whether the left half is unimodal, and the largest absolute entry
        # where the lanes prove it: both come from one pass over the lanes.
        return _lane_shape(self, self._half())

    def left_half(self) -> tuple[int, ...]:
        """Entries at positions with ``y <= x`` (the diagonal included)."""
        return self.values[: self._half()]


def diff_row(prev: Row) -> DiffRow:
    """Difference row ``prev.index + 1`` computed from arrival row ``prev``."""
    if prev.is_empty:
        return DiffRow(index=prev.index + 1, y_min=0, values=())
    return _trusted(
        DiffRow, index=prev.index + 1, y_min=prev.y_min, source=prev, width=prev.width + 1
    )


def diff_table(n: int) -> Iterator[DiffRow]:
    """Stream difference rows 1 .. last nonzero arrival row + 1."""
    for row in intermediate_configuration(n):
        yield diff_row(row)


def row_max_abs(d: DiffRow) -> int:
    """Largest absolute entry, 0 for an empty row.

    Exact whether or not ``d`` is antisymmetric: rows from :func:`diff_row`
    are not checked on construction.  The lanes prove the left half's peak
    to be the answer on every row of a correct table; any other row falls
    back to its values.
    """
    if d.is_empty:
        return 0
    top = d._shape[1]
    if top is None:
        top = max(max(d.values), -min(d.values))
    return top


def unimodal_check(d: DiffRow) -> bool:
    """Whether the left half weakly rises and then weakly falls.

    The half is prefixed with a single zero for the implicit margin, so a
    row whose first stored entry is already its peak still counts.  It is
    unimodal exactly when no strict rise follows a strict fall.
    """
    return d._shape[0]


class Plateau(NamedTuple):
    start: int
    length: int
    value: int


def plateaus(d: DiffRow) -> list[Plateau]:
    """Maximal runs of at least two equal consecutive values.

    ``start`` is the 0-based position of the first entry of the run.
    """
    runs: list[Plateau] = []
    v = d.values
    k = 0
    while k < len(v):
        j = k + 1
        while j < len(v) and v[j] == v[k]:
            j += 1
        if j - k >= 2:
            runs.append(Plateau(start=k, length=j - k, value=v[k]))
        k = j
    return runs


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

    Zeros mark exactly the plateau adjacencies.
    """
    return [
        SignRow(index=d.index, y_min=d.y_min, signs=_signs(d.values))
        for d in diff_table(n)
    ]
