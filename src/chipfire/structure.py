"""Row-structure analytics: lengths, scaled binomial rows, minimal rows,
segmentation into the four vertical parts, and the bottom-triangle report.

The table for ``2**n`` chips splits, reading down, into
  * the top triangle (rows 0..n), scaled rows of Pascal's triangle,
  * a midsection where the row lengths wander up by one and down by one,
  * a long rectangle whose lengths alternate between the two largest values,
  * the bottom triangle, where lengths fall by exactly 1 down to 2 and every
    row is a minimal row.

The rectangle criterion used here (a contiguous block directly above the
bottom triangle whose lengths stay within 1 of the longest length) is a
heuristic reading of the observed shape; only the top and bottom triangles
have sharp definitions.

Every width reader folds the row widths, first to last, into one
:class:`WidthSummary` in O(1) state: :func:`segment`,
:func:`check_bottom_conjecture`, the ``bottom-*`` folds of ``verify``, the
row-profile figure and the ``nonzero-rows`` and ``longest-row`` sequences.
The summary keeps the row count, the longest width and its first row, the
run of widths stepping down by 1 that is open at the last width, and what
it needs to place the rectangle above that run, so no width is stored.  A
stored :class:`RowProfile` passed as ``profile=`` is folded through the
same :meth:`WidthSummary.push`.  The run is the whole terminal run; the
segmentation alone cuts the bottom triangle at row n + 1, so that it never
starts inside the top triangle.

:func:`is_minimal`, which the ``bottom-minimal-rows`` check of ``verify``
runs on every row, compares a row packed with the packed minimal row of its
width and lane, built once per pair (:func:`_packed_minimal`); this module
is one of the five that read the lane format (see :mod:`chipfire.core`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .core import ChipfireError, Row, _check_exponent, _pack, _Record, intermediate_configuration


class DegenerateSegmentationError(ChipfireError):
    """The width profile is too short to hold the top triangle (rows 0..n)."""


def pascal_row(n: int, i: int) -> Row:
    """Row ``i`` of the table for ``2**n`` chips, ``i <= n``, in closed form.

    The first n+1 rows are rows of Pascal's triangle scaled by a power of
    two: the entry at ``(x, i - x)`` is ``2**(n-i) * C(i, x)``.
    """
    _check_exponent(n)
    if not 0 <= i <= n:
        raise IndexError(f"closed form covers rows 0..{n}, got {i}")
    scale = 1 << (n - i)
    values = tuple(scale * math.comb(i, k) for k in range(i + 1))
    return Row(index=i, y_min=0, values=values)


class RowProfile(_Record):
    """Nonzero-entry counts of every row of one table.  Read-only."""

    _fields = ("n", "lengths")

    def __init__(self, n: int, lengths: tuple[int, ...]) -> None:
        self.__dict__.update(n=n, lengths=lengths)

    @property
    def nonzero_rows(self) -> int:
        return len(self.lengths)


def row_profile(n: int) -> RowProfile:
    """Row widths of the table for ``2**n`` chips, read without unpacking a row."""
    return RowProfile(n=n, lengths=tuple(r.width for r in intermediate_configuration(n)))


class LongestRow(NamedTuple):
    length: int
    first_index: int
    values: tuple[int, ...]


def longest_row(n: int) -> LongestRow:
    """Longest row of the table; ties resolve to the smallest row index.

    Widths come off the packed rows; only the returned row is unpacked.
    """
    best = max(intermediate_configuration(n), key=attrgetter("width"))
    return LongestRow(best.width, best.index, best.values)


def _minimal_values(j: int) -> tuple[int, ...]:
    """The minimal row of ``j + 1`` entries: 1, 3, 5, ... up to j and back.

    For odd j the two odd ramps meet in a pair ``j, j``; for even j a single
    peak j sits between them.
    """
    half = tuple(range(1, j + 1, 2))
    if j % 2 == 1:
        return half + half[::-1]
    return half + (j,) + half[::-1]


@lru_cache(maxsize=None)
def _packed_minimal(width: int, lane: int) -> int:
    """The minimal row of ``width`` entries in lanes of ``lane`` bits."""
    return _pack(_minimal_values(width - 1), lane)


def is_minimal(r: Row) -> bool:
    """Whether the row's values are exactly the minimal row of its width.

    The row is compared packed, with the packed minimal row of its width and
    lane.  That row peaks at ``width - 1``; a lane too narrow for the peak
    holds no minimal row.
    """
    width, lane = r.width, r.lane
    if width < 2 or width - 1 >= 1 << lane - 2:
        return False
    return r.packed == _packed_minimal(width, lane)


def minimal_row(j: int) -> Row:
    """The minimal row of ``j + 1`` entries.

    Minimal rows have the smallest entries a symmetric row can carry under
    the row monotonicity constraints (steps of at least 2 off the diagonal,
    at least 1 onto it).  They make up the bottom triangle.  The returned
    row is placed at the lowest index that fits its span.
    """
    if j < 1:
        raise ValueError(f"minimal rows need at least 2 entries, got j={j}")
    return Row(index=j, y_min=0, values=_minimal_values(j))


def minimal_row_sum(j: int) -> int:
    """Chip total of the minimal row of ``j + 1`` entries: ``(j+1)**2 // 2``."""
    if j < 1:
        raise ValueError(f"minimal rows need at least 2 entries, got j={j}")
    return (j + 1) ** 2 // 2


class Segmentation(_Record):
    """Disjoint row ranges (half-open) covering all nonzero rows of a table.

    The bottom triangle here is truncated at row ``n + 1`` so the four
    ranges never overlap; for n <= 3 the full terminal run of the length
    profile can reach into the top triangle (those rows are simultaneously
    scaled binomial rows and minimal rows).  The untruncated run is what
    :func:`check_bottom_conjecture` measures.  Read-only.
    """

    _fields = (
        "n", "top_triangle", "midsection", "rectangle", "bottom_triangle", "longest_length",
        "first_longest_row",
    )

    def __init__(
        self,
        n: int,
        top_triangle: range,
        midsection: range,
        rectangle: range,
        bottom_triangle: range,
        longest_length: int,
        first_longest_row: int,
    ) -> None:
        self.__dict__.update(
            n=n, top_triangle=top_triangle, midsection=midsection, rectangle=rectangle,
            bottom_triangle=bottom_triangle, longest_length=longest_length,
            first_longest_row=first_longest_row,
        )

    def parts(self) -> tuple[tuple[str, range], ...]:
        return (
            ("top_triangle", self.top_triangle),
            ("midsection", self.midsection),
            ("rectangle", self.rectangle),
            ("bottom_triangle", self.bottom_triangle),
        )


class WidthSummary:
    """The row widths of the table for ``2**n`` chips, folded first to last.

    :meth:`push` takes one width per row.  The summary keeps the row count
    ``seen``, the last width, the longest width so far and its first row,
    and the ``start`` of the run of widths stepping down by 1 that is open
    at the last width: after the last row, the table's terminal run, never
    cut (for n <= 3 it reaches into the top triangle).

    The rectangle is the block of rows directly above the bottom triangle
    whose widths are all at least M - 1, for the final longest width M.  To
    place it without the widths, the summary keeps the starts of the open
    runs of widths >= M - 1 and >= M for the M so far: a narrower width
    restarts a run after its row, and a new longest width w takes the run
    of widths >= M as its run of widths >= w - 1 when w = M + 1, and starts
    that run at its own row otherwise, since no earlier width reaches
    w - 1.  When a run stepping down by 1 opens, before its first width
    counts, the two starts and M are saved.  The rectangle then starts at
    the saved run of widths >= M - 1 if M has not grown since, at the saved
    run of widths >= M if it grew by 1, and at the terminal run's own start
    if it grew by more.
    """

    __slots__ = ("n", "seen", "last", "start", "longest", "first_longest", "near", "peak",
                 "at_open")

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = self.last = self.start = self.longest = self.first_longest = 0
        # Starts of the open runs of widths >= longest - 1 and >= longest.
        self.near = self.peak = 0
        self.at_open = (0, 0, 0)

    def push(self, width: int) -> bool:
        """Take the next row's width; True when a new run opens at it."""
        k, longest = self.seen, self.longest
        opens = k == 0 or width != self.last - 1
        if opens:
            self.start = k
            self.at_open = (self.near, self.peak, longest)
        if width > longest:
            self.near = self.peak if width == longest + 1 else k
            self.peak = self.first_longest = k
            self.longest = width
        else:
            if width < longest - 1:
                self.near = k + 1
            if width < longest:
                self.peak = k + 1
        self.seen = k + 1
        self.last = width
        return opens

    @property
    def rows(self) -> int:
        """Length of the open run."""
        return self.seen - self.start

    @property
    def bottom_start(self) -> int:
        """First row of the bottom triangle: the open run, cut at row n + 1."""
        return max(self.start, self.n + 1)

    def segmentation(self) -> Segmentation:
        """The four parts, once every width of the table has been pushed.

        Fewer than n + 1 widths raise :class:`DegenerateSegmentationError`.
        """
        n, total = self.n, self.seen
        if total < n + 1:
            raise DegenerateSegmentationError(f"{total} rows cannot hold the top triangle for {n=}")
        near, peak, longest = self.at_open
        grown = self.longest - longest
        r = max(near if grown == 0 else peak if grown == 1 else self.start, n + 1)
        b = self.bottom_start
        return Segmentation(
            n=n, top_triangle=range(0, n + 1), midsection=range(n + 1, r), rectangle=range(r, b),
            bottom_triangle=range(b, total), longest_length=self.longest,
            first_longest_row=self.first_longest,
        )

    def report(self) -> BottomTriangleReport:
        """The bottom-triangle report, once every width has been pushed."""
        rows, longest = self.rows, self.longest
        return BottomTriangleReport(
            n=self.n, holds=rows == longest - 1, triangle_rows=rows, longest_length=longest
        )


def summarize(n: int, profile: RowProfile | None = None) -> WidthSummary:
    """The :class:`WidthSummary` of the table for ``2**n`` chips, folded from
    its row stream, or from the widths of ``profile`` when one is given."""
    if profile is None:
        widths = (r.width for r in intermediate_configuration(n))
    elif profile.n != n:
        raise ValueError(f"profile is for n={profile.n}, not n={n}")
    else:
        widths = profile.lengths
    summary = WidthSummary(n)
    for width in widths:
        summary.push(width)
    return summary


def segment(n: int, profile: RowProfile | None = None) -> Segmentation:
    """Split the table for ``2**n`` chips into its four vertical parts.

    Top triangle is rows 0..n.  The bottom triangle is the terminal run of
    lengths decreasing by exactly 1 per row, cut at row n + 1 so that it
    starts below the top triangle; the rectangle is the maximal block
    directly above it with lengths within 1 of the longest length; the
    midsection is whatever remains.  Empty midsection, rectangle, or bottom
    triangle are legal (small n).  Only a profile of fewer than n + 1 rows
    raises :class:`DegenerateSegmentationError`; any other splits into four
    ranges that partition its rows.

    The widths are folded into a :class:`WidthSummary`, from the row stream
    or from a precomputed ``profile``, which avoids re-streaming the table.
    """
    if n < 1:
        raise ValueError(f"segmentation needs n >= 1, got {n}")
    return summarize(n, profile).segmentation()


class BottomTriangleReport(_Record):
    """Empirical status of the bottom-triangle height claim for one n.

    The claim: the maximal terminal run of lengths decreasing by 1 is one
    row shorter than the longest row.  This is a report, never an assertion;
    a counterexample at some larger n must not break the library.  Read-only.
    """

    _fields = ("n", "holds", "triangle_rows", "longest_length")

    def __init__(self, n: int, holds: bool, triangle_rows: int, longest_length: int) -> None:
        self.__dict__.update(
            n=n, holds=holds, triangle_rows=triangle_rows, longest_length=longest_length
        )


def check_bottom_conjecture(n: int, profile: RowProfile | None = None) -> BottomTriangleReport:
    """Compare the terminal decreasing run against the longest-row length.

    Uses the untruncated run, which for n <= 3 overlaps the top triangle.
    """
    if n < 2:
        raise ValueError(f"conjecture check needs n >= 2, got {n}")
    return summarize(n, profile).report()
