"""Stable configuration, distance distribution, and total firing counts.

Once firing stops, a point holds one chip exactly when its arrival count is
odd (it fired away ``2 * (F // 2)`` chips).  The stable configuration is
therefore the parity of the arrival table, stored here as one bit pattern
per row.  Grouping the surviving chips by the distance coordinate
``y - x`` gives the distance distribution, whose second raw moment counts
every firing twice: a firing replaces two chips at distance d with one at
d - 1 and one at d + 1, adding exactly 2 to the moment.

By the paper's main theorem everything here depends only on the parity and
the total of each arrival row, and the kernel's packed row holds both:
:attr:`Row.parity` gives the bit patterns and the chips' distances, and
:meth:`Row.chip_sum` the total (see :mod:`chipfire.core`).  Nothing in this
module unpacks the row values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Iterable, Iterator

from .core import ChipfireError, Row, intermediate_configuration


# bytes.translate table writing a 0/1 byte as the digit "0" or "1".
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class ParityError(ChipfireError):
    """An integer that must be even by construction turned out odd."""


@dataclass(frozen=True)
class StableRow:
    """Bit pattern of the chips one row keeps after stabilization.

    Bit ``k`` corresponds to ``y = y_min + k`` and is set when the arrival
    count there is odd.  ``width`` is the nonzero span of the source row, so
    the pattern can be rendered alongside the even (unmarked) positions.
    """

    index: int
    y_min: int
    width: int
    bits: int

    def __post_init__(self) -> None:
        if self.width < 0 or self.bits < 0:
            raise ValueError("width and bits must be nonnegative")
        if self.bits >> self.width:
            raise ValueError("bit pattern wider than the row span")

    @property
    def chip_count(self) -> int:
        return self.bits.bit_count()

    def pattern(self) -> str:
        """The bits as a 0/1 string, leftmost position first."""
        # format pads to the width but writes "0" for a width of 0.
        return format(self.bits, f"0{self.width}b")[::-1] if self.width else ""

    def marked_points(self) -> Iterator[tuple[int, int]]:
        """Yield ``(x, y)`` of each chip in this row, increasing y."""
        for k in range(self.width):
            if self.bits >> k & 1:
                y = self.y_min + k
                yield self.index - y, y

    def distances(self) -> Iterator[int]:
        """Distance ``y - x`` of each chip, increasing.

        Every position of a row has its own distance, so a row never puts
        two chips at one distance.
        """
        first = 2 * self.y_min - self.index
        marks = map("1".__eq__, bin(self.bits)[:1:-1])  # bit k is character k
        return compress(range(first, first + 2 * self.width, 2), marks)

    def unmarked_points(self) -> Iterator[tuple[int, int]]:
        """Points of the span whose arrival count was even."""
        for k in range(self.width):
            if not self.bits >> k & 1:
                y = self.y_min + k
                yield self.index - y, y


def stable_row(r: Row) -> StableRow:
    """Parity pattern of one table row: bit k set iff ``values[k]`` is odd."""
    parity = r.parity
    # Bit k of the pattern is byte k of the parity: write the bytes as
    # binary digits, last entry first.
    bits = int(parity.translate(_DIGITS)[::-1], 2) if parity else 0
    return StableRow(index=r.index, y_min=r.y_min, width=len(parity), bits=bits)


@dataclass(frozen=True)
class StableConfig:
    """Per-row bit patterns of the full stable configuration for ``2**n`` chips."""

    n: int
    rows: tuple[StableRow, ...]

    @property
    def chip_count(self) -> int:
        return sum(r.chip_count for r in self.rows)

    def marked_points(self) -> Iterator[tuple[int, int]]:
        for r in self.rows:
            yield from r.marked_points()


def stable_configuration(n: int) -> StableConfig:
    """Stable configuration reached from ``2**n`` chips at the origin.

    Rows with no odd arrival count (all rows below n, in particular) carry
    empty patterns.
    """
    rows = tuple(stable_row(r) for r in intermediate_configuration(n))
    return StableConfig(n=n, rows=rows)


@dataclass(frozen=True)
class DistanceDistribution:
    """Chip counts of a stable configuration grouped by ``i = y - x``.

    ``counts[k]`` is the number of chips at distance ``i = k - half_width``;
    the vector runs densely from ``-half_width`` to ``half_width``.  The
    distribution is symmetric, sums to ``2**n``, and has an empty center for
    n >= 1 because the diagonal never keeps a chip.
    """

    n: int
    half_width: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        c = self.counts
        if len(c) != 2 * self.half_width + 1:
            raise ValueError("counts must cover -half_width..half_width densely")
        if any(v < 0 for v in c):
            raise ValueError("counts must be nonnegative")
        if c != c[::-1]:
            raise ValueError("distance distribution must be symmetric")
        if sum(c) != 1 << self.n:
            raise ValueError(f"distribution must sum to 2**{self.n}")
        if self.n >= 1 and c[self.half_width] != 0:
            raise ValueError("center count must be zero for n >= 1")

    def offsets(self) -> range:
        return range(-self.half_width, self.half_width + 1)

    def count(self, i: int) -> int:
        if abs(i) > self.half_width:
            return 0
        return self.counts[i + self.half_width]


def distance_distribution(s: StableConfig) -> DistanceDistribution:
    """Group the chips of ``s`` by distance ``y - x``, counting row by row.

    A configuration whose counts break an invariant of
    :class:`DistanceDistribution` came from a corrupted table, so the
    constructor's ``ValueError`` is raised again as :class:`ChipfireError`.
    """
    counts: Counter[int] = Counter()
    for r in s.rows:
        counts.update(r.distances())
    m = max(map(abs, counts), default=0)
    try:
        return DistanceDistribution(
            n=s.n, half_width=m, counts=tuple(counts[i] for i in range(-m, m + 1))
        )
    except ValueError as exc:
        raise ChipfireError(str(exc)) from exc


def second_raw_moment(d: DistanceDistribution) -> int:
    """Exact integer ``sum(i**2 * count(i))`` over the distribution."""
    m = d.half_width
    return sum((k - m) ** 2 * c for k, c in enumerate(d.counts))


def firing_routes(rows: Iterable[Row]) -> tuple[int, int]:
    """Both firing-count routes over one pass of ``rows``.

    Returns ``(sum of F // 2, second raw moment)``: each point fires
    ``F // 2`` times, and the moment sums ``(y - x)**2`` over the chips that
    stay (the odd entries), counting every firing twice.  On a correct
    table the moment is exactly twice the sum.

    The routes share only the packed row and its parity.  The sum route
    reads every entry through the row total, the moment route only where
    the odd entries sit, so each can catch an error the other cannot see.
    """
    via_sum = mu2 = 0
    for r in rows:
        parity = r.parity
        # The odd entries keep one chip each.
        via_sum += (r.chip_sum() - parity.count(1)) >> 1
        # Distances y - x of the odd entries: the chips that stay.
        first = 2 * r.y_min - r.index
        kept = list(compress(range(first, first + 2 * len(parity), 2), parity))
        mu2 += sum(map(mul, kept, kept))
    return via_sum, mu2


def total_firings_via_moment(n: int) -> int:
    """Total firings to stabilize ``2**n`` chips, via the moment identity.

    Every firing adds exactly 2 to the second raw moment of the chip
    distribution, which starts at 0, so the total is half the final moment.
    """
    mu2 = firing_routes(intermediate_configuration(n))[1]
    if mu2 & 1:
        raise ParityError(f"second raw moment {mu2} is odd for n={n}")
    return mu2 >> 1


def total_firings_via_sum(n: int) -> int:
    """Total firings via direct summation: each point fires ``F // 2`` times."""
    return firing_routes(intermediate_configuration(n))[0]
