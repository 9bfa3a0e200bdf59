"""Stable configuration, distance distribution, and total firing counts.

Once firing stops, a point holds one chip exactly when its arrival count is
odd (it fired away ``2 * (F // 2)`` chips).  By the paper's main theorem the
stable configuration is therefore the parity of the arrival table, and
:attr:`Row.parity` already holds it: one 0/1 byte per entry.  A
:class:`StableRow` is built one way, through its own constructor, which
has nothing to validate; :func:`stable_row` calls it with its arrival
row's index, ``y_min`` and parity.  It keeps those bytes, which need no
second check, and derives everything else from them.  Its chip count is
counted on first read and kept (``core._once``), since three folds of
``verify`` read it.
:func:`stable_configuration` streams one per arrival row.

Grouping the surviving chips by the distance coordinate ``y - x`` gives the
distance distribution, whose second raw moment counts every firing twice: a
firing replaces two chips at distance d with one at d - 1 and one at d + 1,
adding exactly 2 to the moment.  The chips are counted by distance on
lanes, by one accumulator (:class:`_DistanceCounts`): each stable row's
parity bytes, spread one per lane at a stride of two lanes, are added to
one int at the row's first distance, and the counts are read off its lanes
once, at the end.  Rows are staged in 8-bit lanes and moved into 64-bit
lanes every 255 rows, because ``int.from_bytes`` costs in proportion to the
bytes it converts.  The ``verify`` pass keeps one such accumulator too.
:func:`distance_distribution` builds the distribution from those counts,
and :func:`firing_routes` takes the moment from them (:func:`moment`, the
sum of ``d**2`` times the count at d), so no distance is listed chip by
chip.  :func:`total_firings` is the one route to T(n): it runs both firing
counts in one pass (:func:`firing_routes`) and refuses a result on which
they disagree.  :func:`distribution_from_counts` is the one function that
makes a :class:`DistanceDistribution` from distance counts, so its
invariants are checked in one place for the library and for the
``distance-distribution`` check alike.

Everything here depends only on each row's parity and total
(:meth:`Row.chip_sum`), so nothing in this module unpacks the row values.
The accumulator's lanes are its own; this module is one of the five that
read the lane format (see :mod:`chipfire.core`).
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import Iterable, Iterator, Mapping

from .core import ChipfireError, Row, _lanes, _Record, _once, intermediate_configuration


# bytes.translate table writing a 0/1 byte as the digit "0" or "1".
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class ParityError(ChipfireError):
    """An integer that must be even by construction turned out odd."""


class StableRow(_Record):
    """The chips one row keeps after stabilization.

    Byte ``k`` of ``parity`` sits at ``y = y_min + k``, ``x = index - y``
    and is 1 where the arrival count is odd (a chip stays) and 0 where it
    is even.  The bytes span the nonzero entries of the source row, so the
    even (unmarked) positions can be rendered too.  Read-only.
    """

    _fields = ("index", "y_min", "parity")

    def __init__(self, index: int, y_min: int, parity: bytes) -> None:
        self.__dict__.update(index=index, y_min=y_min, parity=parity)

    @property
    def width(self) -> int:
        return len(self.parity)

    @_once
    def chip_count(self) -> int:
        return self.parity.count(1)

    def pattern(self) -> str:
        """The parity as a 0/1 string, leftmost position first."""
        return self.parity.translate(_DIGITS).decode()

    def _points(self) -> Iterator[tuple[int, int]]:
        ys = range(self.y_min, self.y_min + self.width)
        return zip(range(self.index - self.y_min, self.index - ys.stop, -1), ys)

    def marked_points(self) -> Iterator[tuple[int, int]]:
        """``(x, y)`` of each chip in this row, increasing y."""
        return compress(self._points(), self.parity)

    def unmarked_points(self) -> Iterator[tuple[int, int]]:
        """Points of the span whose arrival count was even."""
        return compress(self._points(), map(not_, self.parity))

    def distances(self) -> Iterator[int]:
        """Distance ``y - x`` of each chip, increasing.

        Every position of a row has its own distance, so a row never puts
        two chips at one distance.
        """
        first = 2 * self.y_min - self.index
        return compress(range(first, first + 2 * self.width, 2), self.parity)


def stable_row(r: Row) -> StableRow:
    """The chips row ``r`` keeps: its parity bytes."""
    return StableRow(r.index, r.y_min, r.parity)


def stable_configuration(n: int) -> Iterator[StableRow]:
    """Stream the stable configuration reached from ``2**n`` chips, row by row.

    Rows with no odd arrival count (all rows below n, in particular) carry
    all-zero parity.
    """
    return map(stable_row, intermediate_configuration(n))


class _DistanceCounts:
    """Chip counts by distance ``y - x``, added up one row at a time.

    Position k of a row sits at distance ``2*y_min - index + 2k``, and a row
    never puts two chips at one distance, so the row's parity bytes spread
    at a stride of two lanes are its own counts by distance.  One
    ``bytearray`` slice assignment and one ``int.from_bytes`` build them in
    8-bit lanes, and one shift and add put them in place in ``staged``.
    Every 255 rows, before a lane could overflow, ``staged`` is spread the
    same way into the 64-bit lanes of ``packed`` and cleared; a count is at
    most the number of rows, far below ``2**64`` for every table a stream
    can finish.  Lane j of either int counts the chips at distance
    ``low + j``.  (Spreading each row straight into 64-bit lanes converts
    eight times the bytes per row, and ``int.from_bytes`` costs in
    proportion to them.)
    """

    __slots__ = ("packed", "staged", "rows", "low")

    def __init__(self) -> None:
        self.packed = self.staged = self.rows = self.low = 0

    def add(self, row) -> None:
        """Add the chips of ``row``, anything with ``index``, ``y_min`` and
        ``parity`` (a :class:`Row` or a stable row)."""
        parity = row.parity
        if not parity:
            return
        spread = bytearray(2 * len(parity) - 1)
        spread[::2] = parity
        first = 2 * row.y_min - row.index
        if first < self.low:
            self.packed <<= (self.low - first) * 64
            self.staged <<= (self.low - first) * 8
            self.low = first
        self.staged += int.from_bytes(spread, "little") << (first - self.low) * 8
        self.rows += 1
        if self.rows == 255:
            self._flush()

    def _flush(self) -> None:
        staged = self.staged
        wide = bytearray(staged.bit_length() + 7 & ~7)
        wide[::8] = staged.to_bytes(len(wide) // 8, "little")
        self.packed += int.from_bytes(wide, "little")
        self.staged = self.rows = 0

    def counts(self) -> dict[int, int]:
        """The nonzero counts, keyed by distance."""
        self._flush()
        packed = self.packed
        lanes = _lanes(packed, -(-packed.bit_length() // 64), 64)
        return {self.low + j: c for j, c in enumerate(lanes) if c}


class DistanceDistribution(_Record):
    """Chip counts of a stable configuration grouped by ``i = y - x``.

    ``counts[k]`` is the number of chips at distance ``i = k - half_width``;
    the vector runs densely from ``-half_width`` to ``half_width``.  The
    distribution is symmetric, sums to ``2**n``, and has an empty center for
    n >= 1 because the diagonal never keeps a chip.  Read-only.
    """

    _fields = ("n", "half_width", "counts")

    def __init__(self, n: int, half_width: int, counts: Iterable[int]) -> None:
        c = tuple(counts)
        self.__dict__.update(n=n, half_width=half_width, counts=c)
        if len(c) != 2 * half_width + 1:
            raise ValueError("counts must cover -half_width..half_width densely")
        if any(v < 0 for v in c):
            raise ValueError("counts must be nonnegative")
        if sum(c) != 1 << n:
            raise ValueError(f"{sum(c)} chips, expected 2**{n}")
        if n >= 1 and c[half_width] != 0:
            raise ValueError("chip left on the diagonal")
        if c != c[::-1]:
            raise ValueError("distance distribution must be symmetric")

    def offsets(self) -> range:
        return range(-self.half_width, self.half_width + 1)

    def count(self, i: int) -> int:
        if abs(i) > self.half_width:
            return 0
        return self.counts[i + self.half_width]


def distribution_from_counts(n: int, counts: Mapping[int, int]) -> DistanceDistribution:
    """The distribution of ``2**n`` chips, ``counts[i]`` of them at distance i.

    Counts that break an invariant of :class:`DistanceDistribution` came
    from a corrupted table, so the constructor's ``ValueError`` is raised
    again as :class:`ChipfireError`.
    """
    m = max(map(abs, counts), default=0)
    try:
        return DistanceDistribution(
            n=n, half_width=m, counts=tuple(counts.get(i, 0) for i in range(-m, m + 1))
        )
    except ValueError as exc:
        raise ChipfireError(str(exc)) from exc


def distance_distribution(n: int) -> DistanceDistribution:
    """Group the chips of the stable configuration for ``2**n`` chips by
    distance ``y - x``, counting as the rows stream past."""
    counts = _DistanceCounts()
    for s in stable_configuration(n):
        counts.add(s)
    return distribution_from_counts(n, counts.counts())


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

    The routes share only the packed row and its stable row.  The sum route
    reads every entry through the row total, ``(chip_sum - kept) >> 1`` per
    row; the moment route only where the odd entries sit, through the
    distance counts.  So each can catch an error the other cannot see.
    """
    via_sum = 0
    counts = _DistanceCounts()
    for r in rows:
        s = stable_row(r)
        via_sum += (r.chip_sum() - s.chip_count) >> 1
        counts.add(s)
    return via_sum, moment(counts.counts())


def moment(counts: Mapping[int, int]) -> int:
    """The second raw moment of chip ``counts`` keyed by distance d:
    the sum of ``d**2 * counts[d]``."""
    return sum(d * d * c for d, c in counts.items())


def total_firings(n: int) -> int:
    """T(n), the total firings to stabilize ``2**n`` chips, by both routes.

    Every firing adds exactly 2 to the second raw moment of the chip
    distribution, which starts at 0, so the moment must be twice the direct
    sum of ``F // 2``; :class:`ChipfireError` is raised when it is not.
    """
    via_sum, mu2 = firing_routes(intermediate_configuration(n))
    if mu2 != 2 * via_sum:
        raise ChipfireError(
            f"firing-count routes disagree for n={n}: "
            f"sum route {via_sum}, second moment {mu2} (expected {2 * via_sum})"
        )
    return via_sum
