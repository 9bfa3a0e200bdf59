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

A :class:`DiffRow` is a function of its arrival row alone and keeps that
row, its lane context and the length of its left half, clamped to its
lanes (``_half``, which :func:`_lane_shape` reads).  It is
built one way, through its own constructor, which has nothing to validate
and stores its fields one item at a time; :func:`diff_row` calls it with
the index and ``y_min`` that follow from the arrival row.  The constructor
builds the context by :func:`_diff_lanes`, the one builder of it, from one
read of the constants: the first differences of the source row packed in
its own lane format (:mod:`chipfire.core`), as one whole-row expression,
``packed + bias - (packed << W)``, where ``bias`` holds ``2**(W-2)`` in
every lane; the row's all-ones and top-bit constants; and the second
differences, biased by ``2**(W-1)``, so that their signs show in the
lanes' top bits.  Those take three more whole-row operations,
``diff + close - (diff << W)``, with one constant ``close`` that adds the
bias to every lane and closes the row with its zero last entry.  The
constants depend only on the lane and the number of lanes, so
:func:`_diff_constants` builds them once per ``(W, lanes)`` and
``functools.lru_cache`` keeps the last eight: widths move by one lane per
row, so a few entries serve a whole stream.  Every reader of the row, and
every lane fold of ``verify`` (:mod:`chipfire._lanefolds`), shares the one
context, so each row packs its differences and takes its second
differences once.  This module is one of the five that read the lane
format (see :mod:`chipfire.core`).

The ``values`` are read on their first read, off the difference lanes
(:func:`_diff_values`), as signed lanes: adding the bias once more and
flipping each lane's top bit, ``(packed + bias) ^ top``, leaves every
entry in two's complement, which ``memoryview.cast("b"/"h"/"i"/"q")``
reads as signed ints (lanes of 128 or 256 bits, or a big-endian host,
slice the bytes with ``signed=True``).  The sign maps and the CLI read
them.  :func:`unimodal_check` and :func:`row_max_abs` read no values: they
read the row's shape (:func:`_lane_shape`), taken off the context with
whole-row operations on nonnegative ints only (CPython runs ``~x`` and
``x & -x`` through a two's-complement copy of the row).  The signs of the
second differences give the shape of the left half, and two lane
comparisons prove that the left half's peak bounds every entry.  Only a
row that fails that proof (never a row of a correct table) has its
largest entry taken from its values.  The values and the shape are each
computed on first read and kept in the row (``core._once``), so the two
readers of the shape share one computation of it per streamed row.

Nothing here checks antisymmetry: the source rows of a table are not
validated, so a corrupted table reaches the ``diff-antisymmetry`` check of
:mod:`chipfire.checks`, the one place that tests it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple

from .core import Row, _lanes, _Record, _once, _repeat, intermediate_configuration


# Widths move by one lane per row, so the last few of these serve a whole
# stream.
@lru_cache(maxsize=8)
def _diff_constants(lane: int, lanes: int) -> tuple[int, int, int, int]:
    """``(ones, top, bias, close)`` of a difference row of ``lanes`` lanes:
    1 in each lane, the top bit of each, ``2**(lane-2)`` in each, and the
    term that closes the second differences (:func:`_diff_lanes`)."""
    ones = _repeat(1, lane, lanes)
    top = ones << lane - 1
    # ``diff + close - (diff << lane)`` holds ``2**(lane-1)`` plus the
    # second difference in every lane: the biases of neighbouring lanes
    # cancel and ``top`` adds it, except in lane 0, which has no lane below
    # and keeps one bias, and in lane ``lanes``, the closing zero, which
    # loses the bias of the last lane.
    close = top - (1 << lane - 2) + (3 << lanes * lane + lane - 2)
    return ones, top, ones << lane - 2, close


def _diff_lanes(source: Row) -> tuple[int, int, int, int, int]:
    """``(packed, lane, ones, top, second)``, the lane context of the
    difference row of ``source`` that every lane fold reads, built from one
    read of :func:`_diff_constants`; ``DiffRow`` keeps it, so one pass
    builds it once per row.

    Lane k of ``packed`` holds ``e_k + 2**(lane-2)`` for the
    ``source.width + 1`` entries ``e_k = v[k] - v[k-1]`` of the difference
    row (``v`` is zero outside the row); ``ones`` holds 1 in each of those
    lanes and ``top`` the top bit of each.  ``second`` holds the second
    differences, closed by the zero entry past the row: lane j holds
    ``e_j - e_{j-1} + 2**(lane-1)`` for j = 0 .. ``source.width + 1``
    (``e`` is zero outside the row).  Every entry lies strictly between
    ``-2**(lane-2)`` and ``2**(lane-2)``, so every lane of ``packed`` is
    positive and below ``2**(lane-1)``, every lane of ``second`` positive
    and below ``2**lane``, and no borrow crosses a lane.
    """
    lane, packed = source.lane, source.packed
    ones, top, bias, close = _diff_constants(lane, source.width + 1)
    diff = packed + bias - (packed << lane)
    return diff, lane, ones, top, diff + close - (diff << lane)


def _diff_values(d) -> tuple[int, ...]:
    """The entries of the difference row ``d``, read off the difference
    lanes of its context (:func:`_diff_lanes`; ``()`` for an empty source
    row).

    Adding the bias ``2**(lane-2)`` (the top bits shifted down one bit) once
    more puts ``e + 2**(lane-1)`` in every lane, strictly between
    ``2**(lane-2)`` and ``3 * 2**(lane-2)``, so no carry crosses a lane;
    flipping the top bit of every lane then leaves ``e`` in two's
    complement, and the lanes read as signed ints.
    """
    width = d.source.width
    if not width:
        return ()
    packed, lane, _, top, _ = d._diff_lanes
    return tuple(_lanes((packed + (top >> 1)) ^ top, width + 1, lane, signed=True))


def _lane_shape(d) -> tuple[bool, int | None]:
    """The shape of the difference row ``d`` read off its lane context
    (:func:`_diff_lanes`): whether its left half (its first ``half``
    entries, those with ``y <= x``) is unimodal, and its largest absolute
    entry, or None where the lanes cannot prove it.

    Lane j of the second differences holds ``s_j + 2**(lane-1)`` with
    ``s_j = e_j - e_{j-1}`` and ``e_{-1} = 0`` (the implicit margin).  Its
    top bit is clear exactly when ``s_j < 0`` (a strict fall), and
    ``s_j - 1`` keeps it set exactly when ``s_j > 0`` (a strict rise).  The
    first ``half`` entries are unimodal when every rise among their lanes
    sits below the lowest fall: when the rise flags have fewer bits than
    the lowest fall's position plus one, read as
    ``(falls ^ (falls - 1)).bit_length()``.

    The candidate for the largest entry ``c`` is their peak: the entry just
    before the first fall (the margin 0 if that is the first entry), or the
    last of them if none falls.  Two whole-row comparisons then show that
    every entry ``e`` lies in ``[-c, c]``: with ``m = (c + 2**(lane-2)) *
    ones``, lane k of ``m + top - packed`` holds ``c - e + 2**(lane-1)``
    and lane k of ``packed + m`` holds ``e + c + 2**(lane-1)``, both
    positive and below ``2**lane``, with the top bit set exactly when the
    bound holds.

    No operation here takes a negative int: CPython runs ``~x`` and the
    ``&`` of a negative int through a two's-complement copy of the whole
    row, so a clear bit is read as ``x ^ (x & y)`` instead of ``x & ~y``.
    """
    packed, lane, ones, top, second = d._diff_lanes
    bias = 1 << lane - 2
    width = d.source.width
    half = d._half
    # The top bits of the first ``half`` lanes: every lane of ``top`` is
    # alike, so dropping its upper lanes shifts the rest into place.
    tops = top >> (width + 1 - half) * lane
    falls = tops ^ (second & tops)
    if falls:
        # Bit ``low - 1`` is the top bit of the lane of the first fall.
        low = (falls ^ (falls - 1)).bit_length()
        unimodal = ((second - ones) & tops).bit_length() < low
        peak = low // lane - 2
    else:
        unimodal, peak = True, half - 1
    c = (packed >> peak * lane & (1 << lane) - 1) - bias if peak >= 0 else 0
    m = (c + bias) * ones
    if (m + top - packed) & (packed + m) & top != top:
        return unimodal, None
    return unimodal, c


class DiffRow(_Record):
    """One row of the difference table, trimmed like its source row.

    ``values[k]`` sits at ``y = y_min + k``, ``x = index - y``.  ``source``
    is arrival row ``index - 1``; on a correct table the values are
    antisymmetric, entry k equals minus entry ``len(values) - 1 - k``.
    Read-only.
    """

    _fields = ("index", "y_min", "source")

    def __init__(self, index: int, y_min: int, source: Row) -> None:
        fields = self.__dict__
        fields["index"] = index
        fields["y_min"] = y_min
        fields["source"] = source
        fields["_diff_lanes"] = _diff_lanes(source)
        # ``_half``, the length of the left half: y = y_min + k <= index - y
        # <=> k <= index // 2 - y_min, clamped to the row's lanes (none for
        # an empty source row).  Conditionals, not min and max: it is built
        # for every difference row.
        half, width = index // 2 - y_min + 1, source.width
        width += 1 if width else 0
        fields["_half"] = 0 if half < 0 else width if half > width else half

    values = _once(_diff_values)
    _lane_shape = _once(_lane_shape)


def diff_row(prev: Row) -> DiffRow:
    """Difference row ``prev.index + 1`` computed from arrival row ``prev``."""
    return DiffRow(prev.index + 1, prev.y_min, prev)


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
