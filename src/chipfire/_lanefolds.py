"""The lane folds of the heavy table checks of :mod:`chipfire.checks`.

These checks are folds over whole rows of lanes in the format of
:mod:`chipfire.core` (ints as wide as the row, not one Python object per
entry):

- ``row-symmetry`` (:func:`_is_palindrome`) and ``diff-antisymmetry``
  (:func:`_antisymmetric_diffs`) compare the lanes with their reverse
  (:func:`_reversed`): as cast memoryviews, one element per lane, where a
  lane fits a native format, and one byte plane at a time in lanes of 128
  or 256 bits;
- ``row-contiguity`` (:func:`_has_gap`) is the SWAR zero-lane test;
- ``monotone-steps`` (:func:`_growth_break`) and ``diff-local-propagation``
  (:func:`_rises_and_falls`, :func:`_propagation_break`) read the top bits
  of the biased first and second differences of the context that
  :func:`chipfire.difftable._diff_lanes` builds;
- ``diff-telescoping`` (:func:`_telescoping_break`) rebuilds the row from
  its differences by multiplying with the all-ones int.

A row that fails has its first offending lane found by its lowest set bit,
and only that lane is read for the check's detail.

Only ``verify`` runs these folds, so they live apart from the kernel,
which every command compiles, and only :mod:`chipfire.checks` imports
this module.  This is one of the five modules that read the lane format
(see :mod:`chipfire.core`).
"""

from __future__ import annotations

from .core import _FORMATS, Row
from .difftable import _diff_constants

# bytes.translate tables taking a byte to its top bit, or the complement of
# its top bit.
_TOP_BIT = b"\0" * 128 + b"\1" * 128
_TOP_CLEAR = b"\1" * 128 + b"\0" * 128


def _reversed(a: int, b: int, width: int, lane: int) -> bool:
    """Whether the ``width`` lanes of ``b`` are those of ``a`` in reverse order.

    Lanes of at most 64 bits are compared as cast memoryviews, one element
    per lane, at C speed; two elements are equal exactly when their bytes
    are, so the host's byte order plays no part.  Wider lanes are compared
    one byte plane at a time: plane k holds byte k of every lane, and
    reversing the lanes reverses every plane.
    """
    size = lane // 8
    a_raw = a.to_bytes(width * size, "little")
    b_raw = a_raw if b is a else b.to_bytes(width * size, "little")
    if size <= 8:
        fmt = _FORMATS[size]
        return memoryview(a_raw).cast(fmt) == memoryview(b_raw).cast(fmt)[::-1]
    for k in range(size):
        if a_raw[k::size] != b_raw[k::size][::-1]:
            return False
    return True


def _lowest_lane(bits: int, lane: int) -> int:
    """The lane holding the lowest set bit of ``bits`` (nonzero)."""
    return ((bits ^ (bits - 1)).bit_length() - 1) // lane


# The lane folds of the table checks in :mod:`chipfire.checks`.  Each reads a
# whole row with a few int operations; a failure reads the one lane it
# reports.


def _is_palindrome(r: Row) -> bool:
    """Whether the entries of ``r`` read the same in both directions."""
    packed = r.packed
    return _reversed(packed, packed, r.width, r.lane)


def _has_gap(r: Row) -> bool:
    """Whether a lane of ``r`` holds 0.

    The SWAR zero-lane test: subtracting 1 from every lane sets a lane's top
    bit only where the lane borrows, which is in a zero lane, or in a lane
    holding 1 above a lane that borrowed, so above a zero lane.  No lane of
    a row has its top bit set, so the test's usual ``& ~packed`` term, which
    clears the lanes that had it, is not needed.

    The constants are the cached ones of the row's difference row
    (:func:`_diff_constants`), one lane wider: the ones shifted down one
    lane, and the top bits as they are.  The extra top bit is set only when
    the difference is negative, which takes a zero lane.
    """
    lane, width = r.lane, r.width
    ones, top, _, _ = _diff_constants(lane, width + 1)
    return bool((r.packed - (ones >> lane)) & top)


def _growth_break(d) -> tuple[int, int] | None:
    """``(y, step)`` of the first step of the source row of the difference
    row ``d`` that breaks the growth rule.

    Step k, from ``y_min + k`` to the next position, is ``v[k+1] - v[k]``:
    lane ``k + 1`` of ``difftable._diff_lanes``, which holds it plus
    ``B = 2**(lane-2)``.  Steps strictly left of the diagonal must be at
    least 2 (lane ``+ B - 2`` reaches the top bit ``2B``), steps strictly
    right of it at most -2 (``3B - 2 -`` lane reaches it), and the one or two
    steps touching the diagonal are read one by one: at least 1 onto it, at
    most -1 off it, 0 across the central pair of an even-width row.
    """
    r = d.source
    i, y0, steps = r.index, r.y_min, r.width - 1
    if steps <= 0:
        return None
    # Steps before ``left`` lie strictly left of the diagonal, steps from
    # ``right`` on strictly right of it.
    left = (i - 1) // 2 - y0
    left = 0 if left < 0 else steps if left > steps else left
    right = (i + 2) // 2 - y0
    right = left if right < left else steps if right > steps else right
    packed, lane, ones, top, _ = d._diff_lanes
    bias = 1 << lane - 2
    # The top bits of lanes 1 .. left, then of lanes right + 1 .. steps;
    # a bad lane is one whose top bit is clear, read without negative ints
    # as in ``difftable._lane_shape``.
    lefts = top & (1 << (left + 1) * lane) - (1 << lane)
    bad = lefts ^ (lefts & (packed + (bias - 2) * ones))
    if not bad:
        # The step from y to y + 1, with the diagonal y = i / 2 at or
        # between its ends.
        for y in range(y0 + left, y0 + right):
            step = (packed >> (y - y0 + 1) * lane & (1 << lane) - 1) - bias
            if not (step >= 1 if 2 * y + 2 == i else step <= -1 if 2 * y == i else step == 0):
                return y, step
        rights = top & (1 << (steps + 1) * lane) - (1 << (right + 1) * lane)
        bad = rights ^ (rights & ((3 * bias - 2) * ones - packed))
        if not bad:
            return None
    k = _lowest_lane(bad, lane) - 1
    return y0 + k, (packed >> (k + 1) * lane & (1 << lane) - 1) - bias


def _antisymmetric_diffs(d) -> bool:
    """Whether every entry of the difference row ``d`` cancels its mirror.

    Lane k of ``2 * 2**(lane-2) * ones - packed`` holds minus entry k,
    biased like ``packed``; the row is antisymmetric when those lanes are
    the lanes of ``packed`` in reverse order.
    """
    packed, lane, _, top, _ = d._diff_lanes
    return _reversed(packed, top - packed, d.source.width + 1, lane)


def _rises_and_falls(d) -> tuple[int, int]:
    """Where the difference row ``d`` weakly rises, and where it strictly
    falls, one byte each.

    Byte j of the first is 1 when entry j is at least entry j - 1, for
    j = 0 .. width of the difference row (entries outside it are 0), and
    byte j of the second is 1 where that byte of the first is 0.  Lane j of
    the second differences of its lane context (``difftable._diff_lanes``) holds
    ``e_j - e_{j-1} + 2**(lane-1)``, so its top bit is the rise flag; the
    top byte of each lane, translated to its top bit or to that bit's
    complement, becomes that lane's byte.
    """
    width = d.source.width
    _, lane, _, _, second = d._diff_lanes
    size = lane // 8
    raw = second.to_bytes((width + 2) * size, "little")[size - 1 :: size]
    return (
        int.from_bytes(raw.translate(_TOP_BIT), "little"),
        int.from_bytes(raw.translate(_TOP_CLEAR), "little"),
    )


def _propagation_break(above: Row, above_rises: int, below: Row, below_falls: int) -> int | None:
    """The first y where the difference row of ``above`` rises weakly twice,
    over three entries in its left half, while the difference row of
    ``below`` falls strictly under the last two of them; None if nowhere.

    The flags are those of :func:`_rises_and_falls`.  A triple starting at
    position k (``y = y_min + k``) rises where rise flags k + 1 and k + 2
    are set; the entries under its last two sit at ``y + 1`` and ``y + 2``,
    and the fall between them is fall flag ``y + 2 - below.y_min``.
    """
    y_min = above.y_min
    triples = min(above.width - 1, (above.index + 1) // 2 - 1 - y_min)
    if triples <= 0:
        return None
    # Byte k: whether the triple starting at position k rises.
    pairs = above_rises >> 8 & above_rises >> 16 & (1 << 8 * triples) - 1
    shift = 8 * (y_min + 2 - below.y_min)
    falls = below_falls >> shift if shift >= 0 else below_falls << -shift
    hits = pairs & falls
    return y_min + _lowest_lane(hits, 8) if hits else None


def _telescoping_break(d) -> tuple[int, int | None] | None:
    """Where the partial sums of the difference row ``d`` fail to rebuild
    its source row.

    ``(k, None)`` when the sum up to position k misses entry k of the row,
    ``(width, total)`` when all match but the full sum ``total`` is not 0,
    None when the row telescopes.

    Multiplying the unbiased difference int by the all-ones int of at least
    ``width + 1`` lanes puts the partial sum up to k in lane k, with its sign
    carried into the lanes above.  The multiplier is taken as the product
    ``(1 + X)(1 + X**2)(1 + X**4)...`` with ``X = 2**lane``, one shift and
    add per factor.  The lowest set bit of the product minus the row then
    lies in the lowest lane that differs, because no difference there
    reaches ``2**lane``.
    """
    source = d.source
    width = source.width
    packed, lane, ones, _, _ = d._diff_lanes
    span = (width + 1) * lane
    sums = packed - (ones << lane - 2)
    shift = lane
    while shift < span:
        sums += sums << shift
        shift += shift
    miss = (sums - source.packed) & (1 << span) - 1
    if not miss:
        return None
    k = _lowest_lane(miss, lane)
    if k < width:
        return k, None
    mask = (1 << lane) - 1
    last = (source.packed >> (width - 1) * lane & mask) + (packed >> width * lane & mask)
    return width, last - (1 << lane - 2)

