"""Rows and tables no real ``n`` holds, for tests that feed them to the
checks, the lane folds and the CLI."""

from chipfire.core import Row, _lane_bits, _pack, _trusted, _unpack, intermediate_configuration


def forged_row(index, y_min, values, lane=None):
    """A :class:`Row` of ``values`` as given, unchecked, with its packed view
    in ``lane`` bits (by default the lane of the largest entry)."""
    values = tuple(values)
    if lane is None:
        lane = _lane_bits(max(values, default=0))
    return _trusted(
        Row, index=index, y_min=y_min, values=values,
        packed=_pack(values, lane), lane=lane, width=len(values),
    )


def forged_context(source, packed):
    """``difftable._diff_lanes`` of ``source`` with the difference lanes
    ``packed`` (each entry biased by ``2**(lane-2)``) in place of its own:
    the second differences are rebuilt from those lanes, entry by entry."""
    lane, lanes = source.lane, source.width + 1
    ones = _pack([1] * lanes, lane)
    diffs = [e - (1 << lane - 2) for e in _unpack(packed, lanes, lane)]
    seconds = [b - a + (1 << lane - 1) for a, b in zip((0, *diffs), (*diffs, 0))]
    return packed, lane, ones, ones << lane - 1, _pack(seconds, lane)


def corrupted_table(n):
    """The rows of ``n`` with the ends of the first row of width 3 or more
    raised by one: palindromic and positive, but not the table."""
    rows = list(intermediate_configuration(n))
    i = next(k for k, r in enumerate(rows) if r.width >= 3)
    v = list(rows[i].values)
    v[0] += 1
    v[-1] += 1
    rows[i] = Row(index=rows[i].index, y_min=rows[i].y_min, values=tuple(v))
    return rows
