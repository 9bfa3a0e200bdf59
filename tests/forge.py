"""Rows built without validation, for tests that feed the checks and lane
folds values no real table holds."""

from chipfire.core import Row, _lane_bits, _pack, _trusted


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
