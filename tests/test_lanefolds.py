"""The lane folds of :mod:`chipfire._lanefolds`, which only ``verify`` runs.

The folds are also compared with entry-by-entry references over real tables
and every lane width in ``test_core.py`` (``TestDiffLaneShape``,
``TestReversalAndSum``), next to the lane context they read.
"""

import pytest

from forge import forged_row
from chipfire import _lanefolds
from chipfire.difftable import diff_row


class TestLaneFolds:
    """The lane folds behind the heavy checks, on rows built without
    validation (the kernel's rows are trusted the same way)."""

    @pytest.mark.parametrize(
        "values,expected",
        [
            ((1, 4, 6, 4, 1), None),
            ((1, 2, 6, 2, 1), (0, 1)),  # a step left of the diagonal below 2
            ((1, 4, 4, 4, 1), (1, 0)),  # a step onto the diagonal below 1
            ((1, 4, 6, 6, 1), (2, 0)),  # a step off the diagonal above -1
            ((1, 4, 6, 4, 3), (3, -1)),  # a step right of the diagonal above -2
        ],
    )
    def test_growth_break(self, values, expected):
        # Row 4: step 0 lies left of the diagonal y = 2, steps 1 and 2 touch
        # it, step 3 lies right of it.
        row = forged_row(4, 0, values)
        assert _lanefolds._growth_break(diff_row(row)) == expected

    @pytest.mark.parametrize("values,expected", [((2, 5, 5, 2), None), ((2, 5, 6, 2), (2, 1))])
    def test_growth_break_across_the_central_pair(self, values, expected):
        # Row 5 of width 4: the central pair straddles the diagonal.
        row = forged_row(5, 1, values)
        assert _lanefolds._growth_break(diff_row(row)) == expected
