import pytest
from hypothesis import given, strategies as st

import golden
from chipfire import (
    Row,
    check_bottom_conjecture,
    is_minimal,
    minimal_row,
    minimal_row_sum,
    next_row,
    pascal_row,
    row_profile,
    segment,
)
from chipfire.structure import (
    BottomTriangleReport,
    DegenerateSegmentationError,
    RowProfile,
    Segmentation,
    WidthSummary,
    summarize,
)


class TestPascalRow:
    def test_n4_row3(self):
        assert pascal_row(4, 3) == Row(index=3, y_min=0, values=(2, 6, 6, 2))

    def test_row_zero(self):
        assert pascal_row(7, 0).values == (128,)

    def test_n11_last(self):
        assert pascal_row(11, 11).values == golden.N11_TOP_LAST

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            pascal_row(4, 5)
        with pytest.raises(IndexError):
            pascal_row(4, -1)

    @pytest.mark.parametrize("n", [0, 1, 5, 9])
    def test_matches_stream(self, n, table):
        for i in range(n + 1):
            assert table(n)[i] == pascal_row(n, i)

    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_consecutive_rows_linked_by_firing(self, n, data):
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert next_row(pascal_row(n, i)) == pascal_row(n, i + 1)


class TestRowProfile:
    def test_n0(self):
        assert row_profile(0).lengths == (1,)

    def test_n4(self):
        assert row_profile(4).lengths == (1, 2, 3, 4, 5, 4, 5, 4, 3, 2)

    def test_n9_full_profile(self):
        profile = row_profile(9)
        assert profile.lengths == golden.n9_profile()
        assert len(profile.lengths) == 92

    @pytest.mark.parametrize("n", range(1, 10))
    def test_unit_steps_and_parity(self, n):
        lengths = row_profile(n).lengths
        assert all(abs(b - a) == 1 for a, b in zip(lengths, lengths[1:]))
        assert len(lengths) % 2 == 0


class TestLongestRow:
    """The longest row and its first index, read off the one width fold that
    ``segment`` and ``sequences longest-row`` read."""

    @pytest.mark.parametrize("n,length", [(8, 10), (17, 73)])
    def test_length(self, n, length):
        assert summarize(n).longest == length

    def test_n11(self, table):
        summary = summarize(11)
        assert (summary.longest, summary.first_longest) == (19, golden.N11_LONGEST_FIRST_INDEX)
        values = table(11)[summary.first_longest].values
        assert values == golden.N11_LONGEST
        assert max(values) == 218

    @pytest.mark.parametrize("n", range(12))
    def test_first_longest_is_the_smallest_index(self, n):
        lengths = row_profile(n).lengths
        summary = summarize(n)
        assert summary.longest == max(lengths)
        assert summary.first_longest == lengths.index(max(lengths))


class TestMinimalRows:
    def test_odd_case(self):
        assert minimal_row(3).values == (1, 3, 3, 1)

    def test_even_case(self):
        assert minimal_row(4).values == (1, 3, 4, 3, 1)

    def test_sum_example(self):
        assert minimal_row(5).chip_sum() == 18

    def test_sum_prefix(self):
        assert tuple(minimal_row_sum(j) for j in range(1, 10)) == golden.MINIMAL_ROW_SUMS

    @given(st.integers(min_value=1, max_value=300))
    def test_closed_form_matches_row(self, j):
        assert minimal_row_sum(j) == minimal_row(j).chip_sum()

    @pytest.mark.parametrize("k", range(1, 51))
    def test_odd_closed_form(self, k):
        assert minimal_row_sum(2 * k - 1) == 2 * k * k

    def test_is_minimal(self):
        assert is_minimal(Row(index=3, y_min=0, values=(1, 3, 3, 1)))
        assert is_minimal(Row(index=4, y_min=0, values=(1, 3, 4, 3, 1)))
        assert not is_minimal(Row(index=4, y_min=0, values=(1, 4, 6, 4, 1)))
        assert not is_minimal(Row(index=0, y_min=0, values=(16,)))

    @pytest.mark.parametrize("j", range(2, 65))
    def test_firing_descends_the_ladder(self, j):
        assert next_row(minimal_row(j)).values == minimal_row(j - 1).values

    def test_validation(self):
        with pytest.raises(ValueError):
            minimal_row(0)
        with pytest.raises(ValueError):
            minimal_row_sum(0)


class TestSegmentation:
    def test_n9(self):
        seg = segment(9)
        assert seg.top_triangle == range(0, 10)
        assert seg.midsection == range(10, 23)
        assert seg.rectangle == range(23, 80)
        assert seg.bottom_triangle == range(80, 92)
        assert seg.longest_length == 13
        assert seg.first_longest_row == 24

    def test_n9_part_contents(self, table):
        seg = segment(9)
        lengths = row_profile(9).lengths
        assert [lengths[i] for i in seg.bottom_triangle] == list(range(13, 1, -1))
        assert set(lengths[i] for i in seg.rectangle) == {12, 13}
        rows = table(9)
        assert all(is_minimal(rows[i]) for i in seg.bottom_triangle)

    def test_n1_degenerate(self):
        seg = segment(1)
        assert seg.top_triangle == range(0, 2)
        assert len(seg.midsection) == 0
        assert len(seg.rectangle) == 0
        assert len(seg.bottom_triangle) == 0

    def test_n4(self):
        seg = segment(4)
        assert seg.top_triangle == range(0, 5)
        assert seg.rectangle == range(5, 6)
        assert seg.bottom_triangle == range(6, 10)
        assert len(seg.midsection) == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_partition_covers_all_rows(self, n):
        seg = segment(n)
        covered = [i for _, part in seg.parts() for i in part]
        assert covered == list(range(len(row_profile(n).lengths)))

    def test_precomputed_profile(self):
        profile = row_profile(9)
        assert segment(9, profile=profile) == segment(9)
        with pytest.raises(ValueError):
            segment(8, profile=profile)

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            segment(0)


class TestTerminalRun:
    @staticmethod
    def run(n, lengths):
        run = WidthSummary(n)
        opened = [k for k, width in enumerate(lengths) if run.push(width)]
        return run, opened

    def test_open_run_and_longest(self):
        run, opened = self.run(1, [1, 2, 3, 2, 3, 4, 3, 2])
        assert opened == [0, 1, 2, 4, 5]
        assert (run.start, run.rows, run.longest) == (5, 3, 4)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_start_is_the_bottom_triangle(self, n):
        # segment cuts the run at row n + 1, below the top triangle.
        run, _ = self.run(n, row_profile(n).lengths)
        assert segment(n).bottom_triangle.start == max(run.start, n + 1)


class TestBottomConjecture:
    def test_n9(self):
        rep = check_bottom_conjecture(9)
        assert (rep.holds, rep.triangle_rows, rep.longest_length) == (True, 12, 13)

    def test_n11(self):
        rep = check_bottom_conjecture(11)
        assert rep.holds and rep.triangle_rows == 18 and rep.longest_length == 19

    @pytest.mark.parametrize("n", range(2, 13))
    def test_holds_up_to_12(self, n):
        assert check_bottom_conjecture(n).holds

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            check_bottom_conjecture(1)

    def test_counts_rows_shared_with_the_top_triangle(self):
        # For n=2 the terminal run reaches into the scaled binomial rows.
        rep = check_bottom_conjecture(2)
        assert rep.triangle_rows == 2
        assert len(segment(2).bottom_triangle) == 1


def forward_start(lengths, floor):
    """Start of the run open after ``lengths`` read forward, where a run
    also opens at position ``floor``."""
    start = 0
    for k, width in enumerate(lengths):
        if k == 0 or k == floor or width != lengths[k - 1] - 1:
            start = k
    return start


def listed_partition(parts, total):
    """Whether the rows of ``parts``, listed in order, are rows 0..total-1."""
    return [i for part in parts for i in part] == list(range(total))


def reference_segment(n, lengths):
    """:func:`segment` as it read the widths forward, opening a run at row
    n + 1, walked the rectangle back from the bottom triangle, and listed
    the rows of its four ranges to check them."""
    total, longest = len(lengths), max(lengths)
    top = range(0, n + 1)
    if total <= n + 1:
        bottom = rect = range(total, total)
        mid = range(n + 1, total)
    else:
        b = forward_start(lengths, n + 1)
        r = b
        while r - 1 >= n + 1 and lengths[r - 1] >= longest - 1:
            r -= 1
        bottom, rect, mid = range(b, total), range(r, b), range(n + 1, r)
    if not listed_partition((top, mid, rect, bottom), total):
        return DegenerateSegmentationError
    return Segmentation(n, top, mid, rect, bottom, longest, lengths.index(longest))


def reference_report(n, lengths):
    """:func:`check_bottom_conjecture` read off the listed widths: the
    terminal run, uncut, against the longest width."""
    rows, longest = len(lengths) - forward_start(lengths, None), max(lengths)
    return BottomTriangleReport(n, rows == longest - 1, rows, longest)


@st.composite
def width_lists(draw, min_size=0):
    """Widths with runs stepping down by 1 among random ones."""
    chunks = draw(st.lists(st.one_of(
        st.integers(0, 9).map(lambda w: [w]),
        st.tuples(st.integers(1, 9), st.integers(1, 6)).map(
            lambda t: list(range(t[0], max(t[0] - t[1], 0), -1))
        ),
    ), min_size=min_size, max_size=8))
    return [w for chunk in chunks for w in chunk]


def any_widths(min_size=0):
    """Shaped widths, or widths with steps of any size."""
    return st.one_of(width_lists(min_size), st.lists(st.integers(0, 9), min_size=min_size))


class TestSummaryFold:
    """The one-pass :class:`WidthSummary` against the references above,
    which list the widths and walk them back."""

    @given(st.integers(1, 8), any_widths(min_size=1))
    def test_segment_matches_the_reference(self, n, lengths):
        try:
            got = segment(n, RowProfile(n, tuple(lengths)))
        except DegenerateSegmentationError:
            got = DegenerateSegmentationError
        assert got == reference_segment(n, lengths)

    @pytest.mark.parametrize("lengths, rectangle", [
        # The longest width is the same since the terminal run opened, grew
        # by 1 at its first row, or grew by 2.
        ((1, 1, 4, 5, 5, 4, 3), range(2, 4)),
        ((4, 4, 4, 5, 5, 6, 5, 4), range(3, 5)),
        ((4, 5, 5, 7, 6, 5), range(3, 3)),
    ])
    def test_rectangle_as_the_longest_width_grows(self, lengths, rectangle):
        seg = segment(1, RowProfile(1, lengths))
        assert seg.rectangle == rectangle
        assert seg == reference_segment(1, list(lengths))

    @given(st.integers(1, 8), any_widths(min_size=1))
    def test_every_prefix_matches_the_reference(self, n, lengths):
        summary = WidthSummary(n)
        for k, width in enumerate(lengths, 1):
            summary.push(width)
            try:
                got = summary.segmentation()
            except DegenerateSegmentationError:
                got = DegenerateSegmentationError
            assert got == reference_segment(n, lengths[:k])

    @given(st.integers(1, 8), any_widths())
    def test_degenerate_exactly_when_shorter_than_the_top_triangle(self, n, lengths):
        # Empty profiles included.
        profile = RowProfile(n, tuple(lengths))
        if len(lengths) < n + 1:
            with pytest.raises(DegenerateSegmentationError):
                segment(n, profile)
        else:
            parts = [part for _, part in segment(n, profile).parts()]
            assert listed_partition(parts, len(lengths))

    @given(st.integers(2, 8), any_widths(min_size=1))
    def test_report_matches_the_reference(self, n, lengths):
        rep = check_bottom_conjecture(n, RowProfile(n, tuple(lengths)))
        assert rep == reference_report(n, lengths)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_real_tables(self, n):
        lengths = row_profile(n).lengths
        assert segment(n) == reference_segment(n, lengths)
        if n >= 2:
            assert check_bottom_conjecture(n) == reference_report(n, lengths)
