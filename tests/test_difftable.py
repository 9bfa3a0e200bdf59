from itertools import accumulate
from operator import sub

import pytest
from hypothesis import given, strategies as st

import golden
from forge import forged_context, forged_row, initial_row
from chipfire import checks, core, difftable
from chipfire import (
    DiffRow,
    Row,
    diff_row,
    diff_table,
    intermediate_configuration,
    next_row,
    row_max_abs,
    sign_map,
    unimodal_check,
)
from chipfire.checks import run_checks


def antisym(left, index=None):
    """The difference row whose left half is ``left``, mirrored exactly:
    the difference row of the partial sums of the mirrored row."""
    values = tuple(left) + tuple(-v for v in reversed(left))
    if index is None:
        index = len(values) - 1
    source = tuple(accumulate(values))[:-1]
    return diff_row(Row(index=index - 1, y_min=0, values=source))


def passes_antisymmetry_check(values):
    """Whether the diff-antisymmetry check passes a one-row table whose
    difference row holds ``values``, set in the lanes the check reads.

    The source row has one entry fewer than ``values`` (a one-entry
    difference row sits on an empty source, which has one lane of
    differences); the lanes of an empty ``values`` are the source's own.
    """
    width = max(len(values) - 1, 0)
    source = forged_row(width, 0, (1,) * width)
    real = difftable._diff_lanes

    def forced(r):
        if not values:
            return real(r)
        lane = r.lane
        return forged_context(r, core._pack([v + (1 << lane - 2) for v in values], lane))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "intermediate_configuration", lambda n: iter([source]))
        mp.setattr(difftable, "_diff_lanes", forced)
        (result,) = run_checks(0, properties=["diff-antisymmetry"])
    return result.passed


def _mirror(left, middle):
    return left + middle + [-x for x in reversed(left)]


antisymmetric_lists = st.builds(
    _mirror,
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
    st.sampled_from([[], [0]]),
)


def perturbed(values):
    """``values`` with one entry (often the middle one) changed by a nonzero delta."""
    if not values:
        return st.just([1])
    return st.tuples(
        st.sampled_from([len(values) // 2, 0, len(values) - 1]),
        st.integers(min_value=-3, max_value=3).filter(bool),
    ).map(lambda kd: values[: kd[0]] + [values[kd[0]] + kd[1]] + values[kd[0] + 1 :])


class TestDiffRow:
    def test_root_row(self):
        d = diff_row(Row(index=0, y_min=0, values=(16,)))
        assert (d.index, d.y_min, d.values) == (1, 0, (16, -16))

    def test_second_row(self):
        d = diff_row(Row(index=1, y_min=0, values=(8, 8)))
        assert d.values == (8, 0, -8)

    def test_empty(self):
        d = diff_row(Row(index=6, y_min=0, values=()))
        assert (d.index, d.values, d._half) == (7, (), 0)

    def test_fields(self):
        # A difference row is its arrival row, where it sits, the lane
        # context of its differences and the length of its left half (y = 1,
        # 2, 3 of row 6), built with it; nothing else.
        source = Row(index=5, y_min=1, values=(2, 5, 5, 2))
        fields = {"index": 6, "y_min": 1, "source": source}
        built = {**fields, "_diff_lanes": difftable._diff_lanes(source), "_half": 3}
        assert vars(diff_row(source)) == built
        assert vars(DiffRow(**fields)) == built

    def test_offset_is_preserved(self):
        d = diff_row(Row(index=5, y_min=1, values=(2, 5, 5, 2)))
        assert (d.index, d.y_min, d.values) == (6, 1, (2, 3, 0, -3, -2))

    # Antisymmetry is tested in one place, the diff-antisymmetry check.

    def test_rejects_asymmetric_values(self):
        assert not passes_antisymmetry_check((3, -2))

    @pytest.mark.parametrize("values", [(3, 1, -3), (1,), (-2,), (5, 0, 0, 5)])
    def test_rejects_nonzero_middle_and_sign_slips(self, values):
        assert not passes_antisymmetry_check(values)

    @given(
        st.one_of(
            st.lists(st.integers(min_value=-3, max_value=3), max_size=9),
            antisymmetric_lists,
            antisymmetric_lists.flatmap(perturbed),
        )
    )
    def test_accepts_exactly_the_antisymmetric(self, values):
        v = tuple(values)
        assert passes_antisymmetry_check(v) == (v == tuple(-x for x in reversed(v)))

    @pytest.mark.parametrize(
        "d,left",
        [
            (antisym([4, 4], index=3), (4, 4)),
            (diff_row(Row(index=1, y_min=0, values=(8, 8))), (8, 0)),
            (diff_row(Row(index=0, y_min=0, values=(16,))), (16,)),
        ],
    )
    def test_left_half(self, d, left):
        # The left half is the entries with y <= x: the diagonal entry of an
        # odd-length row, none past the middle of an even-length one.
        assert d._half == len(left)
        assert d.values[: d._half] == left


class TestDiffTable:
    @pytest.mark.parametrize("n", [4, 7, 11])
    def test_top_rows(self, n):
        got = [d.values for d in diff_table(n)][:5]
        assert got == list(golden.diff_top_rows(n))

    def test_runs_one_past_the_last_row(self, table):
        diffs = list(diff_table(4))
        assert [d.index for d in diffs] == list(range(1, 11))
        assert diffs[-1].values == (1, 0, -1)

    def test_n11_landmark_diffs(self, table):
        diffs = {d.index: d for d in diff_table(11)}
        top = diffs[12]
        assert top.values == golden.N11_TOP_LAST_DIFF
        longest = diffs[golden.N11_LONGEST_FIRST_INDEX + 1]
        assert longest.values == golden.N11_LONGEST_DIFF

    def test_n11_bottom_first_diff(self, table):
        source = next(r for r in table(11) if r.values == golden.N11_BOTTOM_FIRST)
        assert source.index == 208
        assert diff_row(source).values == golden.N11_BOTTOM_FIRST_DIFF

    @pytest.mark.parametrize("n", range(0, 9))
    def test_antisymmetry_everywhere(self, n):
        for d in diff_table(n):
            L = len(d.values)
            assert all(d.values[k] == -d.values[L - 1 - k] for k in range(L))

    @pytest.mark.parametrize("n", range(0, 9))
    def test_prefix_sums_rebuild_the_source_row(self, n, table):
        for r, d in zip(table(n), diff_table(n)):
            running = 0
            rebuilt = []
            for dv in d.values:
                running += dv
                rebuilt.append(running)
            assert rebuilt[-1] == 0
            assert tuple(rebuilt[:-1]) == r.values


class TestRowMaxAbs:
    def test_simple(self):
        assert row_max_abs(diff_row(Row(index=0, y_min=0, values=(16,)))) == 16

    def test_empty(self):
        assert row_max_abs(diff_row(Row(index=4, y_min=0, values=()))) == 0

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_prefix_formula(self, n):
        got = [row_max_abs(d) for d in diff_table(n)][:5]
        assert got == list(golden.diff_max_prefix(n))

    @pytest.mark.parametrize("n", range(0, 13))
    def test_equals_largest_absolute_entry(self, n):
        for d in diff_table(n):
            assert row_max_abs(d) == max(map(abs, d.values))

    def test_exact_on_an_asymmetric_row(self):
        # Nothing checks antisymmetry on construction, so the largest absolute
        # entry of a corrupted row may be negative: (1, 2, 8) gives
        # (1, 1, 6, -8).  The left half peaks at 6, the lanes cannot prove
        # -8 >= -6, and the values decide.
        d = diff_row(forged_row(3, 0, (1, 2, 8)))
        assert "values" not in vars(d)
        assert row_max_abs(d) == 8
        assert "values" in vars(d)
        assert d.values == (1, 1, 6, -8)

    def test_exact_when_an_entry_passes_the_peak(self):
        # (4, 1, 6, 3, 3) gives (4, -3, 5, -3, 0, -3): the left half
        # (4, -3, 5) falls after 4, but 5 > 4 follows.
        d = diff_row(forged_row(4, 0, (4, 1, 6, 3, 3)))
        assert row_max_abs(d) == 5
        assert d.values == (4, -3, 5, -3, 0, -3)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_nonincreasing_from_row_two(self, n):
        maxima = [row_max_abs(d) for d in diff_table(n)]
        assert all(maxima[k + 1] <= maxima[k] for k in range(1, len(maxima) - 1))


def reference_values(d):
    """The entries of ``d`` from the unpacked values of its source row."""
    v = d.source.values
    return (v[0], *map(sub, v[1:], v), -v[-1]) if v else ()


def reference_row_max_abs(d):
    """The largest absolute entry, entry by entry."""
    return max(map(abs, reference_values(d)), default=0)


def reference_unimodal(d):
    """Walk the margin zero and the left half: weakly up, then weakly down."""
    seq = (0,) + reference_values(d)[: d._half]
    k = 0
    last = len(seq) - 1
    while k < last and seq[k + 1] >= seq[k]:
        k += 1
    while k < last and seq[k + 1] <= seq[k]:
        k += 1
    return k == last


#: Arrival-row entries: small, past 2**64 and past 2**128.
entries = st.one_of(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=2**70),
    st.integers(min_value=1, max_value=2**130),
)


@st.composite
def antisymmetric_rows(draw):
    """Difference rows of unchecked palindromic rows, with the left half
    cut anywhere."""
    left = draw(st.lists(entries, max_size=9))
    middle = draw(st.lists(entries, max_size=1))
    values = left + middle + left[::-1]
    y_min = draw(st.integers(min_value=0, max_value=3)) if values else 0
    index = max(y_min + len(values) - 1, 0) + draw(st.integers(min_value=0, max_value=3))
    return diff_row(forged_row(index, y_min, values))


@st.composite
def asymmetric_rows(draw):
    """Difference rows that diff_row takes from unchecked positive rows."""
    values = draw(st.lists(st.one_of(st.integers(1, 40), st.integers(1, 2**70)), min_size=1, max_size=9))
    y_min = draw(st.integers(min_value=0, max_value=3))
    index = y_min + len(values) - 1 + draw(st.integers(min_value=0, max_value=3))
    return diff_row(forged_row(index, y_min, values))


class TestLaneReaders:
    """row_max_abs and unimodal_check read the packed lanes; the references
    walk the values."""

    @pytest.mark.parametrize("n", range(0, 19))
    def test_match_the_references_on_real_tables(self, n):
        for d in diff_table(n):
            assert row_max_abs(d) == reference_row_max_abs(d)
            assert unimodal_check(d) == reference_unimodal(d)

    @given(st.one_of(antisymmetric_rows(), asymmetric_rows()))
    def test_match_the_references(self, d):
        assert row_max_abs(d) == reference_row_max_abs(d)
        assert unimodal_check(d) == reference_unimodal(d)

    @pytest.mark.parametrize("n", range(0, 15))
    def test_values_match_the_reference_on_real_tables(self, n):
        for d in diff_table(n):
            assert d.values == reference_values(d)

    @pytest.mark.parametrize("exponent,lane", [(100, 128), (126, 256)])
    def test_values_on_wide_lanes(self, exponent, lane):
        # Lanes wider than 64 bits are read by slicing the bytes.
        r = initial_row(exponent)
        assert r.lane == lane
        for _ in range(40):
            d = diff_row(r)
            assert d.values == reference_values(d)
            r = next_row(r)
        assert r.lane == lane

    @given(st.one_of(antisymmetric_rows(), asymmetric_rows()))
    def test_values_match_the_reference(self, d):
        assert d.values == reference_values(d)

    def test_values_read_no_source_values(self, monkeypatch):
        expected = [d.values for d in diff_table(12)]

        def refuse(packed, width, lane):
            raise AssertionError("row values were unpacked")

        monkeypatch.setattr(core, "_unpack", refuse)
        assert [d.values for d in diff_table(12)] == expected

    def test_never_unpack_a_real_table(self, monkeypatch):
        def shapes(n):
            return [
                (row_max_abs(d), unimodal_check(d))
                for d in map(diff_row, intermediate_configuration(n))
            ]

        expected = shapes(14)

        def refuse(packed, width, lane):
            raise AssertionError("row values were unpacked")

        monkeypatch.setattr(core, "_unpack", refuse)
        assert shapes(14) == expected

    def test_one_difference_lane_build_per_row(self, monkeypatch):
        # The shape reads the lane context of the difference row, built once,
        # with the row, by difftable._diff_lanes.
        seen = []
        real = difftable._diff_lanes

        def counted(source):
            seen.append(source.index)
            return real(source)

        monkeypatch.setattr(difftable, "_diff_lanes", counted)
        streamed = []
        for row in intermediate_configuration(12):
            d = diff_row(row)
            row_max_abs(d)
            unimodal_check(d)
            streamed.append(row.index)
        assert seen == streamed


def brute_unimodal(seq):
    return any(
        all(a <= b for a, b in zip(seq[:p], seq[1:p + 1]))
        and all(a >= b for a, b in zip(seq[p:], seq[p + 1:]))
        for p in range(len(seq))
    )


class TestUnimodalCheck:
    def test_fig_rows(self):
        assert unimodal_check(antisym([4, 4], index=3))
        assert unimodal_check(diff_row(Row(index=1, y_min=0, values=(8, 8))))

    def test_n11_longest_diff(self):
        d = diff_row(Row(index=golden.N11_LONGEST_FIRST_INDEX, y_min=15, values=golden.N11_LONGEST))
        assert (d.index, d.values) == (49, golden.N11_LONGEST_DIFF)
        assert d._half == 10
        assert unimodal_check(d)

    def test_synthetic_failure(self):
        assert not unimodal_check(antisym([1, 3, 2, 4]))

    def test_a_rise_after_the_first_fall(self):
        # 3 -> 2 falls, 2 -> 4 rises, 4 -> 3 falls again: the rise sits
        # below the last fall but above the first.
        assert not unimodal_check(antisym([1, 3, 2, 4, 3]))

    def test_peak_at_the_margin(self):
        # The implicit leading zero keeps a row whose first entry is the
        # peak unimodal.
        assert unimodal_check(antisym([9, 3, 1]))

    @pytest.mark.parametrize("n", range(0, 10))
    def test_holds_on_real_tables(self, n):
        assert all(unimodal_check(d) for d in diff_table(n))

    @given(antisymmetric_rows())
    def test_matches_brute_force(self, d):
        assert unimodal_check(d) == brute_unimodal((0,) + d.values[: d._half])


class TestSignMap:
    def test_tiny_rows(self):
        signs = sign_map(4)
        assert signs[0].signs == "-"
        assert signs[1].signs == "--"

    def test_n11_bottom_first(self):
        rows = {s.index: s for s in sign_map(11)}
        assert rows[209].signs == golden.N11_BOTTOM_FIRST_SIGNS

    @pytest.mark.parametrize("n", range(1, 8))
    def test_zeros_mark_exactly_the_plateaus(self, n):
        for d, s in zip(diff_table(n), sign_map(n)):
            v = d.values
            equal_neighbours = {k for k in range(len(v) - 1) if v[k] == v[k + 1]}
            zero_positions = {k for k, c in enumerate(s.signs) if c == "0"}
            assert zero_positions == equal_neighbours
