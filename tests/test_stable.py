from collections import Counter
from itertools import chain, compress, repeat
from operator import and_, mul

import pytest
from hypothesis import given, strategies as st

import golden
from chipfire import (
    ChipfireError,
    DistanceDistribution,
    ParityError,
    Row,
    StableRow,
    firing_routes,
    intermediate_configuration,
    distance_distribution,
    second_raw_moment,
    stable_configuration,
    stable_row,
    total_firings,
)
from chipfire import stable
from chipfire.stable import _DistanceCounts
from chipfire.checks import run_checks
from test_core import monotone_rows


def reference_stable_row(r):
    """The parity entry by entry from the unpacked values."""
    return StableRow(index=r.index, y_min=r.y_min, parity=bytes(v & 1 for v in r.values))


def reference_firing_routes(rows):
    """Both firing routes from the unpacked values of each row."""
    via_sum = mu2 = 0
    for r in rows:
        v = r.values
        first = 2 * r.y_min - r.index
        kept = list(compress(range(first, first + 2 * len(v), 2), map(and_, v, repeat(1))))
        via_sum += (sum(v) - len(kept)) >> 1
        mu2 += sum(map(mul, kept, kept))
    return via_sum, mu2


class TestPackedRoutes:
    """stable_row and firing_routes read the packed rows; the references
    above read the values."""

    @pytest.mark.parametrize("n", range(0, 17))
    def test_stream_matches_reference(self, n):
        rows = list(intermediate_configuration(n))
        assert [stable_row(r) for r in rows] == [reference_stable_row(r) for r in rows]
        assert firing_routes(iter(rows)) == reference_firing_routes(rows)

    @given(monotone_rows(), st.sampled_from([0, 1, 62, 64, 130]))
    def test_built_rows_match_reference(self, r, shift):
        # (v << shift) + v keeps the row palindromic and monotone while
        # pushing its entries past 2**64.
        r = Row(index=r.index, y_min=r.y_min, values=[(v << shift) + v for v in r.values])
        assert stable_row(r) == reference_stable_row(r)
        assert firing_routes([r]) == reference_firing_routes([r])


class TestDistanceCounts:
    """The lane accumulator behind the distance distribution and the moment
    route counts what the stable rows list chip by chip."""

    @staticmethod
    def reference(rows):
        return Counter(y - x for r in rows for x, y in stable_row(r).marked_points())

    @staticmethod
    def accumulated(rows):
        counts = _DistanceCounts()
        for r in rows:
            counts.add(stable_row(r))
        return counts.counts()

    @pytest.mark.parametrize("n", range(0, 15))
    def test_real_tables(self, n):
        rows = list(intermediate_configuration(n))
        assert self.accumulated(rows) == self.reference(rows)

    @given(st.lists(monotone_rows(), max_size=300), st.sampled_from([0, 1, 62, 64, 130]))
    def test_built_rows(self, rows, shift):
        # Rows in any order: a row may start below every distance so far.
        rows = [
            Row(index=r.index, y_min=r.y_min, values=[(v << shift) + v for v in r.values])
            for r in rows
        ]
        assert self.accumulated(rows) == self.reference(rows)

    @pytest.mark.parametrize("rows", [255, 256, 300, 511, 600, 1000])
    def test_many_rows_at_one_distance(self, rows):
        # Every 255 rows, before a lane could overflow, the staged 8-bit
        # lanes move into the 64-bit ones: a staged lane that took a 256th
        # chip would carry it into distance 1.
        table = [Row(index=2 * k, y_min=k, values=(1,)) for k in range(rows)]
        assert self.accumulated(table) == {0: rows}

    def test_empty(self):
        assert self.accumulated([]) == {}
        assert firing_routes([]) == (0, 0)


class TestStableRow:
    @pytest.mark.parametrize(
        "values,pattern",
        [((2, 5, 5, 2), "0110"), ((16,), "0"), ((1, 1), "11"), ((1, 3, 4, 3, 1), "11011"), ((), "")],
    )
    def test_patterns(self, values, pattern):
        r = Row(index=len(values), y_min=0, values=values)
        assert stable_row(r).pattern() == pattern

    def test_points(self):
        s = stable_row(Row(index=5, y_min=1, values=(2, 5, 5, 2)))
        assert list(s.marked_points()) == [(3, 2), (2, 3)]
        assert list(s.unmarked_points()) == [(4, 1), (1, 4)]
        assert s.chip_count == 2

    def test_fields(self):
        # Built one way, from Row.parity, so there is nothing to check again:
        # the constructor stores its arguments as they are.
        fields = {"index": 5, "y_min": 1, "parity": b"\0\1\1\0"}
        assert vars(stable_row(Row(index=5, y_min=1, values=(2, 5, 5, 2)))) == fields
        assert vars(StableRow(**fields)) == fields
        assert not hasattr(StableRow, "__post_init__")


def marked_points(n):
    return chain.from_iterable(r.marked_points() for r in stable_configuration(n))


class TestStableConfiguration:
    def test_single_chip(self):
        (row,) = stable_configuration(0)
        assert list(row.marked_points()) == [(0, 0)]
        assert row.chip_count == 1

    def test_two_chips(self):
        assert set(marked_points(1)) == {(1, 0), (0, 1)}

    def test_n4_matches_worked_table(self):
        expected = {
            (i - (y_min + k), y_min + k)
            for i, y_min, values in golden.EXAMPLE_TABLE_N4
            for k, v in enumerate(values)
            if v % 2 == 1
        }
        assert set(marked_points(4)) == expected
        assert sum(r.chip_count for r in stable_configuration(4)) == 16

    @pytest.mark.parametrize("n", range(1, 9))
    def test_first_and_last_marked_rows(self, n, table):
        # The first chips sit in row n; the last ones are the pair "11" in
        # the last row.  The first-stable-row and last-stable-row folds of
        # run_checks carry this rule.
        first, last = run_checks(n, properties=["first-stable-row", "last-stable-row"])
        assert (first.name, first.passed) == ("first-stable-row", True)
        assert first.detail == f"first odd entry in row {n}, expected {n}"
        assert (last.name, last.passed) == ("last-stable-row", True)
        assert last.detail == f"last chips in row {table(n)[-1].index} with pattern 11"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_chip_on_the_diagonal(self, n):
        assert all(x != y for x, y in marked_points(n))


class TestDistanceDistribution:
    def test_n4(self):
        d = distance_distribution(4)
        assert d.half_width == 4
        assert d.counts == golden.D4
        assert d.count(-4) == 2
        assert d.count(99) == 0

    def test_n0(self):
        d = distance_distribution(0)
        assert (d.half_width, d.counts) == (0, (1,))

    def test_n15_matches_plotted_values(self):
        d = distance_distribution(15)
        assert d.half_width == 45
        assert d.counts == golden.D15

    @pytest.mark.parametrize("n", range(0, 13))
    def test_sums_to_chip_count(self, n):
        d = distance_distribution(n)
        assert sum(d.counts) == 1 << n
        assert all(d.count(i) == d.count(-i) for i in d.offsets())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, half_width=1, counts=(1, 0)),       # wrong span
            dict(n=1, half_width=1, counts=(2, 0, 1)),    # asymmetric (and wrong sum)
            dict(n=1, half_width=1, counts=(0, 2, 0)),    # nonzero center
            dict(n=2, half_width=1, counts=(1, 0, 1)),    # wrong total
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DistanceDistribution(**kwargs)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((-1, 0, 3), "counts must be nonnegative"),
            ((2, 0, 0), "distance distribution must be symmetric"),
        ],
    )
    def test_rejects_with_message(self, counts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DistanceDistribution(1, 1, counts)


class TestMoments:
    def test_second_raw_moment_n4(self):
        d = distance_distribution(4)
        assert second_raw_moment(d) == 104

    def test_second_raw_moment_small(self):
        assert second_raw_moment(distance_distribution(0)) == 0
        assert second_raw_moment(distance_distribution(1)) == 2

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (4, 52), (7, 1359)])
    def test_total_firings_examples(self, n, expected):
        # The sum route gives T(n), the moment route twice T(n).
        assert firing_routes(intermediate_configuration(n)) == (expected, 2 * expected)
        assert total_firings(n) == expected

    def test_total_firings_n10(self):
        assert firing_routes(intermediate_configuration(10)) == (38570, 2 * 38570)
        assert total_firings(10) == 38570

    @pytest.mark.parametrize("n", range(0, 13))
    def test_routes_agree(self, n):
        via_sum, mu2 = firing_routes(intermediate_configuration(n))
        assert mu2 == 2 * via_sum

    def test_total_firings_refuses_disagreeing_routes(self, monkeypatch):
        monkeypatch.setattr(stable, "firing_routes", lambda rows: (52, 105))
        with pytest.raises(ChipfireError, match=r"^firing-count routes disagree for n=4: "
                           r"sum route 52, second moment 105 \(expected 104\)$"):
            total_firings(4)

    def test_parity_error_type(self):
        # The moment of a real distribution is always even; the error class
        # exists for the impossible case and for the half-sequence guard.
        assert issubclass(ParityError, Exception)
