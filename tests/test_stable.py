import pytest

import golden
from chipfire import (
    DistanceDistribution,
    ParityError,
    Row,
    distance_distribution,
    second_raw_moment,
    stable_configuration,
    stable_row,
    total_firings_via_moment,
    total_firings_via_sum,
)


class TestStableRow:
    @pytest.mark.parametrize(
        "values,pattern",
        [((2, 5, 5, 2), "0110"), ((16,), "0"), ((1, 1), "11"), ((1, 3, 4, 3, 1), "11011")],
    )
    def test_patterns(self, values, pattern):
        r = Row(index=len(values), y_min=0, values=values)
        assert stable_row(r).pattern() == pattern

    def test_points(self):
        s = stable_row(Row(index=5, y_min=1, values=(2, 5, 5, 2)))
        assert list(s.marked_points()) == [(3, 2), (2, 3)]
        assert list(s.unmarked_points()) == [(4, 1), (1, 4)]
        assert s.chip_count == 2

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_distances_follow_the_marked_points(self, n):
        for s in stable_configuration(n).rows:
            assert list(s.distances()) == [y - x for x, y in s.marked_points()]


class TestStableConfiguration:
    def test_single_chip(self):
        config = stable_configuration(0)
        assert list(config.marked_points()) == [(0, 0)]
        assert config.chip_count == 1

    def test_two_chips(self):
        config = stable_configuration(1)
        assert set(config.marked_points()) == {(1, 0), (0, 1)}

    def test_n4_matches_worked_table(self):
        expected = {
            (i - (y_min + k), y_min + k)
            for i, y_min, values in golden.EXAMPLE_TABLE_N4
            for k, v in enumerate(values)
            if v % 2 == 1
        }
        config = stable_configuration(4)
        assert set(config.marked_points()) == expected
        assert config.chip_count == 16

    @pytest.mark.parametrize("n", range(1, 9))
    def test_first_and_last_marked_rows(self, n, table):
        config = stable_configuration(n)
        assert config.first_marked_row() == n
        last = config.last_marked_row()
        assert last.index == table(n)[-1].index
        assert last.pattern() == "11"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_chip_on_the_diagonal(self, n):
        assert all(x != y for x, y in stable_configuration(n).marked_points())


class TestDistanceDistribution:
    def test_n4(self):
        d = distance_distribution(stable_configuration(4))
        assert d.half_width == 4
        assert d.counts == golden.D4
        assert d.count(-4) == 2
        assert d.count(99) == 0

    def test_n0(self):
        d = distance_distribution(stable_configuration(0))
        assert (d.half_width, d.counts) == (0, (1,))

    def test_n15_matches_plotted_values(self):
        d = distance_distribution(stable_configuration(15))
        assert d.half_width == 45
        assert d.counts == golden.D15

    @pytest.mark.parametrize("n", range(0, 13))
    def test_sums_to_chip_count(self, n):
        d = distance_distribution(stable_configuration(n))
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


class TestMoments:
    def test_second_raw_moment_n4(self):
        d = distance_distribution(stable_configuration(4))
        assert second_raw_moment(d) == 104

    def test_second_raw_moment_small(self):
        assert second_raw_moment(distance_distribution(stable_configuration(0))) == 0
        assert second_raw_moment(distance_distribution(stable_configuration(1))) == 2

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (4, 52), (7, 1359)])
    def test_total_firings_examples(self, n, expected):
        assert total_firings_via_moment(n) == expected
        assert total_firings_via_sum(n) == expected

    def test_total_firings_n10(self):
        assert total_firings_via_sum(10) == 38570
        assert total_firings_via_moment(10) == 38570

    @pytest.mark.parametrize("n", range(0, 13))
    def test_routes_agree(self, n):
        assert total_firings_via_sum(n) == total_firings_via_moment(n)

    def test_parity_error_type(self):
        # The moment of a real distribution is always even; the error class
        # exists for the impossible case and for the half-sequence guard.
        assert issubclass(ParityError, Exception)
