import pytest

from chipfire import STRATEGIES, arrivals, confluence_check, entry, simulate
from chipfire.oracle import ORACLE_EXPONENT_LIMIT, MoveCapExceededError, OracleState


def parity_grid(rows):
    return {(x, y): 1 for r in rows for x, y, v in r.points() if v & 1}


def arrival_grid(rows):
    return {(x, y): v for r in rows for x, y, v in r.points()}


class TestSimulate:
    def test_n0_never_fires(self):
        state = simulate(0, "random", seed=7)
        assert state.moves == 0
        assert state.nonzero_chips() == {(0, 0): 1}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_n2_all_strategies(self, strategy, table):
        state = simulate(2, strategy, seed=5)
        assert state.moves == 5
        assert state.nonzero_chips() == parity_grid(table(2))

    def test_n4_seeds_agree(self):
        a = simulate(4, "random", seed=1)
        b = simulate(4, "random", seed=2)
        assert a.moves == b.moves == 52
        assert a.nonzero_chips() == b.nonzero_chips()
        assert a.nonzero_firings() == b.nonzero_firings()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_arrivals_match_streamed_table(self, strategy, table):
        state = simulate(6, strategy, seed=4)
        assert arrivals(state) == arrival_grid(table(6))

    def test_arrivals_match_random_access(self):
        grid = arrivals(simulate(5, "random", seed=9))
        for x, y in ((0, 0), (3, 2), (7, 4), (0, 5)):
            assert grid.get((x, y), 0) == entry(5, x, y)

    def test_firings_are_half_arrivals(self, table):
        state = simulate(5, "leftmost-first")
        expected = {
            (x, y): v >> 1
            for x, y, v in ((x, y, v) for r in table(5) for x, y, v in r.points())
            if v >= 2
        }
        assert state.nonzero_firings() == expected

    def test_exponent_limit(self):
        with pytest.raises(ValueError):
            simulate(11, "random", seed=0)
        simulate(ORACLE_EXPONENT_LIMIT, "row-by-row")  # the limit itself runs

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            simulate(3, "by-feel")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_move_cap(self, strategy):
        with pytest.raises(MoveCapExceededError):
            simulate(6, strategy, seed=0, move_cap=10)


class TestManualFiring:
    def test_chip_conservation_step_by_step(self):
        state = OracleState(n=3)
        total = 8
        assert state.total_chips() == total
        # fire greedily until stable, checking conservation after each move
        while True:
            fireable = sorted(p for p, v in state.chips.items() if v >= 2)
            if not fireable:
                break
            state.fire(*fireable[0])
            assert state.total_chips() == total
        assert state.moves == 15

    def test_cannot_fire_below_threshold(self):
        state = OracleState(n=0)
        with pytest.raises(ValueError):
            state.fire(0, 0)

    def test_firing_out_to_x4_conserves_chips(self):
        state = OracleState(n=4)
        for _ in range(8):
            state.fire(0, 0)
        for _ in range(4):
            state.fire(1, 0)
        for _ in range(2):
            state.fire(2, 0)
        state.fire(3, 0)
        assert state.chips[4, 0] == 1
        assert state.total_chips() == 16


class TestConfluence:
    def test_n5(self):
        report = confluence_check(5, trials=10, seed=3)
        assert report.passed
        assert report.moves == 163
        assert report.runs == 13
        assert report.mismatches == ()

    def test_n1(self):
        report = confluence_check(1, trials=3)
        assert report.passed and report.moves == 1

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            confluence_check(3, trials=1)
