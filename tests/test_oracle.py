import hashlib
import random

import pytest

import golden
from chipfire import STRATEGIES, arrivals, confluence_check, oracle, row_bound, simulate, stable
from chipfire.core import ChipfireError
from chipfire.oracle import ORACLE_EXPONENT_LIMIT, MAX_TRIALS, MoveCapExceededError


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

    def test_arrivals_match_random_access(self, table):
        grid = arrivals(simulate(5, "random", seed=9))
        rows = table(5)
        for x, y in ((0, 0), (3, 2), (7, 4), (0, 5)):
            assert grid.get((x, y), 0) == rows[x + y].value_at(y)

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
    def test_firing_order_is_frozen(self, strategy, monkeypatch):
        fired = []
        real = oracle._worklist

        def logged(*args):
            pending, put, take, draw, encoding = real(*args)
            decode = encoding[2]

            def take_logged():
                p = take()
                fired.append(decode(p))
                return p

            return pending, put, take_logged, draw, encoding

        monkeypatch.setattr(oracle, "_worklist", logged)
        assert simulate(5, strategy, seed=3).moves == len(fired) == 163
        digest = hashlib.sha256(repr(fired).encode()).hexdigest()
        assert digest == golden.ORACLE_ORDER_N5_SHA256[strategy]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_move_cap(self, strategy):
        with pytest.raises(MoveCapExceededError):
            simulate(6, strategy, seed=0, move_cap=10)


class TestManualFiring:
    def test_chip_conservation(self):
        for strategy in STRATEGIES:
            for n in range(7):
                state = simulate(n, strategy, seed=n)
                assert state.total_chips() == 1 << n
                assert all(v in (0, 1) for v in state.chips.values())
            assert simulate(3, strategy, seed=0).moves == 15

    def test_cannot_fire_below_threshold(self):
        # The origin fires once; its two single chips never fire.
        state = simulate(1, "leftmost-first")
        assert state.moves == 1
        assert state.nonzero_chips() == {(1, 0): 1, (0, 1): 1}
        assert state.nonzero_firings() == {(0, 0): 1}

    def test_firing_out_to_x4_conserves_chips(self):
        # Along the x axis the pile halves: 8, 4, 2 and 1 firings, and one
        # chip stays at (4, 0).
        state = simulate(4, "row-by-row")
        assert [state.firings[x, 0] for x in range(5)] == [8, 4, 2, 1, 0]
        assert state.chips[4, 0] == 1
        assert state.total_chips() == 16


class TestPointInts:
    def test_round_trip_at_the_limit(self):
        # No chip passes the last-row bound, so a point that fires has both
        # coordinates within it, and its neighbours one more.  Every order
        # reaches a point from the origin, 0, by adding its two offsets.
        bound = row_bound(ORACLE_EXPONENT_LIMIT)
        assert bound + 1 < 1 << oracle._SHIFT
        for strategy in STRATEGIES:
            right, up, decode = oracle._worklist(strategy, 0)[-1]
            for x in (0, 1, bound // 2, bound):
                for y in (0, 1, bound // 2, bound):
                    p = x * right + y * up
                    assert decode(p) == (x, y)
                    assert decode(p + right) == (x + 1, y)
                    assert decode(p + up) == (x, y + 1)

    @pytest.mark.parametrize(
        ("strategy", "key"),
        [("row-by-row", lambda x, y: (x + y, y)), ("leftmost-first", lambda x, y: (y, x))],
    )
    def test_heap_order_is_int_order(self, strategy, key):
        right, up, decode = oracle._worklist(strategy, 0)[-1]
        bound = row_bound(ORACLE_EXPONENT_LIMIT)
        coords = [0, 1, 2, bound // 3, bound // 2, bound - 1, bound]
        points = [x * right + y * up for x in coords for y in coords if x + y <= bound]
        by_key = sorted(map(decode, points), key=lambda p: key(*p))
        assert [decode(p) for p in sorted(points)] == by_key

    def test_draw_is_randrange(self):
        # The steps of the random order's inline draw pick what
        # Random.randrange would on this interpreter; the frozen random
        # firing order above pins the loop to these steps.
        for seed in range(51):
            bits = random.Random(seed).getrandbits
            reference = random.Random(seed)
            for size in range(1, 1001):
                k = size.bit_length()
                i = bits(k)
                while i >= size:
                    i = bits(k)
                assert i == reference.randrange(size)

    def test_run_reaches_inside_the_bound(self, monkeypatch):
        # No chip passes the last-row bound b, so every point int a run
        # reaches, a fired point plus its larger offset, lies below
        # (b + 1) << _SHIFT, the length of the run's two lists.  Every order
        # ends in the same state at the limit.
        top = {}
        real = oracle._worklist

        def logged(strategy, seed):
            pending, put, take, draw, encoding = real(strategy, seed)
            step = max(encoding[:2])
            top[strategy] = 0

            def take_logged():
                p = take()
                top[strategy] = max(top[strategy], p + step)
                return p

            return pending, put, take_logged, draw, encoding

        monkeypatch.setattr(oracle, "_worklist", logged)
        bound = row_bound(ORACLE_EXPONENT_LIMIT)
        states = [simulate(ORACLE_EXPONENT_LIMIT, s, seed=0) for s in STRATEGIES]
        assert states[0].moves == stable.total_firings(ORACLE_EXPONENT_LIMIT) == 38_570
        assert all(state == states[0] for state in states[1:])
        assert max(x + y for x, y in states[0].chips) <= bound
        assert max(top.values()) == top["row-by-row"] < (bound + 1) << oracle._SHIFT

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_point_off_the_grid_is_a_chipfire_error(self, strategy, monkeypatch):
        # A right offset as long as the grid stands in for a defect in the
        # bound or an encoding: the first firing's right neighbour is past
        # the lists, and the run refuses instead of raising IndexError.
        _, up, decode = oracle._ENCODINGS[strategy]
        grid = (row_bound(4) + 1) << oracle._SHIFT
        monkeypatch.setitem(oracle._ENCODINGS, strategy, (grid, up, decode))
        with pytest.raises(ChipfireError, match=f"{strategy} run for n=4 left its grid of {grid} "):
            simulate(4, strategy, seed=0)


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

    @pytest.mark.parametrize("moved,expected", [
        (True, ("fifo-queue: stable grid differs from random[0]",)),
        (False, ()),
    ])
    def test_a_run_is_compared_point_by_point(self, monkeypatch, moved, expected):
        # The fifo-queue run either moves one chip one step right or only
        # carries an extra point holding no chips and no firings.
        real = oracle.simulate

        def patched(n, strategy, **kwargs):
            state = real(n, strategy, **kwargs)
            if strategy == "fifo-queue":
                if moved:
                    x, y = next(iter(state.chips))
                    state.chips[x, y] -= 1
                    state.chips[x + 1, y] += 1
                else:
                    state.chips[99, 99] = state.firings[99, 99] = 0
            return state

        monkeypatch.setattr(oracle, "simulate", patched)
        report = confluence_check(4, trials=2)
        assert (report.passed, report.mismatches) == (not expected, expected)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            confluence_check(3, trials=1)

    def test_trials_cap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "simulate", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=f"cap of {MAX_TRIALS}"):
            confluence_check(3, trials=MAX_TRIALS + 1)
        assert calls == []


class TestSharedGrid:
    """A confluence check plays all its runs on one pair of lists, which
    each run leaves all zeros."""

    def test_runs_match_fresh_runs(self, monkeypatch):
        real = oracle.simulate
        runs = []

        def recorded(n, strategy, seed=None, **kwargs):
            state = real(n, strategy, seed, **kwargs)
            chips, firings = kwargs["_lists"]
            assert not any(chips) and not any(firings)
            runs.append((n, strategy, seed, state))
            return state

        monkeypatch.setattr(oracle, "simulate", recorded)
        assert confluence_check(9, 10, 1).passed
        assert [(strategy, seed) for _, strategy, seed, _ in runs] == [
            *(("random", seed) for seed in range(1, 11)),
            ("leftmost-first", None), ("fifo-queue", None), ("row-by-row", None),
        ]
        for n, strategy, seed, state in runs:
            fresh = real(n, strategy, seed)
            assert state == fresh
            assert (dict(state.chips), dict(state.firings)) == (
                dict(fresh.chips), dict(fresh.firings)
            )

    def test_one_pair_of_lists_per_check(self, monkeypatch):
        grids = []
        real = oracle._grid
        monkeypatch.setattr(oracle, "_grid", lambda n: grids.append(n) or real(n))
        confluence_check(5, trials=10)
        assert grids == [5]
        simulate(5, "random", seed=0)
        assert grids == [5, 5]

    def test_a_check_after_a_capped_run_passes(self, monkeypatch):
        real = oracle.simulate

        def capped(n, strategy, seed=None, **kwargs):
            cap = 50 if strategy == "fifo-queue" else None
            return real(n, strategy, seed, cap, **kwargs)

        monkeypatch.setattr(oracle, "simulate", capped)
        with pytest.raises(MoveCapExceededError):
            confluence_check(6, trials=3)
        monkeypatch.setattr(oracle, "simulate", real)
        report = confluence_check(6, trials=3)
        assert report.passed and report.moves == stable.total_firings(6)
