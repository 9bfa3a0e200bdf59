import ast
from itertools import islice
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import golden
from forge import forged_row
from chipfire import (
    MAX_EXPONENT,
    ChipOverflowError,
    Row,
    RowCapExceededError,
    initial_row,
    intermediate_configuration,
    next_row,
    row_bound,
)
from chipfire import _lanefolds, checks, core, difftable, stable, structure
from chipfire._cli_tables import rows_from_csv, rows_to_csv
from chipfire.core import _lane_bits, _narrowed, _pack, _unpack
from chipfire.difftable import diff_row
from chipfire.structure import pascal_row


def reference_child(y_min, values):
    """The recurrence entry by entry on plain lists: ``(y_min, values)`` of
    the child row, trimmed to its nonzero span (``(0, ())`` if all zero).

    Entry j of the raw child collects the half-contributions of the parents
    at offsets j-1 and j; offsets outside the span contribute 0.
    """
    if not values:
        return 0, ()
    halves = [v >> 1 for v in values]
    raw = [halves[0]] + [a + b for a, b in zip(halves, halves[1:])] + [halves[-1]]
    lo, hi = 0, len(raw)
    while lo < hi and raw[lo] == 0:
        lo += 1
    while hi > lo and raw[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return 0, ()
    return y_min + lo, tuple(raw[lo:hi])


def reference_table(n):
    """``(index, y_min, values)`` of every nonzero row, via ``reference_child``."""
    out = []
    y_min, values = 0, (1 << n,)
    while values:
        out.append((len(out), y_min, values))
        y_min, values = reference_child(y_min, values)
    return out


class TestRow:
    def test_accessors(self):
        r = Row(index=5, y_min=1, values=(2, 5, 5, 2))
        assert r.width == 4
        assert not r.is_empty
        assert r.value_at(2) == 5
        assert r.value_at(0) == 0
        assert r.value_at(9) == 0
        assert list(r.points()) == [(4, 1, 2), (3, 2, 5), (2, 3, 5), (1, 4, 2)]
        assert r.chip_sum() == 14

    def test_empty_row(self):
        r = Row(index=3, y_min=0, values=())
        assert r.is_empty
        assert r.width == 0
        assert r.value_at(0) == 0

    def test_accepts_lists(self):
        assert Row(index=1, y_min=0, values=[4, 4]).values == (4, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(index=-1, y_min=0, values=(1,)),
            dict(index=2, y_min=-1, values=(1,)),
            dict(index=2, y_min=1, values=(1, 2, 1)),  # span leaves the quadrant
            dict(index=3, y_min=0, values=(1, 0, 1)),  # zero entry
            dict(index=3, y_min=0, values=(1, 2, 3)),  # not palindromic
            dict(index=3, y_min=1, values=()),  # empty rows anchor at 0
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Row(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(index=2, y_min=0, values=(1.5, 2, 1.5)),
            dict(index=2, y_min=0, values=(True, 2, True)),
            dict(index=2, y_min=0, values=(2.0,)),
            dict(index=2.0, y_min=0, values=(1,)),
            dict(index=True, y_min=0, values=(1,)),
            dict(index=2, y_min=False, values=(1,)),
        ],
    )
    def test_rejects_entries_that_are_not_ints(self, kwargs):
        # The CSV and JSON writers format entries with %d, which would write
        # 1.5 as 1 and True as 1; values stay exact ints.
        with pytest.raises(ValueError, match="int"):
            Row(**kwargs)


class TestInitialRow:
    @pytest.mark.parametrize("n,expected", [(0, 1), (4, 16), (9, 512)])
    def test_examples(self, n, expected):
        assert initial_row(n) == Row(index=0, y_min=0, values=(expected,))

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            initial_row(-1)

    def test_overflow(self):
        assert initial_row(MAX_EXPONENT).values == (1 << MAX_EXPONENT,)
        with pytest.raises(ChipOverflowError):
            initial_row(MAX_EXPONENT + 1)


class TestNextRow:
    def test_root_splits(self):
        assert next_row(initial_row(4)) == Row(index=1, y_min=0, values=(8, 8))

    def test_shifts_leading_zero(self):
        r = Row(index=4, y_min=0, values=(1, 4, 6, 4, 1))
        assert next_row(r) == Row(index=5, y_min=1, values=(2, 5, 5, 2))

    def test_terminal_pair_dies(self):
        r = Row(index=9, y_min=4, values=(1, 1))
        assert next_row(r) == Row(index=10, y_min=0, values=())

    def test_minimal_descent_step(self):
        r = Row(index=7, y_min=2, values=(1, 3, 3, 1))
        assert next_row(r).values == (1, 2, 1)

    def test_empty_propagates(self):
        assert next_row(Row(index=2, y_min=0, values=())) == Row(index=3, y_min=0, values=())

    def test_noncontiguous_child_rejected(self):
        # Pathological palindrome never reachable from an initial pile.
        with pytest.raises(ValueError):
            next_row(Row(index=3, y_min=0, values=(8, 1, 1, 8)))

    @pytest.mark.parametrize(
        "values",
        [
            (2**64 + 3, 2**65 + 7, 2**64 + 3),  # 128-bit lanes
            (2**130 + 1, 2**131 + 5, 2**131 + 5, 2**130 + 1),  # 192-bit lanes
            (2**64 - 1, 2**64 - 1),  # 64 bits are full: the spare bit needs 128
        ],
    )
    def test_entries_beyond_64_bits(self, values):
        r = Row(index=9, y_min=2, values=values)
        y_min, expected = reference_child(r.y_min, r.values)
        assert next_row(r) == Row(index=10, y_min=y_min, values=expected)


class TestLaneWidth:
    @pytest.mark.parametrize(
        "n,bits", [(0, 8), (6, 16), (29, 32), (62, 128), (126, 256)]
    )
    def test_rule(self, n, bits):
        # Bits of 2**n plus two spare, rounded up to a power of two of at
        # least 8.
        assert _lane_bits(1 << n) == bits

    def test_lanes_narrow_down_the_stream(self):
        rows = list(intermediate_configuration(18))
        assert rows[0].lane == 32
        assert rows[-1].lane < rows[0].lane
        for r in rows:
            assert max(r.values) < 1 << r.lane - 2

    @pytest.mark.parametrize("lane", [16, 32, 64, 128, 256])
    def test_narrowing_keeps_the_entries(self, lane):
        # Entries that fit the half lane move into it; one entry too wide
        # for it keeps the lane.
        half = lane // 2
        values = [(1 << half - 2) - 1, 1, (1 << half - 3) + 5, 3]
        packed, got = _narrowed(_pack(values, lane), len(values), lane)
        assert got == half
        assert _unpack(packed, len(values), got) == tuple(values)
        values[2] = 1 << half - 2
        packed = _pack(values, lane)
        assert _narrowed(packed, len(values), lane) == (packed, lane)

    @pytest.mark.parametrize("n", [62, 63, MAX_EXPONENT])
    def test_top_triangle_matches_pascal(self, n):
        # Rows 0..n are scaled binomial rows; n = 62 and 63 run in 128-bit
        # lanes, and MAX_EXPONENT is the one exponent with 256-bit lanes.
        stream = intermediate_configuration(n)
        for i in range(n + 1):
            assert next(stream) == pascal_row(n, i)


@st.composite
def monotone_rows(draw):
    """Palindromic rows obeying the within-row growth rules."""
    half_len = draw(st.integers(min_value=1, max_value=7))
    left = [draw(st.integers(min_value=1, max_value=9))]
    for _ in range(half_len - 1):
        left.append(left[-1] + draw(st.integers(min_value=2, max_value=9)))
    if draw(st.booleans()):
        values = left + left[::-1]
    else:
        values = left + [left[-1] + draw(st.integers(min_value=1, max_value=9))] + left[::-1]
    y_min = draw(st.integers(min_value=0, max_value=4))
    index = y_min + len(values) - 1 + draw(st.integers(min_value=0, max_value=4))
    return Row(index=index, y_min=y_min, values=tuple(values))


class TestRecurrenceProperties:
    @given(monotone_rows())
    def test_chip_accounting(self, r):
        # The child receives everything except one chip per odd entry.
        child = next_row(r)
        odd = sum(v & 1 for v in r.values)
        assert child.chip_sum() == r.chip_sum() - odd

    @given(monotone_rows())
    def test_width_changes_by_one(self, r):
        child = next_row(r)
        if not child.is_empty:
            assert abs(child.width - r.width) == 1

    @given(monotone_rows())
    def test_child_stays_palindromic(self, r):
        child = next_row(r)
        assert child.values == child.values[::-1]

    @given(monotone_rows(), st.sampled_from([0, 1, 62, 64, 130]))
    def test_matches_reference_kernel(self, r, shift):
        # (v << shift) + v keeps the row palindromic and monotone while
        # pushing its entries into wider lanes.
        r = Row(index=r.index, y_min=r.y_min, values=[(v << shift) + v for v in r.values])
        y_min, expected = reference_child(r.y_min, r.values)
        assert next_row(r) == Row(index=r.index + 1, y_min=y_min, values=expected)


class TestConfigStream:
    def test_single_chip(self):
        assert [r.values for r in intermediate_configuration(0)] == [(1,)]

    def test_n4_matches_worked_table(self):
        rows = list(intermediate_configuration(4))
        assert [(r.index, r.y_min, r.values) for r in rows] == list(golden.EXAMPLE_TABLE_N4)

    @pytest.mark.parametrize("n", range(0, 17))
    def test_matches_reference_kernel(self, n):
        rows = [(r.index, r.y_min, r.values) for r in intermediate_configuration(n)]
        assert rows == reference_table(n)

    def test_n9_row_count(self):
        assert sum(1 for _ in intermediate_configuration(9)) == 92

    def test_stream_bookkeeping(self):
        stream = intermediate_configuration(2)
        first = next(stream)
        assert first.values == (4,)
        rest = list(stream)
        assert rest[-1].values == (1, 1)

    def test_row_bound_guard(self, monkeypatch):
        # Rows 0..3 stream; row 4 is past the patched bound.
        monkeypatch.setattr(core, "row_bound", lambda n: 3)
        with pytest.raises(RowCapExceededError):
            list(intermediate_configuration(4))

    @pytest.mark.parametrize(
        "n,error", [(-1, ValueError), (MAX_EXPONENT + 1, ChipOverflowError)]
    )
    def test_exponent_checked_at_call(self, n, error):
        # Raised by the call itself, before any row is requested.
        with pytest.raises(error):
            intermediate_configuration(n)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_termination_within_bound(self, n, table):
        assert table(n)[-1].index <= row_bound(n)


class TestPackedView:
    @pytest.mark.parametrize("n", range(0, 17))
    def test_kernel_rows_match_built_rows(self, n):
        # Kernel rows skip validation and read width and parity off the
        # packed int; a row built from the same values packs them itself.
        for r in intermediate_configuration(n):
            built = Row(index=r.index, y_min=r.y_min, values=r.values)
            assert r == built
            assert r.width == built.width
            assert r.parity == built.parity == bytes(v & 1 for v in built.values)
            assert r.chip_sum() == built.chip_sum() == sum(built.values)

    def test_every_row_is_packed_when_built(self):
        # Constructor rows pack their values in __init__, kernel rows are
        # born packed: either way the view is in the instance from the start.
        empty = Row(index=3, y_min=0, values=())
        rows = [
            empty,
            Row(index=5, y_min=1, values=(2, 5, 5, 2)),
            initial_row(7),
            pascal_row(126, 126),
            structure.minimal_row(9),
            *rows_from_csv(rows_to_csv(list(intermediate_configuration(4)))),
            next_row(initial_row(4)),
            next_row(Row(index=9, y_min=4, values=(1, 1))),
            *intermediate_configuration(9),
        ]
        for r in rows:
            assert {"packed", "lane", "width"} <= vars(r).keys()
            assert _unpack(r.packed, r.width, r.lane) == r.values
        assert (empty.packed, empty.lane, empty.width) == (0, 8, 0)

    def test_values_unpack_once(self, monkeypatch):
        calls = []
        real = core._unpack

        def counted(packed, width, lane):
            calls.append(width)
            return real(packed, width, lane)

        monkeypatch.setattr(core, "_unpack", counted)
        r = next(iter(intermediate_configuration(3)))
        assert calls == []
        assert r.values == r.values == (8,)
        assert calls == [1]

    def test_width_and_parity_readers_never_unpack(self, monkeypatch):
        n = 12
        expected = (
            structure.row_profile(n),
            structure.segment(n),
            list(stable.stable_configuration(n)),
            stable.distance_distribution(n),
            stable.firing_routes(intermediate_configuration(n)),
            [r.chip_sum() for r in intermediate_configuration(n)],
            [r.value_at(r.index // 2) for r in intermediate_configuration(n)],
        )

        def refuse(packed, width, lane):
            raise AssertionError("row values were unpacked")

        monkeypatch.setattr(core, "_unpack", refuse)
        assert (
            structure.row_profile(n),
            structure.segment(n),
            list(stable.stable_configuration(n)),
            stable.distance_distribution(n),
            stable.firing_routes(intermediate_configuration(n)),
            [r.chip_sum() for r in intermediate_configuration(n)],
            [r.value_at(r.index // 2) for r in intermediate_configuration(n)],
        ) == expected

    def test_constructor_row_keeps_its_packed_view(self, monkeypatch):
        # A row built from its values packs them once, when it is built, and
        # keeps the packed view outside its fields.
        packs = []
        real = core._pack

        def counted(values, lane):
            packs.append(lane)
            return real(values, lane)

        monkeypatch.setattr(core, "_pack", counted)
        r = pascal_row(126, 126)
        assert [r.value_at(y) for y in range(100)] == list(r.values[:100])
        assert packs == [r.lane] == [128]
        twin = Row(r.index, r.y_min, r.values)
        assert (r == twin, hash(r), repr(r)) == (True, hash(twin), repr(twin))

    @pytest.mark.parametrize("n", [4, 9, 18])
    def test_value_at_reads_every_lane(self, n, table):
        for r in table(n):
            assert [r.value_at(y) for y in range(r.y_min - 1, r.y_min + r.width + 1)] == [
                0, *r.values, 0
            ]

    def test_only_core_reads_the_lanes(self):
        # Other modules read width, parity, chip_sum() or values, so the lane
        # format can change inside core and the four modules that hold the
        # lane code of one job each: the difference-row context (difftable),
        # the distance counts (stable), the packed minimal rows (structure)
        # and the lane folds of verify (_lanefolds).
        package = Path(core.__file__).parent
        readers = sorted({
            path.name
            for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in ("packed", "lane")
        })
        assert readers == [
            "_lanefolds.py", "core.py", "difftable.py", "stable.py", "structure.py"
        ]

    def test_only_checks_imports_the_lane_folds(self):
        # Only verify runs the lane folds, so no other command compiles them.
        package = Path(core.__file__).parent
        importers = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                    if any(name.rsplit(".", 1)[-1] == "_lanefolds" for name in names):
                        importers.add(path.name)
        assert importers == {"checks.py"}

    def test_only_core_builds_trusted_rows(self):
        # Only core builds objects without their __init__, through _trusted,
        # and only for kernel rows: no other module names _trusted or
        # __new__.
        package = Path(core.__file__).parent
        misuses = []
        for path in sorted(package.glob("*.py")):
            if path.name == "core.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Name) and node.id == "_trusted"
                    or isinstance(node, ast.Attribute) and node.attr in ("_trusted", "__new__")
                    or isinstance(node, ast.alias) and node.name == "_trusted"
                ):
                    misuses.append(f"{path.name}:{node.lineno}")
        assert misuses == []


class TestEntry:
    @pytest.mark.parametrize(
        "x,y,expected",
        [(0, 0, 16), (2, 3, 5), (3, 2, 5), (50, 50, 0), (9, 0, 0), (5, 4, 1)],
    )
    def test_n4(self, x, y, expected, table):
        # F(x, y) read off the streamed row x + y, 0 past the last row.
        rows = table(4)
        assert (rows[x + y].value_at(y) if x + y < len(rows) else 0) == expected


def reference_diffs(values):
    """The first differences of a row, the zero margins included; an empty
    row has the one lane of its zero margin."""
    return (values[0], *map(sub, values[1:], values), -values[-1]) if values else (0,)


def reference_context(row):
    """``difftable._diff_lanes`` of ``row``, the lane context of its difference
    row, lane by lane: the biased first differences, the ones and top bits of their
    lanes, and the biased second differences closed by the zero past the
    row."""
    lane, diffs = row.lane, reference_diffs(row.values)
    seconds = map(sub, (*diffs, 0), (0, *diffs))
    return (
        _pack([e + (1 << lane - 2) for e in diffs], lane),
        lane,
        _pack([1] * len(diffs), lane),
        _pack([1 << lane - 1] * len(diffs), lane),
        _pack([s + (1 << lane - 1) for s in seconds], lane),
    )


def reference_lane_shape(values, half):
    """``difftable._lane_shape`` entry by entry: whether the margin zero and the
    first ``half`` differences weakly rise and then weakly fall, and the
    peak ``c`` of that stretch where every difference lies in ``[-c, c]``."""
    diffs = reference_diffs(values)
    seq = (0, *diffs[:half])
    steps = [b - a for a, b in zip(seq, seq[1:])]
    fall = next((j for j, s in enumerate(steps) if s < 0), None)
    if fall is None:
        unimodal, c = True, seq[-1]
    else:
        unimodal, c = all(s <= 0 for s in steps[fall:]), seq[fall]
    proven = c >= 0 and all(-c <= e <= c for e in diffs)
    return unimodal, c if proven else None


def reference_growth_break(row):
    """``_lanefolds._growth_break`` entry by entry: the first step that breaks
    the growth rule, as ``(y, step)``."""
    i, v = row.index, row.values
    for k, d in enumerate(map(sub, v[1:], v)):
        y = row.y_min + k
        if 2 * (y + 1) < i:
            ok = d >= 2  # strictly left of the diagonal
        elif 2 * y > i:
            ok = d <= -2  # strictly right of it
        elif 2 * y + 2 == i:
            ok = d >= 1  # onto it
        elif 2 * y == i:
            ok = d <= -1  # off it
        else:
            ok = d == 0  # across the central pair
        if not ok:
            return y, d
    return None


@st.composite
def wide_lane_rows(draw, lanes=(128, 256)):
    """Unchecked rows in one of ``lanes`` (by default 128- or 256-bit lanes),
    placed anywhere from wholly left of the diagonal to wholly right of it,
    so that the left half of their difference row takes every length from 0
    to its width; a mirrored sorted row gives a shape the lanes can prove."""
    lane = draw(st.sampled_from(lanes))
    entries = st.one_of(st.integers(1, 9), st.integers(1, (1 << lane - 2) - 1))
    values = draw(st.lists(entries, max_size=9))
    if draw(st.booleans()):
        values = sorted(values) + sorted(values, reverse=True)
    width = len(values)
    y_min = draw(st.integers(min_value=0, max_value=width + 3)) if values else 0
    index = y_min + max(width - 1, 0) + draw(st.integers(min_value=0, max_value=width + 3))
    return forged_row(index, y_min, values, lane)


class TestDiffLaneShape:
    """The lane context of a difference row, built by ``difftable._diff_lanes``
    with the row and kept on it, and the folds that read it, against their
    entry-by-entry references."""

    @staticmethod
    def assert_match(r):
        d = diff_row(r)
        assert d._diff_lanes == difftable._diff_lanes(r) == reference_context(r)
        assert difftable._lane_shape(d) == reference_lane_shape(r.values, d._half())
        assert _lanefolds._growth_break(d) == reference_growth_break(r)

    def test_match_the_references_on_real_tables(self, table):
        for n in range(19):
            for r in table(n):
                self.assert_match(r)

    @pytest.mark.parametrize("exponent,lane", [(100, 128), (126, 256)])
    def test_match_the_references_on_wide_lanes(self, exponent, lane):
        r = initial_row(exponent)
        for _ in range(40):
            assert r.lane == lane
            self.assert_match(r)
            assert reference_growth_break(r) is None
            r = next_row(r)

    @given(wide_lane_rows())
    def test_match_the_references(self, row):
        self.assert_match(row)

    def test_constant_caches_stay_small(self, monkeypatch):
        # Widths move by one lane per row, so the last eight constants that
        # the lru_cache of _diff_constants keeps serve almost every row.
        # Its one _repeat runs only on a cache miss, so it counts the
        # constants built; the cache is emptied first, so the count does not
        # depend on the tests run before.
        built = []
        real = difftable._repeat

        def counted(value, lane, lanes):
            built.append((lane, lanes))
            return real(value, lane, lanes)

        monkeypatch.setattr(difftable, "_repeat", counted)
        difftable._diff_constants.cache_clear()
        assert checks.failures(checks.run_checks(18)) == []
        read = [(difftable.row_max_abs(d), d.values) for d in difftable.diff_table(18)]
        info = difftable._diff_constants.cache_info()
        assert len(built) == info.misses < 2 * len(read) // 10
        assert 0 < info.currsize <= info.maxsize == 8


class TestReversalAndSum:
    """``_is_palindrome`` and ``_antisymmetric_diffs``, which compare cast
    memoryviews in lanes of up to 64 bits and byte planes in wider ones, and
    ``Row.chip_sum``, which adds byte planes, against their entry-by-entry
    references in every lane width."""

    LANES = (8, 16, 32, 64, 128, 256)
    #: An exponent whose first rows run in each lane width.
    EXPONENTS = {8: 5, 16: 13, 32: 29, 64: 61, 128: 100, 256: 126}

    @staticmethod
    def assert_match(r):
        values, d = r.values, diff_row(r)
        assert _lanefolds._is_palindrome(r) == (values == values[::-1])
        assert _lanefolds._antisymmetric_diffs(d) == (
            d.values == tuple(-e for e in d.values[::-1])
        )
        assert r.chip_sum() == sum(values)

    def test_real_tables(self, table):
        lanes = set()
        for n in range(19):
            for r in table(n):
                self.assert_match(r)
                lanes.add(r.lane)
        assert lanes == {8, 16, 32}

    @pytest.mark.parametrize("lane", LANES)
    def test_first_rows_in_every_lane(self, lane):
        for r in islice(intermediate_configuration(self.EXPONENTS[lane]), 40):
            assert r.lane == lane
            self.assert_match(r)

    @given(wide_lane_rows(lanes=LANES))
    def test_unchecked_rows(self, row):
        self.assert_match(row)

    @pytest.mark.parametrize("lane", LANES)
    def test_one_corrupted_lane_fails_both_checks(self, lane, monkeypatch):
        # Lane 1 of row 6 gains one in its top byte, so only the last byte
        # plane of a wide lane sees it.
        rows = list(islice(intermediate_configuration(self.EXPONENTS[lane]), 12))
        r = rows[6]
        values = _unpack(r.packed + (1 << 2 * lane - 8), r.width, lane)
        bad = forged_row(r.index, r.y_min, values, lane)
        assert r.lane == lane and bad.values != bad.values[::-1]
        self.assert_match(bad)
        rows[6] = bad
        monkeypatch.setattr(checks, "intermediate_configuration", lambda n: iter(rows))
        results = checks.run_checks(self.EXPONENTS[lane], ["row-symmetry", "diff-antisymmetry"])
        assert [(c.name, c.passed, c.detail) for c in results] == [
            ("row-symmetry", False, "asymmetric rows: [6]"),
            ("diff-antisymmetry", False, "difference row 7"),
        ]


class TestRowBound:
    @pytest.mark.parametrize("n,expected", [(0, 1), (4, 10), (5, 16)])
    def test_examples(self, n, expected):
        assert row_bound(n) == expected

    def test_overflow_guard(self):
        with pytest.raises(ChipOverflowError):
            row_bound(MAX_EXPONENT + 1)
