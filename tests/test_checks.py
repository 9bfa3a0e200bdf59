from collections import Counter

import pytest

from forge import forged_context, forged_row
from chipfire import Row, checks, core, difftable, oracle, stable, structure
from chipfire.cli import main
from chipfire.checks import (
    CheckResult,
    failures,
    minimal_descent_check,
    run_checks,
)

EXPECTED_NAMES = {
    "row-symmetry",
    "row-contiguity",
    "even-diagonal",
    "chip-parity-accounting",
    "monotone-steps",
    "pascal-top-rows",
    "first-stable-row",
    "length-steps",
    "length-parity",
    "row-start-pattern",
    "diagonal-decay",
    "row-bound",
    "last-row-pair",
    "bottom-minimal-rows",
    "distance-distribution",
    "firing-count-identity",
    "last-stable-row",
    "diff-antisymmetry",
    "diff-max-nonincreasing",
    "diff-unimodality",
    "diff-local-propagation",
    "diff-telescoping",
    "bottom-triangle-conjecture",
}


class TestRunChecks:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_everything_passes(self, n):
        results = run_checks(n)
        assert failures(results) == []
        assert {r.name for r in results} == EXPECTED_NAMES

    def test_oracle_checks_join_in(self):
        results = run_checks(3, oracle_trials=3, seed=11)
        names = {r.name for r in results}
        assert {
            "oracle-confluence",
            "oracle-arrivals",
            "oracle-firing-counts",
            "oracle-stable-parity",
        } <= names
        assert failures(results) == []

    def test_oracle_disabled_below_two_trials(self):
        names = {r.name for r in run_checks(3, oracle_trials=1)}
        assert not any(name.startswith("oracle") for name in names)

    def test_properties_filter(self):
        results = run_checks(4, properties=["diff"])
        assert results
        assert all("diff" in r.name for r in results)

    def test_empty_filter_entry_names_no_check(self):
        # An empty entry is a substring of every name; it is refused
        # rather than selecting the whole scorecard.
        with pytest.raises(ValueError, match="filter '' names no check"):
            checks.scorecard([5], ["row", ""])

    def test_trials_past_the_cap_are_refused(self, monkeypatch):
        # Refused before the filter is read or any check runs.
        monkeypatch.setattr(checks, "run_checks", None)
        with pytest.raises(ValueError, match=f"exceed the cap of {oracle.MAX_TRIALS}"):
            checks.scorecard([12], ["no-such-check"], oracle_trials=oracle.MAX_TRIALS + 1)

    @pytest.mark.parametrize(
        "filters",
        [[name] for name in checks.CHECK_NAMES]
        + [["diff"], ["oracle"], ["oracle-a"], ["row"], ["stable"], ["-"], ["oracle", "row-sym"]],
    )
    def test_filter_selects_from_the_full_scorecard(self, filters):
        # Only the selected folds start, and the oracle runs only for an
        # oracle check, but the results are those of the full run.
        full = run_checks(6, oracle_trials=3, seed=2)
        expected = [r for r in full if any(p in r.name for p in filters)]
        assert run_checks(6, properties=filters, oracle_trials=3, seed=2) == expected

    def test_filter_without_oracle_checks_never_simulates(self, monkeypatch, capsys):
        calls = []
        real = oracle.simulate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "simulate", counted)
        assert run_checks(6, properties=["row-symmetry", "diff"], oracle_trials=50)
        assert main(["verify", "--n", "2..6", "--trials", "50", "--properties", "distance"]) == 0
        capsys.readouterr()
        assert calls == []
        assert run_checks(6, properties=["oracle-arrivals"], oracle_trials=2)
        assert len(calls) == 5

    @pytest.mark.parametrize("ns, trials", [
        ((11,), 2), ((0,), 2), ((0, 11, 12), 10), (range(1, 11), 1), (range(1, 11), 0),
        (range(1, 11), -3), ((), 2),
    ])
    @pytest.mark.parametrize("filters", [["oracle"], ["oracle-arrivals", "oracle-confluence"]])
    def test_oracle_only_filter_that_can_run_nothing_is_refused(
        self, monkeypatch, filters, ns, trials
    ):
        # The oracle runs for no n, so the filter would leave an empty
        # scorecard; it is refused before any table is streamed.
        monkeypatch.setattr(checks, "intermediate_configuration", None)
        monkeypatch.setattr(oracle, "confluence_check", None)
        with pytest.raises(ValueError, match=(
            "^--properties filter selects only oracle checks, which run only with "
            r"at least 2 trials and for n in 1\.\.10$"
        )):
            checks.scorecard(ns, filters, oracle_trials=trials)

    @pytest.mark.parametrize("filters, ns, trials", [
        (["oracle"], (0, 10, 11), 2),
        (["oracle", "minimal"], (11,), 0),
        (["oracle", "row-bound"], (4,), 0),
        (None, (11,), 0),
    ])
    def test_a_filter_with_something_to_run_is_kept(self, filters, ns, trials):
        assert checks.scorecard(ns, filters, oracle_trials=trials)

    @pytest.mark.parametrize("filters", [None, ["oracle"], ["row-symmetry"]])
    def test_bad_exponent_raises_under_any_filter(self, filters):
        # A filter that needs no table still has its n checked.
        with pytest.raises(ValueError, match="nonnegative"):
            run_checks(-1, properties=filters, oracle_trials=3)
        with pytest.raises(core.ChipOverflowError):
            run_checks(10**6, properties=filters)

    def test_degenerate_n0_skips_with_notice(self):
        results = {r.name: r for r in run_checks(0)}
        assert results["even-diagonal"].detail.startswith("skipped")
        assert results["even-diagonal"].passed


@pytest.fixture(scope="module")
def full_scorecards():
    """The full scorecard of n = 0..12 without the oracle, and of n = 5 with
    two oracle trials, keyed by ``(ns, trials)``."""
    return {
        (ns, trials): checks.scorecard(ns, oracle_trials=trials)
        for ns, trials in [(tuple(range(13)), 0), ((5,), 2)]
    }


@pytest.mark.parametrize("name", checks.CHECK_NAMES)
def test_single_check_filter_gives_its_full_scorecard_lines(full_scorecards, name):
    # A run builds only the step fields its started folds read, so each
    # check run alone must still give exactly its lines of the full run.
    for (ns, trials), full in full_scorecards.items():
        if name.startswith("oracle") and not trials:
            # The oracle is off, so the filter could run nothing.
            with pytest.raises(ValueError, match="only oracle checks"):
                checks.scorecard(ns, [name], oracle_trials=trials)
            continue
        expected = [r for r in full if name in r.name]
        assert checks.scorecard(ns, [name], oracle_trials=trials) == expected
        assert name in {r.name for r in expected}


class TestAdvisorySemantics:
    def test_conjecture_is_advisory(self):
        (result,) = run_checks(9, properties=["bottom-triangle"])
        assert result.advisory
        assert result.passed
        assert "12 triangle rows" in result.detail

    def test_failing_advisory_is_not_a_failure(self):
        fake = CheckResult(name="x", n=3, passed=False, detail="", advisory=True)
        real = CheckResult(name="y", n=3, passed=False, detail="", advisory=False)
        assert failures([fake]) == []
        assert failures([fake, real]) == [real]

    def test_small_n_report_is_skipped(self):
        (result,) = run_checks(1, properties=["bottom-triangle"])
        assert result.advisory and result.passed
        assert "skipped" in result.detail


class TestMinimalDescent:
    def test_default_span(self):
        result = minimal_descent_check()
        assert result.passed
        assert "j = 2..64" in result.detail

    def test_longer_span(self):
        assert minimal_descent_check(max_j=128).passed


def _replace(rows, i, values):
    rows[i] = Row(index=rows[i].index, y_min=rows[i].y_min, values=values)


def _forced(rows, i, values):
    # Row validation would reject these values, so the row is forged.
    rows[i] = forged_row(rows[i].index, rows[i].y_min, values)


#: One corruption of the n = 6 table (rows listed by index) per check it breaks.
TABLE_CORRUPTIONS = {
    "row-contiguity": lambda rows: _forced(rows, 6, (1, 6, 15, 0, 15, 6, 1)),
    "even-diagonal": lambda rows: _replace(rows, 6, (1, 6, 15, 21, 15, 6, 1)),
    "chip-parity-accounting": lambda rows: _replace(rows, 4, (6, 16, 24, 16, 6)),
    "monotone-steps": lambda rows: _replace(rows, 4, (15, 16, 24, 16, 15)),
    "pascal-top-rows": lambda rows: _replace(rows, 2, (18, 32, 18)),
    "first-stable-row": lambda rows: _replace(rows, 2, (17, 30, 17)),
    "length-steps": lambda rows: rows.pop(7),
    "length-parity": lambda rows: rows.pop(),
    "row-start-pattern": lambda rows: _replace(rows, 8, (2, 6, 13, 16, 13, 6, 2)),
    "diagonal-decay": lambda rows: _replace(rows, 10, (1, 5, 11, 16, 11, 5, 1)),
    "row-bound": lambda rows: rows.append(Row(index=27, y_min=13, values=(1, 1))),
    "last-row-pair": lambda rows: _replace(rows, 23, (1, 2, 1)),
    "bottom-minimal-rows": lambda rows: _replace(rows, 22, (1, 4, 1)),
    "distance-distribution": lambda rows: _replace(rows, 5, (3, 10, 20, 20, 10, 3)),
    "firing-count-identity": lambda rows: _replace(rows, 5, (4, 10, 20, 20, 10, 4)),
    "last-stable-row": lambda rows: _replace(rows, 23, (2, 2)),
    "diff-max-nonincreasing": lambda rows: _replace(rows, 10, (40, 5, 11, 14, 11, 5, 40)),
    "diff-unimodality": lambda rows: _replace(rows, 6, (1, 6, 7, 20, 7, 6, 1)),
    "diff-local-propagation": lambda rows: _replace(rows, 6, (1, 10, 15, 20, 15, 10, 1)),
    "bottom-triangle-conjecture": lambda rows: rows.pop(),
    "oracle-arrivals": lambda rows: _replace(rows, 5, (4, 10, 20, 20, 10, 4)),
    "oracle-firing-counts": lambda rows: _replace(rows, 5, (4, 10, 20, 20, 10, 4)),
    "oracle-stable-parity": lambda rows: _replace(rows, 5, (3, 10, 20, 20, 10, 3)),
}


#: The detail each corruption above gives its check: the lane folds must
#: name the same offender as an entry-by-entry reading.
TABLE_DETAILS = {
    "row-contiguity": "",
    "even-diagonal": "odd centers at rows [6]",
    "chip-parity-accounting": "row 3 forwards 68, expected 64",
    "monotone-steps": "row 4: step 1 at y=0 breaks the growth rule",
    "pascal-top-rows": "row 2 is not the scaled binomial row",
    "first-stable-row": "first odd entry in row 2, expected 6",
    "length-steps": "non-unit steps after rows [6]",
    "length-parity": "23 nonzero rows",
    "row-start-pattern": "row 8 does not mirror row 6",
    "diagonal-decay": "center at x=5 is 16, needs <= 14",
    "row-bound": "last nonzero row 27, bound 26",
    "last-row-pair": "last row values (1, 2, 1)",
    "bottom-minimal-rows": "non-minimal rows [22]",
    "distance-distribution": "66 chips, expected 2**6",
    "firing-count-identity": "460 firings; half moment 458",
    "last-stable-row": "last chips in row 22 with pattern 101",
    "diff-max-nonincreasing": "maxima rise after rows [10]",
    "diff-unimodality": "non-unimodal rows [7]",
    "diff-local-propagation": "rows 6->7 at y=0",
    "bottom-triangle-conjecture": "5 triangle rows, longest row 7",
    "oracle-arrivals": "arrival grid matches the streamed table",
    "oracle-firing-counts": "every point fired F // 2 times",
    "oracle-stable-parity": "stable chips sit exactly on odd arrival counts",
}


def _doubled(rows):
    for i in range(len(rows)):
        _replace(rows, i, tuple(2 * v for v in rows[i].values))


#: More corruptions of the n = 6 table, as ``(check, corruption, detail)``:
#: tables that end early or hold no row, and the failure branches that no
#: corruption above reaches.
FAILURE_DETAILS = [
    ("pascal-top-rows", lambda rows: rows.__delitem__(slice(3, None)),
     "row 3 is not the scaled binomial row"),
    ("pascal-top-rows", list.clear, "row 0 is not the scaled binomial row"),
    ("row-bound", list.clear, "last nonzero row None, bound 26"),
    ("last-row-pair", list.clear, "last row values ()"),
    ("chip-parity-accounting", list.pop, "row 22 forwards 0, expected 2"),
    ("row-start-pattern", lambda rows: rows.__delitem__(slice(18, None)),
     "row 16 has no row 18"),
    ("diagonal-decay", lambda rows: _replace(rows, 22, (1, 1, 1)),
     "center at x=12 is 0, needs <= -1"),
    ("firing-count-identity", lambda rows: _forced(rows, 5, (3, 10, 20, 20, 10, 2)),
     "odd second moment 941"),
    ("last-stable-row", _doubled, "configuration has no chips"),
]


#: Corruptions of difference row 5, which the table itself cannot carry, in
#: the lanes the difference checks read: each maps ``(packed, lane, lanes)``
#: (the difference lanes of ``difftable._diff_lanes``, each entry biased by
#: ``2**(lane-2)``, their width and their count) to the corrupted packed
#: int, with the detail of the failure.  The helper that applies them
#: rebuilds the second differences of the context from the corrupted lanes.
DIFF_CORRUPTIONS = {
    # The last entry raised by 1.
    "diff-antisymmetry": (
        lambda packed, lane, lanes: packed + (1 << (lanes - 1) * lane),
        "difference row 5",
    ),
    # Every entry negated.
    "diff-telescoping": (
        lambda packed, lane, lanes: (core._repeat(1, lane, lanes) << lane - 1) - packed,
        "row 4 not recovered at position 0",
    ),
}


class TestRerouteMutations:
    """Every named check reports a failure on a table corrupted for it."""

    N = 6

    def _run_on(self, monkeypatch, rows, name, trials=0):
        monkeypatch.setattr(checks, "intermediate_configuration", lambda n: iter(rows))
        (result,) = run_checks(self.N, properties=[name], oracle_trials=trials)
        return result

    def _mirrored_pair(self, table, delta):
        # Add delta to one entry off the center and to its mirror, so the
        # row stays palindromic and positive.
        rows = list(table(self.N))
        i = next(k for k, r in enumerate(rows) if r.width >= 3)
        v = list(rows[i].values)
        v[0] += delta
        v[-1] += delta
        rows[i] = Row(index=rows[i].index, y_min=rows[i].y_min, values=tuple(v))
        return rows

    def test_firing_count_identity(self, monkeypatch, table):
        rows = self._mirrored_pair(table, 2)
        result = self._run_on(monkeypatch, rows, "firing-count-identity")
        assert result.name == "firing-count-identity"
        assert not result.passed

    def test_distance_distribution(self, monkeypatch, table):
        rows = self._mirrored_pair(table, 1)
        result = self._run_on(monkeypatch, rows, "distance-distribution")
        assert result.name == "distance-distribution"
        assert not result.passed
        # The detail is the message of stable.distribution_from_counts.
        assert result.detail == "66 chips, expected 2**6"

    def test_last_stable_row(self, monkeypatch, table):
        rows = list(table(self.N))
        last = rows[-1]
        rows[-1] = Row(index=last.index, y_min=last.y_min, values=(2, 2))
        result = self._run_on(monkeypatch, rows, "last-stable-row")
        assert result.name == "last-stable-row"
        assert not result.passed

    def test_every_check_has_a_corruption(self):
        names = {r.name for r in run_checks(self.N, oracle_trials=2)}
        covered = set(TABLE_CORRUPTIONS) | set(DIFF_CORRUPTIONS)
        assert names == covered | {"row-symmetry", "oracle-confluence"}

    def test_row_symmetry(self, monkeypatch, table):
        # An asymmetric row has no difference row, so the pass is handed
        # those of the intact table and only row-symmetry sees the damage.
        rows = list(table(self.N))
        intact = {r.index: difftable.diff_row(r) for r in rows}
        monkeypatch.setattr(difftable, "diff_row", lambda r: intact[r.index])
        _forced(rows, 3, (8, 24, 24, 9))
        result = self._run_on(monkeypatch, rows, "row-symmetry")
        assert result.name == "row-symmetry"
        assert not result.passed

    @pytest.mark.parametrize("name", list(TABLE_CORRUPTIONS))
    def test_corrupted_table(self, monkeypatch, table, name):
        rows = list(table(self.N))
        TABLE_CORRUPTIONS[name](rows)
        trials = 2 if name.startswith("oracle") else 0
        result = self._run_on(monkeypatch, rows, name, trials)
        assert result.name == name
        assert not result.passed
        assert result.detail == TABLE_DETAILS[name]
        # The same table passes once uncorrupted.
        assert self._run_on(monkeypatch, list(table(self.N)), name, trials).passed

    @pytest.mark.parametrize(
        "name, corrupt, detail", FAILURE_DETAILS,
        ids=[f"{name}-{k}" for k, (name, _, _) in enumerate(FAILURE_DETAILS)],
    )
    def test_failure_detail(self, monkeypatch, table, name, corrupt, detail):
        rows = list(table(self.N))
        corrupt(rows)
        assert self._run_on(monkeypatch, rows, name) == CheckResult(name, self.N, False, detail)

    def test_empty_stream_gives_a_scorecard(self, monkeypatch):
        monkeypatch.setattr(checks, "intermediate_configuration", lambda n: iter(()))
        results = run_checks(self.N)
        assert {r.name for r in results} == EXPECTED_NAMES
        assert {"pascal-top-rows", "row-bound", "last-row-pair"} <= {
            r.name for r in failures(results)
        }

    @pytest.mark.parametrize(
        "alter, failing",
        [
            (lambda rows: rows.pop(), {"oracle-arrivals", "oracle-stable-parity"}),
            (lambda rows: rows.__delitem__(slice(2)), {"oracle-arrivals", "oracle-firing-counts"}),
            (
                lambda rows: rows.append(Row(index=27, y_min=13, values=(1, 1))),
                {"oracle-arrivals", "oracle-stable-parity"},
            ),
        ],
        ids=["last-row-dropped", "first-rows-dropped", "row-appended"],
    )
    def test_oracle_folds_count_the_grid_at_the_end(self, monkeypatch, table, alter, failing):
        # A missing row shows only once the table has ended, as a point of
        # the simulated grid that no streamed entry met; an extra row shows
        # as an entry the grid does not hold.
        rows = list(table(self.N))
        alter(rows)
        monkeypatch.setattr(checks, "intermediate_configuration", lambda n: iter(rows))
        results = run_checks(self.N, ["oracle"], oracle_trials=2)
        assert [r.name for r in results] == [
            name for name in checks.CHECK_NAMES if name.startswith("oracle")
        ]
        assert {r.name for r in results if not r.passed} == failing

    def _corrupt_difference_row(self, monkeypatch, name):
        real = difftable._diff_lanes
        corrupt, _ = DIFF_CORRUPTIONS[name]

        def corrupted(source):
            context = real(source)
            if source.index + 1 != 5:
                return context
            packed, lane = context[:2]
            return forged_context(source, corrupt(packed, lane, source.width + 1))

        monkeypatch.setattr(difftable, "_diff_lanes", corrupted)

    @pytest.mark.parametrize("name", list(DIFF_CORRUPTIONS))
    def test_corrupted_difference_row(self, monkeypatch, name):
        self._corrupt_difference_row(monkeypatch, name)
        (result,) = run_checks(self.N, properties=[name])
        assert result.name == name
        assert not result.passed
        assert result.detail == DIFF_CORRUPTIONS[name][1]

    #: Every check that fails on each corruption of ``DIFF_CORRUPTIONS``,
    #: with its detail, captured before the lane folds shared one kept
    #: context per row: the negated row reaches diff-unimodality through
    #: the kept second differences, and monotone-steps through the kept
    #: difference lanes.
    DIFF_FAILURES = {
        "diff-antisymmetry": {
            "diff-antisymmetry": "difference row 5",
            "diff-telescoping": "row 5 sums to 1",
        },
        "diff-telescoping": {
            "monotone-steps": "row 4: step -12 at y=0 breaks the growth rule",
            "diff-unimodality": "non-unimodal rows [5]",
            "diff-telescoping": "row 4 not recovered at position 0",
        },
    }

    @pytest.mark.parametrize("name", list(DIFF_CORRUPTIONS))
    def test_corrupted_difference_row_fails_every_reader(self, monkeypatch, name):
        self._corrupt_difference_row(monkeypatch, name)
        failed = {r.name: r.detail for r in failures(run_checks(self.N))}
        assert failed == self.DIFF_FAILURES[name]

    def test_unimodality_alone_reads_the_corrupted_lanes(self, monkeypatch):
        # With no other fold reading the difference rows, the shape must
        # still read the context that difftable._diff_lanes built.
        self._corrupt_difference_row(monkeypatch, "diff-telescoping")
        (result,) = run_checks(self.N, properties=["diff-unimodality"])
        assert (result.passed, result.detail) == (False, "non-unimodal rows [5]")

    def test_telescoping_reports_the_full_sum(self, monkeypatch):
        # The last difference raised by 1: every partial sum but the full
        # one still rebuilds the row.
        self._corrupt_difference_row(monkeypatch, "diff-antisymmetry")
        (result,) = run_checks(self.N, properties=["diff-telescoping"])
        assert (result.passed, result.detail) == (False, "row 5 sums to 1")

    def test_minimal_descent(self, monkeypatch):
        monkeypatch.setattr(checks, "next_row", lambda r: r)
        assert not minimal_descent_check().passed

    def test_oracle_firing_counts_differ(self, monkeypatch):
        # Only the fifo-queue run's firing counts differ: one point fired
        # once more.
        real = oracle.simulate

        def simulate(n, strategy="row-by-row", **kwargs):
            state = real(n, strategy, **kwargs)
            if strategy == "fifo-queue":
                state.firings[next(iter(state.firings))] += 1
            return state

        monkeypatch.setattr(oracle, "simulate", simulate)
        (result,) = run_checks(self.N, ["oracle-confluence"], oracle_trials=2)
        assert (result.passed, result.detail) == (
            False, "5 runs, 458 moves; fifo-queue: firing counts differ from random[0]",
        )

    def test_oracle_confluence(self, monkeypatch):
        # The table plays no part: one firing order that reports a move
        # more than the others is enough.
        (result,) = run_checks(self.N, ["oracle-confluence"], oracle_trials=2)
        assert (result.passed, result.detail) == (True, "5 runs, 458 moves")
        real = oracle.simulate

        def simulate(n, strategy="row-by-row", **kwargs):
            s = real(n, strategy, **kwargs)
            if strategy == "fifo-queue":
                return oracle.OracleState(s.n, s.moves + 1, s.chips, s.firings)
            return s

        monkeypatch.setattr(oracle, "simulate", simulate)
        (result,) = run_checks(self.N, ["oracle-confluence"], oracle_trials=2)
        assert (result.name, result.passed, result.detail) == (
            "oracle-confluence", False,
            "5 runs, 458 moves; fifo-queue: 459 moves != 458 (random[0])",
        )


def _corrupt_lane(child, lane, width, which):
    """``child`` with its lowest lane raised by 1, or its middle lane zeroed."""
    if which == "asymmetric":
        return child + 1
    return child & ~(((1 << lane) - 1) << (lane * (width // 2)))


class TestCorruptedKernel:
    """Kernel rows are not validated, so a corrupted kernel step reaches the
    checks, which report it."""

    N = 6
    #: Checks that fail on each corruption of the kernel's row 6, with
    #: their details.
    BROKEN = {
        "asymmetric": {
            "row-symmetry": "asymmetric rows: [6, 7, 8, 9, 10]",
            "diff-antisymmetry": "difference row 7",
        },
        "zero-inside": {"row-contiguity": ""},
    }

    def _corrupt(self, monkeypatch, which):
        real = core._step
        target = structure.pascal_row(self.N, 6).values

        def step(packed, lane, mask):
            child, lo, width = real(packed, lane, mask)
            if core._unpack(child, width, lane) == target:
                child = _corrupt_lane(child, lane, width, which)
            return child, lo, width

        monkeypatch.setattr(core, "_step", step)

    @pytest.mark.parametrize("which", list(BROKEN))
    def test_checks_report_it(self, monkeypatch, which):
        self._corrupt(monkeypatch, which)
        rows = list(core.intermediate_configuration(self.N))
        assert rows[6].width == 7
        assert (rows[6].values == rows[6].values[::-1]) == (which != "asymmetric")
        assert (0 in rows[6].values) == (which == "zero-inside")
        failed = {r.name: r.detail for r in failures(run_checks(self.N))}
        assert self.BROKEN[which].items() <= failed.items()

    @pytest.mark.parametrize("which", list(BROKEN))
    def test_verify_prints_a_scorecard(self, monkeypatch, capsys, which):
        self._corrupt(monkeypatch, which)
        rc = main(["verify", "--n", str(self.N), "--trials", "0"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err == ""
        for name in self.BROKEN[which]:
            assert f"n={self.N} {name}: FAIL" in out
        assert out.splitlines()[-1].startswith("summary: ")

    def test_distance_is_an_invariant_failure(self, monkeypatch, capsys):
        # The asymmetric row leaves an asymmetric distance distribution.
        self._corrupt(monkeypatch, "asymmetric")
        rc = main(["distance", "--n", str(self.N)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("chipfire: ")

    def test_minimal_descent_reports_the_break(self, monkeypatch, capsys):
        # Zeroing the third lane of every wide child leaves a gap that
        # next_row refuses; the check reports where instead of raising.
        real = core._step

        def step(packed, lane, mask):
            child, lo, width = real(packed, lane, mask)
            if width >= 5:
                child &= ~(((1 << lane) - 1) << (2 * lane))
            return child, lo, width

        monkeypatch.setattr(core, "_step", step)
        rc = main(["verify", "--n", "4", "--trials", "0", "--properties", "minimal-row-descent"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err == ""
        assert "minimal-row-descent: FAIL (descent breaks at j=5" in out
        assert out.splitlines()[-1] == "summary: 1 checks, 1 failures"


class TestSinglePass:
    def test_one_stream_per_run(self, monkeypatch):
        calls = []
        real = checks.intermediate_configuration

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(checks, "intermediate_configuration", counted)
        monkeypatch.setattr(structure, "intermediate_configuration", counted)
        assert failures(run_checks(7, oracle_trials=2)) == []
        assert calls == [7]

    def test_folds_read_the_lanes(self, monkeypatch):
        # Only pascal-top-rows (rows 0..n) and last-row-pair (the last row)
        # read row values; no difference row is built entry by entry.
        n = 12
        unpacked = []
        real = core._unpack

        def counted(packed, width, lane):
            unpacked.append(width)
            return real(packed, width, lane)

        def refuse(d):
            raise AssertionError(f"difference row {d.index} built entry by entry")

        monkeypatch.setattr(core, "_unpack", counted)
        monkeypatch.setattr(difftable.DiffRow, "values", property(refuse))
        assert failures(run_checks(n)) == []
        assert len(unpacked) <= n + 2

    def test_one_lane_context_per_row(self, monkeypatch, table):
        # The difference lanes, their second differences and the row's lane
        # constants are built once per row and shared by every lane fold:
        # difftable._diff_lanes, the one builder of a context, runs once per row,
        # when the difference row is built, which keeps what it returns.
        seen = []
        real = difftable._diff_lanes

        def counted(source):
            seen.append(source.index)
            return real(source)

        monkeypatch.setattr(difftable, "_diff_lanes", counted)
        assert failures(run_checks(12)) == []
        assert seen == [r.index for r in table(12)]

    def test_stream_stops_when_no_fold_is_left(self, monkeypatch, table):
        # pascal-top-rows settles after rows 0..n; nothing reads on after
        # it, unless an oracle cross-check compares the rest of the table
        # with the simulated grid.
        pulled = []
        real = checks.intermediate_configuration

        def counted(n):
            for r in real(n):
                pulled.append(r.index)
                yield r

        monkeypatch.setattr(checks, "intermediate_configuration", counted)
        assert failures(run_checks(18, ["pascal-top-rows"])) == []
        assert pulled == list(range(19))
        pulled.clear()
        assert failures(run_checks(4, ["pascal-top-rows", "oracle-arrivals"], oracle_trials=2)) == []
        assert pulled == [r.index for r in table(4)]

    def test_confluence_alone_reads_no_row(self, monkeypatch):
        # oracle-confluence has its verdict before the table is read, so a
        # run that selects nothing else never starts the stream.
        pulled = []
        real = checks.intermediate_configuration

        def counted(n):
            for r in real(n):
                pulled.append(r.index)
                yield r

        monkeypatch.setattr(checks, "intermediate_configuration", counted)
        (result,) = run_checks(10, ["oracle-confluence"], oracle_trials=2)
        assert (result.name, result.passed) == ("oracle-confluence", True)
        assert pulled == []

    def test_lane_constants_come_from_the_cache(self, monkeypatch, table):
        # The lane folds take their all-ones and top-bit ints from the
        # lru_cache of _diff_constants.  Its body, and so its one _repeat,
        # runs only on a cache miss, not once or more per row.  The cache is
        # emptied first, so the count does not depend on the tests run
        # before.
        calls = []
        real = difftable._repeat

        def counted(value, lane, lanes):
            calls.append((lane, lanes))
            return real(value, lane, lanes)

        monkeypatch.setattr(difftable, "_repeat", counted)
        difftable._diff_constants.cache_clear()
        assert failures(run_checks(18)) == []
        misses = difftable._diff_constants.cache_info().misses
        assert len(calls) == misses < len(table(18)) // 20

    def test_one_stable_row_per_row(self, monkeypatch, table):
        calls = []
        real = stable.stable_row

        def counted(r):
            calls.append(r.index)
            return real(r)

        monkeypatch.setattr(stable, "stable_row", counted)
        assert failures(run_checks(12)) == []
        assert calls == [r.index for r in table(12)]

    def test_one_row_total_per_row(self, monkeypatch, table):
        calls = []
        real = core.Row.chip_sum

        def counted(r):
            calls.append(r.index)
            return real(r)

        monkeypatch.setattr(core.Row, "chip_sum", counted)
        assert failures(run_checks(12)) == []
        assert calls == [r.index for r in table(12)]

    @pytest.mark.parametrize(
        "properties, built",
        [
            (["row-bound"], set()),
            (["diff-telescoping"], {"diff"}),
            (["distance-distribution"], {"counts"}),
            (["chip-parity-accounting"], {"chips", "stable"}),
            (None, {"chips", "diff", "stable", "counts"}),
        ],
    )
    def test_builds_only_what_the_started_folds_read(self, monkeypatch, table, properties, built):
        # Each row's total, difference row, stable row and distance count
        # are built once per row while a started fold reads them, and not
        # at all otherwise.
        calls = Counter()

        def counting(kind, real):
            def counted(*args):
                calls[kind] += 1
                return real(*args)

            return counted

        monkeypatch.setattr(core.Row, "chip_sum", counting("chips", core.Row.chip_sum))
        monkeypatch.setattr(difftable, "diff_row", counting("diff", difftable.diff_row))
        monkeypatch.setattr(stable, "stable_row", counting("stable", stable.stable_row))
        monkeypatch.setattr(
            stable._DistanceCounts, "add", counting("counts", stable._DistanceCounts.add)
        )
        assert failures(run_checks(12, properties)) == []
        assert calls == {kind: len(table(12)) for kind in built}

    def test_each_order_simulated_once(self, monkeypatch, capsys):
        # The oracle cross-checks read the row-by-row run of the confluence
        # check: trials random orders plus three deterministic ones per n.
        calls = Counter()
        real = oracle.simulate

        def counted(n, *args, **kwargs):
            calls[n] += 1
            return real(n, *args, **kwargs)

        monkeypatch.setattr(oracle, "simulate", counted)
        assert main(["verify", "--n", "2..4", "--trials", "3"]) == 0
        capsys.readouterr()
        assert calls == {2: 6, 3: 6, 4: 6}

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_pass_matches_conjecture_report(self, n):
        (result,) = run_checks(n, properties=["bottom-triangle"])
        assert (result.name, result.n, result.advisory) == ("bottom-triangle-conjecture", n, True)
        if n < 2:
            with pytest.raises(ValueError):
                structure.check_bottom_conjecture(n)
            assert (result.passed, result.detail) == (True, "skipped: needs n >= 2")
            return
        rep = structure.check_bottom_conjecture(n)
        assert result.passed == rep.holds
        assert result.detail == f"{rep.triangle_rows} triangle rows, longest row {rep.longest_length}"
