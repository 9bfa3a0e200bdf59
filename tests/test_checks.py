import pytest

from chipfire import Row, checks
from chipfire.checks import (
    CheckResult,
    conjecture_report,
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

    def test_degenerate_n0_skips_with_notice(self):
        results = {r.name: r for r in run_checks(0)}
        assert results["even-diagonal"].detail.startswith("skipped")
        assert results["even-diagonal"].passed


class TestAdvisorySemantics:
    def test_conjecture_is_advisory(self):
        result = conjecture_report(9)
        assert result.advisory
        assert result.passed
        assert "12 triangle rows" in result.detail

    def test_failing_advisory_is_not_a_failure(self):
        fake = CheckResult(name="x", n=3, passed=False, detail="", advisory=True)
        real = CheckResult(name="y", n=3, passed=False, detail="", advisory=False)
        assert failures([fake]) == []
        assert failures([fake, real]) == [real]

    def test_small_n_report_is_skipped(self):
        result = conjecture_report(1)
        assert result.advisory and result.passed
        assert "skipped" in result.detail


class TestMinimalDescent:
    def test_default_span(self):
        result = minimal_descent_check()
        assert result.passed
        assert "j = 2..64" in result.detail

    def test_longer_span(self):
        assert minimal_descent_check(max_j=128).passed


class TestRerouteMutations:
    """Each check fed from the shared stable routes fails on a corrupted table."""

    N = 6

    def _run_on(self, monkeypatch, rows, name):
        monkeypatch.setattr(checks, "intermediate_configuration", lambda n: iter(rows))
        (result,) = run_checks(self.N, properties=[name])
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

    def test_last_stable_row(self, monkeypatch, table):
        rows = list(table(self.N))
        last = rows[-1]
        rows[-1] = Row(index=last.index, y_min=last.y_min, values=(2, 2))
        result = self._run_on(monkeypatch, rows, "last-stable-row")
        assert result.name == "last-stable-row"
        assert not result.passed
