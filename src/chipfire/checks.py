"""Named invariant checks over computed tables, shared by tests and the CLI.

Each check re-derives one structural fact about a table and reports a
:class:`CheckResult` instead of raising, so a verification run can print
the full scorecard.  Checks marked advisory (the bottom-triangle height
report) never count as failures: they track an empirical claim, not a
proven property.

Checks that are vacuous for a given n (most need n >= 1, some n > 2)
report a pass with a "skipped" note rather than disappearing, so runs over
a range of n always print the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import difftable, oracle, stable, structure
from .core import Row, intermediate_configuration, next_row, row_bound


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int | None
    passed: bool
    detail: str = ""
    advisory: bool = False


def failures(results: Iterable[CheckResult]) -> list[CheckResult]:
    """Non-advisory failures; the CLI exit status is driven by these."""
    return [r for r in results if not r.passed and not r.advisory]


def _result(name: str, n: int | None, ok: bool, detail: str = "", advisory: bool = False) -> CheckResult:
    return CheckResult(name=name, n=n, passed=ok, detail=detail, advisory=advisory)


def _skip(name: str, n: int, why: str) -> CheckResult:
    return CheckResult(name=name, n=n, passed=True, detail=f"skipped: {why}")


# ---------------------------------------------------------------------------
# arrival-table checks


def _check_row_symmetry(n: int, rows: Sequence[Row]) -> CheckResult:
    bad = [r.index for r in rows if r.values != r.values[::-1]]
    return _result("row-symmetry", n, not bad, f"asymmetric rows: {bad[:5]}" if bad else "")


def _check_row_contiguity(n: int, rows: Sequence[Row]) -> CheckResult:
    bad = [r.index for r in rows if any(v <= 0 for v in r.values)]
    return _result("row-contiguity", n, not bad)


def _check_even_diagonal(n: int, rows: Sequence[Row]) -> CheckResult:
    if n < 1:
        return _skip("even-diagonal", n, "needs n >= 1")
    bad = [
        r.index
        for r in rows
        if r.index % 2 == 0 and r.value_at(r.index // 2) % 2 != 0
    ]
    return _result("even-diagonal", n, not bad, f"odd centers at rows {bad[:5]}" if bad else "")


def _check_chip_parity_accounting(n: int, rows: Sequence[Row]) -> CheckResult:
    # Each row forwards sum - #odd chips; the odd entries retire one chip
    # each, and all 2**n chips retire somewhere.
    retired = 0
    for i, r in enumerate(rows):
        odd = sum(v & 1 for v in r.values)
        retired += odd
        forwarded = rows[i + 1].chip_sum() if i + 1 < len(rows) else 0
        if forwarded != r.chip_sum() - odd:
            return _result(
                "chip-parity-accounting", n, False,
                f"row {r.index} forwards {forwarded}, expected {r.chip_sum() - odd}",
            )
    ok = retired == 1 << n
    return _result(
        "chip-parity-accounting", n, ok,
        f"{retired} chips retired into the stable configuration",
    )


def _check_monotone_steps(n: int, rows: Sequence[Row]) -> CheckResult:
    # Within a row, steps grow by >= 2 strictly left of the diagonal, by
    # >= 1 onto it, mirror on the right, and the central pair of an
    # even-width row is equal.
    for r in rows:
        i = r.index
        for k in range(r.width - 1):
            yl = r.y_min + k
            yr = yl + 1
            d = r.values[k + 1] - r.values[k]
            if 2 * yr < i:
                ok = d >= 2
            elif 2 * yr == i:
                ok = d >= 1
            elif 2 * yl == i:
                ok = d <= -1
            elif 2 * yl > i:
                ok = d <= -2
            else:
                ok = d == 0
            if not ok:
                return _result(
                    "monotone-steps", n, False,
                    f"row {i}: step {d} at y={yl} breaks the growth rule",
                )
    return _result("monotone-steps", n, True)


def _check_pascal_top_rows(n: int, rows: Sequence[Row]) -> CheckResult:
    for i in range(min(n, len(rows) - 1) + 1):
        if rows[i] != structure.pascal_row(n, i):
            return _result("pascal-top-rows", n, False, f"row {i} is not the scaled binomial row")
    return _result("pascal-top-rows", n, True)


def _check_first_stable_row(n: int, rows: Sequence[Row]) -> CheckResult:
    first = next((r.index for r in rows if any(v & 1 for v in r.values)), None)
    return _result(
        "first-stable-row", n, first == n,
        f"first odd entry in row {first}, expected {n}",
    )


def _check_length_steps(n: int, rows: Sequence[Row]) -> CheckResult:
    lengths = [r.width for r in rows]
    bad = [
        i for i in range(len(lengths) - 1)
        if abs(lengths[i + 1] - lengths[i]) != 1
    ]
    return _result("length-steps", n, not bad, f"non-unit steps after rows {bad[:5]}" if bad else "")


def _check_length_parity(n: int, rows: Sequence[Row]) -> CheckResult:
    if n < 1:
        return _skip("length-parity", n, "needs n >= 1")
    lengths = [r.width for r in rows]
    alternates = all(
        (lengths[i] + lengths[i + 1]) % 2 == 1 for i in range(len(lengths) - 1)
    )
    even_total = len(lengths) % 2 == 0
    return _result(
        "length-parity", n, alternates and even_total,
        f"{len(lengths)} nonzero rows",
    )


def _check_row_start_pattern(n: int, rows: Sequence[Row]) -> CheckResult:
    # A row starting 1, a with 4 <= a <= 7 repeats its length two rows down
    # and starts with 1 again.
    for i, r in enumerate(rows):
        if r.width >= 2 and r.values[0] == 1 and 4 <= r.values[1] <= 7:
            if i + 2 >= len(rows):
                return _result("row-start-pattern", n, False, f"row {r.index} has no row {r.index + 2}")
            two_down = rows[i + 2]
            if two_down.width != r.width or two_down.values[0] != 1:
                return _result(
                    "row-start-pattern", n, False,
                    f"row {r.index + 2} does not mirror row {r.index}",
                )
    return _result("row-start-pattern", n, True)


def _check_diagonal_decay(n: int, rows: Sequence[Row]) -> CheckResult:
    if n < 1:
        return _skip("diagonal-decay", n, "needs n >= 1")
    centers = {r.index // 2: r.value_at(r.index // 2) for r in rows if r.index % 2 == 0}
    for x, c in centers.items():
        if c > 0 and centers.get(x + 1, 0) > c - 2:
            return _result(
                "diagonal-decay", n, False,
                f"center at x={x + 1} is {centers.get(x + 1, 0)}, needs <= {c - 2}",
            )
    return _result("diagonal-decay", n, True)


def _check_row_bound(n: int, rows: Sequence[Row]) -> CheckResult:
    bound = row_bound(n)
    last = rows[-1].index
    return _result("row-bound", n, last <= bound, f"last nonzero row {last}, bound {bound}")


def _check_last_row_pair(n: int, rows: Sequence[Row]) -> CheckResult:
    if n < 1:
        return _skip("last-row-pair", n, "needs n >= 1")
    return _result(
        "last-row-pair", n, rows[-1].values == (1, 1),
        f"last row values {rows[-1].values}",
    )


def _check_bottom_minimal_rows(n: int, rows: Sequence[Row]) -> CheckResult:
    if n < 1:
        return _skip("bottom-minimal-rows", n, "needs n >= 1")
    lengths = [r.width for r in rows]
    start = structure._terminal_decreasing_run(lengths)
    bad = [rows[i].index for i in range(start, len(rows)) if not structure.is_minimal(rows[i])]
    return _result(
        "bottom-minimal-rows", n, not bad,
        f"{len(rows) - start} terminal rows" if not bad else f"non-minimal rows {bad[:5]}",
    )


# ---------------------------------------------------------------------------
# stable-configuration checks


def _check_distance_distribution(n: int, config: stable.StableConfig) -> CheckResult:
    if config.chip_count != 1 << n:
        return _result("distance-distribution", n, False, f"{config.chip_count} chips, expected {1 << n}")
    if n >= 1 and any(x == y for x, y in config.marked_points()):
        return _result("distance-distribution", n, False, "chip left on the diagonal")
    d = stable.distance_distribution(config)
    symmetric = all(d.count(i) == d.count(-i) for i in d.offsets())
    centered = n == 0 or d.count(0) == 0
    total = sum(d.counts) == 1 << n
    return _result(
        "distance-distribution", n, symmetric and centered and total,
        f"half width {d.half_width}",
    )


def _check_firing_count_identity(n: int, rows: Sequence[Row]) -> CheckResult:
    via_sum, mu2 = stable.firing_routes(rows)
    if mu2 & 1:
        return _result("firing-count-identity", n, False, f"odd second moment {mu2}")
    return _result(
        "firing-count-identity", n, mu2 >> 1 == via_sum,
        f"{via_sum} firings; half moment {mu2 >> 1}",
    )


def _check_last_stable_row(n: int, rows: Sequence[Row], config: stable.StableConfig) -> CheckResult:
    if n < 1:
        return _skip("last-stable-row", n, "needs n >= 1")
    last = config.last_marked_row()
    ok = last.index == rows[-1].index and last.pattern() == "11"
    return _result(
        "last-stable-row", n, ok,
        f"last chips in row {last.index} with pattern {last.pattern()}",
    )


# ---------------------------------------------------------------------------
# difference-table checks


def _diff_value_at(d: difftable.DiffRow, y: int) -> int:
    k = y - d.y_min
    if 0 <= k < len(d.values):
        return d.values[k]
    return 0


def _check_diff_antisymmetry(n: int, diffs: Sequence[difftable.DiffRow]) -> CheckResult:
    for d in diffs:
        L = len(d.values)
        if any(d.values[k] != -d.values[L - 1 - k] for k in range(L)):
            return _result("diff-antisymmetry", n, False, f"difference row {d.index}")
    return _result("diff-antisymmetry", n, True)


def _check_diff_max_nonincreasing(n: int, diffs: Sequence[difftable.DiffRow]) -> CheckResult:
    if n <= 2:
        return _skip("diff-max-nonincreasing", n, "stated for n > 2")
    maxima = [difftable.row_max_abs(d) for d in diffs]
    # diffs[0] has index 1; the property starts at the comparison 2 -> 3.
    bad = [
        diffs[k].index for k in range(1, len(maxima) - 1)
        if maxima[k + 1] > maxima[k]
    ]
    return _result(
        "diff-max-nonincreasing", n, not bad,
        f"maxima rise after rows {bad[:5]}" if bad else "",
    )


def _check_diff_unimodality(n: int, diffs: Sequence[difftable.DiffRow]) -> CheckResult:
    bad = [d.index for d in diffs if not difftable.unimodal_check(d)]
    return _result(
        "diff-unimodality", n, not bad,
        f"non-unimodal rows {bad[:5]}" if bad else "",
    )


def _check_diff_local_propagation(n: int, diffs: Sequence[difftable.DiffRow]) -> CheckResult:
    # Three weakly increasing neighbors in the left half force the two
    # entries below them to be weakly increasing as well.
    for a, b in zip(diffs, diffs[1:]):
        half = a.index // 2
        for k in range(len(a.values) - 2):
            y = a.y_min + k
            if y + 2 > half:
                break
            t0, t1, t2 = a.values[k], a.values[k + 1], a.values[k + 2]
            if t0 <= t1 <= t2:
                if _diff_value_at(b, y + 1) > _diff_value_at(b, y + 2):
                    return _result(
                        "diff-local-propagation", n, False,
                        f"rows {a.index}->{b.index} at y={y}",
                    )
    return _result("diff-local-propagation", n, True)


def _check_diff_telescoping(n: int, rows: Sequence[Row], diffs: Sequence[difftable.DiffRow]) -> CheckResult:
    # Partial sums of a difference row rebuild its source row; the full sum
    # vanishes.
    for r, d in zip(rows, diffs):
        running = 0
        for k, dv in enumerate(d.values):
            running += dv
            if k < len(d.values) - 1:
                if running != r.values[k]:
                    return _result(
                        "diff-telescoping", n, False,
                        f"row {r.index} not recovered at position {k}",
                    )
        if running != 0:
            return _result("diff-telescoping", n, False, f"row {d.index} sums to {running}")
    return _result("diff-telescoping", n, True)


# ---------------------------------------------------------------------------
# oracle cross-checks


def _oracle_checks(n: int, rows: Sequence[Row], trials: int, seed: int) -> list[CheckResult]:
    report = oracle.confluence_check(n, trials=trials, seed=seed)
    results = [
        _result(
            "oracle-confluence", n, report.passed,
            f"{report.runs} runs, {report.moves} moves"
            + (f"; {report.mismatches[0]}" if report.mismatches else ""),
        )
    ]
    state = oracle.simulate(n, "row-by-row")
    table = {(x, y): v for r in rows for x, y, v in r.points()}
    results.append(
        _result("oracle-arrivals", n, oracle.arrivals(state) == table,
                "arrival grid matches the streamed table")
    )
    firings = {p: v >> 1 for p, v in table.items() if v >= 2}
    results.append(
        _result("oracle-firing-counts", n, state.nonzero_firings() == firings,
                "every point fired F // 2 times")
    )
    parity = {p: 1 for p, v in table.items() if v & 1}
    results.append(
        _result("oracle-stable-parity", n, state.nonzero_chips() == parity,
                "stable chips sit exactly on odd arrival counts")
    )
    return results


# ---------------------------------------------------------------------------
# drivers


def minimal_descent_check(max_j: int = 64) -> CheckResult:
    """Firing a minimal row of j+1 entries yields the minimal row below it."""
    for j in range(2, max_j + 1):
        child = next_row(structure.minimal_row(j))
        if child.values != structure.minimal_row(j - 1).values:
            return _result("minimal-row-descent", None, False, f"descent breaks at j={j}")
    return _result("minimal-row-descent", None, True, f"verified for j = 2..{max_j}")


def conjecture_report(n: int) -> CheckResult:
    if n < 2:
        return CheckResult(
            name="bottom-triangle-conjecture", n=n, passed=True,
            detail="skipped: needs n >= 2", advisory=True,
        )
    rep = structure.check_bottom_conjecture(n)
    return CheckResult(
        name="bottom-triangle-conjecture",
        n=n,
        passed=rep.holds,
        detail=f"{rep.triangle_rows} triangle rows, longest row {rep.longest_length}",
        advisory=True,
    )


def run_checks(
    n: int,
    properties: Sequence[str] | None = None,
    oracle_trials: int = 0,
    seed: int = 0,
    oracle_limit: int = oracle.ORACLE_EXPONENT_LIMIT,
) -> list[CheckResult]:
    """Run the invariant suite for one exponent.

    ``properties`` filters checks by substring match on the name.  Oracle
    cross-checks run only when ``oracle_trials >= 2`` and n is within the
    oracle's reach.
    """
    rows = list(intermediate_configuration(n))
    diffs = [difftable.diff_row(r) for r in rows]
    config = stable.StableConfig(n=n, rows=tuple(map(stable.stable_row, rows)))

    results = [
        _check_row_symmetry(n, rows),
        _check_row_contiguity(n, rows),
        _check_even_diagonal(n, rows),
        _check_chip_parity_accounting(n, rows),
        _check_monotone_steps(n, rows),
        _check_pascal_top_rows(n, rows),
        _check_first_stable_row(n, rows),
        _check_length_steps(n, rows),
        _check_length_parity(n, rows),
        _check_row_start_pattern(n, rows),
        _check_diagonal_decay(n, rows),
        _check_row_bound(n, rows),
        _check_last_row_pair(n, rows),
        _check_bottom_minimal_rows(n, rows),
        _check_distance_distribution(n, config),
        _check_firing_count_identity(n, rows),
        _check_last_stable_row(n, rows, config),
        _check_diff_antisymmetry(n, diffs),
        _check_diff_max_nonincreasing(n, diffs),
        _check_diff_unimodality(n, diffs),
        _check_diff_local_propagation(n, diffs),
        _check_diff_telescoping(n, rows, diffs),
    ]
    if oracle_trials >= 2 and 1 <= n <= oracle_limit:
        results.extend(_oracle_checks(n, rows, oracle_trials, seed))
    results.append(conjecture_report(n))

    if properties:
        results = [r for r in results if any(p in r.name for p in properties)]
    return results
