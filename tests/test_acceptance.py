"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` or ``-rA``
to see them).  Values are exact integer comparisons against the frozen
reference data in ``golden.py``; the per-criterion wall-clock budgets are
asserted where stated.
"""

import json
import time
from pathlib import Path

import golden
import peak_rss
from chipfire import (
    check_bottom_conjecture,
    distance_distribution,
    firing_routes,
    generate,
    intermediate_configuration,
    longest_row,
    second_raw_moment,
)
from chipfire.checks import failures, minimal_descent_check, run_checks
from chipfire.cli import main
from chipfire.oracle import arrivals, confluence_check, simulate


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed {suffix}"


def _cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_c01_golden_table(capsys):
    rc, out = _cli(capsys, "table", "--n", "4")
    got = [
        (int(i), int(y), tuple(int(v) for v in values.split()))
        for i, y, values in (line.split(",", 2) for line in out.splitlines())
    ]
    best = min(
        _timed(lambda: list(intermediate_configuration(4)))[1] for _ in range(5)
    )
    ok = rc == 0 and got == list(golden.EXAMPLE_TABLE_N4) and best < 1e-3
    _report("c01 golden-table-n4", ok, f"10 rows exact, compute {best * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_c02_total_firings_sequence(capsys):
    start = time.perf_counter()
    rc, out = _cli(capsys, "sequences", "total-firings", "--upto", "10")
    elapsed = time.perf_counter() - start
    values = [int(line.split(",")[1]) for line in out.splitlines()]
    ok = rc == 0 and values == list(golden.TOTAL_FIRINGS) and elapsed < 1.0
    _report("c02 total-firings-sequence", ok, f"11 terms in {elapsed:.2f}s")


def test_c03_moment_identity():
    def run():
        assert second_raw_moment(distance_distribution(4)) == 104
        for n in range(0, 13):
            via_sum, mu2 = firing_routes(intermediate_configuration(n))
            assert mu2 == 2 * via_sum

    _, elapsed = _timed(run)
    _report("c03 moment-identity", elapsed < 5.0, f"n=0..12 both routes, {elapsed:.2f}s")


def test_c04_distance_distributions():
    def run():
        d4 = distance_distribution(4)
        assert d4.counts == golden.D4
        d15 = distance_distribution(15)
        assert d15.counts == golden.D15 and d15.half_width == 45
        for n in range(0, 16):
            d = distance_distribution(n)
            assert sum(d.counts) == 1 << n

    _, elapsed = _timed(run)
    _report(
        "c04 distance-distributions", elapsed < 10.0,
        f"D4 exact, 91 plotted D15 values exact, sums to 2**n for n<=15, {elapsed:.2f}s",
    )


def test_c05_row_counts():
    def run():
        assert generate("nonzero-rows", 15) == list(golden.NONZERO_ROWS)
        for n in range(1, 16):
            rows = list(intermediate_configuration(n))
            assert len(rows) % 2 == 0
            assert rows[-1].values == (1, 1)

    _, elapsed = _timed(run)
    _report("c05 row-counts", elapsed < 30.0, f"n=0..15 exact, {elapsed:.2f}s")


def test_c06_longest_rows():
    def run():
        assert generate("longest-row", 17) == list(golden.LONGEST_ROW_LENGTHS)
        length, first_index, values = longest_row(11)
        assert (length, first_index) == (19, golden.N11_LONGEST_FIRST_INDEX)
        assert values == golden.N11_LONGEST and max(values) == 218

    _, elapsed = _timed(run)
    _report("c06 longest-rows", elapsed < 60.0, f"n=0..17 exact, peak 218 at n=11, {elapsed:.2f}s")


def test_c07_proposition_suite():
    def run():
        assert minimal_descent_check(max_j=64).passed
        for n in range(1, 15):
            results = run_checks(n)
            failed = failures(results)
            assert not failed, f"n={n}: {[f.name for f in failed]}"

    _, elapsed = _timed(run)
    _report(
        "c07 proposition-suite", elapsed < 120.0,
        f"all module invariants for n=1..14, descent to j=64, {elapsed:.2f}s",
    )


def test_c08_oracle_confluence():
    def run():
        for n in range(1, 9):
            report = confluence_check(n, trials=10, seed=1000 + n)
            assert report.passed and report.runs == 13, f"n={n}"
            state = simulate(n, "row-by-row")
            grid = {
                (x, y): v
                for r in intermediate_configuration(n)
                for x, y, v in r.points()
            }
            assert arrivals(state) == grid, f"n={n} arrivals"
            assert state.nonzero_firings() == {
                p: v >> 1 for p, v in grid.items() if v >= 2
            }, f"n={n} firings"
            assert state.nonzero_chips() == {
                p: 1 for p, v in grid.items() if v & 1
            }, f"n={n} parity"

    _, elapsed = _timed(run)
    _report(
        "c08 oracle-confluence", elapsed < 120.0,
        f"10 random + 3 deterministic orders agree for n=1..8, {elapsed:.2f}s",
    )


def test_c09_conjecture_report(capsys):
    rc, out = _cli(capsys, "verify", "--n", "2..12", "--trials", "0")
    reported = all(
        f"n={n} bottom-triangle-conjecture: report holds" in out for n in range(2, 13)
    )
    direct = all(check_bottom_conjecture(n).holds for n in range(2, 13))
    _report(
        "c09 conjecture-report", rc == 0 and reported and direct,
        "holds for n=2..12, reported without affecting exit status",
    )


#: The benchmark's streaming pass: a full table, its segmentation, and the
#: difference-table pass, holding one row at a time.
STREAM_PASS = Path(__file__).parents[1] / "perfbench" / "stream_pass.py"


def test_c10_streaming_scale():
    # Run in a child of a small launcher so the memory high-water mark
    # reflects only this workload, the streaming pass at n=25.
    start = time.perf_counter()
    report = peak_rss.run_python(
        [str(STREAM_PASS), "--n", "25", "--out", "/dev/stdout"], timeout=300
    )
    wall = time.perf_counter() - start
    assert report["exit"] == 0, report["err"]
    stats = json.loads(report["out"])
    rss_mb = report["peak_kib"] / 1024
    ok = (
        wall < 60.0
        and rss_mb < 48  # far below the ~2 GB a materialized table would need
        and stats["covered"]
        and stats["max_ok"]
        and stats["unimodal_ok"]
        and stats["rows"] > 100_000
    )
    _report(
        "c10 streaming-scale", ok,
        f"n=25: {stats['rows']} rows, longest {stats['longest']}, "
        f"{wall:.1f}s wall, {rss_mb:.0f} MB peak",
    )
