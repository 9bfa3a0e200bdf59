"""Named invariant checks over computed tables, shared by tests and the CLI.

Each check re-derives one structural fact about a table and reports a
:class:`CheckResult` instead of raising, so a verification run can print
the full scorecard.  Advisory checks (the bottom-triangle height report)
never count as failures: they track an empirical claim, not a proven
property, and come last in the scorecard.

Checks that are vacuous for a given n (most need n >= 1, some n > 2)
report a pass with a "skipped" note rather than disappearing, so runs over
a range of n always print the same schedule.

Every table check is a fold over a single stream of the table:
:func:`run_checks` reads ``intermediate_configuration(n)`` once and hands
each row to every check, so a run holds memory proportional to the widest
row rather than to the table.  A fold is a generator.  It is started with
``send(None)``, then sent one :class:`_Step` per arrival row, then ``None``
at the end of the table.  It returns ``(passed, detail)``; a skip, or a
first failure that settles the verdict, returns early.  A step holds the
row, and builds each of its other fields (the row total, the difference
row, the stable row and the pass's distance counts) the first time a
started fold reads it in that row, then keeps it for the other folds.  So
a field is built at most once per row, and never in a pass whose folds do
not read it: a lone ``row-bound`` costs about one kernel pass.  The
distance counts are the one accumulator of the pass, and their first read
in a row adds that row's stable row to it, so a fold that reads them reads
them on every row.  The step goes to the started folds through a list of
their bound ``send`` methods, which the pass rebuilds only when a fold
settles.  Between rows a fold keeps O(1) rows of state:
the previous one or two rows or difference rows, the previous diagonal
centre, running chip and firing sums, the current run of widths stepping
down by 1 with its non-minimal rows, the last marked stable row, and at
most five offending row indices for a detail.  The chips are counted by
distance once per row, from the stable row, on the lanes of the pass's
accumulator of :mod:`chipfire.stable` (an int of one lane per distance);
``distance-distribution`` and ``firing-count-identity`` read its counts at
the end of the table.
The bottom-triangle report is one more fold, over the one width summary
that also serves ``segment`` and the row-profile figure
(:class:`structure.WidthSummary`).
The oracle cross-checks are folds too, and only a pass that plays the
oracle imports :mod:`chipfire.oracle`.  When they run, the confluence
check runs before the stream and ``oracle-confluence`` has its verdict at
once; the arrival, firing-count and parity checks each compare the
streamed entries with the grid of the row-by-row run as the rows go by,
and check at the end of the table that every point of the grid was met.
A ``properties`` filter starts only the folds it selects and runs the
oracle only when it selects an oracle cross-check; its scorecard is the
full one with the other lines left out, and :func:`scorecard` alone
applies it.  The pass stops reading the table once every started fold has
its verdict: ``pascal-top-rows`` alone reads rows 0..n, and
``oracle-confluence`` alone reads none.

The folds read the packed rows, not their values: each heavy check calls
the whole-row lane fold of :mod:`chipfire._lanefolds` that decides it and
formats the detail from the one lane it reports, and the diagonal and
row-start checks read single entries with ``Row.value_at``.  The lane folds
of one row take its difference row and share the one lane context that the
difference row is built with (its difference lanes, their second
differences and the lane constants), and the stable row carries its chip
count, so each is computed once per row.  This module is the only
importer of :mod:`chipfire._lanefolds`, so only ``verify`` compiles the
folds, and like every module but ``core`` and ``_lanefolds`` it reads no
lane itself.
Without the oracle, only ``pascal-top-rows`` (rows 0..n) and
``last-row-pair`` (the last row) unpack rows; the oracle folds read
``Row.points()``, which unpacks every row they see (``run_checks(8,
oracle_trials=2)`` unpacks all 60 rows, against 10 without the oracle).
No difference row is built entry by entry.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Sequence

# Only a pass that plays the oracle reads ``chipfire.oracle``, which the
# package imports on that first read (PEP 562), so a run without the oracle
# compiles none of the simulator, nor random and heapq.
import chipfire

from . import difftable, stable, structure
from .core import (
    ORACLE_EXPONENT_LIMIT, ChipfireError, Row, _check_exponent, _once, _Record, check_trials,
    intermediate_configuration, next_row, row_bound,
)
from .stable import _DistanceCounts
from ._lanefolds import (
    _antisymmetric_diffs,
    _growth_break,
    _has_gap,
    _is_palindrome,
    _propagation_break,
    _rises_and_falls,
    _telescoping_break,
)


class CheckResult(_Record):
    """One line of the scorecard: a check's verdict for one n (None for the
    checks that take no n), with its detail.  Read-only."""

    _fields = ("name", "n", "passed", "detail", "advisory")

    def __init__(
        self, name: str, n: int | None, passed: bool, detail: str = "", advisory: bool = False
    ) -> None:
        self.__dict__.update(name=name, n=n, passed=passed, detail=detail, advisory=advisory)


def failures(results: Iterable[CheckResult]) -> list[CheckResult]:
    """Non-advisory failures; the CLI exit status is driven by these."""
    return [r for r in results if not r.passed and not r.advisory]


class _Step:
    """What every fold sees of one arrival row: the row, and of its total,
    its difference row, its stable row and the pass's distance counts,
    each built the first time a fold reads it in this row (``_once``) and
    never when no fold does.

    ``counts`` is the one accumulator of the pass, and its first read in
    a row adds that row's stable row to it.  A fold that reads ``counts``
    must therefore read it on every row, so that every row is added once.
    """

    def __init__(self, row: Row, counts: _DistanceCounts) -> None:
        self.row = row
        self._counts = counts

    @_once
    def chips(self) -> int:
        return self.row.chip_sum()

    @_once
    def diff(self) -> difftable.DiffRow:
        return difftable.diff_row(self.row)

    @_once
    def stable(self) -> stable.StableRow:
        return stable.stable_row(self.row)

    @_once
    def counts(self) -> _DistanceCounts:
        # The chips of the rows so far, this one included, by distance.
        self._counts.add(self.stable)
        return self._counts


_Verdict = tuple[bool, str]
_Fold = Generator[None, "_Step | None", _Verdict]
_PASS: _Verdict = (True, "")


def _skipped(why: str) -> _Verdict:
    return True, f"skipped: {why}"


def _collect(bad: list[int], index: int) -> None:
    # Details quote at most the first five offenders.
    if len(bad) < 5:
        bad.append(index)


# ---------------------------------------------------------------------------
# arrival-table checks


def _row_symmetry(n: int) -> _Fold:
    bad: list[int] = []
    while (step := (yield)) is not None:
        if not _is_palindrome(step.row):
            _collect(bad, step.row.index)
    return not bad, f"asymmetric rows: {bad}" if bad else ""


def _row_contiguity(n: int) -> _Fold:
    while (step := (yield)) is not None:
        if _has_gap(step.row):
            return False, ""
    return _PASS


def _even_diagonal(n: int) -> _Fold:
    if n < 1:
        return _skipped("needs n >= 1")
    bad: list[int] = []
    while (step := (yield)) is not None:
        r = step.row
        if r.index % 2 == 0 and r.value_at(r.index // 2) % 2 != 0:
            _collect(bad, r.index)
    return not bad, f"odd centers at rows {bad}" if bad else ""


def _chip_parity_accounting(n: int) -> _Fold:
    # Each row forwards sum - #odd chips; the odd entries retire one chip
    # each, and all 2**n chips retire somewhere.
    retired = 0
    above: tuple[int, int] | None = None  # (index, chips it must forward)
    while (step := (yield)) is not None:
        chips = step.chips
        if above is not None and chips != above[1]:
            return False, f"row {above[0]} forwards {chips}, expected {above[1]}"
        odd = step.stable.chip_count
        retired += odd
        above = (step.row.index, chips - odd)
    if above is not None and above[1] != 0:
        return False, f"row {above[0]} forwards 0, expected {above[1]}"
    return retired == 1 << n, f"{retired} chips retired into the stable configuration"


def _monotone_steps(n: int) -> _Fold:
    # Within a row, steps grow by >= 2 strictly left of the diagonal, by
    # >= 1 onto it, mirror on the right, and the central pair of an
    # even-width row is equal.
    while (step := (yield)) is not None:
        broken = _growth_break(step.diff)
        if broken is not None:
            y, d = broken
            return False, f"row {step.row.index}: step {d} at y={y} breaks the growth rule"
    return _PASS


def _pascal_top_rows(n: int) -> _Fold:
    for i in range(n + 1):
        step = yield
        if step is None or step.row != structure.pascal_row(n, i):
            return False, f"row {i} is not the scaled binomial row"
    return _PASS


def _first_stable_row(n: int) -> _Fold:
    first = None
    while (step := (yield)) is not None:
        if step.stable.chip_count:
            first = step.row.index
            break
    return first == n, f"first odd entry in row {first}, expected {n}"


def _length_steps(n: int) -> _Fold:
    bad: list[int] = []
    above = None
    position = 0
    while (step := (yield)) is not None:
        width = step.row.width
        if above is not None and abs(width - above) != 1:
            _collect(bad, position - 1)
        above = width
        position += 1
    return not bad, f"non-unit steps after rows {bad}" if bad else ""


def _length_parity(n: int) -> _Fold:
    if n < 1:
        return _skipped("needs n >= 1")
    rows = 0
    alternates = True
    above = None
    while (step := (yield)) is not None:
        width = step.row.width
        if above is not None and (above + width) % 2 != 1:
            alternates = False
        above = width
        rows += 1
    return alternates and rows % 2 == 0, f"{rows} nonzero rows"


def _starts_one_a(r: Row) -> bool:
    return r.width >= 2 and r.value_at(r.y_min) == 1 and 4 <= r.value_at(r.y_min + 1) <= 7


def _row_start_pattern(n: int) -> _Fold:
    # A row starting 1, a with 4 <= a <= 7 repeats its length two rows down
    # and starts with 1 again.  ``older`` and ``newer`` are the two rows
    # above, kept only when they start that way.
    older = newer = None
    while (step := (yield)) is not None:
        r = step.row
        if older is not None and (r.width != older.width or r.value_at(r.y_min) != 1):
            return False, f"row {older.index + 2} does not mirror row {older.index}"
        older, newer = newer, (r if _starts_one_a(r) else None)
    for pending in (older, newer):
        if pending is not None:
            return False, f"row {pending.index} has no row {pending.index + 2}"
    return _PASS


def _decay_failure(above: tuple[int, int], center: int) -> str | None:
    x, c = above
    if c > 0 and center > c - 2:
        return f"center at x={x + 1} is {center}, needs <= {c - 2}"
    return None


def _diagonal_decay(n: int) -> _Fold:
    if n < 1:
        return _skipped("needs n >= 1")
    # While F(x, x) > 0, the next diagonal centre is at most F(x, x) - 2; a
    # centre with no even row after it is followed by 0.
    above: tuple[int, int] | None = None  # (x, F(x, x)) of the last even row
    while (step := (yield)) is not None:
        r = step.row
        if r.index % 2:
            continue
        x = r.index // 2
        center = r.value_at(x)
        if above is not None:
            failure = _decay_failure(above, center if x == above[0] + 1 else 0)
            if failure is not None:
                return False, failure
        above = (x, center)
    if above is not None:
        failure = _decay_failure(above, 0)
        if failure is not None:
            return False, failure
    return _PASS


def _row_bound(n: int) -> _Fold:
    last = None
    while (step := (yield)) is not None:
        last = step.row.index
    bound = row_bound(n)
    return last is not None and last <= bound, f"last nonzero row {last}, bound {bound}"


def _last_row_pair(n: int) -> _Fold:
    if n < 1:
        return _skipped("needs n >= 1")
    last = None
    while (step := (yield)) is not None:
        last = step.row
    values = last.values if last is not None else ()
    return values == (1, 1), f"last row values {values}"


def _bottom_minimal_rows(n: int) -> _Fold:
    if n < 1:
        return _skipped("needs n >= 1")
    # Non-minimal rows of the open run; the run open at the end of the table
    # is its terminal run.
    run = structure.WidthSummary(n)
    bad: list[int] = []
    while (step := (yield)) is not None:
        r = step.row
        if run.push(r.width):
            bad = []
        if not structure.is_minimal(r):
            _collect(bad, r.index)
    return not bad, f"non-minimal rows {bad}" if bad else f"{run.rows} terminal rows"


# ---------------------------------------------------------------------------
# stable-configuration checks


def _distance_distribution(n: int) -> _Fold:
    counts = _DistanceCounts()
    while (step := (yield)) is not None:
        counts = step.counts
    try:
        d = stable.distribution_from_counts(n, counts.counts())
    except ChipfireError as exc:
        return False, str(exc)
    return True, f"half width {d.half_width}"


def _firing_count_identity(n: int) -> _Fold:
    # The routes of stable.firing_routes, over the pass's distance counts.
    via_sum = 0
    counts = _DistanceCounts()
    while (step := (yield)) is not None:
        via_sum += (step.chips - step.stable.chip_count) >> 1
        counts = step.counts
    mu2 = stable.moment(counts.counts())
    if mu2 & 1:
        return False, f"odd second moment {mu2}"
    return mu2 >> 1 == via_sum, f"{via_sum} firings; half moment {mu2 >> 1}"


def _last_stable_row(n: int) -> _Fold:
    if n < 1:
        return _skipped("needs n >= 1")
    last = marked = None
    while (step := (yield)) is not None:
        last = step.row
        if step.stable.chip_count:
            marked = step.stable
    if marked is None:
        return False, "configuration has no chips"
    ok = marked.index == last.index and marked.pattern() == "11"
    return ok, f"last chips in row {marked.index} with pattern {marked.pattern()}"


# ---------------------------------------------------------------------------
# difference-table checks


def _diff_antisymmetry(n: int) -> _Fold:
    # Each entry must cancel its mirror; a nonzero middle entry fails as
    # twice itself.
    while (step := (yield)) is not None:
        if not _antisymmetric_diffs(step.diff):
            return False, f"difference row {step.diff.index}"
    return _PASS


def _diff_max_nonincreasing(n: int) -> _Fold:
    if n <= 2:
        return _skipped("stated for n > 2")
    # The first difference row has index 1; the property starts at the
    # comparison 2 -> 3.
    bad: list[int] = []
    above: tuple[int, int] | None = None  # (index, largest entry)
    position = 0
    while (step := (yield)) is not None:
        d = step.diff
        top = difftable.row_max_abs(d)
        if position >= 2 and top > above[1]:
            _collect(bad, above[0])
        above = (d.index, top)
        position += 1
    return not bad, f"maxima rise after rows {bad}" if bad else ""


def _diff_unimodality(n: int) -> _Fold:
    bad: list[int] = []
    while (step := (yield)) is not None:
        if not difftable.unimodal_check(step.diff):
            _collect(bad, step.diff.index)
    return not bad, f"non-unimodal rows {bad}" if bad else ""


def _diff_local_propagation(n: int) -> _Fold:
    # Three weakly increasing neighbors in the left half force the two
    # entries below them to be weakly increasing as well.
    above = None  # the difference row above and its rises
    while (step := (yield)) is not None:
        d = step.diff
        rises, falls = _rises_and_falls(d)
        if above is not None:
            y = _propagation_break(above[0].source, above[1], d.source, falls)
            if y is not None:
                return False, f"rows {above[0].index}->{d.index} at y={y}"
        above = d, rises
    return _PASS


def _diff_telescoping(n: int) -> _Fold:
    # Partial sums of a difference row rebuild its source row; the full sum
    # vanishes.
    while (step := (yield)) is not None:
        broken = _telescoping_break(step.diff)
        if broken is not None:
            k, total = broken
            if total is None:
                return False, f"row {step.diff.source.index} not recovered at position {k}"
            return False, f"row {step.diff.index} sums to {total}"
    return _PASS


# ---------------------------------------------------------------------------
# oracle cross-checks


def _settled(verdict: _Verdict) -> _Fold:
    # A fold whose verdict is known before the table is read.
    return verdict
    yield


def _grid_match(grid: dict[chipfire.oracle.Point, int], entry: Callable, detail: str) -> _Fold:
    # The streamed entries that ``entry`` maps to a value (None leaves one
    # out) must be exactly the points of ``grid``: each is compared as its
    # row streams by, and a point of the grid that no row met fails at the
    # end of the table.
    met = 0
    while (step := (yield)) is not None:
        for x, y, v in step.row.points():
            kept = entry(v)
            if kept is not None:
                if grid.get((x, y)) != kept:
                    return False, detail
                met += 1
    return met == len(grid), detail


#: The oracle cross-checks in scorecard order, reported after the folds: each
#: builds its fold from the confluence check of the pass.
_ORACLE_FOLDS: dict[str, Callable[..., _Fold]] = {
    "oracle-confluence": lambda report: _settled((
        report.passed,
        f"{report.runs} runs, {report.moves} moves"
        + (f"; {report.mismatches[0]}" if report.mismatches else ""),
    )),
    "oracle-arrivals": lambda report: _grid_match(
        chipfire.oracle.arrivals(report.row_by_row), lambda v: v,
        "arrival grid matches the streamed table",
    ),
    "oracle-firing-counts": lambda report: _grid_match(
        report.row_by_row.nonzero_firings(), lambda v: v >> 1 if v >= 2 else None,
        "every point fired F // 2 times",
    ),
    "oracle-stable-parity": lambda report: _grid_match(
        report.row_by_row.nonzero_chips(), lambda v: 1 if v & 1 else None,
        "stable chips sit exactly on odd arrival counts",
    ),
}


# ---------------------------------------------------------------------------
# advisory reports


def _bottom_triangle_conjecture(n: int) -> _Fold:
    if n < 2:
        return _skipped("needs n >= 2")
    run = structure.WidthSummary(n)
    while (step := (yield)) is not None:
        run.push(step.row.width)
    rep = run.report()
    return rep.holds, f"{rep.triangle_rows} triangle rows, longest row {rep.longest_length}"


#: The maker of each fold, in scorecard order.  A fold reads what it needs
#: of each ``_Step``, which builds a field on its first read in a row; a
#: fold that reads ``counts`` reads it on every row.
_FOLDS: dict[str, Callable[[int], _Fold]] = {
    "row-symmetry": _row_symmetry,
    "row-contiguity": _row_contiguity,
    "even-diagonal": _even_diagonal,
    "chip-parity-accounting": _chip_parity_accounting,
    "monotone-steps": _monotone_steps,
    "pascal-top-rows": _pascal_top_rows,
    "first-stable-row": _first_stable_row,
    "length-steps": _length_steps,
    "length-parity": _length_parity,
    "row-start-pattern": _row_start_pattern,
    "diagonal-decay": _diagonal_decay,
    "row-bound": _row_bound,
    "last-row-pair": _last_row_pair,
    "bottom-minimal-rows": _bottom_minimal_rows,
    "distance-distribution": _distance_distribution,
    "firing-count-identity": _firing_count_identity,
    "last-stable-row": _last_stable_row,
    "diff-antisymmetry": _diff_antisymmetry,
    "diff-max-nonincreasing": _diff_max_nonincreasing,
    "diff-unimodality": _diff_unimodality,
    "diff-local-propagation": _diff_local_propagation,
    "diff-telescoping": _diff_telescoping,
}

#: Advisory folds, reported after the oracle cross-checks.
_REPORTS: dict[str, Callable[[int], _Fold]] = {
    "bottom-triangle-conjecture": _bottom_triangle_conjecture,
}

#: Every check name, in scorecard order; ``verify --properties`` filters
#: match against these.
CHECK_NAMES = ("minimal-row-descent", *_FOLDS, *_ORACLE_FOLDS, *_REPORTS)


def _selects(properties: Sequence[str] | None, name: str) -> bool:
    """The filter rule: ``properties`` selects ``name`` when it is empty or
    one of its entries is a substring of ``name``."""
    return not properties or any(p in name for p in properties)


def _oracle_runs(n: int, trials: int) -> bool:
    """Whether the oracle cross-checks run for ``n`` with ``trials`` random
    orders: the confluence check needs two, and the simulator stops at the
    oracle limit."""
    return trials >= 2 and 1 <= n <= ORACLE_EXPONENT_LIMIT


def _advance(send: Callable, step: _Step | None) -> _Verdict | None:
    """Send ``step`` to a fold through its bound ``send``; the fold's
    verdict once it has one, else None."""
    try:
        send(step)
    except StopIteration as done:
        return done.value
    return None


# ---------------------------------------------------------------------------
# drivers


#: The largest j whose minimal row of j+1 entries the descent check fires.
DESCENT_MAX_J = 64


def minimal_descent_check() -> CheckResult:
    """Firing a minimal row of j+1 entries yields the minimal row below it."""
    for j in range(2, DESCENT_MAX_J + 1):
        try:
            child = next_row(structure.minimal_row(j))
        except ValueError as exc:
            return CheckResult("minimal-row-descent", None, False, f"descent breaks at j={j}: {exc}")
        if child.values != structure.minimal_row(j - 1).values:
            return CheckResult("minimal-row-descent", None, False, f"descent breaks at j={j}")
    return CheckResult("minimal-row-descent", None, True, f"verified for j = 2..{DESCENT_MAX_J}")


def run_checks(
    n: int,
    properties: Sequence[str] | None = None,
    oracle_trials: int = 0,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the invariant suite for one exponent in one pass over its table.

    ``properties`` filters checks by substring match on the name; only the
    folds it selects are started, and the oracle runs only when it selects
    an oracle cross-check.  Oracle cross-checks run only when
    ``oracle_trials >= 2`` and n is within the oracle's reach.  ``n`` is
    checked first, whatever the filter selects.
    """
    _check_exponent(n)
    makers = {**_FOLDS, **_REPORTS}
    folds = {name: make(n) for name, make in makers.items() if _selects(properties, name)}
    oracle_names = [name for name in _ORACLE_FOLDS if _selects(properties, name)]
    if oracle_names and _oracle_runs(n, oracle_trials):
        report = chipfire.oracle.confluence_check(n, trials=oracle_trials, seed=seed)
        folds.update((name, _ORACLE_FOLDS[name](report)) for name in oracle_names)
    verdicts: dict[str, _Verdict] = {}
    # The name of each unsettled fold, by its bound send.
    active: dict[Callable, str] = {}
    for name, fold in folds.items():
        verdict = _advance(fold.send, None)
        if verdict is None:
            active[fold.send] = name
        else:
            verdicts[name] = verdict
    counts = _DistanceCounts()
    sends = list(active)

    for r in intermediate_configuration(n) if sends else ():
        step = _Step(r, counts)
        for send in sends:
            # _advance, inlined: this runs once per fold and row.
            try:
                send(step)
            except StopIteration as done:
                verdicts[active.pop(send)] = done.value
                # The next row goes to the folds left; this one goes on
                # to the rest of the old list.
                sends = list(active)
        if not sends:
            break
    for send, name in active.items():
        verdicts[name] = _advance(send, None)

    named = (name for name in CHECK_NAMES if name in verdicts)
    return [CheckResult(name, n, *verdicts[name], advisory=name in _REPORTS) for name in named]


def scorecard(
    ns: Iterable[int], properties: Sequence[str] | None = None,
    oracle_trials: int = 0, seed: int = 0,
) -> list[CheckResult]:
    """The ``verify`` scorecard: ``minimal-row-descent``, then the lines of
    :func:`run_checks` for each n of ``ns``, each kept when ``properties``
    selects it.

    A trial count past the oracle's cap, and a filter that names no check,
    are refused with ``ValueError`` before anything runs; so is an empty
    filter entry, which would select every check, and a filter that selects
    only oracle cross-checks when the oracle runs for no n of ``ns``.
    """
    if oracle_trials >= 2:
        check_trials(oracle_trials)
    for p in properties or ():
        if not p or not any(_selects((p,), name) for name in CHECK_NAMES):
            raise ValueError(f"--properties filter {p!r} names no check")
    ns = tuple(ns)
    selected = {name for name in CHECK_NAMES if _selects(properties, name)}
    if selected <= _ORACLE_FOLDS.keys() and not any(_oracle_runs(n, oracle_trials) for n in ns):
        raise ValueError(
            "--properties filter selects only oracle checks, which run only with "
            f"at least 2 trials and for n in 1..{ORACLE_EXPONENT_LIMIT}"
        )
    results = [minimal_descent_check()] if _selects(properties, "minimal-row-descent") else []
    for n in ns:
        results.extend(run_checks(n, properties, oracle_trials, seed))
    return results
