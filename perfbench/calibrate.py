"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host (the reference machine is 2 vCPUs of an Intel Xeon) the
speed changes by 20-50 % within a minute, and not the same way on each CPU.  ``run.py`` therefore
pins itself and its children to one CPU and runs :func:`reference_work`
there before and after every child process.  A child's wall time is then
rescaled to the reference speed (the speed at which one call takes
``REFERENCE_S`` seconds):

    reference seconds = wall seconds * REFERENCE_S / calibration seconds

The kernel does the kind of work the package does (the arrival-table row
recurrence on lists of ints, tuples, difference rows, a dict tally and
CSV-style string joins) but shares no code with it, so a change to the
package never changes the calibration.  Do not edit it: its output and
cost are part of the benchmark's definition.
"""

from __future__ import annotations

from time import perf_counter

#: Seconds one call takes on the reference host; the unit of every
#: rescaled time the benchmark reports.
REFERENCE_S = 0.1
#: Exponent of the chip count: 2**17 chips, 3 600 rows.
EXPONENT = 17
#: What one call returns: (rows, joined text length, tally sum).
EXPECTED = (3600, 250787, 871100)


def reference_work(n: int = EXPONENT) -> tuple[int, int, int]:
    rows = 0
    row = [1 << n]
    lines = []
    tally: dict[int, int] = {}
    while row:
        halves = [v >> 1 for v in row]
        raw = [halves[0]] + [a + b for a, b in zip(halves, halves[1:])] + [halves[-1]]
        lo, hi = 0, len(raw)
        while lo < hi and raw[lo] == 0:
            lo += 1
        while hi > lo and raw[hi - 1] == 0:
            hi -= 1
        row = raw[lo:hi]
        values = tuple(row)
        if values != values[::-1]:
            raise AssertionError(f"row {rows} is not palindromic")
        diffs = [b - a for a, b in zip(values, values[1:])]
        tally[len(values)] = tally.get(len(values), 0) + max(map(abs, diffs), default=0)
        if rows % 4 == 0:
            lines.append(",".join(map(str, values)))
        rows += 1
    return rows, len("\n".join(lines)), sum(tally.values())


def sample() -> float:
    """Seconds one call of the kernel takes now, checked against EXPECTED."""
    t0 = perf_counter()
    got = reference_work()
    elapsed = perf_counter() - t0
    if got != EXPECTED:
        raise AssertionError(f"calibration kernel returned {got}, expected {EXPECTED}")
    return elapsed


class HostClock:
    """Brackets each child process with calibration samples on the same CPU.

    ``scale()`` is called right after a child ends: it samples again and
    returns the factor that turns the child's wall seconds into reference
    seconds, from the mean of the samples just before and just after it.
    """

    def __init__(self) -> None:
        sample()  # warm-up: first call pays for allocation
        self.samples = [sample()]

    def scale(self) -> float:
        before = self.samples[-1]
        self.samples.append(sample())
        return REFERENCE_S / ((before + self.samples[-1]) / 2)
