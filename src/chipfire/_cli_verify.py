"""The ``verify`` command: the invariant scorecard of
:func:`chipfire.checks.scorecard` over a range of exponents, one line per
check, and exit status 1 on any failure.

Loading it imports :mod:`chipfire.checks`, which imports the oracle only
for a pass that plays it; the ``--trials`` cap comes from
:mod:`chipfire.core`, so neither the help nor a run without the oracle
compiles :mod:`chipfire.oracle`.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from .cli import EXIT_INVARIANT, EXIT_OK, _emit
from .core import MAX_EXPONENT, MAX_TRIALS

if TYPE_CHECKING:
    from .checks import CheckResult


def _exponent_range(text: str) -> range:
    """Accept a single exponent or an inclusive span like ``2..12``."""
    lo, sep, hi = text.partition("..")
    try:
        start = int(lo)
        stop = int(hi) if sep else start
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exponent range: {text!r}") from None
    if not 0 <= start <= stop <= MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"bad exponent range: {text!r}")
    return range(start, stop + 1)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_exponent_range, required=True, metavar="N or A..B")
    p.add_argument("--properties", default=None, help="comma-separated name filters")
    p.add_argument("--trials", type=int, default=10,
                   help=f"random oracle runs per n, at most {MAX_TRIALS} "
                   "(< 2 disables the oracle)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def _cmd_verify(args) -> int:
    from . import checks

    properties = None if args.properties is None else args.properties.split(",")
    results = checks.scorecard(args.n, properties, args.trials, args.seed)
    failed = checks.failures(results)
    lines = [*map(_format_check, results)]
    lines.append(f"summary: {len(results)} checks, {len(failed)} failures")
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_INVARIANT if failed else EXIT_OK


def _format_check(r: CheckResult) -> str:
    where = f"n={r.n} " if r.n is not None else ""
    if r.advisory:
        verdict = "report holds" if r.passed else "report does-not-hold"
    else:
        verdict = "pass" if r.passed else "FAIL"
    detail = f" ({r.detail})" if r.detail else ""
    return f"{where}{r.name}: {verdict}{detail}"
