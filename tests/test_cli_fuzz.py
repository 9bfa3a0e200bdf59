"""A grammar fuzzer for the CLI contract.

Argv for every command is drawn from the argparse tree: each option present
or absent, with values in range, at the boundaries and out of range
(negative, past ``2**1024``, non-numeric), ``A..B`` ranges, and ``--out``
to a writable or an unwritable path.  Besides the drawn argvs, each
invalid value that the grammar lists runs once, in a fixed case with every
other option valid.  Each argv runs through ``cli.main`` in process.  The
contract:

* the exit code, argparse's ``SystemExit`` included, is 0, 1, 2 or 3, and
  no other exception escapes;
* on exit 2 or 3, stdout is empty and stderr is one ``chipfire:`` line or
  argparse's usage;
* on exit 0, a second run prints the same stdout and ``--out`` bytes;
* a usage error writes no ``--out`` file.

Not every whole-table command has a size cap yet, so ``--n`` and
``--upto`` stay at 6 or below when in range (out of range means past every
cap, or, for ``--upto`` and the ``--n`` of ``distance``, ``firings`` and
``segment``, past the whole-table cap, 30), and ``--trials`` at 3 or below.
The runs are derandomized and bounded.
"""

import contextlib
import io
import shlex
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chipfire import checks, cli, oracle, render, sequences

HUGE = str(2**1024)
BAD_INTS = ["-1", HUGE, "-" + HUGE, "x", ""]
GOOD_OUT, BAD_OUT = "<out>", "<unwritable>"


class Option(NamedTuple):
    """One option of the grammar: ``valid`` draws its valid argv tokens,
    ``invalid`` lists its invalid ones, and ``fixed`` holds the valid tokens
    it takes in a fixed case, where another option is the invalid one."""

    valid: st.SearchStrategy
    invalid: list
    fixed: list = []


def option(flag, valid, invalid, required=None):
    """``flag`` with a value drawn from ``valid`` or one of ``invalid``.

    An optional flag may be left out and is left out in fixed cases.  A
    required flag takes the value ``required`` in fixed cases, and leaving
    it out is one more invalid draw.
    """
    good, bad = valid.map(lambda v: [flag, v]), [[flag, v] for v in invalid]
    if required is None:
        return Option(st.one_of(st.just([]), good), bad)
    return Option(good, [*bad, []], [flag, required])


def ints(lo, hi, out_of_range):
    """Ints in ``lo..hi`` as text, and ``out_of_range`` ones."""
    return st.integers(lo, hi).map(str), out_of_range


def choices(names):
    return st.sampled_from(names), ["no-such-choice"]


EXPONENT = ints(0, 6, ["127", *BAD_INTS])
OUTPUT = [
    option("--format", *choices(["csv", "json"])),
    option("--out", st.just(GOOD_OUT), [BAD_OUT]),
    Option(st.sampled_from([[], ["--header"]]), [["--header", "extra"]]),
]
TABLE = [option("--n", *EXPONENT, required="0"), *OUTPUT]
SUMMARY = [option("--n", *ints(0, 6, ["31", "126", "127", *BAD_INTS]), required="0"), *OUTPUT]
TABLE_ROWS = [*TABLE, option("--max-rows", *ints(1, 40, ["0", str(sys.maxsize + 1), *BAD_INTS]))]
#: A figure must be wider and taller than twice its padding, 32 px.
SIZE = ints(33, 1200, ["-1", *map(str, range(33)), HUGE, "x"])
SEQUENCE_IDS = list(sequences.SEQUENCES)

GRAMMAR = {
    "table": TABLE_ROWS,
    "stable": TABLE,
    "distance": SUMMARY,
    "firings": SUMMARY,
    "diff": TABLE_ROWS,
    "segment": SUMMARY,
    "sequences": [
        Option(st.sampled_from([[s] for s in SEQUENCE_IDS]), [["no-such-sequence"], []],
               [SEQUENCE_IDS[0]]),
        option("--upto", *ints(-1, 6, ["31", "126", "127", str(10**6 + 1), *BAD_INTS]),
               required="0"),
        *OUTPUT,
    ],
    "verify": [
        option(
            "--n",
            st.one_of(
                st.integers(0, 6).map(str),
                st.tuples(st.integers(0, 3), st.integers(3, 6)).map(lambda t: "%d..%d" % t),
            ),
            ["4..2", "3..", "..3", "-1..2", "2..127", f"0..{HUGE}", "a..b", "1...3", *BAD_INTS],
            required="0",
        ),
        option(
            "--properties",
            st.lists(st.sampled_from([*checks.CHECK_NAMES, "diff", "oracle"]),
                     min_size=1, max_size=3).map(",".join),
            ["no-such-check", "diff,no-such-check", "", "row,", ",diff"],
        ),
        option("--trials", *ints(-3, 3, [str(oracle.MAX_TRIALS + 1), HUGE, "x", ""])),
        option("--seed", *ints(-3, 3, ["x", ""])),
        option("--out", st.just(GOOD_OUT), [BAD_OUT]),
    ],
    "render": [
        option("--kind", *choices(render.KINDS), required=render.KINDS[0]),
        option("--n", *EXPONENT, required="0"),
        option("--out", st.just(GOOD_OUT), [BAD_OUT], required=GOOD_OUT),
        option("--width", *SIZE),
        option("--height", *SIZE),
        option(
            "--dot-radius",
            st.floats(0.1, 8).map(str),
            ["0", "-1", "nan", "inf", "-inf", "1e400", HUGE, "x"],
        ),
    ],
}
#: Tokens no command takes: an unknown flag, a flag without its value, help.
STRAY = Option(st.just([]), [["--bogus"], ["--n"], ["-h"]])


@st.composite
def argvs(draw, command):
    """One argv for ``command``: every option valid, or all but one, in a
    drawn order (a ``sequences`` id stays first)."""
    options = [*GRAMMAR[command], STRAY]
    bad = draw(st.one_of(st.just(-1), st.integers(0, len(options) - 1)))
    parts = [
        draw(st.sampled_from(o.invalid) if k == bad else o.valid) for k, o in enumerate(options)
    ]
    head = parts.pop(0) if command == "sequences" else []
    parts = draw(st.permutations(parts))
    return [command, *head, *(token for part in parts for token in part)]


def run(argv):
    """``cli.main(argv)`` in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def is_error_report(err):
    """One ``chipfire:`` line, or argparse's usage and error line."""
    lines = err.splitlines()
    if err.startswith("usage: chipfire"):
        return ": error: " in lines[-1]
    return err.startswith("chipfire: ") and err.count("\n") == 1


def fixed_cases():
    """One argv per command, option and listed invalid value, with every
    other option at its fixed valid tokens."""
    for command in sorted(GRAMMAR):
        options = [*GRAMMAR[command], STRAY]
        for k, o in enumerate(options):
            for tokens in o.invalid:
                parts = [tokens if j == k else other.fixed for j, other in enumerate(options)]
                yield [command, *(token for part in parts for token in part)]


def check_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        paths = {GOOD_OUT: str(out), BAD_OUT: str(Path(tmp) / "missing" / "out")}
        argv = [paths.get(token, token) for token in argv]
        rc, stdout, stderr = run(argv)
        assert rc in (0, 1, 2, 3), (rc, stderr)
        if rc in (2, 3):
            assert stdout == ""
            assert is_error_report(stderr), stderr
        if rc == 2:
            assert not out.exists()
        if rc == 0:
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            assert run(argv) == (rc, stdout, stderr)
            assert (out.read_bytes() if out.exists() else None) == written


@pytest.mark.parametrize("command", sorted(GRAMMAR))
@settings(
    derandomize=True, database=None, max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_contract(command, data):
    check_contract(data.draw(argvs(command), label="argv"))


@pytest.mark.parametrize(
    "argv", fixed_cases(), ids=lambda argv: shlex.join(argv).replace(HUGE, "<huge>")
)
def test_cli_contract_on_every_invalid_value(argv):
    check_contract(argv)


@pytest.mark.parametrize("trials", ["1", "-3", "-" + HUGE], ids=["1", "-3", "-huge"])
def test_trials_below_two_run_no_oracle(trials):
    # The help text says "< 2 disables the oracle": any such k gives the
    # scorecard of --trials 0.
    assert run(["verify", "--n", "0..5", "--trials", trials]) == run(
        ["verify", "--n", "0..5", "--trials", "0"]
    )


@pytest.mark.parametrize("command", ["table", "diff"])
@pytest.mark.parametrize("limit", [str(sys.maxsize + 1), HUGE], ids=["maxsize+1", "huge"])
def test_max_rows_past_maxsize_writes_the_whole_table(command, limit):
    # Past sys.maxsize, which islice refuses, the limit exceeds every table.
    whole = run([command, "--n", "5"])
    assert whole[0] == 0
    assert run([command, "--n", "5", "--max-rows", limit]) == whole
