"""Command-line front end.

    chipfire table --n 4                     arrival table as CSV or JSON
    chipfire stable --n 4                    stable-configuration bit rows
    chipfire distance --n 15                 distance distribution
    chipfire firings --n 10                  total firing count (both routes)
    chipfire diff --n 9                      difference table
    chipfire segment --n 9                   four-part split summary
    chipfire sequences total-firings --upto 10
    chipfire verify --n 2..12 --trials 10    invariant scorecard
    chipfire render --kind stable-dots --n 9 --out fig.svg

CSV output carries no header unless ``--header`` is given, so files for
different n concatenate cleanly.  Exit codes: 0 all good, 1 invariant
failure, 2 usage error, 3 I/O error.  The library raises ``ValueError`` for
arguments outside a function's domain (``segment --n 0``) and
``ChipfireError`` for failed invariants, so the two map to exit 2 and 1.

A command compiles only the code it runs.  This module is the dispatcher:
the exit codes, the argument types and flags that several commands share,
the writers of text and of one result, the table of commands and the
parser.  It imports
:mod:`chipfire.core` alone.  Each command lives in the module of its
family that ``_COMMANDS`` names, which holds its argument builder and its
handler, and imports the library modules the command runs only for it
(``sequences`` and ``render`` when their arguments are built, since their
choices come from those modules):

- ``table``, ``diff`` and ``stable``, which write a table row by row, in
  :mod:`chipfire._cli_tables`, with the CSV and JSON row writers;
- ``distance``, ``firings`` and ``segment``, which write one summary of a
  table each, in :mod:`chipfire._cli_summaries`;
- ``sequences`` in :mod:`chipfire._cli_sequences`, ``verify`` in
  :mod:`chipfire._cli_verify` and ``render`` in :mod:`chipfire._cli_render`.

Where no bytecode is written, every call compiles each module it imports:
the package, the dispatcher, ``core``, its command's module and the
library modules the command runs, and no code of a command outside its
family.  When the command line starts with a command, the parser holds
that command's subparser alone; otherwise (help or an option first, an
unknown command or none) it holds all nine, and only the one named on the
command line gets its arguments, so only that command's module is
imported.  The top-level help, usage and errors show only the command
names and their help text, so they import no command module.

``python -m chipfire.cli`` and the ``chipfire`` script run :func:`entry`,
which calls ``gc.freeze()`` once the command has returned, so the
collection the interpreter runs at exit skips every object start-up and
the command left alive.  :func:`main` leaves the caller's GC state alone.
"""

from __future__ import annotations

import argparse
import gc
import sys
from importlib import import_module
from typing import Iterable, Sequence

from .core import MAX_EXPONENT, ChipfireError

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# argument types and shared flags


def _exponent(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= n <= MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"n must be in 0..{MAX_EXPONENT}, got {n}")
    return n


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("--header", action="store_true", help="include a CSV header line")


def _table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_exponent, required=True)
    _output_flags(p)


# ---------------------------------------------------------------------------
# output


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks to ``out`` (stdout when None) as they arrive."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _emit_result(args, header: str, lines: Iterable[str], payload: dict) -> int:
    """Write one command's result: its CSV ``lines``, after ``header`` when
    ``--header`` is given, or its JSON ``payload``."""
    if args.format == "csv":
        _emit(["\n".join([header, *lines] if args.header else lines) + "\n"], args.out)
    else:
        import json  # only JSON output needs it

        _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

#: The commands in help order: help text, and the module, under this
#: package, that holds the command: its handler ``_cmd_<name>`` and, unless
#: the command takes ``--n`` and the output flags alone
#: (:func:`_table_flags`), its argument builder ``_<name>_args``.
_COMMANDS: dict[str, tuple[str, str]] = {
    "table": ("arrival table rows", "_cli_tables"),
    "stable": ("stable-configuration bit rows", "_cli_tables"),
    "distance": ("distance distribution", "_cli_summaries"),
    "firings": ("total firing count", "_cli_summaries"),
    "diff": ("difference table rows", "_cli_tables"),
    "segment": ("four-part row segmentation", "_cli_summaries"),
    "sequences": ("derived integer sequences", "_cli_sequences"),
    "verify": ("run the invariant scorecard", "_cli_verify"),
    "render": ("emit an SVG figure", "_cli_render"),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The ``chipfire`` parser for ``argv``.

    When ``argv`` starts with a command name, the parser holds that command
    alone, with its arguments, and its usage line still lists every command.
    Otherwise (help or an option first, an unknown command or none) it holds
    every command, and gives its arguments to the first argument that is not
    an option when that names a command.  Only that command's module is
    imported.
    """
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing tables on the first-quadrant lattice.",
    )
    # The top level takes no option with a value, so the first argument
    # that is not an option is the one argparse reads as the command.
    command = next((a for a in argv if not a.startswith("-")), None)
    if argv and argv[0] == command and command in _COMMANDS:
        names, metavar = [command], "{%s}" % ",".join(_COMMANDS)
    else:
        names, metavar = list(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, module_name = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name == command:
            module = import_module(f"{__package__}.{module_name}")
            getattr(module, f"_{name}_args", _table_flags)(p)
            p.set_defaults(func=getattr(module, f"_cmd_{name}"))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ChipfireError as exc:
        sys.stderr.write(f"chipfire: {exc}\n")
        return EXIT_INVARIANT
    except ValueError as exc:
        sys.stderr.write(f"chipfire: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"chipfire: {exc}\n")
        return EXIT_IO


def entry() -> int:
    """``main`` on ``sys.argv``, then ``gc.freeze()``: the process entry of
    ``python -m chipfire.cli`` and of the ``chipfire`` script.

    The freeze moves every object still tracked to the permanent
    generation, which the collection the interpreter runs at exit skips.
    Exit statuses, flushes, ``atexit`` and module teardown are as without
    it.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    # ``python -m chipfire.cli`` runs this file as ``__main__``.  The command
    # modules import the shared helpers from ``chipfire.cli``; this module
    # takes that name too, so they do not compile and run the file again.
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(entry())
