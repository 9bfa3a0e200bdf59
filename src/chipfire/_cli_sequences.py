"""The ``sequences`` command: a prefix of one derived integer sequence as
CSV or JSON.  Loading it imports :mod:`chipfire.sequences`, whose table
gives the command its choices."""

from __future__ import annotations

import argparse

from . import sequences
from .cli import _emit_result, _output_flags


def _sequences_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("id", choices=list(sequences.SEQUENCES))
    p.add_argument("--upto", type=int, required=True, help="last index, inclusive")
    _output_flags(p)


def _cmd_sequences(args) -> int:
    values = sequences.generate(args.id, args.upto)
    offset = sequences.SEQUENCES[args.id].offset
    return _emit_result(
        args,
        "index,value",
        (f"{i},{v}" for i, v in enumerate(values, offset)),
        {"id": args.id, "offset": offset, "values": values},
    )
