"""The ``sequences`` command: a prefix of one derived integer sequence as
CSV or JSON.  Loading it imports :mod:`chipfire.sequences`, whose table
gives the command its choices."""

from __future__ import annotations

import argparse

from . import sequences
from .cli import _emit_result, _output_flags


def _sequences_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("id", choices=sorted(sequences.SEQUENCES) + ["half-nonzero-rows"])
    p.add_argument("--upto", type=int, required=True, help="last index, inclusive")
    _output_flags(p)


def _cmd_sequences(args) -> int:
    if args.id == "half-nonzero-rows":
        values = sequences.half_nonzero_rows(args.upto)
        offset = 1
    else:
        values = sequences.generate(args.id, args.upto)
        offset = sequences.SEQUENCES[args.id].offset
    return _emit_result(
        args,
        "index,value",
        lambda: (f"{offset + k},{v}" for k, v in enumerate(values)),
        lambda: {"id": args.id, "offset": offset, "values": values},
    )
