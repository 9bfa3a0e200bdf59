"""The streaming acceptance pass: one row stream, difference rows, segmentation.

Iterates the arrival table for ``2**n`` chips once, derives the difference
row of each row with its maximum and unimodality, then segments the length
profile and evaluates the bottom-triangle report.  Only the current row is
held, so memory should stay flat as n grows.

Every call goes through a module attribute (``difftable.diff_row``, not a
name imported from it), so the tracer's wrappers see it.

    PYTHONPATH=src python3 perfbench/stream_pass.py --n 24 --out stream.json
"""

from __future__ import annotations

import argparse
import json

from chipfire import core, difftable, structure


def run(n: int) -> dict:
    """Summary of one pass; every field is deterministic for a given n."""
    lengths = []
    prev_max = None
    max_ok = True
    unimodal_ok = True
    for row in core.intermediate_configuration(n):
        lengths.append(row.width)
        d = difftable.diff_row(row)
        m = difftable.row_max_abs(d)
        if d.index > 2 and prev_max is not None and m > prev_max:
            max_ok = False
        prev_max = m
        unimodal_ok = unimodal_ok and difftable.unimodal_check(d)
    profile = structure.RowProfile(n=n, lengths=tuple(lengths))
    seg = structure.segment(n, profile=profile)
    rep = structure.check_bottom_conjecture(n, profile=profile)
    return {
        "rows": len(lengths),
        "longest": seg.longest_length,
        "covered": sum(len(part) for _, part in seg.parts()) == len(lengths),
        "max_ok": max_ok,
        "unimodal_ok": unimodal_ok,
        "conjecture_holds": rep.holds,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(run(args.n), fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
