"""The ``render`` command: one SVG figure, written to ``--out``.  Loading it
imports :mod:`chipfire.render`, whose ``KINDS`` are the command's choices;
the figure imports the one module it draws from."""

from __future__ import annotations

import argparse
import sys

from . import render
from .cli import EXIT_OK, _exponent, _positive


def _render_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=render.KINDS, required=True)
    p.add_argument("--n", type=_exponent, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=_positive, default=960)
    p.add_argument("--height", type=_positive, default=640)
    p.add_argument("--dot-radius", type=float, default=2.0)


def _cmd_render(args) -> int:
    spec = render.RenderSpec(
        kind=args.kind,
        n=args.n,
        out_path=args.out,
        width=args.width,
        height=args.height,
        dot_radius=args.dot_radius,
    )
    path = render.render(spec)
    sys.stdout.write(f"{path}\n")
    return EXIT_OK
