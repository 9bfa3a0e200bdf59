"""Self-contained SVG figures for tables, distributions, and sign maps.

Figures are emitted as plain SVG text with one element per datum, so tests
can verify them by counting elements (every stable chip is one filled
circle, every distribution point one circle on the polyline, and so on).
Table-shaped figures are rotated so rows run horizontally: the row index
grows to the right and the distance coordinate ``y - x`` spans the
vertical axis.  The two table figures are drawn by one dot layer
(:func:`_dots`), the distribution and the row profiles by one line layer
(:func:`_lines`).  Each renderer imports the module it draws from, so a
figure loads only that one.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .core import _Record, intermediate_configuration

_FILLED = 'fill="#000000"'
_HOLLOW = 'fill="none" stroke="#000000" stroke-width="1"'
_GRAY = 'fill="#999999"'
_STROKE = 'stroke="#000000" stroke-width="1"'

#: The widest padding a renderer leaves on each side of the figure.  A
#: figure no wider or taller than twice it would get a negative scale and
#: draw outside its own viewBox.
_PAD = 16.0


class RenderSpec(_Record):
    """Figure request: what to draw, for which n, where, and how large.

    Read-only; the kind and the sizes are checked on construction.
    """

    _fields = ("kind", "n", "out_path", "width", "height", "dot_radius")

    def __init__(
        self,
        kind: str,
        n: int,
        out_path: str | Path,
        width: int = 960,
        height: int = 640,
        dot_radius: float = 2.0,
    ) -> None:
        self.__dict__.update(
            kind=kind, n=n, out_path=out_path, width=width, height=height, dot_radius=dot_radius
        )
        if kind not in KINDS:
            raise ValueError(f"unknown figure kind {kind!r}; choose from {KINDS}")
        # nan, the infinities and ints past the float range all fail this.
        if not all(abs(v) <= sys.float_info.max for v in (width, height, dot_radius)):
            raise ValueError("figure dimensions and dot radius must be finite floats")
        if width <= 2 * _PAD or height <= 2 * _PAD:
            raise ValueError(f"figure width and height must exceed {2 * _PAD:g}, twice the padding")
        if dot_radius <= 0:
            raise ValueError("dot radius must be positive")


def _svg_document(width: int, height: int, elements: list[str]) -> str:
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        *elements,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def _circle(cx: float, cy: float, r: float, style: str) -> str:
    return f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:g}" {style}/>'


def _polyline(points: list[tuple[float, float]], style: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" {style}/>'


def _dots(spec: RenderSpec, last_index: int, u_max: int, dots) -> str:
    """One circle per ``(row index, u, style)``, rows running horizontally."""
    pad = 12.0
    sx = (spec.width - 2 * pad) / max(last_index, 1)
    sy = (spec.height - 2 * pad) / max(2 * u_max, 1)
    cy = spec.height / 2
    elements = [_circle(pad + index * sx, cy - u * sy, spec.dot_radius, style)
                for index, u, style in dots]
    return _svg_document(spec.width, spec.height, elements)


def _lines(spec: RenderSpec, span: int, peak: int, series) -> str:
    """One polyline per ``(points, style)``, a filled dot on each point."""
    sx = (spec.width - 2 * _PAD) / max(span, 1)
    sy = (spec.height - 2 * _PAD) / peak
    base = spec.height - _PAD
    elements = []
    for points, style in series:
        pixels = [(_PAD + x * sx, base - y * sy) for x, y in points]
        elements.append(_polyline(pixels, style))
        elements.extend(_circle(px, py, spec.dot_radius, _FILLED) for px, py in pixels)
    return _svg_document(spec.width, spec.height, elements)


def _render_stable_dots(spec: RenderSpec) -> str:
    from . import stable

    rows = list(stable.stable_configuration(spec.n))
    u_max = max((r.index - 2 * r.y_min for r in rows if r.width), default=0)
    dots = [(r.index, y - x, _HOLLOW) for r in rows for x, y in r.unmarked_points()]
    dots += [(r.index, y - x, _FILLED) for r in rows for x, y in r.marked_points()]
    return _dots(spec, rows[-1].index, u_max, dots)


def _render_distance_polyline(spec: RenderSpec) -> str:
    from . import stable

    d = stable.distance_distribution(spec.n)
    m = d.half_width
    points = [(i + m, d.count(i)) for i in d.offsets()]
    return _lines(spec, 2 * m, max(d.counts) or 1, [(points, _STROKE)])


def _profile_rows(n: int) -> list[tuple[str, tuple[int, ...], str]]:
    # The three landmark rows: last scaled binomial row, first row of the
    # longest length, and the first bottom-triangle row (when it exists).
    # One pass finds the last two: a row is kept while the width summary,
    # which the segmentation reads, places that landmark at it.
    from . import structure

    summary = structure.WidthSummary(n)
    bottom_first = None
    for row in intermediate_configuration(n):
        summary.push(row.width)
        if summary.first_longest == row.index:
            longest = row
        if summary.bottom_start == row.index:
            bottom_first = row
    rows = [
        ("top-triangle-last", structure.pascal_row(n, n).values,
         _STROKE + ' stroke-dasharray="6 3"'),
        ("longest-first", longest.values, 'stroke="#000000" stroke-width="1.5"'),
    ]
    if bottom_first is not None:
        rows.append(
            ("bottom-triangle-first", bottom_first.values, 'stroke="#999999" stroke-width="1"')
        )
    return rows


def _render_row_profiles(spec: RenderSpec) -> str:
    if spec.n < 1:
        raise ValueError("row profiles need n >= 1")
    rows = _profile_rows(spec.n)
    widest = max(len(values) for _, values, _ in rows)
    peak = max(v for _, values, _ in rows for v in values)
    # center each row on the shared axis
    series = [
        ([((widest - len(values)) / 2 + k, v) for k, v in enumerate(values)], style)
        for _, values, style in rows
    ]
    return _lines(spec, widest - 1, peak, series)


def _render_diff_signmap(spec: RenderSpec) -> str:
    from . import difftable

    sign_rows = difftable.sign_map(spec.n)
    style_of = {"+": _FILLED, "0": _HOLLOW, "-": _GRAY}
    # sign k sits between positions y and y + 1: u = 2y + 1 - index
    dots = [
        (s.index, 2 * (s.y_min + k) + 1 - s.index, style_of[symbol])
        for s in sign_rows
        for k, symbol in enumerate(s.signs)
    ]
    u_max = max([1, *(abs(u) for _, u, _ in dots)])
    return _dots(spec, max((s.index for s in sign_rows), default=1), u_max, dots)


_RENDERERS = {
    "stable-dots": _render_stable_dots,
    "distance-polyline": _render_distance_polyline,
    "row-profiles": _render_row_profiles,
    "diff-signmap": _render_diff_signmap,
}
KINDS = tuple(_RENDERERS)


def render_svg(spec: RenderSpec) -> str:
    """Build the SVG text for a figure request."""
    return _RENDERERS[spec.kind](spec)


def render(spec: RenderSpec) -> Path:
    """Render the figure and write it to ``spec.out_path``."""
    out = Path(spec.out_path)
    out.write_text(render_svg(spec), encoding="utf-8")
    return out
