import hashlib
import re

import golden
import pytest

from chipfire import (
    distance_distribution,
    intermediate_configuration,
    segment,
    sign_map,
    stable_configuration,
)
from chipfire.render import KINDS, RenderSpec, _profile_rows, render, render_svg

FILLED = re.compile(r'<circle[^>]*fill="#000000"')
HOLLOW = re.compile(r'<circle[^>]*fill="none"')
GRAY = re.compile(r'<circle[^>]*fill="#999999"')
POLYLINE = re.compile(r"<polyline")


def spec(kind, n, **kwargs):
    return RenderSpec(kind=kind, n=n, out_path="unused.svg", **kwargs)


class TestStableDots:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_filled_dot_count_is_chip_count(self, n):
        svg = render_svg(spec("stable-dots", n))
        assert len(FILLED.findall(svg)) == 1 << n

    def test_hollow_dots_are_even_nonzero_positions(self):
        svg = render_svg(spec("stable-dots", 9))
        nonzero = sum(r.width for r in stable_configuration(9))
        assert len(HOLLOW.findall(svg)) == nonzero - (1 << 9)


class TestDistancePolyline:
    def test_point_count(self):
        svg = render_svg(spec("distance-polyline", 15))
        d = distance_distribution(15)
        assert len(FILLED.findall(svg)) == 2 * d.half_width + 1 == 91
        assert len(POLYLINE.findall(svg)) == 1

    def test_single_chip(self):
        svg = render_svg(spec("distance-polyline", 0))
        assert len(FILLED.findall(svg)) == 1


class TestRowProfiles:
    def test_three_curves(self):
        svg = render_svg(spec("row-profiles", 11))
        assert len(POLYLINE.findall(svg)) == 3
        # 12 + 19 + 19 landmark points
        assert len(FILLED.findall(svg)) == 50

    def test_small_n_skips_missing_parts(self):
        svg = render_svg(spec("row-profiles", 1))
        assert len(POLYLINE.findall(svg)) == 2  # no bottom triangle yet

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            render_svg(spec("row-profiles", 0))

    @pytest.mark.parametrize("n", sorted(golden.ROW_PROFILES_SVG_SHA256))
    def test_bytes_are_frozen(self, n):
        svg = render_svg(spec("row-profiles", n))
        assert hashlib.sha256(svg.encode()).hexdigest() == golden.ROW_PROFILES_SVG_SHA256[n]

    def test_streams_the_table_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return intermediate_configuration(n)

        monkeypatch.setattr("chipfire.render.intermediate_configuration", counted)
        monkeypatch.setattr("chipfire.structure.intermediate_configuration", counted)
        render_svg(spec("row-profiles", 9))
        assert calls == [9]

    @pytest.mark.parametrize("n", range(1, 17))
    def test_landmarks_agree_with_segment(self, table, n):
        rows = table(n)
        seg = segment(n)
        landmarks = {label: values for label, values, _ in _profile_rows(n)}
        assert landmarks["top-triangle-last"] == rows[seg.top_triangle[-1]].values
        assert landmarks["longest-first"] == rows[seg.first_longest_row].values
        if seg.bottom_triangle:
            assert landmarks["bottom-triangle-first"] == rows[seg.bottom_triangle.start].values
        else:
            assert "bottom-triangle-first" not in landmarks


class TestDiffSignmap:
    def test_symbol_counts(self):
        svg = render_svg(spec("diff-signmap", 4))
        rows = sign_map(4)
        plus = sum(s.signs.count("+") for s in rows)
        zero = sum(s.signs.count("0") for s in rows)
        minus = sum(s.signs.count("-") for s in rows)
        assert len(FILLED.findall(svg)) == plus
        assert len(HOLLOW.findall(svg)) == zero
        assert len(GRAY.findall(svg)) == minus
        assert plus + zero + minus == sum(len(s.signs) for s in rows)


@pytest.mark.parametrize("kind, n", sorted(golden.FIGURE_SVG_SHA256))
def test_figure_bytes_are_frozen(kind, n):
    svg = render_svg(spec(kind, n))
    assert hashlib.sha256(svg.encode()).hexdigest() == golden.FIGURE_SVG_SHA256[kind, n]


class TestSpecAndOutput:
    def test_write_to_file(self, tmp_path):
        out = tmp_path / "fig.svg"
        path = render(RenderSpec(kind="stable-dots", n=3, out_path=out))
        assert path == out
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_kinds_are_wired(self):
        for kind in KINDS:
            render_svg(spec(kind, 4))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="pie-chart", n=3),
            dict(kind="stable-dots", n=3, width=0),
            dict(kind="stable-dots", n=3, height=-5),
            dict(kind="stable-dots", n=3, dot_radius=0),
            dict(kind="stable-dots", n=3, dot_radius=float("nan")),
            dict(kind="stable-dots", n=3, dot_radius=float("inf")),
            dict(kind="stable-dots", n=3, width=2**1024),
            dict(kind="stable-dots", n=3, height=2**1024 - 1),
            # No larger than twice the padding: the scales would turn negative.
            dict(kind="stable-dots", n=3, width=20, height=20),
            dict(kind="distance-polyline", n=3, width=10, height=10),
            dict(kind="row-profiles", n=3, width=32),
            dict(kind="diff-signmap", n=3, height=32),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            spec(**kwargs)
