"""The SVG markers against a reference copy of the per-marker formatter that
the template writers replaced, byte for byte, and the unrounded marker
centres against the screen formulas they were first computed with."""

import random

import pytest

from picardlab import figures
from picardlab.figures import (
    _GAP,
    _MARGIN_L,
    _MARGIN_T,
    _PANEL_H,
    _PANEL_W,
    MARKER_STYLES,
    _panel,
    _panel_cuts,
    svg_lines,
)


def reference_marker(shape: str, color: str, cx: float, cy: float, tag: str) -> str:
    if shape == "circle":
        return f'<circle {tag} cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{color}"/>'
    if shape == "square":
        return f'<rect {tag} x="{cx - 3:.2f}" y="{cy - 3:.2f}" width="6" height="6" fill="{color}"/>'
    if shape == "triangle":
        pts = f"{cx:.2f},{cy - 4:.2f} {cx + 3.5:.2f},{cy + 3:.2f} {cx - 3.5:.2f},{cy + 3:.2f}"
        return f'<polygon {tag} points="{pts}" fill="{color}"/>'
    if shape == "diamond":
        pts = f"{cx:.2f},{cy - 4:.2f} {cx + 4:.2f},{cy:.2f} {cx:.2f},{cy + 4:.2f} {cx - 4:.2f},{cy:.2f}"
        return f'<polygon {tag} points="{pts}" fill="{color}"/>'
    return (
        f'<path {tag} d="M {cx - 3:.2f} {cy - 3:.2f} L {cx + 3:.2f} {cy + 3:.2f} '
        f'M {cx - 3:.2f} {cy + 3:.2f} L {cx + 3:.2f} {cy - 3:.2f}" '
        f'stroke="{color}" stroke-width="1.6" fill="none"/>'
    )


def reference_centres(x_screen, chi_lo, chi_hi, first, points):
    """The screen centres of points in the panel, by the emitter's first
    sx and sy, in (chi, K2) order."""
    xlo = 0.0 if first else float(chi_lo)
    xhi = float(chi_hi)
    ymax = 9.0 * chi_hi
    px, py = x_screen, float(_MARGIN_T)

    def sx(x: float) -> float:
        return px + (x - xlo) / (xhi - xlo) * _PANEL_W

    def sy(y: float) -> float:
        return py + _PANEL_H - y / ymax * _PANEL_H

    return [(sx(c), sy(k2)) for c, k2 in sorted(points)]


def reference_panel_markers(label, x_screen, chi_lo, chi_hi, first, points):
    """The marker lines of points in the panel, with the screen arithmetic
    written out in full as the emitter's panels compute it."""
    shape, color = MARKER_STYLES[label]
    tag = f'data-set="{label}"'
    return [
        reference_marker(shape, color, cx, cy, tag)
        for cx, cy in reference_centres(x_screen, chi_lo, chi_hi, first, points)
    ]


class ListRun:
    """A run over given (chi, K2) points in strictly increasing chi."""

    def __init__(self, points):
        self.pts = sorted(points)

    def first_chi(self, lo):
        return next((c for c, _ in self.pts if c >= lo), None)

    def points(self, lo, hi):
        return [(c, k2) for c, k2 in self.pts if lo <= c <= hi]


def panels(chi_max):
    """(index, x_screen, chi_lo, chi_hi, first) of each panel, as svg_lines
    lays them out."""
    chi_lo, x_screen = 1, float(_MARGIN_L)
    for index, cut in enumerate(_panel_cuts(chi_max)):
        yield index, x_screen, chi_lo, cut, index == 0
        chi_lo = cut + 1
        x_screen += _PANEL_W + _MARGIN_L + _GAP


def sample_points(rng, chi_lo, chi_hi):
    """Random (chi, K2) in the window, with its two edge chi values and, at
    those, K2 = 0 and K2 at the top of the panel."""
    chis = {chi_lo, chi_hi}
    chis.update(rng.randint(chi_lo, chi_hi) for _ in range(60))
    ymax = 9 * chi_hi
    points = {(c, rng.randint(0, ymax)) for c in chis}
    points.update((c, k2) for c in (chi_lo, chi_hi) for k2 in (0, ymax))
    return points


@pytest.mark.parametrize("chi_max", [10, 1_000, 100_000])
@pytest.mark.parametrize("label", sorted(MARKER_STYLES))
def test_panel_markers_match_the_reference(chi_max, label):
    rng = random.Random(f"{chi_max}/{label}")
    for index, x_screen, chi_lo, chi_hi, first in panels(chi_max):
        points = sample_points(rng, chi_lo, chi_hi)
        # Points of equal chi go to different runs, as the lines' do.
        runs = [ListRun([p]) for p in points]
        text = "".join(_panel(index, x_screen, chi_lo, chi_hi, first, {label: runs}))
        drawn = [line for line in text.split("\n") if "data-set=" in line]
        assert drawn == reference_panel_markers(label, x_screen, chi_lo, chi_hi, first, points)


@pytest.mark.parametrize("chi_max", [10, 1_000, 100_000])
@pytest.mark.parametrize("label", sorted(MARKER_STYLES))
def test_panel_centres_are_the_first_screen_formulas(chi_max, label, monkeypatch):
    # The markers round to two decimals, so a reordered float expression
    # can print the same bytes; the centres before rounding cannot hide it.
    handed = []

    def recording_writer(label, tag):
        return lambda centres: handed.extend(centres) or ""

    monkeypatch.setattr(figures, "_marker_writer", recording_writer)
    rng = random.Random(f"centres {chi_max}/{label}")
    for index, x_screen, chi_lo, chi_hi, first in panels(chi_max):
        points = sample_points(rng, chi_lo, chi_hi)
        handed.clear()
        for _ in _panel(index, x_screen, chi_lo, chi_hi, first, {label: [ListRun([p]) for p in points]}):
            pass
        assert handed == reference_centres(x_screen, chi_lo, chi_hi, first, points)


def test_legend_samples_match_the_reference():
    labels = sorted(MARKER_STYLES)
    head = next(svg_lines({label: [] for label in labels}, 100))
    drawn = [line for line in head.split("\n") if 'class="legend-sample"' in line]
    lx, ly = float(_MARGIN_L), 16.0
    expected = []
    for label in labels:
        shape, color = MARKER_STYLES[label]
        expected.append(reference_marker(shape, color, lx, ly - 4, 'class="legend-sample"'))
        lx += 52
    assert drawn == expected
