"""The SVG markers against a reference copy of the per-marker formatter that
the template writers replaced, byte for byte, the unrounded marker values
against the screen formulas they were first computed with, and the CSV
row order on ties against a sort on the row's fields."""

import random
from math import gcd

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
    csv_lines,
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


def reference_vertices(shape: str, cx: float, cy: float) -> tuple[float, ...]:
    """The values a marker of shape centred at (cx, cy) prints, before
    rounding, as the per-marker formatter computed them."""
    return {
        "circle": (cx, cy),
        "square": (cx - 3, cy - 3),
        "triangle": (cx, cy - 4, cx + 3.5, cy + 3, cx - 3.5, cy + 3),
        "diamond": (cx, cy - 4, cx + 4, cy, cx, cy + 4, cx - 4, cy),
        "cross": (cx - 3, cy - 3, cx + 3, cy + 3, cx - 3, cy + 3, cx + 3, cy - 3),
    }[shape]


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
    # can print the same bytes; the values before rounding cannot hide it.
    # Templates that print every value by repr, which reads back as the same
    # float, show them unrounded.
    unrounded = {shape: "%r " * t.count("%.2f") + "\n" for shape, t in figures._TEMPLATES.items()}
    monkeypatch.setattr(figures, "_TEMPLATES", unrounded)
    shape = MARKER_STYLES[label][0]
    rng = random.Random(f"centres {chi_max}/{label}")
    for index, x_screen, chi_lo, chi_hi, first in panels(chi_max):
        points = sample_points(rng, chi_lo, chi_hi)
        text = "".join(_panel(index, x_screen, chi_lo, chi_hi, first, {label: [ListRun([p]) for p in points]}))
        printed = [tuple(map(float, line.split())) for line in text.split("\n") if line and line[0] != "<"]
        expected = [
            reference_vertices(shape, cx, cy)
            for cx, cy in reference_centres(x_screen, chi_lo, chi_hi, first, points)
        ]
        assert printed == expected


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


class RowRun:
    """A run of one member, given by its fields, whose CSV row is laid out
    as the family runs lay theirs out."""

    def __init__(self, chi, k2, label, params):
        g = gcd(k2, chi)
        self.chi, self.row = chi, (chi, k2, f"{label},{params},{k2},{chi},{k2 // g},{chi // g}\n")

    def first_chi(self, lo):
        return self.chi if self.chi >= lo else None

    def csv_rows(self, lo, hi):
        return [self.row] if lo <= self.chi <= hi else []


def test_csv_ties_sort_as_their_fields():
    # Rows of one label at one (chi, K2) that differ only in params, where
    # one params text is a prefix of another (n=4 and n=40, n=1 and n=10):
    # the sorted rows must keep the order of (chi, K2, label, params).  The
    # families may never produce such a tie, so the runs are made by hand.
    ties = {
        "A1": ["n=10", "n=9", "n=100", "n=1"],
        "A2": ["m=3 n=40", "m=3 n=4", "m=30 n=4", "m=4 n=3", "m=3 n=5"],
        "B": ["n=7"],
    }
    fields = [
        (chi, k2, label, params)
        for chi, k2 in ((50, 120), (2000, 7000))
        for label, texts in ties.items()
        for params in texts
    ]
    runs = {}
    for chi, k2, label, params in reversed(fields):
        runs.setdefault(label, []).append(RowRun(chi, k2, label, params))
    lines = "".join(csv_lines(runs, 3000)).splitlines()
    expected = [f"{label},{params}" for _, _, label, params in sorted(fields)]
    assert lines[0] == "set_label,params,K2,chi,slope_num,slope_den"
    assert [line.rsplit(",", 4)[0] for line in lines[1:]] == expected
