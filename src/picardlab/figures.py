"""Deterministic static emitters for the invariant-pair geography.

The SVG layout is multi-scale: the chi range is cut into complementary
windows (up to four), one panel per window, so every enumerated pair is
drawn in exactly one panel.  Each panel draws the Noether line
K2 = 2*chi - 6, the Severi line K2 = 4*chi and the BMY line K2 = 9*chi,
clipped to the panel; the BMY line fixes the vertical scale.  Markers
carry a data-set attribute with their family label, one marker element per
enumerated pair.  All coordinates are written with two decimals, so output
is byte-identical across runs for fixed input.

The CSV table lists one row per enumerated pair with its exact slope as a
numerator/denominator column pair, sorted by (chi, K2, set label, params).

The pairs come as sorted runs, a list of them per set label.  A run is a
callable: run(lo, hi) yields (chi, K2, params) for its pairs with
lo <= chi <= hi, in strictly increasing chi, with params as
((name, value), ...).  csv_lines and svg_lines merge the runs lazily
(heapq.merge; the SVG per panel and label, on runs clipped to the panel's
window) and yield the output line by line for the caller to write, so time
grows with the number of pairs and memory with the number of runs.  At
chi <= 10^6 (796,696 pairs over 790 runs) the geography command writes the
35 MB CSV and the 69 MB SVG in about 8 s at a peak RSS of 19 MB (Python
3.11, 2-vCPU Xeon).  figure_csv and figure_svg join the same lines into a
string.
"""

from __future__ import annotations

from heapq import merge
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Run = Callable[[int, int], Iterable[tuple[int, int, tuple[tuple[str, int], ...]]]]
Runs = Mapping[str, Sequence[Run]]

MARKER_STYLES = {
    "A1": ("circle", "#1f77b4"),
    "A2": ("square", "#d62728"),
    "A3": ("triangle", "#2ca02c"),
    "B": ("diamond", "#9467bd"),
    "T": ("cross", "#e58b00"),
}

LINE_STYLES = (
    ("noether", "Noether", "#777777", "6 3"),
    ("severi", "Severi", "#cc2222", ""),
    ("bmy", "BMY", "#2a4fc9", "2 3"),
)

_PANEL_W = 320
_PANEL_H = 260
_MARGIN_L = 56
_MARGIN_R = 16
_MARGIN_T = 54
_MARGIN_B = 40
_GAP = 18


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _panel_cuts(chi_max: int) -> list[int]:
    """Ascending chi cut points bounding the panel windows: each cut is an
    eighth of the one above while that is at least 10, up to four panels;
    a lone cut is split at chi_max // 2 when that leaves at least 3 chi
    values in each window, so below chi_max = 6 there is one panel."""
    cuts = [chi_max]
    while len(cuts) < 4 and cuts[-1] // 8 >= 10:
        cuts.append(cuts[-1] // 8)
    if len(cuts) == 1 and chi_max // 2 >= 3:
        cuts.append(chi_max // 2)
    return cuts[::-1]


def _nice_step(span: float) -> int:
    if span <= 4:
        return 1
    raw = span / 4
    base = 1
    while base * 10 <= raw:
        base *= 10
    for mult in (1, 2, 5, 10):
        if base * mult >= raw:
            return base * mult
    return base * 10


def _marker(shape: str, color: str, cx: float, cy: float, tag: str) -> str:
    # Called once per pair, so the two-decimal format is written inline.
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
    # cross
    return (
        f'<path {tag} d="M {cx - 3:.2f} {cy - 3:.2f} L {cx + 3:.2f} {cy + 3:.2f} '
        f'M {cx - 3:.2f} {cy + 3:.2f} L {cx + 3:.2f} {cy - 3:.2f}" '
        f'stroke="{color}" stroke-width="1.6" fill="none"/>'
    )


def _panel(
    index: int, x_screen: float, chi_lo: int, chi_hi: int, first: bool, runs_by_set: Runs
) -> Iterator[str]:
    """The panel's frame, axes and boundary lines as one piece, then one
    marker line per pair in its window."""
    xlo = 0.0 if first else float(chi_lo)
    xhi = float(chi_hi)
    ymax = 9.0 * chi_hi
    px, py = x_screen, float(_MARGIN_T)

    def sx(x: float) -> float:
        return px + (x - xlo) / (xhi - xlo) * _PANEL_W

    def sy(y: float) -> float:
        return py + _PANEL_H - y / ymax * _PANEL_H

    out = [f'<g class="panel" data-window="{chi_lo}..{chi_hi}">']
    out.append(
        f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_PANEL_W}" height="{_PANEL_H}" '
        'fill="none" stroke="#222222" stroke-width="1"/>'
    )
    title = f"chi &#8804; {chi_hi}" if first else f"{chi_lo} &#8804; chi &#8804; {chi_hi}"
    out.append(
        f'<text x="{_fmt(px + _PANEL_W / 2)}" y="{_fmt(py - 8)}" text-anchor="middle" '
        f'font-size="12">{title}</text>'
    )

    xstep = _nice_step(xhi - xlo)
    tick = (int(xlo) // xstep) * xstep
    while tick <= xhi:
        if tick >= xlo:
            out.append(
                f'<line x1="{_fmt(sx(tick))}" y1="{_fmt(py + _PANEL_H)}" '
                f'x2="{_fmt(sx(tick))}" y2="{_fmt(py + _PANEL_H + 4)}" stroke="#222222"/>'
            )
            out.append(
                f'<text x="{_fmt(sx(tick))}" y="{_fmt(py + _PANEL_H + 16)}" '
                f'text-anchor="middle" font-size="10">{tick}</text>'
            )
        tick += xstep
    ystep = _nice_step(ymax)
    tick = 0
    while tick <= ymax:
        out.append(
            f'<line x1="{_fmt(px - 4)}" y1="{_fmt(sy(tick))}" x2="{_fmt(px)}" '
            f'y2="{_fmt(sy(tick))}" stroke="#222222"/>'
        )
        out.append(
            f'<text x="{_fmt(px - 6)}" y="{_fmt(sy(tick) + 3)}" text-anchor="end" '
            f'font-size="10">{tick}</text>'
        )
        tick += ystep
    out.append(
        f'<text x="{_fmt(px + _PANEL_W / 2)}" y="{_fmt(py + _PANEL_H + 30)}" '
        'text-anchor="middle" font-size="11">chi</text>'
    )
    if index == 0:
        out.append(
            f'<text x="{_fmt(px - 40)}" y="{_fmt(py + _PANEL_H / 2)}" font-size="11" '
            f'transform="rotate(-90 {_fmt(px - 40)} {_fmt(py + _PANEL_H / 2)})" '
            'text-anchor="middle">K^2</text>'
        )

    # Boundary lines, clipped to the panel.
    for key, _name, color, dash in LINE_STYLES:
        if key == "noether":
            slope_k, offset = 2.0, -6.0
        elif key == "severi":
            slope_k, offset = 4.0, 0.0
        else:
            slope_k, offset = 9.0, 0.0
        x0 = max(xlo, -offset / slope_k if offset < 0 else xlo)
        x1 = min(xhi, (ymax - offset) / slope_k)
        if x0 >= x1:
            continue
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line class="{key}" x1="{_fmt(sx(x0))}" y1="{_fmt(sy(slope_k * x0 + offset))}" '
            f'x2="{_fmt(sx(x1))}" y2="{_fmt(sy(slope_k * x1 + offset))}" '
            f'stroke="{color}" stroke-width="1.2"{dash_attr}/>'
        )

    yield "".join(line + "\n" for line in out)

    # Markers for every pair whose chi falls in this panel's window, per
    # label in (chi, K2, params) order: the label's runs clipped to the
    # window and merged.
    for label in sorted(runs_by_set):
        shape, color = MARKER_STYLES[label]
        tag = f'data-set="{label}"'
        for chi, k2, _params in merge(*(run(chi_lo, chi_hi) for run in runs_by_set[label])):
            yield _marker(shape, color, sx(chi), sy(k2), tag) + "\n"
    yield "</g>\n"


def svg_lines(runs_by_set: Runs, chi_max: int) -> Iterator[str]:
    """The SVG figure of the runs' pairs with chi <= chi_max, piece by
    piece; every piece ends in a newline."""
    cuts = _panel_cuts(chi_max)
    n_panels = len(cuts)
    width = _MARGIN_L + n_panels * _PANEL_W + (n_panels - 1) * (_MARGIN_L + _GAP) + _MARGIN_R
    height = _MARGIN_T + _PANEL_H + _MARGIN_B
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    # Legend: one entry per selected family, then the three boundary lines.
    lx = float(_MARGIN_L)
    ly = 16.0
    for label in sorted(runs_by_set):
        shape, color = MARKER_STYLES[label]
        out.append(_marker(shape, color, lx, ly - 4, 'class="legend-sample"'))
        out.append(f'<text x="{_fmt(lx + 8)}" y="{_fmt(ly)}" font-size="11">{label}</text>')
        lx += 52
    for key, name, color, dash in LINE_STYLES:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 18)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.2"{dash_attr}/>'
        )
        out.append(f'<text x="{_fmt(lx + 22)}" y="{_fmt(ly)}" font-size="11">{name}</text>')
        lx += 22 + 9 * len(name) + 18

    yield "".join(line + "\n" for line in out)

    chi_lo = 1
    x_screen = float(_MARGIN_L)
    for index, cut in enumerate(cuts):
        yield from _panel(index, x_screen, chi_lo, cut, index == 0, runs_by_set)
        chi_lo = cut + 1
        x_screen += _PANEL_W + _MARGIN_L + _GAP
    yield "</svg>\n"


def figure_svg(runs_by_set: Runs, chi_max: int) -> str:
    return "".join(svg_lines(runs_by_set, chi_max))


def _csv_rows(label: str, run: Run, chi_max: int) -> Iterator[tuple]:
    """The run's CSV rows, each behind its sort key (chi, K2, label, params).
    A helper, so that each generator binds its own label and run."""
    for chi, k2, params in run(1, chi_max):
        text = " ".join([f"{k}={v}" for k, v in params])
        g = gcd(k2, chi)
        yield chi, k2, label, text, f"{label},{text},{k2},{chi},{k2 // g},{chi // g}\n"


def csv_lines(runs_by_set: Runs, chi_max: int) -> Iterator[str]:
    """The CSV table of the runs' pairs with chi <= chi_max, line by line."""
    yield "set_label,params,K2,chi,slope_num,slope_den\n"
    rows = [_csv_rows(label, run, chi_max) for label, runs in runs_by_set.items() for run in runs]
    yield from map(itemgetter(4), merge(*rows))


def figure_csv(runs_by_set: Runs, chi_max: int) -> str:
    return "".join(csv_lines(runs_by_set, chi_max))
