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

The pairs come as sorted runs, a list of them per set label.  A run (the
Run protocol) holds one set's members in strictly increasing chi and
answers window queries with lists: csv_rows(lo, hi) gives (chi, K2, CSV
line), each row formatted once, and points(lo, hi) gives (chi, K2), all a
marker depends on.  Sorting (chi, K2, line) gives the order of (chi, K2,
set label, params): no label is a prefix of another, and where one params
text of a label is a prefix of another, the longer goes on with a digit of
the last value, while the shorter is followed by ",", which sorts below
every digit.  csv_lines and svg_lines (the SVG per panel and label) cut the
chi range into windows of _WINDOW chi values, collect the rows of the runs
with a member in each window, sort them with list.sort, whose Timsort
merges the pre-sorted runs in C, and yield each window's output as one
string for the caller to write.  A run waits under the window of its next
member, so a window asks only the runs with rows in it.  A panel writes a
label's markers of one window in one "%" step: the shape's template,
filled with the label's tag and colour and repeated once per pair, takes
the vertices of every marker, computed a column at a time from the panel
transform.  Time grows with the number of pairs and memory with the number
of runs plus the rows of one window.  At chi <= 10^6 (796,696 pairs over
790 runs) the geography command writes the 35 MB CSV and the 69 MB SVG in
about 3.7 s at a peak RSS of 16 MB, the SVG alone in about 2.1 s and the
CSV alone in about 1.7 s (Python 3.11, 2-vCPU Xeon: medians of 13 runs,
each scaled to the 0.32 s reference of the perfbench calibration kernel,
which took 0.19-0.32 s around them).  figure_csv and figure_svg join the
same output into a string.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Protocol, Sequence


class Run(Protocol):
    """One set's members, in strictly increasing chi."""

    def first_chi(self, lo: int) -> Optional[int]:
        """The smallest member chi >= lo, or None."""

    def csv_rows(self, lo: int, hi: int) -> list[tuple[int, int, str]]:
        """(chi, K2, CSV line) of the members with lo <= chi <= hi.  The line
        is the member's finished row, "set label,params,K2,chi,slope
        numerator,slope denominator" and a newline, the params as
        "name=value ..." and the slope K2/chi in lowest terms."""

    def points(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """(chi, K2) of the members with lo <= chi <= hi."""


Runs = Mapping[str, Sequence[Run]]

# The width in chi of the windows whose rows the emitters sort and format as
# one batch.  The families have about 0.8 pairs per chi value, so a batch
# holds about 800 rows whatever the bound.
_WINDOW = 1024

MARKER_STYLES = {
    "A1": ("circle", "#1f77b4"),
    "A2": ("square", "#d62728"),
    "A3": ("triangle", "#2ca02c"),
    "B": ("diamond", "#9467bd"),
    "T": ("cross", "#e58b00"),
}

# Boundary lines K2 = slope*chi + offset: key, name, colour, dash, slope, offset.
LINE_STYLES = (
    ("noether", "Noether", "#777777", "6 3", 2.0, -6.0),
    ("severi", "Severi", "#cc2222", "", 4.0, 0.0),
    ("bmy", "BMY", "#2a4fc9", "2 3", 9.0, 0.0),
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
    # The loop leaves base * 10 > raw, so mult = 10 at the latest returns.
    for mult in (1, 2, 5, 10):
        if base * mult >= raw:
            return base * mult


# Each shape's marker element as a "%"-template: the tag and the colour are
# filled in once per label, the vertices' floats once per marker.
_TEMPLATES = {
    "circle": '<circle {tag} cx="%.2f" cy="%.2f" r="3" fill="{color}"/>\n',
    "square": '<rect {tag} x="%.2f" y="%.2f" width="6" height="6" fill="{color}"/>\n',
    "triangle": '<polygon {tag} points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="{color}"/>\n',
    "diamond": '<polygon {tag} points="%.2f,%.2f %.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="{color}"/>\n',
    "cross": '<path {tag} d="M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f" '
    'stroke="{color}" stroke-width="1.6" fill="none"/>\n',
}

# Each shape's vertices as (dx, dy) offsets from the marker's centre, in the
# order its template prints them.
_VERTICES = {
    "circle": ((0, 0),),
    "square": ((-3, -3),),
    "triangle": ((0, -4), (3.5, 3), (-3.5, 3)),
    "diamond": ((0, -4), (4, 0), (0, 4), (-4, 0)),
    "cross": ((-3, -3), (3, 3), (-3, 3), (3, -3)),
}


def _markers(
    template: str, vertices: tuple[tuple[float, float], ...],
    px: float, xlo: float, xspan: float, py0: float, ymax: float, pairs: list[tuple[int, int]],
) -> str:
    """The markers of pairs, a window's sorted (chi, K2), in one string: the
    template once per pair, filled by one "%" step.  A pair's centre is x =
    px + (chi - xlo) / xspan * _PANEL_W and y = py0 - K2 / ymax * _PANEL_H;
    a vertex adds its nonzero offsets to it (x + -3 is x - 3 exactly).  The
    values are computed a column at a time, as a call per marker costs more
    than its format."""
    xs = [px + (c - xlo) / xspan * _PANEL_W for c, _ in pairs]
    ys = [py0 - k2 / ymax * _PANEL_H for _, k2 in pairs]
    step = 2 * len(vertices)
    values = [0.0] * (step * len(pairs))
    for i, (dx, dy) in enumerate(vertices):
        values[2 * i :: step] = [x + dx for x in xs] if dx else xs
        values[2 * i + 1 :: step] = [y + dy for y in ys] if dy else ys
    values = tuple(values)  # the list goes before the text is built
    return (template * len(pairs)) % values


def _marker_writer(label: str, tag: str) -> Callable[..., str]:
    """The writer of label's markers, tagged with tag: _markers with the
    label's filled template and its shape's vertices, taking the panel
    transform and then the pairs."""
    shape, color = MARKER_STYLES[label]
    return partial(_markers, _TEMPLATES[shape].format(tag=tag, color=color), _VERTICES[shape])


def _batches(
    runs: Sequence[Run], lo: int, hi: int, rows_of: Callable[[Run, int, int], list]
) -> Iterator[list]:
    """The runs' rows with lo <= chi <= hi, sorted, one list per window of
    _WINDOW chi values that holds any; rows_of(run, lo, hi) queries a run.
    Each run waits under the window of its next member, so a window asks
    only the runs with rows in it.  The caller maps the lists to text, so
    that only one window's rows are alive at a time."""
    waiting: dict[int, list[Run]] = {}

    def wait(run: Run, start: int) -> None:
        chi = run.first_chi(start)
        if chi is not None and chi <= hi:
            waiting.setdefault((chi - lo) // _WINDOW, []).append(run)

    for run in runs:
        wait(run, lo)
    index = 0
    while waiting:
        due = waiting.pop(index, ())
        w_lo = lo + index * _WINDOW
        w_hi = min(w_lo + _WINDOW - 1, hi)
        batch: list = []
        for run in due:
            batch += rows_of(run, w_lo, w_hi)
            wait(run, w_hi + 1)
        if batch:
            batch.sort()
            yield batch
        index += 1


def _panel(
    index: int, x_screen: float, chi_lo: int, chi_hi: int, first: bool, runs_by_set: Runs
) -> Iterator[str]:
    """The panel's frame, axes and boundary lines as one piece, then one
    marker line per pair in its window."""
    xlo = 0.0 if first else float(chi_lo)
    xhi = float(chi_hi)
    ymax = 9.0 * chi_hi
    px, py = x_screen, float(_MARGIN_T)
    xspan, py0 = xhi - xlo, py + _PANEL_H

    def sx(x: float) -> float:
        return px + (x - xlo) / xspan * _PANEL_W

    def sy(y: float) -> float:
        return py0 - y / ymax * _PANEL_H

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
    for key, _name, color, dash, slope_k, offset in LINE_STYLES:
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
    # label in (chi, K2) order; pairs equal in both draw the same marker.
    for label in sorted(runs_by_set):
        write = _marker_writer(label, f'data-set="{label}"')
        # map holds no batch while _batches collects the next one.
        batches = _batches(runs_by_set[label], chi_lo, chi_hi, lambda run, lo, hi: run.points(lo, hi))
        yield from map(partial(write, px, xlo, xspan, py0, ymax), batches)
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
        # The sample without its newline: out's lines get one when joined.
        # The transform with px = lx, py0 = ly - 4 and unit spans puts the
        # pair (0, 0) at the centre (lx, ly - 4) exactly.
        sample = _marker_writer(label, 'class="legend-sample"')(lx, 0.0, 1.0, ly - 4, 1.0, [(0, 0)])
        out.append(sample[:-1])
        out.append(f'<text x="{_fmt(lx + 8)}" y="{_fmt(ly)}" font-size="11">{label}</text>')
        lx += 52
    for _key, name, color, dash, _slope, _offset in LINE_STYLES:
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


def _csv_text(batch: list[tuple[int, int, str]]) -> str:
    return "".join([line for _, _, line in batch])


def csv_lines(runs_by_set: Runs, chi_max: int) -> Iterator[str]:
    """The CSV table of the runs' pairs with chi <= chi_max, one window's
    rows per piece; every piece ends in a newline."""
    yield "set_label,params,K2,chi,slope_num,slope_den\n"
    runs = [run for runs in runs_by_set.values() for run in runs]
    # map holds no batch while _batches collects the next one.
    yield from map(_csv_text, _batches(runs, 1, chi_max, lambda run, lo, hi: run.csv_rows(lo, hi)))


def figure_csv(runs_by_set: Runs, chi_max: int) -> str:
    return "".join(csv_lines(runs_by_set, chi_max))
