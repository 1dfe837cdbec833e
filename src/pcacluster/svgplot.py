"""Self-contained SVG 1.1 figure builders.

Each builder returns a Document: the figure as lines of text, each ending
in "\n", made afresh on every iteration, so a writer can put them on disk
as they come and no copy of the whole text is ever held. ``"".join(doc)``
is the text when a caller needs it. Same inputs, same bytes. Text labels
are emitted as plain <text> nodes so tests can assert on them without
rasterizing. Colors come from a fixed palette indexed by cluster id.
Elements repeated per region, cell or merge come from one %-template per
figure, and label text never enters one.
"""

from __future__ import annotations

import math
import re
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .hclust import Dendrogram

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

_FONT = 'font-family="Helvetica, Arial, sans-serif"'

# a dendrogram merge's left leg, right leg and bar: three _line(x1, y1, x2, y2, "#333333")
# with each coordinate already formatted as "%.2f"
_MERGE = "\n".join(['<line x1="%s" y1="%s" x2="%s" y2="%s" '
                    'stroke="#333333" stroke-width="1"/>'] * 3)

# the n x p figures convert this many cells at a time, bounding their temporaries
_BLOCK_CELLS = 4096

# the characters XML 1.0 forbids: C0 controls other than tab, LF and CR,
# and U+FFFE, U+FFFF
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _esc(text: str) -> str:
    text = (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
    return _XML_FORBIDDEN.sub("\ufffd", text)


def cluster_color(cluster_id: int) -> str:
    return PALETTE[(cluster_id - 1) % len(PALETTE)]


def _document(width: int, height: int, body: Iterable[str]) -> Iterator[str]:
    """The document's lines: the head, each element of body, the closing tag."""
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n')
    yield f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n'
    for element in body:
        yield element + "\n"
    yield "</svg>\n"


class Document:
    """An SVG document of the given size: its title, then the elements body() yields.

    Iterating renders it afresh, one line at a time, from the values the
    builder was given, so they must not change until it is written.
    encode() is the whole text as bytes, which perfbench/tracing.py counts
    as svgplot.bytes.
    """

    def __init__(self, width: int, height: int, title: str,
                 body: Callable[[], Iterable[str]]) -> None:
        self._size = (width, height)
        self._title = _text(width / 2, 28, title, 16)
        self._body = body

    def __iter__(self) -> Iterator[str]:
        return _document(*self._size, chain((self._title,), self._body()))

    def encode(self, encoding: str = "utf-8") -> bytes:
        return "".join(self).encode(encoding)


def _text(x: float, y: float, content: str, size: float = 11, anchor: str = "middle",
          extra: str = "") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'font-size="{size:g}" {_FONT}{extra}>{_esc(content)}</text>'
    )


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#000000",
          width: float = 1.0, dash: str = "") -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
        f'stroke="{stroke}" stroke-width="{width:g}"{dash_attr}/>'
    )


def _scale(lo: float, hi: float, px_lo: float, px_hi: float) -> Callable[[float], float]:
    span = hi - lo
    if span == 0.0:
        span = 1.0
    ratio = (px_hi - px_lo) / span
    return lambda v: px_lo + (v - lo) * ratio


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / target
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = magnitude * mult
        if (hi - lo) / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _by_row(values: np.ndarray, row_order: Sequence[int],
            convert: Callable[[np.ndarray], np.ndarray]) -> Iterator[tuple[int, list]]:
    """(i, convert(values[i]) as a list) for each i in row_order, converting
    a block of about _BLOCK_CELLS cells at a time."""
    rows = list(row_order)
    step = max(1, _BLOCK_CELLS // max(values.shape[1], 1))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        yield from zip(block, convert(values[block]).tolist())


def _tick_label(value: float) -> str:
    return f"{value:g}"


def scree_svg(eigenvalues: Sequence[float]) -> Document:
    """Eigenvalue against component number, with the retain-above-1 level."""
    vals = [float(v) for v in eigenvalues]
    p = len(vals)
    width, height = 640, 420
    left, right, top, bottom = 70, 610, 50, 360
    x_of = _scale(1, max(p, 2), left, right)
    y_hi = max(max(vals), 1.0) * 1.08
    y_of = _scale(0.0, y_hi, bottom, top)

    def body() -> Iterator[str]:
        for tick in _nice_ticks(0.0, y_hi):
            yield _line(left, y_of(tick), right, y_of(tick), "#dddddd")
            yield _text(left - 8, y_of(tick) + 4, _tick_label(tick), 10, "end")
        yield _line(left, bottom, right, bottom)
        yield _line(left, top, left, bottom)
        one = y_of(1.0)
        yield _line(left, one, right, one, "#888888", 1.0, "5,4")
        yield _text(right, one - 5, "eigenvalue = 1", 10, "end", ' fill="#555555"')
        points = " ".join(f"{x_of(i + 1):.2f},{y_of(v):.2f}" for i, v in enumerate(vals))
        yield f'<polyline fill="none" stroke="{PALETTE[0]}" stroke-width="2" points="{points}"/>'
        for i, v in enumerate(vals):
            yield (f'<circle cx="{x_of(i + 1):.2f}" cy="{y_of(v):.2f}" r="3.5" '
                   f'fill="{PALETTE[0]}"/>')
            yield _text(x_of(i + 1), bottom + 16, str(i + 1), 9)
        yield _text((left + right) / 2, bottom + 34, "component", 11)
        yield _text(18, (top + bottom) / 2, "eigenvalue", 11,
                    extra=f' transform="rotate(-90 18 {(top + bottom) / 2:.2f})"')

    return Document(width, height, "Scree plot", body)


def parallel_coordinates_svg(
    z_values: np.ndarray,
    indicator_labels: Sequence[str],
    assignment: Sequence[int],
    row_order: Sequence[int],
) -> Document:
    """One polyline per region over the standardized indicator axes."""
    n, p = z_values.shape
    width, height = 900, 480
    left, right, top, bottom = 60, 860, 50, 360
    x_of = _scale(0, max(p - 1, 1), left, right)
    lo = float(z_values.min())
    hi = float(z_values.max())
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    y_of = _scale(lo - pad, hi + pad, bottom, top)

    def body() -> Iterator[str]:
        for tick in _nice_ticks(lo, hi, 6):
            yield _line(left, y_of(tick), right, y_of(tick), "#eeeeee")
            yield _text(left - 8, y_of(tick) + 4, _tick_label(tick), 10, "end")
        for j, label in enumerate(indicator_labels):
            yield _line(x_of(j), top, x_of(j), bottom, "#cccccc")
            yield _text(x_of(j), bottom + 12, label, 8, "end",
                        extra=f' transform="rotate(-55 {x_of(j):.2f} {bottom + 12:.2f})"')
        polyline = ('<polyline fill="none" stroke="%s" stroke-width="1" stroke-opacity="0.55" '
                    'points="' + " ".join([f"{x_of(j):.2f},%.2f" for j in range(p)]) + '"/>')
        for i, ys in _by_row(z_values, row_order, y_of):
            yield polyline % (cluster_color(assignment[i]), *ys)
        for cluster_id in sorted(set(assignment)):
            y = top + 14 * cluster_id
            yield _line(width - 120, y, width - 96, y, cluster_color(cluster_id), 3)
            yield _text(width - 90, y + 4, f"cluster {cluster_id}", 10, "start")
        yield _text(18, (top + bottom) / 2, "z-score", 11,
                    extra=f' transform="rotate(-90 18 {(top + bottom) / 2:.2f})"')

    return Document(width, height, "Parallel coordinates", body)


_BLUE = np.array([33, 102, 172])
_RED = np.array([178, 24, 43])
# the two hex digits of each byte value as a (256, 2) array of characters
_HEX = np.array([f"{v:02x}" for v in range(256)]).view("<U1").reshape(256, 2)


def diverging_colors(t: np.ndarray) -> np.ndarray:
    """'#rrggbb' per entry of t clipped to [-1, 1]: blue through white to red.

    Each channel is c0 + (255 - c0) * frac rounded half to even, with
    frac = 1 + t below 0 and 1 - t otherwise.
    """
    t = np.clip(t, -1.0, 1.0)[..., np.newaxis]
    negative = t < 0
    c0 = np.where(negative, _BLUE, _RED)
    rgb = np.rint(c0 + (255 - c0) * np.where(negative, 1.0 + t, 1.0 - t)).astype(np.intp)
    # seven characters per entry, read back as one 7-character string each
    chars = np.full(t.shape[:-1] + (7,), "#")
    chars[..., 1:] = _HEX[rgb].reshape(t.shape[:-1] + (6,))
    return chars.view("<U7")[..., 0]


HEATMAP_CLIP = 3.0


def heatmap_svg(
    z_values: np.ndarray,
    region_labels: Sequence[str],
    indicator_labels: Sequence[str],
    row_order: Sequence[int],
) -> Document:
    """Grid of z-scores, symmetric color scale clipped at +-3 sd,
    rows in dendrogram leaf order."""
    n, p = z_values.shape
    cell_w, cell_h = 26, max(6, min(16, 560 // max(n, 1)))
    left, top = 150, 120
    width = left + p * cell_w + 40
    height = top + n * cell_h + 30
    label_size = max(4, min(9, cell_h - 1))

    def body() -> Iterator[str]:
        for j, label in enumerate(indicator_labels):
            x = left + (j + 0.5) * cell_w
            yield _text(x, top - 6, label, 8, "start",
                        extra=f' transform="rotate(-60 {x:.2f} {top - 6:.2f})"')
        # a row of rects is these pieces with the row's y between them
        rects = "\n".join([f'<rect x="{left + j * cell_w:.2f}" y="{{}}" width="{cell_w}" '
                           f'height="{cell_h}" fill="%s"/>' for j in range(p)]).split("{}")
        rows = _by_row(z_values, row_order, lambda block: diverging_colors(block / HEATMAP_CLIP))
        for row, (i, colors) in enumerate(rows):
            y = top + row * cell_h
            yield _text(left - 5, y + cell_h * 0.75, region_labels[i], label_size, "end")
            yield f"{y:.2f}".join(rects) % tuple(colors)

    return Document(width, height, "Heatmap of standardized indicators", body)


def loadings_svg(entries: np.ndarray, labels: Sequence[str],
                 axis_names: Sequence[str]) -> Document:
    """Scatter of per-variable loadings on the first two components,
    with the unit correlation circle."""
    width, height = 640, 640
    left, right, top, bottom = 70, 590, 60, 580
    limit = max(1.0, float(np.abs(entries).max())) * 1.1
    x_of = _scale(-limit, limit, left, right)
    y_of = _scale(-limit, limit, bottom, top)
    cx, cy = x_of(0.0), y_of(0.0)
    radius = abs(x_of(1.0) - cx)

    def body() -> Iterator[str]:
        yield (f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
               f'fill="none" stroke="#bbbbbb" stroke-dasharray="4,3"/>')
        yield _line(left, cy, right, cy, "#999999")
        yield _line(cx, top, cx, bottom, "#999999")
        for x, y, label in zip(entries[:, 0], entries[:, 1], labels):
            px, py = x_of(float(x)), y_of(float(y))
            yield f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{PALETTE[1]}"/>'
            yield _text(px + 5, py - 4, label, 8, "start")
        yield _text((left + right) / 2, height - 14, axis_names[0], 11)
        yield _text(20, (top + bottom) / 2, axis_names[1], 11,
                    extra=f' transform="rotate(-90 20 {(top + bottom) / 2:.2f})"')

    return Document(width, height, "Loadings plot", body)


def biplot_svg(
    score_xy: np.ndarray,
    score_clusters: Sequence[int],
    arrow_xy: np.ndarray,
    arrow_labels: Sequence[str],
    axis_names: Sequence[str],
) -> Document:
    """Score points with pre-scaled loading arrows sharing the frame."""
    width, height = 720, 720
    left, right, top, bottom = 70, 670, 60, 660
    extent = max(float(np.abs(score_xy).max()), float(np.abs(arrow_xy).max()), 1e-9) * 1.1
    x_of = _scale(-extent, extent, left, right)
    y_of = _scale(-extent, extent, bottom, top)
    cx, cy = x_of(0.0), y_of(0.0)

    def body() -> Iterator[str]:
        yield _line(left, cy, right, cy, "#999999")
        yield _line(cx, top, cx, bottom, "#999999")
        point = '<circle cx="%.2f" cy="%.2f" r="3" fill="%s" fill-opacity="0.75"/>'
        for (x, y), cluster_id in zip(score_xy.tolist(), score_clusters):
            yield point % (x_of(x), y_of(y), cluster_color(cluster_id))
        for (x, y), label in zip(arrow_xy, arrow_labels):
            tip_x, tip_y = x_of(float(x)), y_of(float(y))
            yield _line(cx, cy, tip_x, tip_y, "#333333", 1.2)
            angle = math.atan2(tip_y - cy, tip_x - cx)
            for side in (angle + 2.6, angle - 2.6):
                yield _line(tip_x, tip_y, tip_x + 7 * math.cos(side),
                            tip_y + 7 * math.sin(side), "#333333", 1.2)
            yield _text(tip_x + 6, tip_y - 5, label, 8, "start")
        yield _text((left + right) / 2, height - 14, axis_names[0], 11)
        yield _text(20, (top + bottom) / 2, axis_names[1], 11,
                    extra=f' transform="rotate(-90 20 {(top + bottom) / 2:.2f})"')

    return Document(width, height, "Biplot", body)


def _dendrogram_panel(dend: Dendrogram, title: str, x0: float, panel_w: float,
                      top: float, bottom: float) -> Iterator[str]:
    n = dend.n_leaves
    gap = panel_w / max(n, 1)
    merges = dend.merges.tolist()
    max_h = max((height for _, _, height, _ in merges), default=1.0) or 1.0
    y_of = _scale(0.0, max_h * 1.05, bottom, top)
    yield _text(x0 + panel_w / 2, top - 12, title, 12)
    # each node by its signed id, step s at s and leaf i at -(i + 1): its x,
    # and its x and y formatted once, when the node is made
    node = [(0.0, "", "")] * (2 * n)
    y = f"{bottom:.2f}"
    for slot, leaf in enumerate(dend.leaf_order()):
        x = x0 + (slot + 0.5) * gap
        node[-(leaf + 1)] = (x, f"{x:.2f}", y)
    for step, (left, right, height, _) in enumerate(merges, start=1):
        (lx, lxt, lyt), (rx, rxt, ryt) = node[int(left)], node[int(right)]
        h = f"{y_of(height):.2f}"
        yield _MERGE % (lxt, lyt, lxt, h, rxt, ryt, rxt, h, lxt, h, rxt, h)
        x = (lx + rx) / 2.0
        node[step] = (x, f"{x:.2f}", h)
    if n <= 40:
        for label, (x, _, _) in zip(dend.labels, reversed(node[n:])):
            yield _text(x, bottom + 10, label, 7, "end",
                        extra=f' transform="rotate(-60 {x:.2f} {bottom + 10:.2f})"')


def dendrograms_svg(panels: Sequence[tuple[str, Dendrogram]]) -> Document:
    """Side-by-side dendrogram panels sharing one canvas."""
    count = max(len(panels), 1)
    panel_w = 520.0
    width = int(40 + count * (panel_w + 40))
    height = 520
    top, bottom = 70, 430

    def body() -> Iterator[str]:
        for idx, (title, dend) in enumerate(panels):
            x0 = 40 + idx * (panel_w + 40)
            yield from _dendrogram_panel(dend, title, x0, panel_w, top, bottom)

    return Document(width, height, "Hierarchical clustering", body)
