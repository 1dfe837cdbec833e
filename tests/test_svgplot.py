from __future__ import annotations

import math
import re
import time
import xml.dom.minidom

import numpy as np
import pytest

from pcacluster.hclust import complete_linkage, euclidean_distances
from pcacluster.svgplot import (
    HEATMAP_CLIP,
    PALETTE,
    Document,
    _line,
    _nice_ticks,
    _scale,
    _text,
    biplot_svg,
    cluster_color,
    dendrograms_svg,
    diverging_colors,
    heatmap_svg,
    loadings_svg,
    parallel_coordinates_svg,
    scree_svg,
)

# both n x p figures at 3000 x 19 take 0.04-0.07 s on a 2-core Xeon (minimum
# and median of 36 runs), and 0.34-0.55 s when every cell goes through a Python
# colour or coordinate call; the budget leaves over three times the median for
# host drift, which has reached 0.235 s with both cores busy
RENDER_3000_BUDGET_S = 0.25


def oracle_diverging_color(t: float) -> str:
    """The per-cell colour rule the array function replaced."""
    t = max(-1.0, min(1.0, t))
    if t < 0:
        frac = 1.0 + t
        rgb = tuple(round(c0 + (255 - c0) * frac) for c0 in (33, 102, 172))
    else:
        frac = 1.0 - t
        rgb = tuple(round(c0 + (255 - c0) * frac) for c0 in (178, 24, 43))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def oracle_heatmap_svg(z_values, region_labels, indicator_labels, row_order) -> str:
    """heatmap_svg as it was drawn one cell at a time."""
    n, p = z_values.shape
    cell_w, cell_h = 26, max(6, min(16, 560 // max(n, 1)))
    left, top = 150, 120
    width = left + p * cell_w + 40
    height = top + n * cell_h + 30
    label_size = max(4, min(9, cell_h - 1))
    body = []
    for j, label in enumerate(indicator_labels):
        x = left + (j + 0.5) * cell_w
        body.append(_text(x, top - 6, label, 8, "start",
                          extra=f' transform="rotate(-60 {x:.2f} {top - 6:.2f})"'))
    for row, i in enumerate(row_order):
        y = top + row * cell_h
        body.append(_text(left - 5, y + cell_h * 0.75, region_labels[i], label_size, "end"))
        for j in range(p):
            color = oracle_diverging_color(float(z_values[i, j]) / HEATMAP_CLIP)
            body.append(
                f'<rect x="{left + j * cell_w:.2f}" y="{y:.2f}" width="{cell_w}" '
                f'height="{cell_h}" fill="{color}"/>'
            )
    return "".join(Document(width, height, "Heatmap of standardized indicators", lambda: body))


def oracle_parallel_coordinates_svg(z_values, indicator_labels, assignment, row_order) -> str:
    """parallel_coordinates_svg as it was drawn one point at a time."""
    n, p = z_values.shape
    width, height = 900, 480
    left, right, top, bottom = 60, 860, 50, 360
    x_of = _scale(0, max(p - 1, 1), left, right)
    lo = float(z_values.min())
    hi = float(z_values.max())
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    y_of = _scale(lo - pad, hi + pad, bottom, top)
    body = []
    for tick in _nice_ticks(lo, hi, 6):
        body.append(_line(left, y_of(tick), right, y_of(tick), "#eeeeee"))
        body.append(_text(left - 8, y_of(tick) + 4, f"{tick:g}", 10, "end"))
    for j, label in enumerate(indicator_labels):
        body.append(_line(x_of(j), top, x_of(j), bottom, "#cccccc"))
        body.append(_text(
            x_of(j), bottom + 12, label, 8, "end",
            extra=f' transform="rotate(-55 {x_of(j):.2f} {bottom + 12:.2f})"',
        ))
    for i in row_order:
        color = cluster_color(assignment[i])
        points = " ".join(f"{x_of(j):.2f},{y_of(z_values[i, j]):.2f}" for j in range(p))
        body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'stroke-opacity="0.55" points="{points}"/>'
        )
    for cluster_id in sorted(set(assignment)):
        y = top + 14 * cluster_id
        body.append(_line(width - 120, y, width - 96, y, cluster_color(cluster_id), 3))
        body.append(_text(width - 90, y + 4, f"cluster {cluster_id}", 10, "start"))
    body.append(_text(18, (top + bottom) / 2, "z-score", 11,
                      extra=f' transform="rotate(-90 18 {(top + bottom) / 2:.2f})"'))
    return "".join(Document(width, height, "Parallel coordinates", lambda: body))


def oracle_biplot_svg(score_xy, score_clusters, arrow_xy, arrow_labels, axis_names) -> str:
    """biplot_svg as it was drawn with one f-string per score point."""
    width, height = 720, 720
    left, right, top, bottom = 70, 670, 60, 660
    extent = max(float(np.abs(score_xy).max()), float(np.abs(arrow_xy).max()), 1e-9) * 1.1
    x_of = _scale(-extent, extent, left, right)
    y_of = _scale(-extent, extent, bottom, top)
    cx, cy = x_of(0.0), y_of(0.0)
    body = [_line(left, cy, right, cy, "#999999"), _line(cx, top, cx, bottom, "#999999")]
    for (x, y), cluster_id in zip(score_xy, score_clusters):
        body.append(f'<circle cx="{x_of(float(x)):.2f}" cy="{y_of(float(y)):.2f}" r="3" '
                    f'fill="{cluster_color(cluster_id)}" fill-opacity="0.75"/>')
    for (x, y), label in zip(arrow_xy, arrow_labels):
        tip_x, tip_y = x_of(float(x)), y_of(float(y))
        body.append(_line(cx, cy, tip_x, tip_y, "#333333", 1.2))
        angle = math.atan2(tip_y - cy, tip_x - cx)
        for side in (angle + 2.6, angle - 2.6):
            body.append(_line(tip_x, tip_y, tip_x + 7 * math.cos(side),
                              tip_y + 7 * math.sin(side), "#333333", 1.2))
        body.append(_text(tip_x + 6, tip_y - 5, label, 8, "start"))
    body.append(_text((left + right) / 2, height - 14, axis_names[0], 11))
    body.append(_text(20, (top + bottom) / 2, axis_names[1], 11,
                      extra=f' transform="rotate(-90 20 {(top + bottom) / 2:.2f})"'))
    return "".join(Document(width, height, "Biplot", lambda: body))


def drawn(*panels):
    """(title, dendrogram, labels) panels as dendrograms_svg takes them, each
    with its leaf order."""
    return [(title, dend, dend.leaf_order(), labels) for title, dend, labels in panels]


def numbered(dend) -> tuple[str, ...]:
    """Leaf labels "0", "1", ... for a dendrogram built without a table."""
    return tuple(map(str, range(dend.n_leaves)))


def oracle_dendrograms_svg(panels) -> str:
    """dendrograms_svg as it was drawn with three _line calls per merge, from
    node coordinates kept in a dict by node id."""
    panel_w = 520.0
    width = int(40 + max(len(panels), 1) * (panel_w + 40))
    top, bottom = 70, 430
    body = []
    for idx, (panel_title, dend, labels) in enumerate(panels):
        x0 = 40 + idx * (panel_w + 40)
        n = dend.n_leaves
        slot = {leaf: pos for pos, leaf in enumerate(dend.leaf_order())}
        gap = panel_w / max(n, 1)
        coords = {-(leaf + 1): (x0 + (slot[leaf] + 0.5) * gap, bottom) for leaf in range(n)}
        merges = dend.merges.tolist()
        max_h = max((height for _, _, height, _ in merges), default=1.0) or 1.0
        y_of = _scale(0.0, max_h * 1.05, bottom, top)
        body.append(_text(x0 + panel_w / 2, top - 12, panel_title, 12))
        for step, (left, right, height, _) in enumerate(merges, start=1):
            (lx, ly), (rx, ry) = coords[int(left)], coords[int(right)]
            h = y_of(height)
            body.append(_line(lx, ly, lx, h, "#333333"))
            body.append(_line(rx, ry, rx, h, "#333333"))
            body.append(_line(lx, h, rx, h, "#333333"))
            coords[step] = ((lx + rx) / 2.0, h)
        if n <= 40:
            for leaf in range(n):
                x = coords[-(leaf + 1)][0]
                body.append(_text(x, bottom + 10, labels[leaf], 7, "end",
                                  extra=f' transform="rotate(-60 {x:.2f} {bottom + 10:.2f})"'))
    return "".join(Document(width, 520, "Hierarchical clustering", lambda: body))


def seeded_grid(seed: int, n: int, p: int) -> np.ndarray:
    """Normal z-scores plus signed zeros, the clip edges, cells past them,
    and +-1.5, where channels land on .5 and rounding decides."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p)) * 1.5
    specials = [0.0, -0.0, 3.0, -3.0, 4.5, -7.25, 1.5, -1.5]
    cells = rng.choice(n * p, size=5 * len(specials), replace=False)
    z.flat[cells] = np.repeat(specials, 5)
    return z


def assert_well_formed(svg: str) -> None:
    xml.dom.minidom.parseString(svg)
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg


class TestScree:
    def test_structure(self):
        svg = "".join(scree_svg([4.0, 2.0, 1.0, 0.5]))
        assert_well_formed(svg)
        assert "Scree plot" in svg
        assert "eigenvalue = 1" in svg
        assert svg.count("<circle") == 4

    def test_deterministic(self):
        values = [3.0, 1.5, 0.5]
        assert "".join(scree_svg(values)) == "".join(scree_svg(values))

    def test_document_renders_afresh_on_each_iteration(self):
        doc = scree_svg([3.0, 1.5, 0.5])
        text = "".join(doc)
        assert "".join(doc) == text
        assert doc.encode("utf-8") == text.encode("utf-8")


class TestParallelCoordinates:
    def test_one_polyline_per_region(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 4))
        svg = "".join(parallel_coordinates_svg(z, ["a", "b", "c", "d"], [1, 1, 2, 2, 3, 3],
                                               range(6)))
        assert_well_formed(svg)
        assert svg.count("<polyline") == 6
        assert "cluster 1" in svg and "cluster 3" in svg

    def test_single_cluster_uses_one_color(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((5, 3))
        svg = "".join(parallel_coordinates_svg(z, ["a", "b", "c"], [1] * 5, range(5)))
        strokes = set(re.findall(r'<polyline[^>]*stroke="(#\w+)"', svg))
        assert strokes == {PALETTE[0]}


class TestHeatmap:
    def test_cell_count_and_row_order(self):
        z = np.array([[0.0, 1.0], [2.0, -2.0], [1.0, 1.0]])
        svg = "".join(heatmap_svg(z, ["r1", "r2", "r3"], ["a", "b"], [2, 0, 1]))
        assert_well_formed(svg)
        assert svg.count("<rect") == 1 + 6  # background + cells
        # first row label drawn is the first in leaf order
        labels = re.findall(r">([^<]+)</text>", svg)
        assert labels.index("r3") < labels.index("r1") < labels.index("r2")

    def test_diverging_scale_endpoints(self):
        assert diverging_colors(np.array([0.0, 1.0, -1.0, 9.0])).tolist() == [
            "#ffffff", "#b2182b", "#2166ac", "#b2182b",  # 9 is clipped
        ]

    def test_half_channels_round_to_even(self):
        # -0.5: 102 + 153 / 2 = 178.5 -> 178 (b2), 172 + 83 / 2 = 213.5 -> 214 (d6)
        # +0.5: 178 + 77 / 2 = 216.5 -> 216 (d8), 24 + 231 / 2 = 139.5 -> 140 (8c)
        assert diverging_colors(np.array([-0.5, 0.5])).tolist() == ["#90b2d6", "#d88c95"]


@pytest.mark.parametrize("seed, n, p", [(81, 40, 120), (83, 300, 19)])
class TestRowBlocksMatchPerCellOracle:
    def test_heatmap_bytes(self, seed, n, p):
        z = seeded_grid(seed, n, p)
        order = list(np.random.default_rng(seed).permutation(n))
        regions = [f"R{i}" for i in range(n)]
        indicators = [f"V{j}" for j in range(p)]
        assert "".join(heatmap_svg(z, regions, indicators, order)) == \
            oracle_heatmap_svg(z, regions, indicators, order)

    def test_parallel_coordinates_bytes(self, seed, n, p):
        z = seeded_grid(seed, n, p)
        rng = np.random.default_rng(seed)
        order = list(rng.permutation(n))
        assignment = [int(c) for c in rng.integers(1, 6, n)]
        indicators = [f"V{j}" for j in range(p)]
        assert "".join(parallel_coordinates_svg(z, indicators, assignment, order)) == \
            oracle_parallel_coordinates_svg(z, indicators, assignment, order)


def test_3000_by_19_figures_within_budget():
    z = np.random.default_rng(89).standard_normal((3000, 19))
    order = list(range(3000))
    regions = [f"R{i}" for i in range(3000)]
    indicators = [f"V{j}" for j in range(19)]
    start = time.perf_counter()
    "".join(heatmap_svg(z, regions, indicators, order))
    "".join(parallel_coordinates_svg(z, indicators, [1 + i % 4 for i in range(3000)], order))
    assert time.perf_counter() - start < RENDER_3000_BUDGET_S


class TestLoadings:
    def test_labels_present(self):
        entries = np.array([[0.9, 0.1], [-0.4, 0.6]])
        svg = "".join(loadings_svg(entries, ["alpha", "beta"], ("f1", "f2")))
        assert_well_formed(svg)
        assert "alpha" in svg and "beta" in svg
        assert svg.count("<circle") == 3  # unit circle + 2 points


class TestBiplot:
    def test_arrow_direction_matches_loading_angle(self):
        scores = np.array([[1.0, 1.0], [-1.0, -1.0]])
        arrows = np.array([[0.336, 0.163]])
        svg = "".join(biplot_svg(scores, [1, 2], arrows, ["GRP"], ("f1", "f2")))
        assert_well_formed(svg)
        lines = re.findall(
            r'<line x1="([\d.-]+)" y1="([\d.-]+)" x2="([\d.-]+)" y2="([\d.-]+)" '
            r'stroke="#333333" stroke-width="1.2"/>',
            svg,
        )
        x1, y1, x2, y2 = map(float, lines[0])
        drawn = math.atan2(y1 - y2, x2 - x1)  # svg y grows downward
        assert drawn == pytest.approx(math.atan2(0.163, 0.336), abs=1e-3)

    @pytest.mark.parametrize("seed, n", [(101, 5), (103, 400)])
    def test_bytes_match_per_point_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((n, 2)) * 3.0
        scores[: n // 5] = 0.0  # points on the axes' crossing, as signed zeros too
        scores[1, 0] = -0.0
        clusters = [int(c) for c in rng.integers(1, 11, n)]
        arrows = rng.standard_normal((4, 2))
        labels = [f"V{j}" for j in range(4)]
        assert "".join(biplot_svg(scores, clusters, arrows, labels, ("f1", "f2"))) == \
            oracle_biplot_svg(scores, clusters, arrows, labels, ("f1", "f2"))

    def test_points_colored_by_cluster(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        svg = "".join(biplot_svg(scores, [1, 2, 2], np.array([[0.5, 0.5]]), ["v"], ("f1", "f2")))
        assert svg.count(cluster_color(2)) == 2


class TestLabelsXmlForbids:
    # a vertical tab, a C0 control, and a noncharacter beside the escaped
    # markup characters and the controls XML allows
    REGIONS = ["North\x0bWest", "R<2>", "R3", "R4"]
    INDICATORS = ["GRP\x01 & \"x\"", "tab\there", "V\ufffe\uffff"]

    def test_every_labeled_figure_is_well_formed(self):
        rng = np.random.default_rng(97)
        z = rng.standard_normal((4, 3))
        pair = rng.standard_normal((4, 2))
        dend = complete_linkage(euclidean_distances(z))
        figures = [
            parallel_coordinates_svg(z, self.INDICATORS, [1, 1, 2, 2], range(4)),
            heatmap_svg(z, self.REGIONS, self.INDICATORS, range(4)),
            loadings_svg(pair[:3], self.INDICATORS, ("f\x1f1", "f2")),
            biplot_svg(pair, [1, 1, 2, 2], pair[:3], self.INDICATORS, ("f1", "f2")),
            dendrograms_svg(drawn(("initial\x0cvariables", dend, self.REGIONS))),
        ]
        for figure in figures:
            svg = "".join(figure)
            assert_well_formed(svg)
            texts = {node.firstChild.data
                     for node in xml.dom.minidom.parseString(svg).getElementsByTagName("text")
                     if node.firstChild is not None}
            assert not any(ch in text for text in texts for ch in "\x0b\x01\x1f\x0c\ufffe\uffff")
        assert {"North\ufffdWest", "R<2>"} <= texts  # the dendrogram's leaf labels
        assert "tab\there" in "".join(figures[1])


class TestDendrograms:
    def test_two_panels(self):
        left = complete_linkage(euclidean_distances([[0.0], [1.0], [5.0]]))
        right = complete_linkage(euclidean_distances([[0.0], [4.0], [5.0]]))
        panels = drawn(("initial variables", left, numbered(left)),
                       ("component scores", right, numbered(right)))
        svg = "".join(dendrograms_svg(panels))
        assert_well_formed(svg)
        assert "initial variables" in svg
        assert "component scores" in svg
        # each merge draws three segments; 2 merges per panel, 2 panels
        assert svg.count('stroke="#333333"') == 12

    @pytest.mark.parametrize("seed, sizes", [
        (107, (12,)), (109, (40,)), (113, (41,)), (127, (150,)),
        (131, (40, 41)), (137, (7, 90)),
    ])
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_bytes_match_per_merge_oracle(self, seed, sizes, duplicates):
        rng = np.random.default_rng(seed)
        panels = []
        for size in sizes:
            points = rng.standard_normal((size, 3))
            if duplicates:
                # repeated rows merge at height 0, and so can whole clusters of them
                points[size // 2:] = points[rng.integers(0, size // 2, size - size // 2)]
            labels = tuple(f"R{i}" for i in range(size))
            panels.append((f"panel {size}", complete_linkage(euclidean_distances(points)), labels))
        if duplicates:
            assert any((dend.merges[:, 2] == 0.0).any() for _, dend, _ in panels)
        assert "".join(dendrograms_svg(drawn(*panels))) == oracle_dendrograms_svg(panels)

    def test_bytes_match_per_merge_oracle_when_every_height_is_zero(self):
        dend = complete_linkage(euclidean_distances(np.ones((6, 2))))
        panel = [("flat", dend, numbered(dend))]
        assert "".join(dendrograms_svg(drawn(*panel))) == oracle_dendrograms_svg(panel)

    def test_leaf_labels_when_few(self):
        dend = complete_linkage(euclidean_distances([[0.0], [1.0], [5.0]]))
        labels = numbered(dend)
        svg = "".join(dendrograms_svg(drawn(("initial variables", dend, labels))))
        for label in labels:
            assert f">{label}</text>" in svg


class TestLabelsAreNeverFormatted:
    # printf-style directives that a % template would consume or reject
    REGIONS = ["R %", "R %s", "R %(x)s", "R %%", "R 100%"]
    INDICATORS = ["Industrial producer price index, %", "%s share", "%(x)s", "%%", "%d%.2f"]
    AXES = ("PC1 %s", "PC2 %(x)s")
    TITLES = ("initial %%", "component %s")

    def figures(self):
        rng = np.random.default_rng(139)
        z = rng.standard_normal((5, 5))
        pair = rng.standard_normal((5, 2))
        dend = complete_linkage(euclidean_distances(z))
        return {
            "parallel": parallel_coordinates_svg(z, self.INDICATORS, [1, 2, 2, 3, 1], range(5)),
            "heatmap": heatmap_svg(z, self.REGIONS, self.INDICATORS, range(5)),
            "loadings": loadings_svg(pair, self.INDICATORS, self.AXES),
            "biplot": biplot_svg(pair, [1, 1, 2, 2, 3], pair, self.INDICATORS, self.AXES),
            "dendrograms": dendrograms_svg(drawn((self.TITLES[0], dend, self.REGIONS),
                                                 (self.TITLES[1], dend, self.REGIONS))),
        }

    def test_labels_come_out_literally(self):
        expected = {
            "parallel": self.INDICATORS,
            "heatmap": self.REGIONS + self.INDICATORS,
            "loadings": self.INDICATORS + list(self.AXES),
            "biplot": self.INDICATORS + list(self.AXES),
            "dendrograms": self.REGIONS + list(self.TITLES),
        }
        for name, figure in self.figures().items():
            svg = "".join(figure)
            assert_well_formed(svg)
            texts = [node.firstChild.data
                     for node in xml.dom.minidom.parseString(svg).getElementsByTagName("text")]
            for label in expected[name]:
                assert texts.count(label) == (2 if name == "dendrograms" and label in self.REGIONS
                                              else 1), (name, label)
