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
    _document,
    _line,
    _nice_ticks,
    _scale,
    _text,
    _tick_label,
    biplot_svg,
    cluster_color,
    dendrograms_svg,
    diverging_colors,
    heatmap_svg,
    loadings_svg,
    parallel_coordinates_svg,
    scree_svg,
)

# both n x p figures at 3000 x 19 take 0.07-0.13 s on a 2-core host, and
# 0.34-0.55 s when every cell goes through a Python colour or coordinate call;
# the budget leaves about twice the measured time for host drift
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
    body = [_text(width / 2, 28, "Heatmap of standardized indicators", 16)]
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
    return _document(width, height, body)


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
    body = [_text(width / 2, 28, "Parallel coordinates", 16)]
    for tick in _nice_ticks(lo, hi, 6):
        body.append(_line(left, y_of(tick), right, y_of(tick), "#eeeeee"))
        body.append(_text(left - 8, y_of(tick) + 4, _tick_label(tick), 10, "end"))
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
    return _document(width, height, body)


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
        svg = scree_svg([4.0, 2.0, 1.0, 0.5])
        assert_well_formed(svg)
        assert "Scree plot" in svg
        assert "eigenvalue = 1" in svg
        assert svg.count("<circle") == 4

    def test_deterministic(self):
        values = [3.0, 1.5, 0.5]
        assert scree_svg(values) == scree_svg(values)


class TestParallelCoordinates:
    def test_one_polyline_per_region(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 4))
        svg = parallel_coordinates_svg(z, ["a", "b", "c", "d"], [1, 1, 2, 2, 3, 3], range(6))
        assert_well_formed(svg)
        assert svg.count("<polyline") == 6
        assert "cluster 1" in svg and "cluster 3" in svg

    def test_single_cluster_uses_one_color(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((5, 3))
        svg = parallel_coordinates_svg(z, ["a", "b", "c"], [1] * 5, range(5))
        strokes = set(re.findall(r'<polyline[^>]*stroke="(#\w+)"', svg))
        assert strokes == {PALETTE[0]}


class TestHeatmap:
    def test_cell_count_and_row_order(self):
        z = np.array([[0.0, 1.0], [2.0, -2.0], [1.0, 1.0]])
        svg = heatmap_svg(z, ["r1", "r2", "r3"], ["a", "b"], [2, 0, 1])
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
        assert heatmap_svg(z, regions, indicators, order) == \
            oracle_heatmap_svg(z, regions, indicators, order)

    def test_parallel_coordinates_bytes(self, seed, n, p):
        z = seeded_grid(seed, n, p)
        rng = np.random.default_rng(seed)
        order = list(rng.permutation(n))
        assignment = [int(c) for c in rng.integers(1, 6, n)]
        indicators = [f"V{j}" for j in range(p)]
        assert parallel_coordinates_svg(z, indicators, assignment, order) == \
            oracle_parallel_coordinates_svg(z, indicators, assignment, order)


def test_3000_by_19_figures_within_budget():
    z = np.random.default_rng(89).standard_normal((3000, 19))
    order = list(range(3000))
    regions = [f"R{i}" for i in range(3000)]
    indicators = [f"V{j}" for j in range(19)]
    start = time.perf_counter()
    heatmap_svg(z, regions, indicators, order)
    parallel_coordinates_svg(z, indicators, [1 + i % 4 for i in range(3000)], order)
    assert time.perf_counter() - start < RENDER_3000_BUDGET_S


class TestLoadings:
    def test_labels_present(self):
        entries = np.array([[0.9, 0.1], [-0.4, 0.6]])
        svg = loadings_svg(entries, ["alpha", "beta"], ("f1", "f2"))
        assert_well_formed(svg)
        assert "alpha" in svg and "beta" in svg
        assert svg.count("<circle") == 3  # unit circle + 2 points


class TestBiplot:
    def test_arrow_direction_matches_loading_angle(self):
        scores = np.array([[1.0, 1.0], [-1.0, -1.0]])
        arrows = np.array([[0.336, 0.163]])
        svg = biplot_svg(scores, [1, 2], arrows, ["GRP"], ("f1", "f2"))
        assert_well_formed(svg)
        lines = re.findall(
            r'<line x1="([\d.-]+)" y1="([\d.-]+)" x2="([\d.-]+)" y2="([\d.-]+)" '
            r'stroke="#333333" stroke-width="1.2"/>',
            svg,
        )
        x1, y1, x2, y2 = map(float, lines[0])
        drawn = math.atan2(y1 - y2, x2 - x1)  # svg y grows downward
        assert drawn == pytest.approx(math.atan2(0.163, 0.336), abs=1e-3)

    def test_points_colored_by_cluster(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        svg = biplot_svg(scores, [1, 2, 2], np.array([[0.5, 0.5]]), ["v"], ("f1", "f2"))
        assert svg.count(cluster_color(2)) == 2


class TestDendrograms:
    def test_two_panels(self):
        left = complete_linkage(euclidean_distances([[0.0], [1.0], [5.0]]))
        right = complete_linkage(euclidean_distances([[0.0], [4.0], [5.0]]))
        svg = dendrograms_svg([("initial variables", left), ("component scores", right)])
        assert_well_formed(svg)
        assert "initial variables" in svg
        assert "component scores" in svg
        # each merge draws three segments; 2 merges per panel, 2 panels
        assert svg.count('stroke="#333333"') == 12

    def test_leaf_labels_when_few(self):
        dend = complete_linkage(euclidean_distances([[0.0], [1.0], [5.0]]))
        svg = dendrograms_svg([("initial variables", dend)])
        for label in dend.labels:
            assert f">{label}</text>" in svg
