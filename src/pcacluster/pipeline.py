"""End-to-end pipeline: ingest, PCA, clustering, concordance, profiles, plots.

Every run writes a fixed artifact set (a function of the configuration
only) plus manifest.txt listing each file with its SHA-256 checksum.
Identical configuration and input produce byte-identical artifacts, so
manifests can be diffed across runs. A rerun into the same directory
first deletes what the earlier manifest lists and still matches, so the
directory holds the files its manifest names and whatever else was there.
"""

from __future__ import annotations

import hashlib
import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .concordance import Counts, adjusted_rand_index, contingency, rand_index
from .config import PipelineConfig
from .errors import PcaClusterError, ValidationError
from .hclust import Dendrogram, Partition, check_points, complete_linkage, cluster_variables, cut, euclidean_distances
from .ingest import IndicatorTable, impute_means, load_table, standardize, write_table
from .pca import PcaModel, coefficients, component_names, fit_pca, loadings, scores, select_components, write_variance_table
from .profiles import STATISTICS, format_profile_table, profile
from .synth import generate_synthetic
from .tables import (format_float, format_run, labeled_rows, open_rows, write_labeled_matrix,
                     write_rows)
from . import svgplot

logger = logging.getLogger(__name__)

_MERGE_HEADER = ["step", "left", "right", "height", "size"]

# text artifacts are buffered, and files hashed, this many bytes at a time
_CHUNK = 1 << 16

# every path a run writes under its output directory, manifest.txt aside
_ARTIFACT_PATH = re.compile(
    r"(synthetic_table|variance_table|coefficients|loadings|scores|profiles|partition_truth"
    r"|(dendrogram|partition)_(raw|components|variables))\.csv|concordance\.txt"
    r"|profiles/cluster_[1-9][0-9]*\.csv"
    r"|plots/(scree|parallel_coordinates|heatmap|loadings|biplot|dendrograms)\.(csv|svg)")


@dataclass(frozen=True, eq=False)
class RunArtifacts:
    """Everything a pipeline run produced, for callers and tests."""

    output_dir: Path
    manifest_path: Path
    files: tuple[str, ...]  # relative paths, sorted
    model: PcaModel
    partitions: dict[str, Partition]  # keys among: raw, components, variables, truth
    concordance_stats: dict[str, float]


class _Sink:
    """The one writer of artifacts under an output directory.

    Records every relative path it hands out or writes, so the manifest
    is the summary of what was written.
    """

    def __init__(self, out: Path) -> None:
        self.out = out
        self.written: list[str] = []

    def path(self, rel: str) -> Path:
        """Record rel and return its path, parent directories created.

        The first call clears what an earlier run left, so a run that fails
        before its first artifact creates no directory and changes nothing.
        """
        if not self.written:
            self._clear_earlier_run()
        self.written.append(rel)
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def _clear_earlier_run(self) -> None:
        """Remove an earlier run's manifest.txt, then each file it lists that
        a run writes (_ARTIFACT_PATH) and that still has its listed SHA-256.

        With the manifest gone first, a run or a cleanup that stops part-way
        leaves no manifest that disagrees with the files. An edited
        artifact, and a file that pcacluster does not write (or that lies
        outside the directory), stay where they are.
        """
        manifest = self.out / "manifest.txt"
        try:
            listed = manifest.read_text(encoding="utf-8", errors="replace").splitlines()
        except FileNotFoundError:
            return
        manifest.unlink()
        for line in listed:
            digest, _, rel = line.partition("  ")
            path = self.out / rel
            if _ARTIFACT_PATH.fullmatch(rel) and path.is_file() and _sha256(path) == digest:
                path.unlink()

    def text(self, rel: str, lines: Iterable[str]) -> None:
        """Write lines, each ending in "\n", as they come."""
        _write_lines(self.path(rel), lines)

    def rows(self, rel: str, header, rows) -> None:
        write_rows(self.path(rel), header, rows)

    def partition(self, rel: str, labels, part: Partition, item_header: str = "region") -> None:
        self.rows(rel, [item_header, "cluster"],
                  ([label, str(c)] for label, c in zip(labels, part.assignment)))

    def plot(self, name: str, svg: Iterable[str], header, rows) -> None:
        """A figure and the CSV twin of its plotted values, rows as labeled_rows yields."""
        self.text(f"plots/{name}.svg", svg)
        write_labeled_matrix(self.path(f"plots/{name}.csv"), header, rows)

    def manifest(self) -> tuple[Path, tuple[str, ...]]:
        """Write manifest.txt from the files as read back; return it and the sorted paths."""
        files = tuple(sorted(self.written))
        lines = [f"{_sha256(self.out / rel)}  {rel}\n" for rel in files]
        path = self.out / "manifest.txt"
        _write_lines(path, lines)
        return path, files


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with path.open("w", buffering=_CHUNK, encoding="utf-8", newline="\n") as handle:
        handle.writelines(lines)


def _sha256(path: Path) -> str:
    """The file's SHA-256, read _CHUNK bytes at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while chunk := handle.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def _stage(name: str):
    logger.info("stage %s", name)
    try:
        yield
    except PcaClusterError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _merge_rows(dend: Dendrogram):
    for step, (left, right, height, size) in enumerate(dend.merges.tolist(), start=1):
        yield [str(step), str(int(left)), str(int(right)), format_float(height), str(int(size))]


def _contingency_lines(counts: Counts, stats: dict[str, float]) -> Iterator[str]:
    yield "contingency rows=raw columns=components\n"
    yield ",".join([""] + [f"c{j + 1}" for j in range(len(counts[0]))]) + "\n"
    for i, row in enumerate(counts, start=1):
        yield ",".join([f"r{i}"] + [str(v) for v in row]) + "\n"
    figures = [f"{key}={format_float(value)}" for key, value in stats.items()]
    yield " ".join(figures[:2]) + "\n"  # rand and ari share a line
    yield from (f"{figure}\n" for figure in figures[2:])


def run_pipeline(config: PipelineConfig) -> RunArtifacts:
    sink = _Sink(config.output_dir)

    truth: Partition | None = None
    with _stage("load"):
        if config.synthetic is not None:
            raw_table, truth = generate_synthetic(config.synthetic)
        else:
            raw_table = load_table(config.input_path, config.parse_options)
        # checked before the first artifact: a config the table cannot take changes nothing
        n, p = raw_table.n_regions, raw_table.n_indicators
        check_points(n, "regions")
        if config.k_regions > n:
            raise ValidationError(f"k_regions={config.k_regions} exceeds region count {n}")
        if config.k_vars > p:
            raise ValidationError(f"k_vars={config.k_vars} exceeds indicator count {p}")
        if truth is not None:
            write_table(raw_table, sink.path("synthetic_table.csv"))
            sink.partition("partition_truth.csv", raw_table.region_labels, truth)

    with _stage("impute"):
        imputed = impute_means(raw_table)
    with _stage("standardize"):
        table = standardize(imputed)

    with _stage("pca"):
        model = fit_pca(table)
        model = model.with_components(select_components(model, config.component_rule))
        names = config.component_labels
        if names is None:
            names = component_names(model.k)
        if len(names) != model.k:
            raise ValidationError(
                f"{len(names)} component labels given but {model.k} components retained"
            )
        score = scores(model, table)
        write_variance_table(model, sink.path("variance_table.csv"))
        for rel, matrix, row_header, row_labels in (
            ("coefficients.csv", coefficients(model), "indicator", model.indicator_labels),
            ("loadings.csv", loadings(model), "indicator", model.indicator_labels),
            ("scores.csv", score, "region", table.region_labels),
        ):
            write_labeled_matrix(sink.path(rel), [row_header, *names],
                                 labeled_rows(row_labels, matrix))

    dendrograms: dict[str, Dendrogram] = {}
    partitions: dict[str, Partition] = {}
    with _stage("cluster-regions"):
        for space in ("raw", "components"):
            if config.cluster_space not in (space, "both"):
                continue
            points = table.values if space == "raw" else score
            dend = complete_linkage(euclidean_distances(points, table.region_labels))
            dendrograms[space] = dend
            partitions[space] = cut(dend, config.k_regions)
            sink.rows(f"dendrogram_{space}.csv", _MERGE_HEADER, _merge_rows(dend))
            sink.partition(f"partition_{space}.csv", table.region_labels, partitions[space])

    with _stage("cluster-variables"):
        var_dend = cluster_variables(table)
        partitions["variables"] = cut(var_dend, config.k_vars)
        sink.rows("dendrogram_variables.csv", _MERGE_HEADER, _merge_rows(var_dend))
        sink.partition("partition_variables.csv", table.indicator_labels,
                       partitions["variables"], "indicator")

    concordance_stats: dict[str, float] = {}
    if truth is not None:
        partitions["truth"] = truth
    with _stage("concordance"):
        if "raw" in partitions and "components" in partitions:
            raw, comp = partitions["raw"], partitions["components"]
            concordance_stats = {"rand": rand_index(raw, comp),
                                 "ari": adjusted_rand_index(raw, comp)}
            if truth is not None:
                concordance_stats["ari_raw_truth"] = adjusted_rand_index(raw, truth)
                concordance_stats["ari_components_truth"] = adjusted_rand_index(comp, truth)
            sink.text("concordance.txt",
                      _contingency_lines(contingency(raw, comp), concordance_stats))

    final_partition = partitions["components" if "components" in partitions else "raw"]
    with _stage("profile"):
        grid = profile(imputed, final_partition)
        labels = imputed.indicator_labels
        write_labeled_matrix(
            sink.path("profiles.csv"), ["cluster", "indicator", *STATISTICS],
            chain.from_iterable(labeled_rows(labels, block, str(cluster_id))
                                for cluster_id, block in enumerate(grid, start=1)),
        )
        for cluster_id, block in enumerate(grid, start=1):
            header, *table_rows = format_profile_table(block, labels)
            sink.rows(f"profiles/cluster_{cluster_id}.csv", header, table_rows)

    with _stage("plots"):
        emit_plots(sink, table, model, dendrograms, final_partition, names)

    with _stage("manifest"):
        manifest_path, files = sink.manifest()

    return RunArtifacts(
        output_dir=sink.out,
        manifest_path=manifest_path,
        files=files,
        model=model,
        partitions=partitions,
        concordance_stats=concordance_stats,
    )


def emit_plots(sink: _Sink, table: IndicatorTable, model: PcaModel,
               dendrograms: dict[str, Dendrogram], final_partition: Partition,
               names: tuple[str, ...]) -> None:
    """The six figures under plots/, each with its CSV twin."""
    final_space = "components" if "components" in dendrograms else "raw"
    leaf_order = dendrograms[final_space].leaf_order()
    assignment = final_partition.assignment
    values, regions, indicators = table.values, table.region_labels, table.indicator_labels

    eigenvalues = model.eigen.eigenvalues
    sink.plot("scree", svgplot.scree_svg(eigenvalues), ["dimension", "eigenvalue"],
              labeled_rows([str(i + 1) for i in range(eigenvalues.size)], eigenvalues[:, None]))
    sink.text("plots/parallel_coordinates.svg",
              svgplot.parallel_coordinates_svg(values, indicators, assignment, leaf_order))
    sink.text("plots/heatmap.svg", svgplot.heatmap_svg(values, regions, indicators, leaf_order))
    # both twins hold the leaf-ordered z-scores: each row is formatted
    # once and written to both, one row of text held at a time
    with open_rows(sink.path("plots/heatmap.csv"), ["region", *indicators]) as heatmap, \
            open_rows(sink.path("plots/parallel_coordinates.csv"),
                      ["region", "cluster", *indicators]) as parallel:
        for i in leaf_order:
            run = format_run(values[i])
            heatmap.row((regions[i],), run)
            parallel.row((regions[i], str(assignment[i])), run)

    # both scatter figures plot the first two axes, even when only one component
    # was retained. The product keeps the retained width, so its first two
    # columns are scores.csv's; a 2-wide product differs in the last digits
    plot_model = model.with_components(max(model.k, 2))
    plot_loadings = loadings(plot_model)[:, :2]
    plot_scores = scores(plot_model, table)[:, :2]
    axis_names = (*names, "f2")[:2]
    sink.plot("loadings", svgplot.loadings_svg(plot_loadings, indicators, axis_names),
              ["indicator", *axis_names], labeled_rows(indicators, plot_loadings))

    # arrows scaled so loadings and scores share the frame
    max_load = float(np.abs(plot_loadings).max())
    max_score = float(np.abs(plot_scores).max())
    arrows = plot_loadings * ((max_score / max_load) if max_load > 0 else 1.0)
    sink.plot("biplot",
              svgplot.biplot_svg(plot_scores, assignment, arrows, indicators, axis_names),
              ["kind", "label", "x", "y"],
              chain(labeled_rows(regions, plot_scores, "score"),
                    labeled_rows(indicators, arrows, "loading_arrow")))

    titles = {"raw": "initial variables", "components": "component scores"}
    panels = [(titles[space], dend) for space, dend in dendrograms.items()]
    sink.text("plots/dendrograms.svg", svgplot.dendrograms_svg(panels))
    sink.rows("plots/dendrograms.csv", ["panel", *_MERGE_HEADER],
              ([title, *row] for title, dend in panels for row in _merge_rows(dend)))
