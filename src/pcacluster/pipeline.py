"""End-to-end pipeline: ingest, PCA, clustering, concordance, profiles, plots.

Every run writes a fixed artifact set (a function of the configuration
only) plus manifest.txt listing each file with its SHA-256 checksum.
Identical configuration and input produce byte-identical artifacts, so
manifests can be diffed across runs.
"""

from __future__ import annotations

import hashlib
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concordance import ContingencyTable, adjusted_rand_index, contingency, rand_index
from .config import PipelineConfig
from .errors import PcaClusterError, ValidationError
from .hclust import Dendrogram, Partition, complete_linkage, cluster_variables, cut, euclidean_distances
from .ingest import IndicatorTable, impute_means, load_table, standardize, write_table
from .pca import PcaModel, coefficients, component_names, fit_pca, loadings, scores, select_components, write_variance_table
from .profiles import format_profile_table, profile
from .synth import generate_synthetic
from .tables import format_float, write_labeled_matrix, write_rows
from . import svgplot

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class RunArtifacts:
    """Everything a pipeline run produced, for callers and tests."""

    output_dir: Path
    manifest_path: Path
    files: tuple[str, ...]  # relative paths, sorted
    model: PcaModel
    partitions: dict[str, Partition]  # keys among: raw, components, variables, truth
    concordance_stats: dict[str, float]


@contextmanager
def _stage(name: str):
    logger.info("stage %s", name)
    try:
        yield
    except PcaClusterError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_dendrogram(path: Path, dend: Dendrogram) -> None:
    rows = (
        [str(step), str(m.left), str(m.right), format_float(m.height), str(m.size)]
        for step, m in enumerate(dend.merges, start=1)
    )
    write_rows(path, ["step", "left", "right", "height", "size"], rows)


def _write_partition(path: Path, labels, part: Partition, item_header: str) -> None:
    rows = ([label, str(c)] for label, c in zip(labels, part.assignment))
    write_rows(path, [item_header, "cluster"], rows)


def _contingency_text(table: ContingencyTable, rand: float, ari: float,
                      extra: dict[str, float]) -> str:
    lines = ["contingency rows=raw columns=components"]
    lines.append(",".join([""] + [f"c{j + 1}" for j in range(len(table.counts[0]))]))
    for i, row in enumerate(table.counts, start=1):
        lines.append(",".join([f"r{i}"] + [str(v) for v in row]))
    lines.append(f"rand={format_float(rand)} ari={format_float(ari)}")
    for key, value in extra.items():
        lines.append(f"{key}={format_float(value)}")
    return "\n".join(lines) + "\n"


def run_pipeline(config: PipelineConfig) -> RunArtifacts:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def emit_rows(rel: str, header, rows) -> None:
        write_rows(out / rel, header, rows)
        written.append(rel)

    def emit_text(rel: str, text: str) -> None:
        _write_text(out / rel, text)
        written.append(rel)

    truth: Partition | None = None
    with _stage("load"):
        if config.synthetic is not None:
            raw_table, truth = generate_synthetic(config.synthetic)
            write_table(raw_table, out / "synthetic_table.csv")
            written.append("synthetic_table.csv")
        else:
            raw_table = load_table(config.input_path, config.parse_options)

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
        coef = coefficients(model)
        load = loadings(model)
        score = scores(model, table)
        write_variance_table(model, out / "variance_table.csv")
        written.append("variance_table.csv")
        for rel, matrix, row_header in (
            ("coefficients.csv", coef, "indicator"),
            ("loadings.csv", load, "indicator"),
            ("scores.csv", score, "region"),
        ):
            write_labeled_matrix(out / rel, matrix.entries, row_header,
                                 matrix.row_labels, names)
            written.append(rel)

    dendrograms: dict[str, Dendrogram] = {}
    partitions: dict[str, Partition] = {}
    with _stage("cluster-regions"):
        if config.k_regions > table.n_regions:
            raise ValidationError(
                f"k_regions={config.k_regions} exceeds region count {table.n_regions}"
            )
        if config.cluster_space in ("raw", "both"):
            dend = complete_linkage(
                euclidean_distances(table.values, table.region_labels)
            )
            dendrograms["raw"] = dend
            partitions["raw"] = cut(dend, config.k_regions)
            _write_dendrogram(out / "dendrogram_raw.csv", dend)
            written.append("dendrogram_raw.csv")
            _write_partition(out / "partition_raw.csv", table.region_labels,
                             partitions["raw"], "region")
            written.append("partition_raw.csv")
        if config.cluster_space in ("components", "both"):
            columns = model.k if config.score_columns == "retained" else model.p
            cluster_scores = scores(model, table, n_columns=columns)
            dend = complete_linkage(
                euclidean_distances(cluster_scores.entries, table.region_labels)
            )
            dendrograms["components"] = dend
            partitions["components"] = cut(dend, config.k_regions)
            _write_dendrogram(out / "dendrogram_components.csv", dend)
            written.append("dendrogram_components.csv")
            _write_partition(out / "partition_components.csv", table.region_labels,
                             partitions["components"], "region")
            written.append("partition_components.csv")

    with _stage("cluster-variables"):
        if config.k_vars > table.n_indicators:
            raise ValidationError(
                f"k_vars={config.k_vars} exceeds indicator count {table.n_indicators}"
            )
        var_dend = cluster_variables(table)
        partitions["variables"] = cut(var_dend, config.k_vars)
        _write_dendrogram(out / "dendrogram_variables.csv", var_dend)
        written.append("dendrogram_variables.csv")
        _write_partition(out / "partition_variables.csv", table.indicator_labels,
                         partitions["variables"], "indicator")
        written.append("partition_variables.csv")

    concordance_stats: dict[str, float] = {}
    if truth is not None:
        partitions["truth"] = truth
        _write_partition(out / "partition_truth.csv", table.region_labels, truth, "region")
        written.append("partition_truth.csv")
    with _stage("concordance"):
        if "raw" in partitions and "components" in partitions:
            pair = contingency(partitions["raw"], partitions["components"])
            concordance_stats["rand"] = rand_index(partitions["raw"], partitions["components"])
            concordance_stats["ari"] = adjusted_rand_index(
                partitions["raw"], partitions["components"]
            )
            extra: dict[str, float] = {}
            if truth is not None:
                extra["ari_raw_truth"] = adjusted_rand_index(partitions["raw"], truth)
                extra["ari_components_truth"] = adjusted_rand_index(
                    partitions["components"], truth
                )
                concordance_stats.update(extra)
            emit_text(
                "concordance.txt",
                _contingency_text(pair, concordance_stats["rand"],
                                  concordance_stats["ari"], extra),
            )

    final_space = "components" if "components" in partitions else "raw"
    final_partition = partitions[final_space]
    with _stage("profile"):
        rows = profile(imputed, final_partition)
        emit_rows(
            "profiles.csv",
            ["cluster", "indicator", "average", "standard_deviation", "skewness",
             "kurtosis", "to_country_average_percent"],
            (
                [str(r.cluster), r.indicator, format_float(r.average),
                 "" if r.standard_deviation is None else format_float(r.standard_deviation),
                 "" if r.skewness is None else format_float(r.skewness),
                 "" if r.kurtosis is None else format_float(r.kurtosis),
                 "" if r.to_country_average_percent is None
                 else format_float(r.to_country_average_percent)]
                for r in rows
            ),
        )
        for cluster_id in range(1, final_partition.k + 1):
            emit_text(f"profiles/cluster_{cluster_id}.csv",
                      format_profile_table(rows, cluster_id))

    with _stage("plots"):
        emit_plots(out, written, config, table, model, score, dendrograms,
                   final_partition, names)

    with _stage("manifest"):
        written_sorted = tuple(sorted(written))
        manifest_lines = []
        for rel in written_sorted:
            digest = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            manifest_lines.append(f"{digest}  {rel}")
        manifest_path = out / "manifest.txt"
        _write_text(manifest_path, "\n".join(manifest_lines) + "\n")

    return RunArtifacts(
        output_dir=out,
        manifest_path=manifest_path,
        files=written_sorted,
        model=model,
        partitions=partitions,
        concordance_stats=concordance_stats,
    )


def emit_plots(
    out: Path,
    written: list[str],
    config: PipelineConfig,
    table: IndicatorTable,
    model: PcaModel,
    score,
    dendrograms: dict[str, Dendrogram],
    final_partition: Partition,
    names: tuple[str, ...],
) -> None:
    final_space = "components" if "components" in dendrograms else "raw"
    leaf_order = dendrograms[final_space].leaf_order()
    assignment = final_partition.assignment

    def emit(rel: str, text: str) -> None:
        _write_text(out / rel, text)
        written.append(rel)

    emit("plots/scree.svg", svgplot.scree_svg(model.eigen.eigenvalues))
    write_rows(
        out / "plots/scree.csv",
        ["dimension", "eigenvalue"],
        ([str(i + 1), format_float(v)] for i, v in enumerate(model.eigen.eigenvalues)),
    )
    written.append("plots/scree.csv")

    emit("plots/parallel_coordinates.svg", svgplot.parallel_coordinates_svg(
        table.values, table.indicator_labels, assignment, leaf_order))
    write_rows(
        out / "plots/parallel_coordinates.csv",
        ["region", "cluster", *table.indicator_labels],
        (
            [table.region_labels[i], str(assignment[i]),
             *(format_float(v) for v in table.values[i])]
            for i in leaf_order
        ),
    )
    written.append("plots/parallel_coordinates.csv")

    emit("plots/heatmap.svg", svgplot.heatmap_svg(
        table.values, table.region_labels, table.indicator_labels, leaf_order))
    write_rows(
        out / "plots/heatmap.csv",
        ["region", *table.indicator_labels],
        (
            [table.region_labels[i], *(format_float(v) for v in table.values[i])]
            for i in leaf_order
        ),
    )
    written.append("plots/heatmap.csv")

    # first two axes drive both scatter figures even when only one
    # component was retained
    plot_model = model if model.k >= 2 else model.with_components(2)
    plot_loadings = loadings(plot_model).entries[:, :2]
    plot_scores = scores(plot_model, table).entries[:, :2]
    axis_names = tuple(names[:2]) if len(names) >= 2 else ("f1", "f2")

    emit("plots/loadings.svg", svgplot.loadings_svg(
        plot_loadings, table.indicator_labels, axis_names))
    write_rows(
        out / "plots/loadings.csv",
        ["indicator", *axis_names],
        (
            [lbl, format_float(row[0]), format_float(row[1])]
            for lbl, row in zip(table.indicator_labels, plot_loadings)
        ),
    )
    written.append("plots/loadings.csv")

    # arrows scaled so loadings and scores share the frame
    max_load = float(np.abs(plot_loadings).max())
    max_score = float(np.abs(plot_scores).max())
    arrow_scale = (max_score / max_load) if max_load > 0 else 1.0
    arrows = plot_loadings * arrow_scale
    emit("plots/biplot.svg", svgplot.biplot_svg(
        plot_scores, assignment, arrows, table.indicator_labels, axis_names))
    biplot_rows = [
        ["score", lbl, format_float(xy[0]), format_float(xy[1])]
        for lbl, xy in zip(table.region_labels, plot_scores)
    ] + [
        ["loading_arrow", lbl, format_float(xy[0]), format_float(xy[1])]
        for lbl, xy in zip(table.indicator_labels, arrows)
    ]
    write_rows(out / "plots/biplot.csv", ["kind", "label", "x", "y"], biplot_rows)
    written.append("plots/biplot.csv")

    panel_titles = {"raw": "initial variables", "components": "component scores"}
    panels = [(panel_titles[key], dendrograms[key])
              for key in ("raw", "components") if key in dendrograms]
    emit("plots/dendrograms.svg", svgplot.dendrograms_svg(panels))
    dend_rows = []
    for title, dend in panels:
        for step, m in enumerate(dend.merges, start=1):
            dend_rows.append([title, str(step), str(m.left), str(m.right),
                              format_float(m.height), str(m.size)])
    write_rows(out / "plots/dendrograms.csv",
               ["panel", "step", "left", "right", "height", "size"], dend_rows)
    written.append("plots/dendrograms.csv")
