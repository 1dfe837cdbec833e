"""End-to-end pipeline: ingest, PCA, clustering, concordance, profiles, plots.

A run computes first and writes last. Each stage registers its artifacts
as jobs and touches no disk; the manifest stage then clears what an
earlier run left, writes the jobs and ends with manifest.txt, which lists
each file with its SHA-256 checksum. So a run that fails before it writes
leaves the output directory as it was, and one that fails while writing
leaves no manifest. An error is named after its stage, so one raised
while writing reads "manifest: ...", with the file's path where the OS
error carries one (ENOSPC from writing into an open file carries none).

On Linux, with a second CPU to run on, the run uses two processes where
that pays, with the same bytes. From _FORK_REGIONS regions, a run that
clusters both spaces clusters the components space in a forked child
while this process clusters the raw one. Both condensed distance vectors
are then alive at once, 8 MB at 1000 regions and 2 GiB at MAX_POINTS; at
12000 x 19 each process peaked near 0.6 GiB. The jobs wait in one queue,
largest first; where a second process can take at least _FORK_VALUES
(5 500) values of them, a forked child and this process each claim the
next job whenever they are free, so the write phase balances itself
whatever each job costs. A fork that fails (a pid or memory limit) leaves
the work to this process, which then drains the queue alone.

Every run writes a fixed artifact set (a function of the configuration
only). Identical configuration and input produce byte-identical
artifacts, so manifests can be diffed across runs. A rerun into the same
directory first deletes what the earlier manifest lists and still
matches, so the directory holds the files its manifest names and
whatever else was there.
"""

from __future__ import annotations

import _thread
import hashlib
import logging
import os
import pickle
import re
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

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

# the write phase forks only if a second process can take at least this
# many values: half the queue's, and no more than the jobs beside the
# largest, so a sink of one job never forks. On a 2-core Xeon, whole runs
# on synthetic 85 x p with a forced split of two fixed shares against one
# process: p = 22 (lighter share 5 946 values) 40.5 against 46.9 ms, p = 40
# (9 924) 45.8 against 63.3, p = 60 (14 984) 59.0 against 69.3; p = 19
# (5 276) was even, 1000 x 19 saved 40 ms
_FORK_VALUES = 5_500
# both region spaces are clustered in two processes from this many regions.
# On a 2-core Xeon a forced fork made the stage 4-5 ms slower at 150 x 19,
# about even at 300 and 6-8 ms faster at 400, where the run gained 5 ms
_FORK_REGIONS = 400

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


@dataclass(frozen=True, eq=False)
class _Job:
    """One artifact, or the z-score twins, that the write phase puts on disk."""

    rels: tuple[str, ...]
    values: int  # the numbers and cells it formats: the cost the writers share
    write: Callable[..., None]  # write(*paths of rels, *args)
    args: tuple


class _Sink:
    """The one writer of artifacts under an output directory.

    Stages register jobs, and registration touches no disk, so a run that
    fails before its write phase changes nothing. write() is that phase.
    """

    def __init__(self, out: Path) -> None:
        self.out = out
        self.jobs: list[_Job] = []

    def add(self, rels: tuple[str, ...], values: int, write: Callable[..., None], *args) -> None:
        self.jobs.append(_Job(rels, values, write, args))

    def text(self, rel: str, values: int, lines: Iterable[str]) -> None:
        """Lines, each ending in "\n", written as they come."""
        self.add((rel,), values, _write_lines, lines)

    def rows(self, rel: str, values: int, header, rows) -> None:
        self.add((rel,), values, write_rows, header, rows)

    def matrix(self, rel: str, header, labels, grid, *prefix: str) -> None:
        """One line per label: prefix and the label, then its row of grid."""
        self.add((rel,), np.size(grid), write_labeled_matrix, header,
                 labeled_rows(labels, grid, *prefix))

    def partition(self, rel: str, labels, part: Partition, item_header: str = "region") -> None:
        self.rows(rel, len(labels), [item_header, "cluster"],
                  ([label, str(c)] for label, c in zip(labels, part.assignment)))

    def write(self) -> tuple[Path, tuple[str, ...]]:
        """Clear the earlier run, write every job, hashing each file as read
        back, then manifest.txt; return it and the sorted paths. The jobs
        are claimed largest first, by a forked child too where that pays
        (_FORK_VALUES)."""
        self._clear_earlier_run()
        for directory in sorted({(self.out / rel).parent for job in self.jobs for rel in job.rels}):
            directory.mkdir(parents=True, exist_ok=True)
        jobs = sorted(self.jobs, key=lambda job: -job.values)
        total = sum(job.values for job in jobs)
        queue = _Queue(len(jobs))

        def claimed() -> dict[str, str]:
            """Write each job claimed from the queue; the SHA-256 of each file as read back."""
            digests = {}
            for number in queue:
                job = jobs[number]
                paths = [self.out / rel for rel in job.rels]
                job.write(*paths, *job.args)
                digests.update((rel, _sha256(path)) for rel, path in zip(job.rels, paths))
            return digests

        second = min(total / 2, total - (jobs[0].values if jobs else 0))
        digests, their_digests = _in_two_processes(claimed, claimed, second >= _FORK_VALUES,
                                                   queue)
        digests.update(their_digests)
        files = tuple(sorted(digests))
        path = self.out / "manifest.txt"
        _write_lines(path, [f"{digests[rel]}  {rel}\n" for rel in files])
        return path, files

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


class _Queue:
    """The numbers 0 .. count-1, each claimed once, in order: by this
    process alone, or, once shared, by it and a forked child.

    Shared, the next number lives in a pipe. A process takes it and at once
    writes back the one after it, so it holds nothing while it works, and
    the pipe never holds more than one 8-byte number, whatever its capacity.
    The pipe's read end does not block: a process waits in poll and, if the
    other took the number first, waits again. Each process also watches its
    end of the child's report pipe and claims no more once the other end is
    closed: the other process has left, having drained the queue or failed,
    or died, perhaps holding the number. So neither waits for a number that
    will not come.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self.taken = 0  # claimed while unshared
        self.pipe: tuple[int, int] | None = None
        self.poll: Any = None
        self.other = -1  # this process's end of the report pipe, once watched

    def __iter__(self) -> Iterator[int]:
        while (number := self._claim()) < self.count:
            yield number

    def _claim(self) -> int:
        if self.pipe is None:
            self.taken += 1
            return self.taken - 1
        while True:
            if self.other in dict(self.poll.poll()):
                return self.count
            try:
                number = int.from_bytes(os.read(self.pipe[0], 8), "little")
            except BlockingIOError:
                continue
            os.write(self.pipe[1], (number + 1).to_bytes(8, "little"))
            return number

    def share(self) -> None:
        """Put the next number in a new pipe, for this process and a child to come."""
        import select  # loaded only here, before a fork

        self.pipe = os.pipe()
        os.set_blocking(self.pipe[0], False)
        os.write(self.pipe[1], self.taken.to_bytes(8, "little"))
        self.poll = select.poll()
        self.poll.register(self.pipe[0], select.POLLIN)

    def watch(self, end: int) -> None:
        """Claim no more once the report pipe's other end is closed."""
        self.other = end
        self.poll.register(end, 0)  # a hang-up or an error is always reported

    def close(self) -> None:
        if self.pipe is not None:
            for end in self.pipe:
                os.close(end)
        self.pipe = self.poll = None


def _in_two_processes(here: Callable[[], Any], there: Callable[[], Any],
                      pays: bool, queue: _Queue | None = None) -> tuple[Any, Any]:
    """(here(), there()), with there() run in a forked child meanwhile if
    the work pays for a fork and forking is safe and helps: on Linux, with
    more than one CPU in the affinity mask (a CFS quota does not show in
    it), and with no other Python thread, started by threading or by _thread
    (a forked child gets no copy of another thread, only of the locks it may
    hold). Otherwise, or if the fork fails (a pid or memory limit), there()
    runs after here(). Both may claim from queue, which is shared with the
    child only while there is one; unshared, here() drains it.

    The guard can miss a thread that _thread.start_new_thread has only
    just started: _thread._count() counts it only once it first holds the
    GIL, so a fork can still happen beside it (threading.Thread.start()
    waits until its thread runs). The guard counts Python threads, not OS
    threads. Loaded first, numpy starts OpenBLAS's pool: an in-process run
    on the perfbench `wide` table counted 2 OS threads before each fork,
    the CLI (one BLAS thread) 1. OpenBLAS stops its pool before a fork and
    restarts it on demand, so the child is safe, and CPython 3.12+, which
    counts OS threads after the fork, does not warn. An OS-thread guard
    would forgo every such fork.

    The child sends its result, or the exception that stopped it, through
    one pipe and leaves by os._exit, exit status 0 only once its report is
    sent. This process reaps it on every path, and kills it first if
    here() fails.
    """
    if not (pays and sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1
            and _thread._count() == 0 and threading.active_count() == 1):
        return here(), there()
    read_end, write_end = os.pipe()
    try:
        if queue is not None:
            queue.share()
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        if queue is not None:
            queue.close()
        return here(), there()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            if queue is not None:
                queue.watch(write_end)
            try:
                report = there()
            except BaseException as exc:  # raised again in the parent
                report = exc
            with open(write_end, "wb") as pipe:
                pickle.dump(report, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    status = None
    try:
        with open(read_end, "rb") as pipe:
            if queue is not None:
                queue.watch(read_end)
            mine = here()
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        if queue is not None:
            queue.close()
        if status is None:
            import signal  # loaded only here: its import costs every run about 1 ms

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0 or not data:
        raise ChildProcessError(f"the second process ended with status {status} and no report")
    report = pickle.loads(data)
    if isinstance(report, BaseException):
        raise report
    return mine, report


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
    """A stage: logged as "stage <name>", and the errors raised inside named
    after it; an OSError becomes a ValidationError."""
    logger.info("stage %s", name)
    try:
        yield
    except PcaClusterError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _merge_lines(dend: Dendrogram) -> Iterator[str]:
    """dend's merge rows as CSV lines, each ending in "\n": the step, the
    whole-number ids and size, and the height by format_float's rule."""
    ids = dend.merges[:, [0, 1, 3]].astype(np.int64).tolist()
    for step, ((left, right, size), height) in enumerate(zip(ids, dend.merges[:, 2].tolist()),
                                                          start=1):
        yield f"{step},{left},{right},{height!r},{size}\n"


def _write_merges(path: Path, dend: Dendrogram) -> None:
    with open_rows(path, _MERGE_HEADER) as out:
        for line in _merge_lines(dend):
            out.line(line)


def _write_merge_twins(*paths_then_panels) -> None:
    """dendrogram_<space>.csv for each (title, dendrogram) panel, then
    plots/dendrograms.csv, every panel's rows after its title: each merge
    row is formatted once and written to both."""
    *space_paths, plot_path, panels = paths_then_panels
    with open_rows(plot_path, ["panel", *_MERGE_HEADER]) as plot:
        for path, (title, dend) in zip(space_paths, panels):
            with open_rows(path, _MERGE_HEADER) as own:
                for line in _merge_lines(dend):
                    own.line(line)
                    plot.line(f"{title},{line}")  # no title needs quoting


def _clustering(sink: _Sink, name: str, dend: Dendrogram, k: int, item: str = "region") -> Partition:
    """dend cut at k, with partition_<name>.csv registered on sink; the
    partition's items are dend's labels."""
    part = cut(dend, k)
    sink.partition(f"partition_{name}.csv", dend.labels, part, item)
    return part


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

    partitions: dict[str, Partition] = {}
    with _stage("load"):
        if config.synthetic is not None:
            raw_table, partitions["truth"] = generate_synthetic(config.synthetic)
        else:
            raw_table = load_table(config.input_path, config.parse_options)
        n, p = raw_table.n_regions, raw_table.n_indicators
        check_points(n, "regions")
        if config.k_regions > n:
            raise ValidationError(f"k_regions={config.k_regions} exceeds region count {n}")
        if config.k_vars > p:
            raise ValidationError(f"k_vars={config.k_vars} exceeds indicator count {p}")
        if "truth" in partitions:
            sink.add(("synthetic_table.csv",), n * p, lambda path: write_table(raw_table, path))
            sink.partition("partition_truth.csv", raw_table.region_labels, partitions["truth"])

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
        sink.add(("variance_table.csv",), 3 * p, lambda path: write_variance_table(model, path))
        sink.matrix("coefficients.csv", ["indicator", *names], model.indicator_labels,
                    coefficients(model))
        sink.matrix("loadings.csv", ["indicator", *names], model.indicator_labels,
                    loadings(model))
        sink.matrix("scores.csv", ["region", *names], table.region_labels, score)

    # the region spaces, in order; the last one's partition is the final one
    spaces = ("raw", "components") if config.cluster_space == "both" else (config.cluster_space,)
    with _stage("cluster-regions"):
        points = {"raw": table.values, "components": score}

        def link(space: str) -> Dendrogram:
            return complete_linkage(euclidean_distances(points[space], table.region_labels))

        # the raw space is never the lighter (k <= p), so it stays here
        if len(spaces) == 2:
            trees = _in_two_processes(lambda: link(spaces[0]), lambda: link(spaces[1]),
                                      n >= _FORK_REGIONS)
        else:
            trees = (link(spaces[0]),)
        dendrograms = dict(zip(spaces, trees))
        for space, dend in dendrograms.items():
            partitions[space] = _clustering(sink, space, dend, config.k_regions)

    with _stage("cluster-variables"):
        variables = cluster_variables(table)
        partitions["variables"] = _clustering(sink, "variables", variables, config.k_vars,
                                              "indicator")
        sink.add(("dendrogram_variables.csv",), variables.merges.size, _write_merges, variables)

    concordance_stats: dict[str, float] = {}
    with _stage("concordance"):
        if len(spaces) == 2:
            raw, comp = (partitions[space] for space in spaces)
            concordance_stats = {"rand": rand_index(raw, comp),
                                 "ari": adjusted_rand_index(raw, comp)}
            truth = partitions.get("truth")
            if truth is not None:
                concordance_stats["ari_raw_truth"] = adjusted_rand_index(raw, truth)
                concordance_stats["ari_components_truth"] = adjusted_rand_index(comp, truth)
            sink.text("concordance.txt", raw.k * comp.k + len(concordance_stats),
                      _contingency_lines(contingency(raw, comp), concordance_stats))

    final_partition = partitions[spaces[-1]]
    with _stage("profile"):
        grid = profile(imputed, final_partition)
        labels = imputed.indicator_labels
        sink.add(("profiles.csv",), grid.size, write_labeled_matrix,
                 ["cluster", "indicator", *STATISTICS],
                 chain.from_iterable(labeled_rows(labels, block, str(cluster_id))
                                     for cluster_id, block in enumerate(grid, start=1)))
        for cluster_id, block in enumerate(grid, start=1):
            # formatted here: a statistic that does not fit fails this stage
            header, *table_rows = format_profile_table(block, labels)
            sink.rows(f"profiles/cluster_{cluster_id}.csv", block.size, header, table_rows)

    with _stage("plots"):
        emit_plots(sink, table, model, dendrograms, final_partition, names)

    with _stage("manifest"):
        manifest_path, files = sink.write()

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
    """The six figures under plots/, each with its CSV twin, as jobs on sink;
    plots/dendrograms.csv shares its job with each space's dendrogram CSV."""
    leaf_order = [*dendrograms.values()][-1].leaf_order()  # the final space's
    assignment = final_partition.assignment
    values, regions, indicators = table.values, table.region_labels, table.indicator_labels

    eigenvalues = model.eigen.eigenvalues
    sink.text("plots/scree.svg", eigenvalues.size, svgplot.scree_svg(eigenvalues))
    sink.matrix("plots/scree.csv", ["dimension", "eigenvalue"],
                [str(i + 1) for i in range(eigenvalues.size)], eigenvalues[:, None])
    sink.text("plots/parallel_coordinates.svg", values.size,
              svgplot.parallel_coordinates_svg(values, indicators, assignment, leaf_order))
    sink.text("plots/heatmap.svg", values.size,
              svgplot.heatmap_svg(values, regions, indicators, leaf_order))
    sink.add(("plots/heatmap.csv", "plots/parallel_coordinates.csv"), values.size,
             _write_z_score_twins, values, regions, indicators, assignment, leaf_order)

    # both scatter figures plot the first two axes, even when only one component
    # was retained. The product keeps the retained width, so its first two
    # columns are scores.csv's; a 2-wide product differs in the last digits
    plot_model = model.with_components(max(model.k, 2))
    plot_loadings = loadings(plot_model)[:, :2]
    plot_scores = scores(plot_model, table)[:, :2]
    axis_names = (*names, "f2")[:2]
    sink.text("plots/loadings.svg", plot_loadings.size,
              svgplot.loadings_svg(plot_loadings, indicators, axis_names))
    sink.matrix("plots/loadings.csv", ["indicator", *axis_names], indicators, plot_loadings)

    # arrows scaled so loadings and scores share the frame
    max_load = float(np.abs(plot_loadings).max())
    max_score = float(np.abs(plot_scores).max())
    arrows = plot_loadings * ((max_score / max_load) if max_load > 0 else 1.0)
    sink.text("plots/biplot.svg", plot_scores.size + arrows.size,
              svgplot.biplot_svg(plot_scores, assignment, arrows, indicators, axis_names))
    sink.add(("plots/biplot.csv",), plot_scores.size + arrows.size, write_labeled_matrix,
             ["kind", "label", "x", "y"],
             chain(labeled_rows(regions, plot_scores, "score"),
                   labeled_rows(indicators, arrows, "loading_arrow")))

    titles = {"raw": "initial variables", "components": "component scores"}
    panels = [(titles[space], dend) for space, dend in dendrograms.items()]
    merge_values = sum(dend.merges.size for dend in dendrograms.values())
    sink.text("plots/dendrograms.svg", merge_values, svgplot.dendrograms_svg(panels))
    sink.add((*(f"dendrogram_{space}.csv" for space in dendrograms), "plots/dendrograms.csv"),
             merge_values, _write_merge_twins, panels)


def _write_z_score_twins(heatmap_path: Path, parallel_path: Path, values: np.ndarray,
                         regions, indicators, assignment, leaf_order) -> None:
    """plots/heatmap.csv and plots/parallel_coordinates.csv, both the
    leaf-ordered z-scores: each row is formatted once and written to both,
    one row of text held at a time."""
    with open_rows(heatmap_path, ["region", *indicators]) as heatmap, \
            open_rows(parallel_path, ["region", "cluster", *indicators]) as parallel:
        for i in leaf_order:
            run = format_run(values[i])
            heatmap.row((regions[i],), run)
            parallel.row((regions[i], str(assignment[i])), run)
