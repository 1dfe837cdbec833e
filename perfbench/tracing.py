"""Per-layer spans recorded from outside pcacluster.

`from .x import y` copies a function into the importing module, so
installing the tracer replaces each traced function in every pcacluster
module that binds it (and Dendrogram.leaf_order on the class). Spans
(name, start, end, parent) stay in memory until the run writes them out.
Stage spans come from the `stage <name>` records of the
`pcacluster.pipeline` logger: a stage ends at the next record or when
run_pipeline returns.
"""

from __future__ import annotations

import json
import logging
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

# module -> public functions wrapped; per-cell helpers such as
# format_float are left alone, their call overhead would swamp them
TRACED = {
    "ingest": ("load_table", "impute_means", "standardize", "write_table"),
    "synth": ("generate_synthetic",),
    "linalg": ("correlation_matrix", "jacobi_eigen"),
    "pca": ("fit_pca", "coefficients", "loadings", "scores", "write_variance_table"),
    "hclust": ("euclidean_distances", "complete_linkage", "cut", "cluster_variables",
               "Dendrogram.leaf_order"),
    "concordance": ("contingency", "rand_index", "adjusted_rand_index"),
    "profiles": ("profile", "format_profile_table"),
    "svgplot": ("scree_svg", "parallel_coordinates_svg", "heatmap_svg", "loadings_svg",
                "biplot_svg", "dendrograms_svg"),
    "tables": ("write_rows", "write_labeled_matrix"),
    "pipeline": ("emit_plots",),
    "config": ("load_pipeline_config",),
}

STAGES = ("load", "impute", "standardize", "pca", "cluster-regions", "cluster-variables",
          "concordance", "profile", "plots", "manifest")

# span name -> (work counter, amount of work done by one call)
WORK = {
    "hclust.euclidean_distances": ("hclust.euclidean_distances.pairs",
                                   lambda args, result: result.condensed.size),
    "hclust.complete_linkage": ("hclust.complete_linkage.merges",
                                lambda args, result: len(result.merges)),
    "linalg.jacobi_eigen": ("linalg.jacobi_eigen.order", lambda args, result: result.order),
    **{f"svgplot.{name}": ("svgplot.bytes", lambda args, result: len(result.encode("utf-8")))
       for name in TRACED["svgplot"]},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 at top level
    rep: int
    end: float = 0.0


class _StageRecorder(logging.Handler):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith("stage "):
            self.tracer.stage_marks[self.tracer.rep].append(
                (time.perf_counter(), message[len("stage "):]))


class Tracer:
    """Spans, work counts and raised exceptions, grouped by rep."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.stage_marks: dict[int, list[tuple[float, str]]] = defaultdict(list)
        self.stage_ends: dict[int, float] = {}
        self.rep = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handler = _StageRecorder(self)
        self._logger_state = (logging.NOTSET, True)

    def _wrap(self, fn, name: str):
        module = name.split(".", 1)[0]
        work = WORK.get(name)
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, 0.0, stack[-1] if stack else -1, tracer.rep))
            stack.append(index)
            spans[index].start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[tracer.rep][f"{module}.raised"] += 1
                raise
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            if work is not None:
                tracer.counts[tracer.rep][work[0]] += work[1](args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function where pcacluster binds it."""
        modules = [m for key, m in sys.modules.items()
                   if isinstance(m, ModuleType) and (key == "pcacluster"
                                                     or key.startswith("pcacluster."))]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"pcacluster.{module_name}"]
            for qualname in functions:
                name = f"{module_name}.{qualname}"
                if "." in qualname:
                    owner_name, attr = qualname.split(".")
                    owner = getattr(home, owner_name)
                    self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(original, name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        logger = logging.getLogger("pcacluster.pipeline")
        self._logger_state = (logger.level, logger.propagate)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.addHandler(self._handler)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        logger = logging.getLogger("pcacluster.pipeline")
        logger.removeHandler(self._handler)
        logger.setLevel(self._logger_state[0])
        logger.propagate = self._logger_state[1]
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, children)]

    def rep_metrics(self, rep: int) -> dict[str, float]:
        """Per-layer metrics of one rep; every name is present, zero if unused."""
        metrics: dict[str, float] = {}
        for module_name, functions in TRACED.items():
            metrics[f"{module_name}.raised"] = 0
            for qualname in functions:
                metrics[f"{module_name}.{qualname}.self_s"] = 0.0
                metrics[f"{module_name}.{qualname}.calls"] = 0
        for span, self_s in zip(self.spans, self.self_times()):
            if span.rep == rep:
                metrics[f"{span.name}.self_s"] += self_s
                metrics[f"{span.name}.calls"] += 1
        for name, _ in WORK.values():
            metrics[name] = 0
        metrics.update(self.counts[rep])
        marks = self.stage_marks[rep]
        ends = [t for t, _ in marks[1:]] + [self.stage_ends[rep]]
        metrics.update({f"stage.{stage}.s": 0.0 for stage in STAGES})
        for (start, stage), end in zip(marks, ends):
            if stage in STAGES:
                metrics[f"stage.{stage}.s"] += end - start
        return metrics

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "rep": s.rep}
            for s in self.spans
        ]) + "\n", encoding="utf-8")


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
