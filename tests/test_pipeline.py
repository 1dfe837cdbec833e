from __future__ import annotations

import _thread
import contextlib
import csv
import dataclasses
import errno
import fcntl
import hashlib
import importlib.util
import io
import logging
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcacluster
from pcacluster import cli, linalg, pca, pipeline, svgplot, tables
from pcacluster.config import PipelineConfig, load_pipeline_config
from pcacluster.errors import NumericalError, ValidationError
from pcacluster.hclust import MAX_POINTS, complete_linkage, euclidean_distances
from pcacluster.ingest import impute_means, load_table, standardize
from pcacluster.pca import scores
from pcacluster.pipeline import run_pipeline
from pcacluster.synth import SyntheticSpec

from helpers import TWO_CPUS, plant_two_cpus

SAMPLE = Path(__file__).resolve().parents[1] / "src" / "pcacluster" / "data" / "sample_regions.csv"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
README = Path(__file__).resolve().parents[1] / "README.md"

BASE_SYNTH_CONF = """
synthetic = true
n = 40
p = 6
clusters = 3
separation = 5
seed = 424242
k_regions = 3
k_vars = 2
output_dir = {out}
"""


def write_conf(tmp_path: Path, text: str, name: str = "pipe.conf") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def synth_conf(tmp_path: Path, out: str = "out", extra: str = "") -> Path:
    return write_conf(tmp_path, BASE_SYNTH_CONF.format(out=out) + extra)


def write_grid_csv(path: Path, grid) -> None:
    """A regions x indicators CSV with labels R1.. and V1.., values as repr."""
    lines = ["region," + ",".join(f"V{j + 1}" for j in range(len(grid[0])))]
    lines += [f"R{i + 1}," + ",".join(repr(float(x)) for x in row) for i, row in enumerate(grid)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# the mean of column a's present cells overflows when its gap is imputed
GAP_CELLS = [["1e308", "1"], ["1e308", "2"], ["", "3"], ["0", "5"]]
# column b's sd is finite, but its third central moment is not
SKEW_CELLS = [["0", "1e154"], ["1", "0"], ["2", "0"], ["3", "0"], ["4", "0"], ["5", "1"]]
# column a's grand mean is subnormal, so cluster 1's ratio to it overflows
TINY_MEAN_CELLS = [["1", "1"], ["-1", "2"], ["1e-320", "3"], ["0", "5"]]


def child_env(extra_env: dict[str, str]) -> dict[str, str]:
    """The environment for a child running this checkout's pcacluster: its
    CPU dispatch, BLAS kernel and BLAS thread settings are only those in
    extra_env, whatever the shell that ran the tests set."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS",
                          "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONPATH")}
    return {**env, "PYTHONPATH": str(SAMPLE.parents[2]), **extra_env}


def run_sample_cli(tmp_path: Path, name: str, extra_env: dict[str, str],
                   source: Path = SAMPLE) -> Path:
    """Run the CLI on source (the bundled sample by default) in a child with
    child_env(extra_env); returns its output."""
    conf = write_conf(tmp_path, f"input = {source}\noutput_dir = {name}\n", f"{name}.conf")
    subprocess.run([sys.executable, "-m", "pcacluster.cli", "run", "--config", str(conf)],
                   env=child_env(extra_env), check=True, capture_output=True)
    return tmp_path / name


def csv_text(cells) -> str:
    """A CSV with regions R1.. and indicators a, b, ... over rows of cell strings."""
    header = ",".join(["region", *"abcdefgh"[: len(cells[0])]])
    return "\n".join([header] + [",".join([f"R{i + 1}", *row]) for i, row in enumerate(cells)]) + "\n"


@pytest.fixture
def two_cpus(monkeypatch) -> None:
    """A two-CPU affinity mask, so that a run forks where a host with two
    CPUs or more would fork, also when the tests are pinned to one."""
    plant_two_cpus(monkeypatch)


@pytest.fixture
def forks(monkeypatch, caplog, two_cpus) -> Counter:
    """os.fork, wrapped to count its calls by the stage that made each, the
    last one the pipeline logged ("stage <name>"), under two_cpus."""
    caplog.set_level(logging.INFO, logger=pipeline.logger.name)
    forks = Counter()

    def fork(original=os.fork):
        stages = [record.getMessage() for record in caplog.records
                  if record.name == pipeline.logger.name]
        forks[stages[-1].removeprefix("stage ")] += 1
        return original()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


EXPECTED_SYNTH_FILES = {
    "coefficients.csv", "concordance.txt", "dendrogram_components.csv",
    "dendrogram_raw.csv", "dendrogram_variables.csv", "loadings.csv",
    "partition_components.csv", "partition_raw.csv", "partition_truth.csv",
    "partition_variables.csv", "plots/biplot.csv", "plots/biplot.svg",
    "plots/dendrograms.svg", "plots/heatmap.svg", "plots/loadings.csv", "plots/loadings.svg",
    "plots/parallel_coordinates.csv", "plots/parallel_coordinates.svg",
    "plots/scree.svg", "profiles.csv",
    "scores.csv", "synthetic_table.csv", "variance_table.csv",
}


class TestConfigParsing:
    def test_requires_exactly_one_input_mode(self, tmp_path):
        conf = write_conf(tmp_path, "output_dir = out\n")
        with pytest.raises(ValidationError, match="exactly one input mode"):
            load_pipeline_config(conf)
        conf2 = write_conf(
            tmp_path, "synthetic = true\ninput = x.csv\noutput_dir = out\n", "c2.conf"
        )
        with pytest.raises(ValidationError, match="exactly one input mode"):
            load_pipeline_config(conf2)

    def test_unknown_key_rejected(self, tmp_path):
        conf = write_conf(tmp_path, "synthetic = true\noutput_dir = out\ntypo = 1\n")
        with pytest.raises(ValidationError, match="unknown keys"):
            load_pipeline_config(conf)

    def test_duplicate_key_rejected(self, tmp_path):
        conf = write_conf(tmp_path, "synthetic = true\noutput_dir = a\noutput_dir = b\n")
        with pytest.raises(ValidationError, match="duplicate key"):
            load_pipeline_config(conf)

    def test_missing_output_dir_rejected(self, tmp_path):
        conf = write_conf(tmp_path, "synthetic = true\n")
        with pytest.raises(ValidationError, match="output_dir is required"):
            load_pipeline_config(conf)

    def test_stray_synthetic_keys_in_file_mode_rejected(self, tmp_path):
        conf = write_conf(tmp_path, "input = x.csv\nseed = 3\noutput_dir = out\n")
        with pytest.raises(ValidationError, match="require synthetic = true"):
            load_pipeline_config(conf)

    def test_comments_and_blanks_ignored(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "# a comment\n\nsynthetic = true\nn = 12\np = 3\nclusters = 2\n"
            "k_regions = 2\nk_vars = 2\noutput_dir = out\n",
        )
        config = load_pipeline_config(conf)
        assert config.synthetic.n == 12

    def test_paths_resolve_against_config_directory(self, tmp_path):
        conf = write_conf(tmp_path, "input = data.csv\noutput_dir = results\n")
        config = load_pipeline_config(conf)
        assert config.input_path == tmp_path / "data.csv"
        assert config.output_dir == tmp_path / "results"

    def test_component_rules(self, tmp_path):
        for text, expected in [
            ("kaiser", "Kaiser()"),
            ("fixed:3", "Fixed(k=3)"),
            ("cumulative:75", "CumulativeThreshold(percent=75.0)"),
        ]:
            conf = write_conf(
                tmp_path,
                f"synthetic = true\ncomponents = {text}\noutput_dir = out\n",
                f"{text.replace(':', '_')}.conf",
            )
            assert repr(load_pipeline_config(conf).component_rule) == expected

    def test_bad_rule_rejected(self, tmp_path):
        conf = write_conf(tmp_path, "synthetic = true\ncomponents = varimax\noutput_dir = out\n")
        with pytest.raises(ValidationError, match="unknown component rule"):
            load_pipeline_config(conf)

    @pytest.mark.parametrize("text, message", [
        ("synthetic = true\nk_regions = x", "k_regions must be an integer, got 'x'"),
        ("synthetic = true\nseparation = far", "separation must be a number, got 'far'"),
        ("synthetic = true\ndelimiter = tab", "unknown delimiter 'tab'"),
        ("synthetic = true\ndecimal = x", "unknown decimal separator 'x'"),
        ("synthetic = maybe", "synthetic must be true or false, got 'maybe'"),
        ("synthetic = true\ncomponents = kaiserr", "unknown component rule 'kaiserr'"),
        ("synthetic = true\ncluster_space = everywhere",
         "cluster_space must be one of ('raw', 'components', 'both'), got 'everywhere'"),
    ])
    def test_bad_values_rejected(self, tmp_path, text, message):
        conf = write_conf(tmp_path, f"{text}\noutput_dir = out\n")
        with pytest.raises(ValidationError) as excinfo:
            load_pipeline_config(conf)
        assert str(excinfo.value) == f"{conf}: {message}"

    def test_byte_order_mark_dropped(self, tmp_path):
        conf = tmp_path / "bom.conf"
        conf.write_bytes("\ufeffinput = x.csv\noutput_dir = out\n".encode("utf-8"))
        assert load_pipeline_config(conf).input_path == tmp_path / "x.csv"

    def test_readme_examples_load_and_run(self, tmp_path):
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 2
        for i, block in enumerate(blocks):
            (tmp_path / str(i)).mkdir()
            (tmp_path / str(i) / "regions.csv").write_bytes(SAMPLE.read_bytes())
            conf = write_conf(tmp_path / str(i), block)
            artifacts = run_pipeline(load_pipeline_config(conf))
            assert artifacts.output_dir == tmp_path / str(i) / "out"
            assert artifacts.manifest_path.is_file()

    def test_readme_library_example_runs(self):
        """README's Library example, run on the sample in a fresh child, prints
        an ARI and loads only the modules of the names it imports."""
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1 and blocks[0].count('"regions.csv"') == 1
        example = blocks[0].replace('"regions.csv"', repr(str(SAMPLE)))
        run = subprocess.run(
            [sys.executable, "-c", "import sys\nexec(sys.argv[1], {})\n"
             "print(*(m for m in sys.modules if m.startswith('pcacluster.')))", example],
            env=child_env({}), check=True, capture_output=True, text=True)
        ari, loaded = run.stdout.splitlines()
        assert math.isfinite(float(ari)) and -1.0 <= float(ari) <= 1.0
        assert not {f"pcacluster.{name}" for name in
                    ("pipeline", "svgplot", "config", "synth", "profiles")} & set(loaded.split())

    def test_component_labels_split_on_bars(self, tmp_path):
        conf = write_conf(tmp_path, "synthetic = true\ncomponent_labels = a | b\noutput_dir = out\n")
        assert load_pipeline_config(conf).component_labels == ("a", "b")

    def test_minimal_file_config_takes_dataclass_defaults(self, tmp_path):
        config = load_pipeline_config(write_conf(tmp_path, "input = x.csv\noutput_dir = out\n"))
        expected = PipelineConfig(output_dir=tmp_path / "out", input_path=tmp_path / "x.csv")
        for f in fields(PipelineConfig):
            assert getattr(config, f.name) == getattr(expected, f.name), f.name

    def test_minimal_synthetic_config_takes_spec_defaults(self, tmp_path):
        config = load_pipeline_config(write_conf(tmp_path, "synthetic = true\noutput_dir = out\n"))
        assert config.synthetic == SyntheticSpec(n=85, p=19, clusters=4, separation=6.0)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("synthrun")
    return run_pipeline(load_pipeline_config(synth_conf(tmp_path)))


class TestSyntheticRun:
    def test_advertised_artifact_set(self, artifacts):
        files = set(artifacts.files)
        expected = EXPECTED_SYNTH_FILES | {
            f"profiles/cluster_{i}.csv" for i in range(1, 4)
        }
        assert files == expected

    def test_every_file_exists_and_manifest_matches(self, artifacts):
        manifest = {}
        for line in artifacts.manifest_path.read_text().splitlines():
            digest, rel = line.split("  ", 1)
            manifest[rel] = digest
        assert set(manifest) == set(artifacts.files)
        for rel, digest in manifest.items():
            data = (artifacts.output_dir / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_parallel_coordinates_rows_follow_leaf_order(self, artifacts):
        # the final space is components: its dendrogram, rebuilt from the
        # table as written, orders the rows of the heatmap's data
        z = standardize(impute_means(load_table(artifacts.output_dir / "synthetic_table.csv")))
        dend = complete_linkage(euclidean_distances(scores(artifacts.model, z)))
        leaf_labels = [z.region_labels[i] for i in dend.leaf_order()]
        assert leaf_labels != list(z.region_labels)
        with (artifacts.output_dir / "plots/parallel_coordinates.csv").open(
                newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows[1:]] == leaf_labels

    def test_parallel_twin_round_trips_z_values(self, artifacts):
        lines = (artifacts.output_dir / "plots/parallel_coordinates.csv").read_text().splitlines()
        cells = lines[1].split(",")
        region, cluster, values = cells[0], int(cells[1]), [float(c) for c in cells[2:]]
        table = load_table(artifacts.output_dir / "synthetic_table.csv")
        z = standardize(impute_means(table))
        row = z.region_labels.index(region)
        assert np.array_equal(np.array(values), z.values[row])
        assert cluster == artifacts.partitions["components"].assignment[row]

    def test_concordance_report_format(self, artifacts):
        text = (artifacts.output_dir / "concordance.txt").read_text()
        assert text.startswith("contingency rows=raw columns=components\n")
        assert "rand=" in text and " ari=" in text
        assert "ari_raw_truth=" in text
        assert "ari_components_truth=" in text

    def test_truth_recovered_at_high_separation(self, artifacts):
        assert artifacts.concordance_stats["ari_components_truth"] >= 0.9
        assert artifacts.concordance_stats["ari_raw_truth"] >= 0.9

    def test_profile_tables_per_cluster(self, artifacts):
        for cluster_id in range(1, 4):
            text = (artifacts.output_dir / f"profiles/cluster_{cluster_id}.csv").read_text()
            lines = text.splitlines()
            assert lines[0].startswith("Indicator,Average")
            assert len(lines) == 1 + 6  # six indicators


class TestDeterminism:
    def test_back_to_back_runs_identical_manifests(self, tmp_path):
        first = run_pipeline(load_pipeline_config(synth_conf(tmp_path, out="out1")))
        second = run_pipeline(load_pipeline_config(synth_conf(tmp_path, out="out2")))
        assert first.manifest_path.read_bytes() == second.manifest_path.read_bytes()

    def test_manifest_independent_of_simd_dispatch(self, tmp_path):
        # numpy picks SIMD loops for the CPU at import; with the AVX-512 ones
        # disabled, an AVX-512 host must write the bytes any other host writes
        no_avx512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        manifests = [(run_sample_cli(tmp_path, name, extra) / "manifest.txt").read_bytes()
                     for name, extra in (("default", {}), ("no-avx512", no_avx512))]
        assert manifests[0] == manifests[1]

    def test_manifest_independent_of_blas_threads(self, tmp_path):
        # at 400 x 120 OpenBLAS splits the correlation matrix, the
        # eigensolver and the k-wide score product over its threads
        write_grid_csv(tmp_path / "wide.csv", np.random.default_rng(19).standard_normal((400, 120)))
        manifests = [(run_sample_cli(tmp_path, f"threads-{count}",
                                     {"OPENBLAS_NUM_THREADS": count}, tmp_path / "wide.csv")
                      / "manifest.txt").read_bytes() for count in ("1", "2")]
        assert manifests[0] == manifests[1]

    def test_only_float_csvs_depend_on_the_blas_kernel(self, tmp_path):
        """OpenBLAS picks its kernels for the CPU at load, and the correlation
        matrix, the eigensolver and the scores go through them. Under the
        Haswell kernels, which an AVX2-only host runs, the partitions,
        profiles, concordance.txt and every SVG keep their bytes; the other
        CSVs keep their text and their numbers agree within 1e-12 relative.
        On a BLAS built without DYNAMIC_ARCH the variable does nothing, and
        this test cannot fail."""
        runs = [run_sample_cli(tmp_path, name, extra) for name, extra in
                (("default", {}), ("haswell", {"OPENBLAS_CORETYPE": "Haswell"}))]
        listed = [[line.split("  ", 1)[1] for line in (run / "manifest.txt").read_text().splitlines()]
                  for run in runs]
        assert listed[0] == listed[1]
        for rel in listed[0]:
            first, second = (run / rel for run in runs)
            if not rel.endswith(".csv") or rel.startswith(("partition_", "profiles")):
                assert first.read_bytes() == second.read_bytes(), rel
                continue
            cells = [list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
                     for path in (first, second)]
            assert [len(row) for row in cells[0]] == [len(row) for row in cells[1]], rel
            for a, b in zip(chain.from_iterable(cells[0]), chain.from_iterable(cells[1])):
                if a != b:
                    assert abs(float(a) - float(b)) <= 1e-12 * max(1.0, abs(float(a))), (rel, a, b)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads are counted in /proc")
class TestBlasThreads:
    """Importing pcacluster loads numpy's BLAS with one thread, unless the
    caller set a thread count or loaded numpy first."""

    # after a 400 x 120 product, which OpenBLAS splits over its threads, the
    # child prints its thread count, whether its environment is unchanged,
    # and whether its imports loaded numpy and which pcacluster submodules
    CHILD = """\
import os, sys
before = dict(os.environ)
{imports}
loaded = "numpy" in sys.modules, [m for m in sys.modules if m.startswith("pcacluster.")]
import numpy as np
x = np.random.default_rng(0).standard_normal((400, 120))
x.T @ x
print(len(os.listdir("/proc/self/task")), dict(os.environ) == before, *loaded)
"""

    def child(self, imports: str, extra_env: dict[str, str]) -> tuple[int, bool, bool, str]:
        """(thread count, environment unchanged, numpy loaded by the imports,
        the pcacluster submodules they loaded) of a fresh child."""
        out = subprocess.run([sys.executable, "-c", self.CHILD.format(imports=imports)],
                             env=child_env(extra_env), check=True, capture_output=True,
                             text=True).stdout.split(maxsplit=3)
        return int(out[0]), out[1] == "True", out[2] == "True", out[3].strip()

    def test_one_thread_and_the_environment_untouched(self):
        # a bare import loads numpy and no submodule
        assert self.child("import pcacluster", {}) == (1, True, True, "[]")

    @pytest.mark.parametrize("imports", ["import pcacluster.hclust",
                                         "from pcacluster.pipeline import run_pipeline"])
    def test_one_thread_when_a_submodule_is_imported_first(self, imports):
        assert self.child(imports, {})[:2] == (1, True)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="OpenBLAS starts no more threads than the CPUs it may run on")
    def test_thread_variable_kept(self):
        threads, unchanged = self.child("import pcacluster", {"OPENBLAS_NUM_THREADS": "2"})[:2]
        assert threads > 1 and unchanged

    def test_numpy_loaded_first_keeps_its_default(self):
        assert (self.child("import numpy\nimport pcacluster", {})[:2]
                == self.child("import numpy", {})[:2])


class TestNamespace:
    """pcacluster exports these names; each is read from its home module on
    first use, and a bare import loads no submodule."""

    EXPORTED = (
        "CumulativeThreshold", "Dendrogram", "DistanceMatrix", "EigenDecomposition", "Fixed",
        "IndicatorTable", "Kaiser", "NumericalError", "ParseOptions", "Partition",
        "PcaClusterError", "PcaModel", "PipelineConfig", "RunArtifacts", "SyntheticSpec",
        "ValidationError", "adjusted_rand_index", "cluster_variables", "coefficients",
        "complete_linkage", "contingency", "correlation_matrix", "cut", "euclidean_distances",
        "fit_pca", "format_profile_table", "generate_synthetic", "impute_means", "jacobi_eigen",
        "load_pipeline_config", "load_table", "loadings", "profile", "rand_index", "run_pipeline",
        "scores", "select_components", "standardize", "write_table",
    )

    def test_each_name_is_its_home_modules_object_and_stays_unbound(self):
        assert pcacluster.__all__ == list(self.EXPORTED)
        for name in self.EXPORTED:
            value = getattr(pcacluster, name)
            assert value.__module__.startswith("pcacluster."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert name not in vars(pcacluster), name

    def test_star_import_and_dir_list_the_exported_names(self):
        namespace: dict = {}
        exec("from pcacluster import *", namespace)
        assert namespace.keys() - {"__builtins__"} == set(self.EXPORTED)
        assert set(self.EXPORTED) <= set(dir(pcacluster))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'pcacluster' has no attribute 'nope'$"):
            getattr(pcacluster, "nope")
        assert not hasattr(pcacluster, "nope")

    def test_submodules_resolve_after_a_bare_import(self):
        out = subprocess.run(
            [sys.executable, "-c", "import pcacluster\n"
             "print(pcacluster.svgplot.__name__, pcacluster.tables.__name__)"],
            env=child_env({}), check=True, capture_output=True, text=True).stdout
        assert out.split() == ["pcacluster.svgplot", "pcacluster.tables"]


class TestFileInputRun:
    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path):
        conf = write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\n")
        out = run_pipeline(load_pipeline_config(conf)).output_dir
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        # a numerical failure comes before the write phase: the earlier run stays
        (tmp_path / "t.csv").write_text(csv_text(SKEW_CELLS), encoding="utf-8")
        rerun = write_conf(tmp_path, "input = t.csv\nk_regions = 1\nk_vars = 1\n"
                                     "output_dir = out\n", "rerun.conf")
        with pytest.raises(NumericalError, match="^profile: cluster 1, indicator 'b'"):
            run_pipeline(load_pipeline_config(rerun))
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before
        # a write failure comes after the earlier manifest is gone
        (out / "profiles.csv").unlink()
        (out / "profiles.csv").mkdir()
        with pytest.raises(ValidationError, match=r"^manifest: .*Is a directory: '.*profiles\.csv'"):
            run_pipeline(load_pipeline_config(conf))
        assert not (out / "manifest.txt").exists()

    def test_region_labels_that_need_quoting_read_back(self, tmp_path):
        with SAMPLE.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        for row, label in zip(rows[1:], ["a,b", 'say "hi"', "two\nlines", 'all, "three"\nend']):
            row[0] = label
        with (tmp_path / "t.csv").open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        conf = write_conf(tmp_path, "input = t.csv\noutput_dir = out\n")
        out = run_pipeline(load_pipeline_config(conf)).output_dir
        labels = [row[0] for row in rows[1:]]

        def first_column(rel: str) -> list[str]:
            with (out / rel).open(newline="", encoding="utf-8") as handle:
                return [row[0] for row in csv.reader(handle)][1:]

        assert first_column("scores.csv") == labels
        assert sorted(first_column("plots/parallel_coordinates.csv")) == sorted(labels)

    def test_each_z_score_row_formatted_once(self, tmp_path, monkeypatch):
        calls, format_run = Counter(), tables.format_run

        def counting(values):
            calls[tuple(values.tolist())] += 1
            return format_run(values)

        monkeypatch.setattr(tables, "format_run", counting)
        conf = write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\n")
        run_pipeline(load_pipeline_config(conf))
        z = standardize(impute_means(load_table(SAMPLE)))
        # parallel_coordinates.csv is the one CSV of the z-scores
        assert [calls[tuple(row)] for row in z.values.tolist()] == [1] * z.n_regions

    def test_bundled_sample_end_to_end(self, tmp_path):
        conf = write_conf(
            tmp_path,
            f"input = {SAMPLE}\noutput_dir = out\nk_regions = 4\n",
        )
        artifacts = run_pipeline(load_pipeline_config(conf))
        assert "synthetic_table.csv" not in artifacts.files
        assert "partition_truth.csv" not in artifacts.files
        variance = (artifacts.output_dir / "variance_table.csv").read_text().splitlines()
        assert len(variance) == 20
        assert artifacts.model.k >= 1
        with pytest.raises(ValueError):
            artifacts.model.eigen.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            artifacts.model.eigen.eigenvectors[0, 0] = 0.0
        text = (artifacts.output_dir / "concordance.txt").read_text()
        assert "rand=" in text and "ari_raw_truth" not in text

    # at 150 x 40 the first two score columns of a 2-wide product differ
    # in their last digits from those of the 12-wide one the pca stage writes
    @pytest.mark.parametrize("lines, k", [("synthetic = true\nn = 150\np = 40", 12),
                                          (f"input = {SAMPLE}\ncomponents = fixed:1", 1)],
                             ids=["twelve-components", "one-component"])
    def test_scatter_twins_match_the_pca_artifacts(self, tmp_path, lines, k):
        conf = write_conf(tmp_path, f"{lines}\noutput_dir = out\n")
        artifacts = run_pipeline(load_pipeline_config(conf))
        assert artifacts.model.k == k

        def rows(rel):
            text = (artifacts.output_dir / rel).read_text(encoding="utf-8")
            return list(csv.reader(io.StringIO(text, newline="")))[1:]

        axes = min(k, 2)
        assert ([row[1:1 + axes] for row in rows("plots/loadings.csv")]
                == [row[1:1 + axes] for row in rows("loadings.csv")])
        if axes == 2:
            score_rows = [row[1:] for row in rows("plots/biplot.csv") if row[0] == "score"]
            assert score_rows == [row[:3] for row in rows("scores.csv")]

    def test_missing_input_names_failing_stage(self, tmp_path):
        conf = write_conf(tmp_path, "input = nope.csv\noutput_dir = out\n")
        with pytest.raises(ValidationError, match="^load: "):
            run_pipeline(load_pipeline_config(conf))


def files_under(directory: Path) -> set[str]:
    return {path.relative_to(directory).as_posix() for path in directory.rglob("*")
            if path.is_file()}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRerun:
    """A rerun into one output directory deletes what the earlier manifest
    lists, where the path is one a run writes and the checksum still holds."""

    def first_run(self, tmp_path: Path) -> Path:
        """The sample with the default config into tmp_path/out; returns out."""
        conf = write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\n")
        return run_pipeline(load_pipeline_config(conf)).output_dir

    def raw_rerun(self, tmp_path: Path) -> pipeline.RunArtifacts:
        """The sample clustered in the raw space only, k = 3, into tmp_path/out."""
        conf = write_conf(tmp_path, f"input = {SAMPLE}\ncluster_space = raw\nk_regions = 3\n"
                                    "output_dir = out\n", "raw.conf")
        return run_pipeline(load_pipeline_config(conf))

    def test_second_run_leaves_exactly_its_manifests_files(self, tmp_path):
        out = self.first_run(tmp_path)
        first_files = files_under(out)
        artifacts = self.raw_rerun(tmp_path)
        # concordance.txt, dendrogram_components.csv, partition_components.csv
        # and profiles/cluster_4.csv belong to the first run only
        assert {"concordance.txt", "profiles/cluster_4.csv"} <= first_files - set(artifacts.files)
        assert files_under(out) == {*artifacts.files, "manifest.txt"}

    def test_edited_and_unrelated_files_survive(self, tmp_path):
        out = self.first_run(tmp_path)
        with (out / "concordance.txt").open("a", encoding="utf-8") as handle:
            handle.write("my note\n")
        (out / "notes.txt").write_text("mine\n", encoding="utf-8")
        (out / "plots" / "extra.svg").write_text("<svg/>\n", encoding="utf-8")
        # a file that another tool's manifest names, listed with its checksum
        with (out / "manifest.txt").open("a", encoding="utf-8") as handle:
            handle.write(f"{sha256_of(out / 'notes.txt')}  notes.txt\n")
        artifacts = self.raw_rerun(tmp_path)
        assert files_under(out) == {*artifacts.files, "manifest.txt", "concordance.txt",
                                    "notes.txt", "plots/extra.svg"}
        assert (out / "concordance.txt").read_text(encoding="utf-8").endswith("my note\n")

    @pytest.mark.parametrize("lines, message", [
        (f"input = {SAMPLE}\nk_regions = 100", "k_regions=100 exceeds region count 85"),
        (f"input = {SAMPLE}\nk_vars = 50", "k_vars=50 exceeds indicator count 19"),
        ("input = big.csv", "16385 regions exceed the 16384-point limit of the "
                            "condensed distance vector (1 GiB)"),
    ], ids=["k_regions", "k_vars", "16385-regions"])
    def test_a_config_the_table_cannot_take_keeps_the_earlier_run(self, tmp_path, capsys,
                                                                   lines, message):
        out = self.first_run(tmp_path)
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert len(before) == 26  # 25 artifacts and manifest.txt
        if "big.csv" in lines:
            # unique labels, and a table that loads: only its size is refused
            rows = np.random.default_rng(73).standard_normal((MAX_POINTS + 1, 2))
            write_grid_csv(tmp_path / "big.csv", rows)
        conf = write_conf(tmp_path, f"{lines}\noutput_dir = out\n", "rerun.conf")
        assert cli.main(["run", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: load: {message}"]
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before
        assert {path for path in out.rglob("*") if path.is_dir()} == {out / "plots", out / "profiles"}

    def test_a_rerun_over_an_older_layout_removes_its_plot_csvs(self, tmp_path):
        # earlier versions also wrote the three plot CSVs, and a run with
        # more clusters a ninth profile table, here edited after its listing
        out = self.first_run(tmp_path)
        older = ["plots/dendrograms.csv", "plots/heatmap.csv", "plots/scree.csv",
                 "profiles/cluster_9.csv"]
        with (out / "manifest.txt").open("a", encoding="utf-8") as manifest:
            for rel in older:
                (out / rel).write_text(f"{rel}\n1.0,2.0\n", encoding="utf-8")
                manifest.write(f"{sha256_of(out / rel)}  {rel}\n")
        with (out / older[-1]).open("a", encoding="utf-8") as handle:
            handle.write("my note\n")
        self.first_run(tmp_path)
        listed = {line.split("  ", 1)[1]
                  for line in (out / "manifest.txt").read_text(encoding="utf-8").splitlines()}
        assert not set(older) & listed
        assert files_under(out) == {*listed, "manifest.txt", older[-1]}
        assert (out / older[-1]).read_text(encoding="utf-8").endswith("my note\n")

    def test_paths_outside_the_directory_are_never_deleted(self, tmp_path):
        outside = tmp_path / "scores.csv"
        outside.write_text("kept\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        digest = sha256_of(outside)
        (out / "manifest.txt").write_text(
            f"{digest}  ../scores.csv\n{digest}  {outside}\n{digest}  plots/../../scores.csv\n"
            "not a manifest line\n", encoding="utf-8")
        self.first_run(tmp_path)
        assert outside.read_text(encoding="utf-8") == "kept\n"


class TestStreamedArtifacts:
    """No artifact is held whole: figures go to disk line by line, and the
    manifest hashes each file a chunk at a time."""

    def test_figures_written_without_holding_a_document(self, tmp_path, monkeypatch):
        z = np.random.default_rng(137).standard_normal((3000, 19))
        order = list(range(3000))
        regions = [f"R{i}" for i in range(3000)]
        indicators = [f"V{j}" for j in range(19)]
        assignment = [1 + i % 4 for i in range(3000)]
        figures = {"heatmap": lambda: svgplot.heatmap_svg(z, regions, indicators, order),
                   "parallel": lambda: svgplot.parallel_coordinates_svg(z, indicators,
                                                                        assignment, order)}
        # one job per write phase, which never forks: its memory is this process's
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a sink of one job forked"))
        tracemalloc.start()
        try:
            for name, figure in figures.items():
                sink = pipeline._Sink(tmp_path / name)
                sink.text("figure.svg", z.size, figure())
                sink.write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum((tmp_path / name / "figure.svg").stat().st_size for name in figures)
        assert size > 4 * 2**20
        assert peak < size / 4

    def test_manifest_hashes_without_reading_a_file_whole(self, tmp_path):
        sink = pipeline._Sink(tmp_path)
        blob = np.random.default_rng(139).bytes(6 * 2**20)
        small = b"one line\n"
        sink.add("plots/big.bin", 0, Path.write_bytes, blob)
        sink.add("small.txt", 0, Path.write_bytes, small)
        tracemalloc.start()
        try:
            manifest, files = sink.write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert files == ("plots/big.bin", "small.txt")
        assert manifest.read_text() == (
            f"{hashlib.sha256(blob).hexdigest()}  plots/big.bin\n"
            f"{hashlib.sha256(small).hexdigest()}  small.txt\n")

    @pytest.mark.parametrize("rule", ["kaiser", "fixed:1"])
    def test_pca_stage_and_plots_take_one_score_product_each(self, tmp_path, monkeypatch, rule):
        counts = Counter()

        def counting(*args, original=pipeline.scores):
            counts["scores"] += 1
            return original(*args)

        monkeypatch.setattr(pipeline, "scores", counting)
        conf = write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\ncomponents = {rule}\n")
        artifacts = run_pipeline(load_pipeline_config(conf))
        assert (artifacts.model.k >= 2) == (rule == "kaiser")
        assert counts == {"scores": 2}


class TestWritePhase:
    """The stages register jobs; the write phase writes them from one queue,
    largest first, claimed by two processes when a second can take enough
    of them, and always reaps the second."""

    # 400 x 60: the queue holds about 90 000 values, so the run forks to
    # write, and its 400 regions fork to cluster as well
    SPLIT_CONF = ("synthetic = true\nn = 400\np = 60\nclusters = 4\nseed = 5\n"
                  "output_dir = out\n")

    @staticmethod
    @contextlib.contextmanager
    def deadline(seconds: int):
        """The block fails with TimeoutError, rather than hang, after seconds."""
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def run_planted(self, tmp_path, monkeypatch, capsys, process, plant) -> tuple[int, list[str]]:
        """Run SPLIT_CONF through the CLI, calling plant(path) before the
        first job that process ("child" or "this process") writes, whichever
        job that is: (exit code, stderr lines)."""
        conf = write_conf(tmp_path, self.SPLIT_CONF)
        parent = os.getpid()
        planted = []  # each process has its own copy

        def planting(job):
            def write(*args):
                if not planted and (os.getpid() != parent) == (process == "child"):
                    planted.append(job)
                    plant(args[0])
                return job.write(*args)
            return dataclasses.replace(job, write=write)

        def write(sink, original=pipeline._Sink.write):
            sink.jobs = [planting(job) for job in sink.jobs]
            return original(sink)

        monkeypatch.setattr(pipeline._Sink, "write", write)
        with self.deadline(60):
            code = cli.main(["run", "--config", str(conf)])
        return code, capsys.readouterr().err.splitlines()

    def assert_failed_and_reaped(self, tmp_path, code, err, forks, message):
        assert forks == {"cluster-regions": 1, "manifest": 1}
        assert code == 1
        assert len(err) == 1 and re.fullmatch(message, err[0]), err
        assert not (tmp_path / "out" / "manifest.txt").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # this process kills its child when its own job fails
    @pytest.mark.parametrize("process", ["child", "this process"], ids=["child", "this-process"])
    def test_a_blocked_path_names_the_stage_that_made_it(self, tmp_path, monkeypatch, capsys,
                                                         forks, process):
        def block(path):
            path.mkdir(parents=True)

        code, err = self.run_planted(tmp_path, monkeypatch, capsys, process, block)
        self.assert_failed_and_reaped(tmp_path, code, err, forks,
                                      "error: manifest: .*Is a directory: '.*'")
        blocked = Path(re.fullmatch(".*'(.*)'", err[0])[1])
        assert blocked.is_dir() and blocked.is_relative_to(tmp_path / "out")

    def test_a_child_that_dies_without_a_report_fails_the_run(self, tmp_path, monkeypatch, capsys,
                                                              forks):
        def die(path):
            os.kill(os.getpid(), signal.SIGKILL)

        code, err = self.run_planted(tmp_path, monkeypatch, capsys, "child", die)
        self.assert_failed_and_reaped(
            tmp_path, code, err, forks,
            "error: manifest: the second process ended with status -9 and no report")

    def test_a_child_killed_holding_the_next_number_fails_the_run(self, tmp_path, monkeypatch,
                                                                  capsys, forks):
        # the child dies at its second claim, once it has read the number:
        # this process drains the rest of the queue, and must then see the
        # child gone without a report, its claimed job unwritten
        parent = os.getpid()
        claims = []

        def read(fd, size, original=os.read):
            data = original(fd, size)
            if os.getpid() != parent and size == 4:
                claims.append(data)
                if len(claims) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return data

        monkeypatch.setattr(os, "read", read)
        code, err = self.run_planted(tmp_path, monkeypatch, capsys, "child", lambda path: None)
        self.assert_failed_and_reaped(
            tmp_path, code, err, forks,
            "error: manifest: the second process ended with status -9 and no report")

    # a fresh interpreter shares 3 000 jobs with its child, and is killed
    # at its 50th claim, once it has read the number. The orphaned child may
    # drain the rest of the queue first; it must then leave on the closed
    # report pipe, not wait for this process
    KILLED_HOLDING = """\
import os, signal, sys
from pathlib import Path
from pcacluster import pipeline
out = Path(sys.argv[1])
sink = pipeline._Sink(out)
for i in range(3000):
    sink.add(f"{i}.txt", 10, lambda path: path.write_text("x" * 1000))
parent, claims, fork, read = os.getpid(), [], os.fork, os.read

def recording_fork():
    pid = fork()
    if pid:
        (out / "child.pid").write_text(str(pid))
    return pid

def dying_read(fd, size):
    data = read(fd, size)
    if os.getpid() == parent and size == 4:
        claims.append(data)
        if len(claims) == 50:
            os.kill(parent, signal.SIGKILL)
    return data

os.fork, os.read = recording_fork, dying_read
sink.write()
"""

    def test_a_process_killed_holding_the_next_number_leaves_no_child_waiting(self, tmp_path):
        done = subprocess.run([sys.executable, "-c", TWO_CPUS + self.KILLED_HOLDING, str(tmp_path)],
                              env=child_env({}), capture_output=True, text=True, timeout=60)
        assert done.returncode == -signal.SIGKILL, done.stderr
        status = Path(f"/proc/{(tmp_path / 'child.pid').read_text()}/status")
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:  # gone, or a zombie no one has reaped yet
                if "\nState:\tZ" in status.read_text():
                    break
            except FileNotFoundError:
                break
            time.sleep(0.01)
        else:
            pytest.fail("the child still waits for a number")
        assert not (tmp_path / "manifest.txt").exists()

    def test_an_interrupt_in_this_process_kills_and_reaps_the_child(self, tmp_path, monkeypatch,
                                                                    capsys, two_cpus):
        def interrupt(path):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self.run_planted(tmp_path, monkeypatch, capsys, "this process", interrupt)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_sample_writes_in_one_process(self, tmp_path, forks):
        conf = write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\n")
        run_pipeline(load_pipeline_config(conf))
        assert forks == {}

    def test_jobs_are_claimed_largest_first(self, tmp_path):
        # too few values to fork: this process drains the queue alone
        written = []
        sink = pipeline._Sink(tmp_path)
        for name, values in zip("abcdef", (3, 9, 4, 5, 1, 5)):
            sink.add(name, values, lambda path: written.append(path.name) or path.touch())
        assert sink.write()[1] == tuple("abcdef")
        assert written == list("bdfcae")  # 9, 5, 5 (as registered), 4, 3, 1

    def test_no_job_is_claimed_twice(self, tmp_path, monkeypatch, forks):
        # 2 000 jobs shared with a forked child, each creating its file: a job
        # claimed by both processes, or twice by one, raises FileExistsError.
        # Each claim waits for the next 0.5 ms tick of the clock that both
        # processes read, so that their claims often coincide
        def create(path):
            with path.open("x") as out:
                out.write(path.name)

        def read(fd, size, original=os.read):
            if size == 4:
                tick = time.monotonic_ns() // 500_000 + 1
                while time.monotonic_ns() // 500_000 < tick:
                    pass
            return original(fd, size)

        sink = pipeline._Sink(tmp_path)
        for i in range(2000):
            sink.add(f"{i}.txt", 10, create)
        monkeypatch.setattr(os, "read", read)
        with self.deadline(60), pipeline._stage("manifest"):
            files = sink.write()[1]
        assert forks == {"manifest": 1}
        assert files == tuple(sorted(f"{i}.txt" for i in range(2000)))
        assert all((tmp_path / rel).read_text() == rel for rel in files)

    def test_a_filesystem_without_o_tmpfile_keeps_the_bytes(self, tmp_path, monkeypatch, forks):
        # refused O_TMPFILE, tempfile creates a named queue file and unlinks it
        refused = []

        def open_without_tmpfile(path, flags, *args, original=os.open, **kwargs):
            if flags & os.O_TMPFILE == os.O_TMPFILE:
                refused.append(path)
                raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))
            return original(path, flags, *args, **kwargs)

        runs = {}
        for name in ("named", "unnamed"):
            conf = write_conf(tmp_path, self.SPLIT_CONF.replace("= out", f"= {name}"),
                              f"{name}.conf")
            with monkeypatch.context() as patch, self.deadline(60):
                if name == "named":
                    patch.setattr(os, "open", open_without_tmpfile)
                runs[name] = run_pipeline(load_pipeline_config(conf))
        assert len(refused) == 1
        assert forks == {"cluster-regions": 2, "manifest": 2}
        named, unnamed = (runs[name].manifest_path.read_bytes() for name in runs)
        assert named == unnamed
        on_disk = {path.relative_to(tmp_path / "named").as_posix()
                   for path in (tmp_path / "named").rglob("*") if path.is_file()}
        assert on_disk == {*runs["named"].files, "manifest.txt"}

    def test_a_queue_that_cannot_be_written_fails_the_run(self, tmp_path, monkeypatch, capsys):
        # /dev/full takes no byte, as a full disk: the queue's write raises
        # ENOSPC rather than leave jobs out of the manifest
        monkeypatch.setattr(pipeline.tempfile, "TemporaryFile",
                            lambda dir: open("/dev/full", "w+b"))
        conf = write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\n")
        assert cli.main(["run", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: manifest: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert not (tmp_path / "out" / "manifest.txt").exists()

    # 2000 clusters: about 2 000 profile jobs, so the report of the child's
    # digests, about 100 KB, fills a one-page pipe many times over
    QUEUE_CONF = ("synthetic = true\nn = 2000\np = 4\nclusters = 4\nseed = 5\n"
                  "cluster_space = raw\nk_regions = 2000\noutput_dir = {out}\n")

    def test_a_childs_report_longer_than_a_one_page_pipe_arrives(self, tmp_path, monkeypatch,
                                                                forks):
        # Linux also gives new pipes one page once a user's pipes pass
        # pipe-user-pages-soft
        def one_page_pipe(original=os.pipe):
            read_end, write_end = original()
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
            return read_end, write_end

        config = load_pipeline_config(write_conf(tmp_path, self.QUEUE_CONF.format(out="split")))
        with monkeypatch.context() as patch, self.deadline(120):
            patch.setattr(os, "pipe", one_page_pipe)
            split = run_pipeline(config)
        assert forks == {"manifest": 1}
        forks.clear()
        monkeypatch.setattr(pipeline, "_FORK_VALUES", math.inf)
        config = load_pipeline_config(write_conf(tmp_path, self.QUEUE_CONF.format(out="alone")))
        alone = run_pipeline(config)
        assert forks == {}
        assert len(alone.files) > 2000
        assert split.manifest_path.read_bytes() == alone.manifest_path.read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestClusteringFork:
    """With both spaces and enough regions, the components space is
    clustered in a forked child while this process clusters the raw one."""

    # the perfbench regions workload at seed 7: 1000 x 19, both spaces
    REGIONS_CONF = ("synthetic = true\nn = 1000\np = 19\nclusters = 4\nseparation = 10\n"
                    "seed = 7\nk_regions = 4\ncluster_space = both\noutput_dir = out\n")

    @staticmethod
    def in_space(monkeypatch, space: str, error: BaseException) -> None:
        """euclidean_distances raises error on the space's points, and passes
        the other space's through; the message says which process it ran in."""
        parent = os.getpid()

        def distances(points, original=pipeline.euclidean_distances):
            if (points.shape[1] == 19) == (space == "raw"):
                where = "this process" if os.getpid() == parent else "the child"
                raise type(error)(f"{error} in {where}")
            return original(points)

        monkeypatch.setattr(pipeline, "euclidean_distances", distances)

    def test_one_fork_per_stage_on_the_regions_workload(self, tmp_path, forks):
        artifacts = run_pipeline(load_pipeline_config(write_conf(tmp_path, self.REGIONS_CONF)))
        assert forks == {"cluster-regions": 1, "manifest": 1}
        assert artifacts.partitions["raw"].k == artifacts.partitions["components"].k == 4

    def test_the_sample_clusters_in_one_process(self, tmp_path, forks):
        run_pipeline(load_pipeline_config(write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\n")))
        assert forks == {}

    @staticmethod
    @contextlib.contextmanager
    def another_thread(start: str):
        """Another thread waits while the block runs, and has ended once the
        block is left. threading.active_count() misses one that _thread starts.
        Such a thread counts itself in _thread._count() only once it holds the
        GIL, so the block waits for that: the run must see it from its start."""
        stop = threading.Lock()
        stop.acquire()
        if start == "threading":
            threading.Thread(target=stop.acquire).start()
        else:
            _thread.start_new_thread(stop.acquire, ())
        deadline = time.monotonic() + 10
        while not _thread._count() and time.monotonic() < deadline:
            time.sleep(0.001)
        try:
            assert _thread._count() == 1
            assert threading.active_count() == (2 if start == "threading" else 1)
            yield
        finally:
            stop.release()
            deadline = time.monotonic() + 10
            while _thread._count() and time.monotonic() < deadline:
                time.sleep(0.001)
        assert _thread._count() == 0

    @pytest.mark.parametrize("start", ["threading", "_thread"])
    def test_no_fork_beside_another_thread(self, tmp_path, forks, start):
        with self.another_thread(start):
            run_pipeline(load_pipeline_config(write_conf(tmp_path, self.REGIONS_CONF)))
        assert forks == {}

    def test_the_childs_dendrogram_equals_the_serial_one(self, tmp_path, monkeypatch, two_cpus):
        config = load_pipeline_config(write_conf(tmp_path, self.REGIONS_CONF))
        dendrograms = []

        def cut(dend, k, original=pipeline.cut):
            dendrograms.append(dend)
            return original(dend, k)

        monkeypatch.setattr(pipeline, "cut", cut)
        run_pipeline(config)
        forked = dendrograms[1]
        monkeypatch.setattr(pipeline, "_FORK_REGIONS", 10**9)
        run_pipeline(config)
        serial = dendrograms[4]  # raw, components, variables, then the serial run's
        assert not forked.merges.flags.writeable
        assert forked.n_leaves == serial.n_leaves
        assert np.array_equal(forked.merges, serial.merges)

    def test_an_error_in_the_childs_space_reaches_the_cli(self, tmp_path, monkeypatch, capsys,
                                                          forks):
        self.in_space(monkeypatch, "components", NumericalError("planted"))
        code = cli.main(["run", "--config", str(write_conf(tmp_path, self.REGIONS_CONF))])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cluster-regions: planted in the child"]
        assert forks == {"cluster-regions": 1}
        assert not (tmp_path / "out").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_killed_while_clustering_reaches_the_cli(self, tmp_path, monkeypatch, capsys,
                                                             forks):
        # what an OOM kill of the clustering child looks like (README, Memory)
        parent = os.getpid()

        def distances(points, original=pipeline.euclidean_distances):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(points)

        monkeypatch.setattr(pipeline, "euclidean_distances", distances)
        code = cli.main(["run", "--config", str(write_conf(tmp_path, self.REGIONS_CONF))])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cluster-regions: the second process ended with status -9 and no report"]
        assert forks == {"cluster-regions": 1}
        assert not (tmp_path / "out").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupt_in_this_processs_space_reaps_the_child(self, tmp_path, monkeypatch,
                                                                 forks):
        self.in_space(monkeypatch, "raw", KeyboardInterrupt("planted"))
        with pytest.raises(KeyboardInterrupt, match="planted in this process"):
            cli.main(["run", "--config", str(write_conf(tmp_path, self.REGIONS_CONF))])
        assert forks == {"cluster-regions": 1}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # CPython 3.12 and later warn at os.fork() in a process with more than
    # one OS thread, and under an "error" filter drop that warning silently,
    # so only a fresh interpreter under -W always shows it. On 3.11 there
    # is no such warning and this test cannot fail; it has force on 3.12+.
    # numpy loaded first starts OpenBLAS at its default thread count, as in
    # the perfbench harness; the CLI loads it with one thread.
    FRESH = """\
import os, sys
{imports}
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
from pcacluster.cli import main
code = main(["run", "--config", sys.argv[1]])
print(len(forks))
sys.exit(code)
"""

    @pytest.mark.parametrize("imports", ["", "import numpy"], ids=["cli", "numpy-first"])
    def test_no_multi_threaded_fork_warning(self, tmp_path, imports):
        conf = write_conf(tmp_path, self.REGIONS_CONF)
        done = subprocess.run(
            [sys.executable, "-W", "always", "-c", TWO_CPUS + self.FRESH.format(imports=imports),
             str(conf)],
            env=child_env({}), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "2"  # it forked to cluster and to write
        assert "multi-threaded" not in done.stderr


class TestBenchmarkTracing:
    """perfbench/tracing.py wraps pcacluster functions by name and reads their results."""

    def test_traced_names_resolve_and_are_restored(self, tmp_path, tracing):
        config = load_pipeline_config(write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\n"))
        original = linalg.jacobi_eigen
        tracer = tracing.Tracer()
        try:
            tracer.install()
            run_pipeline(config)
        finally:
            tracer.uninstall()
        assert tracer.counts[0]["linalg.jacobi_eigen.order"] == 19
        # two spaces of 85 regions, then 19 indicators
        assert tracer.counts[0]["hclust.euclidean_distances.pairs"] == 7140
        assert tracer.counts[0]["hclust.complete_linkage.merges"] == 186
        assert pca.jacobi_eigen is original and linalg.jacobi_eigen is original


class TestClusterSpaces:
    def test_raw_only_run_skips_component_artifacts(self, tmp_path):
        conf = synth_conf(tmp_path, extra="cluster_space = raw\n")
        artifacts = run_pipeline(load_pipeline_config(conf))
        assert "concordance.txt" not in artifacts.files
        assert "dendrogram_components.csv" not in artifacts.files
        assert "partition_raw.csv" in artifacts.files

    def test_components_only_run(self, tmp_path):
        conf = synth_conf(tmp_path, extra="cluster_space = components\n")
        artifacts = run_pipeline(load_pipeline_config(conf))
        assert "dendrogram_raw.csv" not in artifacts.files
        assert "partition_components.csv" in artifacts.files

    # 400 regions, where a both-space run clusters in two processes; at
    # separation 3 the two spaces' partitions differ in most regions
    FORK_SIZE_CONF = ("synthetic = true\nn = 400\np = 19\nclusters = 4\nseparation = 3\n"
                      "seed = 7\noutput_dir = {out}\n")

    @staticmethod
    def assert_plotted_partition(out: Path, space: str) -> None:
        """The cluster column of plots/parallel_coordinates.csv is partition_<space>.csv's."""
        with (out / f"partition_{space}.csv").open(newline="", encoding="utf-8") as handle:
            final = dict(csv.reader(handle))
        with (out / "plots" / "parallel_coordinates.csv").open(newline="", encoding="utf-8") as handle:
            plotted = {row[0]: row[1] for row in csv.reader(handle)}
        assert plotted == final

    @pytest.mark.parametrize("space", ["raw", "components"])
    def test_one_space_at_fork_size_clusters_in_one_process(self, tmp_path, forks, space):
        both = run_pipeline(load_pipeline_config(
            write_conf(tmp_path, self.FORK_SIZE_CONF.format(out="both"), "both.conf")))
        assert forks["cluster-regions"] == 1
        self.assert_plotted_partition(both.output_dir, "components")
        forks.clear()
        one = run_pipeline(load_pipeline_config(write_conf(
            tmp_path, self.FORK_SIZE_CONF.format(out="one") + f"cluster_space = {space}\n",
            "one.conf")))
        assert "cluster-regions" not in forks
        for rel in (f"dendrogram_{space}.csv", f"partition_{space}.csv"):
            assert (one.output_dir / rel).read_bytes() == (both.output_dir / rel).read_bytes(), rel
        self.assert_plotted_partition(one.output_dir, space)


class TestBoundaries:
    def test_every_region_its_own_cluster(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "synthetic = true\nn = 12\np = 3\nclusters = 2\nseparation = 4\n"
            "k_regions = 12\nk_vars = 2\noutput_dir = out\n",
        )
        artifacts = run_pipeline(load_pipeline_config(conf))
        final = artifacts.partitions["components"]
        assert final.k == 12
        text = (artifacts.output_dir / "profiles/cluster_1.csv").read_text()
        assert ",n/a," in text  # singleton clusters: undefined spread stats

    def test_zero_grand_mean_and_constant_clusters(self, tmp_path):
        # column a has grand mean 0.0 and is constant within each cluster:
        # no percent, and no skewness or kurtosis of a zero spread
        cells = [[a, b] for a in ("3", "-3") for b in ("1", "2", "1.5", "2.5")]
        (tmp_path / "t.csv").write_text(csv_text(cells), encoding="utf-8")
        conf = write_conf(tmp_path, "input = t.csv\nk_regions = 2\nk_vars = 1\noutput_dir = out\n")
        out = run_pipeline(load_pipeline_config(conf)).output_dir
        assert (out / "profiles.csv").read_text().splitlines()[1] == "1,a,3.0,0.0,,,"
        assert (out / "profiles/cluster_1.csv").read_text().splitlines()[1] == "a,3,0,n/a,n/a,n/a"

    def test_k_regions_above_n_fails_before_any_artifact(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "synthetic = true\nn = 8\np = 3\nclusters = 2\nseparation = 4\n"
            "k_regions = 9\nk_vars = 2\noutput_dir = out\n",
        )
        with pytest.raises(ValidationError, match="^load: k_regions=9 exceeds region count 8$"):
            run_pipeline(load_pipeline_config(conf))
        # the table was drawn, but neither it nor the truth was written
        assert not (tmp_path / "out").exists()

    def test_duplicate_rows_deeper_than_recursion_limit(self, tmp_path):
        # 1094 copies of one row chain 1094 zero-height merges, deeper than
        # the default recursion limit
        rows = np.random.default_rng(61).random((1100, 5))
        rows[6:] = rows[5]
        write_grid_csv(tmp_path / "dup.csv", rows)
        conf = write_conf(tmp_path, "input = dup.csv\noutput_dir = out\n")
        artifacts = run_pipeline(load_pipeline_config(conf))
        merges = (artifacts.output_dir / "dendrogram_raw.csv").read_text().splitlines()[1:]
        assert len(merges) == 1099
        assert {line.split(",")[3] for line in merges[:1094]} == {"0.0"}
        assert artifacts.partitions["raw"].n_items == 1100

    def test_component_label_count_must_match_k(self, tmp_path):
        conf = synth_conf(tmp_path, extra="components = fixed:3\ncomponent_labels = one|two\n")
        with pytest.raises(ValidationError, match="component labels"):
            run_pipeline(load_pipeline_config(conf))

    def test_component_labels_applied(self, tmp_path):
        conf = synth_conf(
            tmp_path,
            extra="components = fixed:2\ncomponent_labels = capital|demography\n",
        )
        artifacts = run_pipeline(load_pipeline_config(conf))
        header = (artifacts.output_dir / "scores.csv").read_text().splitlines()[0]
        assert header == "region,capital,demography"

    def test_one_labeled_component_names_the_first_scatter_axis(self, tmp_path):
        conf = synth_conf(tmp_path, extra="components = fixed:1\ncomponent_labels = capital\n")
        out = run_pipeline(load_pipeline_config(conf)).output_dir
        assert (out / "scores.csv").read_text().splitlines()[0] == "region,capital"
        assert (out / "plots" / "loadings.csv").read_text().splitlines()[0] == "indicator,capital,f2"
        for figure in ("loadings.svg", "biplot.svg"):
            svg = (out / "plots" / figure).read_text()
            assert ">capital</text>" in svg and ">f2</text>" in svg and ">f1</text>" not in svg

    def test_an_unretained_second_axis_is_not_named_as_the_first(self, tmp_path):
        conf = synth_conf(tmp_path, extra="components = fixed:1\ncomponent_labels = f2\n")
        out = run_pipeline(load_pipeline_config(conf)).output_dir
        with (out / "plots" / "loadings.csv").open(newline="", encoding="utf-8") as handle:
            assert csv.DictReader(handle).fieldnames == ["indicator", "f2", "f3"]
        for figure in ("loadings.svg", "biplot.svg"):
            svg = (out / "plots" / figure).read_text()
            assert svg.count(">f2</text>") == 1 and svg.count(">f3</text>") == 1, figure


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert "pcacluster 0.1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["run"], ["synth", "--spec", "x", "--out", "y"]],
                             ids=["no-command", "no-config", "unknown-command"])
    def test_usage_error_exit_1(self, capsys, argv):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("argv, code", [("--version", 0), ("run", 1)],
                             ids=["version", "usage-error"])
    def test_parses_before_loading_the_pipeline(self, argv, code):
        # the child prints the modules its CLI call loaded
        child = subprocess.run(
            [sys.executable, "-c", "import atexit, sys\n"
             "atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))\n"
             "from pcacluster.cli import main\n"
             f"sys.exit(main([{argv!r}]))"],
            env=child_env({}), capture_output=True, text=True)
        assert child.returncode == code
        loaded = child.stderr.splitlines()[-1]
        for module in ("pcacluster.pipeline", "pcacluster.config", "_hashlib"):
            assert repr(module) not in loaded, module

    def test_run_success(self, tmp_path, capsys):
        conf = synth_conf(tmp_path)
        assert cli.main(["run", "--config", str(conf)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out

    def test_run_validation_failure_exit_1(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "input = nope.csv\noutput_dir = out\n")
        assert cli.main(["run", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: load:")
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_truth_partition_names_the_manifest_stage_and_the_path(self, tmp_path,
                                                                              capsys):
        # the load stage made the job, but the error is raised while writing
        conf = synth_conf(tmp_path)
        blocked = tmp_path / "out" / "partition_truth.csv"
        blocked.mkdir(parents=True)
        message = f"manifest: .*Is a directory: '{re.escape(str(blocked))}'"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            run_pipeline(load_pipeline_config(conf))
        assert cli.main(["run", "--config", str(conf)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(f"error: {message}", err[0]), err

    # the stage records are what perfbench/tracing.py parses into stage spans
    @pytest.mark.parametrize("verbose", ["1", "0", None], ids=["on", "off", "unset"])
    def test_verbose_logs_each_stage_in_order(self, tmp_path, tracing, verbose):
        conf = write_conf(tmp_path, f"input = {SAMPLE}\noutput_dir = out\n")
        env = {key: value for key, value in child_env({}).items() if key != "PCACLUSTER_VERBOSE"}
        if verbose is not None:
            env["PCACLUSTER_VERBOSE"] = verbose
        done = subprocess.run([sys.executable, "-m", "pcacluster.cli", "run", "--config", str(conf)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert len(tracing.STAGES) == 10
        stages = "".join(f"pcacluster.pipeline: stage {name}\n" for name in tracing.STAGES)
        assert done.stderr == (stages if verbose == "1" else "")

    @pytest.mark.parametrize("files", [
        {"t.csv": "region,a,b\nr\xe9,1,2\n".encode("latin-1"),
         "pipe.conf": b"input = t.csv\noutput_dir = out\n"},
        {"pipe.conf": "# caf\xe9\nsynthetic = true\noutput_dir = out\n".encode("latin-1")},
        {"t.csv": ('region,a,b\n"' + "x" * 200_000 + '",1,2\n').encode("utf-8"),
         "pipe.conf": b"input = t.csv\noutput_dir = out\n"},
    ], ids=["latin-1-table", "latin-1-config", "oversized-cell"])
    def test_unreadable_text_exit_1(self, tmp_path, capsys, files):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        assert cli.main(["run", "--config", str(tmp_path / "pipe.conf")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"cannot read {tmp_path}" in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", [
        ("components = cumulative:nan", "cumulative threshold must be a number, got nan"),
        ("component_labels = a | a",
         "component_labels must be distinct and non-empty, got ('a', 'a')"),
        ("component_labels = a || b",
         "component_labels must be distinct and non-empty, got ('a', '', 'b')"),
    ], ids=["cumulative-nan", "duplicate-label", "empty-label"])
    def test_meaningless_component_setting_exit_1(self, tmp_path, capsys, line, message):
        conf = write_conf(tmp_path, f"synthetic = true\n{line}\noutput_dir = out\n")
        assert cli.main(["run", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {conf}: {message}"]
        assert not (tmp_path / "out").exists()

    # the config's lines and the stderr line, with {conf} for the config's
    # path and {table} for the empty table's
    @pytest.mark.parametrize("text, message", [
        ("input empty.csv", "{conf}:1: expected 'key = value', got 'input empty.csv'"),
        ("synthetic = true\ncomponents = kaiser:2", "{conf}: kaiser takes no argument"),
        ("synthetic = true\ncomponents = fixed:x", "{conf}: fixed rule needs an integer, got 'x'"),
        ("synthetic = true\ncomponents = cumulative:abc",
         "{conf}: cumulative rule needs a number, got 'abc'"),
        ("synthetic = true\nk_vars = 0", "{conf}: k_vars must be at least 1"),
        ("input = empty.csv", "load: {table}: empty file"),
    ], ids=["no-equals-sign", "kaiser-argument", "fixed-not-integer", "cumulative-not-number",
            "k-vars-zero", "empty-table"])
    def test_config_or_table_error_exit_1(self, tmp_path, capsys, text, message):
        table = tmp_path / "empty.csv"
        table.touch()
        conf = write_conf(tmp_path, f"{text}\noutput_dir = out\n")
        assert cli.main(["run", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.format(conf=conf, table=table)]
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exit_2(self, tmp_path, monkeypatch, capsys):
        conf = synth_conf(tmp_path)

        def boom(config):
            raise NumericalError("pca: jacobi eigensolver did not converge")

        monkeypatch.setattr(pipeline, "run_pipeline", boom)
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.startswith("error: pca:")

    def test_out_of_memory_exit_1(self, tmp_path, monkeypatch, capsys):
        conf = synth_conf(tmp_path)

        def exhausted(config):
            raise MemoryError("Unable to allocate 74.5 TiB for an array")

        monkeypatch.setattr(pipeline, "run_pipeline", exhausted)
        assert cli.main(["run", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory: Unable to allocate 74.5 TiB for an array"
        ]

    def test_overflowing_column_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(67)
        grid = np.column_stack([np.tile([1e300, -1e300], 5), rng.standard_normal(10)])
        write_grid_csv(tmp_path / "huge.csv", grid)
        conf = write_conf(tmp_path, "input = huge.csv\nk_vars = 2\noutput_dir = out\n")
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: standardize: indicator 'V1' overflows float64: its mean or sd is not finite"
        ]

    @pytest.mark.parametrize("extra, message", [
        ("within_sd = 1e300\n",
         "standardize: indicator 'V01' overflows float64: its mean or sd is not finite"),
        ("separation = 1e308\n",
         "standardize: indicator 'V01' overflows float64: its mean or sd is not finite"),
        # the drawn values themselves overflow, and inf - inf would be NaN
        ("within_sd = 1e308\n",
         "load: the synthetic draw overflows float64 at separation=6, within_sd=1e+308"),
    ], ids=["within_sd = 1e300\n", "separation = 1e308\n", "within_sd = 1e308\n"])
    def test_overflowing_synthetic_table_exit_2(self, tmp_path, capsys, extra, message):
        conf = write_conf(tmp_path, "synthetic = true\noutput_dir = out\n" + extra)
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("extra, message", [
        ("seed = -1", "seed must be non-negative, got -1"),
        ("within_sd = inf", "within-cluster sd must be finite and positive, got inf"),
        ("separation = nan", "separation must be finite and non-negative, got nan"),
        ("n = 5\np = 3\nclusters = 9", "more clusters (9) than regions (5)"),
        (f"p = {10**18}", f"need n >= 3 and 2 <= p < n, got n=85, p={10**18}"),
        ("p = 85", "need n >= 3 and 2 <= p < n, got n=85, p=85"),
    ], ids=["seed", "within_sd", "separation", "clusters", "huge-p", "p-equals-n"])
    def test_bad_synthetic_spec_exit_1(self, tmp_path, capsys, extra, message):
        conf = write_conf(tmp_path, f"synthetic = true\noutput_dir = out\n{extra}\n")
        assert cli.main(["run", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {conf}: {message}"]
        assert not (tmp_path / "out" / "synthetic_table.csv").exists()

    def test_synthetic_regions_past_the_matrix_ceiling_exit_1_before_drawing(self, tmp_path,
                                                                              capsys):
        conf = write_conf(tmp_path, "synthetic = true\nn = 16385\np = 2\noutput_dir = out\n")
        assert cli.main(["run", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {conf}: 16385 regions exceed the 16384-point limit of the "
            "condensed distance vector (1 GiB)"
        ]
        assert not (tmp_path / "out" / "synthetic_table.csv").exists()

    @pytest.mark.parametrize("cells, k, message", [
        (GAP_CELLS, 2, "impute: indicator 'a' overflows float64: its mean is not finite"),
        (SKEW_CELLS, 1, "profile: cluster 1, indicator 'b': skewness overflows float64"),
        (TINY_MEAN_CELLS, 4,
         "profile: cluster 1, indicator 'a': to_country_average_percent overflows float64"),
    ], ids=["impute", "skewness", "percent"])
    def test_overflowing_statistic_exit_2(self, tmp_path, capsys, cells, k, message):
        (tmp_path / "t.csv").write_text(csv_text(cells), encoding="utf-8")
        conf = write_conf(tmp_path, f"input = t.csv\nk_regions = {k}\nk_vars = 1\noutput_dir = out\n")
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    # sd 1.3 at mean 1e12 sits near float64's spacing there, so the z-scores
    # miss mean 0 by about 1e-5; steps of 0.125 are a few units in the last
    # place at 1e15, so the mean is rounded off by a large part of the spread
    @pytest.mark.parametrize("column, message", [
        (lambda rng: 1e12 + 1.3 * rng.standard_normal(10), "mean 4.94e-05, sd 1"),
        (lambda rng: [1e15 + (i % 3) * 0.125 for i in range(10)], "mean 0.697, sd 0.678"),
    ], ids=["sd-1.3-at-1e12", "steps-at-1e15"])
    def test_column_too_narrow_to_z_score_exit_2(self, tmp_path, capsys, column, message):
        rng = np.random.default_rng(71)
        grid = np.column_stack([rng.standard_normal(10), column(rng)])
        write_grid_csv(tmp_path / "offset.csv", grid)
        conf = write_conf(tmp_path, "input = offset.csv\nk_vars = 2\noutput_dir = out\n")
        assert cli.main(["run", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: standardize: indicator 'V2' is not z-scored: {message} "
            "(its spread is lost to float64 rounding)"
        ]


FUZZ_CELLS = st.one_of(
    st.floats(min_value=-1e308, max_value=1e308).map(repr),
    st.sampled_from(["", "NA", "1e154", "1e307", "1e-320"]),
)
FUZZ_LINES = ["k_regions = 1", "k_regions = 2", "k_regions = 5", "k_vars = 1", "k_vars = 3",
              "components = fixed:1", "components = cumulative:99", "cluster_space = raw",
              "component_labels = x | y", "components = fixed:0",
              "components = cumulative:nan", "k_regions = 0"]
FUZZ_AMOUNTS = st.sampled_from(["0", "-1", "nan", "inf", "1e300", "1e308", "1e-320"])
# n and p include sizes far too large to draw; a key left out takes its default
FUZZ_SPEC = st.fixed_dictionaries({}, optional={
    "n": st.one_of(st.integers(3, 9), st.sampled_from([MAX_POINTS + 1, 10**30])),
    "p": st.one_of(st.integers(2, 4), st.just(10**18)),
    "clusters": st.sampled_from([0, 1, 3, 9]),
    "separation": FUZZ_AMOUNTS,
    "within_sd": FUZZ_AMOUNTS,
    "seed": st.sampled_from([-1, 0, 10**30]),
})
FUZZ_LINE_LISTS = st.lists(st.sampled_from(FUZZ_LINES), max_size=3,
                           unique_by=lambda line: line.split("=")[0])


@st.composite
def fuzz_cells(draw):
    n, p = draw(st.integers(3, 9)), draw(st.integers(2, 4))
    row = st.lists(FUZZ_CELLS, min_size=p, max_size=p)
    return draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def moderate_cells(draw):
    """Cells no statistic overflows on, distinct down each column, with more
    regions than indicators and enough indicators for every k_vars in
    FUZZ_LINES, so that some runs succeed."""
    p = draw(st.integers(4, 6))
    n = draw(st.integers(p + 1, 9))
    cells = st.floats(min_value=-1e6, max_value=1e6).map(repr)
    column = st.lists(cells, min_size=n, max_size=n, unique=True)
    return [list(row) for row in zip(*(draw(column) for _ in range(p)))]


def run_strictly(conf: Path) -> int:
    """cli.main on conf with every warning an error: exit 0, 1 or 2, and
    exactly one stderr line unless 0."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(["run", "--config", str(conf)])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1), err.getvalue()
    return code


class TestCliFuzz:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(cells=st.one_of(moderate_cells(), fuzz_cells()), lines=FUZZ_LINE_LISTS)
    @example(cells=GAP_CELLS, lines=["k_regions = 2", "k_vars = 1"])
    @example(cells=SKEW_CELLS, lines=["k_regions = 1", "k_vars = 1"])
    @example(cells=TINY_MEAN_CELLS, lines=["k_regions = 4", "k_vars = 1"])
    def test_every_input_ends_in_exit_code_and_one_line(self, cells, lines):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            (directory / "t.csv").write_text(csv_text(cells), encoding="utf-8")
            conf = write_conf(directory, "\n".join(["input = t.csv", *lines, "output_dir = out"]))
            run_strictly(conf)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(spec=FUZZ_SPEC, lines=FUZZ_LINE_LISTS)
    def test_every_synthetic_spec_ends_in_exit_code_and_one_line(self, spec, lines):
        keys = [f"{key} = {value}" for key, value in spec.items()]
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            conf = write_conf(directory, "\n".join(["synthetic = true", *keys, *lines,
                                                     "output_dir = out"]))
            code = run_strictly(conf)
            wrote_output = (directory / "out").exists()
        n, p = spec.get("n", SyntheticSpec.n), spec.get("p", SyntheticSpec.p)
        if n > MAX_POINTS or p >= n:
            # rejected as the config loads, before anything is allocated
            assert code == 1 and not wrote_output
