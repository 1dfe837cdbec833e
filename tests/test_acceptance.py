"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with -s to see them inline).

Tolerances are fixed here and nowhere else. Timed criteria measure this
machine; the budgets are generous relative to the measured costs.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import os
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from pcacluster import cli, pipeline
from pcacluster.concordance import adjusted_rand_index
from pcacluster.config import PipelineConfig, load_pipeline_config
from pcacluster.hclust import Partition, complete_linkage, euclidean_distances
from pcacluster.linalg import jacobi_eigen
from pcacluster.pca import (
    CumulativeThreshold,
    Kaiser,
    coefficients,
    fit_pca,
    scores,
    select_components,
)
from pcacluster.pipeline import _ARTIFACT_PATH, run_pipeline
from pcacluster.profiles import STATISTICS, profile
from pcacluster.synth import SyntheticSpec

import helpers
from helpers import (
    REF_COEFFICIENTS_F1,
    REF_CUMULATIVE_PERCENT,
    REF_EIGENVALUES,
    REF_VARIANCE_PERCENT,
    dendrogram_as_member_merges,
    kernel_independent_digest,
    make_table,
    manifest_config_digests,
    manifests_tool,
    model_from_spectrum,
    oracle_complete_linkage,
    plant_two_cpus,
    random_standardized_table,
    same_merge_sequence,
)

SAMPLE = Path(__file__).resolve().parents[1] / "src" / "pcacluster" / "data" / "sample_regions.csv"


@contextmanager
def reported(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_01_variance_identity():
    with reported("01 variance identity on the 19-eigenvalue reference spectrum"):
        model = model_from_spectrum(REF_EIGENVALUES)

        def compute():
            return model.variance_percent, model.cumulative_percent

        compute()  # warm
        elapsed = []
        for _ in range(5):
            start = time.perf_counter()
            variance, cumulative = compute()
            elapsed.append(time.perf_counter() - start)
        for computed, printed in zip(variance, REF_VARIANCE_PERCENT):
            assert abs(computed - printed) < 5e-8
        for computed, printed in zip(cumulative, REF_CUMULATIVE_PERCENT):
            assert abs(computed - printed) < 1e-5
        assert abs(cumulative[-1] - 100.00000) < 1e-5
        assert min(elapsed) < 1e-3


def test_02_component_selection():
    with reported("02 Kaiser and cumulative-threshold selection both retain 5"):
        model = model_from_spectrum(REF_EIGENVALUES)
        assert select_components(model, Kaiser()) == 5
        assert select_components(model, CumulativeThreshold(75.0)) == 5


def test_03_coefficient_norms():
    with reported("03 reference f1 column is a unit eigenvector, as are fitted columns"):
        printed_sum = sum(v * v for v in REF_COEFFICIENTS_F1)
        assert abs(printed_sum - 0.999) < 2e-3
        assert abs(printed_sum - 1.0) < 0.01  # coefficients, not scaled loadings
        model = fit_pca(random_standardized_table(1001)).with_components(5)
        norms = (coefficients(model) ** 2).sum(axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_04_eigensolver_oracle():
    with reported("04 eigensolver: 200 random 19x19 reconstructions under 2 s"):
        rng = np.random.default_rng(8675309)
        matrices = []
        for _ in range(200):
            x = rng.standard_normal((19, 19))
            matrices.append((x + x.T) / 2.0)
        jacobi_eigen(matrices[0])  # warm
        identity = np.eye(19)
        start = time.perf_counter()
        for m in matrices:
            eig = jacobi_eigen(m)
            rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            assert np.max(np.abs(rebuilt - m)) < 1e-9
            assert np.max(np.abs(eig.eigenvectors.T @ eig.eigenvectors - identity)) < 1e-9
            assert abs(eig.eigenvalues.sum() - np.trace(m)) < 1e-9
        assert time.perf_counter() - start < 2.0


def test_05_score_decorrelation():
    with reported("05 scores: variances match eigenvalues, columns uncorrelated (50 tables)"):
        for seed in range(50):
            table = random_standardized_table(seed)
            model = fit_pca(table).with_components(19)
            entries = scores(model, table)
            variances = entries.var(axis=0, ddof=1)
            assert np.max(np.abs(variances - model.eigen.eigenvalues)) < 1e-8
            corr = np.corrcoef(entries, rowvar=False)
            np.fill_diagonal(corr, 0.0)
            assert np.max(np.abs(corr)) < 1e-8


def test_06_linkage_oracle():
    with reported("06 linkage matches brute-force oracle on 500 small instances under 5 s"):
        rng = np.random.default_rng(112358)
        start = time.perf_counter()
        for _ in range(500):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                points = rng.integers(0, 4, size=(n, d)).astype(float)
            else:
                points = rng.random((n, d))
            dist = euclidean_distances(points)
            expected = oracle_complete_linkage(dist)  # before the linkage uses dist up
            actual = dendrogram_as_member_merges(complete_linkage(dist))
            assert same_merge_sequence(actual, expected)
        assert time.perf_counter() - start < 5.0


def test_07_cluster_structure_preserved(tmp_path):
    with reported("07 planted 4-cluster mixture: raw/component/truth ARIs all >= 0.9"):
        config = PipelineConfig(
            output_dir=tmp_path / "out",
            synthetic=SyntheticSpec(n=85, p=19, clusters=4, separation=6.0),
        )
        start = time.perf_counter()
        artifacts = run_pipeline(config)
        elapsed = time.perf_counter() - start
        stats = artifacts.concordance_stats
        assert stats["ari_raw_truth"] >= 0.9
        assert stats["ari_components_truth"] >= 0.9
        assert stats["ari"] >= 0.9  # raw vs components
        assert elapsed < 1.0


def test_08_kurtosis_estimator_witness():
    with reported("08 profile of [0,0,1,1]: excess kurtosis -6, skewness 0"):
        table = make_table(np.array([0.0, 0.0, 1.0, 1.0]).reshape(-1, 1))
        stats = dict(zip(STATISTICS, profile(table, Partition((1, 1, 1, 1), k=1))[0, 0]))
        assert abs(stats["kurtosis"] - (-6.0)) < 1e-9
        assert abs(stats["skewness"] - 0.0) < 1e-9


def test_09_profile_consistency():
    with reported("09 cluster means aggregate to the grand mean; matching mean gives 0%"):
        rng = np.random.default_rng(4242)
        grid = rng.standard_normal((48, 5)) * 30 + 100
        grid[:, 2] = 7.0  # constant indicator: every cluster mean equals the grand mean
        table = make_table(grid)
        assignment = list(rng.integers(1, 5, size=48))
        for c in range(1, 5):
            assignment[c - 1] = c
        part = Partition(tuple(assignment), k=4)
        stats = profile(table, part)
        averages = stats[:, :, STATISTICS.index("average")]
        sizes = [part.assignment.count(c) for c in range(1, 5)]
        for j in range(5):
            total = sum(averages[c, j] * sizes[c] for c in range(4))
            assert abs(total - 48 * grid[:, j].mean()) < 1e-9 * max(1.0, abs(grid[:, j].mean()) * 48)
        assert (stats[:, 2, STATISTICS.index("to_country_average_percent")] == 0.0).all()


def test_10_ari_suite():
    with reported("10 ARI: identical 1.0, lump-vs-singletons 0.0, random near 0"):
        ident = Partition((1, 1, 2, 2, 3, 3), k=3)
        assert adjusted_rand_index(ident, ident) == 1.0
        lumped = Partition((1,) * 10, k=1)
        singles = Partition(tuple(range(1, 11)), k=10)
        assert adjusted_rand_index(lumped, singles) == 0.0
        rng = np.random.default_rng(27182818)
        magnitudes = []
        for _ in range(100):
            pa = _as_partition(rng.integers(1, 5, size=100))
            pb = _as_partition(rng.integers(1, 5, size=100))
            magnitudes.append(abs(adjusted_rand_index(pa, pb)))
        assert float(np.mean(magnitudes)) < 0.1


def _as_partition(labels) -> Partition:
    ids: dict[int, int] = {}
    assignment = []
    for label in labels:
        label = int(label)
        if label not in ids:
            ids[label] = len(ids) + 1
        assignment.append(ids[label])
    return Partition(tuple(assignment), k=len(ids))


def test_11_manifest_determinism(tmp_path):
    with reported("11 identical inputs produce byte-identical manifests"):
        def run(out_name: str):
            config = PipelineConfig(
                output_dir=tmp_path / out_name,
                input_path=SAMPLE,
            )
            return run_pipeline(config).manifest_path.read_bytes()

        first = run("a")
        second = run("b")
        assert first == second
        assert hashlib.sha256(first).hexdigest() == hashlib.sha256(second).hexdigest()


# SHA-256 of the partitions, concordance, per-cluster profile tables and
# SVGs, recorded for the bundled sample and the default synthetic config.
# partition_raw.csv, partition_variables.csv, heatmap.svg and
# parallel_coordinates.svg do not touch the eigensolver. The others derive
# from its output and from matrix products, but print rounded values
# (SVG coordinates to 2 decimals, profile cells to 7 significant digits),
# so last-bit solver differences have not moved them so far, including the
# switch from Jacobi to LAPACK eigh. A refactor must leave these bytes
# alone. If this test fails after a change of BLAS, LAPACK or CPU with no
# change of code, a rounded value crossed a boundary or a tie flipped:
# check the diff, then re-record the constants and say why.
PINNED_ARTIFACTS = {
    "sample": {
        "concordance.txt": "bcefc7e1dbe0a750e4f2c8bcdab4bcb8640e73d0952f6b35d86b6b769c87fc05",
        "partition_components.csv": "729b2ac9e39dc3e0cf72ffad9fc97c5ba8400ae7febff49c4db3e25bebc8c488",
        "partition_raw.csv": "632c7781c6c81f8ca273b0984837cd794a46898e95c3b44fc3f4464def329089",
        "partition_variables.csv": "ea5fd19318c0380f0f0e3da210ee0bbc0e0ef49c56819c0e82fbcb80a338d789",
        "plots/biplot.svg": "524c891344b07364ebf8d95b0cfb809e4b8b140825e2846f73ae05e5880e4153",
        "plots/dendrograms.svg": "921825a7c2d01193aadc08c28be3356d85a375217629d2b7742701420d1149d0",
        "plots/heatmap.svg": "0d0c1f67b12499abc9387dbee333e41e87adafe773f77065342e1592e6aff2c4",
        "plots/loadings.svg": "f0714ace56f909cf3febbcc54dbc8668c18c84724eab13129ccd8c54f4f2ee99",
        "plots/parallel_coordinates.svg": "d365c143e24b96d883a340ac5c85391609694dba91f775ebd60b2d5e3d5802a3",
        "plots/scree.svg": "dbcb8987e3194098a1c06a5278c81c653e6ab639298e9be79d9287b3afab5ad4",
        "profiles/cluster_1.csv": "78302b28cbb20b08b1f011922e7f3f04a300b4edb12f144abc3510b52c2df647",
        "profiles/cluster_2.csv": "99a2bc701f7ef009cb20684bc762ccb4d9d4c445fa57bf197b729d083548024f",
        "profiles/cluster_3.csv": "b3dcd8c96378f4a90ad41bdedb24de35769cfe304284f4f55fb2f6fec104c283",
        "profiles/cluster_4.csv": "0c87fa74f77836e7e57577c981bf761f8edf7aae2a985ea3cc6dd31cbf175cdb",
    },
    "synthetic": {
        "concordance.txt": "36dd28a5ec122c59c12410c4cfce7065aff734e4afdf92e238352697fff94a07",
        "partition_components.csv": "8e467746d5ff45f55210597d18473451f6e5b129a79408997a04a58c751721fc",
        "partition_raw.csv": "a9ab296e8d26046d34c4a217a30846611611f684835e6f63344dd591fbcb6018",
        "partition_truth.csv": "8e467746d5ff45f55210597d18473451f6e5b129a79408997a04a58c751721fc",
        "partition_variables.csv": "cac8cc131f135a961f270fddb779109e58c240d1956f325b80881746315c1791",
        "plots/biplot.svg": "c63d2f5db62c9dae9fdb029e703c04c96e0a6c6cdd409251701fdbdb1c1cd097",
        "plots/dendrograms.svg": "d39840c2be7b57ec6c942395c711551759e758a425695e27182e15c83e1380e8",
        "plots/heatmap.svg": "564721fdf0e3556933fcba99bdd4517e06c5386ec93c916b57e441adcbd359d2",
        "plots/loadings.svg": "95c727bd969e37ed65f20e067ac516f413791bf9fd1e871d18c2e7de12b59796",
        "plots/parallel_coordinates.svg": "f783541d8773d57276a199d359d5e60c77542bf61e4cb1d588cc47a9525eb1ff",
        "plots/scree.svg": "c81add4734f47edc8960d00d63ac5ebcde1e94a3afe2d79f99e8325d2334f3c9",
        "profiles/cluster_1.csv": "5f5c9d0db7a8c7fcece609f74b901f6730bc32ec6c6961aa59ce36d0a0327d0f",
        "profiles/cluster_2.csv": "1b04f30b190d51cf6fe0d6ebe2d9601c373e6d6db93cde2f83e1181e87ec8ef8",
        "profiles/cluster_3.csv": "e66ea3feaf78a25a9ef30a7c74b577580055f217f662e2e8a5ede5eaf379b2e0",
        "profiles/cluster_4.csv": "d6c4f64a1cd25fc4367e8b3e8f2183f51b329f9b16e2ac3895ffef1ec9e58987",
    },
}
PINNED_PATTERNS = ("partition_*.csv", "concordance.txt", "profiles/cluster_*.csv", "plots/*.svg")


def test_12_pinned_artifact_bytes(tmp_path):
    with reported("12 pinned artifacts keep their recorded bytes"):
        conf = tmp_path / "synthetic.conf"
        conf.write_text("synthetic = true\noutput_dir = synthetic\n", encoding="utf-8")
        configs = {
            "sample": PipelineConfig(output_dir=tmp_path / "sample", input_path=SAMPLE),
            "synthetic": load_pipeline_config(conf),
        }
        for name, config in configs.items():
            manifest = run_pipeline(config).manifest_path.read_text(encoding="utf-8")
            digests = dict(line.split("  ", 1)[::-1] for line in manifest.splitlines())
            pinned = {rel: digest for rel, digest in digests.items()
                      if any(fnmatch(rel, pattern) for pattern in PINNED_PATTERNS)}
            changed = sorted(rel for rel in pinned.keys() | PINNED_ARTIFACTS[name].keys()
                             if pinned.get(rel) != PINNED_ARTIFACTS[name].get(rel))
            assert not changed, f"{name}: bytes changed in {changed}"


# One SHA-256 per config of tools/manifests.py over its manifest's lines for
# every artifact but the CSVs whose last digits follow the BLAS kernel
# (helpers.KERNEL_DEPENDENT_CSVS), so these hold on any OpenBLAS kernel. A
# change that alters bytes on purpose re-records them and names the files.
CONFIG_DIGESTS = {
    "sample": "b88199de0c2cd8cd917860b93316a247fc865202acbb8303546dfd6c26ded3f3",
    "synthetic": "776b7525b227ef72a0c1eed45a3fe8facd022951d0ba4c87b6ffc5b6af9e95bc",
    "raw": "9bd446b57299ae9669de7c90fee28b0f94a18144c82153ba20bb022a7c102e45",
    "components": "58ad07fc1b2d0ecdb32693802298a548aa318a306383facb052702c726ab8f92",
    "fixed1": "d81d994e9774fc44e45f50b7c28f6adba59b0feb41432b9b58e8a42566887367",
    "fixed2-labels": "dd86308f44919fd7e58b167e720973ee13e9a77941288ba7cbc645ae35c14cb7",
    "cumulative70": "d582097af005c6bcf86ea7706fe37d60a782441e23bd4f0666d8aa727ae04c50",
    "synthetic-typed-keys": "55a0dc7837c381de318a8500a78fc7704e3afda9c6aa6672d9122919b68f9dba",
    "quoted-labels": "aa3e57b550c20a41a4d0a51a301e183d365c7941526c36dcdb41756354e0212f",
    "tiny-clusters": "07f75b7c2acf591ea6eab90bd6d5aa87ea0e508b7102dc6d3c891a2946cb7ea1",
    "collinear": "f2dc9f7e4325b1acb3c428f75d4196d69d9f15b3d788196a01dec5723a24023c",
    "zero-mean": "42244ff258956e81cdcecbf42f124283f525e595df4a1b9e40d56d8b68930e74",
    "perfbench-paper": "26872476e14ead460c4d9f388b50e09ac136c43afbfc99e9a084d038a2f94482",
    "perfbench-wide": "c937b4298ed3aa2316dd8eeb683fd59709ef881b769aef7a9542beb2c450132e",
    "perfbench-regions": "ac2f6200cec3febe2002b51f9b704701b4a089e38ee5275692ca6a3b7683a933",
}


@contextmanager
def _thread_alive():
    """Another thread runs, waiting, until the block ends."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


# the forks of each config's run, by the stage that made them, on a host
# with two CPUs or more: a config not named here forks no child. A change
# to a job's values or to a fork rule that moves one fails here
FORK_CENSUS = {
    "tiny-clusters": {"manifest": 1},
    "perfbench-wide": {"cluster-regions": 1, "manifest": 1},
    "perfbench-regions": {"cluster-regions": 1, "manifest": 1},
}


def test_13_every_manifest_config_keeps_its_bytes(tmp_path, monkeypatch, caplog):
    with reported("13 every manifest config keeps its kernel-independent bytes"):
        caplog.set_level(logging.INFO, logger=pipeline.logger.name)
        census = defaultdict(Counter)
        runs: list[str] = []  # each config's name, as its run starts

        def run(config, original=helpers.run_pipeline):
            runs.append(config.output_dir.parent.name)  # <config>/out
            return original(config)

        def fork(original=os.fork):
            # the stage is the one the pipeline last logged as "stage <name>"
            stage = [record.getMessage() for record in caplog.records
                     if record.name == pipeline.logger.name][-1].removeprefix("stage ")
            census[runs[-1]][stage] += 1
            return original()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(helpers, "run_pipeline", run)
        plant_two_cpus(monkeypatch)
        # alone, this thread writes the larger configs in two processes; beside
        # another thread, each run writes in one
        assert threading.active_count() == 1
        for writers in ("split", "one process"):
            census.clear()
            with _thread_alive() if writers == "one process" else nullcontext():
                digests = manifest_config_digests(SAMPLE.parents[3], tmp_path / writers)
            assert census == ({} if writers == "one process" else FORK_CENSUS), writers
            changed = sorted(name for name in digests.keys() | CONFIG_DIGESTS.keys()
                             if digests.get(name) != CONFIG_DIGESTS.get(name))
            assert not changed, f"{writers}: bytes changed under {changed}"


def test_13_a_failed_fork_finishes_the_run_in_one_process(tmp_path, monkeypatch, capsys):
    with reported("13 a fork that fails leaves the run to one process, same bytes"):
        calls = []

        def fork():
            calls.append(1)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))  # a pid or memory limit

        monkeypatch.setattr(os, "fork", fork)
        plant_two_cpus(monkeypatch)
        conf = manifests_tool().write_configs(SAMPLE.parents[3], tmp_path)["perfbench-regions"]
        descriptors = len(os.listdir("/proc/self/fd"))
        assert cli.main(["run", "--config", str(conf)]) == 0, capsys.readouterr().err
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert calls == [1, 1]  # once while clustering, once while writing
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        digest = kernel_independent_digest(conf.parent / "out" / "manifest.txt")
        assert digest == CONFIG_DIGESTS["perfbench-regions"]


# a fresh interpreter that pins itself to its first CPU runs a config
# through the CLI and prints how many times it forked
PINNED_RUN = """\
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
from pcacluster.cli import main
code = main(["run", "--config", sys.argv[1]])
print(len(forks))
sys.exit(code)
"""


def test_13_a_run_pinned_to_one_cpu_stays_in_one_process(tmp_path):
    with reported("13 a run pinned to one CPU forks no child, same bytes"):
        conf = manifests_tool().write_configs(SAMPLE.parents[3], tmp_path)["perfbench-regions"]
        done = subprocess.run([sys.executable, "-c", PINNED_RUN, str(conf)],
                              env={**os.environ, "PYTHONPATH": str(SAMPLE.parents[2])},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0"  # no fork to cluster or to write
        digest = kernel_independent_digest(conf.parent / "out" / "manifest.txt")
        assert digest == CONFIG_DIGESTS["perfbench-regions"]


def test_14_a_rerun_of_every_manifest_config_keeps_its_bytes_and_files(tmp_path):
    with reported("14 a rerun into the same directories keeps the bytes, and only its files"):
        for run in ("first", "second"):
            digests = manifest_config_digests(SAMPLE.parents[3], tmp_path)
            changed = sorted(name for name in digests.keys() | CONFIG_DIGESTS.keys()
                             if digests.get(name) != CONFIG_DIGESTS.get(name))
            assert not changed, f"{run} run: bytes changed under {changed}"
        manifests = sorted(tmp_path.glob("*/out/manifest.txt"))
        assert len(manifests) == len(CONFIG_DIGESTS)
        for manifest in manifests:
            listed = {line.split("  ", 1)[1]
                      for line in manifest.read_text(encoding="utf-8").splitlines()}
            outside = sorted(rel for rel in listed if not _ARTIFACT_PATH.fullmatch(rel))
            assert not outside, f"{manifest.parent}: {outside} not in _ARTIFACT_PATH"
            on_disk = {path.relative_to(manifest.parent).as_posix()
                       for path in manifest.parent.rglob("*") if path.is_file()}
            assert on_disk == listed | {"manifest.txt"}, manifest.parent
