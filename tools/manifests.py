"""Run fifteen pipeline configs from a source tree and print each manifest's SHA-256.

    python tools/manifests.py SRC_DIR OUT_DIR

SRC_DIR is a checkout of this repository; its `src/` is what runs. Each
config goes to OUT_DIR/<config>/pipeline.conf and is run there with
`pcacluster run`. One `<config> <sha256 of manifest.txt>` line is printed
per config. OUT_DIR may hold an earlier run of the tool: each config then
reruns into its directory and prints the same line. Comparing two
checkouts is a `diff` of two outputs:

    python tools/manifests.py ../parent m-parent > parent.txt
    python tools/manifests.py . m-change > change.txt
    diff parent.txt change.txt

The bytes must not depend on the SIMD code numpy dispatches to on this
CPU, so a second run with the AVX-512 loops disabled prints the same:

    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        python tools/manifests.py . m-generic > generic.txt
    diff change.txt generic.txt

pcacluster loads BLAS with one thread unless a thread count is set, and
the bytes must not depend on that count either:

    OPENBLAS_NUM_THREADS=2 python tools/manifests.py . m-threads > threads.txt
    diff change.txt threads.txt

Pinned to one CPU, a run forks no child: one process clusters both
spaces and drains the write queue alone, with the same bytes:

    taskset -c 0 python tools/manifests.py . m-one-cpu > one-cpu.txt
    diff change.txt one-cpu.txt

OpenBLAS picks its kernels for the CPU as well, and a run under the ones
an AVX2-only host gets may print other hashes:

    OPENBLAS_CORETYPE=Haswell python tools/manifests.py . m-haswell > haswell.txt
    diff -rq m-change m-haswell

Only the CSVs that carry the correlation matrix, the eigenvectors or the
scores may differ, in their last digits: variance_table.csv,
coefficients.csv, loadings.csv, scores.csv, dendrogram_components.csv,
dendrogram_variables.csv and plots/scree.csv, plots/loadings.csv,
plots/biplot.csv and plots/dendrograms.csv (and manifest.txt with them).
On a BLAS built without DYNAMIC_ARCH the variable does nothing.

The perfbench inputs (seed 7) are written by this checkout's
`perfbench/workloads.py`, so both sides get the same bytes. The runs
go without `PCACLUSTER_VERBOSE`, so a run that succeeds prints nothing
on stderr; one that does (a leaked warning, say) prints
`<config> FAILED: stderr not empty`. Exits 1 if SRC_DIR has no
`src/pcacluster`, or if any run fails or prints on stderr.

The config table, CONFIGS, and its writer, write_configs, are also what
the tier-1 test `test_13_every_manifest_config_keeps_its_bytes` runs in
process, so the tool and the test cover the same fifteen configs.
"""

from __future__ import annotations

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import write_workload  # noqa: E402

SEED = 7
SAMPLE = "src/pcacluster/data/sample_regions.csv"

# config name -> lines after the input line; "sample" configs read the
# bundled sample table of SRC_DIR
CONFIGS = {
    "sample": ["input = {sample}"],
    "synthetic": ["synthetic = true"],
    "raw": ["input = {sample}", "cluster_space = raw"],
    "components": ["input = {sample}", "cluster_space = components"],
    "fixed1": ["input = {sample}", "components = fixed:1"],
    "fixed2-labels": ["input = {sample}", "components = fixed:2",
                      "component_labels = capital | demography"],
    "cumulative70": ["input = {sample}", "components = cumulative:70"],
    # every typed key away from its default
    "synthetic-typed-keys": ["synthetic = true", "n = 120", "p = 8", "clusters = 3",
                             "separation = 4.5", "within_sd = 0.5", "seed = 11",
                             "k_regions = 6", "k_vars = 3", "components = cumulative:80"],
    # the sample relabeled by write_quoted_labels_table: labels csv must quote
    "quoted-labels": ["input = quoted.csv"],
    # 40 clusters of 1 to 6 regions, most of 1 to 3: the empty cells of
    # profiles.csv and the n/a cells of profiles/cluster_<id>.csv
    "tiny-clusters": ["input = {sample}", "k_regions = 40"],
    # the sample with its 2nd indicator appended again by
    # write_collinear_table: a singular correlation matrix, the paper's premise
    "collinear": ["input = collinear.csv"],
    # the sample with an indicator of grand mean exactly 0.0 appended by
    # write_zero_mean_table: the n/a percent cells of the profiles
    "zero-mean": ["input = zero_mean.csv"],
}
WORKLOADS = ("paper", "wide", "regions")


def sample_rows(src: Path) -> list[list[str]]:
    with (src / SAMPLE).open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def write_csv(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def write_quoted_labels_table(src: Path, path: Path) -> None:
    """The sample with an empty region label, a region label holding a line
    break and double quotes, and an indicator label holding a comma and
    double quotes."""
    rows = sample_rows(src)
    rows[0][1] = 'GRP, "per capita"'
    rows[1][0] = ""
    rows[2][0] = 'Region\n"two"'
    write_csv(path, rows)


def write_collinear_table(src: Path, path: Path) -> None:
    """The sample with its 2nd indicator column appended under a new label."""
    rows = sample_rows(src)
    for row in rows:
        row.append(row[2])
    rows[0][-1] += " (copy)"
    write_csv(path, rows)


def write_zero_mean_table(src: Path, path: Path) -> None:
    """The sample with one more indicator: 1.5 in the first 42 regions,
    -1.5 in the next 42, and 0 in the rest, so its grand mean is 0.0."""
    rows = sample_rows(src)
    rows[0].append("Balance, zero mean")
    for i, row in enumerate(rows[1:]):
        row.append("1.5" if i < 42 else "-1.5" if i < 84 else "0")
    write_csv(path, rows)


def write_configs(src: Path, out: Path) -> dict[str, Path]:
    configs = {}
    for name, lines in CONFIGS.items():
        directory = out / name
        directory.mkdir(parents=True, exist_ok=True)
        if name == "quoted-labels":
            write_quoted_labels_table(src, directory / "quoted.csv")
        elif name == "collinear":
            write_collinear_table(src, directory / "collinear.csv")
        elif name == "zero-mean":
            write_zero_mean_table(src, directory / "zero_mean.csv")
        text = "\n".join(lines + ["output_dir = out"]).format(sample=src / SAMPLE)
        configs[name] = directory / "pipeline.conf"
        configs[name].write_text(text + "\n", encoding="utf-8")
    for name in WORKLOADS:
        directory = out / f"perfbench-{name}"
        directory.mkdir(parents=True, exist_ok=True)
        configs[f"perfbench-{name}"] = write_workload(name, SEED, directory)
    return configs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/manifests.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "src" / "pcacluster").is_dir():
        print(f"{src} is not a checkout: it has no src/pcacluster", file=sys.stderr)
        return 1
    env = {key: value for key, value in os.environ.items() if key != "PCACLUSTER_VERBOSE"}
    env["PYTHONPATH"] = str(src / "src")
    failed = False
    for name, conf in write_configs(src, out).items():
        run = subprocess.run(
            [sys.executable, "-m", "pcacluster.cli", "run", "--config", str(conf)],
            env=env, capture_output=True, text=True,
        )
        if run.returncode != 0:
            print(f"{name} FAILED exit {run.returncode}: {run.stderr.strip()}", file=sys.stderr)
            failed = True
            continue
        if run.stderr:
            print(f"{name} FAILED: stderr not empty", file=sys.stderr)
            failed = True
            continue
        digest = hashlib.sha256((conf.parent / "out" / "manifest.txt").read_bytes()).hexdigest()
        print(f"{name} {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
