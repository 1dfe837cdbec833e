"""Run eleven pipeline configs from a source tree and print each manifest's SHA-256.

    python tools/manifests.py SRC_DIR OUT_DIR

SRC_DIR is a checkout of this repository; its `src/` is what runs. Each
config goes to OUT_DIR/<config>/pipeline.conf and is run there with
`pcacluster run`. One `<config> <sha256 of manifest.txt>` line is printed
per config, so comparing two checkouts is a `diff` of two outputs:

    python tools/manifests.py ../parent m-parent > parent.txt
    python tools/manifests.py . m-change > change.txt
    diff parent.txt change.txt

The perfbench inputs (seed 7) are written by this checkout's
`perfbench/workloads.py`, so both sides get the same bytes. Exits 1 if
SRC_DIR has no `src/pcacluster` or if any run fails.
"""

from __future__ import annotations

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
    "components-all": ["input = {sample}", "cluster_space = components",
                       "score_columns = all"],
    "fixed1": ["input = {sample}", "components = fixed:1"],
    "fixed2-labels": ["input = {sample}", "components = fixed:2",
                      "component_labels = capital | demography"],
    "cumulative70": ["input = {sample}", "components = cumulative:70"],
    # every typed key away from its default
    "synthetic-typed-keys": ["synthetic = true", "n = 120", "p = 8", "clusters = 3",
                             "separation = 4.5", "within_sd = 0.5", "seed = 11",
                             "k_regions = 6", "k_vars = 3", "components = cumulative:80",
                             "score_columns = all"],
}
WORKLOADS = ("paper", "wide", "regions")


def write_configs(src: Path, out: Path) -> dict[str, Path]:
    configs = {}
    for name, lines in CONFIGS.items():
        directory = out / name
        directory.mkdir(parents=True)
        text = "\n".join(lines + ["output_dir = out"]).format(sample=src / SAMPLE)
        configs[name] = directory / "pipeline.conf"
        configs[name].write_text(text + "\n", encoding="utf-8")
    for name in WORKLOADS:
        directory = out / f"perfbench-{name}"
        directory.mkdir(parents=True)
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
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
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
        digest = hashlib.sha256((conf.parent / "out" / "manifest.txt").read_bytes()).hexdigest()
        print(f"{name} {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
