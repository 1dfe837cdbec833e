"""Compare two checkouts on every benchmark workload; write BENCH_<tag>.json.

    python tools/bench.py PARENT CHANGE --tag T [--pairs N --seconds S --seed K]

PARENT and CHANGE are checkouts of this repository, for example one made
with `git archive` and the working tree. Their `src/` trees are copied
into two sibling directories whose names have the same length (`parent`
and `change`: peak RSS moves with the length of the checkout's path),
each beside a copy of CHANGE's `perfbench/`, so one harness measures
both. Pair i (seed K + i) runs `perfbench/run.py --trace 0 --seconds S`
once in each tree for each workload in CHANGE's BENCHMARK.json, the
change first on odd seeds, and reads the JSON object on the last line of
its stdout. The pairs are the outer loop (run_order): every workload's
pair i runs before any workload's pair i + 1, so a drift of the host over
the minutes of a comparison reaches every workload alike instead of one
workload's pairs all at once. N is 10, K 1 and S BENCHMARK.json's
run_seconds unless given.

CHANGE/BENCH_<tag>.json then holds the environment, the SHA-256 of each
side's sources, and per workload and end-to-end metric: each side's
values, median and quartiles, the change/parent ratio of the medians,
the pairs the change won (a tie wins for neither side), and whether the
ratio is within the metric's bound. Exits 1 if a run fails or any ratio
is outside its bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")  # sibling directory names, of the same length
IGNORE = shutil.ignore_patterns("__pycache__", ".perfbench_work")

# run in a fresh interpreter of CHANGE's tree, as the CLI child starts:
# pcacluster first, so BLAS gets the thread count the CLI runs with
PROBE = """\
import ctypes, json, os, sys
import pcacluster, numpy
sys.path.insert(0, sys.argv[1])
from run import blas_threads, cpu_model
core = None
with open("/proc/self/maps", encoding="utf-8") as handle:
    paths = sorted({line.split()[-1] for line in handle if "blas" in line.lower()})
for path in paths:
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        getter = getattr(ctypes.CDLL(path), symbol, None)
        if getter is not None and core is None:
            getter.restype = ctypes.c_char_p
            core = getter().decode()
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_config": blas.get("openblas configuration"), "blas_core": core,
                  "cli_blas_threads": blas_threads(), "cpu": cpu_model()}))
"""


def run_order(workloads: list[str], first_seed: int, pairs: int) -> list[tuple[int, str, str]]:
    """(seed, workload, side) for each run, in the order they run: by seed,
    then workload, then side, the change first on odd seeds."""
    return [(seed, workload, side)
            for seed in range(first_seed, first_seed + pairs)
            for workload in workloads
            for side in (("change", "parent") if seed % 2 else SIDES)]


def side_summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "quartiles": [q1, q3], "values": values}


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs, parent[i] beside change[i]."""
    before, after = side_summary(parent), side_summary(change)
    lower = better == "lower"
    if before["median"]:
        ratio = after["median"] / before["median"]
        within = ratio <= 1 + bound if lower else ratio >= 1 - bound
    else:
        ratio, within = None, after["median"] == 0
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    return {"parent": before, "change": after, "ratio": ratio, "wins": wins,
            "pairs": len(parent), "bound": bound, "within_bound": within}


def summary(runs: dict[str, dict[str, list[dict]]], end_to_end: list[dict]) -> dict:
    """{workload: {metric: summarize(...)}} from each side's run reports."""
    return {workload: {spec["name"]: summarize(
        *([report["metrics"][spec["name"]]["value"] for report in sides[side]]
          for side in SIDES), spec["better"], spec["bound"]) for spec in end_to_end}
        for workload, sides in runs.items()}


def tree_digest(src: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of the files under src."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(tree: Path) -> dict:
    probe = subprocess.run([sys.executable, "-c", PROBE, str(tree / "perfbench")],
                           env={**os.environ, "PYTHONPATH": str(tree / "src")},
                           capture_output=True, text=True, check=True)
    return {**json.loads(probe.stdout), "machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            **{name: os.environ.get(name) for name in
               ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")},
            "loadavg_1m_at_start": os.getloadavg()[0]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    args = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: {tree.name} {workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    # SIGTERM unwinds like an exception: the running child is killed and
    # the copies removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    root = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        trees = dict(zip(SIDES, (root / side for side in SIDES)))
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            shutil.copytree(checkout / "src", trees[side] / "src", ignore=IGNORE)
            shutil.copytree(args.change / "perfbench", trees[side] / "perfbench", ignore=IGNORE)
        env = environment(trees["change"])
        runs = {workload: {side: [] for side in SIDES} for workload in workloads}
        for seed, workload, side in run_order(workloads, args.seed, args.pairs):
            report = run_once(trees[side], workload, seed, seconds)
            runs[workload][side].append(report)
            print(f"seed {seed} {workload} {side}: correct={report['correct']} "
                  f"pipeline_s={report['metrics']['pipeline_s']['value']:.4f}",
                  file=sys.stderr, flush=True)
        digests = {side: tree_digest(trees[side] / "src") for side in SIDES}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    metrics = summary(runs, spec["end_to_end"])
    result = {
        "tag": args.tag,
        "src_sha256": digests,
        "perfbench_sha256": tree_digest(args.change / "perfbench"),
        "pairs": args.pairs, "seconds": seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "order": "by seed, then workload, then side; change first on odd seeds",
        "environment": env,
        "incorrect_runs": {workload: {side: sum(not r["correct"] for r in sides[side])
                                      for side in SIDES} for workload, sides in runs.items()},
        "workloads": metrics,
    }
    out = args.change / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, by_metric in metrics.items():
        for name, m in by_metric.items():
            ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}"
            print(f"{workload} {name}: {m['parent']['median']:.4f} -> {m['change']['median']:.4f}"
                  f" ratio {ratio}, change better in {m['wins']} of {m['pairs']}"
                  f"{'' if m['within_bound'] else ' OUTSIDE BOUND'}")
    print(f"wrote {out}")
    return 0 if all(m["within_bound"] for by_metric in metrics.values()
                    for m in by_metric.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
