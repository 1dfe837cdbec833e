"""pcacluster benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

It runs the pcacluster sources in src/ beside this directory, with no
install step. The load is a closed loop with one client: each round runs
`pcacluster run --config` as a child process, then run_pipeline in this
process, one pipeline at a time. BLAS threading stays at its default.
Every rep's outputs are checked (checks.py) and a failed rep counts
against pass_rate.

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced
and untraced in-process reps and reports the per-layer metrics of
tracing.py. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

from checks import Tally, check_exit, check_nesting, check_outputs, self_check
from tracing import Tracer, median_metrics
from workloads import INDICATOR_COUNTS, WORKLOADS, write_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
IMPORT_REPS = 11
PEAK_FILE = "PERFBENCH_PEAK_FILE"
# The CLI child writes its own peak RSS (VmHWM, kB) at exit. os.wait4's
# ru_maxrss will not do: posix_spawn shares this process's memory until the
# exec, and the kernel carries that memory's high-water mark into the
# child's, so ru_maxrss would be at least this process's peak.
CLI = f"""\
import atexit, os, sys
def record_peak(path=os.environ.pop({PEAK_FILE!r})):
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line for line in status if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(peak.split()[1])
atexit.register(record_peak)
from pcacluster.cli import main
sys.exit(main())
"""

END_TO_END_UNITS = {"setup_s": "s", "cli_s": "s", "cpu_s": "s", "pipeline_s": "s",
                    "peak_rss_mb": "MiB", "pass_rate": "ratio"}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    returncode: int
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PCACLUSTER_VERBOSE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], env: dict[str, str], logs: Path) -> Child:
    """Run a Python child to completion; its time and CPU are its own
    (os.wait4), not the sum over all children."""
    stderr = logs / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(logs / "stdout.txt"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Child(wall, usage.ru_utime + usage.ru_stime, os.waitstatus_to_exitcode(status),
                 stderr.read_text(encoding="utf-8"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int | None:
    """Thread count of the BLAS library numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(load_at_start: float) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_1m_at_start": load_at_start,
    }


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}, too few for a tail"
    k = n - 11
    return f"p{100 * (k + 1) // n} {sorted(values)[k]:.4f}, n={n}"


def import_times(env: dict[str, str], logs: Path) -> list[float]:
    """Wall time of fresh interpreters importing pcacluster; the first,
    which may compile bytecode, is discarded."""
    times = []
    for _ in range(IMPORT_REPS + 1):
        child = spawn(["-c", "import pcacluster"], env, logs)
        if check_exit(child.returncode, child.stderr):
            raise SystemExit(f"error: importing pcacluster failed:\n{child.stderr}")
        times.append(child.wall_s)
    return times[1:]


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        import pcacluster
        from pcacluster.config import load_pipeline_config

        if Path(pcacluster.__file__).resolve().parent != SRC / "pcacluster":
            raise SystemExit(f"error: imported pcacluster from {pcacluster.__file__}, not {SRC}")
        self.pcacluster = pcacluster
        self.workload = workload
        self.workdir = workdir
        self.config_path = write_workload(workload, seed, workdir)
        self.config = load_pipeline_config(self.config_path)
        self.out = self.config.output_dir
        self.p = INDICATOR_COUNTS[workload]
        self.planted = workload == "regions"
        self.tally = Tally()
        self.reference = ""

    def run(self, config) -> tuple[float, float, object, list[str]]:
        """Timed in-process run_pipeline: (start, end, artifacts or None, problems)."""
        shutil.rmtree(self.out, ignore_errors=True)
        start = time.perf_counter()
        try:
            artifacts = self.pcacluster.run_pipeline(config)
        except (self.pcacluster.PcaClusterError, OSError) as exc:
            return start, time.perf_counter(), None, [f"run_pipeline raised {exc!r}"]
        return start, time.perf_counter(), artifacts, []

    def check(self, label: str, problems: list[str]) -> None:
        if not problems:
            problems = check_outputs(self.out, self.reference, self.p, self.planted)
        self.tally.record(label, problems)

    def warm_up(self) -> list[str]:
        """One discarded in-process run; its manifest is the reference every
        later rep must match, and its outputs feed the gate's self-check."""
        _, _, artifacts, problems = self.run(self.config)
        if artifacts is not None:
            self.reference = artifacts.manifest_path.read_text(encoding="utf-8")
        self.check("warm-up", problems)
        if artifacts is None:
            return []
        print(f"manifest sha256 {hashlib.sha256(self.reference.encode()).hexdigest()}"
              f" ({len(artifacts.files)} files)")
        return self_check(self.out, self.reference, self.p, self.workdir)

    def in_process(self, label: str) -> float:
        start, end, _, problems = self.run(self.config)
        self.check(label, problems)
        return end - start

    def cli(self, label: str, env: dict[str, str]) -> tuple[Child, float]:
        """One timed CLI child: (the child, its peak RSS in MiB)."""
        shutil.rmtree(self.out, ignore_errors=True)
        peak_file = self.workdir / "peak_kb.txt"
        peak_file.unlink(missing_ok=True)
        child = spawn(["-c", CLI, "run", "--config", str(self.config_path)],
                      {**env, PEAK_FILE: str(peak_file)}, self.workdir)
        problems = check_exit(child.returncode, child.stderr)
        try:
            peak_mb = int(peak_file.read_text(encoding="ascii")) / 1024
        except (OSError, ValueError) as exc:
            peak_mb = float("nan")
            problems.append(f"peak RSS not reported: {exc!r}")
        self.check(label, problems)
        return child, peak_mb

    def traced(self, label: str, tracer: Tracer) -> tuple[float, dict[str, float]]:
        """One in-process rep under the tracer, config loading included."""
        tracer.install()
        try:
            config = self.pcacluster.config.load_pipeline_config(self.config_path)
            start, end, artifacts, problems = self.run(config)
        finally:
            tracer.uninstall()
        tracer.stage_ends[tracer.rep] = end
        metrics = tracer.rep_metrics(tracer.rep)
        files = artifacts.files if artifacts is not None else ()
        metrics["pipeline.artifacts"] = len(files)
        metrics["pipeline.artifact_bytes"] = sum((self.out / rel).stat().st_size
                                                 for rel in files)
        problems += check_nesting(tracer.spans, tracer.rep, start, end)
        self.check(label, problems)
        return end - start, metrics


def rounds(seconds: float, body) -> None:
    """Run body() at least once, and again while one more round as long as
    the last would end less than half a round past the deadline."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            return


def end_to_end(bench: Bench, seconds: float, env: dict[str, str]) -> dict[str, float]:
    setup = import_times(env, bench.workdir)
    children: list[Child] = []
    peaks: list[float] = []
    pipeline: list[float] = []

    def one_round() -> None:
        child, peak_mb = bench.cli(f"cli rep {len(children) + 1}", env)
        children.append(child)
        peaks.append(peak_mb)
        pipeline.append(bench.in_process(f"in-process rep {len(pipeline) + 1}"))

    rounds(seconds, one_round)
    samples = {
        "setup_s": setup,
        "cli_s": [c.wall_s for c in children],
        "cpu_s": [c.cpu_s for c in children],
        "pipeline_s": pipeline,
        "peak_rss_mb": peaks,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["pass_rate"] = 1.0 - bench.tally.error_rate
    for name, values in samples.items():
        print(f"{bench.workload} {name} = {metrics[name]:.4f} {END_TO_END_UNITS[name]}"
              f" (median; {tail(values)})")
    print(f"{bench.workload} error_rate = {bench.tally.error_rate:.4f}"
          f" ({bench.tally.failed} of {bench.tally.attempted} reps failed)")
    return metrics


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> dict[str, float]:
    tracer = Tracer()
    traced_s: list[float] = []
    plain_s: list[float] = []
    per_rep: list[dict[str, float]] = []

    def one_round() -> None:
        tracer.rep = len(traced_s)
        elapsed, metrics = bench.traced(f"traced rep {tracer.rep + 1}", tracer)
        traced_s.append(elapsed)
        per_rep.append(metrics)
        plain_s.append(bench.in_process(f"untraced rep {len(plain_s) + 1}"))

    rounds(seconds, one_round)
    tracer.write(spans_path)
    metrics = median_metrics(per_rep)
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    print(f"{bench.workload} traced pipeline_s = {statistics.median(traced_s):.4f} s,"
          f" untraced {statistics.median(plain_s):.4f} s ({len(traced_s)} reps each);"
          f" spans in {spans_path}")
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("frac"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and reaped, and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pcacluster" / "__init__.py").is_file():
        print(f"error: no pcacluster sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        print("env " + json.dumps(environment(load_at_start)))
        bench = Bench(args.workload, args.seed, workdir)
        missed = bench.warm_up()
        for line in missed:
            print(line)
        print(f"self-check: {'FAILED' if missed else 'the gate rejected every tampered input'}")
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(bench, args.seconds, spans)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = end_to_end(bench, args.seconds, child_env())
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in bench.tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": bench.tally.failed == 0 and not missed,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
