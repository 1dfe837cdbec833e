"""Correctness gate applied to every rep, and a self-check that it can fail.

Each check returns a list of problems; an empty list means it passed.
A rep with any problem counts as failed in the error rate.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Span

TRUTH_ARI_FLOOR = 0.9


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_exit(returncode: int, stderr: str) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if stderr:
        problems.append(f"stderr not empty: {stderr.splitlines()[0]!r}")
    return problems


def check_manifest(out: Path, reference: str) -> list[str]:
    """manifest.txt equals the workload's reference and hashes its files."""
    path = out / "manifest.txt"
    if not path.is_file():
        return ["manifest.txt missing"]
    text = path.read_text(encoding="utf-8")
    problems = [] if text == reference else ["manifest differs from the first rep"]
    for line in text.splitlines():
        digest, _, rel = line.partition("  ")
        target = out / rel
        if not target.is_file() or hashlib.sha256(target.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest hash does not match {rel}")
            break
    return problems


def check_variance_table(path: Path, p: int) -> list[str]:
    """Eigenvalues sum to p (trace of a correlation matrix); cumulative ends at 100."""
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        eigenvalues = [float(r["eigenvalue"]) for r in rows]
        last_cumulative = float(rows[-1]["cumulative_percent"])
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"variance table unreadable: {exc!r}"]
    problems = []
    if len(eigenvalues) != p:
        problems.append(f"variance table has {len(eigenvalues)} rows, expected {p}")
    if abs(sum(eigenvalues) - p) > 1e-9 * p:
        problems.append(f"eigenvalues sum to {sum(eigenvalues)!r}, expected {p}")
    if abs(last_cumulative - 100.0) > 1e-9:
        problems.append(f"last cumulative percent {last_cumulative!r}, expected 100")
    return problems


def check_truth_ari(path: Path) -> list[str]:
    """Planted clusters recovered in both spaces: ari_*_truth >= 0.9."""
    keys = ("ari_raw_truth", "ari_components_truth")
    try:
        pairs = dict(line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines()
                     if line.startswith("ari_"))
        values = {key: float(pairs[key]) for key in keys if key in pairs}
    except (OSError, ValueError) as exc:
        return [f"concordance unreadable: {exc!r}"]
    problems = []
    for key in keys:
        if key not in values:
            problems.append(f"{key} missing from concordance.txt")
        elif not values[key] >= TRUTH_ARI_FLOOR:
            problems.append(f"{key}={values[key]!r} below {TRUTH_ARI_FLOOR}")
    return problems


def check_nesting(spans: list[Span], rep: int, start: float, end: float) -> list[str]:
    """The rep's spans nest: each lies inside its parent, and the top-level
    spans that begin in the timed run_pipeline call [start, end] add up to
    no more than end - start. Their durations sum to the self times of all
    the spans they hold, so the self times stay within the traced pipeline_s."""
    problems = []
    top_level = 0.0
    for span in spans:
        if span.rep != rep:
            continue
        if span.parent >= 0:
            parent = spans[span.parent]
            if not parent.start <= span.start <= span.end <= parent.end:
                problems.append(f"span {span.name} is not inside its parent {parent.name}")
        elif span.start >= start:
            top_level += span.end - span.start
    if top_level > end - start:
        problems.append(f"top-level spans sum to {top_level:.6f} s, over the traced"
                        f" pipeline_s {end - start:.6f} s")
    return problems


def check_outputs(out: Path, reference: str, p: int, planted: bool) -> list[str]:
    problems = check_manifest(out, reference)
    problems += check_variance_table(out / "variance_table.csv", p)
    if planted:
        problems += check_truth_ari(out / "concordance.txt")
    return problems


def self_check(out: Path, reference: str, p: int, scratch: Path) -> list[str]:
    """Feed every check a case it must reject; return a problem for each
    case the gate let through."""
    tampered = scratch / "tampered"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(out, tampered)
    # a manifest one entry short still hashes its files right; only the
    # comparison with the reference can catch it
    manifest = tampered / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text("".join(text.splitlines(keepends=True)[:-1]), encoding="utf-8")
    manifest_problems = check_manifest(tampered, reference)
    manifest.write_text(text, encoding="utf-8")

    artifact = tampered / text.splitlines()[0].partition("  ")[2]
    artifact.write_bytes(artifact.read_bytes() + b"\n")
    artifact_problems = check_manifest(tampered, reference)

    variance = tampered / "variance_table.csv"
    with variance.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))

    def variance_problems(row: int, column: str, scale: float) -> list[str]:
        """check_variance_table on the table with one cell scaled."""
        changed = [list(r) for r in rows]
        col = rows[0].index(column)
        changed[row][col] = repr(float(changed[row][col]) * scale)
        with variance.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(changed)
        return check_variance_table(variance, p)

    # every other line of concordance.txt kept; ari_raw_truth alone fails
    concordance = tampered / "concordance.txt"
    lines = [line for line in (concordance.read_text(encoding="utf-8").splitlines()
                               if concordance.is_file() else [])
             if not line.startswith("ari_raw_truth=")]
    if not any(line.startswith("ari_components_truth=") for line in lines):
        lines.append("ari_components_truth=1.0")
    concordance.write_text("\n".join([*lines, "ari_raw_truth=0.5"]) + "\n", encoding="utf-8")

    child_outside = [Span("pca.fit_pca", 0.0, -1, 0, end=1.0),
                     Span("linalg.jacobi_eigen", 0.5, 0, 0, end=1.5)]
    overlapping = [Span("ingest.load_table", 0.0, -1, 0, end=0.6),
                   Span("ingest.impute_means", 0.4, -1, 0, end=1.0)]

    cases = {
        "manifest one entry short": manifest_problems,
        "artifact edited under an intact manifest": artifact_problems,
        "exit status 1": check_exit(1, ""),
        "traceback on stderr": check_exit(0, "Traceback (most recent call last):\n"),
        "off-trace variance table": variance_problems(1, "eigenvalue", 1 + 1e-6),
        "cumulative percent short of 100": variance_problems(-1, "cumulative_percent", 1 - 1e-6),
        "truth ARI below the floor": check_truth_ari(concordance),
        "child span outside its parent": check_nesting(child_outside, 0, 0.0, 2.0),
        "top-level spans longer than the run": check_nesting(overlapping, 0, 0.0, 1.0),
    }
    shutil.rmtree(tampered)
    missed = []
    for case, problems in cases.items():
        tally = Tally()
        tally.record(case, problems)
        if tally.error_rate == 0.0:
            missed.append(f"self-check: the gate accepted the case: {case}")
    return missed
