"""Command-line interface.

    pcacluster run --config pipeline.conf
    pcacluster synth --spec synth.conf --out data/
    pcacluster --version

Exit codes: 0 success, 1 input or validation error, 2 numerical
failure. Set PCACLUSTER_VERBOSE=1 to log stage progress to stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .config import load_pipeline_config, load_synthetic_spec
from .errors import NumericalError, ValidationError
from .ingest import write_table
from .pipeline import _Sink, run_pipeline
from .synth import generate_synthetic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcacluster",
        description="Correlation-matrix PCA and complete-linkage clustering pipeline",
    )
    parser.add_argument("--version", action="version", version=f"pcacluster {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run the full pipeline from a config file")
    run_cmd.add_argument("--config", required=True, type=Path, help="key = value config file")

    synth_cmd = sub.add_parser("synth", help="generate a synthetic table with planted clusters")
    synth_cmd.add_argument("--spec", required=True, type=Path, help="key = value spec file")
    synth_cmd.add_argument("--out", required=True, type=Path, help="output directory")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    artifacts = run_pipeline(load_pipeline_config(args.config))
    print(f"wrote {len(artifacts.files)} artifacts to {artifacts.output_dir}")
    print(f"manifest: {artifacts.manifest_path}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = load_synthetic_spec(args.spec)
    table, truth = generate_synthetic(spec)
    sink = _Sink(args.out)
    write_table(table, sink.path("synthetic_table.csv"))
    sink.partition("partition_truth.csv", table.region_labels, truth)
    for rel in sink.written:
        print(f"wrote {args.out / rel}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PCACLUSTER_VERBOSE", "") not in ("", "0"):
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_synth(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
