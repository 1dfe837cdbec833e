"""Command-line interface.

    pcacluster run --config pipeline.conf
    pcacluster --version

Exit codes: 0 success, 1 input, validation or usage error, 2 numerical
failure. Set PCACLUSTER_VERBOSE=1 to log stage progress to stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__
from .errors import NumericalError, ValidationError


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so they share exit 1 and one stderr line."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcacluster",
        description="Correlation-matrix PCA and complete-linkage clustering pipeline",
    )
    parser.add_argument("--version", action="version", version=f"pcacluster {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="run the full pipeline from a config file")
    run_cmd.add_argument("--config", required=True, type=Path, help="key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PCACLUSTER_VERBOSE", "") not in ("", "0"):
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        # loaded once the arguments parse: --version and usage errors need
        # neither the pipeline's submodules nor hashlib's OpenSSL
        from .config import load_pipeline_config
        from .pipeline import run_pipeline

        artifacts = run_pipeline(load_pipeline_config(args.config))
        print(f"wrote {len(artifacts.files)} artifacts to {artifacts.output_dir}")
        print(f"manifest: {artifacts.manifest_path}")
        return 0
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
