"""The package's sources parse under the oldest Python that pyproject.toml declares.

Only a newer interpreter may be at hand to run the tests, so the grammar
of the declared floor is checked with ast's feature_version.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_parse_at_the_declared_floor():
    floor = declared_floor()
    assert floor == (3, 10)
    sources = sorted((ROOT / "src" / "pcacluster").glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
