"""The package's sources hold to the oldest Python and numpy that pyproject.toml declares.

Only a newer interpreter may be at hand to run the tests, so the grammar
of the declared floor is checked with ast's feature_version.

Only a newer numpy may be at hand too, so the numpy calls are checked
against the installed numpy's own docstrings: every `np.<name>(...)` call
in the sources (np.linalg and np.random included) is found by AST with the
keywords it passes, and a keyword whose entry in the function's Parameters
section carries a `.. versionadded::` or `.. versionchanged::` note newer
than the numpy floor fails the test, as does a function whose summary says
it was added after the floor. A changed note counts whatever it changed:
the scan cannot tell which values of a keyword a note concerns. It sees
neither method calls on arrays nor behaviour that no keyword carries (see
README, Install).
"""

from __future__ import annotations

import ast
import functools
import inspect
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "pcacluster").glob("*.py"))

# a numpydoc section header: its title, then a line of dashes
_SECTION = re.compile(r"^(\S[^\n]*)\n-+$", re.M)
_NOTE = re.compile(r"\.\.\s+version(?:added|changed)::\s*(\d+(?:\.\d+)*)")


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def declared_numpy_floor() -> tuple[int, ...]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return version(re.search(r'"numpy>=(\d+(?:\.\d+)*)"', text).group(1))


def version(text: str) -> tuple[int, ...]:
    """"1.24" as (1, 24, 0), so that it equals "1.24.0"."""
    parts = tuple(int(part) for part in text.split("."))
    return parts + (0,) * (3 - len(parts))


def numpy_calls(sources) -> dict[str, set[str]]:
    """Each np.<name> called in the sources, dotted below np, with the
    keywords its calls pass."""
    calls: dict[str, set[str]] = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            names, func = [], node.func
            while isinstance(func, ast.Attribute):
                names.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name) and func.id == "np" and names:
                calls.setdefault(".".join(reversed(names)), set()).update(
                    keyword.arg for keyword in node.keywords if keyword.arg)
    return calls


def parameter_notes(doc: str) -> dict[str, list[str]]:
    """Each parameter of a cleandoc'd numpy docstring with the versions of
    the notes in its entry of the Parameters section."""
    heads = list(_SECTION.finditer(doc))
    notes: dict[str, list[str]] = {}
    for head, after in zip(heads, [*heads[1:], None]):
        if head.group(1).strip() != "Parameters":
            continue
        names: list[str] = []
        for line in doc[head.end():after.start() if after else len(doc)].splitlines():
            if line and not line[0].isspace():  # "x1, x2 : array_like", "**kwargs"
                names = [name.strip().lstrip("*") for name in line.split(":")[0].split(",")]
            for note in _NOTE.findall(line):
                for name in filter(None, names):
                    notes.setdefault(name, []).append(note)
    return notes


def summary_notes(doc: str) -> list[str]:
    """The versions of the versionadded notes above the first section."""
    head = _SECTION.search(doc)
    return re.findall(r"\.\.\s+versionadded::\s*(\d+(?:\.\d+)*)",
                      doc[:head.start() if head else len(doc)])


def late_uses(calls: dict[str, set[str]], floor: tuple[int, ...]) -> list[str]:
    late = []
    for name, keywords in sorted(calls.items()):
        doc = inspect.cleandoc(functools.reduce(getattr, name.split("."), np).__doc__ or "")
        late += [f"np.{name} added in {note}" for note in summary_notes(doc)
                 if version(note) > floor]
        notes = parameter_notes(doc)
        late += [f"np.{name}({keyword}=...) noted in {note}" for keyword in sorted(keywords)
                 for note in notes.get(keyword, ()) if version(note) > floor]
    return late


def test_sources_parse_at_the_declared_floor():
    floor = declared_floor()
    assert floor == (3, 10)
    assert len(SOURCES) > 10
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_no_numpy_keyword_is_newer_than_the_declared_floor():
    floor = declared_numpy_floor()
    assert floor == (1, 24, 0)
    calls = numpy_calls(SOURCES)
    assert {"argsort", "errstate", "linalg.eigh", "random.default_rng"} <= set(calls)
    assert calls["errstate"] >= {"invalid", "over"}
    assert late_uses(calls, floor) == []


def test_the_scan_reads_notes_beside_their_parameters():
    doc = inspect.cleandoc("""Sort.

    Parameters
    ----------
    a : array_like
        Array to sort.
    x1, x2 : array_like
        .. versionchanged:: 1.25
    stable : bool, optional
        Sort stability.

        .. versionadded:: 2.0.0

    Returns
    -------
    out : ndarray
        .. versionadded:: 3.0
    """)
    assert parameter_notes(doc) == {"x1": ["1.25"], "x2": ["1.25"], "stable": ["2.0.0"]}
    assert version("1.24") == version("1.24.0") < version("1.25") < version("2.0.0")
    assert summary_notes(".. versionadded:: 2.1.0\n\nParameters\n----------\n") == ["2.1.0"]
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        late = late_uses({"argsort": {"kind", "stable"}}, (1, 24, 0))
        assert late == ["np.argsort(stable=...) noted in 2.0.0"]
