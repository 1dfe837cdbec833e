"""Plain-text configuration for the pipeline and the synthetic generator.

Format: one "key = value" per line, "#" starts a full-line comment,
blank lines ignored. Relative paths resolve against the directory
containing the configuration file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .ingest import ParseOptions
from .pca import CumulativeThreshold, Fixed, Kaiser, SelectionRule
from .synth import SyntheticSpec

CLUSTER_SPACES = ("raw", "components", "both")
SCORE_COLUMN_MODES = ("retained", "all")

_DELIMITERS = {"comma": ",", ",": ",", "semicolon": ";", ";": ";"}
_DECIMALS = {"period": ".", ".": ".", "comma": ",", ",": ","}


@dataclass(frozen=True)
class PipelineConfig:
    output_dir: Path
    input_path: Path | None = None
    synthetic: SyntheticSpec | None = None
    parse_options: ParseOptions = field(default_factory=ParseOptions)
    component_rule: SelectionRule = field(default_factory=Kaiser)
    k_regions: int = 4
    cluster_space: str = "both"
    k_vars: int = 4
    score_columns: str = "retained"
    component_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if (self.input_path is None) == (self.synthetic is None):
            raise ValidationError("exactly one input mode required: input file or synthetic")
        if self.k_regions < 1:
            raise ValidationError("k_regions must be at least 1")
        if self.k_vars < 1:
            raise ValidationError("k_vars must be at least 1")
        if self.cluster_space not in CLUSTER_SPACES:
            raise ValidationError(
                f"cluster_space must be one of {CLUSTER_SPACES}, got {self.cluster_space!r}"
            )
        if self.score_columns not in SCORE_COLUMN_MODES:
            raise ValidationError(
                f"score_columns must be one of {SCORE_COLUMN_MODES}, got {self.score_columns!r}"
            )


def read_key_values(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def parse_selection_rule(text: str) -> SelectionRule:
    """"kaiser", "fixed:<k>", or "cumulative:<percent>"."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    if name == "kaiser":
        if arg:
            raise ValidationError("kaiser takes no argument")
        return Kaiser()
    if name == "fixed":
        try:
            return Fixed(k=int(arg))
        except ValueError:
            raise ValidationError(f"fixed rule needs an integer, got {arg!r}") from None
    if name == "cumulative":
        try:
            return CumulativeThreshold(percent=float(arg))
        except ValueError:
            raise ValidationError(f"cumulative rule needs a number, got {arg!r}") from None
    raise ValidationError(f"unknown component rule {text!r}")


def _named(names: dict[str, str], what: str):
    """Converter from a name in names, in any case, to its character."""
    def convert(text: str) -> str:
        if text.lower() not in names:
            raise ValidationError(f"unknown {what} {text!r}")
        return names[text.lower()]
    return convert


def _labels(text: str) -> tuple[str, ...] | None:
    return tuple(s.strip() for s in text.split("|")) if text else None


# key -> converter from its text; the dataclass fields hold the defaults
_SYNTH_KEYS = {"n": int, "p": int, "clusters": int, "separation": float,
               "within_sd": float, "seed": int}
_PARSE_KEYS = {"delimiter": _named(_DELIMITERS, "delimiter"),
               "decimal": _named(_DECIMALS, "decimal separator")}
_RUN_KEYS = {"components": parse_selection_rule, "k_regions": int, "k_vars": int,
             "cluster_space": str.lower, "score_columns": str.lower,
             "component_labels": _labels}
_PIPELINE_KEYS = {"input", "synthetic", "output_dir", *_SYNTH_KEYS, *_PARSE_KEYS, *_RUN_KEYS}
_NOUNS = {int: "an integer", float: "a number"}


def _convert(pairs: dict[str, str], converters: dict) -> dict:
    """The converted value of each key in converters that pairs sets."""
    typed = {}
    for key, convert in converters.items():
        if key in pairs:
            try:
                typed[key] = convert(pairs[key])
            except ValueError:
                raise ValidationError(
                    f"{key} must be {_NOUNS[convert]}, got {pairs[key]!r}") from None
    return typed


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    pairs = read_key_values(path)
    unknown = sorted(set(pairs) - _PIPELINE_KEYS)
    if unknown:
        raise ValidationError(f"{path}: unknown keys {unknown}")
    base = path.parent

    synthetic_mode = pairs.get("synthetic", "false").lower()
    if synthetic_mode not in ("true", "false"):
        raise ValidationError(f"synthetic must be true or false, got {pairs['synthetic']!r}")
    if synthetic_mode == "false":
        stray = sorted(set(pairs) & set(_SYNTH_KEYS))
        if stray:
            raise ValidationError(
                f"{path}: keys {stray} require synthetic = true"
            )
    if "output_dir" not in pairs:
        raise ValidationError(f"{path}: output_dir is required")
    run = _convert(pairs, _RUN_KEYS)
    if "components" in run:
        run["component_rule"] = run.pop("components")
    return PipelineConfig(
        output_dir=base / pairs["output_dir"],
        input_path=base / pairs["input"] if "input" in pairs else None,
        synthetic=(SyntheticSpec(**_convert(pairs, _SYNTH_KEYS))
                   if synthetic_mode == "true" else None),
        parse_options=ParseOptions(**_convert(pairs, _PARSE_KEYS)),
        **run,
    )


def load_synthetic_spec(path: str | Path) -> SyntheticSpec:
    path = Path(path)
    pairs = read_key_values(path)
    unknown = sorted(set(pairs) - set(_SYNTH_KEYS))
    if unknown:
        raise ValidationError(f"{path}: unknown keys {unknown}")
    return SyntheticSpec(**_convert(pairs, _SYNTH_KEYS))
