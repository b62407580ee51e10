"""Sectioned key = value experiment configuration.

Grammar, one directive per line:

    experiment = mix            # root key, before any section
    [model]                     # section header
    kind = zz_chain             # string scalar
    n = 3                       # integer scalar
    [run]
    beta = 0.5                  # float scalar
    dbetas = [0.2, 0.1, 0.05]   # bracketed list
    # comments run to end of line

Sections are model, weights, run and output; the set of allowed and
required keys depends on the experiment.  Values are typed by shape:
integers, floats, bracketed lists, everything else a bare string (no
quoting, so values cannot contain '#'); a float or a list entry must be
finite, so nan and inf are refused.  Parsing reports the offending line
number; unknown sections or keys are rejected, as are missing required
keys.  serialize_config emits a canonical form (fixed section
order, sorted keys, shortest round-trip float repr) whose parse is
idempotent, and config_hash fingerprints that canonical form.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

from .errors import MissingKey, ParseError, UnknownKey

EXPERIMENTS = ("mix", "project", "parent", "anneal", "overlap", "estimate")

_SECTIONS = ("model", "weights", "run", "output")

_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass(frozen=True)
class ModelConfig:
    """Which Hamiltonian instance to build and how to couple to it."""

    kind: str = "zz_chain"
    n: int = 2
    seed: int = 0
    couplings: str = "x"


@dataclass(frozen=True)
class WeightsConfig:
    """Weight-function preset for the jump operators."""

    kind: str = "davies_kms"


@dataclass(frozen=True)
class OutputConfig:
    """Relative artifact paths, resolved against the output directory."""

    csv: str
    summary: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    experiment: str
    model: ModelConfig
    weights: WeightsConfig
    run: dict = field(default_factory=dict)
    output: OutputConfig | None = None


# (type, required, default); type "float" accepts integer literals.
_MODEL_SCHEMA = {
    "kind": ("str", True, None),
    "n": ("int", True, None),
    "seed": ("int", False, 0),
    "couplings": ("str", False, "x"),
}

_WEIGHTS_SCHEMA = {
    "kind": ("str", False, "davies_kms"),
}

_OUTPUT_SCHEMA = {
    "csv": ("str", False, None),
    "summary": ("str", False, None),
}

_RUN_SCHEMAS = {
    "mix": {
        "beta": ("float", True, None),
        "k_max": ("int", True, None),
    },
    "project": {
        "eps": ("float", True, None),
        "ell_min": ("int", False, 1),
        "ell_max": ("int", False, 40),
    },
    "parent": {
        "beta": ("float", True, None),
    },
    "anneal": {
        "beta": ("float", True, None),
        "delta": ("float", True, None),
        "alpha": ("float", False, 2.0),
        "mode": ("str", False, "exact"),
    },
    "overlap": {
        "beta": ("float", True, None),
        "dbetas": ("list", True, None),
    },
    "estimate": {
        "m_terms": ("int", True, None),
        "g": ("float", True, None),
        "gap": ("float", True, None),
        "sigma_min": ("float", True, None),
        "eps": ("float", True, None),
        "beta": ("float", True, None),
        "norm_h": ("float", True, None),
        "delta": ("float", True, None),
        "c": ("float", False, 1.44),
        "alpha": ("float", False, 2.0),
    },
}

# The estimate experiment is a pure formula plug-in; its model and
# weights blocks are optional and take the dataclass defaults.
_MODEL_OPTIONAL = ("estimate",)


def _parse_scalar(text: str, lineno: int):
    text = text.strip()
    if not text:
        raise ParseError(f"line {lineno}: empty value")
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"line {lineno}: unterminated list {text!r}")
        body = text[1:-1].strip()
        if not body:
            return []
        return [_parse_scalar(part, lineno) for part in body.split(",")]
    return _parse_scalar(text, lineno)


def _raw_parse(text: str) -> tuple[dict[str, tuple[object, int]], dict[str, dict[str, tuple[object, int]]]]:
    """Split text into root keys and per-section key tables with line numbers."""
    root: dict[str, tuple[object, int]] = {}
    sections: dict[str, dict[str, tuple[object, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise UnknownKey(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ParseError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        parsed = _parse_value(value, lineno)
        table = root if current is None else sections[current]
        if key in table:
            where = key if current is None else f"{current}.{key}"
            raise ParseError(f"line {lineno}: duplicate key {where}")
        table[key] = (parsed, lineno)
    return root, sections


def _apply_schema(
    section: str,
    table: dict[str, tuple[object, int]],
    schema: dict[str, tuple[str, bool, object]],
) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, (value, lineno) in table.items():
        if key not in schema:
            raise UnknownKey(f"line {lineno}: unknown key {section}.{key}")
        want = schema[key][0]
        if want == "int":
            if not isinstance(value, int):
                raise ParseError(
                    f"line {lineno}: {section}.{key} must be an integer, got {value!r}"
                )
        elif want == "float":
            if isinstance(value, int):
                value = float(value)
            if not isinstance(value, float):
                raise ParseError(
                    f"line {lineno}: {section}.{key} must be a number, got {value!r}"
                )
            if not math.isfinite(value):
                raise ParseError(
                    f"line {lineno}: {section}.{key} must be a finite number, got {value!r}"
                )
        elif want == "list":
            if not isinstance(value, list):
                raise ParseError(
                    f"line {lineno}: {section}.{key} must be a bracketed list"
                )
            value = [float(v) if isinstance(v, int) else v for v in value]
            if not all(isinstance(v, float) for v in value):
                raise ParseError(
                    f"line {lineno}: {section}.{key} must list numbers only"
                )
            for v in value:
                if not math.isfinite(v):
                    raise ParseError(
                        f"line {lineno}: {section}.{key} must list finite numbers, got {v!r}"
                    )
        elif want == "str":
            if not isinstance(value, str):
                raise ParseError(
                    f"line {lineno}: {section}.{key} must be a bare string"
                )
        out[key] = value
    for key, (_, required, default) in schema.items():
        if key not in out:
            if required:
                raise MissingKey(f"{section}.{key}")
            if default is not None:
                out[key] = default
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an experiment configuration."""
    root, sections = _raw_parse(text)
    for key, (_, lineno) in root.items():
        if key != "experiment":
            raise UnknownKey(f"line {lineno}: unknown root key {key}")
    if "experiment" not in root:
        raise MissingKey("experiment")
    experiment, exp_line = root["experiment"]
    if experiment not in EXPERIMENTS:
        raise ParseError(
            f"line {exp_line}: unknown experiment {experiment!r}; expected one "
            f"of {', '.join(EXPERIMENTS)}"
        )

    if "model" not in sections:
        if experiment not in _MODEL_OPTIONAL:
            raise MissingKey("model.kind")
        model = ModelConfig()
    else:
        model = ModelConfig(
            **_apply_schema("model", sections["model"], _MODEL_SCHEMA)
        )

    weights_table = sections.get("weights", {})
    weights = WeightsConfig(
        **_apply_schema("weights", weights_table, _WEIGHTS_SCHEMA)
    )
    # davies_kms is the only weight kind (jumps.WeightProfile); the config
    # names it so that a file states the weights it was run with.
    if weights.kind != "davies_kms":
        raise ParseError(
            f"line {weights_table['kind'][1]}: weights.kind must be "
            f"davies_kms, got {weights.kind!r}"
        )

    run = _apply_schema("run", sections.get("run", {}), _RUN_SCHEMAS[experiment])

    out_raw = _apply_schema("output", sections.get("output", {}), _OUTPUT_SCHEMA)
    output = OutputConfig(
        csv=out_raw.get("csv") or f"{experiment}.csv",
        summary=out_raw.get("summary") or f"{experiment}.json",
    )
    return ExperimentConfig(
        experiment=experiment,
        model=model,
        weights=weights,
        run=run,
        output=output,
    )


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        raise ParseError(f"cannot serialize boolean {value!r}")
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: fixed section order, sorted keys."""
    lines = [f"experiment = {cfg.experiment}"]
    sections: list[tuple[str, dict[str, object]]] = [
        (
            "model",
            {
                "kind": cfg.model.kind,
                "n": cfg.model.n,
                "seed": cfg.model.seed,
                "couplings": cfg.model.couplings,
            },
        ),
        ("weights", {"kind": cfg.weights.kind}),
        ("run", dict(cfg.run)),
        (
            "output",
            {"csv": cfg.output.csv, "summary": cfg.output.summary}
            if cfg.output is not None
            else {},
        ),
    ]
    for name, table in sections:
        if not table:
            continue
        lines.append("")
        lines.append(f"[{name}]")
        for key in sorted(table):
            lines.append(f"{key} = {_format_value(table[key])}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Twelve hex characters of the canonical form's SHA-256."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]
