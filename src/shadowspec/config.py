"""Line-oriented run configuration: ``section.key = value``.

Sections are ``system``, ``check`` and ``output``; ``#`` starts a comment;
matrices are row-major with ``;`` between rows; every number is parsed
exactly.  The system object is constructed during validation so that a
non-hyperbolic matrix or reducible input fails here, with a line number,
rather than deep inside a check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codecs import decode_point
from .errors import ConfigError, ShadowspecError
from .scalars import parse_exact
from .systems import (
    CircleRotation,
    ShiftSpace,
    ToralAutomorphism,
)

CHECK_KINDS = (
    "check-shadowing",
    "spec",
    "barycenter",
    "heteroclinic",
    "periodic-points",
    "falsify-shadowing",
)

_SYSTEM_KEYS = {"kind", "matrix", "transition", "angle"}
_INT_KEYS = {"seed", "count", "length", "width", "maxSegments", "maxLength",
             "n1", "n2", "maxDepth", "maxPeriod", "horizon"}
_EXACT_KEYS = {"epsilon", "delta", "epsilonFactor"}
_TEXT_KEYS = {"kind", "p", "q", "mode", "levels", "epsilons"}
_CHECK_KEYS = _INT_KEYS | _EXACT_KEYS | _TEXT_KEYS
_OUTPUT_KEYS = {"format", "path", "plot"}
_POINT_KEYS = ("p", "q")


@dataclass
class RunConfig:
    """A validated run: the constructed system plus check/output parameters."""

    system: object
    check: dict
    output: dict = field(default_factory=dict)


def _scan(text: str):
    """Yield (line_number, section, key, value) for every assignment."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, eq, value = line.partition("=")
        if eq != "=":
            raise ConfigError("config-syntax", ln, f"expected 'section.key = value', got {raw!r}")
        section, dot, key = head.strip().partition(".")
        if dot != "." or not section or not key.strip():
            raise ConfigError("config-syntax", ln, f"expected 'section.key', got {head.strip()!r}")
        yield ln, section, key.strip(), value.strip()


def _parse_matrix(value: str, ln: int):
    try:
        return [[int(v) for v in row.split()] for row in value.split(";")]
    except ValueError:
        raise ConfigError("config-invalid-value", ln, f"not an integer matrix: {value!r}")


def _build_system(entries: dict, lines: dict):
    def _line(key):
        return lines.get(key, 0)

    kind = entries.get("kind")
    if kind is None:
        raise ConfigError("config-invariant", 0, "system.kind is required")
    try:
        if kind == "toral":
            if "matrix" not in entries:
                raise ConfigError("config-invariant", _line("kind"), "toral systems need system.matrix")
            return ToralAutomorphism(_parse_matrix(entries["matrix"], _line("matrix")))
        if kind == "sft":
            if "transition" not in entries:
                raise ConfigError("config-invariant", _line("kind"), "sft systems need system.transition")
            rows = [[int(ch) for ch in row.strip()]
                    for row in entries["transition"].split(";")]
            return ShiftSpace(rows)
        if kind == "rotation":
            if "angle" not in entries:
                raise ConfigError("config-invariant", _line("kind"), "rotations need system.angle")
            return CircleRotation(parse_exact(entries["angle"]))
    except ConfigError:
        raise
    except (ValueError, ShadowspecError) as exc:
        raise ConfigError("config-invariant", _line("kind"), str(exc))
    raise ConfigError("config-invalid-value", _line("kind"), f"unknown system kind {kind!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; every failure carries its line number."""
    sections = {"system": {}, "check": {}, "output": {}}
    lines = {"system": {}, "check": {}, "output": {}}
    for ln, section, key, value in _scan(text):
        if section not in sections:
            raise ConfigError("config-unknown-key", ln, f"unknown section {section!r}")
        allowed = {"system": _SYSTEM_KEYS, "check": _CHECK_KEYS,
                   "output": _OUTPUT_KEYS}[section]
        if key not in allowed:
            raise ConfigError("config-unknown-key", ln, f"unknown key {section}.{key}")
        if key in sections[section]:
            raise ConfigError("config-syntax", ln, f"duplicate key {section}.{key}")
        sections[section][key] = value
        lines[section][key] = ln

    system = _build_system(sections["system"], lines["system"])

    check = {}
    for key, value in sections["check"].items():
        ln = lines["check"][key]
        if key in _INT_KEYS:
            try:
                check[key] = int(value)
            except ValueError:
                raise ConfigError("config-invalid-value", ln, f"{key} must be an integer: {value!r}")
        elif key in _EXACT_KEYS:
            try:
                check[key] = parse_exact(value)
            except ValueError:
                raise ConfigError("config-invalid-value", ln, f"{key} must be an exact number: {value!r}")
        elif key == "levels":
            try:
                check[key] = tuple(int(v) for v in value.split())
            except ValueError:
                raise ConfigError("config-invalid-value", ln, f"levels must be integers: {value!r}")
        elif key == "epsilons":
            try:
                check[key] = tuple(parse_exact(v) for v in value.split())
            except ValueError:
                raise ConfigError("config-invalid-value", ln, f"epsilons must be exact numbers: {value!r}")
        else:
            check[key] = value

    if "kind" in check and check["kind"] not in CHECK_KINDS:
        raise ConfigError("config-invalid-value", lines["check"]["kind"],
                          f"unknown check kind {check['kind']!r}")
    for key in ("epsilon", "epsilonFactor"):
        if key in check and not check[key] > 0:
            raise ConfigError("config-invariant", lines["check"][key],
                              f"{key} must be positive")
    if "epsilons" in check and any(not e > 0 for e in check["epsilons"]):
        raise ConfigError("config-invariant", lines["check"]["epsilons"],
                          "epsilons must be positive")
    if "delta" in check and check["delta"] < 0:
        raise ConfigError("config-invariant", lines["check"]["delta"],
                          "delta must be nonnegative")
    for key in _POINT_KEYS:
        if key in check:
            try:
                check[key] = decode_point(system, check[key])
            except (ValueError, ShadowspecError) as exc:
                raise ConfigError("config-invalid-value", lines["check"][key],
                                  f"bad point for {key}: {exc}")

    output = dict(sections["output"])
    fmt = output.setdefault("format", "jsonl")
    if fmt not in ("jsonl", "csv"):
        raise ConfigError("config-invalid-value", lines["output"].get("format", 0),
                          f"unknown output format {fmt!r}")
    return RunConfig(system, check, output)
