"""Lossless :class:`ScenarioConfig` ⇄ JSON/TOML serialization.

Scenarios are shareable files: ``save_scenario`` writes a configuration to
JSON or TOML (chosen by file suffix) and ``load_scenario`` reads it back into
a :class:`ScenarioConfig` that compares equal to the original — including
field *types*, so the SHA-256 configuration digest that keys the
:class:`~repro.experiments.parallel.SweepExecutor` on-disk cache is unchanged
by a round trip.  ``tests/experiments/test_serialization.py`` pins both
properties.

TOML reading uses the standard-library :mod:`tomllib` (Python ≥ 3.11); TOML
writing is a small purpose-built emitter because the environment ships no
TOML writer.  Both formats carry a ``schema_version`` key so future layout
changes can be detected instead of silently misread.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - older interpreters
    tomllib = None  # type: ignore[assignment]

from repro.engine.config import EngineConfig
from repro.experiments.config import ScenarioConfig
from repro.mac.device import DeviceConfig
from repro.mobility.config import MobilityConfig
from repro.radio.config import RadioConfig
from repro.routing.config import BufferConfig, RoutingConfig

#: Nested dataclass tables inside a scenario mapping.
_NESTED_TABLES = {
    "device": DeviceConfig,
    "radio": RadioConfig,
    "mobility": MobilityConfig,
    "routing": RoutingConfig,
    "engine": EngineConfig,
}

#: Dataclass sub-tables nested one level deeper, by (owner table, field).
_NESTED_SUBTABLES = {("routing", "buffer"): BufferConfig}

#: Bump when the serialized field layout changes incompatibly.
SCENARIO_SCHEMA_VERSION = 1

_SCHEMA_KEY = "schema_version"


class ScenarioFormatError(ValueError):
    """A scenario file or mapping does not describe a valid ScenarioConfig."""


# --------------------------------------------------------------------- #
# Dict round trip
# --------------------------------------------------------------------- #
def scenario_to_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """A JSON/TOML-ready mapping of every field of ``config``."""
    data: Dict[str, Any] = {_SCHEMA_KEY: SCENARIO_SCHEMA_VERSION}
    data.update(dataclasses.asdict(config))
    return data


def _coerce_field(owner: str, field: dataclasses.Field, value: Any) -> Any:
    """Validate ``value`` against the field's annotated scalar type.

    The one lossy spot in a text round trip is numeric typing (TOML and JSON
    both render ``1.0`` indistinguishably from ``1`` in some writers), so
    integers are accepted for float fields and promoted; everything else must
    match exactly.  Booleans are rejected where ints are expected — ``True``
    would otherwise silently pass an ``int`` check.
    """
    kind = field.type if isinstance(field.type, str) else getattr(field.type, "__name__", "")
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioFormatError(f"{owner}.{field.name} must be a number, got {value!r}")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioFormatError(f"{owner}.{field.name} must be an integer, got {value!r}")
        return int(value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ScenarioFormatError(f"{owner}.{field.name} must be a boolean, got {value!r}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ScenarioFormatError(f"{owner}.{field.name} must be a string, got {value!r}")
        return value
    raise ScenarioFormatError(f"{owner}.{field.name} has unsupported type {kind!r}")


def _build_dataclass(cls: type, owner: str, data: Mapping[str, Any]) -> Any:
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ScenarioFormatError(
            f"unknown {owner} field(s): {sorted(unknown)}; expected a subset of {sorted(fields)}"
        )
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        field = fields[name]
        if owner == "scenario" and name in _NESTED_TABLES:
            if not isinstance(value, Mapping):
                raise ScenarioFormatError(f"{owner}.{name} must be a table/object, got {value!r}")
            kwargs[name] = _build_dataclass(_NESTED_TABLES[name], name, value)
        elif (owner, name) in _NESTED_SUBTABLES:
            if not isinstance(value, Mapping):
                raise ScenarioFormatError(f"{owner}.{name} must be a table/object, got {value!r}")
            kwargs[name] = _build_dataclass(
                _NESTED_SUBTABLES[(owner, name)], f"{owner}.{name}", value
            )
        else:
            kwargs[name] = _coerce_field(owner, field, value)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(f"invalid {owner} configuration: {exc}") from exc


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`scenario_to_dict` output.

    Missing fields take their dataclass defaults (so hand-written scenario
    files only need to state what differs); unknown fields are an error so a
    typo cannot silently fall back to a default.  The one exception is
    ``engine.strict_equivalence``, which older exports always wrote: ``true``
    is the only engine behaviour left and is dropped, ``false`` asked for
    the removed relaxed mode and is an error.
    """
    if not isinstance(data, Mapping):
        raise ScenarioFormatError(f"scenario must be a mapping, got {type(data).__name__}")
    payload = dict(data)
    version = payload.pop(_SCHEMA_KEY, SCENARIO_SCHEMA_VERSION)
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported scenario {_SCHEMA_KEY} {version!r} "
            f"(this build reads version {SCENARIO_SCHEMA_VERSION})"
        )
    engine = payload.get("engine")
    if isinstance(engine, Mapping) and "strict_equivalence" in engine:
        engine = dict(engine)
        strict = engine.pop("strict_equivalence")
        if strict is not True:
            raise ScenarioFormatError(
                f"engine.strict_equivalence = {strict!r} asks for the relaxed "
                "array-engine mode, which was removed; delete the field"
            )
        payload["engine"] = engine
    return _build_dataclass(ScenarioConfig, "scenario", payload)


# --------------------------------------------------------------------- #
# JSON
# --------------------------------------------------------------------- #
def scenario_to_json(config: ScenarioConfig) -> str:
    """The configuration as pretty-printed JSON text."""
    return json.dumps(scenario_to_dict(config), indent=2, sort_keys=False) + "\n"


def scenario_from_json(text: str) -> ScenarioConfig:
    """Parse JSON text produced by :func:`scenario_to_json` (or hand-written)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid scenario JSON: {exc}") from exc
    return scenario_from_dict(data)


# --------------------------------------------------------------------- #
# TOML
# --------------------------------------------------------------------- #
def _toml_scalar(owner: str, key: str, value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr() keeps full precision; TOML floats require a decimal point or
        # exponent, which repr of a Python float always includes (inf/nan are
        # valid TOML tokens too).
        return repr(value)
    if isinstance(value, str):
        # JSON escaping of quotes and control characters below 0x20 matches
        # TOML basic strings; ensure_ascii=False keeps non-ASCII text raw,
        # since JSON's \uXXXX surrogate pairs for astral characters are
        # invalid TOML.  U+007F (DEL) is the one control character TOML
        # forbids that json.dumps leaves raw.
        return json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007F")
    raise ScenarioFormatError(f"{owner}.{key} is not TOML-serializable: {value!r}")


def scenario_to_toml(config: ScenarioConfig) -> str:
    """The configuration as TOML text (scalars first, then the nested tables).

    Dataclass-valued fields inside a table (the routing ``buffer`` section)
    become dotted sub-tables (``[routing.buffer]``), emitted after their
    owner's scalars so the TOML table structure stays valid.
    """
    data = scenario_to_dict(config)
    tables = {name: data.pop(name) for name in _NESTED_TABLES}
    lines = [f"{key} = {_toml_scalar('scenario', key, value)}" for key, value in data.items()]
    for name, table in tables.items():
        subtables = {
            key: value for key, value in table.items() if isinstance(value, dict)
        }
        lines.append("")
        lines.append(f"[{name}]")
        lines.extend(
            f"{key} = {_toml_scalar(name, key, value)}"
            for key, value in table.items()
            if key not in subtables
        )
        for sub_name, sub_table in subtables.items():
            lines.append("")
            lines.append(f"[{name}.{sub_name}]")
            lines.extend(
                f"{key} = {_toml_scalar(f'{name}.{sub_name}', key, value)}"
                for key, value in sub_table.items()
            )
    return "\n".join(lines) + "\n"


def scenario_from_toml(text: str) -> ScenarioConfig:
    """Parse TOML text produced by :func:`scenario_to_toml` (or hand-written)."""
    if tomllib is None:  # pragma: no cover - Python < 3.11 only
        raise ScenarioFormatError(
            "reading TOML scenarios requires Python >= 3.11 (stdlib tomllib); "
            "use the JSON format instead"
        )
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioFormatError(f"invalid scenario TOML: {exc}") from exc
    return scenario_from_dict(data)


# --------------------------------------------------------------------- #
# Files
# --------------------------------------------------------------------- #
_WRITERS = {".json": scenario_to_json, ".toml": scenario_to_toml}
_READERS = {".json": scenario_from_json, ".toml": scenario_from_toml}


def _format_for(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix not in _WRITERS:
        raise ScenarioFormatError(
            f"unsupported scenario file suffix {suffix!r} for {path}; use .json or .toml"
        )
    return suffix


def save_scenario(config: ScenarioConfig, path: Union[str, Path]) -> Path:
    """Write ``config`` to ``path`` as JSON or TOML (chosen by suffix)."""
    target = Path(path)
    text = _WRITERS[_format_for(target)](config)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


def load_scenario(path: Union[str, Path]) -> ScenarioConfig:
    """Read a scenario file written by :func:`save_scenario` (or by hand)."""
    source = Path(path)
    reader = _READERS[_format_for(source)]
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {source}: {exc}") from exc
    return reader(text)
