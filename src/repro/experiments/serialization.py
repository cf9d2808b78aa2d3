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

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Dict, Union

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - older interpreters
    tomllib = None  # type: ignore[assignment]

from repro.config_fields import coerce_scalar, config_to_dict, field_table
from repro.experiments.config import ScenarioConfig

#: Bump when the serialized field layout changes incompatibly.
SCENARIO_SCHEMA_VERSION = 1

_SCHEMA_KEY = "schema_version"

#: The scenario's sections in the order TOML exports emit their tables.
_TOML_TABLES = ("device", "radio", "mobility", "routing", "engine")


class ScenarioFormatError(ValueError):
    """A scenario file or mapping does not describe a valid ScenarioConfig."""


# --------------------------------------------------------------------- #
# Dict round trip
# --------------------------------------------------------------------- #
def scenario_to_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """A JSON/TOML-ready mapping of every field of ``config``."""
    data: Dict[str, Any] = {_SCHEMA_KEY: SCENARIO_SCHEMA_VERSION}
    data.update(config_to_dict(config))
    return data


def _build_dataclass(cls: type, owner: str, data: Mapping[str, Any]) -> Any:
    table = field_table(cls)
    kinds = table.kinds
    unknown = data.keys() - kinds.keys()
    if unknown:
        raise ScenarioFormatError(
            f"unknown {owner} field(s): {sorted(unknown)}; expected a subset of {sorted(kinds)}"
        )
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        section = table.sections.get(name)
        if section is None:
            # The one lossy spot in a text round trip is numeric typing (TOML
            # and JSON writers may render 1.0 as 1), so float fields accept
            # ints; everything else must match exactly.  The configuration
            # classes apply the same rule to values given in Python.
            try:
                kwargs[name] = coerce_scalar(kinds[name], value)
            except ValueError as exc:
                raise ScenarioFormatError(f"{owner}.{name} {exc}") from None
            continue
        if not isinstance(value, Mapping):
            raise ScenarioFormatError(f"{owner}.{name} must be a table/object, got {value!r}")
        # Sections of the scenario are named plainly ("routing"), deeper ones
        # by their dotted path ("routing.buffer").
        path = name if owner == "scenario" else f"{owner}.{name}"
        kwargs[name] = _build_dataclass(section, path, value)
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
    tables = {name: data.pop(name) for name in _TOML_TABLES}
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
