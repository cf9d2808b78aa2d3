"""Field tables of the frozen configuration sections.

A :class:`~repro.experiments.config.ScenarioConfig` and each of its sections
(device, radio, mobility, routing with its buffer, engine) is a frozen
dataclass whose fields are scalars (``int``, ``float``, ``bool``, ``str``)
or nested sections.  :func:`field_table` reads a class's fields once; four
per-instance jobs use the table:

* :func:`normalize_numbers`, called first in every section's
  ``__post_init__``, makes numeric field types exact: an int in a float
  field becomes a float, an int field accepts integers only (never a
  bool), and a float field is finite (NaN would slip past every range
  check).  Scenario files are read under the same rule
  (:func:`coerce_scalar`), so ``duration_s=1800`` and ``duration_s=1800.0``
  are one configuration with one cache key, whether typed in Python or in a
  file.
* :func:`replace_fields` derives a variant from dotted field paths
  (``"radio.num_channels"``); the CLI overrides and the sweep axes are
  tables of such paths.
* :func:`config_to_dict` is the flattener behind the configuration digest
  and the scenario exports.  It equals :func:`dataclasses.asdict` on these
  classes but copies field values shallowly: every leaf is an immutable
  scalar, so there is nothing to deep-copy.
* :mod:`repro.experiments.serialization` builds sections from mappings by
  the same table.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from typing import Any, Dict, List, Mapping, Tuple, TypeVar

#: The scalar field kinds a configuration section may declare, by the
#: annotation's name.
_SCALARS = {"float": float, "int": int, "bool": bool, "str": str}


@dataclasses.dataclass(frozen=True)
class FieldTable:
    """The fields of one configuration class, in declaration order."""

    #: Field name → scalar kind (a key of ``_SCALARS``), ``"section"``
    #: for a nested section, or the unsupported annotation's name.
    kinds: Dict[str, str]
    #: Nested section field name → its class.
    sections: Dict[str, type]
    floats: Tuple[str, ...]
    ints: Tuple[str, ...]


_TABLES: Dict[type, FieldTable] = {}


def field_table(cls: type) -> FieldTable:
    """The (cached) field table of configuration class ``cls``."""
    table = _TABLES.get(cls)
    if table is None:
        table = _TABLES[cls] = _build_table(cls)
    return table


def _build_table(cls: type) -> FieldTable:
    kinds: Dict[str, str] = {}
    sections: Dict[str, type] = {}
    hints = None
    for field in dataclasses.fields(cls):
        kind = field.type if isinstance(field.type, str) else getattr(field.type, "__name__", "")
        if kind not in _SCALARS:
            if hints is None:
                hints = typing.get_type_hints(cls)
            annotation = hints[field.name]
            if dataclasses.is_dataclass(annotation):
                sections[field.name] = annotation
                kind = "section"
        kinds[field.name] = kind
    return FieldTable(
        kinds=kinds,
        sections=sections,
        floats=tuple(name for name, kind in kinds.items() if kind == "float"),
        ints=tuple(name for name, kind in kinds.items() if kind == "int"),
    )


def coerce_scalar(kind: str, value: Any) -> Any:
    """``value`` as a field of scalar ``kind``, or a :class:`ValueError`.

    Any real number is accepted for a float field and becomes a ``float``;
    any integer (a NumPy integer too) for an int field and becomes an
    ``int``.  Bools are rejected for both: ``True`` would otherwise pass as
    ``1``.  Bool and str fields take exactly their type.  The error message
    starts with "must be", for the caller to prefix with the field's name.
    """
    if type(value) is _SCALARS.get(kind):
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"must be a number, got {value!r}")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"must be an integer, got {value!r}")
        return int(value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ValueError(f"must be a boolean, got {value!r}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ValueError(f"must be a string, got {value!r}")
        return value
    raise ValueError(f"has unsupported type {kind!r}")


def normalize_numbers(section: Any) -> None:
    """Make the numeric fields of frozen ``section`` exactly typed, in place.

    Called first in each configuration section's ``__post_init__``; values
    already of the exact type (every preset's) are left untouched.  A NaN or
    infinite float field is a :class:`ValueError`.
    """
    table = field_table(type(section))
    for name in table.floats:
        value = getattr(section, name)
        if type(value) is not float:
            value = _coerce_in_place(section, "float", name)
        if not math.isfinite(value):
            raise ValueError(f"{type(section).__name__}.{name} must be finite, got {value!r}")
    for name in table.ints:
        if type(getattr(section, name)) is not int:
            _coerce_in_place(section, "int", name)


def _coerce_in_place(section: Any, kind: str, name: str) -> Any:
    try:
        value = coerce_scalar(kind, getattr(section, name))
    except ValueError as exc:
        raise ValueError(f"{type(section).__name__}.{name} {exc}") from None
    object.__setattr__(section, name, value)
    return value


Config = TypeVar("Config")


def replace_fields(config: Config, changes: Mapping[str, Any]) -> Config:
    """A copy of ``config`` with each dotted field path set to its value.

    ``replace_fields(config, {"radio.num_channels": 3, "seed": 5})`` rebuilds
    every touched section once, deepest first, with one
    :func:`dataclasses.replace`, so a section's ``__post_init__`` sees all
    of its changes together (``mobility.model="trace-file"`` is valid only
    with ``mobility.trace_file`` set).  A path must end on a scalar field;
    an unknown segment, a path ending on a section or one running through a
    scalar is a :class:`ValueError` naming the fields available there.
    """
    tree: Dict[str, Any] = {}
    for path, value in changes.items():
        cls, node = type(config), tree
        *sections, leaf = path.split(".")
        for depth, name in enumerate(sections):
            table = field_table(cls)
            if name not in table.sections:
                raise _path_error(path, sections[:depth], name, table)
            cls, node = table.sections[name], node.setdefault(name, {})
        table = field_table(cls)
        if leaf not in table.kinds or leaf in table.sections:
            raise _path_error(path, sections, leaf, table)
        node[leaf] = value
    return _replace_tree(config, tree)


def _replace_tree(section: Any, tree: Dict[str, Any]) -> Any:
    if not tree:
        return section
    sections = field_table(type(section)).sections
    for name in tree.keys() & sections.keys():
        tree[name] = _replace_tree(getattr(section, name), tree[name])
    return dataclasses.replace(section, **tree)


def _path_error(path: str, parents: List[str], name: str, table: FieldTable) -> ValueError:
    prefix = ".".join(parents + [name])
    if name in table.sections:
        problem = f"{prefix!r} is a section, not a field"
    elif name in table.kinds:
        problem = f"{prefix!r} is a scalar field, not a section"
    else:
        problem = f"unknown field {prefix!r}"
    available = sorted(".".join(parents + [field]) for field in table.kinds)
    return ValueError(f"cannot set {path!r}: {problem}; available: {available}")


def config_to_dict(section: Any) -> Dict[str, Any]:
    """Every field of ``section`` as a dict, nested sections as nested dicts.

    Equal to :func:`dataclasses.asdict` for configuration sections; the
    values are the section's own (immutable) leaves, not copies.
    """
    table = field_table(type(section))
    data = {name: getattr(section, name) for name in table.kinds}
    for name in table.sections:
        data[name] = config_to_dict(data[name])
    return data
