"""JSON input formats and the bundled verification suite.

A monoidal poset file holds exactly the keys ``elements``, ``leq``,
``tensor``, ``unit``; a posetal 2-category file exactly ``objects``,
``cells``, ``leq``, ``compose``, ``identities``; the monoidal variant adds
``obj_tensor``, ``cell_tensor``, ``unit_object``.  Every name, table value
and identity value is a JSON string.  Table keys pair names with a single
comma, so names must not contain commas.  Unknown or missing keys are
rejected, and every parsed input is validated before use.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .bicats import (
    Cell,
    PosetalBicat,
    PosetalMonoidalBicat,
    validate_bicat,
    validate_monoidal_bicat,
)
from .errors import InvalidInputError
from .posets import MonoidalPoset, require_valid, validate_monoidal_poset

__all__ = [
    "MONOIDAL_POSET_KEYS",
    "BICAT_KEYS",
    "MONOIDAL_BICAT_KEYS",
    "parse_document",
    "load_path",
    "suite_names",
    "load_suite",
    "resolve_input",
]

MONOIDAL_POSET_KEYS = frozenset({"elements", "leq", "tensor", "unit"})
BICAT_KEYS = frozenset({"objects", "cells", "leq", "compose", "identities"})
MONOIDAL_BICAT_KEYS = BICAT_KEYS | {"obj_tensor", "cell_tensor", "unit_object"}


def _split_key(key: str) -> tuple[str, str]:
    if key.count(",") != 1:
        raise InvalidInputError(f"table key {key!r} must contain exactly one comma")
    a, b = key.split(",")
    return a, b


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise InvalidInputError(f"{what} must be a string")
    return value


def _pair_table(doc: dict, key: str) -> dict[tuple[str, str], str]:
    table = doc[key]
    if not isinstance(table, dict):
        raise InvalidInputError(f"{key} must be an object")
    return {_split_key(k): _string(v, f"{key}[{k!r}]") for k, v in table.items()}


def _name(doc: dict, key: str) -> str:
    return _string(doc[key], key)


def _name_list(doc: dict, key: str) -> tuple[str, ...]:
    names = doc[key]
    if not isinstance(names, list) or not all(isinstance(e, str) for e in names):
        raise InvalidInputError(f"{key} must be a list of strings")
    return tuple(names)


def _pair_list(doc: dict, key: str) -> frozenset:
    pairs = doc[key]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(e, str) for e in p)
        for p in pairs
    ):
        raise InvalidInputError(f"{key} must be a list of pairs of strings")
    return frozenset((a, b) for a, b in pairs)


def parse_document(doc: dict):
    """Parse a JSON document into a poset or 2-category, by its exact key set."""
    if not isinstance(doc, dict):
        raise InvalidInputError("input must be a JSON object")
    keys = frozenset(doc)
    if keys == MONOIDAL_POSET_KEYS:
        out = MonoidalPoset(
            elements=_name_list(doc, "elements"),
            leq=_pair_list(doc, "leq"),
            tensor=_pair_table(doc, "tensor"),
            unit=_name(doc, "unit"),
        )
        require_valid(validate_monoidal_poset(out))
        return out
    if keys == BICAT_KEYS or keys == MONOIDAL_BICAT_KEYS:
        cells = doc["cells"]
        if not isinstance(cells, list) or any(
            not isinstance(c, dict) or set(c) != {"from", "to", "name"} for c in cells
        ):
            raise InvalidInputError(
                'cells must be a list of {"from": ..., "to": ..., "name": ...}'
            )
        identities = doc["identities"]
        if not isinstance(identities, dict):
            raise InvalidInputError("identities must be an object")
        common = dict(
            objects=_name_list(doc, "objects"),
            cells=tuple(
                Cell(*(_string(c[f], f"cell {f}") for f in ("name", "from", "to")))
                for c in cells
            ),
            leq=_pair_list(doc, "leq"),
            compose=_pair_table(doc, "compose"),
            identities={k: _string(v, f"identities[{k!r}]") for k, v in identities.items()},
        )
        if keys == BICAT_KEYS:
            out = PosetalBicat(**common)
            require_valid(validate_bicat(out))
            return out
        out = PosetalMonoidalBicat(
            **common,
            obj_tensor=_pair_table(doc, "obj_tensor"),
            cell_tensor=_pair_table(doc, "cell_tensor"),
            unit_object=_name(doc, "unit_object"),
        )
        require_valid(validate_monoidal_bicat(out))
        return out
    raise InvalidInputError(
        "unrecognised key set; expected exactly a monoidal poset "
        f"({sorted(MONOIDAL_POSET_KEYS)}), a 2-category ({sorted(BICAT_KEYS)}) "
        f"or its monoidal variant"
    )


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct; a repeated key is refused,
    where ``json`` would keep its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InvalidInputError(f"JSON object names the key {key!r} twice")
        doc[key] = value
    return doc


def load_path(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"{path} is not a UTF-8 JSON file: {exc}") from exc
        except RecursionError as exc:
            raise InvalidInputError(f"{path} nests JSON too deeply to parse") from exc
    return parse_document(doc)


def _suite_dir():
    return resources.files("catalan_sset").joinpath("data/suite")


def suite_names() -> tuple[str, ...]:
    return tuple(
        sorted(p.name[: -len(".json")] for p in _suite_dir().iterdir() if p.name.endswith(".json"))
    )


def load_suite(name: str):
    entry = _suite_dir().joinpath(f"{name}.json")
    if not entry.is_file():
        raise InvalidInputError(
            f"no bundled input {name!r}; available: {', '.join(suite_names())}"
        )
    text = entry.read_text(encoding="utf-8")
    return parse_document(json.loads(text, object_pairs_hook=_unique_keys))


def resolve_input(path_or_name: str):
    """A filesystem path, or a bundled-suite name like ``or2`` / ``suite/or2.json``.

    A missing file falls back to the suite only when its directory is ``.``
    or ``suite``; any other missing path is an error that names it.
    """
    p = Path(path_or_name)
    if p.is_file() or p.parent not in (Path("."), Path("suite")):
        return load_path(p)
    return load_suite(p.name.removesuffix(".json"))
