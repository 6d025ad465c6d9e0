import json

import pytest
from hypothesis import given, settings, strategies as st

from catalan_sset.bicats import (
    PosetalBicat,
    PosetalMonoidalBicat,
    validate_bicat,
    validate_monoidal_bicat,
)
from catalan_sset.errors import InvalidInputError
from catalan_sset.inputs import _suite_dir, load_path, parse_document, suite_names
from catalan_sset.posets import MonoidalPoset, validate_monoidal_poset

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

VALIDATORS = (
    # the monoidal variant first: it subclasses the plain 2-category
    (PosetalMonoidalBicat, validate_monoidal_bicat),
    (PosetalBicat, validate_bicat),
    (MonoidalPoset, validate_monoidal_poset),
)


def _suite_document(name):
    return json.loads(_suite_dir().joinpath(f"{name}.json").read_text(encoding="utf-8"))


def _leaf_paths(node, path=()):
    """Paths (keys and indices) to every non-container value of a document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaf_paths(child, path + (key,))]


def _replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


@pytest.mark.parametrize("name", suite_names())
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_replaced_leaf_parses_validated_or_is_refused(name, data):
    doc = _suite_document(name)
    path = data.draw(st.sampled_from(_leaf_paths(doc)), label="path")
    value = data.draw(JSON_VALUES, label="value")
    try:
        out = parse_document(_replaced(doc, path, value))
    except InvalidInputError:
        return
    validate = next(v for cls, v in VALIDATORS if isinstance(out, cls))
    assert validate(out).ok


@pytest.mark.parametrize("key", ["0,1", "unit"])
def test_a_key_named_twice_is_refused_by_name(tmp_path, key):
    """``json`` keeps a repeated key's last value; an input file that names
    a key twice in one object is refused instead, at any depth."""
    text = json.dumps(_suite_document("or2"))
    first = f'"{key}": '
    assert text.count(first) == 1
    target = tmp_path / "twice.json"
    target.write_text(text.replace(first, f'{first}"0", {first}', 1), encoding="utf-8")
    with pytest.raises(InvalidInputError, match=f"key '{key}' twice"):
        load_path(target)
