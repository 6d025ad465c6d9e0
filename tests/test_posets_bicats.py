import re
from itertools import product

import pytest

from catalan_sset.bicats import (
    Cell,
    PosetalBicat,
    PosetalMonoidalBicat,
    embed,
    suspend,
    validate_bicat,
    validate_monoidal_bicat,
)
from catalan_sset.catalan import lax_from_bits
from catalan_sset.errors import InvalidInputError, NotCommutativeError
from catalan_sset.inputs import (
    BICAT_KEYS,
    MONOIDAL_POSET_KEYS,
    load_suite,
    parse_document,
    resolve_input,
    suite_names,
)
from catalan_sset.posets import MonoidalPoset, validate_monoidal_poset
from fixtures_bicats import perturbations, probe


def or2():
    return load_suite("or2")


def test_suite_inputs_all_validate():
    for name in suite_names():
        obj = load_suite(name)  # parse_document validates on load
        assert obj is not None
    assert set(suite_names()) == {
        "or2",
        "and2",
        "chain3-max",
        "chain3-min",
        "sigma-or2",
        "chain2-discrete",
        "trivial",
    }


def test_or2_is_valid():
    assert validate_monoidal_poset(or2()).ok


def test_non_monotone_tensor_is_rejected_with_witness():
    m = or2()
    tensor = dict(m.tensor)
    tensor[("1", "1")] = "0"  # unit laws still hold; only monotonicity breaks
    report = validate_monoidal_poset(
        MonoidalPoset(m.elements, m.leq, tensor, m.unit)
    )
    assert not report.ok
    assert any("monotone" in v for v in report.violations)


def test_non_associative_tensor_is_rejected():
    m = MonoidalPoset(
        elements=("e", "a"),
        leq=frozenset({("e", "e"), ("a", "a")}),
        tensor={("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"},
        unit="e",
    )
    # x*x = e makes this the two-element group: associative, fine
    assert validate_monoidal_poset(m).ok
    broken = dict(m.tensor)
    broken[("a", "a")] = "a"
    broken[("e", "a")] = "e"
    report = validate_monoidal_poset(MonoidalPoset(m.elements, m.leq, broken, "e"))
    assert not report.ok


def test_suspension_of_or2():
    b = suspend(or2())
    assert b.objects == ("*",)
    assert {c.name for c in b.cells} == {"0", "1"}
    assert validate_monoidal_bicat(b).ok


def test_suspension_needs_commutativity():
    # left-projection monoid with a unit: e.x = x, a.x = a, b.x = b
    m = MonoidalPoset(
        elements=("e", "a", "b"),
        leq=frozenset({("e", "e"), ("a", "a"), ("b", "b")}),
        tensor={
            ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
            ("a", "e"): "a", ("a", "a"): "a", ("a", "b"): "a",
            ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "b",
        },
        unit="e",
    )
    assert validate_monoidal_poset(m).ok
    with pytest.raises(NotCommutativeError):
        suspend(m)


def test_embedding_of_or2():
    b = embed(or2())
    assert b.objects == ("0", "1")
    assert len(b.cells) == 3  # two identities and one comparison cell
    assert validate_monoidal_bicat(b).ok
    assert b.unit_object == "0"
    assert b.tensor_objects("1", "0") == "1"


def test_bicat_validation_fault_injection():
    k = load_suite("chain2-discrete")
    # drop transitive closure requirement by adding a dangling order pair
    bad = PosetalBicat(
        objects=k.objects,
        cells=k.cells,
        leq=k.leq | {("id0", "u")},
        compose=dict(k.compose),
        identities=dict(k.identities),
    )
    report = validate_bicat(bad)
    assert not report.ok
    assert any("non-parallel" in v for v in report.violations)


def test_bicat_missing_composite_detected():
    k = load_suite("chain2-discrete")
    compose = dict(k.compose)
    del compose[("id1", "u")]
    report = validate_bicat(
        PosetalBicat(k.objects, k.cells, k.leq, compose, dict(k.identities))
    )
    assert not report.ok
    assert any("undefined" in v for v in report.violations)


def test_monoidal_bicat_unit_fault_detected():
    b = suspend(or2())
    cell_tensor = dict(b.cell_tensor)
    cell_tensor[("1", "0")] = "0"  # breaks strict unitality of the tensor
    bad = PosetalMonoidalBicat(
        objects=b.objects,
        cells=b.cells,
        leq=b.leq,
        compose=dict(b.compose),
        identities=dict(b.identities),
        obj_tensor=dict(b.obj_tensor),
        cell_tensor=cell_tensor,
        unit_object=b.unit_object,
    )
    report = validate_monoidal_bicat(bad)
    assert not report.ok


def _one_cell(**changes) -> PosetalMonoidalBicat:
    """The monoidal 2-category with one object ``*`` and one cell ``1``,
    with ``changes`` made to its fields."""
    fields = dict(
        objects=("*",), cells=(Cell("1", "*", "*"),), leq=frozenset({("1", "1")}),
        compose={("1", "1"): "1"}, identities={"*": "1"},
        obj_tensor={("*", "*"): "*"}, cell_tensor={("1", "1"): "1"}, unit_object="*",
    )
    return PosetalMonoidalBicat(**{**fields, **changes})


def _violations(check, value) -> tuple[str, ...]:
    try:
        return check(value).violations
    except InvalidInputError as exc:
        return (str(exc),)


@pytest.mark.parametrize(
    "check,value,message",
    [
        (validate_bicat, _one_cell(objects=()), "objects must be non-empty and distinct"),
        (validate_bicat, _one_cell(cells=(Cell("1", "*", "*"),) * 2),
         "cell names must be distinct"),
        (validate_bicat, _one_cell(cells=(Cell("1", "*", "*"), Cell("a,b", "*", "*"))),
         "cell names must not contain commas"),
        (validate_bicat,
         _one_cell(objects=("*", "b"), cells=(Cell("1", "*", "*"), Cell("e", "*", "b")),
                   leq=frozenset({("1", "1"), ("e", "e")}), identities={"*": "1", "b": "e"}),
         "identity of b is not an endo-cell"),
        (validate_bicat, _one_cell(compose={("1", "1"): "x"}),
         "composite 1 . 1 = x has wrong endpoints"),
        (validate_monoidal_bicat, _one_cell(unit_object="u"), "unit object u unknown"),
        (validate_monoidal_bicat, _one_cell(obj_tensor={("*", "*"): "u"}),
         "object tensor undefined or out of range on (*, *)"),
        (validate_monoidal_bicat, _one_cell(cell_tensor={("1", "1"): "x"}),
         "cell tensor (1, 1) = x unknown"),
        (validate_monoidal_poset, MonoidalPoset((), frozenset(), {}, "0"),
         "elements must be a non-empty list without repeats"),
        (validate_monoidal_poset,
         MonoidalPoset(("a,b",), frozenset({("a,b", "a,b")}), {("a,b", "a,b"): "a,b"}, "a,b"),
         "element names must not contain commas"),
        (lambda bits: lax_from_bits(1, bits), (2,), "entries must be 0 or 1"),
    ],
    ids=[
        "no-objects", "repeated-cell", "comma-cell", "identity-not-endo", "composite-unknown",
        "unit-object-unknown", "object-tensor-unknown", "cell-tensor-unknown", "no-elements",
        "comma-element", "bit-two",
    ],
)
def test_each_structural_fault_gets_its_message(check, value, message):
    """One minimal input per structural message of the validators, which
    the law perturbations below never reach."""
    assert message in _violations(check, value)


# -- the probe and its single-entry perturbations ------------------------------


# each law of a posetal monoidal 2-category, as the start of its message
_LAW_MESSAGES = {
    "composition associative": r"associativity fails at ",
    "left unit": r"left unit law fails at ",
    "right unit": r"right unit law fails at ",
    "composition monotone": r"composition not monotone on ",
    "hom order reflexive": r"hom order not reflexive at ",
    "hom order antisymmetric": r"hom order not antisymmetric on ",
    "hom order transitive": r"hom order not transitive: ",
    "cell tensor associative": r"cell tensor not associative at ",
    "cell tensor strictly unital": r"cell tensor not strictly unital at ",
    "cell tensor monotone": r"cell tensor not monotone on ",
    "tensor functorial": r"tensor not functorial on ",
    "tensor of identities": r"tensor of identities at ",
    "cell tensor endpoints": r"cell tensor \(.*\) has wrong endpoints$",
}


def test_the_probe_is_valid():
    assert validate_monoidal_bicat(probe()).ok


def test_every_law_rejects_a_perturbation_of_the_probe():
    """Of the 166 single-entry perturbations of the probe, the validator
    accepts exactly the three that are valid again, and every law's message
    appears for at least one of the others: deleting any law check changes
    this test's outcome."""
    reports = [(label, validate_monoidal_bicat(b)) for label, b in perturbations(probe())]
    assert len(reports) == 166
    assert sorted(label for label, report in reports if report.ok) == [
        ("compose", ("t", "t"), "t"),
        ("leq", ("1A", "t"), "removed"),
        ("leq", ("z", "1A"), "removed"),
    ]
    violations = [v for _, report in reports for v in report.violations]
    missing = [
        law for law, pattern in _LAW_MESSAGES.items()
        if not any(re.match(pattern, v) for v in violations)
    ]
    assert missing == []


# -- every small monoidal poset ------------------------------------------------


def _partial_orders(k):
    """Every partial order on 0..k-1, as a set of pairs (reflexive included)."""
    off = [(a, b) for a in range(k) for b in range(k) if a != b]
    for chosen in product((False, True), repeat=len(off)):
        leq = {(a, a) for a in range(k)} | {p for p, c in zip(off, chosen) if c}
        if any((b, a) in leq for (a, b) in leq if a != b):
            continue
        if all((a, c) in leq for (a, b) in leq for (b2, c) in leq if b == b2):
            yield leq


def _tables(k, unital):
    """(order, unit, table) for every partial order on the labels 0..k-1,
    every unit and every table, or every table unital for that unit."""
    els = range(k)
    for leq in _partial_orders(k):
        for unit in els:
            free = [(a, b) for a in els for b in els if not unital or unit not in (a, b)]
            for values in product(els, repeat=len(free)):
                t = dict(zip(free, values))
                if unital:
                    t.update({(unit, a): a for a in els})
                    t.update({(a, unit): a for a in els})
                yield leq, unit, t


def _laws_hold(k, leq, unit, t) -> bool:
    """The monoidal poset laws, stated here without the package."""
    els = range(k)
    return (
        all(t[(unit, a)] == a == t[(a, unit)] for a in els)
        and all(t[(t[(a, b)], c)] == t[(a, t[(b, c)])] for a in els for b in els for c in els)
        and all((t[(a, c)], t[(b, c)]) in leq and (t[(c, a)], t[(c, b)]) in leq
                for (a, b) in leq for c in els)
    )


def _poset(k, leq, unit, t) -> MonoidalPoset:
    return MonoidalPoset(
        elements=tuple(str(a) for a in range(k)),
        leq=frozenset((str(a), str(b)) for (a, b) in leq),
        tensor={(str(a), str(b)): str(v) for (a, b), v in t.items()},
        unit=str(unit),
    )


def _monoidal_posets(k):
    """Every monoidal poset on the labels 0..k-1: each partial order, each
    unit and each table unital for it, kept when the laws hold.  Built from
    the laws alone, not through the package."""
    return [_poset(k, *table) for table in _tables(k, unital=True) if _laws_hold(k, *table)]


@pytest.mark.parametrize("k,unital", [(2, False), (3, True)])
def test_the_poset_validator_accepts_exactly_the_tables_the_laws_allow(k, unital):
    """Every table on two elements, and every unital one on three: each law
    the validator checks rejects a table no other law rejects."""
    for table in _tables(k, unital):
        assert validate_monoidal_poset(_poset(k, *table)).ok == _laws_hold(k, *table), table


@pytest.mark.parametrize("k,count,commutative", [(1, 1, 1), (2, 8, 8), (3, 213, 159)])
def test_every_small_monoidal_poset_embeds_and_suspends_validly(k, count, commutative):
    """``embed`` and ``suspend`` do not validate what they build; on every
    monoidal poset of size <= 3 the result is valid anyway."""
    posets = list(_monoidal_posets(k))
    assert len(posets) == count
    assert sum(m.is_commutative() for m in posets) == commutative
    for m in posets:
        assert validate_monoidal_poset(m).ok
        assert validate_monoidal_bicat(embed(m)).ok
        if m.is_commutative():
            assert validate_monoidal_bicat(suspend(m)).ok


def test_embed_refuses_element_names_that_give_two_cells_one_name():
    # a <= b->c and a->b <= c both become a cell named "a->b->c"
    els = ("a", "c", "a->b", "b->c")
    tensor = {(x, y): "c" for x in els for y in els}
    tensor.update({("a", x): x for x in els})
    tensor.update({(x, "a"): x for x in els})
    tensor[("b->c", "b->c")] = "b->c"
    m = MonoidalPoset(
        elements=els,
        leq=frozenset({(x, x) for x in els} | {("a", "b->c"), ("a->b", "c")}),
        tensor=tensor,
        unit="a",
    )
    assert validate_monoidal_poset(m).ok
    with pytest.raises(InvalidInputError, match="give two cells one name"):
        embed(m)


# -- JSON parsing --------------------------------------------------------------


def test_parse_rejects_unknown_keys():
    doc = {
        "elements": ["0"],
        "leq": [["0", "0"]],
        "tensor": {"0,0": "0"},
        "unit": "0",
        "extra": 1,
    }
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_rejects_missing_keys():
    with pytest.raises(InvalidInputError):
        parse_document({"elements": ["0"]})


def test_parse_rejects_bad_table_keys():
    doc = {
        "elements": ["0"],
        "leq": [["0", "0"]],
        "tensor": {"0": "0"},
        "unit": "0",
    }
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_rejects_bad_cells():
    doc = {
        "objects": ["*"],
        "cells": [{"source": "*", "to": "*", "name": "id"}],
        "leq": [["id", "id"]],
        "compose": {"id,id": "id"},
        "identities": {"*": "id"},
    }
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_key_sets_are_exact():
    assert MONOIDAL_POSET_KEYS == {"elements", "leq", "tensor", "unit"}
    assert BICAT_KEYS == {"objects", "cells", "leq", "compose", "identities"}


def test_resolve_input_accepts_path_and_suite_names(tmp_path):
    assert resolve_input("or2").unit == "0"
    assert resolve_input("suite/or2.json").unit == "0"
    target = tmp_path / "copy.json"
    target.write_text(
        '{"elements": ["0"], "leq": [["0", "0"]], "tensor": {"0,0": "0"}, "unit": "0"}',
        encoding="utf-8",
    )
    assert resolve_input(str(target)).elements == ("0",)
    with pytest.raises(InvalidInputError):
        resolve_input("no-such-input")


def test_invalid_file_is_refused(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text(
        '{"elements": ["0", "1"], "leq": [["0", "0"], ["1", "1"], ["0", "1"]],'
        ' "tensor": {"0,0": "0", "0,1": "0", "1,0": "1", "1,1": "1"}, "unit": "0"}',
        encoding="utf-8",
    )
    with pytest.raises(InvalidInputError):
        resolve_input(str(target))
