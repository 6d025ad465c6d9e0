import json

import pytest

from catalan_sset.bicats import embed
from catalan_sset.classify import (
    MonadStructure,
    SkewMonoidale,
    direct_classification,
    maps_from_catalan,
    monads,
    skew_monoidales,
    verify_monad_remark,
    verify_theorem,
)
from catalan_sset.inputs import load_suite, parse_document
from catalan_sset.nerve import BicatNerve, MonoidalNerve
from catalan_sset.posets import MonoidalPoset


@pytest.fixture(scope="module")
def or2():
    return embed(load_suite("or2"))


@pytest.fixture(scope="module")
def and2():
    return embed(load_suite("and2"))


def test_monoidales_in_or2(or2):
    found = skew_monoidales(or2)
    assert len(found) == 2
    assert {m.carrier for m in found} == {"0", "1"}


def test_monoidales_in_and2(and2):
    found = skew_monoidales(and2)
    assert found == [SkewMonoidale("1", "1->1", "1->1")]


def test_monoidales_in_suspension():
    found = skew_monoidales(load_suite("sigma-or2"))
    assert found == [SkewMonoidale("*", "0", "0")]


def test_monads_in_suspension():
    found = monads(load_suite("sigma-or2"))
    assert {m.endo for m in found} == {"0", "1"}


def test_monads_in_discrete_chain():
    found = monads(load_suite("chain2-discrete"))
    assert found == [MonadStructure("0", "id0"), MonadStructure("1", "id1")]


def test_monads_in_trivial():
    assert monads(load_suite("trivial")) == [MonadStructure("*", "id")]


def test_map_counts(or2, and2):
    assert len(maps_from_catalan(or2)) == 2
    assert len(maps_from_catalan(and2)) == 1
    assert len(maps_from_catalan(load_suite("sigma-or2"))) == 1  # monoidal nerve
    plain = load_suite("sigma-or2")
    records = maps_from_catalan(
        plain if not hasattr(plain, "unit_object") else _plain_view(plain)
    )
    assert len(records) == 2


def _plain_view(b):
    from catalan_sset.bicats import PosetalBicat

    return PosetalBicat(
        objects=b.objects,
        cells=b.cells,
        leq=b.leq,
        compose=dict(b.compose),
        identities=dict(b.identities),
    )


def test_direct_equals_generic(or2):
    assert direct_classification(or2) == maps_from_catalan(or2)


def test_direct_counts_on_chains():
    c_max = embed(load_suite("chain3-max"))
    c_min = embed(load_suite("chain3-min"))
    assert len(direct_classification(c_max)) == 3
    assert len(direct_classification(c_min)) == 1
    assert direct_classification(c_max) == maps_from_catalan(c_max)
    assert direct_classification(c_min) == maps_from_catalan(c_min)


def test_every_map_record_lands_in_the_nerve(or2):
    nerve = MonoidalNerve(or2)
    level_sets = {n: set(nerve.level(n)) for n in range(5)}
    for record in maps_from_catalan(or2):
        for name, simplex in record.items():
            assert simplex in level_sets[simplex.n]


@pytest.mark.parametrize(
    "name,count",
    [("or2", 2), ("and2", 1), ("chain3-max", 3), ("chain3-min", 1)],
)
def test_theorem_on_embedded_posets(name, count):
    report = verify_theorem(embed(load_suite(name)), input_name=name)
    assert report.ok, report.failures
    assert report.map_count == count
    assert report.structure_count == count


def test_theorem_on_suspension():
    report = verify_theorem(load_suite("sigma-or2"), input_name="sigma-or2")
    assert report.ok
    assert (report.map_count, report.structure_count) == (1, 1)


@pytest.mark.parametrize(
    "name,count",
    [("sigma-or2", 2), ("chain2-discrete", 2), ("trivial", 1)],
)
def test_monad_remark(name, count):
    report = verify_monad_remark(load_suite(name), input_name=name)
    assert report.ok, report.failures
    assert (report.map_count, report.structure_count) == (count, count)


def test_report_serialisation(and2):
    report = verify_theorem(and2, input_name="and2")
    doc = report.to_json()
    assert doc["input"] == "and2"
    assert doc["maps"] == 1
    assert doc["structures"] == 1
    assert doc["verdict"] == "OK"
    assert isinstance(doc["correspondence"], list)
    assert doc["correspondence"][0]["structure"] == {
        "carrier": "1",
        "mult": "1->1",
        "unit": "1->1",
    }
    # deterministic text form
    assert report.to_json_text() == verify_theorem(and2, input_name="and2").to_json_text()
    json.loads(report.to_json_text())


def test_summary_lines(and2):
    assert (
        verify_theorem(and2, input_name="x").summary()
        == "input=x maps=1 structures=1 verdict=OK"
    )
    assert (
        verify_monad_remark(load_suite("trivial"), input_name="y").summary()
        == "input=y maps=1 monads=1 verdict=OK"
    )


def test_chain_monoidales_follow_the_unit():
    c_max = embed(load_suite("chain3-max"))
    assert {m.carrier for m in skew_monoidales(c_max)} == {"0", "1", "2"}
    c_min = embed(load_suite("chain3-min"))
    assert {m.carrier for m in skew_monoidales(c_min)} == {"2"}


def test_monoidale_count_in_a_noncommutative_embedding():
    # embedding works without commutativity; the discrete order only lets the
    # unit itself carry a structure (no cell from the unit to anything else)
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
    found = skew_monoidales(embed(m))
    assert {s.carrier for s in found} == {"e"}
    report = verify_theorem(embed(m), input_name="left-projection")
    assert report.ok
    assert (report.map_count, report.structure_count) == (1, 1)


def _count_enumerations(monkeypatch, cls):
    calls = []
    original = cls._enumerate

    def counted(self, n):
        calls.append((id(self), n))
        return original(self, n)

    monkeypatch.setattr(cls, "_enumerate", counted)
    return calls


def test_one_verdict_enumerates_each_nerve_level_once(monkeypatch):
    calls = _count_enumerations(monkeypatch, MonoidalNerve)
    assert verify_theorem(embed(load_suite("chain3-max"))).ok
    assert sorted(n for _, n in calls) == [0, 1, 2]
    assert len({nerve for nerve, _ in calls}) == 1

    calls = _count_enumerations(monkeypatch, BicatNerve)
    assert verify_monad_remark(load_suite("sigma-or2")).ok
    assert sorted(n for _, n in calls) == [0, 1]
    assert len({nerve for nerve, _ in calls}) == 1


def _chain4(tensor, unit):
    """The chain 0 < 1 < 2 < 3 under ``tensor``, as a parsed input document."""
    elements = ["0", "1", "2", "3"]
    return parse_document({
        "elements": elements,
        "leq": [[a, b] for a in elements for b in elements if a <= b],
        "tensor": {f"{a},{b}": tensor(a, b) for a in elements for b in elements},
        "unit": unit,
    })


@pytest.mark.parametrize(
    "tensor,unit,count", [(min, "3", 1), (max, "0", 4)], ids=["chain4-min", "chain4-max"]
)
def test_theorem_on_four_element_chains(tensor, unit, count):
    b = embed(_chain4(tensor, unit))
    report = verify_theorem(b, input_name="chain4")
    assert report.ok, report.failures
    assert report.map_count == report.structure_count == len(skew_monoidales(b)) == count
