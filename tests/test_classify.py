import hashlib
import json
import sys
from functools import lru_cache

import pytest

from catalan_sset import bicats, classify, cli
from catalan_sset.bicats import embed, suspend, validate_monoidal_bicat
from catalan_sset.catalan import CatalanSet
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
from catalan_sset.sset import enumerate_truncated_maps
from fixtures_bicats import pair_name, plain, probe, product


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


def _capped_chain3():
    """The chain 0 <= 1 <= 2 under addition capped at 2, with unit 0."""
    elements = ["0", "1", "2"]
    return parse_document({
        "elements": elements,
        "leq": [[a, b] for a in elements for b in elements if a <= b],
        "tensor": {
            f"{a},{b}": str(min(2, int(a) + int(b))) for a in elements for b in elements
        },
        "unit": "0",
    })


# Suspensions whose censuses need every unit and monad inequality.  In
# Sigma(and2) every candidate (t, i) passes associativity and the left unit
# but only (1, 1) the right unit, and the cell 0 is idempotent but not above
# the identity 1.  In Sigma(capped chain3) the cell 1 is above the identity
# 0 but 1.1 = 2 is not below 1.
@pytest.mark.parametrize(
    "make,monoidales,found",
    [
        (lambda: suspend(load_suite("and2")), [SkewMonoidale("*", "1", "1")], ["1"]),
        (lambda: suspend(_capped_chain3()), [SkewMonoidale("*", "0", "0")], ["0", "2"]),
    ],
    ids=["sigma-and2", "sigma-capped-chain3"],
)
def test_suspensions_that_need_every_census_inequality(make, monoidales, found):
    b = make()
    theorem = verify_theorem(b)
    assert theorem.ok, theorem.failures
    assert (theorem.map_count, theorem.structure_count) == (len(monoidales),) * 2
    remark = verify_monad_remark(b)
    assert remark.ok, remark.failures
    assert (remark.map_count, remark.structure_count) == (len(found),) * 2
    assert skew_monoidales(b) == monoidales
    assert monads(b) == [MonadStructure("*", t) for t in found]


def test_theorem_on_the_probe():
    """In the probe ``t.(t x 1A) = s`` is not below ``t.(1A x t) = t``, so the
    associativity inequality alone refuses the multiplication ``t``."""
    b = probe()
    assert skew_monoidales(b) == [
        SkewMonoidale("I", "1I", "1I"), SkewMonoidale("A", "1A", "e"), SkewMonoidale("A", "s", "e"),
    ]
    report = verify_theorem(b, input_name="probe")
    assert report.ok, report.failures
    assert (report.map_count, report.structure_count) == (3, 3)


def test_monad_remark_on_the_probe():
    k = plain(probe())
    assert monads(k) == [
        MonadStructure("I", "1I"), MonadStructure("A", "1A"), MonadStructure("A", "s"),
    ]
    report = verify_monad_remark(k, input_name="probe")
    assert report.ok, report.failures
    assert (report.map_count, report.structure_count) == (3, 3)


@lru_cache(maxsize=None)
def _factor(name: str):
    """The probe or a bundled input as a monoidal 2-category, with its map
    count and its census."""
    if name == "probe":
        b = probe()
    else:
        obj = load_suite(name)
        b = embed(obj) if isinstance(obj, MonoidalPoset) else obj
    return b, verify_theorem(b).map_count, skew_monoidales(b)


@pytest.mark.parametrize(
    "left, right",
    [
        ("or2", "and2"), ("chain3-max", "or2"), ("sigma-or2", "or2"), ("probe", "or2"),
        ("probe", "sigma-or2"), ("probe", "chain3-max"),
    ],
)
def test_theorem_on_a_product(left, right):
    """The nerve of a product is the product of the nerves, so its maps are
    pairs of maps: the map counts multiply and the census pairs up, with no
    appeal to the census's own conditions."""
    (b1, maps1, census1), (b2, maps2, census2) = _factor(left), _factor(right)
    b = product(b1, b2)
    assert validate_monoidal_bicat(b).ok
    report = verify_theorem(b, input_name=f"{left} x {right}")
    assert report.ok, report.failures
    assert report.map_count == maps1 * maps2
    assert sorted(skew_monoidales(b)) == sorted(
        SkewMonoidale(*map(pair_name, s1, s2)) for s1 in census1 for s2 in census2
    )


# per kind: an input with two structures, its verdict and its census
_KINDS = {
    "monoidale": (lambda: embed(load_suite("or2")), "verify_theorem", "skew_monoidales"),
    "monad": (lambda: load_suite("sigma-or2"), "verify_monad_remark", "monads"),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_a_census_missing_a_structure_fails(monkeypatch, kind):
    make, verify, census = _KINDS[kind]
    b = make()
    full = getattr(classify, census)
    data = sorted(map(tuple, full(b)))
    rest = sorted(map(tuple, full(b)[1:]))
    monkeypatch.setattr(classify, census, lambda b: full(b)[1:])
    report = getattr(classify, verify)(b)
    assert report.verdict == "FAIL"
    assert report.failures == (
        f"map data {data} differ from {report.structures_label()} {rest}",
    )


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_a_direct_route_missing_a_record_fails(monkeypatch, kind):
    make, verify, _ = _KINDS[kind]
    b = make()
    direct = classify._direct_records
    monkeypatch.setattr(
        classify, "_direct_records", lambda nerve, candidates: direct(nerve, candidates)[1:]
    )
    report = getattr(classify, verify)(b)
    assert report.verdict == "FAIL"
    assert report.failures == ("direct enumeration found 1 assignments, generic search 2",)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_two_maps_with_the_same_data_fail(monkeypatch, kind):
    make, verify, _ = _KINDS[kind]
    b = make()
    generic = classify._map_records

    def with_a_twin(nerve):
        # a third map that differs from the first only on A1, so it carries
        # the first map's generating data
        records = generic(nerve)
        return records + [dict(records[0], A1=records[1]["A1"])]

    monkeypatch.setattr(classify, "_map_records", with_a_twin)
    report = getattr(classify, verify)(b)
    assert report.verdict == "FAIL"
    data_word = "generating data" if kind == "monoidale" else "monad data"
    assert report.failures == (
        "direct enumeration found 2 assignments, generic search 3",
        f"two distinct maps induce the same {data_word}",
    )


def _count_validations(monkeypatch) -> list[str]:
    """Record each call of the two 2-category validators, under whatever
    name a package module bound them."""
    calls: list[str] = []
    originals = {
        name: getattr(bicats, name) for name in ("validate_bicat", "validate_monoidal_bicat")
    }

    def counted(name):
        def validate(b):
            calls.append(name)
            return originals[name](b)

        return validate

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("catalan_sset"):
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(name))
    return calls


def test_one_verdict_validates_its_input_once(monkeypatch, capsys):
    theorem_input, remark_input = embed(load_suite("or2")), load_suite("sigma-or2")
    calls = _count_validations(monkeypatch)
    assert verify_theorem(theorem_input).ok
    # the monoidal validator runs the plain one on the same input first
    assert calls == ["validate_monoidal_bicat", "validate_bicat"]
    calls.clear()
    assert verify_monad_remark(remark_input).ok
    assert calls == ["validate_bicat"]
    calls.clear()
    # on the CLI's poset path, ``embed`` checks only the cell names it
    # builds, and the census validates the 2-category once
    assert cli.main(["verify-theorem", "--input", "or2"]) == 0
    assert calls.count("validate_monoidal_bicat") == 1
    # verify-identities builds its nerve on the input as read and validated
    for name, validations in [
        ("sigma-or2", ["validate_monoidal_bicat", "validate_bicat"]),
        ("chain2-discrete", ["validate_bicat"]),
        ("or2", []),
    ]:
        calls.clear()
        assert cli.main(["verify-identities", "--input", name, "--max-n", "2"]) == 0
        assert calls == validations, name
    capsys.readouterr()


def test_witness_and_report_reprs_are_pinned():
    """The reprs of the rejection witnesses and of two verdict reports, as
    sha256 digests: their ``Name(field=value, ...)`` form is part of what a
    report prints, and stdout digests do not show it."""
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    c4 = CatalanSet(4)
    for name, count, pinned in [
        ("or2", 16, "3506279bd91d17a665f551ab307a60b0357f49ccdb7c1209760daec14f22db78"),
        ("chain3-min", 86, "2a1a99b6e9f33d724ad969714f6abade2e3e44d46e69419868cdf29bee296f7c"),
    ]:
        nerve = MonoidalNerve(embed(load_suite(name)))
        rejections = enumerate_truncated_maps(c4, nerve, 4).rejections
        assert len(rejections) == count
        assert digest("\n".join(map(repr, rejections))) == pinned, name
    assert digest(repr(verify_theorem(embed(load_suite("or2")), "or2"))) == (
        "1f2f54c4c29a105814e4b610208cb2e5072f873f077646a12e3ebff28a09af0a"
    )
    assert digest(repr(verify_monad_remark(load_suite("sigma-or2"), "sigma-or2"))) == (
        "7073b99a875dff1b6b7ea144a93807fc6c56d25f1cd7afd6030dff3fb44cb543"
    )
