"""The value types are tuples of their fields; the frozen dataclasses they
replaced are kept here as the oracle.

A frozen dataclass hashes as the tuple of its fields, which is the tuple's
own hash, so every set and dict over these values iterates in the same
order as before, and with it every line of output.  These tests check that
exhaustively at small levels: equal hashes, equal fields, the same
equality on every pair, and the same set order.
"""

from __future__ import annotations

import copy
import pickle
import re
from dataclasses import dataclass, fields

import pytest

from catalan_sset import delta
from catalan_sset.catalan import LaxMatrix, act, enumerate_level
from catalan_sset.delta import MonotoneMap
from catalan_sset.errors import (
    NonMonotoneError,
    NotAnIdealError,
    NotInterpolativeError,
    OutOfRangeError,
)
from catalan_sset.models import (
    IdealRelation,
    InterpolativeRelation,
    _rows_from_pairs,
    adjoint_ideals,
    compose_ideals,
    enumerate_square_ideals,
    ideal_pullback,
    lax_to_ideal,
    lax_to_relation,
    relation_pullback,
)
from catalan_sset.nerve import BicatNerveSimplex, MonoidalNerveSimplex
from fixtures_sset import suite_nerves


# -- the replaced frozen dataclasses ---------------------------------------------


@dataclass(frozen=True, slots=True)
class OldMonotoneMap:
    domain_top: int
    codomain_top: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.domain_top < 0 or self.codomain_top < 0:
            raise OutOfRangeError("ordinal tops must be non-negative")
        if len(self.values) != self.domain_top + 1:
            raise OutOfRangeError(
                f"expected {self.domain_top + 1} values, got {len(self.values)}"
            )
        for p, (a, b) in enumerate(zip(self.values, self.values[1:])):
            if b < a:
                raise NonMonotoneError(f"values decrease at position {p}: {a} > {b}")
        for v in self.values:
            if not 0 <= v <= self.codomain_top:
                raise OutOfRangeError(f"value {v} outside [0, {self.codomain_top}]")


@dataclass(frozen=True, slots=True)
class OldLaxMatrix:
    n: int
    bits: int


@dataclass(frozen=True, slots=True, init=False)
class OldInterpolativeRelation:
    n: int
    rows: tuple[int, ...]

    def __init__(self, n, pairs):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", _rows_from_pairs(pairs, n, n, NotInterpolativeError))


@dataclass(frozen=True, slots=True, init=False)
class OldIdealRelation:
    m_top: int
    n_top: int
    rows: tuple[int, ...]

    def __init__(self, m_top, n_top, pairs):
        rows = _rows_from_pairs(pairs, n_top, m_top, NotAnIdealError)
        object.__setattr__(self, "m_top", m_top)
        object.__setattr__(self, "n_top", n_top)
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True, slots=True)
class OldNerveSimplex:
    n: int
    objects: tuple[str, ...]
    cells: tuple[str, ...]


class OldMonoidalNerveSimplex(OldNerveSimplex):
    __slots__ = ()


class OldBicatNerveSimplex(OldNerveSimplex):
    __slots__ = ()


OLD_NERVE_SIMPLEX = {
    MonoidalNerveSimplex: OldMonoidalNerveSimplex,
    BicatNerveSimplex: OldBicatNerveSimplex,
}


def _old_fields(old) -> tuple:
    return tuple(getattr(old, f.name) for f in fields(old))


def _assert_agree(new: list, old: list, every_pair: bool = True) -> None:
    """Equal hashes and fields one by one, the same iteration order of the
    two sets, and (with ``every_pair``) the same equality on every pair."""
    assert [hash(v) for v in new] == [hash(o) for o in old]
    assert [tuple(v) for v in new] == [_old_fields(o) for o in old]
    assert [tuple(v) for v in set(new)] == [_old_fields(o) for o in set(old)]
    if every_pair:
        for a, oa in zip(new, old):
            assert [a == b for b in new] == [oa == ob for ob in old]


# -- the oracle, exhaustively at small levels --------------------------------------


def test_simplices_agree_with_the_dataclass_to_level_five():
    for n in range(6):
        level = list(enumerate_level(n))
        _assert_agree(level, [OldLaxMatrix(x.n, x.bits) for x in level])


def test_acted_simplices_agree_with_the_dataclass():
    for n in range(5):
        for m in range(5):
            for xi in delta.all_maps(m, n):
                ys = [act(xi, x) for x in enumerate_level(n)]
                assert all(type(y) is LaxMatrix for y in ys)
                _assert_agree(ys, [OldLaxMatrix(y.n, y.bits) for y in ys], every_pair=False)


def test_monotone_maps_agree_with_the_dataclass_to_endpoint_four():
    maps = [xi for m in range(5) for n in range(5) for xi in delta.all_maps(m, n)]
    assert len(maps) == 456
    _assert_agree(maps, [OldMonotoneMap(*xi) for xi in maps])


def test_relations_and_ideals_agree_with_the_dataclass_to_level_four():
    for n in range(5):
        level = enumerate_level(n)
        rels = [lax_to_relation(x) for x in level]
        _assert_agree(rels, [OldInterpolativeRelation(n, r.pairs) for r in rels])
        ideals = [lax_to_ideal(x) for x in level]
        _assert_agree(ideals, [OldIdealRelation(n, n, b.pairs) for b in ideals])
        found = list(enumerate_square_ideals(n))
        _assert_agree(found, [OldIdealRelation(n, n, b.pairs) for b in found])


def test_pulled_back_and_composed_ideals_agree_with_the_dataclass():
    for n in range(5):
        rels = [lax_to_relation(x) for x in enumerate_level(n)]
        ideals = [lax_to_ideal(x) for x in enumerate_level(n)]
        for m in range(5):
            for xi in delta.all_maps(m, n):
                rps = [relation_pullback(xi, r) for r in rels]
                assert all(type(r) is InterpolativeRelation for r in rps)
                old_rps = [OldInterpolativeRelation(m, r.pairs) for r in rps]
                _assert_agree(rps, old_rps, every_pair=False)
                lo, up = adjoint_ideals(xi)
                built = [ideal_pullback(xi, b) for b in ideals]
                built += [compose_ideals(compose_ideals(up, b), lo) for b in ideals]
                built += [compose_ideals(up, lo), compose_ideals(lo, up)]
                assert all(type(b) is IdealRelation for b in built)
                old_built = [OldIdealRelation(b.m_top, b.n_top, b.pairs) for b in built]
                _assert_agree(built, old_built, every_pair=False)


@pytest.fixture(scope="module")
def nerves():
    return suite_nerves()


def test_nerve_simplices_agree_with_the_dataclass_to_level_three(nerves):
    for name, X in nerves:
        old_type = OLD_NERVE_SIMPLEX[X.simplex]
        for n in range(4):
            level = list(X.level(n))
            assert all(type(x) is X.simplex for x in level), (name, n)
            _assert_agree(level, [old_type(*x) for x in level])


def test_acted_nerve_simplices_agree_with_the_dataclass(nerves):
    for name, X in nerves:
        old_type = OLD_NERVE_SIMPLEX[X.simplex]
        for n in range(4):
            for m in range(4):
                for xi in delta.all_maps(m, n):
                    ys = [X.act(xi, x) for x in X.level(n)]
                    assert all(type(y) is X.simplex for y in ys), (name, xi)
                    _assert_agree(ys, [old_type(*y) for y in ys], every_pair=False)


# -- immutability, validation and the new equality --------------------------------


_X = enumerate_level(2)[3]
INSTANCES = [
    (MonotoneMap(1, 2, (0, 2)), "values"),
    (_X, "bits"),
    (act(delta.face(0, 2), _X), "bits"),
    (lax_to_relation(_X), "rows"),
    (relation_pullback(delta.face(0, 2), lax_to_relation(_X)), "n"),
    (lax_to_ideal(_X), "rows"),
    (ideal_pullback(delta.face(0, 2), lax_to_ideal(_X)), "m_top"),
    (IdealRelation(1, 1, {(0, 0), (0, 1)}), "n_top"),
    (MonoidalNerveSimplex(0, (), ()), "n"),
    (BicatNerveSimplex(0, ("a",), ()), "objects"),
]


@pytest.mark.parametrize(
    "value, field", INSTANCES, ids=[f"{type(v).__name__}.{f}" for v, f in INSTANCES]
)
def test_values_refuse_attribute_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", [v for v, _ in INSTANCES], ids=lambda v: type(v).__name__)
def test_values_survive_copy_and_pickle(value):
    for same in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(same) is type(value)
        assert same == value and hash(same) == hash(value)


@pytest.mark.parametrize(
    "args",
    [
        (-1, 0, ()),
        (0, -1, (0,)),
        (1, 1, (0,)),
        (1, 1, (0, 1, 1)),
        (1, 1, (1, 0)),
        (2, 3, (0, 3, 2)),
        (1, 1, (0, 2)),
        (1, 1, (-1, 0)),
    ],
)
def test_monotone_map_validation_is_unchanged(args):
    with pytest.raises((OutOfRangeError, NonMonotoneError)) as old:
        OldMonotoneMap(*args)
    with pytest.raises(type(old.value), match=f"^{re.escape(str(old.value))}$"):
        MonotoneMap(*args)


def test_monotone_map_stores_a_list_as_a_tuple():
    xi = MonotoneMap(2, 3, [0, 2, 2])
    assert type(xi.values) is tuple
    assert xi.values == (0, 2, 2)
    assert hash(xi) == hash(OldMonotoneMap(2, 3, [0, 2, 2]))


def test_values_equal_their_field_tuples():
    assert MonotoneMap(1, 2, (0, 2)) == (1, 2, (0, 2))
    assert LaxMatrix(2, 5) == (2, 5)
    assert lax_to_relation(LaxMatrix(1, 0)) == (1, (3, 3))
    assert MonoidalNerveSimplex(1, ("a",), ()) == BicatNerveSimplex(1, ("a",), ())
    assert repr(MonoidalNerveSimplex(1, ("a",), ())) == "NrvM(1|a|)"
    assert repr(BicatNerveSimplex(1, ("a",), ())) == "NrvK(1|a|)"
