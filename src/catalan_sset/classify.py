"""Brute-force classification checks, verified by independent double counting.

Three routes are compared on every input.  A generic backtracking search
enumerates simplicial maps from the 4-truncation of the Catalan set into
the input's nerve.  A direct route enumerates candidate generating data (an
object with a multiplication and a unit cell, or an object with an
endo-cell) and keeps the candidates whose induced images of all named
simplices really are simplices of the nerve.  Finally the internal
structures are enumerated straight from the hom-poset inequalities.  The
verdict is OK only when the three agree bijectively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from . import sset
from .bicats import (
    PosetalBicat,
    PosetalMonoidalBicat,
    require_valid,
    validate_bicat,
    validate_monoidal_bicat,
)
from .catalan import CatalanSet, intervals
from .catalogue import catalogue
from .nerve import (
    BicatNerve,
    BicatNerveSimplex,
    MonoidalNerve,
    MonoidalNerveSimplex,
    triples,
)

__all__ = [
    "SkewMonoidale",
    "MonadStructure",
    "ClassificationReport",
    "skew_monoidales",
    "monads",
    "maps_from_catalan",
    "direct_classification",
    "verify_theorem",
    "verify_monad_remark",
]


@dataclass(frozen=True)
class SkewMonoidale:
    """An object with multiplication A (x) A -> A and unit I -> A, witnessed
    by three hom-poset inequalities (associativity, left unit, right unit)."""

    carrier: str
    mult: str
    unit: str


@dataclass(frozen=True)
class MonadStructure:
    """An object with an endo-cell t satisfying t.t <= t and 1 <= t."""

    carrier: str
    endo: str


# -- internal structures ----------------------------------------------------


def _monoidale_conditions(b: PosetalMonoidalBicat, a: str, t: str, i: str) -> bool:
    """Associativity, left unit and right unit as hom-poset inequalities.

    The unit-comparison square ``id_A . (i (x) id_I) <= id_A . (id_I (x) i)``
    needs no check: a validated input has ``f (x) id_I == f == id_I (x) f``
    and ``id . f == f`` for every cell f, so both legs are ``i`` and the
    order is reflexive.
    """
    id_a = b.identity_of(a)
    assoc_left = b.compose_cells(t, b.tensor_cells(t, id_a))
    assoc_right = b.compose_cells(t, b.tensor_cells(id_a, t))
    left_unit = b.compose_cells(t, b.tensor_cells(i, id_a))
    right_unit = b.compose_cells(t, b.tensor_cells(id_a, i))
    return (
        b.leq_cells(assoc_left, assoc_right)
        and b.leq_cells(left_unit, id_a)
        and b.leq_cells(id_a, right_unit)
    )


def skew_monoidales(b: PosetalMonoidalBicat) -> list[SkewMonoidale]:
    """All triples passing the three structural inequalities."""
    require_valid(validate_monoidal_bicat(b))
    out = []
    unit_obj = b.unit_object
    for a in b.objects:
        for t in b.hom(b.tensor_objects(a, a), a):
            for i in b.hom(unit_obj, a):
                if _monoidale_conditions(b, a, t, i):
                    out.append(SkewMonoidale(a, t, i))
    return out


def monads(k: PosetalBicat) -> list[MonadStructure]:
    """All endo-cells t with t.t <= t and 1 <= t."""
    require_valid(validate_bicat(k))
    out = []
    for x in k.objects:
        for t in k.hom(x, x):
            if k.leq_cells(k.compose_cells(t, t), t) and k.leq_cells(
                k.identity_of(x), t
            ):
                out.append(MonadStructure(x, t))
    return out


# -- named-image construction ------------------------------------------------


def _monoidal_images(b: PosetalMonoidalBicat, a: str, t: str, i: str) -> dict:
    """Images of every catalogued simplex induced by generating data."""
    unit = b.unit_object
    id_a = b.identity_of(a)
    id_i = b.identity_of(unit)
    cell_for = {
        (1, 1, 1): t,
        (0, 0, 1): i,
        (0, 1, 1): id_a,
        (1, 0, 1): id_a,
        (0, 0, 0): id_i,
    }
    record = {}
    for ns in catalogue():
        n, x = ns.level, ns.matrix
        objs = tuple(a if x.entry(p, q) else unit for (p, q) in intervals(n))
        cells = tuple(
            cell_for[(x.entry(p, q), x.entry(q, r), x.entry(p, r))]
            for (p, q, r) in triples(n)
        )
        record[ns.name] = MonoidalNerveSimplex(n, objs, cells)
    return record


def _bicat_images(k: PosetalBicat, x_obj: str, t: str) -> dict:
    id_x = k.identity_of(x_obj)
    record = {}
    for ns in catalogue():
        n, x = ns.level, ns.matrix
        verts = tuple(x_obj for _ in range(n + 1))
        cells = tuple(
            t if x.entry(p, q) else id_x for (p, q) in intervals(n)
        )
        record[ns.name] = BicatNerveSimplex(n, verts, cells)
    return record


def _record_of_map(f: sset.TruncatedMap) -> dict:
    return {ns.name: f.images[(ns.level, ns.matrix)] for ns in catalogue()}


def _record_key(record: dict) -> tuple:
    return tuple(sorted((name, repr(code)) for name, code in record.items()))


# -- map enumeration ----------------------------------------------------------


@lru_cache(maxsize=None)
def _catalan_source() -> CatalanSet:
    """The 4-truncated Catalan set, one per process: every map search starts
    from it, so its levels and act tables are built once for all verdicts."""
    return CatalanSet(4)


def _map_records(nerve: sset.TruncatedSimplicialSet) -> list[dict]:
    enum = sset.enumerate_truncated_maps(_catalan_source(), nerve, 4)
    return sorted((_record_of_map(f) for f in enum.maps), key=_record_key)


def maps_from_catalan(target: PosetalBicat) -> list[dict]:
    """Simplicial maps out of the 4-truncation, recorded on the named simplices."""
    if isinstance(target, PosetalMonoidalBicat):
        return _map_records(MonoidalNerve(target))
    return _map_records(BicatNerve(target))


def direct_classification(b: PosetalMonoidalBicat) -> list[dict]:
    """Enumerate generating data and keep those whose induced images all fill.

    A candidate survives when, for every catalogued simplex, the nerve
    contains the simplex assembled from its data; the level-3 entries are
    where the structural inequalities bite and the level-4 entries must
    never cut anything further.
    """
    return _direct_records(MonoidalNerve(b))


def _direct_records(nerve: MonoidalNerve) -> list[dict]:
    b = nerve.b
    records = []
    for a in b.objects:
        for t in b.hom(b.tensor_objects(a, a), a):
            for i in b.hom(b.unit_object, a):
                record = _monoidal_images(b, a, t, i)
                if all(nerve.contains(x) for x in record.values()):
                    records.append(record)
    records.sort(key=_record_key)
    return records


# -- reports -------------------------------------------------------------------


@dataclass
class ClassificationReport:
    input_name: str
    kind: str  # "monoidale" or "monad"
    map_count: int
    structure_count: int
    correspondence: tuple
    verdict: str
    failures: tuple = ()
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        return self.verdict == "OK"

    def structures_label(self) -> str:
        return "structures" if self.kind == "monoidale" else "monads"

    def summary(self) -> str:
        return (
            f"input={self.input_name} maps={self.map_count} "
            f"{self.structures_label()}={self.structure_count} verdict={self.verdict}"
        )

    def to_json(self) -> dict:
        return {
            "input": self.input_name,
            "maps": self.map_count,
            "structures": self.structure_count,
            "verdict": self.verdict,
            "correspondence": [
                {"map": m, "structure": s} for (m, s) in self.correspondence
            ],
            "failures": list(self.failures),
            "notes": list(self.notes),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


def verify_theorem(b: PosetalMonoidalBicat, input_name: str = "input") -> ClassificationReport:
    """Compare generic map enumeration, direct classification and the
    internal structures; OK means all three agree bijectively."""
    failures: list[str] = []
    # one nerve serves both counts; the routes differ in how they search it
    nerve = MonoidalNerve(b)
    generic = _map_records(nerve)
    direct = _direct_records(nerve)
    structures = skew_monoidales(b)
    if [_record_key(r) for r in generic] != [_record_key(r) for r in direct]:
        failures.append(
            f"direct enumeration found {len(direct)} assignments, generic search {len(generic)}"
        )
    triples_of_maps = [
        (r["c"].objects[0], r["t"].cells[0], r["i"].cells[0]) for r in generic
    ]
    structure_tuples = [(s.carrier, s.mult, s.unit) for s in structures]
    if len(set(triples_of_maps)) != len(triples_of_maps):
        failures.append("two distinct maps induce the same generating data")
    if sorted(set(triples_of_maps)) != sorted(structure_tuples):
        failures.append(
            f"map data {sorted(set(triples_of_maps))} differ from structures {sorted(structure_tuples)}"
        )
    correspondence = tuple(
        (
            {name: repr(code) for name, code in rec.items()},
            {"carrier": tr[0], "mult": tr[1], "unit": tr[2]},
        )
        for rec, tr in zip(generic, triples_of_maps)
    )
    notes = (
        "strict unit: the doubled unit object equals the unit itself, so unit "
        "cells are taken at the unit object and no adjustment is needed",
    )
    verdict = "OK" if not failures and len(generic) == len(structures) else "FAIL"
    return ClassificationReport(
        input_name,
        "monoidale",
        len(generic),
        len(structures),
        correspondence,
        verdict,
        tuple(failures),
        notes,
    )


def verify_monad_remark(k: PosetalBicat, input_name: str = "input") -> ClassificationReport:
    """Compare map enumeration into the plain nerve with the monad census."""
    records = _map_records(BicatNerve(k))
    found = monads(k)
    failures: list[str] = []
    pairs_of_maps = [(r["star"].objects[0], r["c"].cells[0]) for r in records]
    monad_pairs = [(m.carrier, m.endo) for m in found]
    if len(set(pairs_of_maps)) != len(pairs_of_maps):
        failures.append("two distinct maps induce the same monad data")
    if sorted(set(pairs_of_maps)) != sorted(monad_pairs):
        failures.append(
            f"map data {sorted(set(pairs_of_maps))} differ from monads {sorted(monad_pairs)}"
        )
    # cross-check the direct images as well: each monad's induced record
    # must be exactly one of the enumerated maps
    direct_records = sorted(
        (_bicat_images(k, m.carrier, m.endo) for m in found), key=_record_key
    )
    if [_record_key(r) for r in direct_records] != [_record_key(r) for r in records]:
        failures.append("monad-induced images differ from the enumerated maps")
    correspondence = tuple(
        (
            {name: repr(code) for name, code in rec.items()},
            {"carrier": pr[0], "endo": pr[1]},
        )
        for rec, pr in zip(records, pairs_of_maps)
    )
    verdict = "OK" if not failures and len(records) == len(found) else "FAIL"
    return ClassificationReport(
        input_name,
        "monad",
        len(records),
        len(found),
        correspondence,
        verdict,
        tuple(failures),
    )
