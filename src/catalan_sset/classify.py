"""Brute-force classification checks, verified by independent double counting.

The theorem and the monad remark are one comparison at two ranks: maps
into the rank-2 (monoidal) nerve against skew monoidales, and maps into the
rank-1 (plain) nerve against monads.  At either rank three routes are
compared.  A generic backtracking search enumerates simplicial maps from
the 4-truncation of the Catalan set into the input's nerve.  A direct route
enumerates candidate generating data (an object with a multiplication and a
unit cell, or an object with an endo-cell) and keeps the candidates whose
induced images of all named simplices really are simplices of the nerve.
Finally the internal structures are enumerated straight from the hom-poset
inequalities.  The verdict is OK only when the three agree bijectively.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from . import sset
from .bicats import (
    PosetalBicat,
    PosetalMonoidalBicat,
    require_valid,
    validate_bicat,
    validate_monoidal_bicat,
)
from .catalan import CatalanSet
from .catalogue import catalogue
from .nerve import BicatNerve, MonoidalNerve, _PosetalNerve, _subsets

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


class SkewMonoidale(NamedTuple):
    """An object with multiplication A (x) A -> A and unit I -> A, witnessed
    by three hom-poset inequalities (associativity, left unit, right unit)."""

    carrier: str
    mult: str
    unit: str


class MonadStructure(NamedTuple):
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


# -- named images --------------------------------------------------------------


def _images(nerve: _PosetalNerve, objects: dict, cells: dict) -> dict:
    """Images of every catalogued simplex under the map that generating data
    induces, in the nerve's storage order: the object on each r-subset and
    the cell on each (r+1)-subset, looked up by the bits of that subset's
    intervals."""
    r, record = nerve.rank, {}
    for ns in catalogue():
        n, x = ns.level, ns.matrix

        def at(table: dict, s: tuple[int, ...]) -> str:
            return table[tuple(x.entry(p, q) for p, q in combinations(s, 2))]

        record[ns.name] = nerve.simplex(
            n,
            tuple(at(objects, s) for s in _subsets(n, r)),
            tuple(at(cells, s) for s in _subsets(n, r + 1)),
        )
    return record


def _monoidale_data(b: PosetalMonoidalBicat):
    """The rank-2 object and cell tables of each candidate (a, t, i).  The
    cell on a triple (i, j, k) runs from a_jk (x) a_ij to a_ik and is keyed
    by the bits of (i, j), (i, k), (j, k)."""
    unit = b.unit_object
    id_i = b.identity_of(unit)
    for a in b.objects:
        id_a = b.identity_of(a)
        for t in b.hom(b.tensor_objects(a, a), a):
            for i in b.hom(unit, a):
                yield {(0,): unit, (1,): a}, {
                    (1, 1, 1): t, (0, 1, 0): i, (0, 1, 1): id_a, (1, 1, 0): id_a, (0, 0, 0): id_i
                }


def _monad_data(k: PosetalBicat):
    """The rank-1 object and cell tables of each candidate (x, t)."""
    for x in k.objects:
        for t in k.hom(x, x):
            yield {(): x}, {(0,): k.identity_of(x), (1,): t}


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
    return _direct_records(MonoidalNerve(b), _monoidale_data(b))


def _direct_records(nerve: _PosetalNerve, candidates) -> list[dict]:
    """The images of each candidate's tables, kept when the nerve contains
    every one of them."""
    records = []
    for objects, cells in candidates:
        record = _images(nerve, objects, cells)
        if all(map(nerve.contains, record.values())):
            records.append(record)
    records.sort(key=_record_key)
    return records


# -- reports -------------------------------------------------------------------


#: per kind of report: what its census holds and what a map's generating data is
_WORDS = {"monoidale": ("structures", "generating data"), "monad": ("monads", "monad data")}


class ClassificationReport(NamedTuple):
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
        return _WORDS[self.kind][0]

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


def _verdict(
    input_name: str, kind: str, nerve: _PosetalNerve, candidates, census: list, data_of,
    fields: tuple[str, ...], notes: tuple = (),
) -> ClassificationReport:
    """Compare generic map search into the nerve, the direct route over the
    candidates' tables and the census; OK means all three agree bijectively.
    ``data_of`` reads a map's generating data off its record, in the order
    of the census's ``fields``."""
    label, data_word = _WORDS[kind]
    failures: list[str] = []
    # one nerve serves both searches; the routes differ in how they search it
    generic = _map_records(nerve)
    direct = _direct_records(nerve, candidates)
    if [_record_key(r) for r in generic] != [_record_key(r) for r in direct]:
        failures.append(
            f"direct enumeration found {len(direct)} assignments, generic search {len(generic)}"
        )
    data = [data_of(r) for r in generic]
    structures = sorted(tuple(getattr(s, f) for f in fields) for s in census)
    if len(set(data)) != len(data):
        failures.append(f"two distinct maps induce the same {data_word}")
    if sorted(set(data)) != structures:
        failures.append(f"map data {sorted(set(data))} differ from {label} {structures}")
    correspondence = tuple(
        ({name: repr(code) for name, code in rec.items()}, dict(zip(fields, d)))
        for rec, d in zip(generic, data)
    )
    verdict = "OK" if not failures and len(generic) == len(census) else "FAIL"
    return ClassificationReport(
        input_name, kind, len(generic), len(census), correspondence, verdict,
        tuple(failures), notes,
    )


def verify_theorem(b: PosetalMonoidalBicat, input_name: str = "input") -> ClassificationReport:
    """The theorem at rank 2: maps into the monoidal nerve against the skew
    monoidales."""
    census = skew_monoidales(b)  # validates b, so the nerve need not
    notes = (
        "strict unit: the doubled unit object equals the unit itself, so unit "
        "cells are taken at the unit object and no adjustment is needed",
    )
    return _verdict(
        input_name, "monoidale", MonoidalNerve(b, validate=False), _monoidale_data(b), census,
        lambda r: (r["c"].objects[0], r["t"].cells[0], r["i"].cells[0]),
        ("carrier", "mult", "unit"), notes,
    )


def verify_monad_remark(k: PosetalBicat, input_name: str = "input") -> ClassificationReport:
    """The remark at rank 1: maps into the plain nerve against the monads."""
    census = monads(k)  # validates k, so the nerve need not
    return _verdict(
        input_name, "monad", BicatNerve(k, validate=False), _monad_data(k), census,
        lambda r: (r["star"].objects[0], r["c"].cells[0]), ("carrier", "endo"),
    )
