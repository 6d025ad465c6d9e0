"""The named low-level simplices and their recorded face tuples.

Levels 0 to 4 carry one name per non-degenerate simplex: the point and the
generating edge; at level 2 the multiplication shape ``t`` and the unit
shape ``i``; at level 3 the associativity shape ``a``, the left and right
unit shapes ``l`` and ``r``, and the unit-comparison shape ``k``; at level
4 the nine shapes ``A1``..``A9`` whose images impose the axioms on any
classified structure.  Faces are recorded symbolically (a base name plus
degeneracy indices, outermost first) and every recorded tuple is
re-derivable by pulling the stored table back along the face maps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import delta
from .catalan import CatalanSet, LaxMatrix, act

__all__ = [
    "FaceRef",
    "NamedSimplex",
    "CatalogueReport",
    "catalogue",
    "named",
    "face_label",
    "resolve_face",
    "verify_catalogue",
]

#: a face reference: base simplex name plus degeneracy indices, outermost first
FaceRef = tuple[str, tuple[int, ...]]


class NamedSimplex(NamedTuple):
    name: str
    level: int
    faces: tuple[FaceRef, ...]
    matrix: LaxMatrix

    @property
    def face_labels(self) -> tuple[str, ...]:
        return tuple(face_label(ref) for ref in self.faces)


def face_label(ref: FaceRef) -> str:
    name, degs = ref
    out = name
    for i in reversed(degs):
        out = f"s_{i}({out})"
    return out


_BASE: dict[str, tuple[int, tuple[FaceRef, ...]]] = {
    "star": (0, ()),
    "c": (1, (("star", ()), ("star", ()))),
    "t": (2, (("c", ()), ("c", ()), ("c", ()))),
    "i": (2, (("star", (0,)), ("c", ()), ("star", (0,)))),
    "a": (3, (("t", ()), ("t", ()), ("t", ()), ("t", ()))),
    "l": (3, (("i", ()), ("c", (1,)), ("t", ()), ("c", (1,)))),
    "r": (3, (("c", (0,)), ("t", ()), ("c", (0,)), ("i", ()))),
    "k": (3, (("i", ()), ("c", (1,)), ("c", (0,)), ("i", ()))),
    "A1": (4, (("a", ()), ("a", ()), ("a", ()), ("a", ()), ("a", ()))),
    "A2": (4, (("r", ()), ("t", (1,)), ("a", ()), ("t", (1,)), ("l", ()))),
    "A3": (4, (("l", ()), ("l", ()), ("t", (2,)), ("a", ()), ("t", (2,)))),
    "A4": (4, (("t", (0,)), ("a", ()), ("t", (0,)), ("r", ()), ("r", ()))),
    "A5": (4, (("i", (1,)), ("i", (2,)), ("k", ()), ("i", (0,)), ("i", (1,)))),
    "A6": (4, (("i", (0,)), ("l", ()), ("k", ()), ("r", ()), ("i", (2,)))),
    "A7": (4, (("k", ()), ("l", ()), ("c", (0, 1)), ("r", ()), ("k", ()))),
    "A8": (4, (("r", ()), ("t", (1,)), ("t", (0,)), ("r", ()), ("k", ()))),
    "A9": (4, (("k", ()), ("l", ()), ("t", (2,)), ("t", (1,)), ("l", ()))),
}

_ORDER = tuple(_BASE)


@lru_cache(maxsize=None)
def _matrices() -> dict[str, LaxMatrix]:
    out: dict[str, LaxMatrix] = {}
    out["star"] = LaxMatrix(0, 0)
    out["c"] = LaxMatrix(1, 1)
    cs = CatalanSet(max(level for level, _ in _BASE.values()))
    for name in _ORDER:
        level, faces = _BASE[name]
        if name in out:
            continue
        wanted = tuple(_resolve(ref, out) for ref in faces)
        hits = cs.fillers(level, wanted)
        if len(hits) != 1:
            raise AssertionError(
                f"face tuple for {name} has {len(hits)} fillers; expected exactly one"
            )
        out[name] = hits[0]
    return out


def _resolve(ref: FaceRef, env: dict[str, LaxMatrix]) -> LaxMatrix:
    name, degs = ref
    x = env[name]
    for i in reversed(degs):
        x = act(delta.degeneracy(i, x.n), x)
    return x


def resolve_face(ref: FaceRef) -> LaxMatrix:
    """The simplex a face reference denotes."""
    return _resolve(ref, _matrices())


@lru_cache(maxsize=None)
def catalogue() -> tuple[NamedSimplex, ...]:
    mats = _matrices()
    return tuple(
        NamedSimplex(name, _BASE[name][0], _BASE[name][1], mats[name])
        for name in _ORDER
    )


def named(name: str) -> NamedSimplex:
    for ns in catalogue():
        if ns.name == name:
            return ns
    raise KeyError(name)


class CatalogueReport(NamedTuple):
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.ok:
            return "catalogue verified: recorded faces match, entries are exactly the non-degenerate simplices"
        return "catalogue MISMATCH: " + "; ".join(self.mismatches)


def verify_catalogue() -> CatalogueReport:
    """Recompute every face by pullback and compare levels with the
    non-degenerate census."""
    mismatches: list[str] = []
    mats = _matrices()
    for ns in catalogue():
        for idx, ref in enumerate(ns.faces):
            got = act(delta.face(idx, ns.level), ns.matrix)
            want = _resolve(ref, mats)
            if got != want:
                mismatches.append(
                    f"{ns.name}: d_{idx} is {got!r}, recorded {face_label(ref)} = {want!r}"
                )
    by_level: dict[int, set[LaxMatrix]] = {}
    for ns in catalogue():
        by_level.setdefault(ns.level, set()).add(ns.matrix)
    census = CatalanSet(max(by_level))
    for level, entries in by_level.items():
        if entries != set(census.nondegenerate(level)):
            mismatches.append(
                f"level {level}: named entries differ from the non-degenerate simplices"
            )
    return CatalogueReport(tuple(mismatches))
