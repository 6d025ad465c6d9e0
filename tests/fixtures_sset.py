"""Hand-built truncated simplicial sets for the tests: the terminal one,
and one given by explicit tables that a test can corrupt for fault
injection, with the epi-mono factorisation it acts through; and the nerves
of every bundled suite input.  Imported by the test modules; pytest does
not collect it."""

from __future__ import annotations

from typing import Sequence

from catalan_sset.bicats import PosetalMonoidalBicat, embed
from catalan_sset.delta import MonotoneMap
from catalan_sset.inputs import load_suite, suite_names
from catalan_sset.nerve import BicatNerve, MonoidalNerve
from catalan_sset.sset import Code, TruncatedSimplicialSet


class PointSimplicialSet(TruncatedSimplicialSet):
    """One simplex per level: the terminal truncated simplicial set."""

    def _enumerate(self, n: int) -> Sequence[Code]:
        return ("pt",)

    def act(self, xi: MonotoneMap, x: Code) -> Code:
        return "pt"


def epi_mono_indices(
    xi: MonotoneMap,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Generator indices factoring xi, as (degeneracies, faces) in application order.

    Each entry is a pair (i, level) naming sigma_i : [level+1] -> [level] or
    delta_i : [level-1] -> [level].  Applying all degeneracies first and then
    all faces reproduces xi.
    """
    values = list(xi.values)
    level = xi.domain_top
    degs: list[tuple[int, int]] = []
    while True:
        dup = next(
            (p for p in range(len(values) - 1) if values[p] == values[p + 1]), None
        )
        if dup is None:
            break
        degs.append((dup, level - 1))
        del values[dup]
        level -= 1
    # values is now strictly increasing; insert the missing codomain values,
    # peeling from the largest gap so earlier indices stay stable
    faces_rev: list[tuple[int, int]] = []
    top = xi.codomain_top
    while len(values) - 1 < top:
        gap = max(v for v in range(top + 1) if v not in values)
        faces_rev.append((gap, top))
        values = [v if v < gap else v - 1 for v in values]
        top -= 1
    return tuple(degs), tuple(reversed(faces_rev))


class TableSimplicialSet(TruncatedSimplicialSet):
    """A simplicial set given by explicit level lists and generator tables.

    ``faces[(i, n, x)]`` and ``degeneracies[(i, n, x)]`` hold the generator
    actions; general actions are assembled through the epi-mono
    factorisation.  Tables are plain dicts so tests can corrupt single
    entries for fault injection; levels and face tables are memoised on
    first use, so corrupt them before that.
    """

    def __init__(self, levels: Sequence[Sequence[Code]], faces: dict, degeneracies: dict):
        super().__init__(len(levels) - 1)
        self.levels = [tuple(lv) for lv in levels]
        self.faces = dict(faces)
        self.degeneracies = dict(degeneracies)

    @classmethod
    def mirror(cls, source: TruncatedSimplicialSet, r: int) -> "TableSimplicialSet":
        """Tabulate another simplicial set up to level r."""
        levels = [list(source.level(n)) for n in range(r + 1)]
        faces = {
            (i, n, x): source.face(i, n, x)
            for n in range(1, r + 1)
            for x in levels[n]
            for i in range(n + 1)
        }
        degeneracies = {
            (i, n, x): source.degeneracy(i, n, x)
            for n in range(r)
            for x in levels[n]
            for i in range(n + 1)
        }
        return cls(levels, faces, degeneracies)

    def _enumerate(self, n: int) -> Sequence[Code]:
        return self.levels[n]

    def act(self, xi: MonotoneMap, x: Code) -> Code:
        degs, face_parts = epi_mono_indices(xi)
        # contravariant: the outermost generator acts first
        for i, lvl in reversed(face_parts):
            x = self.faces[(i, lvl, x)]
        for i, lvl in reversed(degs):
            x = self.degeneracies[(i, lvl, x)]
        return x


def suite_nerves(plain_posets: bool = False) -> list[tuple[str, TruncatedSimplicialSet]]:
    """(name, nerve) for every suite input: the monoidal nerve of each
    monoidal input, posets embedded, then the plain nerve of each
    bicategory; with ``plain_posets`` also of each embedded poset."""
    spaces = []
    for name in suite_names():
        source = load_suite(name)
        poset = hasattr(source, "elements")
        if poset:
            source = embed(source)
        if isinstance(source, PosetalMonoidalBicat):
            spaces.append((name, MonoidalNerve(source)))
        if plain_posets or not poset:
            spaces.append((name, BicatNerve(source)))
    return spaces
