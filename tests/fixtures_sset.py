"""Hand-built truncated simplicial sets for the tests: the terminal one,
and one given by explicit tables that a test can corrupt for fault
injection; and the nerves of every bundled suite input.  Imported by the
test modules; pytest does not collect it."""

from __future__ import annotations

from typing import Sequence

from catalan_sset import delta
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
        degs, face_parts = delta.epi_mono_indices(xi)
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
