import importlib

import pytest

from catalan_sset import delta
from catalan_sset.catalan import CatalanSet, act, lax_from_bits
from catalan_sset.catalogue import NamedSimplex, catalogue, face_label, named, verify_catalogue

# the package's lazy ``catalogue`` name is the function, not the module
catalogue_module = importlib.import_module("catalan_sset.catalogue")


def test_counts_per_level():
    per_level = {}
    for ns in catalogue():
        per_level[ns.level] = per_level.get(ns.level, 0) + 1
    assert per_level == {0: 1, 1: 1, 2: 2, 3: 4, 4: 9}


def test_named_matrices_for_unit_shapes():
    assert named("l").matrix == lax_from_bits(3, (1, 0, 0, 1, 1, 1))
    assert named("r").matrix == lax_from_bits(3, (0, 0, 1, 1, 1, 1))
    assert named("k").matrix == lax_from_bits(3, (0, 0, 0, 1, 1, 1))
    assert named("a").matrix == lax_from_bits(3, (1, 1, 1, 1, 1, 1))
    assert named("t").matrix == lax_from_bits(2, (1, 1, 1))
    assert named("i").matrix == lax_from_bits(2, (0, 0, 1))


def test_every_recorded_face_recomputes_by_pullback():
    for ns in catalogue():
        for idx, (base, degs) in enumerate(ns.faces):
            want = named(base).matrix
            for i in reversed(degs):
                want = act(delta.degeneracy(i, want.n), want)
            assert act(delta.face(idx, ns.level), ns.matrix) == want


def test_entries_are_exactly_the_nondegenerate_simplices():
    census = CatalanSet(4)
    for level in range(5):
        names = {ns.matrix for ns in catalogue() if ns.level == level}
        assert names == set(census.nondegenerate(level))


def test_face_tuples_are_unique_identifiers():
    seen = {}
    for ns in catalogue():
        if ns.level < 2:
            continue
        key = (ns.level, tuple(ns.face_labels))
        assert key not in seen
        seen[key] = ns.name


def test_face_label_rendering():
    assert face_label(("c", ())) == "c"
    assert face_label(("c", (0, 1))) == "s_0(s_1(c))"
    assert face_label(("star", (0,))) == "s_0(star)"


def test_verify_catalogue_passes():
    report = verify_catalogue()
    assert report.ok, report.summary()


def test_verify_catalogue_reports_a_wrong_recorded_face(monkeypatch):
    entries = tuple(
        ns._replace(faces=(("star", (0,)),) + ns.faces[1:]) if ns.name == "t" else ns
        for ns in catalogue()
    )
    monkeypatch.setattr(catalogue_module, "catalogue", lambda: entries)
    report = verify_catalogue()
    assert not report.ok
    assert report.mismatches == ("t: d_0 is Lax(1:1), recorded s_0(star) = Lax(1:0)",)


def test_verify_catalogue_reports_a_degenerate_entry(monkeypatch):
    # no recorded faces, so only the census comparison can see it
    degenerate = act(delta.degeneracy(0, 1), named("c").matrix)
    entries = catalogue() + (NamedSimplex("s0c", 2, (), degenerate),)
    monkeypatch.setattr(catalogue_module, "catalogue", lambda: entries)
    report = verify_catalogue()
    assert not report.ok
    assert report.mismatches == (
        "level 2: named entries differ from the non-degenerate simplices",
    )


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        named("z")


def test_recorded_face_tuples():
    expected = {
        "t": ("c", "c", "c"),
        "i": ("s_0(star)", "c", "s_0(star)"),
        "a": ("t", "t", "t", "t"),
        "l": ("i", "s_1(c)", "t", "s_1(c)"),
        "r": ("s_0(c)", "t", "s_0(c)", "i"),
        "k": ("i", "s_1(c)", "s_0(c)", "i"),
        "A1": ("a", "a", "a", "a", "a"),
        "A2": ("r", "s_1(t)", "a", "s_1(t)", "l"),
        "A3": ("l", "l", "s_2(t)", "a", "s_2(t)"),
        "A4": ("s_0(t)", "a", "s_0(t)", "r", "r"),
        "A5": ("s_1(i)", "s_2(i)", "k", "s_0(i)", "s_1(i)"),
        "A6": ("s_0(i)", "l", "k", "r", "s_2(i)"),
        "A7": ("k", "l", "s_0(s_1(c))", "r", "k"),
        "A8": ("r", "s_1(t)", "s_0(t)", "r", "k"),
        "A9": ("k", "l", "s_2(t)", "s_1(t)", "l"),
    }
    for name, labels in expected.items():
        assert named(name).face_labels == labels
