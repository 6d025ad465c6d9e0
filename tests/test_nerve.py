from itertools import combinations

import pytest

from catalan_sset import delta, sset
from catalan_sset.bicats import Cell, PosetalBicat, embed, suspend
from catalan_sset.catalan import CatalanSet, enumerate_level, interval_index, intervals
from catalan_sset.inputs import load_suite
from catalan_sset.nerve import (
    BicatNerve,
    BicatNerveSimplex,
    MonoidalNerve,
    MonoidalNerveSimplex,
)
from catalan_sset.posets import MonoidalPoset
from fixtures_bicats import probe
from fixtures_sset import suite_nerves


def _triples(n):
    """The triples of vertices of [n] in lexicographic order."""
    return tuple(combinations(range(n + 1), 3))


@pytest.fixture(scope="module")
def or2_bicat():
    return embed(load_suite("or2"))


@pytest.fixture(scope="module")
def or2_nerve(or2_bicat):
    return MonoidalNerve(or2_bicat)


def test_monoidal_nerve_sizes_match_catalan_levels(or2_nerve):
    assert [len(or2_nerve.level(n)) for n in range(5)] == [1, 2, 5, 14, 42]


def _transport(b, x):
    """The canonical relabelling from an interval table into the nerve of
    the embedded two-element poset."""
    n = x.n
    objs = tuple(str(x.entry(i, j)) for (i, j) in intervals(n))

    def cell(p, q, r):
        dom = str(max(x.entry(p, q), x.entry(q, r)))
        cod = str(x.entry(p, r))
        return f"{dom}->{cod}"

    cells = tuple(cell(p, q, r) for (p, q, r) in _triples(n))
    return MonoidalNerveSimplex(n, objs, cells)


def test_monoidal_nerve_is_the_catalan_set_bit_for_bit(or2_bicat, or2_nerve):
    for n in range(5):
        transported = [_transport(or2_bicat, x) for x in enumerate_level(n)]
        assert set(transported) == set(or2_nerve.level(n))
        assert len(transported) == len(or2_nerve.level(n))


def test_monoidal_nerve_action_matches_catalan_action(or2_bicat, or2_nerve):
    cs = CatalanSet(4)
    for n in range(5):
        for m in range(4):
            for xi in delta.all_maps(m, n):
                for x in enumerate_level(n):
                    assert or2_nerve.act(xi, _transport(or2_bicat, x)) == _transport(
                        or2_bicat, cs.act(xi, x)
                    )


def test_suspension_nerve_low_levels():
    nv = MonoidalNerve(load_suite("sigma-or2"))
    assert len(nv.level(1)) == 1
    assert len(nv.level(2)) == 2


def test_trivial_input_has_terminal_nerve():
    one = MonoidalPoset(
        elements=("e",),
        leq=frozenset({("e", "e")}),
        tensor={("e", "e"): "e"},
        unit="e",
    )
    nv = MonoidalNerve(suspend(one))
    assert [len(nv.level(n)) for n in range(5)] == [1, 1, 1, 1, 1]


def test_plain_nerve_of_suspension_matches_catalan_sizes():
    nk = BicatNerve(load_suite("sigma-or2"))
    assert [len(nk.level(n)) for n in range(5)] == [1, 2, 5, 14, 42]


def test_plain_nerve_of_discrete_objects_is_constant():
    k = PosetalBicat(
        objects=("x", "y", "z"),
        cells=tuple(Cell(f"id{o}", o, o) for o in ("x", "y", "z")),
        leq=frozenset((f"id{o}", f"id{o}") for o in ("x", "y", "z")),
        compose={(f"id{o}", f"id{o}"): f"id{o}" for o in ("x", "y", "z")},
        identities={o: f"id{o}" for o in ("x", "y", "z")},
    )
    nk = BicatNerve(k)
    for n in range(5):
        assert len(nk.level(n)) == 3


def test_plain_nerve_level_one_counts_order_pairs():
    nk = BicatNerve(load_suite("chain2-discrete"))
    assert len(nk.level(1)) == 3


def test_contains_refuses_one_object_or_one_cell_too_few_or_too_many(or2_nerve):
    # without the length check, a tuple too long, or a rank-2 simplex with
    # no cell, passes every other check, and the rest raise IndexError
    for X in (or2_nerve, BicatNerve(load_suite("chain2-discrete"))):
        for x in X.level(2):
            assert X.contains(x)
            for wrong in (
                x._replace(objects=x.objects[:-1]),
                x._replace(objects=x.objects + x.objects[:1]),
                x._replace(cells=x.cells[:-1]),
                x._replace(cells=x.cells + x.cells[:1]),
            ):
                assert not X.contains(wrong), (X.rank, wrong)


def test_degeneracy_of_an_edge_inserts_the_unit(or2_nerve):
    a = MonoidalNerveSimplex(1, ("1",), ())
    s0 = or2_nerve.degeneracy(0, 1, a)
    assert s0.objects == ("0", "1", "1")  # interval (0,1) collapses to the unit
    assert s0.cells == ("1->1",)
    s1 = or2_nerve.degeneracy(1, 1, a)
    assert s1.objects == ("1", "0", "1")
    assert s1.cells == ("1->1",)


def test_identity_action_is_trivial(or2_nerve):
    for n in range(4):
        for x in or2_nerve.level(n):
            assert or2_nerve.act(delta.identity(n), x) == x


def test_faces_of_stored_simplices_live_one_level_down(or2_nerve):
    for n in (1, 2, 3, 4):
        lower = set(or2_nerve.level(n - 1))
        for x in or2_nerve.level(n):
            for i in range(n + 1):
                assert or2_nerve.face(i, n, x) in lower


def test_simplicial_identities_on_suite_nerves():
    spaces = [
        MonoidalNerve(embed(load_suite("or2"))),
        MonoidalNerve(embed(load_suite("and2"))),
        MonoidalNerve(load_suite("sigma-or2")),
        BicatNerve(load_suite("sigma-or2")),
        BicatNerve(load_suite("chain2-discrete")),
        BicatNerve(load_suite("trivial")),
    ]
    for space in spaces:
        assert space.verify_simplicial_identities(4).ok


def test_three_boundaries_fill_at_most_once_and_four_boundaries_exactly_once():
    for space in (
        MonoidalNerve(embed(load_suite("and2"))),
        MonoidalNerve(load_suite("sigma-or2")),
        BicatNerve(load_suite("chain2-discrete")),
    ):
        for b in sset.compatible_boundaries(space, 3):
            assert len(sset.fillers(space, b)) <= 1
        report = sset.coskeletal_filler_report(space, 4)
        assert report.ok


def test_suspension_nerve_identities_hold_despite_nontrivial_cells():
    nv = MonoidalNerve(load_suite("sigma-or2"))
    assert nv.verify_simplicial_identities(4).ok


def _bicat_act_by_intervals(nk, xi, x):
    """The plain nerve's pullback worked out interval by interval: the oracle
    for ``BicatNerve.act``."""
    m = xi.domain_top
    verts = tuple(x.objects[xi.values[p]] for p in range(m + 1))
    cells = []
    for (p, q) in intervals(m):
        a, c = xi.values[p], xi.values[q]
        if a < c:
            cells.append(x.cells[interval_index(x.n)[(a, c)]])
        else:
            cells.append(nk.k.identity_of(x.objects[a]))
    return BicatNerveSimplex(m, verts, tuple(cells))


def _plain_suite_nerves():
    """The plain nerve of every 2-category input, and of every monoidal
    poset input embedded."""
    return [
        (name, X) for name, X in suite_nerves(plain_posets=True) if isinstance(X, BicatNerve)
    ]


def test_bicat_nerve_act_equals_the_interval_loop():
    for name, nk in _plain_suite_nerves():
        pairs = 0
        for n in range(5):
            for m in range(5):
                for xi in delta.all_maps(m, n):
                    for x in nk.level(n):
                        assert nk.act(xi, x) == _bicat_act_by_intervals(nk, xi, x), (
                            name, str(xi), x,
                        )
                        pairs += 1
        assert pairs > 0


def _monoidal_act_by_triples(nv, xi, x):
    """The monoidal nerve's pullback worked out interval by interval and
    triple by triple: the oracle for ``MonoidalNerve.act``.  A collapsed
    interval carries the unit, and a collapsed triple (p, q, r) the
    identity on the pulled-back object of (p, r)."""
    m, v = xi.domain_top, xi.values
    objs = tuple(
        x.objects[interval_index(x.n)[(v[p], v[q])]] if v[p] < v[q] else nv.b.unit_object
        for (p, q) in intervals(m)
    )
    cells = []
    for (p, q, r) in _triples(m):
        if v[p] < v[q] < v[r]:
            cells.append(x.cells[_triples(x.n).index((v[p], v[q], v[r]))])
        else:
            cells.append(nv.b.identity_of(objs[interval_index(m)[(p, r)]]))
    return MonoidalNerveSimplex(m, objs, tuple(cells))


def _monoidal_suite_nerves():
    """The monoidal nerve of every monoidal input, posets embedded."""
    return [(name, X) for name, X in suite_nerves() if isinstance(X, MonoidalNerve)]


def test_monoidal_nerve_act_equals_the_triple_loop():
    for name, nv in _monoidal_suite_nerves():
        pairs = 0
        for n in range(4):
            for m in range(4):
                for xi in delta.all_maps(m, n):
                    for x in nv.level(n):
                        assert nv.act(xi, x) == _monoidal_act_by_triples(nv, xi, x), (
                            name, str(xi), x,
                        )
                        pairs += 1
        assert pairs > 0


def test_nerve_act_equals_the_oracles_on_the_level_four_images_of_every_map():
    """Level 4 is too large to act on whole; the images of the maps found
    out of the Catalan set are the simplices a verdict acts on there."""
    spaces = [
        (nv, _monoidal_act_by_triples) for _, nv in _monoidal_suite_nerves()
    ] + [(nk, _bicat_act_by_intervals) for _, nk in _plain_suite_nerves()]
    maps_to_four = [xi for m in range(5) for xi in delta.all_maps(m, 4)]
    checked = 0
    for nerve, oracle in spaces:
        found = sset.enumerate_truncated_maps(CatalanSet(4), nerve, 4).maps
        assert found
        for f in found:
            for x in {f(4, c) for c in enumerate_level(4)}:
                for xi in maps_to_four:
                    assert nerve.act(xi, x) == oracle(nerve, xi, x), (str(xi), x)
                    checked += 1
    assert checked > 0


def test_levels_are_ordered_by_object_then_cell_positions():
    """The order the face tables, the filler scan and the rejection
    witnesses rest on: each level strictly increases in the positions of a
    simplex's objects among the input's objects, then of its cells among
    the input's cells."""
    spaces = [(nv, nv.b) for _, nv in _monoidal_suite_nerves()]
    spaces += [(nk, nk.k) for _, nk in _plain_suite_nerves()]
    for nerve, bicat in spaces:
        obj_pos = {o: k for k, o in enumerate(bicat.objects)}
        cell_pos = {c.name: k for k, c in enumerate(bicat.cells)}
        for n in range(5):
            keys = [
                (tuple(obj_pos[o] for o in x.objects), tuple(cell_pos[c] for c in x.cells))
                for x in nerve.level(n)
            ]
            assert all(a < b for a, b in zip(keys, keys[1:])), (nerve, n)


def test_both_nerves_are_functorial_in_act_index_form():
    """act_index(outer . inner) is act_index(outer) read through
    act_index(inner), for every composable pair with tops <= 3: on every
    suite nerve at both ranks, posets embedded, and on both nerves of the
    probe, where associativity bites."""
    maps = [xi for m in range(4) for n in range(4) for xi in delta.all_maps(m, n)]
    pairs = [
        (outer, inner)
        for outer in maps
        for inner in maps
        if inner.codomain_top == outer.domain_top
    ]
    assert (len(maps), len(pairs)) == (121, 5374)
    spaces = suite_nerves(plain_posets=True)
    spaces += [("probe", MonoidalNerve(probe())), ("probe", BicatNerve(probe()))]
    for name, X in spaces:
        for outer, inner in pairs:
            first, then = X.act_index(outer), X.act_index(inner)
            assert X.act_index(delta.compose(outer, inner)) == tuple(then[k] for k in first), (
                name, X.rank, str(outer), str(inner),
            )
