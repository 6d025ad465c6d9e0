from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from catalan_sset import delta, sset
from catalan_sset.bicats import embed
from catalan_sset.catalan import CatalanSet, LaxMatrix, lax_from_bits
from catalan_sset.errors import LevelOutOfRangeError
from catalan_sset.inputs import load_suite
from catalan_sset.catalan import intervals
from catalan_sset.nerve import (
    BicatNerve,
    BicatNerveSimplex,
    MonoidalNerve,
    MonoidalNerveSimplex,
    triples,
)
from catalan_sset.sset import (
    Boundary,
    TruncatedMap,
    _generators,
    _replay,
    boundary_of,
    compatible_boundaries,
    coskeletal_filler_report,
    enumerate_truncated_maps,
    fillers,
    is_compatible_boundary,
    naturality_failures,
)
from fixtures_sset import (
    PointSimplicialSet,
    TableSimplicialSet,
    epi_mono_indices,
    suite_nerves,
)


@pytest.fixture(scope="module")
def c4():
    return CatalanSet(4)


@pytest.fixture(scope="module")
def c5():
    return CatalanSet(5)


# -- degeneracy detection ----------------------------------------------------


def test_degenerate_iff_in_image_of_degeneracies(c4):
    for n in range(1, 5):
        image = {
            c4.degeneracy(i, n - 1, y)
            for y in c4.level(n - 1)
            for i in range(n)
        }
        for x in c4.level(n):
            assert c4.is_degenerate(x, n) == (x in image)


def _ez_decompose(X, x, n):
    """(eta, y, m) with x = X.act(eta, y), eta surjective and y non-degenerate,
    the surjection composed through ``delta.compose``: the oracle for how
    ``TruncatedMap`` reads a degenerate simplex."""
    if n == 0:
        return delta.identity(0), x, 0
    for i in range(n):
        y1 = X.face(i, n, x)
        if X.degeneracy(i, n - 1, y1) == x:
            eta, y, m = _ez_decompose(X, y1, n - 1)
            return delta.compose(eta, delta.degeneracy(i, n - 1)), y, m
    return delta.identity(n), x, n


def test_ez_decomposition_reconstructs(c4):
    for n in range(5):
        for x in c4.level(n):
            eta, y, m = _ez_decompose(c4, x, n)
            assert set(eta.values) == set(range(eta.codomain_top + 1))
            assert m == 0 or not c4.is_degenerate(y, m)
            assert c4.act(eta, y) == x


def test_degeneracy_index_is_the_first_degeneracy(face_table_spaces):
    """CatalanSet(5) at levels 1-5, every suite nerve at levels 1-3."""
    for name, X, top in face_table_spaces:
        for n in range(1, (top if name == "catalan" else 3) + 1):
            for x in X.level(n):
                hits = [i for i in range(n) if X.degeneracy(i, n - 1, X.face(i, n, x)) == x]
                i = X.degeneracy_index(x, n)
                assert i == (hits[0] if hits else None), (name, n, x)
                assert (i is None) == (not X.is_degenerate(x, n)), (name, n, x)


# -- functoriality -----------------------------------------------------------


def test_contravariant_functoriality_exhaustive_to_level_three():
    cs = CatalanSet(3)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for zeta in delta.all_maps(a, b):
                    for xi in delta.all_maps(b, c):
                        comp = delta.compose(xi, zeta)
                        for x in cs.level(c):
                            assert cs.act(comp, x) == cs.act(zeta, cs.act(xi, x))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_contravariant_functoriality_sampled_to_level_six(data):
    cs = CatalanSet(6)

    def draw_map(m, n):
        values = tuple(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=n),
                        min_size=m + 1,
                        max_size=m + 1,
                    )
                )
            )
        )
        return delta.MonotoneMap(m, n, values)

    a = data.draw(st.integers(min_value=0, max_value=6))
    b = data.draw(st.integers(min_value=0, max_value=6))
    c = data.draw(st.integers(min_value=0, max_value=6))
    zeta, xi = draw_map(a, b), draw_map(b, c)
    x = data.draw(st.sampled_from(cs.level(c)))
    assert cs.act(delta.compose(xi, zeta), x) == cs.act(zeta, cs.act(xi, x))


@pytest.mark.slow
def test_contravariant_functoriality_exhaustive_to_level_five(c5):
    for a in range(6):
        for b in range(6):
            for c in range(6):
                for zeta in delta.all_maps(a, b):
                    for xi in delta.all_maps(b, c):
                        comp = delta.compose(xi, zeta)
                        for x in c5.level(c):
                            assert c5.act(comp, x) == c5.act(zeta, c5.act(xi, x))


def _maps_to_level_four():
    return [xi for m in range(5) for n in range(5) for xi in delta.all_maps(m, n)]


def _acting_generators(xi):
    """The generators of xi's epi-mono factorisation in the order they act
    on a simplex: the last face first and the first degeneracy last."""
    degs, faces = epi_mono_indices(xi)
    return [delta.face(i, lvl) for i, lvl in reversed(faces)] + [
        delta.degeneracy(i, lvl) for i, lvl in reversed(degs)
    ]


def test_act_indices_compose_along_the_generators(c4):
    """Functoriality on every map with tops <= 4, in the form the map
    search relies on when it checks naturality on the generators only."""
    maps = _maps_to_level_four()
    assert len(maps) == 456
    for xi in maps:
        positions = range(len(c4.level(xi.codomain_top)))
        for g in _acting_generators(xi):
            index = c4.act_index(g)
            positions = [index[k] for k in positions]
        assert tuple(positions) == c4.act_index(xi), xi


class _IdentityLabels(dict):
    def __missing__(self, o):
        return f"id({o})"


def _label(prefix, subset):
    return prefix + "".join(map(str, subset))


def _vertices(n):
    return tuple((v,) for v in range(n + 1))


def test_nerve_act_composes_along_the_generators():
    """Both nerves over a stand-in input, on one simplex per level whose
    objects, cells, identities and unit are all distinct labels.  ``act``
    only gathers labels and looks up identities, so every simplex of every
    input is a relabelling of this one, and functoriality here is
    functoriality everywhere."""
    stand_in = SimpleNamespace(objects=(), identities=_IdentityLabels(), unit_object="I")
    for X, object_sets, cell_sets in (
        (MonoidalNerve(stand_in, validate=False), intervals, triples),
        (BicatNerve(stand_in, validate=False), _vertices, intervals),
    ):
        for xi in _maps_to_level_four():
            n = xi.codomain_top
            x = X.simplex(
                n,
                tuple(_label("o", s) for s in object_sets(n)),
                tuple(_label("c", s) for s in cell_sets(n)),
            )
            y = x
            for g in _acting_generators(xi):
                y = X.act(g, y)
            assert y == X.act(xi, x), (type(X).__name__, xi)


# -- identity harness ---------------------------------------------------------


def test_identity_harness_passes_on_catalan(c4):
    report = c4.verify_simplicial_identities(4)
    assert report.ok
    assert report.checked > 0


def test_identity_harness_catches_corrupted_table(c4):
    table = TableSimplicialSet.mirror(c4, 3)
    good = table.verify_simplicial_identities(3)
    assert good.ok
    # corrupt one face entry: swap d_0 of the all-ones 3-simplex
    top = lax_from_bits(3, (1, 1, 1, 1, 1, 1))
    table.faces[(0, 3, top)] = lax_from_bits(2, (0, 0, 1))
    bad = table.verify_simplicial_identities(3)
    assert not bad.ok
    assert any("d_i d_j" in v.law for v in bad.violations)


def test_harness_level_guard(c4):
    with pytest.raises(LevelOutOfRangeError):
        c4.verify_simplicial_identities(5)


# -- boundaries and fillers ----------------------------------------------------


def test_boundaries_of_simplices_are_compatible(c4):
    for n in (2, 3, 4):
        for x in c4.level(n):
            assert is_compatible_boundary(c4, boundary_of(c4, x, n))


def test_every_compatible_three_boundary_has_unique_filler():
    report = coskeletal_filler_report(CatalanSet(3), 3)
    assert report.ok
    assert report.boundary_count == 14


def test_every_compatible_four_boundary_has_unique_filler(c4):
    report = coskeletal_filler_report(c4, 4)
    assert report.ok
    assert report.boundary_count == 42


# -- truncated map enumeration ---------------------------------------------------


def test_two_self_maps_at_truncation_four(c4):
    enum = enumerate_truncated_maps(c4, c4, 4)
    assert len(enum.maps) == 2
    images_on_edge = {f(1, LaxMatrix(1, 1)) for f in enum.maps}
    assert images_on_edge == {LaxMatrix(1, 1), LaxMatrix(1, 0)}


def test_maps_to_point_is_single(c4):
    enum = enumerate_truncated_maps(c4, PointSimplicialSet(4), 4)
    assert len(enum.maps) == 1


def test_rejection_witnesses_are_real(c4):
    enum = enumerate_truncated_maps(c4, c4, 4)
    assert enum.rejections
    for w in enum.rejections[:50]:
        assert c4.face(w.face_index, w.level, w.candidate) == w.found
        assert w.found != w.required


class _EveryFiller(CatalanSet):
    """The Catalan set with ``fillers`` that offer the whole level, whatever
    faces the search requires."""

    def fillers(self, n, entries, pruned=None):
        return list(self.level(n))


def test_the_search_refuses_a_map_that_is_not_natural():
    with pytest.raises(AssertionError, match="fails naturality"):
        enumerate_truncated_maps(CatalanSet(2), _EveryFiller(2), 2)


def test_the_search_replays_only_the_generators(monkeypatch):
    built = []
    maps = sset._maps
    monkeypatch.setattr(sset, "_maps", lambda m, n: built.append((m, n)) or maps(m, n))
    X = CatalanSet(4)
    enum = enumerate_truncated_maps(X, MonoidalNerve(embed(load_suite("chain3-max"))), 4)
    assert len(enum.maps) == 3
    assert built == []
    assert len(X._act_indices) == 14 + 10  # the faces and degeneracies at r = 4


def _full_table(f):
    """f on every simplex up to its truncation, degenerate ones included."""
    return {(n, x): f(n, x) for n in range(f.r + 1) for x in f.source.level(n)}


def _brute_force_function_space(X, Y, r):
    """Filter the entire function space by naturality on generator maps."""
    gens = [delta.face(i, n) for n in range(1, r + 1) for i in range(n + 1)]
    gens += [delta.degeneracy(i, n) for n in range(r) for i in range(n + 1)]
    levels = [list(X.level(n)) for n in range(r + 1)]
    choice_sets = [list(product(Y.level(n), repeat=len(levels[n]))) for n in range(r + 1)]
    found = []
    for combo in product(*choice_sets):
        f = {}
        for n in range(r + 1):
            for x, y in zip(levels[n], combo[n]):
                f[(n, x)] = y
        if all(
            f[(g.domain_top, X.act(g, x))] == Y.act(g, f[(g.codomain_top, x)])
            for g in gens
            for x in levels[g.codomain_top]
        ):
            found.append(frozenset(f.items()))
    return set(found)


def test_enumerator_matches_function_space_oracle():
    c2 = CatalanSet(2)
    expected = _brute_force_function_space(c2, c2, 2)
    enum = enumerate_truncated_maps(c2, c2, 2)
    got = {frozenset(_full_table(f).items()) for f in enum.maps}
    assert got == expected


def test_enumerator_matches_oracle_into_smaller_target():
    c2 = CatalanSet(2)
    pt = PointSimplicialSet(2)
    expected = _brute_force_function_space(c2, pt, 2)
    got = {
        frozenset(_full_table(f).items())
        for f in enumerate_truncated_maps(c2, pt, 2).maps
    }
    assert got == expected


def test_every_compatible_five_boundary_has_unique_filler(c5):
    report = coskeletal_filler_report(c5, 5)
    assert report.ok
    assert report.boundary_count == 132


def test_duplicate_filler_is_reported():
    base = CatalanSet(3)
    table = TableSimplicialSet.mirror(base, 3)
    top = lax_from_bits(3, (1, 1, 1, 1, 1, 1))
    clone = ("twin", top)
    table.levels[3] = table.levels[3] + (clone,)
    for i in range(4):
        table.faces[(i, 3, clone)] = base.face(i, 3, top)
    report = coskeletal_filler_report(table, 3)
    assert report.boundary_count == 14
    assert report.violations == ((boundary_of(base, top, 3), 2),)


# -- memoised face tables ----------------------------------------------------------


@pytest.fixture(scope="module")
def face_table_spaces(c5):
    return [("catalan", c5, 5)] + [(name, nv, 4) for name, nv in suite_nerves()]


def test_face_table_rows_equal_the_face_oracle(face_table_spaces):
    for name, X, top in face_table_spaces:
        for n in range(1, top + 1):
            rows = X.face_table(n)
            assert len(rows) == len(X.level(n)), (name, n)
            lower = {id(y) for y in X.level(n - 1)}
            for x, row in zip(X.level(n), rows):
                assert row == tuple(X.face(i, n, x) for i in range(n + 1)), (name, n, x)
                assert all(id(f) in lower for f in row), (name, n, x)
            assert X.face_table(n) is rows


def test_fillers_agree_with_the_boundary_scan(face_table_spaces):
    for name, X, _ in face_table_spaces:
        boundaries = {x: boundary_of(X, x, 3) for x in X.level(3)}
        for b in compatible_boundaries(X, 3):
            assert fillers(X, b) == [x for x in X.level(3) if boundaries[x] == b], name


def test_compatible_boundaries_equal_the_filtered_product(face_table_spaces):
    for name, X, _ in face_table_spaces:
        for n in (2, 3):
            cells = X.level(n - 1)
            if len(cells) ** (n + 1) > 5000:  # keep the product filter cheap
                continue
            expected = [
                Boundary(n, entries)
                for entries in product(cells, repeat=n + 1)
                if is_compatible_boundary(X, Boundary(n, entries))
            ]
            assert list(compatible_boundaries(X, n)) == expected, (name, n)


# -- constructive nerve fillers and membership ---------------------------------------


def _nerves(spaces):
    return [(name, X) for name, X, _ in spaces if isinstance(X, (MonoidalNerve, BicatNerve))]


def _filled_levels(X):
    """The levels where the nerve builds fillers from the boundary."""
    return (3, 4) if isinstance(X, MonoidalNerve) else (2, 3, 4)


def _scan_index(X, n):
    """The scan ``fillers(X, b)`` for every b at once: level n grouped by
    face row, each group in level order."""
    index = {}
    for x, row in zip(X.level(n), X.face_table(n)):
        index.setdefault(row, []).append(x)
    return index


def test_nerve_fillers_equal_the_scan(face_table_spaces):
    for name, X in _nerves(face_table_spaces):
        for n in _filled_levels(X):
            index = _scan_index(X, n)
            boundaries = list(compatible_boundaries(X, n))
            for b in boundaries:
                assert X.fillers(n, b.entries) == index.get(b.entries, []), (name, n, b)
            # the index against the scan it stands for, on the first boundaries
            for b in boundaries[:20]:
                assert fillers(X, b) == index.get(b.entries, []), (name, n, b)
            # one entry swapped for each simplex of its level; most swaps are
            # incompatible, and then both sides must be empty
            cells = X.level(n - 1)
            for b in boundaries[:: max(1, len(boundaries) // 12)]:
                for e in range(n + 1):
                    for y in cells:
                        entries = b.entries[:e] + (y,) + b.entries[e + 1:]
                        got = X.fillers(n, entries)
                        assert got == index.get(entries, []), (name, n, entries)


def test_contains_accepts_every_simplex(face_table_spaces):
    for name, X in _nerves(face_table_spaces):
        for n in range(5):
            assert all(X.contains(x) for x in X.level(n)), (name, n)


def _product_space(X, n):
    """Every simplex-shaped record at level n over the input's objects and
    cell names, plus one name foreign to both."""
    if isinstance(X, MonoidalNerve):
        b, shape, make = X.b, (len(intervals(n)), len(triples(n))), MonoidalNerveSimplex
    else:
        b, shape, make = X.k, (n + 1, len(intervals(n))), BicatNerveSimplex
    objects = tuple(b.objects) + ("?",)
    cells = tuple(c.name for c in b.cells) + ("?",)
    for objs in product(objects, repeat=shape[0]):
        for cs in product(cells, repeat=shape[1]):
            yield make(n, objs, cs)


def test_contains_is_membership_at_low_levels(face_table_spaces):
    for name, X in _nerves(face_table_spaces):
        for n in range(3):
            members = set(X.level(n))
            accepted = {x for x in _product_space(X, n) if X.contains(x)}
            assert accepted == members, (name, n)


def test_contains_refuses_a_negative_level():
    for X, make in (
        (MonoidalNerve(embed(load_suite("or2"))), MonoidalNerveSimplex),
        (BicatNerve(load_suite("chain2-discrete")), BicatNerveSimplex),
    ):
        for n in (-1, -3):
            assert not X.contains(make(n, (), ())), (X.rank, n)


def test_map_search_into_a_nerve_records_only_scanned_levels():
    for X in (
        MonoidalNerve(embed(load_suite("chain3-max"))),
        BicatNerve(load_suite("chain2-discrete")),
    ):
        scanned = _filled_levels(X)[0] - 1
        enum = enumerate_truncated_maps(CatalanSet(4), X, 4)
        assert enum.rejections
        for w in enum.rejections:
            assert w.level <= scanned
            assert X.face(w.face_index, w.level, w.candidate) == w.found != w.required


# -- the naturality replay ----------------------------------------------------------


def _replay_by_table(f):
    """The replay keyed by simplices: f's full table, the source acting on
    every simplex, the target once per distinct image.  The oracle for
    ``naturality_failures``."""
    X, Y, r = f.source, f.target, f.r
    table = _full_table(f)
    bad = []
    for n in range(r + 1):
        xs = X.level(n)
        images = [table[(n, x)] for x in xs]
        distinct = set(images)
        for m in range(r + 1):
            for xi in delta.all_maps(m, n):
                moved = {y: Y.act(xi, y) for y in distinct}
                for x, y in zip(xs, images):
                    if moved[y] != table[(m, X.act(xi, x))]:
                        bad.append((xi, x))
    return bad


@pytest.fixture(scope="module")
def found_maps(c4):
    """Every map out of the 4-truncated Catalan set into itself and into both
    nerves of every suite input, with the name of its target."""
    targets = [("catalan", c4)] + suite_nerves(plain_posets=True)
    return [
        (name, f) for name, Y in targets for f in enumerate_truncated_maps(c4, Y, 4).maps
    ]


def test_replay_equals_the_table_oracle_on_every_found_map(found_maps):
    assert len(found_maps) == 25
    for name, f in found_maps:
        assert naturality_failures(f) == _replay_by_table(f) == [], name
        assert _replay(f, _generators) == [], name


def _other_simplices(Y, n):
    """Simplices of Y at level n; at level 4 the degenerate ones, which Y
    contains without enumerating the level."""
    if n < 4:
        return Y.level(n)
    return (Y.degeneracy(i, 3, w) for w in Y.level(3) for i in range(4))


@pytest.fixture(scope="module")
def corrupted_maps(found_maps):
    """One non-degenerate image per found map, at levels 2, 3 and 4 in turn,
    swapped for a simplex of the target with other faces; a map is skipped
    when every simplex at that level has the image's faces."""
    corrupted = []
    for k, (name, f) in enumerate(found_maps):
        X, Y, n = f.source, f.target, 2 + k % 3
        x = X.nondegenerate(n)[-1]
        faces = boundary_of(Y, f(n, x), n)
        swap = next(
            (y for y in _other_simplices(Y, n) if boundary_of(Y, y, n) != faces), None
        )
        if swap is not None:
            corrupted.append((name, n, TruncatedMap(X, Y, f.r, {**f.images, (n, x): swap})))
    return corrupted


def test_replay_equals_the_table_oracle_on_corrupted_maps(corrupted_maps):
    assert len(corrupted_maps) >= 20
    for name, n, g in corrupted_maps:
        bad = naturality_failures(g)
        assert bad, (name, n)
        assert bad == _replay_by_table(g), (name, n)
        on_generators = _replay(g, _generators)
        assert on_generators and set(on_generators) <= set(bad), (name, n)


def _assert_reads_through_the_decomposition(name, f):
    """Every simplex at levels <= r: f(n, x) is the image of x's
    non-degenerate root pulled back along the oracle's surjection."""
    for n in range(f.r + 1):
        for x in f.source.level(n):
            eta, y, m = _ez_decompose(f.source, x, n)
            assert f(n, x) == f.target.act(eta, f.images[(m, y)]), (name, n, x)


def test_degenerate_images_equal_the_decomposition_oracle(c4, found_maps):
    point = [("point", f) for f in enumerate_truncated_maps(c4, PointSimplicialSet(4), 4).maps]
    for name, f in found_maps + point:
        _assert_reads_through_the_decomposition(name, f)


def test_degenerate_images_equal_the_decomposition_oracle_on_corrupted_maps(corrupted_maps):
    for name, _, g in corrupted_maps:
        _assert_reads_through_the_decomposition(name, g)


def test_a_second_replay_reuses_the_monotone_maps(c4, monkeypatch):
    f, g = enumerate_truncated_maps(c4, c4, 4).maps
    naturality_failures(f)
    built = []
    all_maps = delta.all_maps
    monkeypatch.setattr(delta, "all_maps", lambda m, n: built.append((m, n)) or all_maps(m, n))
    assert naturality_failures(g) == []
    assert built == []
