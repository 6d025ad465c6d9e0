import math

import pytest
from hypothesis import given, strategies as st

from catalan_sset import delta
from catalan_sset.delta import MonotoneMap
from catalan_sset.errors import (
    DomainMismatchError,
    IndexOutOfRangeError,
    NonMonotoneError,
    OutOfRangeError,
)
from fixtures_sset import epi_mono_indices


def test_identity_map():
    assert MonotoneMap(1, 1, (0, 1)) == delta.identity(1)
    assert delta.identity(3) == MonotoneMap(3, 3, (0, 1, 2, 3))


def test_face_zero_on_one():
    assert MonotoneMap(0, 1, (1,)) == delta.face(0, 1)


def test_decreasing_values_rejected():
    with pytest.raises(NonMonotoneError):
        MonotoneMap(1, 1, (1, 0))


def test_make_and_replace_check_like_the_constructor():
    with pytest.raises(NonMonotoneError):
        MonotoneMap._make((1, 1, (1, 0)))
    with pytest.raises(NonMonotoneError):
        MonotoneMap(1, 1, (0, 1))._replace(values=(1, 0))
    xi = MonotoneMap(1, 2, (0, 1))._replace(values=[0, 2])
    assert xi == MonotoneMap(1, 2, (0, 2))
    assert type(xi) is MonotoneMap and type(xi.values) is tuple


def test_value_out_of_range_rejected():
    with pytest.raises(OutOfRangeError):
        MonotoneMap(1, 1, (0, 2))
    with pytest.raises(OutOfRangeError):
        MonotoneMap(1, 1, (0,))


@pytest.mark.parametrize(
    "kind,i,n,expected",
    [
        ("face", 0, 1, (1,)),
        ("face", 1, 1, (0,)),
        ("face", 2, 2, (0, 1)),
        ("degeneracy", 1, 1, (0, 1, 1)),
        ("degeneracy", 0, 0, (0, 0)),
    ],
)
def test_generator_values(kind, i, n, expected):
    g = delta.face(i, n) if kind == "face" else delta.degeneracy(i, n)
    assert g.values == expected


def test_generator_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        delta.face(3, 2)
    with pytest.raises(IndexOutOfRangeError):
        delta.degeneracy(2, 1)
    with pytest.raises(IndexOutOfRangeError):
        delta.face(0, 0)


def test_compose_degeneracy_face_is_identity():
    # sigma_0 . delta_0 = id on [0]
    assert delta.compose(delta.degeneracy(0, 0), delta.face(0, 1)) == delta.identity(0)


def test_compose_two_faces():
    # delta_1 . delta_0 : [0] -> [2] hits only 2
    composite = delta.compose(delta.face(1, 2), delta.face(0, 1))
    assert composite.values == (2,)


def test_compose_with_identity():
    xi = MonotoneMap(2, 3, (0, 2, 2))
    assert delta.compose(delta.identity(3), xi) == xi
    assert delta.compose(xi, delta.identity(2)) == xi


def test_compose_mismatched_endpoints():
    with pytest.raises(DomainMismatchError):
        delta.compose(delta.face(0, 1), delta.face(0, 1))


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("n", range(5))
def test_all_maps_count_matches_closed_form(m, n):
    assert len(list(delta.all_maps(m, n))) == math.comb(m + n + 1, m + 1)


def test_epi_mono_factorisation_recomposes_everywhere():
    # all maps [m] -> [n] with m, n <= 5
    for m in range(6):
        for n in range(6):
            for xi in delta.all_maps(m, n):
                degs, faces = epi_mono_indices(xi)
                parts = [delta.degeneracy(i, lvl) for i, lvl in degs]
                parts += [delta.face(i, lvl) for i, lvl in faces]
                composite = delta.identity(m)
                for g in parts:
                    composite = delta.compose(g, composite)
                assert composite == xi
                # surjections first, then injections
                kinds = [p.domain_top - p.codomain_top for p in parts]
                assert kinds == sorted(kinds, reverse=True)
                for p in parts:
                    assert abs(p.domain_top - p.codomain_top) == 1


def _monotone_values(m, n):
    return st.lists(
        st.integers(min_value=0, max_value=n), min_size=m + 1, max_size=m + 1
    ).map(lambda vs: tuple(sorted(vs)))


@given(st.data())
def test_composition_is_associative(data):
    a = data.draw(st.integers(min_value=0, max_value=4))
    b = data.draw(st.integers(min_value=0, max_value=4))
    c = data.draw(st.integers(min_value=0, max_value=4))
    d = data.draw(st.integers(min_value=0, max_value=4))
    f = MonotoneMap(a, b, data.draw(_monotone_values(a, b)))
    g = MonotoneMap(b, c, data.draw(_monotone_values(b, c)))
    h = MonotoneMap(c, d, data.draw(_monotone_values(c, d)))
    assert delta.compose(h, delta.compose(g, f)) == delta.compose(
        delta.compose(h, g), f
    )
