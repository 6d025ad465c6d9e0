import itertools
import re

import pytest
from hypothesis import given, strategies as st

from catalan_sset import delta, models
from catalan_sset.catalan import LaxMatrix, enumerate_level, lax_from_bits
from catalan_sset.errors import (
    MissingIdentityIdealError,
    NotAnIdealError,
    NotInterpolativeError,
    ShapeMismatchError,
)
from catalan_sset.models import (
    IdealRelation,
    InterpolativeRelation,
    adjoint_ideals,
    compose_ideals,
    enumerate_square_ideals,
    ideal_leq,
    ideal_pullback,
    ideal_to_lax,
    identity_ideal,
    lax_to_ideal,
    lax_to_relation,
    relation_pullback,
    relation_to_lax,
)

C = LaxMatrix(1, 1)
ZERO1 = LaxMatrix(1, 0)
T = lax_from_bits(2, (1, 1, 1))
I2 = lax_from_bits(2, (0, 0, 1))


# -- relations ----------------------------------------------------------------


def test_all_ones_relates_only_the_diagonal():
    assert lax_to_relation(T).pairs == frozenset({(0, 0), (1, 1), (2, 2)})


def test_unit_shape_relation():
    got = lax_to_relation(I2).pairs
    diag = {(0, 0), (1, 1), (2, 2)}
    assert got == frozenset(diag | {(0, 1), (1, 0), (1, 2), (2, 1)})


def test_all_zero_relates_everything():
    x = lax_from_bits(2, (0, 0, 0))
    assert lax_to_relation(x).pairs == frozenset(
        (a, b) for a in range(3) for b in range(3)
    )


def test_relation_round_trips():
    for n in range(5):
        for x in enumerate_level(n):
            assert relation_to_lax(lax_to_relation(x)) == x


def test_relation_validation():
    with pytest.raises(NotInterpolativeError):
        relation_to_lax(InterpolativeRelation(1, frozenset({(0, 0)})))
    with pytest.raises(NotInterpolativeError):
        relation_to_lax(
            InterpolativeRelation(1, frozenset({(0, 0), (1, 1), (0, 1)}))
        )
    with pytest.raises(NotInterpolativeError):
        # (0, 2) present without (0, 1): interpolation fails
        relation_to_lax(
            InterpolativeRelation(
                2, frozenset({(0, 0), (1, 1), (2, 2), (0, 2), (2, 0), (1, 2), (2, 1)})
            )
        )
    with pytest.raises(NotInterpolativeError, match=re.escape("(1, 0) without (0, 1)")):
        # below the diagonal only, where no interpolation test looks
        relation_to_lax(InterpolativeRelation(1, frozenset({(0, 0), (1, 1), (1, 0)})))


def test_relation_failures_name_the_first_pair_in_row_order():
    diag = {(v, v) for v in range(5)}
    with pytest.raises(NotInterpolativeError, match=re.escape("(1, 3) without (3, 1)")):
        relation_to_lax(InterpolativeRelation(4, diag | {(2, 0), (1, 3)}))
    with pytest.raises(NotInterpolativeError, match=re.escape(
        "interpolation fails: (1, 3) present, (1, 2)/(2, 3) not"
    )):
        relation_to_lax(InterpolativeRelation(4, diag | {(2, 4), (4, 2), (1, 3), (3, 1)}))


# -- ideals ---------------------------------------------------------------------


def test_marked_edge_gives_identity_ideal():
    assert lax_to_ideal(C) == identity_ideal(1)


def test_zero_edge_gives_full_ideal():
    assert lax_to_ideal(ZERO1) == IdealRelation(1, 1, {(0, 0), (0, 1), (1, 0), (1, 1)})


def test_ideal_round_trips():
    for n in range(5):
        for x in enumerate_level(n):
            assert ideal_to_lax(lax_to_ideal(x)) == x


def test_ideal_census_is_independent_and_agrees():
    for n in range(5):
        ideals = enumerate_square_ideals(n)
        level = enumerate_level(n)
        assert len(ideals) == len(level)
        assert set(ideals) == {lax_to_ideal(x) for x in level}


def test_ideal_validation_errors():
    with pytest.raises(NotAnIdealError):
        ideal_to_lax(IdealRelation(1, 1, frozenset({(1, 0)})))
    with pytest.raises(MissingIdentityIdealError):
        ideal_to_lax(IdealRelation(1, 1, frozenset()))
    with pytest.raises(ShapeMismatchError):
        ideal_to_lax(IdealRelation(1, 2, frozenset()))


def test_ideal_law_matches_full_quantifier_form():
    """Every pair set of every shape [m_top] -/-> [n_top] with both tops <= 2,
    the non-square ones included."""

    def full_law(pairs, m_top):
        return all(
            (q, p) in pairs
            for (j, i) in pairs
            for q in range(j + 1)
            for p in range(i, m_top + 1)
        )

    for m_top, n_top in itertools.product(range(3), range(3)):
        grid = list(itertools.product(range(n_top + 1), range(m_top + 1)))
        for bits in range(2 ** len(grid)):
            pairs = frozenset(g for k, g in enumerate(grid) if (bits >> k) & 1)
            rows = IdealRelation(m_top, n_top, pairs).rows
            assert models._is_ideal(rows, m_top) == full_law(pairs, m_top), pairs


# -- ideal calculus ---------------------------------------------------------------


def test_identity_map_has_identity_adjoints():
    lo, up = adjoint_ideals(delta.identity(1))
    assert lo == identity_ideal(1)
    assert up == identity_ideal(1)


def test_collapse_map_adjoints():
    lo, up = adjoint_ideals(delta.degeneracy(0, 0))
    assert lo.pairs == frozenset({(0, 0), (0, 1)})
    assert up.pairs == frozenset({(0, 0), (1, 0)})
    for x in enumerate_level(0):
        b = lax_to_ideal(x)
        sandwich = compose_ideals(compose_ideals(up, b), lo)
        assert sandwich == ideal_pullback(delta.degeneracy(0, 0), b)


def test_adjunction_laws_up_to_level_three():
    for m in range(4):
        for n in range(4):
            for xi in delta.all_maps(m, n):
                lo, up = adjoint_ideals(xi)
                assert ideal_leq(identity_ideal(m), compose_ideals(up, lo))
                assert ideal_leq(compose_ideals(lo, up), identity_ideal(n))


def test_sandwich_equals_inverse_image_up_to_level_three():
    for m in range(4):
        for n in range(4):
            for xi in delta.all_maps(m, n):
                lo, up = adjoint_ideals(xi)
                for x in enumerate_level(n):
                    b = lax_to_ideal(x)
                    assert compose_ideals(compose_ideals(up, b), lo) == ideal_pullback(
                        xi, b
                    )


def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        compose_ideals(identity_ideal(1), identity_ideal(2))
    with pytest.raises(ShapeMismatchError):
        ideal_leq(identity_ideal(1), identity_ideal(2))


def test_composite_of_ideals_is_an_ideal():
    for m in range(3):
        for n in range(3):
            for xi in delta.all_maps(m, n):
                lo, up = adjoint_ideals(xi)
                comp = compose_ideals(up, lo)
                assert models._is_ideal(comp.rows, comp.m_top)


# -- actions commute with both conversions ------------------------------------------


def test_conversions_commute_with_actions_up_to_level_three():
    from catalan_sset.catalan import act

    for n in range(4):
        level = enumerate_level(n)
        for m in range(4):
            for xi in delta.all_maps(m, n):
                for x in level:
                    y = act(xi, x)
                    assert ideal_pullback(xi, lax_to_ideal(x)) == lax_to_ideal(y)
                    assert relation_pullback(xi, lax_to_relation(x)) == lax_to_relation(y)


@given(st.data())
def test_pullback_of_ideal_is_ideal(data):
    n = data.draw(st.integers(min_value=0, max_value=5))
    m = data.draw(st.integers(min_value=0, max_value=5))
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
    xi = delta.MonotoneMap(m, n, values)
    x = data.draw(st.sampled_from(enumerate_level(n)))
    pulled = ideal_pullback(xi, lax_to_ideal(x))
    assert models._is_ideal(pulled.rows, m)
    assert ideal_leq(identity_ideal(m), pulled)


# -- row storage against the pair-set oracle -------------------------------------


def _oracle_gather(xi, pairs):
    """The pairs (p, q) of [m] x [m] whose image under xi lies in ``pairs``."""
    m = xi.domain_top
    return frozenset(
        (p, q)
        for p in range(m + 1)
        for q in range(m + 1)
        if (xi.values[p], xi.values[q]) in pairs
    )


def _oracle_compose(a_pairs, b_pairs, n_top, m_top):
    """Relational composite on pair sets, read on [n_top] x [m_top]."""
    mids = {k for (_, k) in a_pairs} | {k for (k, _) in b_pairs}
    return frozenset(
        (j, i)
        for j in range(n_top + 1)
        for i in range(m_top + 1)
        if any((j, k) in a_pairs and (k, i) in b_pairs for k in mids)
    )


def test_pullbacks_match_the_pair_oracle_to_level_four():
    for n in range(5):
        level = enumerate_level(n)
        for m in range(5):
            for xi in delta.all_maps(m, n):
                for x in level:
                    b = lax_to_ideal(x)
                    rel = lax_to_relation(x)
                    assert ideal_pullback(xi, b).pairs == _oracle_gather(xi, b.pairs)
                    assert relation_pullback(xi, rel).pairs == _oracle_gather(
                        xi, rel.pairs
                    )


def test_the_generated_row_reader_reads_through_both_tables():
    # no entry of r or t is its own index, so a slot that skips either
    # lookup reads a different value
    r = tuple((7 * v + 3) % 64 for v in range(16))
    t = tuple(1000 + w for w in range(64))
    for k in range(1, 16):
        values = tuple((5 * p + k) % 16 for p in range(k))
        read = models._row_reader(k)
        assert read(r, t, values) == tuple(t[r[v]] for v in values), k
        assert models._row_reader(k) is read


def _calculus_cases():
    """Every square ideal at n <= 3 and the adjoint ideals of every map with
    endpoints <= 3, grouped by shape."""
    by_shape = {}
    for n in range(4):
        for b in enumerate_square_ideals(n):
            by_shape.setdefault((n, n), []).append(b)
    for m in range(4):
        for n in range(4):
            for xi in delta.all_maps(m, n):
                for b in adjoint_ideals(xi):
                    by_shape.setdefault((b.m_top, b.n_top), []).append(b)
    return by_shape


def test_compose_and_leq_match_the_pair_oracle():
    by_shape = _calculus_cases()
    for (m_b, mid), bs in by_shape.items():
        for (m_a, n_a), as_ in by_shape.items():
            if m_a != mid:
                continue
            for a in as_:
                for b in bs:
                    got = compose_ideals(a, b)
                    assert (got.m_top, got.n_top) == (m_b, n_a)
                    assert got.pairs == _oracle_compose(a.pairs, b.pairs, n_a, m_b)
    for ideals in by_shape.values():
        for a in ideals:
            for b in ideals:
                assert ideal_leq(a, b) == (a.pairs <= b.pairs)


_pair_sets = st.frozensets(
    st.tuples(st.integers(-2, 5), st.integers(-2, 5)), max_size=12
)


def _on_grid(pairs, row_top, col_top):
    return frozenset(
        (a, b) for (a, b) in pairs if 0 <= a <= row_top and 0 <= b <= col_top
    )


@given(st.integers(0, 3), st.integers(0, 3), _pair_sets)
def test_constructors_keep_every_pair(m, n, pairs):
    if pairs == _on_grid(pairs, n, m):
        assert IdealRelation(m, n, pairs).pairs == pairs
        assert IdealRelation(m, n, set(pairs)) == IdealRelation(m, n, pairs)
    else:
        with pytest.raises(NotAnIdealError):
            IdealRelation(m, n, pairs)
    if pairs == _on_grid(pairs, n, n):
        assert InterpolativeRelation(n, pairs).pairs == pairs
    else:
        with pytest.raises(NotInterpolativeError):
            InterpolativeRelation(n, pairs)


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), _pair_sets, _pair_sets)
def test_calculus_matches_the_pair_oracle_with_stray_pairs(m, k, n, a_pairs, b_pairs):
    # the drawn sets reach off the grid; the constructors refuse such pairs,
    # so each set is clipped to its grid first
    a_pairs = _on_grid(a_pairs, n, k)
    b_pairs = _on_grid(b_pairs, k, m)
    a = IdealRelation(k, n, a_pairs)
    b = IdealRelation(m, k, b_pairs)
    assert compose_ideals(a, b).pairs == _oracle_compose(a_pairs, b_pairs, n, m)
    c_pairs = _on_grid(b_pairs, n, k)
    c = IdealRelation(k, n, c_pairs)
    assert ideal_leq(a, c) == (a_pairs <= c_pairs)


def test_valid_pair_sets_round_trip_through_the_constructors():
    for n in range(5):
        for b in enumerate_square_ideals(n):
            assert IdealRelation(n, n, set(b.pairs)).pairs == b.pairs
        for x in enumerate_level(n):
            pairs = set(lax_to_relation(x).pairs)
            assert InterpolativeRelation(n, pairs).pairs == frozenset(pairs)
    for m in range(4):
        for n in range(4):
            for xi in delta.all_maps(m, n):
                for b in adjoint_ideals(xi):
                    assert IdealRelation(b.m_top, b.n_top, b.pairs) == b


def test_pullbacks_equal_and_hash_like_the_converted_action():
    from catalan_sset.catalan import act

    for n in range(4):
        for m in range(4):
            for xi in delta.all_maps(m, n):
                for x in enumerate_level(n):
                    y = act(xi, x)
                    pulled = (
                        ideal_pullback(xi, lax_to_ideal(x)),
                        relation_pullback(xi, lax_to_relation(x)),
                    )
                    built = (lax_to_ideal(y), lax_to_relation(y))
                    assert pulled == built
                    assert list(map(hash, pulled)) == list(map(hash, built))


@pytest.mark.parametrize("stray", [(0, 5), (-1, 0), (5, 0), (0, -1)])
def test_stray_pairs_are_kept_and_refused(stray):
    """A pair off the grid is kept out of every relation: building one with
    it raises the error its conversion to a table would raise."""
    with pytest.raises(NotInterpolativeError, match=re.escape(f"pair {stray} outside")):
        InterpolativeRelation(1, {(0, 0), (1, 1), stray})
    with pytest.raises(NotAnIdealError, match=re.escape(f"pair {stray} outside")):
        IdealRelation(1, 1, identity_ideal(1).pairs | {stray})


def test_make_and_replace_check_like_the_constructor():
    with pytest.raises(NotAnIdealError, match=re.escape("pair (0, 2) outside")):
        identity_ideal(1)._replace(rows=(0b100, 0b10))
    with pytest.raises(NotInterpolativeError, match=re.escape("pair (0, 2) outside")):
        InterpolativeRelation._make((1, (0b111, 0b11)))
    with pytest.raises(NotAnIdealError):
        IdealRelation._make((1, 1, (0b11, 0b11, 0b1)))
    b = identity_ideal(1)._replace(rows=(0b11, 0b11))
    assert type(b) is IdealRelation and b == lax_to_ideal(ZERO1)
    rel = lax_to_relation(I2)
    same = rel._replace(n=2)
    assert type(same) is InterpolativeRelation and same == rel
    assert InterpolativeRelation._make(rel) == rel


def test_make_refuses_rows_that_do_not_come_back():
    """A negative row reads as other bits and a short row tuple as padded
    with empty rows; ``_make`` and ``_replace`` refuse both."""
    with pytest.raises(NotAnIdealError, match=re.escape("rows (-1, 2) do not fit")):
        identity_ideal(1)._replace(rows=(-1, 2))
    with pytest.raises(NotInterpolativeError, match=re.escape("rows (-2, 3) do not fit")):
        InterpolativeRelation._make((1, (-2, 3)))
    with pytest.raises(NotAnIdealError, match=re.escape("rows (3,) do not fit")):
        identity_ideal(1)._replace(rows=(3,))
