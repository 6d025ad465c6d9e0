import json
import math
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from catalan_sset import catalan, delta, tamari
from catalan_sset.catalan import (
    HARD_LEVEL_BOUND,
    CatalanSet,
    LaxMatrix,
    act,
    catalan_number,
    enumerate_level,
    interval_index,
    intervals,
    lax_from_bits,
    level_count,
    level_export,
    nondegenerate_count,
    nondegenerate_level,
    reference_counts,
)
from catalan_sset.errors import (
    DomainMismatchError,
    InvalidInputError,
    LevelOutOfRangeError,
    LevelTooLargeError,
)

STAR = LaxMatrix(0, 0)
C = LaxMatrix(1, 1)
T = lax_from_bits(2, (1, 1, 1))
I = lax_from_bits(2, (0, 0, 1))
L = lax_from_bits(3, (1, 0, 0, 1, 1, 1))


@lru_cache(maxsize=None)
def _closure_level(n):
    """Oracle: fill the intervals in canonical order under the closure law."""
    if n < 0:
        raise LevelTooLargeError("level must be >= 0")
    if n > HARD_LEVEL_BOUND:
        raise LevelTooLargeError(
            f"level {n} above the enumeration ceiling {HARD_LEVEL_BOUND}"
        )
    pos = intervals(n)
    idx = interval_index(n)
    count = len(pos)
    # positions of the two maximal sub-intervals, or None for unit length
    inner = [
        None if j - i == 1 else (idx[(i, j - 1)], idx[(i + 1, j)]) for (i, j) in pos
    ]
    out: list[LaxMatrix] = []
    vals = [0] * count

    def rec(k: int, acc: int) -> None:
        if k == count:
            out.append(LaxMatrix(n, acc))
            return
        low = 0
        if inner[k] is not None:
            a, b = inner[k]
            low = vals[a] if vals[a] >= vals[b] else vals[b]
        if low == 0:
            vals[k] = 0
            rec(k + 1, acc << 1)
        vals[k] = 1
        rec(k + 1, (acc << 1) | 1)

    rec(0, 0)
    return tuple(out)


def _ballot_rule_degenerate(r):
    """Some i < n has r(i) = r(i+1) >= i+1 and no p < i has r(p) = i."""
    return any(
        r[i] == r[i + 1] >= i + 1 and i not in r[:i] for i in range(len(r) - 1)
    )


def _ballot_leaves_one_at_a_time(n, nondegenerate):
    """Oracle for ``catalan._ballot_leaves``: the whole ballot walk on one
    explicit stack, one leaf per stack pop, with no table of suffixes."""
    idx = interval_index(n)
    count = len(idx)
    full = (1 << count) - 1
    # zero_masks[i][r - i]: the bits of (i, i+1) ... (i, r)
    zero_masks = []
    for i in range(n + 1):
        row = [0]
        for j in range(i + 1, n + 1):
            row.append(row[-1] | 1 << (count - 1 - idx[(i, j)]))
        zero_masks.append(row)
    # (i, r(i-1), zeros so far, bit v set when some p < i has r(p) = v)
    stack = [(0, 0, 0, 0)]
    while stack:
        i, prev, zeros, hit = stack.pop()
        if i > n:
            yield full & ~zeros
            continue
        masks = zero_masks[i]
        for r in range(max(i, prev), n + 1):
            if nondegenerate and r == prev >= i > 0 and not hit >> (i - 1) & 1:
                continue
            stack.append((i + 1, r, zeros | masks[r - i], hit | 1 << r))


@pytest.mark.parametrize("nondegenerate", [False, True])
@pytest.mark.parametrize("n", range(13))
def test_ballot_walk_chunks_hold_the_leaves_of_the_one_at_a_time_walk(n, nondegenerate):
    chunks = catalan._ballot_leaves(n, nondegenerate)
    assert sorted(comp ^ z for comp, table in chunks for z in table) == sorted(
        _ballot_leaves_one_at_a_time(n, nondegenerate)
    )


@pytest.mark.parametrize("nondegenerate", [False, True])
@pytest.mark.parametrize("n", range(13))
def test_counts_equal_the_leaves_of_the_one_at_a_time_walk(n, nondegenerate):
    count = nondegenerate_count if nondegenerate else level_count
    assert count(n) == sum(1 for _ in _ballot_leaves_one_at_a_time(n, nondegenerate))


@pytest.mark.parametrize("n", range(11))
def test_enumerate_level_matches_the_closure_law_oracle(n):
    assert enumerate_level(n) == _closure_level(n)


@pytest.mark.parametrize("n", range(11))
def test_counting_walk_matches_the_stored_levels(n):
    assert level_count(n) == len(enumerate_level(n)) == len(_closure_level(n))
    assert nondegenerate_count(n) == len(nondegenerate_level(n))


@pytest.mark.parametrize(
    "n", [*range(10), pytest.param(10, marks=pytest.mark.slow)]
)
def test_nondegenerate_level_matches_the_act_oracle(n):
    assert nondegenerate_level(n) == CatalanSet(n).nondegenerate(n)


@pytest.mark.parametrize("n", range(9))
def test_ballot_rule_on_tamari_ballot_agrees_with_the_act_oracle(n):
    cs = CatalanSet(n)
    for x in enumerate_level(n):
        degenerate = n > 0 and cs.is_degenerate(x, n)
        assert _ballot_rule_degenerate(tamari.ballot(x)) == degenerate


def test_level_two_is_exactly_the_five_tables():
    got = [x.bit_tuple() for x in enumerate_level(2)]
    assert got == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 1),
    ]


def test_level_zero_is_the_empty_table():
    assert enumerate_level(0) == (STAR,)


@pytest.mark.parametrize("n", range(7))
def test_level_counts_match_closed_form(n):
    assert len(enumerate_level(n)) == catalan_number(n + 1)


def test_enumeration_is_sorted_and_duplicate_free():
    for n in range(6):
        bits = [x.bits for x in enumerate_level(n)]
        assert bits == sorted(set(bits))


def test_closure_holds_on_every_enumerated_simplex():
    for n in range(6):
        for x in enumerate_level(n):
            for (i, j) in catalan.intervals(n):
                for k in range(i, j + 1):
                    lhs = x.entry(i, k) if i < k else 0
                    rhs = x.entry(k, j) if k < j else 0
                    assert max(lhs, rhs) <= x.entry(i, j)


def test_lax_from_bits_rejects_closure_violations():
    with pytest.raises(InvalidInputError):
        lax_from_bits(2, (1, 0, 0))
    with pytest.raises(InvalidInputError):
        lax_from_bits(2, (1, 1))


def test_lax_from_bits_rejects_a_negative_level():
    # checked before the bits are counted: level -2 would "need" 1 bit
    for n, bits in [(-1, ()), (-2, (1,))]:
        with pytest.raises(InvalidInputError, match=f"^level must be >= 0, got {n}$"):
            lax_from_bits(n, bits)


def test_act_degeneracy_on_edge():
    # s_1 of the marked edge has bits (x01, x12, x02) = (1, 0, 1)
    assert act(delta.degeneracy(1, 1), C) == lax_from_bits(2, (1, 0, 1))
    assert act(delta.degeneracy(0, 1), C) == lax_from_bits(2, (0, 1, 1))


def test_act_face_on_left_unit_shape():
    # d_1 of the left-unit 3-simplex is s_1 of the edge
    assert act(delta.face(1, 3), L) == act(delta.degeneracy(1, 1), C)


def test_act_identity_fixes_everything():
    for n in range(5):
        for x in enumerate_level(n):
            assert act(delta.identity(n), x) == x


def test_act_endpoint_mismatch():
    with pytest.raises(DomainMismatchError):
        act(delta.face(0, 2), C)


def _act_by_intervals(xi, x):
    """The pullback tested one source bit per interval of the domain: the
    oracle for the run tables of ``act``."""
    m, n = xi.domain_top, xi.codomain_top
    count_m, count_n = m * (m + 1) // 2, n * (n + 1) // 2
    idx_n = interval_index(n)
    bits = 0
    for k, (p, q) in enumerate(intervals(m)):
        a, b = xi.values[p], xi.values[q]
        if a < b and (x.bits >> (count_n - 1 - idx_n[(a, b)])) & 1:
            bits |= 1 << (count_m - 1 - k)
    return LaxMatrix(m, bits)


def _act_squares_against_the_interval_loop(top):
    """Compare ``act`` with the oracle on every map and simplex at levels
    <= top; return the number of squares compared."""
    checked = 0
    for n in range(top + 1):
        level = enumerate_level(n)
        for m in range(top + 1):
            for xi in delta.all_maps(m, n):
                for x in level:
                    assert act(xi, x) == _act_by_intervals(xi, x), (str(xi), x)
                    checked += 1
    return checked


def test_act_equals_the_interval_loop_on_every_model_square():
    assert _act_squares_against_the_interval_loop(5) == 144_599


@pytest.mark.slow
def test_act_equals_the_interval_loop_exhaustively_at_level_six():
    assert _act_squares_against_the_interval_loop(6) == 1_736_779


@given(st.data())
def test_act_equals_the_interval_loop_on_wide_levels(data):
    # 21..105 source bits, so 5..21 runs of five, the last one partial at
    # every n but 9, 10 and 14; the bits are drawn unconstrained, stray
    # bits above the level included, since the oracle reads only its own
    n = data.draw(st.integers(min_value=6, max_value=14))
    m = data.draw(st.integers(min_value=0, max_value=14))
    values = sorted(data.draw(st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1)))
    xi = delta.MonotoneMap(m, n, tuple(values))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n + 1) // 2 + 7)) - 1))
    x = LaxMatrix(n, bits)
    assert act(xi, x) == _act_by_intervals(xi, x)


def test_act_index_is_the_position_of_each_action():
    cs = CatalanSet(5)
    for n in range(6):
        for m in range(6):
            # levels hold no repeats, so this is ``cs.level(m).index``
            position = {y: k for k, y in enumerate(cs.level(m))}
            for xi in delta.all_maps(m, n):
                index = cs.act_index(xi)
                assert index == tuple(position[act(xi, x)] for x in cs.level(n)), str(xi)
                assert cs.act_index(xi) is index


@given(st.data())
def test_act_preserves_closure(data):
    n = data.draw(st.integers(min_value=0, max_value=5))
    m = data.draw(st.integers(min_value=0, max_value=6))
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
    y = act(xi, x)
    # re-validating from the bit tuple checks the closure law
    assert lax_from_bits(m, y.bit_tuple()) == y


def test_degeneracy_detector_examples():
    cs = CatalanSet(4)
    assert not cs.is_degenerate(T, 2)
    assert cs.is_degenerate(act(delta.degeneracy(0, 1), C), 2)
    assert cs.is_degenerate(LaxMatrix(1, 0), 1)  # the all-zero edge


def test_degeneracy_detector_level_bounds():
    cs = CatalanSet(3)
    with pytest.raises(LevelOutOfRangeError):
        cs.is_degenerate(STAR, 0)
    with pytest.raises(LevelOutOfRangeError):
        cs.is_degenerate(T, 4)


@pytest.mark.parametrize(
    "n,expected", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 9), (5, 21)]
)
def test_nondegenerate_counts(n, expected):
    assert nondegenerate_count(n) == expected


def test_binomial_identity_small_levels():
    for n in range(7):
        total = sum(
            math.comb(n, m) * nondegenerate_count(m) for m in range(n + 1)
        )
        assert total == len(enumerate_level(n))


def test_reference_counts():
    cats, motz = reference_counts(6)
    assert cats == (1, 2, 5, 14, 42, 132, 429)
    assert motz == (1, 1, 2, 4, 9, 21, 51)
    with pytest.raises(LevelTooLargeError):
        reference_counts(15)


def test_level_ceiling():
    with pytest.raises(LevelTooLargeError):
        enumerate_level(15)
    with pytest.raises(LevelTooLargeError):
        nondegenerate_level(15)
    with pytest.raises(LevelTooLargeError):
        nondegenerate_level(-1)
    with pytest.raises(LevelTooLargeError):
        level_count(15)
    with pytest.raises(LevelTooLargeError):
        nondegenerate_count(-1)
    with pytest.raises(LevelTooLargeError):
        CatalanSet(15)


def test_catalan_set_level_guard():
    cs = CatalanSet(3)
    with pytest.raises(LevelOutOfRangeError):
        cs.level(4)
    with pytest.raises(LevelOutOfRangeError):
        cs.act(delta.face(0, 4), lax_from_bits(4, [0] * 10))


def test_export_shape_and_determinism():
    doc = level_export(3)
    assert doc["n"] == 3
    assert doc["count"] == 14
    assert doc["simplices"][0] == [0, 0, 0, 0, 0, 0]
    assert doc["simplices"][-1] == [1, 1, 1, 1, 1, 1]
    assert len(doc["nondegenerate"]) == 14
    assert sum(doc["nondegenerate"]) == 4
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        level_export(3), sort_keys=True
    )


def test_entry_and_bit_tuple_agree():
    for x in enumerate_level(3):
        bits = x.bit_tuple()
        for k, (i, j) in enumerate(catalan.intervals(3)):
            assert bits[k] == x.entry(i, j)
