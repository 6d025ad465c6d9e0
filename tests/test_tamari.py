import gc

import pytest

from catalan_sset import delta
from catalan_sset.catalan import act, catalan_number, enumerate_level, lax_from_bits
from catalan_sset.tamari import (
    ballot,
    ballot_to_word,
    dyck_count,
    dyck_crosscheck,
    dyck_words,
    inclusion_leq,
    matrix_to_word,
    order_probe,
    rotation_covers,
    upward_closure,
    word_to_ballot,
)


@pytest.mark.parametrize("n,expected", [(0, 1), (2, 5), (6, 429)])
def test_path_counts(n, expected):
    assert dyck_crosscheck(n) == expected


def test_path_count_matches_closed_form():
    for s in range(1, 9):
        assert dyck_count(s) == catalan_number(s)


def _dyck_count_one_at_a_time(semilength):
    """Oracle for ``dyck_count``: the whole balanced-word walk on one
    explicit stack, one leaf per stack pop, with no table of completions."""
    count = 0
    stack = [(0, 0)]
    while stack:
        ups, downs = stack.pop()
        if downs == semilength:
            count += 1
            continue
        if downs < ups:
            stack.append((ups, downs + 1))
        if ups < semilength:
            stack.append((ups + 1, downs))
    return count


def test_path_count_equals_the_one_at_a_time_walk():
    for s in range(14):
        assert dyck_count(s) == _dyck_count_one_at_a_time(s)


def test_path_count_counts_the_words():
    for s in range(12):
        assert dyck_count(s) == len(dyck_words(s))


def _recursive_dyck_words(semilength):
    """Recursive backtracking over prefixes, 'U' tried first: the order oracle."""
    out, word = [], []

    def rec(ups, downs):
        if ups == semilength and downs == semilength:
            out.append("".join(word))
            return
        if ups < semilength:
            word.append("U")
            rec(ups + 1, downs)
            word.pop()
        if downs < ups:
            word.append("D")
            rec(ups, downs + 1)
            word.pop()

    rec(0, 0)
    return out


def test_dyck_words_keep_the_recursive_order():
    for s in range(9):
        assert dyck_words(s) == _recursive_dyck_words(s)


def test_dyck_words_leave_no_cyclic_garbage():
    gc.collect()
    dyck_words(8)
    assert gc.collect() == 0


def test_words_are_balanced_with_prefix_property():
    for w in dyck_words(5):
        height = 0
        for ch in w:
            height += 1 if ch == "U" else -1
            assert height >= 0
        assert height == 0


def test_ballot_examples():
    assert ballot(lax_from_bits(1, (1,))) == (0, 1)
    assert ballot(lax_from_bits(1, (0,))) == (1, 1)
    assert ballot(lax_from_bits(2, (1, 0, 1))) == (0, 2, 2)


def test_word_round_trip_through_ballot():
    for n in range(5):
        for x in enumerate_level(n):
            w = matrix_to_word(x)
            assert ballot_to_word(word_to_ballot(w)) == w


def test_encoding_is_a_bijection_onto_words():
    for n in range(6):
        words = {matrix_to_word(x) for x in enumerate_level(n)}
        assert len(words) == len(enumerate_level(n))
        assert words == set(dyck_words(n + 1))


def test_rotation_cover_example():
    assert rotation_covers("URUR".replace("R", "D")) == ["UUDD"]
    assert rotation_covers("UUDD") == []


def test_rotation_cover_count_semilength_three():
    # the order on 5 elements has 5 covering pairs
    total = sum(len(rotation_covers(w)) for w in dyck_words(3))
    assert total == 5


def test_rotation_order_has_bottom_and_top():
    for s in (2, 3, 4):
        words = dyck_words(s)
        ups = upward_closure(words)
        bottoms = [w for w in words if ups[w] == frozenset(words)]
        tops = [w for w in words if not rotation_covers(w)]
        assert len(bottoms) == 1
        assert len(tops) == 1


def test_inclusion_has_expected_extremes():
    for n in range(1, 5):
        level = enumerate_level(n)
        ones = max(level, key=lambda x: x.bits)
        zeros = min(level, key=lambda x: x.bits)
        assert all(inclusion_leq(ones, x) for x in level)
        assert all(inclusion_leq(x, zeros) for x in level)


def test_probe_level_one_preserves_both_orders():
    report = order_probe(1)
    assert report.inclusion_ok
    assert report.rotation_ok


def test_probe_level_three_breaks_rotation_under_a_face():
    report = order_probe(3)
    assert report.inclusion_ok
    assert not report.rotation_ok
    assert any(label.startswith("d_") for (label, _, _) in report.rotation_violations)


def test_probe_summary_mentions_the_verdicts():
    text = order_probe(2).summary()
    assert "inclusion order" in text and "rotation order" in text


def test_inclusion_preserved_by_every_map_up_to_level_four():
    for n in range(5):
        level = enumerate_level(n)
        comparable = [
            (x, y) for x in level for y in level if inclusion_leq(x, y)
        ]
        for m in range(5):
            for xi in delta.all_maps(m, n):
                for x, y in comparable:
                    assert inclusion_leq(act(xi, x), act(xi, y))
