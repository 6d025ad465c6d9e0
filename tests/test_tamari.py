import pytest

from catalan_sset import cli, delta, tamari
from catalan_sset.catalan import LaxMatrix, act, catalan_number, enumerate_level, lax_from_bits
from catalan_sset.tamari import (
    OrderProbeReport,
    ballot,
    dyck_count,
    dyck_crosscheck,
    inclusion_leq,
    matrix_to_word,
    order_probe,
    rotation_covers,
    upward_closure,
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
    # a negative semilength has no words
    for s in range(-2, 14):
        assert dyck_count(s) == _dyck_count_one_at_a_time(s)


def _recursive_dyck_words(semilength):
    """All balanced words, by recursive backtracking over prefixes ('U' first)."""
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


def test_path_count_counts_the_words():
    for s in range(12):
        assert dyck_count(s) == len(_recursive_dyck_words(s))


def test_words_are_balanced_with_prefix_property():
    for w in _recursive_dyck_words(5):
        height = 0
        for ch in w:
            height += 1 if ch == "U" else -1
            assert height >= 0
        assert height == 0


def test_ballot_examples():
    assert ballot(lax_from_bits(1, (1,))) == (0, 1)
    assert ballot(lax_from_bits(1, (0,))) == (1, 1)
    assert ballot(lax_from_bits(2, (1, 0, 1))) == (0, 2, 2)


def test_encoding_is_a_bijection_onto_words():
    for n in range(6):
        words = {matrix_to_word(x) for x in enumerate_level(n)}
        assert len(words) == len(enumerate_level(n))
        assert words == set(_recursive_dyck_words(n + 1))


def test_rotation_cover_example():
    assert rotation_covers("URUR".replace("R", "D")) == ["UUDD"]
    assert rotation_covers("UUDD") == []


def test_rotation_cover_count_semilength_three():
    # the order on 5 elements has 5 covering pairs
    total = sum(len(rotation_covers(w)) for w in _recursive_dyck_words(3))
    assert total == 5


def test_rotation_order_has_bottom_and_top():
    for s in (2, 3, 4):
        words = _recursive_dyck_words(s)
        ups = upward_closure(words)
        bottoms = [w for w in words if ups[w] == frozenset(words)]
        tops = [w for w in words if not rotation_covers(w)]
        assert len(bottoms) == 1
        assert len(tops) == 1


def _bfs_upward_closure(words):
    """Oracle for ``upward_closure``: one breadth-first search per word,
    sharing nothing between words."""
    ups = {}
    for w in words:
        seen = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for v in frontier:
                for u in rotation_covers(v):
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        ups[w] = frozenset(seen)
    return ups


def test_upward_closure_equals_one_search_per_word():
    for s in range(8):
        words = _recursive_dyck_words(s)
        assert upward_closure(words) == _bfs_upward_closure(words)
    # a closure built for a cover is not returned unless asked for
    assert upward_closure(["UDUD"]) == {"UDUD": frozenset({"UDUD", "UUDD"})}


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


def _order_probe_per_pair(n):
    """Oracle for ``order_probe``: both orders read from full-level word
    tables, and every map acting afresh on both simplices of every pair."""

    def table(m):
        words = {x: matrix_to_word(x) for x in enumerate_level(m)}
        return words, _bfs_upward_closure(set(words.values()))

    def rot_leq(tbl, a, b):
        words, ups = tbl
        return words[b] in ups[words[a]]

    here = enumerate_level(n)
    t_here, t_down, t_up = table(n), table(n - 1) if n >= 1 else None, table(n + 1)
    maps = [(f"d_{i}", delta.face(i, n), t_down) for i in range(n + 1) if n >= 1]
    maps += [(f"s_{i}", delta.degeneracy(i, n), t_up) for i in range(n + 1)]
    inclusion_bad, rotation_bad = [], []
    for x in here:
        for y in here:
            incl, rot = inclusion_leq(x, y), rot_leq(t_here, x, y)
            if not (incl or rot):
                continue
            for label, xi, tbl in maps:
                fx, fy = act(xi, x), act(xi, y)
                if incl and not inclusion_leq(fx, fy):
                    inclusion_bad.append((label, x, y))
                if rot and not rot_leq(tbl, fx, fy):
                    rotation_bad.append((label, x, y))
    return OrderProbeReport(n, tuple(inclusion_bad), tuple(rotation_bad))


@pytest.mark.parametrize("n", range(6))
def test_order_probe_equals_the_per_pair_probe(n):
    assert order_probe(n) == _order_probe_per_pair(n)


def test_probe_reports_a_map_that_breaks_inclusion(monkeypatch, capsys):
    """No face or degeneracy breaks containment, so a stand-in action does:
    s_0 sends the all-ones simplex to the all-zero one.  The all-ones simplex
    lies below every simplex, so each pair (ones, y) whose image of y is not
    the all-zero simplex is a violation."""
    here = enumerate_level(2)
    ones, zero = max(here, key=lambda x: x.bits), min(here, key=lambda x: x.bits)

    def broken_act(xi, x):
        y = act(xi, x)
        return LaxMatrix(y.n, 0) if xi == delta.degeneracy(0, 2) and x == ones else y

    monkeypatch.setattr(tamari, "act", broken_act)
    report = order_probe(2)
    assert not report.inclusion_ok
    assert report.inclusion_violations == tuple(
        ("s_0", ones, y) for y in here if y not in (ones, zero)
    )
    assert "VIOLATED (3 pairs)" in report.summary()
    assert cli.main(["order-probe", "--n", "2"]) == 1
    assert "VIOLATED (3 pairs)" in capsys.readouterr().out
