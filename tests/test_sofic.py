from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import cayley_graph, serialize_graph
from soficlab.errors import UnknownSymbol
from soficlab.sofic import (
    Word,
    defect,
    format_words_text,
    parse_words_text,
    random_permutation_model,
    reduced_words,
    sofic_report,
    word_action,
)
from soficlab import groups

from conftest import conjugate_graph, cycle_graph, random_simple_graph


def cayley_relation_words(table, g, max_len):
    """All words up to max_len over the graph symbols, flagged by whether they
    multiply to the identity in the group (test-side truth)."""
    identity = next(e for e in range(table.shape[0]) if np.array_equal(table[e], np.arange(table.shape[0])))
    elem_of_symbol = {s: int(s[1:]) for s in g.gens.symbols}  # preset naming g<idx>
    words = [Word((), True)]
    for length in range(1, max_len + 1):
        for letters in iter_product(g.gens.symbols, repeat=length):
            value = identity
            for s in letters:
                value = int(table[value, elem_of_symbol[s]])
            words.append(Word(letters, value == identity))
    return words


def test_word_action_cancellation():
    g = cycle_graph(6)
    act = word_action(g, Word(("a", "A"), True))
    assert act.tolist() == list(range(6))


def test_word_action_double_shift():
    g = cycle_graph(6)
    act = word_action(g, Word(("a", "a"), False))
    assert act.tolist() == [2, 3, 4, 5, 0, 1]


def test_word_action_empty():
    g = cycle_graph(6)
    assert word_action(g, Word((), True)).tolist() == list(range(6))


def test_word_action_rightmost_first():
    # on a nonabelian graph the evaluation order matters: s1 s2 . x applies s2 first
    g = cayley_graph(groups.symmetric_table(3), groups.preset_group("s3")[1])
    s1, s2 = g.gens.symbols[0], g.gens.symbols[1]
    composed = word_action(g, Word((s1, s2), False))
    assert composed.tolist() == g.action(s1)[g.action(s2)].tolist()


def test_word_action_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        word_action(cycle_graph(6), Word(("zz",), True))


def test_defect_relation_holds_in_quotient():
    g = cycle_graph(6)
    assert defect(g, Word(("a",) * 6, True)) == 0.0


def test_defect_false_relation_of_free_group():
    # C4 as an approximation of the integers: a^4 fixes everything although
    # a^4 is not the identity in Z
    g = cycle_graph(4)
    assert defect(g, Word(("a",) * 4, False)) == 1.0


def test_defect_free_word_acts_freely():
    g = cycle_graph(6)
    assert defect(g, Word(("a",), False)) == 0.0


def test_sofic_report_cayley_relations_all_zero():
    for name in ("z6", "s3", "d4"):
        table, gens = groups.preset_group(name)
        g = cayley_graph(table, gens)
        report = sofic_report(g, cayley_relation_words(table, g, 3))
        assert report.max_defect == 0.0


def test_sofic_report_requires_words():
    with pytest.raises(ValueError):
        sofic_report(cycle_graph(6), [])


def test_empty_word_contributes_zero():
    report = sofic_report(cycle_graph(6), [Word((), True)])
    assert report.max_defect == 0.0


def test_random_model_n1_is_loops():
    g = random_permutation_model(1, 3, seed=5)
    assert g.n == 1
    assert all(p.tolist() == [0] for p in g.actions)


@pytest.mark.parametrize("n, pairs", [(0, 2), (5, -1)])
def test_random_model_rejects_out_of_range_sizes(n, pairs):
    with pytest.raises(ValueError):
        random_permutation_model(n, pairs, seed=0)


def test_random_model_deterministic():
    a = random_permutation_model(500, 2, seed=42)
    b = random_permutation_model(500, 2, seed=42)
    assert serialize_graph(a) == serialize_graph(b)
    c = random_permutation_model(500, 2, seed=43)
    assert serialize_graph(a) != serialize_graph(c)


def test_reduced_words_count():
    g = random_permutation_model(10, 2, seed=0)
    words = reduced_words(g.gens, 4)
    assert len(words) == 4 + 12 + 36 + 108
    for w in words:
        for x, y in zip(w.letters, w.letters[1:]):
            assert g.gens.inverse_symbol(x) != y


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), max_size=8))
def test_free_cancellation(indices):
    g = random_permutation_model(30, 2, seed=9)
    letters = tuple(g.gens.symbols[i] for i in indices)
    inverse_reversed = tuple(g.gens.inverse_symbol(s) for s in reversed(letters))
    act = word_action(g, Word(letters + inverse_reversed, True))
    assert act.tolist() == list(range(30))


def test_defect_invariant_under_conjugation(rng):
    g = random_permutation_model(60, 2, seed=1)
    words = reduced_words(g.gens, 3)[:25]
    sigma = rng.permutation(60)
    h = conjugate_graph(g, sigma)
    for w in words:
        assert defect(g, w) == defect(h, w)


def test_cayley_fixed_points_all_or_none(rng):
    # left translations are free: a word fixes everything or nothing
    for name in ("z6", "s3", "d5"):
        table, gens = groups.preset_group(name)
        g = cayley_graph(table, gens)
        for w in reduced_words(g.gens, 3):
            act = word_action(g, w)
            fixed = int(np.count_nonzero(act == np.arange(g.n)))
            assert fixed in (0, g.n)


def test_words_text_round_trip():
    text = "a A a\n! a a\n()\n! ()\n# comment\n"
    words = parse_words_text(text)
    assert words == [
        Word(("a", "A", "a"), True),
        Word(("a", "a"), False),
        Word((), True),
        Word((), False),
    ]
    assert parse_words_text(format_words_text(words)) == words


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("ab!#() \t\n\r\x0b\x1c\u2028é")), max_size=60))
def test_words_text_fuzz_parses_to_a_fixed_point(text):
    # every line is a word, a comment or blank: parsing never fails, and
    # formatting the words and parsing again gives the same words
    words = parse_words_text(text)
    for w in words:
        assert all(letter and not any(ch.isspace() for ch in letter) for letter in w.letters)
        assert w.letters != ("()",)
    assert parse_words_text(format_words_text(words)) == words
