from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpflag.weyl import (WeylElement, concat_is_reduced, is_reduced, length,
                         longest_element, reduced_word)

from oracles import all_reduced_words


def all_elements(n):
    return [WeylElement(p) for p in permutations(range(1, n + 1))]


class TestLength:
    def test_identity(self):
        assert length(WeylElement.identity(4)) == 0

    def test_simple_reflection_has_length_one(self):
        assert length(WeylElement.simple(1, 3)) == 1

    def test_longest_element_s4(self):
        assert length(WeylElement((4, 3, 2, 1))) == 6


class TestLongestElement:
    def test_empty_parabolic(self):
        assert longest_element((), 4) == WeylElement.identity(4)

    def test_single_letter(self):
        assert longest_element((1,), 3).oneline == (2, 1, 3)

    def test_full_set_is_reversal(self):
        assert longest_element((1, 2), 3).oneline == (3, 2, 1)

    def test_disconnected_runs(self):
        # letters {1, 3} in S_4 reverse positions 1-2 and 3-4 separately
        assert longest_element((1, 3), 4).oneline == (2, 1, 4, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_is_involution(self, n):
        from itertools import combinations
        letters = range(1, n)
        for r in range(n):
            for J in combinations(letters, r):
                w = longest_element(J, n)
                assert w * w == WeylElement.identity(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_is_longest_in_parabolic(self, n):
        # brute force: no element supported on J is longer
        from itertools import combinations
        for r in range(n):
            for J in combinations(range(1, n), r):
                wj = longest_element(J, n)
                best = max((w for w in all_elements(n)
                            if all_letters_in(w, set(J))), key=length)
                assert length(wj) == length(best)


def all_letters_in(w, J):
    return set(reduced_word(w)) <= J


class TestReducedWord:
    def test_identity_gives_empty_word(self):
        assert reduced_word(WeylElement.identity(3)) == ()

    def test_longest_element_s3_is_lex_min(self):
        w0 = WeylElement((3, 2, 1))
        words = all_reduced_words(w0)
        assert words == {(1, 2, 1), (2, 1, 2)}
        assert reduced_word(w0) == min(words)

    def test_unique_word_case(self):
        w = WeylElement((2, 3, 1))  # s1 s2
        assert all_reduced_words(w) == {(1, 2)}
        assert reduced_word(w) == (1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_multiplies_back_exhaustively(self, n):
        for w in all_elements(n):
            word = reduced_word(w)
            assert WeylElement.from_word(word, n) == w
            assert len(word) == length(w)

    @pytest.mark.parametrize("n", [3, 4])
    def test_lexicographically_smallest_exhaustively(self, n):
        for w in all_elements(n):
            assert reduced_word(w) == min(all_reduced_words(w))

    @given(st.permutations(list(range(1, 6))))
    def test_word_is_reduced_s5(self, oneline):
        w = WeylElement(tuple(oneline))
        assert is_reduced(reduced_word(w), 5)


class TestConcatIsReduced:
    def test_same_letter_twice_is_not_reduced(self):
        s1 = WeylElement.simple(1, 3)
        assert not concat_is_reduced(s1, s1)

    def test_identity_concat_always_reduced(self):
        e = WeylElement.identity(4)
        for w in all_elements(4):
            assert concat_is_reduced(e, w)
            assert concat_is_reduced(w, e)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_coset_factorization_lengths_add(self, n):
        # length(w0) = length(w0 * w0^J) + length(w0^J) for every J, up
        # to the interface cap: split_cell relies on it without checking
        from itertools import combinations
        w0 = longest_element(range(1, n), n)
        for r in range(n):
            for J in combinations(range(1, n), r):
                w0j = longest_element(J, n)
                assert concat_is_reduced(w0 * w0j, w0j)
                assert length(w0) == length(w0 * w0j) + length(w0j)


class TestWeylElementBasics:
    def test_invalid_oneline_rejected(self):
        with pytest.raises(ValueError):
            WeylElement((1, 1, 2))

    def test_inverse(self):
        w = WeylElement((2, 3, 1))
        assert w * w.inverse() == WeylElement.identity(3)

    def test_simple_out_of_range(self):
        with pytest.raises(ValueError):
            WeylElement.simple(3, 3)

    @pytest.mark.parametrize("word,bad", [((0,), 0), ((1, 3), 3), ((2, 4, 0), 4),
                                          ((1, 2, 1, -1), -1)])
    def test_from_word_rejects_out_of_range_letters(self, word, bad):
        # the first bad letter in word order is the one reported
        with pytest.raises(ValueError) as info:
            WeylElement.from_word(word, 3)
        assert str(info.value) == f"letter out of range 1..2: {bad}"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_from_word_is_product_of_simple_reflections(self, n):
        word = [i % (n - 1) + 1 for i in range(3 * n)] if n > 1 else []
        expected = WeylElement.identity(n)
        for i in word:
            expected = expected * WeylElement.simple(i, n)
        assert WeylElement.from_word(word, n) == expected
