import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpflag import (LusztigParams, MinorWitness, NotInCell, RationalMatrix,
                    evaluate_params, extract_params, is_g_positive,
                    is_totally_positive_unitriangular, relevant_minor_pairs,
                    sample_g_positive, sample_positive, sample_torus_matrix)
from tpflag.prng import SplitMix64, derive_seed
from tpflag.totpos import _evaluate_rows, _window_levels
from tpflag.weyl import WeylElement, longest_element, reduced_word

from oracles import (all_reduced_words, brute_force_g_positive,
                     brute_force_unitriangular, corner_pairs, elementary,
                     factorization_positive, first_nonpositive, initial_pairs,
                     nonvanishing_pairs, permutation_sum_minor, size_colex)

positive_fractions = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)


SIZES_AND_SIGNS = [(n, sign) for n in range(2, 7) for sign in ("lower", "upper")]


def w0(n):
    return longest_element(range(1, n), n)


# up to 12 (letter seed, parameter) pairs; letter_word reads them as a
# word of in-range letters for any n, reduced or not
letter_draws = st.lists(st.tuples(st.integers(0, 59), positive_fractions), max_size=12)


def letter_word(draws, n):
    return (tuple(1 + x % (n - 1) for x, _ in draws), tuple(a for _, a in draws))


def cell_point(params, sign, n):
    """Product of elementary factors along the canonical word of w0;
    unlike evaluate_params it accepts zero and negative parameters."""
    out = RationalMatrix.identity(n)
    for i, a in zip(reduced_word(w0(n)), params):
        out = out @ elementary(i, a, sign, n)
    return out


def spoiled_params(n, sign, seed, how):
    """Positive parameters on w0 with one entry set to zero or negated."""
    params = list(sample_positive(w0(n), sign, seed).params)
    at = SplitMix64(derive_seed(seed, 7)).randint(len(params))
    params[at] = F(0) if how == "zero" else -params[at]
    return params


def spoiled_g(n, seed, side, how):
    """upper * torus * lower with the factor on ``side`` spoiled; the
    Gaussian factors are unique, so g is not totally positive."""
    factors = []
    for k, sign in enumerate(("upper", "lower")):
        seed_k = derive_seed(seed, 2 * k)
        params = (spoiled_params(n, sign, seed_k, how) if sign == side
                  else sample_positive(w0(n), sign, seed_k).params)
        factors.append(cell_point(params, sign, n))
    return factors[0] @ sample_torus_matrix(n, derive_seed(seed, 1)) @ factors[1]


def interval(start, k):
    return tuple(range(start, start + k))


def first_nonpositive_g(g):
    """The oracle verdict of is_g_positive on an element of determinant 1,
    which is checked first: a scan of the initial minors below size n."""
    assert g.det() == 1
    return first_nonpositive(g, {p for p in initial_pairs(g.n) if len(p[0]) < g.n})


def with_minor(m, rows, cols, value):
    """m with the entry at the last row and column of the window moved so
    that the minor on the window equals ``value``; every minor that does
    not contain that entry keeps its value."""
    entries = [list(row) for row in m.rows]
    cofactor = m.minor(rows[:-1], cols[:-1]) if len(rows) > 1 else 1
    entries[rows[-1] - 1][cols[-1] - 1] += (value - m.minor(rows, cols)) / cofactor
    return RationalMatrix.from_rows(entries)


def assert_witness_is_sound(verdict, m):
    """A negative verdict names a minor <= 0 whose value is recomputed
    independently by a permutation sum."""
    if verdict.member:
        return
    w = verdict.witness
    assert w.value <= 0
    assert w.value == permutation_sum_minor(m, w.rows, w.cols)


def random_weyl(rng, n):
    oneline = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        oneline[i], oneline[j] = oneline[j], oneline[i]
    return WeylElement(tuple(oneline))


class TestEvaluateParams:
    def test_empty_word(self):
        p = LusztigParams((), ())
        assert evaluate_params(p, "lower", 3) == RationalMatrix.identity(3)

    def test_sl2_lower_generator(self):
        p = LusztigParams((1,), (F(5, 3),))
        assert evaluate_params(p, "lower", 2) == \
            RationalMatrix.from_rows([[1, 0], [F(5, 3), 1]])

    @given(positive_fractions, positive_fractions, positive_fractions)
    def test_sl3_word_121_closed_form(self, p, q, r):
        params = LusztigParams((1, 2, 1), (p, q, r))
        got = evaluate_params(params, "lower", 3)
        expected = RationalMatrix.from_rows([[1, 0, 0], [p + r, 1, 0], [r * q, q, 1]])
        assert got == expected
        # a = p+r, b = q, c = rq has ab - c = pq > 0 automatically
        assert got.minor((2, 3), (1, 2)) == p * q

    @given(letter_draws)
    def test_matches_direct_elementary_product(self, draws):
        for n, sign in SIZES_AND_SIGNS:
            word, params = letter_word(draws, n)
            direct = RationalMatrix.identity(n)
            for i, a in zip(word, params):
                direct = direct @ elementary(i, a, sign, n)
            assert evaluate_params(LusztigParams(word, params), sign, n) == direct

    @given(letter_draws)
    def test_float_rows_match_exact(self, draws):
        for n, sign in SIZES_AND_SIGNS:
            word, params = letter_word(draws, n)
            exact = _evaluate_rows(word, params, sign, n, F)
            approx = _evaluate_rows(word, params, sign, n, float)
            scale = max(1, max(abs(x) for row in exact for x in row))
            assert all(abs(a - float(x)) <= 1e-12 * scale
                       for ra, rx in zip(approx, exact) for a, x in zip(ra, rx))

    @pytest.mark.parametrize("num", [F, float])
    def test_letter_out_of_range_in_both_modes(self, num):
        for n, sign in SIZES_AND_SIGNS:
            for bad in (0, n):
                with pytest.raises(ValueError, match="letter out of range"):
                    _evaluate_rows((1, bad), (num(1), num(2)), sign, n, num)

    def test_upper_is_transpose_of_reversed_lower(self):
        params = LusztigParams((1, 2, 1), (F(2), F(3), F(5)))
        rev = LusztigParams((1, 2, 1), (F(5), F(3), F(2)))
        upper = evaluate_params(params, "upper", 3)
        assert upper == evaluate_params(rev, "lower", 3).transpose()

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate_params(LusztigParams((3,), (F(1),)), "lower", 3)


class TestExtractParams:
    def test_identity_empty(self):
        e = WeylElement.identity(3)
        got = extract_params(RationalMatrix.identity(3), e, "lower")
        assert got.word == () and got.params == ()

    def test_worked_sl3_instance(self):
        u = RationalMatrix.from_rows([[1, 0, 0], [3, 1, 0], [2, 2, 1]])
        got = extract_params(u, w0(3), "lower")
        assert got.word == (1, 2, 1)
        assert got.params == (F(2), F(2), F(1))
        assert evaluate_params(got, "lower", 3) == u

    def test_not_in_cell_negative_parameter(self):
        u = RationalMatrix.from_rows([[1, 0, 0], [1, 1, 0], [2, 1, 1]])
        with pytest.raises(NotInCell):
            extract_params(u, w0(3), "lower")

    def test_not_in_cell_boundary(self):
        # (3,1) entry zero forces a zero parameter on the full word
        u = RationalMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
        with pytest.raises(NotInCell):
            extract_params(u, w0(3), "lower")

    def test_smaller_cell_membership_rejected(self):
        # u in the cell of s1 only; asking for s1*s2 must fail
        u = evaluate_params(LusztigParams((1,), (F(2),)), "lower", 3)
        with pytest.raises(NotInCell):
            extract_params(u, WeylElement((2, 3, 1)), "lower")

    def test_explicit_non_canonical_word(self):
        word = (2, 1, 2)
        params = LusztigParams(word, (F(1, 2), F(3), F(4)))
        u = evaluate_params(params, "lower", 3)
        got = extract_params(u, w0(3), "lower", word=word)
        assert got.params == params.params

    def test_wrong_word_rejected(self):
        with pytest.raises(ValueError):
            extract_params(RationalMatrix.identity(3), w0(3), "lower",
                           word=(1, 1, 1))

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("sign", ["lower", "upper"])
    def test_bad_words_keep_their_messages(self, sign, exact):
        # out-of-range letters are reported first, in the order given,
        # on both sides; the upper side peels along the reversed word
        for n in range(2, 7):
            u = evaluate_params(sample_positive(w0(n), sign, n), sign, n)
            u = u if exact else u.to_float()
            canon = reduced_word(w0(n))
            bad = {
                (0,): f"letter out of range 1..{n - 1}: 0",
                canon[:-1] + (n,): f"letter out of range 1..{n - 1}: {n}",
                (1, n, 0): f"letter out of range 1..{n - 1}: {n}",
                (1, 1) + canon[2:]: "word is not a reduced word for w",
                canon + (1,): "word is not a reduced word for w",
                canon[:-1]: "word is not a reduced word for w",
                (1,) * max(2, len(canon)): "word is not a reduced word for w",
            }
            for word, message in bad.items():
                with pytest.raises(ValueError) as info:
                    extract_params(u, w0(n), sign, word=word, atol=1e-8)
                assert str(info.value) == message

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("sign", ["lower", "upper"])
    def test_reduced_word_of_another_element_rejected(self, sign, exact):
        rng = SplitMix64(31)
        for n in range(3, 7):
            for _ in range(6):
                w = random_weyl(rng, n)
                other = random_weyl(rng, n)
                if other == w:
                    continue
                u = evaluate_params(sample_positive(w, sign, n), sign, n)
                with pytest.raises(ValueError, match="^word is not a reduced "
                                                     "word for w$"):
                    extract_params(u if exact else u.to_float(), w, sign,
                                   word=reduced_word(other), atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_float_upper_matches_exact(self, n):
        atol = 1e-8
        rng = SplitMix64(derive_seed(n, 5))
        for trial in range(6):
            w = w0(n) if trial % 2 else random_weyl(rng, n)
            params = sample_positive(w, "upper", derive_seed(trial, n))
            u = evaluate_params(params, "upper", n)
            assert extract_params(u, w, "upper") == params
            got = extract_params(u.to_float(), w, "upper", atol=atol)
            assert got.word == params.word
            assert all(abs(a - float(b)) <= atol
                       for a, b in zip(got.params, params.params))

    @pytest.mark.parametrize("n,word", [
        (4, (2, 1, 3, 2, 1, 3)),
        (5, (2, 1, 3, 2, 4, 3, 2, 1, 2, 4)),
    ])
    def test_coset_concatenation_words(self, n, word):
        # words arising from parabolic splits whose entry systems are not
        # triangular; regression anchors for the minor-ratio peeling
        rng = SplitMix64(2718)
        params = LusztigParams(word, tuple(rng.fraction(5) for _ in word))
        u = evaluate_params(params, "lower", n)
        assert extract_params(u, w0(n), "lower", word=word) == params

    @pytest.mark.parametrize("sign", ["lower", "upper"])
    def test_every_reduced_word_of_w0_s4(self, sign):
        for word in sorted(all_reduced_words(w0(4))):
            rng = SplitMix64(hash(word) & (2 ** 64 - 1))
            params = LusztigParams(word, tuple(rng.fraction(5) for _ in word))
            u = evaluate_params(params, sign, 4)
            assert extract_params(u, w0(4), sign, word=word) == params

    @given(st.integers(0, 2 ** 32), st.integers(3, 5))
    def test_leading_column_wedge_support(self, seed, n):
        # the peeling pivot rests on this: for u in the cell of w, the
        # minor on rows R and columns {1..k} is nonzero at R = sorted
        # w({1..k}) and zero whenever R is not dominated by it entrywise
        from itertools import combinations
        rng = SplitMix64(seed)
        w = random_weyl(rng, n)
        u = evaluate_params(sample_positive(w, "lower", derive_seed(seed, 1)),
                            "lower", n)
        for k in range(1, n):
            extreme = tuple(sorted(w.oneline[:k]))
            cols = tuple(range(1, k + 1))
            assert u.minor(extreme, cols) != 0
            for rows in combinations(range(1, n + 1), k):
                if any(r > e for r, e in zip(rows, extreme)):
                    assert u.minor(rows, cols) == 0

    @given(st.integers(0, 2 ** 32), st.integers(2, 5))
    def test_round_trip_random_cells(self, seed, n):
        rng = SplitMix64(seed)
        w = random_weyl(rng, n)
        params = sample_positive(w, "lower", derive_seed(seed, 1))
        u = evaluate_params(params, "lower", n)
        assert extract_params(u, w, "lower") == params

    @given(st.integers(0, 2 ** 32))
    def test_round_trip_upper(self, seed):
        w = w0(4)
        params = sample_positive(w, "upper", seed)
        u = evaluate_params(params, "upper", 4)
        assert extract_params(u, w, "upper") == params


class TestUnitriangularMembership:
    def test_sl2_member(self):
        u = RationalMatrix.from_rows([[1, 0], [1, 1]])
        assert is_totally_positive_unitriangular(u, "lower").member

    def test_sl3_witness(self):
        u = RationalMatrix.from_rows([[1, 0, 0], [1, 1, 0], [2, 1, 1]])
        verdict = is_totally_positive_unitriangular(u, "lower")
        assert not verdict.member
        assert verdict.witness.rows == (2, 3)
        assert verdict.witness.cols == (1, 2)
        assert verdict.witness.value == -1

    def test_identity_is_boundary_not_member(self):
        verdict = is_totally_positive_unitriangular(RationalMatrix.identity(3),
                                                    "lower")
        assert not verdict.member
        assert verdict.witness.rows == (2,) and verdict.witness.cols == (1,)

    def test_non_triangular_rejected(self):
        with pytest.raises(ValueError):
            is_totally_positive_unitriangular(
                RationalMatrix.from_rows([[1, 1], [1, 1]]), "lower")

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("sign", ["lower", "upper"])
    def test_relevant_pairs_match_combinatorial_rule(self, n, sign):
        # the corner minors, n(n-1)/2 of them, by size then colex; all of
        # them are among the minors that can be nonzero on the group
        pairs = relevant_minor_pairs(n, sign)
        assert pairs == tuple(sorted(corner_pairs(n, sign), key=size_colex))
        assert len(pairs) == n * (n - 1) // 2
        assert set(pairs) <= nonvanishing_pairs(n, sign)

    @pytest.mark.parametrize("sign", ["lower", "upper"])
    def test_cell_points_are_members(self, sign):
        for seed in range(50):
            params = sample_positive(w0(4), sign, seed)
            u = evaluate_params(params, sign, 4)
            assert is_totally_positive_unitriangular(u, sign).member

    def test_any_reduced_word_of_w0_gives_members(self):
        for n in (3, 4):
            for word in sorted(all_reduced_words(w0(n))):
                rng = SplitMix64(hash(word) & (2 ** 64 - 1))
                params = LusztigParams(word,
                                       tuple(rng.fraction(5) for _ in word))
                u = evaluate_params(params, "lower", n)
                assert is_totally_positive_unitriangular(u, "lower").member


class TestGPositive:
    def test_sl2_member(self):
        g = RationalMatrix.from_rows([[2, 1], [1, 1]])
        assert is_g_positive(g).member

    def test_identity_not_member(self):
        assert not is_g_positive(RationalMatrix.identity(2)).member

    def test_wrong_determinant(self):
        verdict = is_g_positive(RationalMatrix.from_rows([[1, 2], [2, 1]]))
        assert not verdict.member
        assert "determinant" in verdict.witness.note

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sampled_members(self, n):
        for seed in range(20):
            assert is_g_positive(sample_g_positive(n, seed)).member

    def test_criteria_agree_on_two_hundred_mixed_samples(self):
        # construction-based members, near-boundary members (tiny and huge
        # parameters), and assorted non-members: the initial-minor test,
        # the all-minors oracle and the Gaussian-factor route agree
        samples = [sample_g_positive(n, seed) for seed in range(60) for n in (2, 3)]
        samples += [sample_g_positive(3, seed, scale=64) for seed in range(40)]
        turn = RationalMatrix.from_rows([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
        samples += [sample_g_positive(3, seed) @ turn for seed in range(40)]
        assert len(samples) == 200
        for g in samples:
            verdict = is_g_positive(g)
            assert verdict.member == brute_force_g_positive(g) == factorization_positive(g)
            assert_witness_is_sound(verdict, g)

    def test_semigroup_closure_sampled(self):
        for seed in range(25):
            a = sample_g_positive(3, derive_seed(seed, 0))
            b = sample_g_positive(3, derive_seed(seed, 1))
            assert is_g_positive(a @ b).member


class TestOracleAgreement:
    """The minimal-minor tests against brute force over every minor."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", ["lower", "upper"])
    def test_unitriangular_matches_brute_force(self, n, sign):
        points = [(evaluate_params(sample_positive(w0(n), sign, seed), sign, n), True)
                  for seed in range(3)]
        points += [(cell_point(spoiled_params(n, sign, seed, how), sign, n), False)
                   for seed in range(4) for how in ("zero", "negative")]
        for u, member in points:
            verdict = is_totally_positive_unitriangular(u, sign)
            assert verdict.member == brute_force_unitriangular(u, sign) == member
            assert_witness_is_sound(verdict, u)
            assert verdict == first_nonpositive(u, corner_pairs(n, sign))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_g_positive_matches_brute_force(self, n, side):
        points = [(sample_g_positive(n, derive_seed(seed, n)), True) for seed in range(2)]
        points += [(spoiled_g(n, seed, side, how), False)
                   for seed in range(2) for how in ("zero", "negative")]
        for g, member in points:
            verdict = is_g_positive(g)
            assert verdict.member == brute_force_g_positive(g) == member
            assert_witness_is_sound(verdict, g)
            assert verdict == first_nonpositive_g(g)

    @given(st.integers(2, 5), st.sampled_from(["lower", "upper"]),
           st.lists(st.fractions(min_value=-2, max_value=4, max_denominator=3),
                    min_size=10, max_size=10))
    def test_unitriangular_hypothesis(self, n, sign, values):
        u = cell_point(values, sign, n)
        verdict = is_totally_positive_unitriangular(u, sign)
        assert verdict.member == brute_force_unitriangular(u, sign)
        assert_witness_is_sound(verdict, u)
        assert verdict == first_nonpositive(u, corner_pairs(n, sign))

    @given(st.integers(2, 4),
           st.lists(st.fractions(min_value=-1, max_value=4, max_denominator=3),
                    min_size=12, max_size=12),
           st.integers(0, 2 ** 32))
    def test_g_positive_hypothesis(self, n, values, seed):
        half = n * (n - 1) // 2
        g = (cell_point(values[:half], "upper", n)
             @ sample_torus_matrix(n, seed)
             @ cell_point(values[half:2 * half], "lower", n))
        verdict = is_g_positive(g)
        assert verdict.member == brute_force_g_positive(g)
        assert_witness_is_sound(verdict, g)
        assert verdict == first_nonpositive_g(g)

    @pytest.mark.parametrize("n", [7, 8])
    def test_large_n_matches_factorization_route(self, n):
        points = [(sample_g_positive(n, seed), True) for seed in range(2)]
        points += [(spoiled_g(n, 0, "lower", "zero"), False),
                   (spoiled_g(n, 1, "upper", "negative"), False)]
        for g, member in points:
            verdict = is_g_positive(g)
            assert verdict.member == factorization_positive(g) == member
            assert_witness_is_sound(verdict, g)
            assert verdict == first_nonpositive_g(g)

    @pytest.mark.parametrize("sign", ["lower", "upper"])
    def test_large_n_unitriangular(self, sign):
        for n in (7, 8):
            points = [(evaluate_params(sample_positive(w0(n), sign, n), sign, n), True)]
            points += [(cell_point(spoiled_params(n, sign, n, how), sign, n), False)
                       for how in ("zero", "negative")]
            for u, member in points:
                verdict = is_totally_positive_unitriangular(u, sign)
                assert verdict.member == member
                assert verdict == first_nonpositive(u, corner_pairs(n, sign))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            is_g_positive(RationalMatrix.identity(9))


def g_with_minor(n, rows, cols, value, seed):
    """A sampled member moved by :func:`with_minor` to ``value`` on the
    window, then by its entry (n, n) back to determinant 1.  Of the
    initial minors only det g contains that entry, so every initial minor
    before the window, by size then colex, stays > 0."""
    g = with_minor(sample_g_positive(n, seed), rows, cols, value)
    return with_minor(g, interval(1, n), interval(1, n), 1)


class TestWitnessOrder:
    """A minor <= 0 placed at each level: both membership tests stop
    there and report it, the same full witness (rows, cols, value, note)
    as a permutation-sum scan of their minors by size, then colex; the
    oracle agreement tests above compare the witness on cell points."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("initial", ["rows", "cols"])
    def test_g_stops_at_the_level_of_a_nonpositive_minor(self, n, initial):
        # a minor of size k on rows {r..} x cols {1..k}, r >= 2, divides
        # the level k + 2 of the table; the scan must stop at level k
        for k in range(1, n):
            for value in (0, -1):
                # a leading principal minor of size n - 1 that vanishes
                # would leave no entry (n, n) to restore det g = 1 with
                start = 2 + value if k == n - 1 else 1 + (k + value) % (n - k + 1)
                rows, cols = interval(start, k), interval(1, k)
                g = g_with_minor(n, rows, cols, value, derive_seed(n, k))
                if initial == "rows":
                    g, rows, cols = g.transpose(), cols, rows
                verdict = is_g_positive(g)
                assert verdict == first_nonpositive_g(g)
                assert verdict.witness == MinorWitness(rows, cols, value, "must be > 0")

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("sign", ["lower", "upper"])
    def test_unitriangular_stops_at_the_level_of_a_nonpositive_minor(self, n, sign):
        for k in range(1, n):
            for value in (0, -1):
                start = 2 + (k + value) % (n - k)
                rows, cols = interval(start, k), interval(1, k)
                u = evaluate_params(sample_positive(w0(n), "lower", derive_seed(n, k)),
                                    "lower", n)
                u = with_minor(u, rows, cols, value)
                if sign == "upper":
                    u, rows, cols = u.transpose(), cols, rows
                verdict = is_totally_positive_unitriangular(u, sign)
                assert verdict == first_nonpositive(u, corner_pairs(n, sign))
                assert verdict.witness == MinorWitness(rows, cols, value, "must be > 0")


def assert_table_is_window_minors(m):
    """Every entry of every level of the table over m's rows is the minor
    of its window; examples where a divisor of the next level vanishes
    are rejected."""
    for k, (level, scales) in enumerate(_window_levels(m.rows), 1):
        for s, window in enumerate(level):
            for j, entry in enumerate(window):
                minor = permutation_sum_minor(m, interval(s + 1, k),
                                              interval(1, k - 1) + (k + j,))
                assert F(entry, math.prod(scales[s:s + k])) == minor
        assume(all(window[0] != 0 for window in level[1:]))


class TestWindowTable:
    @given(st.integers(2, 6), st.lists(st.integers(-6, 6), min_size=36, max_size=36))
    def test_integer_entries(self, n, values):
        assert_table_is_window_minors(
            RationalMatrix.from_rows([values[n * i:n * (i + 1)] for i in range(n)]))

    @settings(max_examples=3)
    @given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                    min_size=64, max_size=64))
    def test_rational_entries_at_the_dimension_cap(self, values):
        assert_table_is_window_minors(
            RationalMatrix.from_rows([values[8 * i:8 * (i + 1)] for i in range(8)]))


class TestSampling:
    def test_sampler_deterministic(self):
        a = sample_positive(w0(4), "lower", seed=11)
        b = sample_positive(w0(4), "lower", seed=11)
        assert a == b
        assert a != sample_positive(w0(4), "lower", seed=12)

    def test_identity_cell_sample_is_empty(self):
        assert sample_positive(WeylElement.identity(3), "lower", 5).params == ()

    def test_torus_sample_has_det_one(self):
        t = sample_torus_matrix(5, seed=3)
        assert t.det() == 1
        assert all(d > 0 for d in t.diagonal_entries())

    def test_positive_params_always(self):
        for seed in range(50):
            params = sample_positive(w0(5), "lower", seed)
            assert all(p > 0 for p in params.params)


class TestJson:
    def test_params_round_trip(self):
        p = sample_positive(w0(3), "lower", 9)
        assert LusztigParams.from_json_dict(p.to_json_dict()) == p

    def test_malformed(self):
        with pytest.raises(ValueError):
            LusztigParams.from_json_dict({"word": [1], "params": []})
