from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpflag import (DecompositionUnavailable, RationalMatrix, colex_subsets,
                    exterior_power, gauss_decompose, perfect_nth_root)
from tpflag.totpos import sample_g_positive

from oracles import permutation_sum_det, permutation_sum_minor

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
zero_heavy = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), rationals)
wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9)
negative = st.fractions(min_value=-10 ** 3, max_value=F(-1, 10 ** 3),
                        max_denominator=10 ** 3)


def square(entries):
    return RationalMatrix.from_rows(entries)


def square_lists(entry, min_n=1, max_n=6):
    """Square lists of lists of ``entry`` values, of size min_n..max_n."""
    return st.integers(min_n, max_n).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def singular_lists(draw):
    """n x n entries, n = 1..6, in which one row is a rational
    combination of the others (the zero row when n = 1)."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(zero_heavy, min_size=n, max_size=n),
                         min_size=n - 1, max_size=n - 1))
    coeffs = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
    dependent = [sum((c * row[k] for c, row in zip(coeffs, rows)), F(0))
                 for k in range(n)]
    rows.insert(draw(st.integers(0, n - 1)), dependent)
    return rows


class TestMinor:
    def test_identity_minor(self):
        m = RationalMatrix.identity(3)
        assert m.minor((1, 2), (1, 2)) == 1

    def test_hand_computed_two_by_two(self):
        # x=2, y=3, z=1: rows {2,3} x cols {1,2} is xy - z = 5
        m = square([[1, 0, 0], [2, 1, 0], [1, 3, 1]])
        assert m.minor((2, 3), (1, 2)) == 5
        assert permutation_sum_minor(m, (2, 3), (1, 2)) == 5

    def test_full_minor_is_determinant(self):
        m = square([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
        assert m.minor((1, 2, 3), (1, 2, 3)) == m.det()

    @pytest.mark.parametrize("rows,cols", [
        ((1, 2), (1,)),          # size mismatch
        ((0, 1), (1, 2)),        # out of range low
        ((1, 4), (1, 2)),        # out of range high
        ((2, 1), (1, 2)),        # not increasing
        ((), ()),                # empty
    ])
    def test_bad_index_sets(self, rows, cols):
        m = RationalMatrix.identity(3)
        with pytest.raises(ValueError):
            m.minor(rows, cols)

    @given(square_lists(rationals))
    def test_det_matches_permutation_sum(self, entries):
        m = square(entries)
        assert m.det() == permutation_sum_det(entries)

    @given(square_lists(zero_heavy, min_n=3), st.data())
    def test_minor_matches_permutation_sum(self, entries, data):
        m = square(entries)
        k = data.draw(st.integers(1, m.n))
        index_set = st.sets(st.integers(1, m.n), min_size=k, max_size=k)
        rows = tuple(sorted(data.draw(index_set)))
        cols = tuple(sorted(data.draw(index_set)))
        assert m.minor(rows, cols) == permutation_sum_minor(m, rows, cols)


class TestExactDeterminant:
    """The exact determinant against the permutation-sum oracle, over
    zero patterns, singular inputs, denominators and signs (sizes 1..6
    are covered in TestMinor)."""

    @given(square_lists(zero_heavy, min_n=2))
    def test_zero_heavy_entries(self, entries):
        assert square(entries).det() == permutation_sum_det(entries)

    @pytest.mark.parametrize("entries", [
        # after the first column is cleared, the second pivot is 0
        [[1, 2, 3], [2, 4, 5], [3, 7, 1]],
        # the leading 3 x 3 minor is 0, so the third pivot is 0
        [[1, 2, 3, 4], [2, 5, 7, 1], [3, 7, 10, 2], [1, 1, 1, 1]],
        # zero leading entries everywhere but the last row
        [[0, 0, 0, 2], [0, 0, 3, 1], [0, 5, 1, 1], [7, 1, 1, 1]],
        [[0, F(1, 2), 0], [F(-3, 4), 0, 0], [0, 0, F(5, 6)]],
    ])
    def test_pivots_vanishing_at_later_columns(self, entries):
        assert square(entries).det() == permutation_sum_det(entries)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_permutation_matrices(self, n):
        for perm in permutations(range(n)):
            entries = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
            assert square(entries).det() == permutation_sum_det(entries)

    @given(singular_lists())
    def test_singular_is_exact_zero(self, entries):
        det = square(entries).det()
        assert det == 0 and isinstance(det, F)
        assert permutation_sum_det(entries) == 0

    @pytest.mark.parametrize("entries", [
        [[0, 0], [1, 2]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[F(1, 3), F(2, 3)], [F(1, 2), 1]],
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1], [2, 3, 4, 5]],
    ])
    def test_hand_singular(self, entries):
        assert square(entries).det() == 0

    @given(square_lists(wide, max_n=5))
    def test_large_and_mixed_denominators(self, entries):
        assert square(entries).det() == permutation_sum_det(entries)

    def test_coprime_large_denominators(self):
        primes = [999999937, 999999929, 999999893, 999999883]
        entries = [[F((i + 1) * (j + 2) - 5, primes[(i + j) % 4]) for j in range(4)]
                   for i in range(4)]
        assert square(entries).det() == permutation_sum_det(entries)

    @given(square_lists(negative))
    def test_negative_entries(self, entries):
        assert square(entries).det() == permutation_sum_det(entries)

    @pytest.mark.parametrize("entries", [
        [[3]],
        [[1, 2], [3, 4]],
        [[0, 1], [1, 0]],
        [[1, 2], [2, 4]],
        [[F(1, 2), 0], [0, 2]],
    ])
    def test_results_are_fractions(self, entries):
        m = square(entries)
        assert type(m.det()) is F
        assert type(m.minor((1,), (1,))) is F
        assert type(m.minor(tuple(range(1, m.n + 1)),
                            tuple(range(1, m.n + 1)))) is F


class TestGaussDecompose:
    def test_identity(self):
        f = gauss_decompose(RationalMatrix.identity(3))
        eye = RationalMatrix.identity(3)
        assert (f.upper, f.torus, f.lower) == (eye, eye, eye)

    def test_sl2_example(self):
        g = square([[1, 1], [1, 2]])
        f = gauss_decompose(g)
        assert f.upper == square([[1, F(1, 2)], [0, 1]])
        assert f.torus == RationalMatrix.diagonal([F(1, 2), 2])
        assert f.lower == square([[1, 0], [F(1, 2), 1]])
        assert f.product() == g

    def test_vanishing_trailing_minor(self):
        with pytest.raises(DecompositionUnavailable):
            gauss_decompose(square([[0, 1], [-1, 0]]))

    def test_triangularity_of_factors(self):
        g = sample_g_positive(4, seed=2024)
        f = gauss_decompose(g)
        assert f.upper.is_unit_triangular("upper")
        assert f.lower.is_unit_triangular("lower")
        assert f.torus.is_diagonal()
        assert f.product() == g

    @given(st.integers(0, 2 ** 32))
    def test_remultiplication_is_exact_identity(self, seed):
        g = sample_g_positive(3, seed=seed)
        assert gauss_decompose(g).product() == g

    def test_torus_determinant_one(self):
        g = sample_g_positive(5, seed=99)
        f = gauss_decompose(g)
        assert f.torus.det() == 1

    @staticmethod
    def assert_matches_trailing_minors(g):
        """g = U D L has d_k = T_k / T_{k+1},
        U_ij = Delta_{{i, j+1..n},{j..n}} / T_j (i < j) and
        L_ij = Delta_{{i..n},{j, i+1..n}} / T_i (i > j), with T_k the
        trailing principal minor on {k..n}; a vanishing T_k raises with
        the largest such k."""
        n = g.n

        def tail(k):
            return tuple(range(k, n + 1))

        trailing = {k: permutation_sum_minor(g, tail(k), tail(k)) for k in range(1, n + 1)}
        trailing[n + 1] = F(1)
        vanishing = [k for k in trailing if trailing[k] == 0]
        if vanishing:
            with pytest.raises(DecompositionUnavailable) as info:
                gauss_decompose(g)
            k = max(vanishing)
            assert str(info.value) == \
                f"trailing principal minor on rows/cols {{{k}..{n}}} vanishes"
            return
        f = gauss_decompose(g)
        for i in range(1, n + 1):
            assert f.torus.rows[i - 1][i - 1] == trailing[i] / trailing[i + 1]
            for j in range(i + 1, n + 1):
                assert f.upper.rows[i - 1][j - 1] == permutation_sum_minor(
                    g, (i,) + tail(j + 1), tail(j)) / trailing[j]
            for j in range(1, i):
                assert f.lower.rows[i - 1][j - 1] == permutation_sum_minor(
                    g, tail(i), (j,) + tail(i + 1)) / trailing[i]
        assert f.product() == g

    @settings(max_examples=40)
    @given(square_lists(st.integers(-3, 3), min_n=2, max_n=6))
    def test_factors_match_trailing_minors_on_integer_matrices(self, entries):
        self.assert_matches_trailing_minors(square(entries))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_factors_match_trailing_minors_on_tp_samples(self, n):
        for seed in range(3):
            self.assert_matches_trailing_minors(sample_g_positive(n, seed=seed))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_vanishing_trailing_minor_names_its_rows(self, n):
        # g = U D L with d_k = 0: the minors on {k'..n} vanish exactly for k' <= k
        for k in range(1, n + 1):
            upper = square([[int(i == j) if i >= j else i + 2 * j - 3
                             for j in range(n)] for i in range(n)])
            lower = square([[int(i == j) if i <= j else 2 - i + j
                             for j in range(n)] for i in range(n)])
            torus = RationalMatrix.diagonal([0 if i == k - 1 else i + 1 for i in range(n)])
            with pytest.raises(DecompositionUnavailable) as info:
                gauss_decompose(upper @ torus @ lower)
            assert str(info.value) == \
                f"trailing principal minor on rows/cols {{{k}..{n}}} vanishes"


class TestExteriorPower:
    def test_identity_maps_to_identity(self):
        for n, j in [(3, 1), (4, 2), (5, 3)]:
            from math import comb
            assert exterior_power(RationalMatrix.identity(n), j) == \
                RationalMatrix.identity(comb(n, j))

    def test_diagonal_action_on_wedges(self):
        r, s, p = F(2), F(3), F(1, 6)
        m = RationalMatrix.diagonal([r, s, p])
        assert exterior_power(m, 2) == RationalMatrix.diagonal([r * s, r * p, s * p])

    def test_colex_order(self):
        assert colex_subsets(4, 2) == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))

    @given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
    def test_functorial_on_sl4(self, seed_a, seed_b):
        a = sample_g_positive(4, seed=seed_a)
        b = sample_g_positive(4, seed=seed_b)
        left = exterior_power(a @ b, 2)
        right = exterior_power(a, 2) @ exterior_power(b, 2)
        assert left == right

    def test_preserves_det_one(self):
        g = sample_g_positive(4, seed=5)
        assert g.det() == 1
        assert exterior_power(g, 2).det() == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entries_match_permutation_sum_at_n5(self, seed):
        g = sample_g_positive(5, seed=seed)
        for j in range(1, 5):
            self.assert_matches_oracle(g, j)

    @settings(max_examples=10)
    @given(st.lists(st.lists(zero_heavy, min_size=5, max_size=5),
                    min_size=5, max_size=5), st.integers(1, 4))
    def test_entries_match_permutation_sum_on_rational_n5(self, entries, j):
        self.assert_matches_oracle(square(entries), j)

    @staticmethod
    def assert_matches_oracle(m, j):
        subs = colex_subsets(m.n, j)
        wedge = exterior_power(m, j)
        for a, r in enumerate(subs):
            for b, c in enumerate(subs):
                assert wedge.rows[a][b] == permutation_sum_minor(m, r, c)

    def test_wedge_index_range(self):
        with pytest.raises(ValueError):
            exterior_power(RationalMatrix.identity(3), 3)
        with pytest.raises(ValueError):
            exterior_power(RationalMatrix.identity(3), 0)


class TestJsonFormat:
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_bit_exact_round_trip(self, entries):
        m = square(entries)
        assert RationalMatrix.from_json_dict(m.to_json_dict()) == m

    def test_entry_rendering(self):
        m = square([[1, F(-1, 2)], [F(7), 1]])
        assert m.to_json_dict()["entries"] == [["1", "-1/2"], ["7", "1"]]

    @pytest.mark.parametrize("data", [
        {"entries": [["1"]]},
        {"n": 2, "entries": [["1", "0"]]},
        {"n": 2, "entries": [["1", "x"], ["0", "1"]]},
        {"n": 1, "entries": [["1"]]},
        {"n": 9, "entries": [["1"] * 9] * 9},
    ])
    def test_malformed_inputs(self, data):
        with pytest.raises(ValueError):
            RationalMatrix.from_json_dict(data)


class TestHelpers:
    def test_matrix_must_be_square(self):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([[1, 2], [3, 4], [5, 6]])

    def test_inverse_exact(self):
        g = sample_g_positive(4, seed=77)
        assert g @ g.inverse() == RationalMatrix.identity(4)

    def test_perfect_roots(self):
        assert perfect_nth_root(F(4, 9), 2) == F(2, 3)
        assert perfect_nth_root(F(27, 8), 3) == F(3, 2)
        assert perfect_nth_root(F(2), 2) is None
        assert perfect_nth_root(F(10, 9), 2) is None
