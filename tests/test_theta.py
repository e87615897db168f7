import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpflag import (NoConvergence, NotInTorusSet, RationalMatrix, SolverConfig,
                    ThetaInstance, TorusPoint, ZSystem, evaluate_params,
                    exterior_power, is_totally_positive_unitriangular,
                    relevant_minor_pairs, sample_positive, sample_torus_in_domain,
                    sl3_root_pair, theta_forward, theta_inverse_numeric,
                    theta_inverse_sl2, theta_inverse_sl3, torus_conjugate,
                    torus_set_membership, verify_conjecture, z_function)
from tpflag.prng import SplitMix64, derive_seed
from tpflag.theta import _domain_point, _zsystem
from tpflag.weyl import longest_element

from oracles import (brute_force_unitriangular, fd_jacobian_error,
                     permutation_sum_minor)

positive_fractions = st.fractions(min_value=F(1, 5), max_value=5, max_denominator=8)


def w0(n):
    return longest_element(range(1, n), n)


def lower_cell_point(n, seed, scale=4):
    return evaluate_params(sample_positive(w0(n), "lower", seed, scale), "lower", n)


def zero_heavy_lower(n, seed):
    """Unit lower triangular with about two thirds of the entries below
    the diagonal zero and the rest of either sign."""
    rng = SplitMix64(seed)
    rows = [[F(int(i == k)) for k in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            if rng.randint(3) == 0:
                rows[i][k] = rng.fraction(4) * (1 if rng.randint(2) else -1)
    return RationalMatrix.from_rows(rows)


def prefix_diagonal(coords):
    """diag(1, c1, c1 c2, ...): conjugating by it is conjugating by t."""
    entries = [F(1)]
    for c in coords:
        entries.append(entries[-1] * c)
    return RationalMatrix.diagonal(entries)


def coords_inside(u, uprime, rng):
    """Rational coordinates inside the domain of (u, u'), found by growth
    and checked through full matrix products, not the conjugation kernel."""
    binv = uprime.inverse()
    for attempt in range(64):
        coords = tuple(F(2) ** attempt * rng.fraction(6) for _ in range(u.n - 1))
        d = prefix_diagonal(coords)
        if is_totally_positive_unitriangular(d @ u @ d.inverse() @ binv, "lower").member:
            return coords
    raise AssertionError("no coordinates inside the domain")


def kernel_cases(n, count=8):
    """(u, u', rational coords): half the u are totally positive, half
    zero-heavy and signed.  A quarter of the coordinates lie inside the
    domain, the rest spread over a few octaves, so the domain verdict
    comes out both ways."""
    rng = SplitMix64(derive_seed(n, 77))
    for seed in range(count):
        u = lower_cell_point(n, seed) if seed % 2 else zero_heavy_lower(n, seed)
        uprime = lower_cell_point(n, seed + 40)
        if seed % 4 == 1:
            coords = coords_inside(u, uprime, rng)
        else:
            coords = tuple(rng.fraction(6) * F(2) ** (rng.randint(9) - 2)
                           for _ in range(n - 1))
        yield u, uprime, coords


def sl3_coords(u):
    return u.rows[1][0], u.rows[2][1], u.rows[2][0]


class TestZFunction:
    def test_sl2_reads_subdiagonal_entry(self):
        u = RationalMatrix.from_rows([[1, 0], [F(7, 2), 1]])
        assert z_function(u, 1) == F(7, 2)

    @given(positive_fractions, positive_fractions, positive_fractions)
    def test_sl3_reads_corner_minors(self, x, y, z):
        u = RationalMatrix.from_rows([[1, 0, 0], [x, 1, 0], [z, y, 1]])
        assert z_function(u, 1) == z
        assert z_function(u, 2) == x * y - z

    def test_identity_gives_zero(self):
        for j in (1, 2, 3):
            assert z_function(RationalMatrix.identity(4), j) == 0

    def test_index_range(self):
        with pytest.raises(ValueError):
            z_function(RationalMatrix.identity(3), 3)

    def test_agrees_with_wedge_coordinate(self):
        # lowest wedge coordinate of the j-th exterior power applied to the
        # leading coordinate wedge = bottom-left entry of the wedge matrix
        u = lower_cell_point(4, seed=3)
        for j in (1, 2, 3):
            wedge = exterior_power(u, j)
            assert z_function(u, j) == wedge.rows[wedge.n - 1][0]

    def test_positive_on_cells(self):
        count = 0
        for n in (2, 3, 4, 5):
            for seed in range(50):
                u = lower_cell_point(n, seed)
                count += 1
                assert all(z_function(u, j) > 0 for j in range(1, n))
        assert count == 200


class TestTorusConjugate:
    def test_identity_coords_fix_everything(self):
        u = lower_cell_point(3, seed=1)
        t = TorusPoint((F(1), F(1)))
        assert torus_conjugate(t, u) == u

    def test_sl2_scaling(self):
        u = RationalMatrix.from_rows([[1, 0], [F(3), 1]])
        got = torus_conjugate(TorusPoint((F(5),)), u)
        assert got == RationalMatrix.from_rows([[1, 0], [F(15), 1]])

    @given(positive_fractions, positive_fractions)
    def test_sl3_corner_gets_product_factor(self, R, S):
        u = RationalMatrix.from_rows([[1, 0, 0], [1, 1, 0], [F(7), 1, 1]])
        got = torus_conjugate(TorusPoint((R, S)), u)
        assert got.rows[2][0] == R * S * 7
        assert got.rows[1][0] == R
        assert got.rows[2][1] == S

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_diagonal_conjugation(self, n):
        for u, _, coords in kernel_cases(n):
            d = prefix_diagonal(coords)
            assert torus_conjugate(TorusPoint(coords), u) == d @ u @ d.inverse()


class TestConjugatedProduct:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exact_matches_full_product_and_brute_force(self, n):
        verdicts = set()
        for u, uprime, coords in kernel_cases(n):
            t = TorusPoint(coords)
            expected = torus_conjugate(t, u) @ uprime.inverse()
            m, verdict = _domain_point(u, uprime.inverse(), t)
            assert m == expected
            assert verdict.member == brute_force_unitriangular(expected, "lower")
            assert torus_set_membership(u, uprime, t).member == verdict.member
            verdicts.add(verdict.member)
        assert verdicts == {True, False}


def invalid_domain_input(case):
    """(u, u', coords) at n = 3 with one input check violated."""
    u, uprime, coords = lower_cell_point(3, 1), lower_cell_point(3, 2), (F(5),) * 2
    if case == "uprime smaller":
        uprime = lower_cell_point(2, 2)
    elif case == "uprime larger":
        uprime = lower_cell_point(4, 2)
    elif case == "t too short":
        coords = (F(5),)
    elif case == "t too long":
        coords = (F(5),) * 3
    elif case == "u not unit lower":
        u = u.transpose()
    elif case == "uprime not unit lower":
        uprime = RationalMatrix.from_rows([[2, 0, 0], [1, 1, 0], [1, 1, F(1, 2)]])
    return u, uprime, coords


class TestDomainInputs:
    # float coordinates are checked before they become exact rationals,
    # and the kernel reads only the lower triangles of same-size inputs
    @pytest.mark.parametrize("num", [F, float])
    @pytest.mark.parametrize("case,message", [
        ("uprime smaller", "dimension mismatch"),
        ("uprime larger", "dimension mismatch"),
        ("t too short", "torus point size does not match the matrix"),
        ("t too long", "torus point size does not match the matrix"),
        ("u not unit lower", "input is not unit lower triangular"),
        ("uprime not unit lower", "input is not unit lower triangular"),
    ])
    def test_rejected_in_both_arithmetics(self, case, message, num):
        u, uprime, coords = invalid_domain_input(case)
        t = TorusPoint(tuple(num(c) for c in coords))
        for call in (torus_set_membership, theta_forward):
            with pytest.raises(ValueError) as info:
                call(u, uprime, t)
            assert str(info.value) == message


class TestFloatUnderflow:
    # float coordinates are the rationals they denote, so tiny and huge
    # ones get exact verdicts
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_underflowed_point_is_outside_the_domain(self, n):
        # entry (2, 1) of the conjugated product is 1e-200 u_21 - u'_21
        u, uprime = lower_cell_point(n, 1), lower_cell_point(n, 2)
        t = TorusPoint((1e-200,) * (n - 1))
        verdict = torus_set_membership(u, uprime, t)
        assert not verdict.member
        witness = verdict.witness
        assert (witness.rows, witness.cols) == ((2,), (1,))
        assert witness.value == F(1e-200) * u.rows[1][0] - uprime.rows[1][0]
        assert witness.note == "must be > 0"
        with pytest.raises(NotInTorusSet) as info:
            theta_forward(u, uprime, t)
        assert str(info.value) == "torus point outside the domain: " + witness.describe()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_huge_point_is_a_member(self, n):
        u, uprime = lower_cell_point(n, 1), lower_cell_point(n, 2)
        t_star = sample_torus_in_domain(u, uprime, 3)
        t = TorusPoint(tuple(1e200 * float(c) for c in t_star.coords))
        assert torus_set_membership(u, uprime, t).member
        # z_1 scales by the product of all n - 1 coordinates: past 1e400
        with pytest.raises(OverflowError):
            theta_forward(u, uprime, t)


def seeded_pair(n, seed):
    """(u, u') as a campaign instance draws them."""
    return lower_cell_point(n, derive_seed(seed, 1)), lower_cell_point(n, derive_seed(seed, 2))


def boundary_ray_points(n, seed, half=160, step=16):
    """(u, u', float coords) within ``half`` ulps of the domain boundary:
    f t* for t* a sampled domain point and f at the boundary of the ray,
    found by exact bisection, then rounded and moved by k ulps."""
    u, uprime = seeded_pair(n, seed)
    t_star = sample_torus_in_domain(u, uprime, derive_seed(seed, 5)).coords
    lo, hi = F(0), F(1)  # f = 1 is inside, f = 0 is not
    for _ in range(80):
        mid = (lo + hi) / 2
        if torus_set_membership(u, uprime, TorusPoint(tuple(mid * c for c in t_star))).member:
            hi = mid
        else:
            lo = mid
    base = [float(hi * c) for c in t_star]
    for k in range(-half, half + 1, step):
        yield u, uprime, tuple(b + k * math.ulp(b) for b in base)


class TestFloatCoordinates:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_boundary_verdicts_match_the_rational_point(self, n):
        verdicts = set()
        for u, uprime, coords in boundary_ray_points(n, 0):
            exact = TorusPoint(tuple(F(c) for c in coords))
            expected = brute_force_unitriangular(
                torus_conjugate(exact, u) @ uprime.inverse(), "lower")
            assert torus_set_membership(u, uprime, TorusPoint(coords)).member == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n,coords,member", [
        # members the float minor test rejected: its minor
        # rows {2, 3} cols {1, 2} came out -2.9457e-15 and -2.35e-15
        (3, ("0x1.47c3b666fb66dp+2", "0x1.47c3b666fb66dp+3"), True),
        (3, ("0x1.ca62c1d6d2da9p+2", "0x1.57ca11611e23fp+3"), True),
        # non-members it accepted
        (4, (7.14081418970119, 2.3802713965670623, 7.14081418970119), False),
        (5, (12.314290549708886, 8.209527033139166, 12.314290549708886,
             49.257162198835545), False),
    ])
    def test_known_boundary_points(self, n, coords, member):
        u, uprime = seeded_pair(n, 0)
        coords = tuple(float.fromhex(c) if isinstance(c, str) else c for c in coords)
        exact = torus_conjugate(TorusPoint(tuple(F(c) for c in coords)), u) @ uprime.inverse()
        assert brute_force_unitriangular(exact, "lower") == member
        verdict = torus_set_membership(u, uprime, TorusPoint(coords))
        assert verdict.member == member
        if not member:
            w = verdict.witness
            assert w.value == exact.minor(w.rows, w.cols) <= 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_forward_rounds_the_exact_z_once(self, n):
        for seed in range(3):
            u, uprime = seeded_pair(n, seed)
            t_star = sample_torus_in_domain(u, uprime, derive_seed(seed, 5))
            t = TorusPoint(tuple(1.1 * float(c) for c in t_star.coords))
            m = torus_conjugate(TorusPoint(tuple(F(c) for c in t.coords)), u) @ uprime.inverse()
            z = theta_forward(u, uprime, t)
            assert all(type(v) is float for v in z)
            assert z == tuple(float(z_function(m, j)) for j in range(1, n))


class TestTorusPoint:
    def test_matrix_round_trip_perfect_roots(self):
        t = RationalMatrix.diagonal([F(4), F(1, 2), F(1, 2)])
        point = TorusPoint.from_matrix(t)
        assert point.to_matrix() == t

    def test_irrational_root_rejected(self):
        with pytest.raises(ValueError):
            TorusPoint((F(3),)).to_matrix()

    def test_inverse_coords(self):
        point = TorusPoint((F(2), F(5)))
        assert point.inverse().coords == (F(1, 2), F(1, 5))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            TorusPoint((F(1), F(-2)))

    @pytest.mark.parametrize("coords", [
        (math.nan, 1.0), (1.0, math.inf), (math.inf, math.inf), (-math.inf, 1.0)])
    def test_non_finite_coordinates_are_rejected(self, coords):
        with pytest.raises(ValueError, match="positive and finite"):
            TorusPoint(coords)

    def test_huge_rational_coordinate_is_accepted(self):
        # math.isfinite would overflow on this Fraction
        assert TorusPoint((F(10) ** 400,)).coords == (F(10) ** 400,)


class TestMembership:
    def test_sl2_member(self):
        u = RationalMatrix.from_rows([[1, 0], [1, 1]])
        assert torus_set_membership(u, u, TorusPoint((F(3),))).member

    def test_sl2_not_member(self):
        u = RationalMatrix.from_rows([[1, 0], [1, 1]])
        verdict = torus_set_membership(u, u, TorusPoint((F(1, 2),)))
        assert not verdict.member

    def test_sl3_equivalence_with_inequality_system(self):
        # minor-based membership must match the four closed-form
        # inequalities exactly, on samples that include violations
        checked = 0
        for seed in range(500):
            u = lower_cell_point(3, derive_seed(seed, 0))
            uprime = lower_cell_point(3, derive_seed(seed, 1))
            rng = SplitMix64(derive_seed(seed, 2))
            R, S = rng.fraction(6), rng.fraction(6)
            a, b, c = sl3_coords(u)
            ap, bp, cp = sl3_coords(uprime)
            inequalities = (R * a - ap > 0 and S * b - bp > 0
                            and (R * c - ap * b) * S + ap * bp - cp > 0
                            and R * (S * (a * b - c) - a * bp) + cp > 0)
            member = torus_set_membership(u, uprime, TorusPoint((R, S))).member
            assert member == inequalities
            checked += 1
        assert checked == 500


class TestForward:
    def test_sl2_value(self):
        u = RationalMatrix.from_rows([[1, 0], [1, 1]])
        assert theta_forward(u, u, TorusPoint((F(3),))) == (F(2),)

    def test_outside_domain_raises(self):
        u = RationalMatrix.from_rows([[1, 0], [1, 1]])
        with pytest.raises(NotInTorusSet):
            theta_forward(u, u, TorusPoint((F(1, 2),)))

    @given(st.integers(0, 500))
    def test_sl3_matches_displayed_expressions(self, seed):
        u = lower_cell_point(3, derive_seed(seed, 0))
        uprime = lower_cell_point(3, derive_seed(seed, 1))
        t = sample_torus_in_domain(u, uprime, derive_seed(seed, 2))
        R, S = t.coords
        a, b, c = sl3_coords(u)
        ap, bp, cp = sl3_coords(uprime)
        z = theta_forward(u, uprime, t)
        assert z[0] == (R * c - ap * b) * S + ap * bp - cp
        assert z[1] == R * (S * (a * b - c) - a * bp) + cp

    def test_sl2_strictly_increasing_in_R(self):
        # difference quotient equals the cell coordinate exactly
        u = RationalMatrix.from_rows([[1, 0], [F(5, 4), 1]])
        uprime = RationalMatrix.from_rows([[1, 0], [F(2, 3), 1]])
        z1 = theta_forward(u, uprime, TorusPoint((F(2),)))
        z2 = theta_forward(u, uprime, TorusPoint((F(3),)))
        assert z2[0] - z1[0] == F(5, 4) * (3 - 2)

    def test_injective_on_sampled_torus_points(self):
        u = lower_cell_point(3, seed=5)
        uprime = lower_cell_point(3, seed=6)
        seen = {}
        for seed in range(40):
            t = sample_torus_in_domain(u, uprime, seed)
            z = theta_forward(u, uprime, t)
            if t.coords not in seen:
                for coords, other in seen.items():
                    assert other != z, (coords, t.coords)
                seen[t.coords] = z


class TestClosedFormInverses:
    def test_sl2_worked_values(self):
        u = RationalMatrix.from_rows([[1, 0], [1, 1]])
        assert theta_inverse_sl2(u, u, (F(2),)).coords == (F(3),)
        a2 = RationalMatrix.from_rows([[1, 0], [2, 1]])
        a3 = RationalMatrix.from_rows([[1, 0], [3, 1]])
        assert theta_inverse_sl2(a2, a3, (F(1),)).coords == (F(2),)

    def test_sl2_boundary_limit(self):
        # as the target approaches zero the solution approaches a'/a
        u = RationalMatrix.from_rows([[1, 0], [1, 1]])
        small = theta_inverse_sl2(u, u, (F(1, 10 ** 9),)).coords[0]
        assert small - 1 == F(1, 10 ** 9)

    @given(st.integers(0, 300))
    def test_sl2_round_trip_exact(self, seed):
        u = lower_cell_point(2, derive_seed(seed, 0))
        uprime = lower_cell_point(2, derive_seed(seed, 1))
        z = (SplitMix64(derive_seed(seed, 2)).fraction(6),)
        point = theta_inverse_sl2(u, uprime, z)
        assert theta_forward(u, uprime, point) == z

    def test_sl3_symmetric_instance_sqrt2(self):
        u = RationalMatrix.from_rows([[1, 0, 0], [1, 1, 0], [F(1, 2), 1, 1]])
        point = theta_inverse_sl3(u, u, (F(1), F(1)))
        assert all(abs(c - (math.sqrt(2) + 1)) < 1e-12 for c in point.coords)
        back = theta_forward(u, u, point)
        assert all(abs(v - 1) < 1e-12 for v in back)

    def test_sl3_rejected_root_fails_membership(self):
        for seed in range(60):
            u = lower_cell_point(3, derive_seed(seed, 0))
            uprime = lower_cell_point(3, derive_seed(seed, 1))
            rng = SplitMix64(derive_seed(seed, 2))
            z = (rng.fraction(5), rng.fraction(5))
            accepted, rejected = sl3_root_pair(u, uprime, z)
            assert torus_set_membership(u, uprime, accepted).member
            # the rejected branch drops below a'/a, violating the first
            # inequality (it may not even be positive)
            a = u.rows[1][0]
            ap = uprime.rows[1][0]
            assert rejected[0] < ap / a
            if all(c > 0 for c in rejected):
                assert not torus_set_membership(
                    u, uprime, TorusPoint(rejected)).member

    def test_sl3_exact_when_discriminant_is_square(self):
        # round-trip data keeps the discriminant a perfect square, so the
        # closed form stays in exact arithmetic
        u = lower_cell_point(3, seed=8)
        uprime = lower_cell_point(3, seed=9)
        t = sample_torus_in_domain(u, uprime, seed=10)
        z = theta_forward(u, uprime, t)
        point = theta_inverse_sl3(u, uprime, z)
        assert point.is_exact
        assert point.coords == t.coords


class TestNumericInverse:
    def test_matches_sl2_closed_form(self):
        for seed in range(25):
            u = lower_cell_point(2, derive_seed(seed, 0))
            uprime = lower_cell_point(2, derive_seed(seed, 1))
            z = (SplitMix64(derive_seed(seed, 2)).fraction(5),)
            exact = theta_inverse_sl2(u, uprime, z)
            report = theta_inverse_numeric(u, uprime, z,
                                           SolverConfig(seed=derive_seed(seed, 3)))
            assert report.distinct_limits == 1
            rel = abs(report.solution.coords[0] - float(exact.coords[0])) \
                / float(exact.coords[0])
            assert rel < 1e-10

    def test_matches_sl3_closed_form_with_jacobian_check(self):
        for seed in range(10):
            u = lower_cell_point(3, derive_seed(seed, 0))
            uprime = lower_cell_point(3, derive_seed(seed, 1))
            rng = SplitMix64(derive_seed(seed, 2))
            z = (rng.fraction(5), rng.fraction(5))
            exact = theta_inverse_sl3(u, uprime, z)
            report = theta_inverse_numeric(u, uprime, z,
                                           SolverConfig(seed=derive_seed(seed, 3)))
            assert report.distinct_limits == 1
            for got, want in zip(report.solution.coords, exact.coords):
                assert abs(got - float(want)) / float(want) < 1e-10
            zsys = ZSystem(u, uprime)
            points = [list(report.solution.coords)]
            points += [[math.exp(rng.uniform(-3, 3)) for _ in range(2)]
                       for _ in range(5)]
            for R in points:
                assert fd_jacobian_error(zsys, R) <= 1e-6

    def test_no_convergence_is_loud(self):
        u = lower_cell_point(3, seed=1)
        uprime = lower_cell_point(3, seed=2)
        with pytest.raises(NoConvergence):
            theta_inverse_numeric(u, uprime, (F(1), F(1)),
                                  SolverConfig(starts=1, max_iterations=1,
                                               newton_tolerance=1e-15, seed=3))

    def test_bad_targets_rejected(self):
        u = lower_cell_point(2, seed=1)
        with pytest.raises(ValueError):
            theta_inverse_numeric(u, u, (F(-1),))
        with pytest.raises(ValueError):
            theta_inverse_numeric(u, u, (F(1), F(1)))

    @pytest.mark.parametrize("n,closed", [(2, theta_inverse_sl2), (3, theta_inverse_sl3)])
    def test_small_targets_converge_while_the_rounding_bound_is_informative(self, n,
                                                                           closed):
        # a small z_j is a sum of O(1) terms that cancel.  At 1e-6 its rounding
        # bound lies between the absolute Newton tolerance and the cluster
        # threshold: every start converges at the cap, on the closed form
        u, uprime = lower_cell_point(n, seed=1), lower_cell_point(n, seed=2)
        z = (F(1, 10 ** 6),) * (n - 1)
        report = theta_inverse_numeric(u, uprime, z)
        assert all(report.converged) and report.distinct_limits == 1
        assert set(report.iterations) == {SolverConfig().max_iterations}
        exact = closed(u, uprime, z)
        assert all(abs(math.log(float(a) / float(b))) <= 1e-12
                   for a, b in zip(report.solution.coords, exact.coords))
        # at 1e-12 the bound (about 1e-3) exceeds the cluster threshold
        with pytest.raises(NoConvergence):
            theta_inverse_numeric(u, uprime, (F(1, 10 ** 12),) * (n - 1))

    @pytest.mark.parametrize("value", [F(0), F(-1), -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("n,solve", [(2, theta_inverse_sl2), (3, theta_inverse_sl3),
                                         (4, theta_inverse_numeric)])
    def test_targets_must_be_positive_and_finite(self, n, solve, value):
        u = lower_cell_point(n, seed=1)
        with pytest.raises(ValueError, match="targets must be positive and finite"):
            solve(u, u, (F(1),) * (n - 2) + (value,))

    def test_huge_rational_target_is_accepted(self):
        # no float conversion: math.isfinite would overflow here
        u = lower_cell_point(2, seed=1)
        z = F(10) ** 400
        assert theta_inverse_sl2(u, u, (z,)).coords == ((z + u.rows[1][0]) / u.rows[1][0],)

    def test_deterministic_given_seed(self):
        u = lower_cell_point(4, seed=21)
        uprime = lower_cell_point(4, seed=22)
        z = (F(1), F(2), F(1, 2))
        r1 = theta_inverse_numeric(u, uprime, z, SolverConfig(seed=77))
        r2 = theta_inverse_numeric(u, uprime, z, SolverConfig(seed=77))
        assert r1 == r2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_residual_is_read_at_the_solution(self, n):
        # the solver carries each iterate's z from the domain test; the
        # reported residual is still max |z(solution) - target|
        u = lower_cell_point(n, seed=31)
        uprime = lower_cell_point(n, seed=32)
        z = tuple(F(k + 1, 2) for k in range(n - 1))
        report = theta_inverse_numeric(u, uprime, z, SolverConfig(seed=5))
        assert all(report.converged)
        target = np.array([float(v) for v in z])
        got = ZSystem(u, uprime).z_values(report.solution.coords)
        assert report.residual == float(np.max(np.abs(got - target)))


def corner_terms(zsys, R):
    """(value, sum of |terms|) per lower corner pair of the ZSystem table
    at float R, in relevant_minor_pairs order."""
    for poly, _ in zsys._corner_polys:
        terms = [c * math.prod(x ** p for x, p in zip(R, e)) for c, e in poly]
        yield ZSystem._eval(poly, R), sum(abs(t) for t in terms)


class TestZSystem:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_minors_of_the_conjugated_product(self, n):
        # every corner polynomial of the Cauchy-Binet table against a
        # permutation-sum minor of the exact conjugated product, on totally
        # positive pairs and on zero-heavy unit-lower pairs with entries of
        # either sign; the z_j are the corners whose last row is n
        pairs = relevant_minor_pairs(n, "lower")
        for k in range(8):
            seed = derive_seed(n, k)
            sample = zero_heavy_lower if k % 2 else lower_cell_point
            u = sample(n, derive_seed(seed, 1))
            uprime = sample(n, derive_seed(seed, 2))
            zsys = ZSystem(u, uprime)
            rng = SplitMix64(derive_seed(seed, 3))
            R = tuple(rng.fraction(4) for _ in range(n - 1))
            Rf = [float(r) for r in R]
            m = torus_conjugate(TorusPoint(R), u) @ uprime.inverse()
            assert len(zsys._corner_polys) == len(pairs) == n * (n - 1) // 2
            for (rows, cols), (got, terms) in zip(pairs, corner_terms(zsys, Rf)):
                exact = permutation_sum_minor(m, rows, cols)
                assert exact == m.minor(rows, cols)
                assert abs(got - float(exact)) <= 1e-12 * terms
            assert [is_z for _, is_z in zsys._corner_polys] == [
                rows[-1] == n for rows, _ in pairs]
            assert list(zsys.z_values(Rf)) == [
                ZSystem._eval(poly, Rf) for poly, is_z in zsys._corner_polys if is_z]
            assert fd_jacobian_error(zsys, Rf) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_verdict_matches_exact_membership_off_the_boundary(self, n):
        # wherever every corner minor is farther from 0 than 1e-8 of its
        # sum of |terms|, the float table and the exact test must agree
        verdicts = []
        for u, uprime, coords in kernel_cases(n, count=16):
            zsys = ZSystem(u, uprime)
            Rf = [float(c) for c in coords]
            if all(abs(value) > 1e-8 * terms
                   for value, terms in corner_terms(zsys, Rf)):
                exact = torus_set_membership(u, uprime, TorusPoint(coords)).member
                assert (zsys.membership(Rf, 0.0) is not None) == exact
                verdicts.append(exact)
        assert set(verdicts) == {True, False}

    def test_membership_implies_z_above_the_margin(self):
        # item 1 of verify_conjecture(5, ., 1): at this Newton iterate the
        # table's z_2 is -4.5e-13 and the exact test puts the float point
        # outside, while the float minor test of t u t^-1 u'^-1 read every
        # corner minor as positive
        base = derive_seed(1, 1)
        u = lower_cell_point(5, derive_seed(base, 1))
        uprime = lower_cell_point(5, derive_seed(base, 2))
        zsys = ZSystem(u, uprime)
        x = np.array([float.fromhex(h) for h in (
            "0x1.f52509d6291c1p-1", "0x1.6941de2a4d6c3p-1",
            "0x1.e803261a6c25cp+0", "-0x1.cd8fdfe6117dbp+0")])
        boundary = np.exp(x)
        assert not torus_set_membership(
            u, uprime, TorusPoint(tuple(F(r) for r in boundary))).member
        rng = SplitMix64(5)
        points = [boundary] + [np.exp(x + [rng.uniform(-1e-6, 1e-6) for _ in x])
                               for _ in range(50)]
        points += [np.exp([rng.uniform(-3, 3) for _ in x]) for _ in range(50)]
        for R in points:
            for margin in (0.0, 1e-14, 1e-3):
                if zsys.membership(R, margin):
                    assert all(zsys.z_values(R) > margin)
        assert not zsys.membership(boundary, 1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_accepted_z_is_z_values_bit_for_bit(self, n):
        accepted = 0
        for u, uprime, coords in kernel_cases(n, count=16):
            zsys = ZSystem(u, uprime)
            Rf = [float(c) for c in coords]
            for R in (Rf, np.array(Rf)):
                z = zsys.membership(R, 0.0)
                if z is not None:
                    assert type(z) is tuple
                    assert np.array(z).tobytes() == zsys.z_values(R).tobytes()
                    accepted += 1
        assert accepted

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_noise_floors_bound_the_rounding_error_of_z(self, n):
        # |z_j(R) - exact z_j(R)| <= floor_j * z_j(R) at the float point R,
        # with the exact value from the conjugated product at R's rationals
        checked = 0
        for u, uprime, coords in kernel_cases(n, count=16):
            zsys = ZSystem(u, uprime)
            R = [float(c) for c in coords]
            m, _ = _domain_point(u, uprime.inverse(), TorusPoint(tuple(F(r) for r in R)))
            z = zsys.z_values(R)
            for j, (value, floor) in enumerate(zip(z, zsys.noise_floors(R, z)), 1):
                if value > 0:
                    assert 0 < floor < math.inf
                    assert abs(F(value) - z_function(m, j)) <= F(floor) * F(value)
                    checked += 1
        assert checked

    @pytest.mark.parametrize("R", [
        (math.inf, 1.0, 1.0), (1.0, math.inf, 2.0), (math.inf,) * 3,
        (0.0, 1.0, 1.0), (2.0, 2.0, 0.0), (1e-320, 1.0, 1.0),
        (1e-320, 1e308, 1.0), (1e308, 1e308, 1.0), (1e308, math.inf, 0.0)])
    def test_non_finite_points_are_silent_non_members(self, R):
        zsys = ZSystem(lower_cell_point(4, 1), lower_cell_point(4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point in (R, np.array(R)):
                assert zsys.membership(point, 1e-14) is None


def assert_passes_the_benchmark_check(instance_seed):
    """The campaign benchmark's check of one n = 4 instance: converged,
    one limit cluster per solve, round trip within the cluster threshold."""
    record = verify_conjecture(4, 1, instance_seed).records[0]
    assert record.converged
    assert record.distinct_limits == record.aux_distinct_limits == 1
    assert record.roundtrip_err <= SolverConfig().cluster_threshold


class TestCampaign:
    def test_closed_form_backed_sizes_fully_converge(self):
        for n in (2, 3):
            report = verify_conjecture(n, 5, seed=31,
                                       config=SolverConfig(starts=6))
            assert report.all_converged
            assert report.all_unique_limits
            assert report.max_residual < 1e-12
            assert not report.counterexamples

    def test_one_zsystem_per_instance(self, monkeypatch):
        # the main and the round-trip solve of an instance share one table
        built = []
        init = ZSystem.__init__

        def spy(self, u, uprime):
            built.append((u, uprime))
            init(self, u, uprime)

        monkeypatch.setattr(ZSystem, "__init__", spy)
        _zsystem.cache_clear()
        verify_conjecture(4, 3, seed=12)
        assert len(built) == len(set(built)) == 3

    def test_known_noise_floor_instance_converges(self):
        # item 6 of the benchmark campaign at seed 9: derive_seed(9, 6).  All
        # ten main starts reach the iteration cap with |F_j| above the Newton
        # tolerance but under the rounding bound of z_j
        assert_passes_the_benchmark_check(11913068463950444748)

    @pytest.mark.parametrize("instance_seed", [
        5960647015370826922,   # benchmark campaign seed 3, item 1173
        13422768891423035533,  # benchmark campaign seed 14, item 816
    ])
    def test_more_noise_floor_instances_converge(self, instance_seed):
        assert_passes_the_benchmark_check(instance_seed)

    def test_campaign_is_deterministic(self):
        a = verify_conjecture(3, 4, seed=8, config=SolverConfig(starts=5))
        b = verify_conjecture(3, 4, seed=8, config=SolverConfig(starts=5))
        assert a.csv_text() == b.csv_text()
        assert a.summary_dict() == b.summary_dict()


class TestInstanceIO:
    def test_round_trip(self):
        u = lower_cell_point(3, seed=4)
        uprime = lower_cell_point(3, seed=5)
        t = sample_torus_in_domain(u, uprime, seed=6)
        inst = ThetaInstance(u, uprime, t, theta_forward(u, uprime, t))
        again = ThetaInstance.from_json_dict(inst.to_json_dict())
        assert again == inst

    def test_membership_validated_on_load(self):
        bad = RationalMatrix.identity(2).to_json_dict()
        good = lower_cell_point(2, seed=1).to_json_dict()
        with pytest.raises(ValueError):
            ThetaInstance.from_json_dict({"u": bad, "uprime": good, "z": ["1"]})

    def test_needs_t_or_z(self):
        u = lower_cell_point(2, seed=1)
        with pytest.raises(ValueError):
            ThetaInstance(u, u)


class TestDomainSampling:
    def test_membership_and_determinism(self):
        u = lower_cell_point(4, seed=31)
        uprime = lower_cell_point(4, seed=32)
        t1 = sample_torus_in_domain(u, uprime, seed=33)
        t2 = sample_torus_in_domain(u, uprime, seed=33)
        assert t1 == t2
        assert torus_set_membership(u, uprime, t1).member
