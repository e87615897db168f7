import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpflag import (NoConvergence, NotInTorusSet, RationalMatrix, SolverConfig,
                    ThetaInstance, TorusPoint, ZSystem, evaluate_params,
                    exterior_power, sample_positive, sample_torus_in_domain,
                    sl3_root_pair, theta_forward, theta_inverse_numeric,
                    theta_inverse_sl2, theta_inverse_sl3, torus_conjugate,
                    torus_set_membership, z_function)
from tpflag.prng import SplitMix64, derive_seed
from tpflag.weyl import longest_element

from oracles import fd_jacobian_error

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

    def test_deterministic_given_seed(self):
        u = lower_cell_point(4, seed=21)
        uprime = lower_cell_point(4, seed=22)
        z = (F(1), F(2), F(1, 2))
        r1 = theta_inverse_numeric(u, uprime, z, SolverConfig(seed=77))
        r2 = theta_inverse_numeric(u, uprime, z, SolverConfig(seed=77))
        assert r1 == r2


class TestZSystem:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_minors_of_the_conjugated_product(self, n):
        # the Cauchy-Binet tables against a matrix product and a Bareiss
        # minor, on totally positive pairs and on zero-heavy unit-lower
        # pairs with entries of either sign
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
            got = zsys.z_values(Rf)
            for j in range(1, n):
                terms = sum(abs(c) * math.prod(x ** p for x, p in zip(Rf, e))
                            for c, e in zsys._z_polys[j - 1])
                assert abs(got[j - 1] - float(z_function(m, j))) <= 1e-12 * terms
            assert fd_jacobian_error(zsys, Rf) <= 1e-6


class TestCampaign:
    def test_closed_form_backed_sizes_fully_converge(self):
        from tpflag import verify_conjecture
        for n in (2, 3):
            report = verify_conjecture(n, 5, seed=31,
                                       config=SolverConfig(starts=6))
            assert report.all_converged
            assert report.all_unique_limits
            assert report.max_residual < 1e-12
            assert not report.counterexamples

    def test_campaign_is_deterministic(self):
        from tpflag import verify_conjecture
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
