import copy
import json
import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

import tpflag.flag as flag_module
from tpflag import (CellCoordinates, EigenvalueCollision, FlagComputationError,
                    FlagPoint, FloatTolerances, LusztigParams, NotInFibre,
                    NotPositive, ParabolicPoint, RationalMatrix, TorusPoint,
                    check_partition, eigen_flag,
                    evaluate_params, extract_params, gamma_p_point,
                    gauss_decompose, is_g_positive,
                    is_totally_positive_unitriangular, perron_line_check,
                    sample_g_positive, sample_positive, sigma_b,
                    sigma_b_inverse, split_cell, theta_forward,
                    torus_set_membership, zeta, zeta_j)
from tpflag.cli import main
from tpflag.errors import MembershipViolation, NotInTorusSet
from tpflag.prng import SplitMix64, derive_seed
from tpflag.totpos import MinorWitness, PositivityVerdict
from tpflag.weyl import longest_element

from oracles import leading_lines_per_subset


def w0(n):
    return longest_element(range(1, n), n)


def all_parabolic_sets(n):
    out = []
    for r in range(n):
        out.extend(combinations(range(1, n), r))
    return out


def fibre_element(n, seed, scale=3):
    """Construct g = u' v t u'^-1 with exact rational torus t whose
    inverse-coordinate point lies in the domain attached to ((u'v)^-, u').
    Returns (g, uprime, v, t_matrix, tau)."""
    uprime = evaluate_params(sample_positive(w0(n), "lower", derive_seed(seed, 0),
                                             scale), "lower", n)
    v = evaluate_params(sample_positive(w0(n), "upper", derive_seed(seed, 1),
                                        scale), "upper", n)
    wminus = gauss_decompose(uprime @ v).lower
    for attempt in range(48):
        rng = SplitMix64(derive_seed(seed, 2 + attempt))
        growth = F(2) ** min(attempt, 24)
        d = [growth ** (n - i) * rng.fraction(scale) for i in range(1, n)]
        prod = F(1)
        for x in d:
            prod *= x
        d.append(1 / prod)
        tau = TorusPoint(tuple(d[i] / d[i + 1] for i in range(n - 1)))
        if torus_set_membership(wminus, uprime, tau).member:
            assert all(a > b for a, b in zip(d, d[1:])), \
                "domain membership must force descending torus entries"
            t_matrix = RationalMatrix.diagonal(d)
            g = uprime @ v @ t_matrix @ uprime.inverse()
            return g, uprime, v, t_matrix, tau
    raise AssertionError("could not build a fibre element")


class TestEigenFlag:
    def test_two_by_two_hand_computed(self):
        g = RationalMatrix.from_rows([[2, 1], [1, 1]])
        ef = eigen_flag(g)
        golden = (3 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2
        assert abs(ef.eigenvalues[0] - golden[0]) < 1e-12
        assert abs(ef.eigenvalues[1] - golden[1]) < 1e-12
        basis = np.array(ef.basis)
        a = np.array(g.to_float())
        for k, lam in enumerate(ef.eigenvalues):
            assert np.max(np.abs(a @ basis[:, k] - lam * basis[:, k])) < 1e-10

    def test_collision_on_identity(self):
        with pytest.raises(EigenvalueCollision):
            eigen_flag(RationalMatrix.identity(3))

    def test_distinct_positive_eigenvalues_on_samples(self):
        for n in (2, 3, 4, 5):
            for seed in range(10):
                ef = eigen_flag(sample_g_positive(n, seed))
                assert all(v > 0 for v in ef.eigenvalues)
                gaps = [a - b for a, b in zip(ef.eigenvalues, ef.eigenvalues[1:])]
                assert min(gaps) > 1e-10


class TestZeta:
    def test_two_by_two_lower_coordinate(self):
        g = RationalMatrix.from_rows([[2, 1], [1, 1]])
        point = zeta(g)
        assert abs(point.rep[1][0] - (math.sqrt(5) - 1) / 2) < 1e-12

    def test_rejects_non_member(self):
        with pytest.raises(NotPositive):
            zeta(RationalMatrix.identity(2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_recovers_constructed_representative(self, n):
        for seed in range(6):
            g, uprime, _, _, _ = fibre_element(n, seed)
            point = zeta(g)
            err = np.max(np.abs(np.array(point.rep) -
                                np.array(uprime.to_float())))
            assert err < 1e-9

    def test_fibre_property(self):
        for seed in range(5):
            g = sample_g_positive(4, seed)
            point = zeta(g)
            u = np.array(point.rep)
            conj = np.linalg.solve(u, np.array(g.to_float()) @ u)
            sub = max(abs(conj[i, j]) for j in range(4) for i in range(j + 1, 4))
            assert sub < 1e-9 * max(1.0, float(np.max(np.abs(conj))))

    def test_snap_gives_exact_positive_representative(self):
        g = sample_g_positive(3, seed=12)
        point = zeta(g, snap=True)
        assert point.is_exact
        assert is_totally_positive_unitriangular(point.rep, "lower").member
        float_point = zeta(g)
        err = np.max(np.abs(np.array(point.rep.to_float()) -
                            np.array(float_point.rep)))
        assert err < 1e-8


class TestSigmaB:
    def test_worked_two_by_two_instance(self):
        # u' with a' = 1, v with x = 1; torus factor diag(2, 1/2) has
        # inverse-coordinate 4, and (u'v)^- carries 1/2, so the target is
        # 4 * 1/2 - 1 = 1
        uprime = RationalMatrix.from_rows([[1, 0], [1, 1]])
        v = RationalMatrix.from_rows([[1, 1], [0, 1]])
        t = RationalMatrix.diagonal([F(2), F(1, 2)])
        g = uprime @ v @ t @ uprime.inverse()
        assert g == RationalMatrix.from_rows([[F(3, 2), F(1, 2)], [1, 1]])
        coords = sigma_b(g, FlagPoint(uprime))
        assert coords.v.params == (F(1),)
        assert coords.zvec == (F(1),)

    def test_membership_arithmetic_of_worked_pair(self):
        # the (u'v)^- coordinate of the same (u', v) pair is 1/2, so an
        # inverse-coordinate point R = 3 is inside the domain and maps to
        # 3 * 1/2 - 1 = 1/2
        uprime = RationalMatrix.from_rows([[1, 0], [1, 1]])
        v = RationalMatrix.from_rows([[1, 1], [0, 1]])
        wminus = gauss_decompose(uprime @ v).lower
        assert wminus.rows[1][0] == F(1, 2)
        tau = TorusPoint((F(3),))
        assert torus_set_membership(wminus, uprime, tau).member
        assert theta_forward(wminus, uprime, tau) == (F(1, 2),)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_round_trip(self, n):
        for seed in range(12):
            g, uprime, v, _, _ = fibre_element(n, seed)
            borel = FlagPoint(uprime)
            coords = sigma_b(g, borel)
            assert evaluate_params(coords.v, "upper", n) == v
            back = sigma_b_inverse(coords, borel)
            assert isinstance(back, RationalMatrix)
            assert back == g

    def test_numeric_reconstruction_at_n4(self):
        # no closed form at n=4: the reconstruction goes through the
        # multi-start solver and comes back as floats
        g, uprime, v, _, _ = fibre_element(4, seed=3)
        borel = FlagPoint(uprime)
        coords = sigma_b(g, borel)
        assert evaluate_params(coords.v, "upper", 4) == v
        back = sigma_b_inverse(coords, borel)
        if not isinstance(back, RationalMatrix):
            err = max(abs(float(back[i][j]) - float(g.rows[i][j]))
                      for i in range(4) for j in range(4))
            assert err < 1e-8 * max(1.0, max(abs(float(x))
                                             for r in g.rows for x in r))
        else:
            assert back == g

    def test_not_in_fibre(self):
        g, uprime, _, _, _ = fibre_element(3, seed=5)
        other = sample_g_positive(3, seed=1234)
        assert is_g_positive(other).member
        with pytest.raises(NotInFibre):
            sigma_b(other, FlagPoint(uprime))

    def test_failed_domain_test_is_a_membership_violation(self, monkeypatch):
        # the implied domain membership is checked once, by the forward
        # map; force its exact test to fail and pin the abort
        import tpflag.theta as theta_module
        g, uprime, _, _, _ = fibre_element(3, seed=2)
        witness = MinorWitness((2,), (1,), F(-1), "must be > 0")
        monkeypatch.setattr(theta_module, "is_totally_positive_unitriangular",
                            lambda m, sign: PositivityVerdict(False, witness))
        with pytest.raises(MembershipViolation) as info:
            sigma_b(g, FlagPoint(uprime))
        assert str(info.value) == ("implied torus-domain membership failed: "
                                   "minor rows {2} cols {1} = -1 (must be > 0)")
        assert isinstance(info.value.__cause__, NotInTorusSet)

    def test_non_member_rejected(self):
        _, uprime, _, _, _ = fibre_element(2, seed=6)
        with pytest.raises(NotPositive):
            sigma_b(RationalMatrix.identity(2), FlagPoint(uprime))

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            CellCoordinates(LusztigParams((1,), (F(1),)), (F(-1),))


class TestSplitCell:
    def test_empty_parabolic_keeps_everything_left(self):
        u1 = evaluate_params(sample_positive(w0(3), "lower", 7), "lower", 3)
        first, second = split_cell(u1, ())
        assert first == u1
        assert second == RationalMatrix.identity(3)

    def test_full_parabolic_keeps_everything_right(self):
        u1 = evaluate_params(sample_positive(w0(3), "lower", 8), "lower", 3)
        first, second = split_cell(u1, (1, 2))
        assert first == RationalMatrix.identity(3)
        assert second == u1

    def test_sl3_single_letter_split(self):
        p, q, r = F(2), F(3), F(5)
        u1 = evaluate_params(LusztigParams((1, 2, 1), (p, q, r)), "lower", 3)
        first, second = split_cell(u1, (1,))
        assert first == evaluate_params(LusztigParams((1, 2), (p, q)), "lower", 3)
        assert second == evaluate_params(LusztigParams((1,), (r,)), "lower", 3)
        assert first @ second == u1

    @pytest.mark.parametrize("n", [3, 4])
    def test_product_reproduces_input(self, n):
        for seed in range(8):
            u1 = evaluate_params(sample_positive(w0(n), "lower", seed), "lower", n)
            for J in all_parabolic_sets(n):
                first, second = split_cell(u1, J)
                assert first @ second == u1


class TestGammaP:
    def test_round_trip_both_directions(self):
        n = 3
        for J in all_parabolic_sets(n):
            coset = w0(n) * longest_element(J, n)
            for seed in range(6):
                prep = evaluate_params(sample_positive(coset, "lower",
                                                       derive_seed(seed, 0)),
                                       "lower", n)
                p = ParabolicPoint(J, prep)
                vparams = sample_positive(longest_element(J, n), "lower",
                                          derive_seed(seed, 1))
                point = gamma_p_point(p, vparams)
                first, second = split_cell(point.rep, J)
                assert first == prep
                assert second == evaluate_params(vparams, "lower", n)

    def test_split_then_gamma_recovers(self):
        n = 4
        for seed in range(5):
            u1 = evaluate_params(sample_positive(w0(n), "lower", seed), "lower", n)
            for J in all_parabolic_sets(n):
                first, second = split_cell(u1, J)
                p = ParabolicPoint(J, first)
                vparams = extract_params(second, longest_element(J, n), "lower")
                assert gamma_p_point(p, vparams).rep == u1

    def test_injective_in_parameters(self):
        n = 3
        J = (1,)
        prep = evaluate_params(sample_positive(w0(n) * longest_element(J, n),
                                               "lower", 3), "lower", n)
        p = ParabolicPoint(J, prep)
        a = gamma_p_point(p, LusztigParams((1,), (F(1),)))
        b = gamma_p_point(p, LusztigParams((1,), (F(2),)))
        assert a.rep != b.rep

    def test_full_parabolic_gives_whole_cell(self):
        n = 3
        p = ParabolicPoint((1, 2), RationalMatrix.identity(n))
        vparams = sample_positive(w0(n), "lower", 17)
        point = gamma_p_point(p, vparams)
        assert point.rep == evaluate_params(vparams, "lower", n)

    def test_wrong_word_rejected(self):
        p = ParabolicPoint((1, 2), RationalMatrix.identity(3))
        with pytest.raises(ValueError):
            gamma_p_point(p, LusztigParams((1,), (F(1),)))


class TestZetaJ:
    def test_empty_parabolic_matches_zeta(self):
        g = sample_g_positive(3, seed=41)
        a = np.array(zeta_j(g, ()).rep)
        b = np.array(zeta(g).rep)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_full_parabolic_gives_identity(self):
        g = sample_g_positive(3, seed=42)
        rep = np.array(zeta_j(g, (1, 2)).rep)
        assert np.max(np.abs(rep - np.eye(3))) < 1e-9

    def test_sl3_single_letter_lands_in_two_parameter_cell(self):
        g = sample_g_positive(3, seed=43)
        rep = zeta_j(g, (1,)).rep
        # the coset cell for J={1} is spanned by letters (1, 2): its points
        # have vanishing lower-left corner
        assert abs(rep[2][0]) < 1e-9
        assert rep[1][0] > 0 and rep[2][1] > 0

    def test_perron_cross_check_agrees(self):
        for n in (3, 4):
            for seed in range(5):
                g = sample_g_positive(n, seed)
                for J in all_parabolic_sets(n):
                    chk = perron_line_check(g, J)
                    assert chk["ok"], chk
                    assert chk["max_deviation"] < 1e-8


class TestLeadingLines:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_stacked_determinants_match_per_subset(self, n):
        # bit-identical on the eigenbasis and representative from zeta
        # and on both parts of every split
        g = sample_g_positive(n, seed=n)
        lower, ef = flag_module._zeta_impl(g, flag_module.DEFAULT_TOLERANCES)
        for J in all_parabolic_sets(n):
            for rows in (ef.basis, lower, *split_cell(lower, J, atol=1e-8)):
                got = flag_module._leading_lines(rows, J)
                want = leading_lines_per_subset(rows, J)
                assert list(got) == list(want) == [j for j in range(1, n)
                                                   if j not in J]
                assert all(got[j].tobytes() == want[j].tobytes() for j in got)


class TestPartition:
    def test_trivial_parabolic_sets(self):
        g = sample_g_positive(3, seed=55)
        assert check_partition(g, ())
        assert check_partition(g, (1, 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sampled(self, n):
        for seed in range(5):
            g = sample_g_positive(n, seed)
            for J in all_parabolic_sets(n):
                assert check_partition(g, J)


def count_calls(monkeypatch, *names):
    """Replace the named ``tpflag.flag`` bindings by wrappers that count
    their calls; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(flag_module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(flag_module, name, counted)
    return counts


class TestOneClassificationPass:
    @pytest.fixture(autouse=True)
    def fresh_pass(self):
        # no kept pass leaks into or out of these tests
        flag_module._classify.cache_clear()
        yield
        flag_module._classify.cache_clear()

    def test_three_views_run_one_pass(self, monkeypatch):
        g = sample_g_positive(4, seed=5)
        counts = count_calls(monkeypatch, "eigen_flag", "is_g_positive")
        tops = []
        levels = flag_module._minor_levels
        monkeypatch.setattr(flag_module, "_minor_levels",
                            lambda rows, top: tops.append(top) or levels(rows, top))
        for J in all_parabolic_sets(4):
            counts.update(dict.fromkeys(counts, 0))
            tops.clear()
            zeta_j(g, J)
            perron_line_check(g, J)
            check_partition(g, J)
            assert counts == {"eigen_flag": 1, "is_g_positive": 1}
            # one all-minors pass, up to the largest wedge index outside J
            assert tops == [max((j for j in (1, 2, 3) if j not in J), default=0)]

    def test_new_J_tol_or_g_starts_a_new_pass(self, monkeypatch):
        g, other = sample_g_positive(4, seed=6), sample_g_positive(4, seed=7)
        loose = FloatTolerances(compare=1e-6)
        counts = count_calls(monkeypatch, "eigen_flag")
        steps = [((g, (1,)), 1), ((g, (1,)), 1), ((g, (2,)), 2),
                 ((g, (2,), loose), 3), ((other, (2,), loose), 4),
                 ((other, [2], loose), 4)]
        for args, passes in steps:
            check_partition(*args)
            assert counts["eigen_flag"] == passes

    def test_perron_dict_is_fresh_on_every_call(self):
        g, J = sample_g_positive(4, seed=8), (1,)
        first = perron_line_check(g, J)
        expected = copy.deepcopy(first)
        first["J"].append(99)
        first["per_j"].clear()
        first["ok"] = None
        assert perron_line_check(g, J) == expected

    def test_non_member_raises_on_every_call(self, monkeypatch):
        bad = RationalMatrix.from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
        counts = count_calls(monkeypatch, "is_g_positive")
        views = (zeta_j, perron_line_check, check_partition, zeta_j)
        for calls, view in enumerate(views, 1):
            with pytest.raises(NotPositive):
                view(bad, (1,))
            assert counts["is_g_positive"] == calls

    def test_list_J_matches_tuple_J(self, monkeypatch):
        g = sample_g_positive(5, seed=9)
        counts = count_calls(monkeypatch, "eigen_flag")
        for view in (zeta_j, perron_line_check, check_partition):
            assert view(g, [3, 1, 3]) == view(g, (1, 3))
        assert zeta_j(g, [3, 1]).J == (1, 3)
        assert counts["eigen_flag"] == 1

    def test_cli_classify_runs_one_pass(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(sample_g_positive(4, seed=10).to_json_dict()))
        counts = count_calls(monkeypatch, "eigen_flag")
        assert main(["flag", "classify", str(path), "--J", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["perron_check"]["ok"]
        assert counts["eigen_flag"] == 1

    def test_check_partition_sees_a_moved_coset_entry(self, monkeypatch):
        # a coset part whose leading columns no longer span the Borel's
        # leading subspaces must fail the check
        g = sample_g_positive(4, seed=3)
        J = (2,)
        assert check_partition(g, J)
        real_split = flag_module.split_cell

        def moved_split(u1, J, atol=None):
            first, second = real_split(u1, J, atol=atol)
            rows = [list(row) for row in first]
            rows[3][0] += 1e-3
            return tuple(tuple(row) for row in rows), second

        monkeypatch.setattr(flag_module, "split_cell", moved_split)
        flag_module._classify.cache_clear()
        assert not check_partition(g, J)

    def test_zeta_j_and_perron_check_share_the_verdict(self):
        # with a zero line tolerance every nonzero deviation fails; at this
        # sample every first basis deviation is nonzero
        g = sample_g_positive(4, seed=0)
        strict = FloatTolerances(line_agreement=0.0)
        for J in all_parabolic_sets(4):
            outside = [j for j in range(1, 4) if j not in J]
            chk = perron_line_check(g, J, strict)
            assert list(chk["per_j"]) == outside
            if not outside:
                assert chk["ok"]
                assert zeta_j(g, J, strict).J == J
                continue
            assert chk["ok"] is False
            with pytest.raises(FlagComputationError,
                               match=rf"^wedge index {outside[0]}: leading eigenline "
                                     r"deviates from the eigenbasis wedge by \S+$"):
                zeta_j(g, J, strict)
