"""Independent reference implementations used only to cross-check the
package.  Deliberately written with different algorithms than the code
under test (permutation sums instead of elimination, descent recursion
instead of the greedy word builder, brute force over every minor
instead of the minimal-minor positivity tests, central finite
differences instead of the symbolic Jacobian)."""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from tpflag import (DecompositionUnavailable, gauss_decompose,
                    is_totally_positive_unitriangular)
from tpflag.weyl import WeylElement


def permutation_sum_det(rows) -> Fraction:
    """Sum over permutations with explicit inversion-count signs."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Fraction(1) if inversions % 2 == 0 else Fraction(-1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += term
    return total


def permutation_sum_minor(m, rowset, colset) -> Fraction:
    sub = [[m.rows[r - 1][c - 1] for c in colset] for r in rowset]
    return permutation_sum_det(sub)


def all_reduced_words(w: WeylElement) -> set:
    """Every reduced word of w, by recursion over left descents."""
    pos = {v: i for i, v in enumerate(w.oneline)}
    descents = [i for i in range(1, w.n) if pos[i] > pos[i + 1]]
    if not descents:
        return {()}
    words = set()
    for i in descents:
        rest = WeylElement.simple(i, w.n) * w
        words.update((i,) + tail for tail in all_reduced_words(rest))
    return words


def nonvanishing_pairs(n: int, sign: str) -> set:
    """Index pairs whose minor is not identically zero on the unit
    triangular group: rows dominate columns entrywise on the lower side
    (r_i >= c_i after sorting), the reverse on the upper side."""
    out = set()
    for k in range(1, n + 1):
        for rows in combinations(range(1, n + 1), k):
            for cols in combinations(range(1, n + 1), k):
                if sign == "lower":
                    ok = all(r >= c for r, c in zip(rows, cols))
                else:
                    ok = all(r <= c for r, c in zip(rows, cols))
                if ok:
                    out.add((rows, cols))
    return out


def all_pairs(n: int) -> list:
    """Every (rows, cols) pair of equal-size index sets, by size, then
    colexicographically."""
    out = []
    for k in range(1, n + 1):
        subsets = sorted(combinations(range(1, n + 1), k), key=lambda t: t[::-1])
        out.extend((rows, cols) for rows in subsets for cols in subsets)
    return out


def _is_interval(idx) -> bool:
    return idx == tuple(range(idx[0], idx[0] + len(idx)))


def corner_pairs(n: int, sign: str) -> set:
    """The Fomin-Zelevinsky corner minors, picked out of the nonvanishing
    pairs: both index sets are intervals, the columns start at 1 and the
    rows do not (lower side; the upper side is the transpose)."""
    out = set()
    for rows, cols in nonvanishing_pairs(n, sign):
        low, high = (rows, cols) if sign == "lower" else (cols, rows)
        if (_is_interval(rows) and _is_interval(cols)
                and high[0] == 1 and low[0] > 1):
            out.add((rows, cols))
    return out


def initial_pairs(n: int) -> set:
    """The Gasca-Peña initial minors: both index sets are intervals and
    at least one of them starts at 1."""
    return {(rows, cols) for rows, cols in all_pairs(n)
            if _is_interval(rows) and _is_interval(cols) and 1 in (rows[0], cols[0])}


def brute_force_unitriangular(u, sign: str) -> bool:
    """Every minor that is not identically zero on the unit-triangular
    group of the given sign is > 0."""
    return all(u.minor(rows, cols) > 0 for rows, cols in nonvanishing_pairs(u.n, sign))


def brute_force_g_positive(g) -> bool:
    """The classical criterion: det g = 1 and every minor of every size
    is > 0."""
    return g.det() == 1 and all(g.minor(rows, cols) > 0 for rows, cols in all_pairs(g.n))


def factorization_positive(g) -> bool:
    """The Gaussian-factor route: g = upper * torus * lower exists, the
    torus is positive and both unit-triangular factors pass their own
    positivity tests.  Cheap enough for n = 7, 8, where brute force over
    every minor is not."""
    if g.det() != 1:
        return False
    try:
        factors = gauss_decompose(g)
    except DecompositionUnavailable:
        return False
    return (all(d > 0 for d in factors.torus.diagonal_entries())
            and is_totally_positive_unitriangular(factors.upper, "upper").member
            and is_totally_positive_unitriangular(factors.lower, "lower").member)


def fd_jacobian_error(zsys, R) -> float:
    """Largest gap between the symbolic Jacobian of a ZSystem and central
    finite differences of its z values at R, relative to the largest
    Jacobian entry (or 1)."""
    analytic = zsys.jacobian(R)
    dim = zsys.dim
    fd = np.zeros((dim, dim))
    for i in range(dim):
        h = 1e-6 * max(1.0, abs(R[i]))
        rp, rm = list(R), list(R)
        rp[i] += h
        rm[i] -= h
        fd[:, i] = (zsys.z_values(rp) - zsys.z_values(rm)) / (2 * h)
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - fd))) / scale
