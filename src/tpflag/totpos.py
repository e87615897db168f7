"""Membership tests for the totally positive sub-semigroups of SL_n and
coordinates on the cells of unit-triangular matrices.

A cell point is an ordered product of elementary factors along a reduced
word: letter i with parameter a contributes I + a*E_{i+1,i} on the lower
side and I + a*E_{i,i+1} on the upper side, and the product is formed
by column updates.  With the full-reversal word and strictly positive
parameters these products sweep out exactly the totally positive
unit-triangular matrices, which is what the membership tests
characterize via minors.

Each membership test checks only a minimal set of minors: the n(n-1)/2
corner minors for a unit-triangular matrix (Fomin & Zelevinsky) and the
n^2 initial minors for an element of SL_n (Gasca & Peña).  All of them
lie on contiguous rows against columns {1..k} of the matrix or of its
transpose, so one fraction-free table pass yields them size by size.
The brute-force criteria live on as oracles in ``tests/oracles.py``.

Everything here is exact rational arithmetic.  Cell evaluation and
parameter extraction also run on floats, for the flag pipeline;
extraction then needs an explicit tolerance.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import NotInCell
from .exactmat import MAX_DIMENSION, RationalMatrix, _submatrix_det, float_det
from .prng import SplitMix64, derive_seed
from .weyl import WeylElement, longest_element, reduced_word

_SIGNS = ("lower", "upper")


def _check_sign(sign: str):
    if sign not in _SIGNS:
        raise ValueError(f"sign must be one of {_SIGNS}, got {sign!r}")


@dataclass(frozen=True)
class LusztigParams:
    """A reduced word together with one strictly positive parameter per
    letter: coordinates on a cell of unit-triangular matrices."""

    word: tuple
    params: tuple

    def __post_init__(self):
        word = tuple(int(i) for i in self.word)
        params = tuple(self.params)
        if len(word) != len(params):
            raise ValueError("word and params must have equal length")
        if any(p <= 0 for p in params):
            raise ValueError("all parameters must be strictly positive")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "params", params)

    def to_json_dict(self) -> dict:
        return {"word": list(self.word), "params": [str(p) for p in self.params]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LusztigParams":
        try:
            word = [int(i) for i in data["word"]]
            params = [Fraction(str(p)) for p in data["params"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed params object: {exc}") from exc
        return cls(tuple(word), tuple(params))


@dataclass(frozen=True)
class MinorWitness:
    """The first violated constraint of a failed membership test: the
    1-based row/column sets of the offending minor and its value."""

    rows: tuple
    cols: tuple
    value: object
    note: str = ""

    def describe(self) -> str:
        base = f"minor rows {set(self.rows)} cols {set(self.cols)} = {self.value}"
        return f"{base} ({self.note})" if self.note else base

    def to_json_dict(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols),
                "value": str(self.value), "note": self.note}


@dataclass(frozen=True)
class PositivityVerdict:
    member: bool
    witness: Optional[MinorWitness] = None

    def __post_init__(self):
        if self.member == (self.witness is not None):
            raise ValueError("witness must be present exactly when member is false")

    def to_json_dict(self) -> dict:
        return {"member": self.member,
                "witness": self.witness.to_json_dict() if self.witness else None}


# ---------------------------------------------------------------------------
# Evaluation: parameters -> matrix


def _evaluate_rows(word, params, sign: str, n: int, num) -> list:
    """Rows of the cell point along ``word`` in ``num`` arithmetic
    (``Fraction`` or ``float``).  Right-multiplying by the factor of
    letter i adds a times one column to its neighbour."""
    _check_sign(sign)
    rows = [[num(r == c) for c in range(n)] for r in range(n)]
    for i, a in zip(word, params):
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter out of range 1..{n - 1}: {i}")
        a = num(a)
        src, dst = (i, i - 1) if sign == "lower" else (i - 1, i)
        for r in range(n):
            rows[r][dst] += a * rows[r][src]
    return rows


def evaluate_params(p: LusztigParams, sign: str, n: int) -> RationalMatrix:
    """Ordered product of elementary factors along the word, left to
    right, formed exactly by column updates.  The result is unit
    triangular of the requested sign; with a reduced word for the full
    reversal and positive parameters it is totally positive.
    """
    return RationalMatrix(_evaluate_rows(p.word, p.params, sign, n, Fraction))


# ---------------------------------------------------------------------------
# Extraction: matrix -> parameters
#
# The last parameter of a product along a reduced word peels off as a
# ratio of two minors.  For u in the cell of w with last letter i, the
# wedge of the first i columns of u is supported on row sets dominated
# by sorted(w{1..i}); stripping the last factor u -> u * y_i(-t) kills
# the coordinate at exactly that extreme row set, which forces
#
#     t = minor(u, R, {1..i}) / minor(u, R, {1..i-1, i+1}),
#     R = sorted(w({1..i})).
#
# Peeling right to left, what is left at letter k lies in the cell of
# the prefix product of letters 1..k, so one walk over the word (swap
# positions i, i+1 of the one-line form at letter i) gives every R and
# checks the word: reduced iff each swap puts the larger value first.  The upper side peels the transpose
# along the reversed word, which spells w^-1.  A vanishing denominator,
# a non-positive parameter, or a non-identity remainder all mean
# "outside the cell".


def extract_params(u, w: WeylElement, sign: str,
                   word: Optional[tuple] = None,
                   atol: Optional[float] = None) -> LusztigParams:
    """Invert :func:`evaluate_params`: recover the parameters of ``u`` on
    the cell of ``w``, along the canonical reduced word unless an explicit
    reduced ``word`` is given: one walk over the word checks it and gives
    every peeling minor, and the upper side peels the transpose.

    Raises :class:`NotInCell` when the peeling forces a zero, negative,
    or inconsistent parameter (that is, u lies outside the cell).  ``u``
    may be a :class:`RationalMatrix` (exact mode, default) or a nested
    float sequence with ``atol`` supplied for the consistency checks.
    """
    _check_sign(sign)
    n = w.n
    word = reduced_word(w) if word is None else tuple(word)
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter out of range 1..{n - 1}: {i}")
    lower = sign == "lower"
    peel, target = (word, w) if lower else (word[::-1], w.inverse())
    perm, rsets, reduced = list(range(1, n + 1)), [], True
    for i in peel:
        reduced = reduced and perm[i - 1] < perm[i]
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        rsets.append(tuple(sorted(perm[:i])))
    if not reduced or tuple(perm) != target.oneline:
        raise ValueError("word is not a reduced word for w")

    exact = isinstance(u, RationalMatrix)
    if exact:
        if u.n != n:
            raise ValueError("matrix size does not match w")
        if not u.is_unit_triangular(sign):
            raise ValueError(f"input is not unit {sign} triangular")
        rows = [list(row) for row in u.rows]
    else:
        if atol is None:
            raise ValueError("float extraction requires atol")
        rows = [[float(x) for x in row] for row in u]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix size does not match w")
    if not lower:
        rows = [list(col) for col in zip(*rows)]

    params = [None] * len(peel)
    zero = 0 if exact else 1e-13
    scale = 1 if exact else max(1.0, max(abs(x) for r in rows for x in r))
    for k in range(len(peel) - 1, -1, -1):
        i = peel[k]
        num = _minor_of_rows(rows, rsets[k], tuple(range(1, i + 1)), exact)
        den = _minor_of_rows(rows, rsets[k], tuple(range(1, i)) + (i + 1,), exact)
        if abs(den) <= zero * scale:
            raise NotInCell(f"peeling letter {i}: pivot minor vanishes "
                            "(matrix is outside the cell)")
        t = num / den
        if abs(t) <= zero:
            raise NotInCell(f"parameter at word position {k} is forced to zero")
        params[k] = t
        for r in range(n):
            rows[r][i - 1] -= t * rows[r][i]

    # fully peeled: the remainder must be the identity
    if exact:
        if any(rows[r][c] != (1 if r == c else 0)
               for r in range(n) for c in range(n)):
            raise NotInCell("parameters do not reproduce the matrix "
                            "(matrix is outside the cell)")
    else:
        err = max(abs(rows[r][c] - (1.0 if r == c else 0.0))
                  for r in range(n) for c in range(n))
        if err > atol * scale:
            raise NotInCell(f"parameters reproduce the matrix only to {err:.3g}")
    bad = [t for t in params if t <= 0]
    if bad:
        raise NotInCell(f"non-positive parameter(s) forced: {bad}")
    return LusztigParams(word, tuple(params if lower else params[::-1]))


def _minor_of_rows(rows, rset, cset, exact):
    if exact:
        return _submatrix_det(rows, rset, cset)
    return float_det([[rows[r - 1][c - 1] for c in cset] for r in rset])


# ---------------------------------------------------------------------------
# Positivity tests


def _interval(start: int, k: int) -> tuple:
    return tuple(range(start, start + k))


@lru_cache(maxsize=None)
def relevant_minor_pairs(n: int, sign: str) -> tuple:
    """The n(n-1)/2 corner minors that decide total positivity on the
    unit-triangular group of the given sign (Fomin & Zelevinsky, Math.
    Intelligencer 22, 2000): on the lower side rows {j+1..j+k} against
    columns {1..k} for k >= 1, j >= 1, j + k <= n; the upper side is the
    transpose.  Pairs are ordered by size, then colexicographically.
    """
    _check_sign(sign)
    pairs = tuple((_interval(j + 1, k), _interval(1, k))
                  for k in range(1, n) for j in range(1, n - k + 1))
    if sign == "upper":
        pairs = tuple((cols, rows) for rows, cols in pairs)
    return pairs


def _check_dimension(n: int):
    if n > MAX_DIMENSION:
        raise ValueError(f"positivity tests are limited to n <= {MAX_DIMENSION}")


def _window_levels(rows):
    """Yield (level, scales) for k = 1..n: level[s][j] is the minor on rows
    s+1..s+k against columns {1..k-1, k+j}, times the lcms ``scales`` of
    those rows' denominators.  Level k+1 divides exactly by the entries
    E_{k-1}(s, k-1), s >= 1, of level k-1 (Desnanot-Jacobi): E_{k+1}(s, c) =
    (E_k(s, k) E_k(s+1, c) - E_k(s, c) E_k(s+1, k)) / E_{k-1}(s+1, k-1)."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    level = [[x.numerator * (d // x.denominator) for x in row]
             for row, d in zip(rows, scales)]
    prev = [[1]] * len(level)
    while level:
        yield level, scales
        level, prev = ([[(top[0] * bot[j] - top[j] * bot[0]) // below[0]
                         for j in range(1, len(top))]
                        for top, bot, below in zip(level, level[1:], prev[1:])], level)


def _first_nonpositive_window(m: RationalMatrix, transposes) -> PositivityVerdict:
    """The first minor <= 0 on k < n contiguous rows against columns {1..k}:
    by k, then over m or m^T as ``transposes`` says, then top to bottom.
    The tables step in lockstep and stop before such a minor divides."""
    tables = [_window_levels(tuple(zip(*m.rows)) if t else m.rows) for t in transposes]
    for k, levels in zip(range(1, m.n), zip(*tables)):
        for (level, scales), transposed in zip(levels, transposes):
            for s, window in enumerate(level):
                if window[0] <= 0:
                    pair = (_interval(s + 1, k), _interval(1, k))
                    value = Fraction(window[0], math.prod(scales[s:s + k]))
                    return PositivityVerdict(False, MinorWitness(
                        *(pair[::-1] if transposed else pair), value, "must be > 0"))
    return PositivityVerdict(True)


def is_totally_positive_unitriangular(u: RationalMatrix, sign: str) -> PositivityVerdict:
    """Membership in the totally positive unit-triangular semigroup: the
    corner minors of :func:`relevant_minor_pairs`, from a table pass over u
    (u^T on the upper side), are > 0.  The witness is the first that is not."""
    _check_sign(sign)
    _check_dimension(u.n)
    if not u.is_unit_triangular(sign):
        raise ValueError(f"input is not unit {sign} triangular")
    return _first_nonpositive_window(u, (sign == "upper",))


def is_g_positive(g: RationalMatrix) -> PositivityVerdict:
    """Membership in the totally positive semigroup of SL_n.

    Determinant != 1 is a negative verdict, not an error.  Otherwise g is
    totally positive iff its n^2 initial minors, from table passes over g^T
    then g, are strictly positive (Gasca & Peña, Linear Algebra Appl. 165,
    1992); the witness is the first one, by size then colex, that is not.
    """
    _check_dimension(g.n)
    det = g.det()
    if det != 1:
        full = tuple(range(1, g.n + 1))
        return PositivityVerdict(False, MinorWitness(full, full, det,
                                                     "determinant must be 1"))
    # the last initial minor is det g itself, already known to be 1
    return _first_nonpositive_window(g, (True, False))


# ---------------------------------------------------------------------------
# Deterministic sampling


def sample_positive(w: WeylElement, sign: str, seed: int, scale: int = 4) -> LusztigParams:
    """Pseudo-random positive rational parameters on the canonical word
    of w; reproducible from the seed."""
    _check_sign(sign)
    word = reduced_word(w)
    rng = SplitMix64(seed)
    return LusztigParams(word, tuple(rng.fraction(scale) for _ in word))


def sample_torus_matrix(n: int, seed: int, scale: int = 4) -> RationalMatrix:
    """Random positive diagonal matrix with exact determinant 1: the
    first n-1 entries are sampled, the last is forced."""
    rng = SplitMix64(seed)
    entries = [rng.fraction(scale) for _ in range(n - 1)]
    prod = Fraction(1)
    for e in entries:
        prod *= e
    entries.append(1 / prod)
    return RationalMatrix.diagonal(entries)


def sample_g_positive(n: int, seed: int, scale: int = 4) -> RationalMatrix:
    """Random element of the totally positive semigroup, built as
    (upper cell point) * (positive torus) * (lower cell point)."""
    w0 = longest_element(range(1, n), n)
    upper = evaluate_params(sample_positive(w0, "upper", derive_seed(seed, 0), scale),
                            "upper", n)
    torus = sample_torus_matrix(n, derive_seed(seed, 1), scale)
    lower = evaluate_params(sample_positive(w0, "lower", derive_seed(seed, 2), scale),
                            "lower", n)
    return upper @ torus @ lower
