"""Exact rational dense linear algebra: minors, the unit-upper * torus *
unit-lower Gaussian decomposition, and exterior (wedge) powers.

Matrices are immutable and carry ``fractions.Fraction`` entries, so every
identity in this module is exact: no tolerances appear anywhere.  Entry
*storage* is plain Python (``m.rows[i][j]``, 0-based), but the index sets
handed to :func:`minor` and reported in witnesses are 1-based, matching
the classical Delta_{rows,cols} notation used throughout the package.

Row/column subsets indexing exterior powers are ordered colexicographically
(compare largest elements first); the order is fixed once here because
downstream code reads specific wedge coordinates.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DecompositionUnavailable

#: Largest group-element dimension accepted at external interfaces.  Wedge
#: matrices may of course be larger; the cap keeps exact arithmetic at desk
#: scale.
MAX_DIMENSION = 8


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square matrix over exact rationals.

    >>> m = RationalMatrix.from_rows([[1, 0], [Fraction(1, 2), 1]])
    >>> m.rows[1][0]
    Fraction(1, 2)
    >>> m.det()
    Fraction(1, 1)
    """

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("matrix must be non-empty")
        coerced = tuple(tuple(_as_fraction(x) for x in row) for row in self.rows)
        for row in coerced:
            if len(row) != n:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", coerced)

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, entries) -> "RationalMatrix":
        entries = [_as_fraction(x) for x in entries]
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else Fraction(0) for j in range(n))
                         for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return RationalMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.rows)))

    def det(self) -> Fraction:
        return _det(self.rows)

    def inverse(self) -> "RationalMatrix":
        """Exact inverse via Gauss-Jordan elimination."""
        n = self.n
        a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            a[col], a[pivot] = a[pivot], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return RationalMatrix(tuple(tuple(row[n:]) for row in a))

    def minor(self, rowset, colset) -> Fraction:
        """Determinant of the submatrix on 1-based, strictly increasing
        index sets of equal size."""
        rows = tuple(rowset)
        cols = tuple(colset)
        if len(rows) != len(cols) or not rows:
            raise ValueError("row and column sets must be non-empty and of equal size")
        for idx in (rows, cols):
            if any(not 1 <= i <= self.n for i in idx):
                raise ValueError(f"index out of range 1..{self.n}: {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index set must be strictly increasing: {idx}")
        return _submatrix_det(self.rows, rows, cols)

    def is_unit_triangular(self, sign: str) -> bool:
        """True for unit lower ('lower') or unit upper ('upper')
        triangular matrices; exact check."""
        check_upper_zero = sign == "lower"
        if sign not in ("lower", "upper"):
            raise ValueError("sign must be 'lower' or 'upper'")
        for i in range(self.n):
            if self.rows[i][i] != 1:
                return False
            for j in range(i + 1, self.n):
                off = self.rows[i][j] if check_upper_zero else self.rows[j][i]
                if off != 0:
                    return False
        return True

    def is_diagonal(self) -> bool:
        return all(self.rows[i][j] == 0
                   for i in range(self.n) for j in range(self.n) if i != j)

    def diagonal_entries(self) -> tuple:
        return tuple(self.rows[i][i] for i in range(self.n))

    def to_float(self):
        """Entries as nested tuples of floats."""
        return tuple(tuple(float(x) for x in row) for row in self.rows)

    def to_json_dict(self) -> dict:
        return {"n": self.n,
                "entries": [[str(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalMatrix":
        """Parse the on-disk format ``{"n": int, "entries": [["p/q",...]]}``.

        The round trip through :meth:`to_json_dict` is bit-exact.  Group
        elements are capped at dimension MAX_DIMENSION here.
        """
        try:
            n = int(data["n"])
            entries = data["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed matrix object: {exc}") from exc
        if not 2 <= n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 2..{MAX_DIMENSION}, got {n}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("entries shape does not match n")
        try:
            rows = tuple(tuple(Fraction(str(x)) for x in row) for row in entries)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational entry: {exc}") from exc
        return cls(rows)

    def __str__(self) -> str:
        cells = [[str(x) for x in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]"
                         for row in cells)


def _det(a) -> Fraction:
    """Exact determinant of a square list-of-lists of rationals (ints or
    Fractions; the input is not modified).

    Each row is scaled to integers by the lcm of its denominators, then
    Bareiss fraction-free elimination (Math. Comp. 22, 1968) runs on
    Python ints: every step divides exactly by the previous pivot, so no
    gcd is taken until the one final Fraction.  A zero pivot is replaced
    by a later row with a nonzero entry in that column (a row swap); when
    there is none, the determinant is 0."""
    scale = 1
    m = []
    for row in a:
        d = math.lcm(*(x.denominator for x in row))
        scale *= d
        m.append([x.numerator * (d // x.denominator) for x in row])
    sign = 1
    prev = 1
    while len(m) > 1:
        if m[0][0] == 0:
            swap = next((r for r in range(1, len(m)) if m[r][0] != 0), None)
            if swap is None:
                return Fraction(0)
            m[0], m[swap] = m[swap], m[0]
            sign = -sign
        pivot_row = m[0]
        pivot = pivot_row[0]
        m = [[(x * pivot - row[0] * y) // prev
              for x, y in zip(row[1:], pivot_row[1:])] for row in m[1:]]
        prev = pivot
    return Fraction(sign * m[0][0], scale)


def _submatrix_det(rows, rowset, colset) -> Fraction:
    """Unchecked :meth:`RationalMatrix.minor` on a row sequence."""
    return _det([[rows[r - 1][c - 1] for c in colset] for r in rowset])


def minor(m: RationalMatrix, rowset, colset) -> Fraction:
    """Module-level alias for :meth:`RationalMatrix.minor`."""
    return m.minor(rowset, colset)


def float_det(rows) -> float:
    """Determinant of a small float matrix by Gaussian elimination with
    partial pivoting; shared by the float codepaths."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1.0
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            return 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        det *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0.0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return sign * det


# ---------------------------------------------------------------------------
# Gaussian decomposition g = upper * torus * lower


@dataclass(frozen=True)
class GaussFactors:
    """Factors of g = upper * torus * lower with unit-triangular upper and
    lower and diagonal torus; the product reproduces the input exactly."""

    upper: RationalMatrix
    torus: RationalMatrix
    lower: RationalMatrix

    def product(self) -> RationalMatrix:
        return self.upper @ self.torus @ self.lower


def gauss_decompose(g: RationalMatrix) -> GaussFactors:
    """Factor g = upper * torus * lower (unit upper, diagonal, unit lower).

    Exists iff all trailing principal minors (rows and columns {k..n}) are
    nonzero; otherwise raises :class:`DecompositionUnavailable`.  Computed
    by elimination on g from the last column back: row operations upward
    clear the entries above each pivot, their multipliers form the upper
    factor, and the lower triangle left behind is torus * lower.  The
    pivot at column k is the ratio of the trailing minors on {k..n} and
    {k+1..n}, so it vanishes first where a trailing minor does.
    """
    n = g.n
    a = [list(row) for row in g.rows]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in reversed(range(n)):
        pivot = a[col][col]
        if pivot == 0:
            raise DecompositionUnavailable(
                f"trailing principal minor on rows/cols {{{col + 1}..{n}}} vanishes")
        for r in range(col):
            if a[r][col] != 0:
                f = a[r][col] / pivot
                upper[r][col] = f
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return GaussFactors(upper=RationalMatrix.from_rows(upper),
                        torus=RationalMatrix.diagonal(a[i][i] for i in range(n)),
                        lower=RationalMatrix.from_rows([x / row[i] for x in row]
                                                       for i, row in enumerate(a)))


# ---------------------------------------------------------------------------
# Exterior powers


def colex_subsets(n: int, j: int) -> tuple:
    """All j-element subsets of {1..n} as 1-based tuples, in
    colexicographic order (largest elements compared first).

    >>> colex_subsets(4, 2)
    ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    """
    subs = [tuple(i + 1 for i in c) for c in combinations(range(n), j)]
    return tuple(sorted(subs, key=lambda t: t[::-1]))


def exterior_power(m: RationalMatrix, j: int) -> RationalMatrix:
    """Matrix of the induced action on the j-th wedge power: the
    C(n,j) x C(n,j) matrix of all j x j minors, rows and columns indexed
    by colexicographic j-subsets.  Multiplicative in m (Cauchy-Binet)."""
    n = m.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"wedge index must be in 1..{n - 1}, got {j}")
    subs = colex_subsets(n, j)
    return RationalMatrix(tuple(
        tuple(_submatrix_det(m.rows, r, c) for c in subs) for r in subs))


# ---------------------------------------------------------------------------
# Exact roots of rationals (used to rebuild torus matrices from coordinate
# ratios; only perfect powers have exact results)


def _int_nth_root(value: int, k: int):
    """Exact integer k-th root of a positive integer, or None."""
    if value <= 0:
        return None
    if k == 2:
        r = math.isqrt(value)
        return r if r * r == value else None
    lo, hi = 1, 1 << (value.bit_length() // k + 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** k == value else None


def perfect_nth_root(x: Fraction, k: int):
    """Fraction r with r**k == x, or None when x is not a perfect k-th
    power of a rational.  x must be positive."""
    if x <= 0:
        return None
    num = _int_nth_root(x.numerator, k)
    den = _int_nth_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)
