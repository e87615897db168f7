"""Totally positive full and partial flag manifolds.

A positive Borel is represented by its unique totally positive
unit-lower representative; a positive parabolic of type J by its unique
representative in the cell of w0*w0^J.  The classifying map sends a
totally positive g to the Borel spanned by its eigenbasis flag (float
eigenwork), the fibre over a Borel is coordinatized exactly through the
Gaussian decomposition and the torus target map, and parabolic
classification is cross-checked against leading eigenlines of wedge
powers.  ``zeta_j``, ``perron_line_check`` and ``check_partition`` are
views of one classification pass per (g, J), which keeps its last
result.

This module is the float zone of the package: eigen decompositions are
irrational, so tolerances live here and are all configurable.  Exact
rational paths are used wherever the data allows it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (EigenvalueCollision, FlagComputationError,
                     MembershipViolation, NotInCell, NotInFibre, NotInTorusSet,
                     NotPositive)
from .exactmat import (RationalMatrix, colex_subsets, exterior_power, float_det,
                       gauss_decompose)
from .theta import (SolverConfig, TorusPoint, format_scalar, theta_forward,
                    theta_inverse_numeric, theta_inverse_sl2, theta_inverse_sl3, np)
from .totpos import (LusztigParams, MinorWitness, evaluate_params, extract_params,
                     is_g_positive, is_totally_positive_unitriangular,
                     relevant_minor_pairs, _evaluate_rows)
from .weyl import longest_element, reduced_word


def _sorted_letters(J) -> tuple:
    return tuple(sorted(set(int(j) for j in J)))


def _float_rows(rows) -> tuple:
    return tuple(tuple(float(x) for x in row) for row in rows)


@dataclass(frozen=True)
class FloatTolerances:
    """All float thresholds of the flag pipeline, in one place."""

    eig_gap: float = 1e-10          # relative eigenvalue separation
    eig_imag: float = 1e-9          # allowed imaginary residue
    eig_residual: float = 1e-8      # |g v - lambda v| tolerance
    pivot: float = 1e-12            # smallest usable LDU pivot (relative)
    triangularity: float = 1e-9     # fibre check on conjugated matrix
    positivity_margin: float = 1e-12
    split_atol: float = 1e-8        # float parameter-extraction consistency
    line_agreement: float = 1e-8    # wedge-line cross-check
    compare: float = 1e-9           # float representative comparisons
    snap: float = 1e-9              # continued-fraction rationalization


DEFAULT_TOLERANCES = FloatTolerances()


@dataclass(frozen=True)
class EigenFlag:
    """Strictly decreasing positive eigenvalues and the matrix whose
    columns are the matching eigenvectors."""

    eigenvalues: tuple
    basis: tuple  # row-major n x n floats; column k is the k-th eigenvector


@dataclass(frozen=True)
class FlagPoint:
    """A positive Borel, given by its unit-lower totally positive
    representative.  Exact representatives are validated on
    construction; float ones (from the eigen pipeline) are validated by
    their producer."""

    rep: object  # RationalMatrix, or nested float tuples

    def __post_init__(self):
        rep = self.rep
        if isinstance(rep, RationalMatrix):
            verdict = is_totally_positive_unitriangular(rep, "lower")
            if not verdict.member:
                raise NotPositive("flag representative is not totally positive: "
                                  + verdict.witness.describe(), verdict)
        else:
            object.__setattr__(self, "rep", _float_rows(rep))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.rep, RationalMatrix)

    def rep_rows(self):
        return self.rep.to_float() if self.is_exact else self.rep

    def to_json_dict(self) -> dict:
        if self.is_exact:
            return {"rep": self.rep.to_json_dict()}
        return {"rep_float": [list(row) for row in self.rep]}


@dataclass(frozen=True)
class ParabolicPoint:
    """A positive parabolic of type J, by its representative in the cell
    of w0 * w0^J."""

    J: tuple
    rep: object

    def __post_init__(self):
        J = _sorted_letters(self.J)
        object.__setattr__(self, "J", J)
        rep = self.rep
        if isinstance(rep, RationalMatrix):
            w0 = longest_element(range(1, rep.n), rep.n)
            w0J = longest_element(J, rep.n)
            extract_params(rep, w0 * w0J, "lower")  # raises NotInCell if invalid
        else:
            object.__setattr__(self, "rep", _float_rows(rep))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.rep, RationalMatrix)

    def rep_rows(self):
        return self.rep.to_float() if self.is_exact else self.rep

    def to_json_dict(self) -> dict:
        out = {"J": list(self.J)}
        if self.is_exact:
            out["rep"] = self.rep.to_json_dict()
        else:
            out["rep_float"] = [list(row) for row in self.rep]
        return out


@dataclass(frozen=True)
class CellCoordinates:
    """Image of a fibre element: positive cell parameters of the unit
    upper part and the positive target vector of the torus part."""

    v: LusztigParams
    zvec: tuple

    def __post_init__(self):
        if any(z <= 0 for z in self.zvec):
            raise ValueError("target components must be positive")
        object.__setattr__(self, "zvec", tuple(self.zvec))

    def to_json_dict(self) -> dict:
        return {"v": self.v.to_json_dict(),
                "zvec": [format_scalar(z) for z in self.zvec]}


# ---------------------------------------------------------------------------
# Eigen pipeline


def eigen_flag(g: RationalMatrix, tol: FloatTolerances = DEFAULT_TOLERANCES) -> EigenFlag:
    """Float eigen decomposition with eigenvalues sorted descending.

    Raises :class:`EigenvalueCollision` when eigenvalues are not real or
    their relative gaps fall under the threshold: totally positive
    matrices have distinct positive eigenvalues, so a collision means the
    computation lost precision, not that the math failed.
    """
    a = np.array(g.to_float())
    values, vectors = np.linalg.eig(a)
    scale = max(1.0, float(np.max(np.abs(values))))
    if float(np.max(np.abs(values.imag))) > tol.eig_imag * scale:
        raise EigenvalueCollision("complex eigenvalue pair (collision within "
                                  "precision)")
    values = values.real
    vectors = vectors.real
    order = np.argsort(-values)
    values = values[order]
    vectors = vectors[:, order]
    if values[-1] <= 0:
        raise FlagComputationError("non-positive eigenvalue computed for a "
                                   "totally positive matrix")
    for k in range(len(values) - 1):
        if values[k] - values[k + 1] <= tol.eig_gap * max(1.0, abs(values[k])):
            raise EigenvalueCollision(
                f"eigenvalue gap under threshold between rank {k} and {k + 1}")
    for k in range(vectors.shape[1]):
        col = _normalize_line(vectors[:, k])
        vectors[:, k] = col
        resid = float(np.max(np.abs(a @ col - values[k] * col)))
        if resid > tol.eig_residual * max(1.0, abs(values[k])):
            raise FlagComputationError(f"eigenpair residual too large: {resid:.3g}")
    return EigenFlag(tuple(float(v) for v in values), _float_rows(vectors))


def _normalize_line(v: np.ndarray) -> np.ndarray:
    """Unit length, largest component positive: one vector per line."""
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise FlagComputationError("zero vector where a line was expected")
    v = v / norm
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    return v


def _ldu_unit_lower(m: np.ndarray, tol: FloatTolerances) -> np.ndarray:
    """The unit-lower factor of the (lower * diag * upper) elimination;
    column scaling of the input does not change it."""
    a = m.astype(float).copy()
    n = a.shape[0]
    lower = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    for col in range(n):
        pivot = a[col, col]
        if abs(pivot) <= tol.pivot * scale:
            raise FlagComputationError(f"vanishing pivot at column {col} in LDU")
        for r in range(col + 1, n):
            f = a[r, col] / pivot
            lower[r, col] = f
            a[r, col:] -= f * a[col, col:]
    return lower


def _float_membership(m, pairs, margin) -> tuple:
    """(ok, witness) for the float minor test on a unit lower matrix over
    ``pairs`` (the lower :func:`relevant_minor_pairs`).  Every minor must
    exceed ``margin`` and be finite."""
    for rows, cols in pairs:
        sub = [[m[r - 1][c - 1] for c in cols] for r in rows]
        value = float_det(sub)
        if not margin < value < math.inf:
            return False, MinorWitness(rows, cols, value, "must be > 0 (float)")
    return True, None


def _zeta_impl(g: RationalMatrix, tol: FloatTolerances):
    verdict = is_g_positive(g)
    if not verdict.member:
        raise NotPositive("input is not in the totally positive semigroup: "
                          + verdict.witness.describe(), verdict)
    ef = eigen_flag(g, tol)
    basis = np.array(ef.basis)
    lower = _ldu_unit_lower(basis, tol)

    conj = np.linalg.solve(lower, np.array(g.to_float()) @ lower)
    sub = max((abs(conj[i, j]) for j in range(g.n) for i in range(j + 1, g.n)),
              default=0.0)
    if sub > tol.triangularity * max(1.0, float(np.max(np.abs(conj)))):
        raise FlagComputationError(
            f"conjugated matrix is not upper triangular (residue {sub:.3g})")

    ok, witness = _float_membership([list(r) for r in lower],
                                    relevant_minor_pairs(g.n, "lower"),
                                    tol.positivity_margin)
    if not ok:
        raise FlagComputationError("float representative failed the positivity "
                                   "test: " + witness.describe())
    return lower, ef


def snap_matrix(rows, tol: float = DEFAULT_TOLERANCES.snap) -> RationalMatrix:
    """Rationalize a float unit-lower matrix by continued fractions:
    smallest-denominator rational within ``tol`` of each subdiagonal
    entry; diagonal and upper part are forced exactly."""
    rows = [list(r) for r in rows]
    n = len(rows)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            x = float(rows[i][j])
            limit = 1
            while limit <= 10 ** 15:
                cand = Fraction(x).limit_denominator(limit)
                if abs(float(cand) - x) <= tol:
                    out[i][j] = cand
                    break
                limit *= 10
            else:
                raise FlagComputationError(f"cannot rationalize entry {x!r} "
                                           f"within {tol}")
    return RationalMatrix.from_rows(out)


def zeta(g: RationalMatrix, tol: FloatTolerances = DEFAULT_TOLERANCES,
         snap: bool = False) -> FlagPoint:
    """The positive Borel through g: sorted eigenbasis, unit-lower LDU
    factor.  The representative is float by default; ``snap=True``
    rationalizes it (and re-validates positivity exactly)."""
    lower, _ = _zeta_impl(g, tol)
    if snap:
        return FlagPoint(snap_matrix(lower, tol.snap))
    return FlagPoint(_float_rows(lower))


# ---------------------------------------------------------------------------
# Fibre coordinates over a Borel


def sigma_b(g: RationalMatrix, B: FlagPoint) -> CellCoordinates:
    """Exact fibre coordinates of g over the Borel with representative
    u': the unit-upper cell parameters and the torus target vector.

    Writes u'^-1 g u' = v * t with v unit upper and t = diag(d_1..d_n),
    so v is that product with column j over d_j.  The target map takes
    tau = t^-1, with coordinates d_i / d_{i+1} (the factorization argument
    produces the inverse-conjugated condition); its domain membership is
    implied, and a violation aborts loudly.
    """
    if not B.is_exact:
        raise ValueError("exact fibre coordinates need an exact Borel "
                         "representative (use snap)")
    uprime = B.rep
    n = g.n
    verdict = is_g_positive(g)
    if not verdict.member:
        raise NotPositive("input is not in the totally positive semigroup: "
                          + verdict.witness.describe(), verdict)
    h = uprime.inverse() @ g @ uprime
    if any(h.rows[i][j] != 0 for j in range(n) for i in range(j + 1, n)):
        raise NotInFibre("element does not lie in the given Borel")
    d = h.diagonal_entries()
    if any(x <= 0 for x in d):
        raise MembershipViolation("torus factor of a fibre element is not "
                                  "positive; this contradicts the fibre "
                                  "parametrization argument")
    v = RationalMatrix.from_rows([x / dj for x, dj in zip(row, d)] for row in h.rows)
    try:
        vparams = extract_params(v, longest_element(range(1, n), n), "upper")
    except NotInCell as exc:
        raise MembershipViolation(
            "unit-upper factor of a fibre element is outside the positive "
            f"cell ({exc}); this contradicts the fibre parametrization "
            "argument") from exc
    tau = TorusPoint(tuple(d[i] / d[i + 1] for i in range(n - 1)))
    w_minus = gauss_decompose(uprime @ v).lower
    try:
        zvec = theta_forward(w_minus, uprime, tau)
    except NotInTorusSet as exc:
        raise MembershipViolation(
            "implied torus-domain membership failed: "
            + exc.verdict.witness.describe()) from exc
    return CellCoordinates(v=vparams, zvec=zvec)


def sigma_b_inverse(coords: CellCoordinates, B: FlagPoint,
                    solver: Optional[SolverConfig] = None):
    """Rebuild the fibre element from its coordinates.  Exact (returns a
    RationalMatrix) whenever the torus solve is rational, which includes
    all round trips of exact data for n = 2, 3; otherwise returns nested
    float tuples."""
    if not B.is_exact:
        raise ValueError("exact reconstruction needs an exact Borel "
                         "representative")
    uprime = B.rep
    n = uprime.n
    v = evaluate_params(coords.v, "upper", n)
    w_minus = gauss_decompose(uprime @ v).lower
    if n == 2:
        tau = theta_inverse_sl2(w_minus, uprime, coords.zvec)
    elif n == 3:
        tau = theta_inverse_sl3(w_minus, uprime, coords.zvec)
    else:
        report = theta_inverse_numeric(w_minus, uprime, coords.zvec,
                                       solver or SolverConfig())
        tau = report.solution
    t_raw = tau.inverse()
    if t_raw.is_exact:
        try:
            t_matrix = t_raw.to_matrix()
            return uprime @ v @ t_matrix @ uprime.inverse()
        except ValueError:
            pass
    tf = t_raw.to_matrix_float()
    uf = np.array(uprime.to_float())
    vf = np.array(v.to_float())
    out = uf @ vf @ tf @ np.linalg.inv(uf)
    return _float_rows(out)


# ---------------------------------------------------------------------------
# Parabolic classification


def _split_words(J, n: int):
    w0 = longest_element(range(1, n), n)
    w0J = longest_element(J, n)
    first = reduced_word(w0 * w0J)
    return w0, first + reduced_word(w0J), len(first)


def split_cell(u1, J: Iterable[int], atol: Optional[float] = None):
    """Split a totally positive unit-lower u1 as (coset part, parabolic
    part): parameters are extracted along the concatenated canonical
    words of w0*w0^J and w0^J and the list is cut at the boundary.  The
    product of the two parts reproduces u1 (exactly in exact mode)."""
    exact = isinstance(u1, RationalMatrix)
    n = u1.n if exact else len(u1)
    J = _sorted_letters(J)
    w0, word, cut = _split_words(J, n)
    params = extract_params(u1, w0, "lower", word=word, atol=atol).params
    parts = ((word[:cut], params[:cut]), (word[cut:], params[cut:]))
    if exact:
        return tuple(evaluate_params(LusztigParams(w, p), "lower", n) for w, p in parts)
    return tuple(_float_rows(_evaluate_rows(w, p, "lower", n, float)) for w, p in parts)


def _leading_lines(rows, J: tuple) -> dict:
    """For each wedge index j in 1..n-1 outside J, the line spanned by
    the first j columns of a float matrix: their wedge coordinates
    (colex row-subset minors, one stacked determinant call), normalized."""
    a = np.array(rows, dtype=float)
    n = len(a)
    return {j: _normalize_line(np.linalg.det(a[np.subtract(colex_subsets(n, j), 1), :j]))
            for j in range(1, n) if j not in J}


@functools.lru_cache(maxsize=1)
def _classify(g: RationalMatrix, J: tuple, tol: FloatTolerances):
    """The one classification pass behind ``zeta_j``, ``perron_line_check``
    and ``check_partition`` for sorted J: the coset part of the float
    Borel representative, and per j outside J the distance of the leading
    eigenline of the exact j-th wedge power of g from the leading lines
    of the eigenbasis and of the coset part, and the distance of the
    Borel representative's leading line from the coset part's.  Only
    immutable data is returned; the last pass is kept, as callers ask for
    the three views of one (g, J) back to back."""
    lower, ef = _zeta_impl(g, tol)
    first, _ = split_cell(lower, J, atol=tol.split_atol)
    from_basis, from_split, borel = (_leading_lines(rows, J)
                                     for rows in (ef.basis, first, lower))
    per_j = []
    for j in from_basis:
        wedge = np.array(exterior_power(g, j).to_float())
        values, vectors = np.linalg.eig(wedge)
        perron = _normalize_line(vectors[:, int(np.argmax(values.real))].real)
        per_j.append((j, float(np.max(np.abs(perron - from_basis[j]))),
                      float(np.max(np.abs(perron - from_split[j]))),
                      float(np.max(np.abs(borel[j] - from_split[j])))))
    return first, tuple(per_j)


def perron_line_check(g: RationalMatrix, J: Iterable[int],
                      tol: FloatTolerances = DEFAULT_TOLERANCES) -> dict:
    """For each wedge index j outside J, compare three computations of
    the unique attracting line in the j-th wedge power: the leading
    eigenvector of the wedge matrix of g, the wedge of the top j
    eigenvectors of g, and the leading-column wedge of the parabolic
    representative from the splitting route.  Returns per-j deviations
    and an overall flag."""
    J = _sorted_letters(J)
    devs = {j: max(basis_dev, split_dev)
            for j, basis_dev, split_dev, _ in _classify(g, J, tol)[1]}
    return {"J": list(J), "per_j": devs,
            "ok": not any(dev > tol.line_agreement for dev in devs.values()),
            "max_deviation": max((0.0, *devs.values()))}


def zeta_j(g: RationalMatrix, J: Iterable[int],
           tol: FloatTolerances = DEFAULT_TOLERANCES) -> ParabolicPoint:
    """The positive parabolic of type J through g: split the Borel
    representative and keep the coset part.  Uniqueness is cross-checked
    through the wedge eigenlines; disagreement aborts."""
    J = _sorted_letters(J)
    first, per_j = _classify(g, J, tol)
    for j, dev, _, _ in per_j:
        if dev > tol.line_agreement:
            raise FlagComputationError(
                f"wedge index {j}: leading eigenline deviates from the "
                f"eigenbasis wedge by {dev:.3g}")
    return ParabolicPoint(J, first)


def gamma_p_point(P: ParabolicPoint, vparams: LusztigParams) -> FlagPoint:
    """The Borel inside the parabolic P cut out by positive parameters
    on the canonical word of w0^J: representative is P.rep times the
    parabolic cell point.  Positivity of the product is asserted, not
    assumed."""
    if not P.is_exact:
        raise ValueError("gamma points need an exact parabolic representative")
    n = P.rep.n
    w0J = longest_element(P.J, n)
    if vparams.word != reduced_word(w0J):
        raise ValueError("parameters must live on the canonical word of the "
                         "parabolic longest element")
    rep = P.rep @ evaluate_params(vparams, "lower", n)
    # FlagPoint.__post_init__ asserts total positivity of the product
    return FlagPoint(rep)


def check_partition(g: RationalMatrix, J: Iterable[int],
                    tol: FloatTolerances = DEFAULT_TOLERANCES) -> bool:
    """Does the Borel through g lie in the parabolic through g?  True iff
    for each j outside J the first j columns of the Borel representative
    span the same subspace as those of the parabolic representative: their
    normalized wedge lines agree entrywise within ``tol.compare``."""
    return all(dev <= tol.compare for *_, dev in _classify(g, _sorted_letters(J), tol)[1])
