"""The target map on torus points and its inverses.

For fixed totally positive unit-lower u, u' and a positive torus point t
(in simple-root ratio coordinates), the conjugated product
``t u t^-1 u'^-1`` is again unit lower; its lower-left corner minors give
a vector of targets, one per fundamental wedge index.  This module
computes that forward map exactly, inverts it in closed form for n = 2
and n = 3, and for general n hunts for preimages with a damped
multi-start Newton iteration in log-coordinates.  Whether target vectors
always have exactly one preimage is an open question; the campaign
runner collects numerical evidence and treats failures as data.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import NoConvergence, NotInTorusSet
from .exactmat import RationalMatrix, _submatrix_det, perfect_nth_root
from .prng import SplitMix64, derive_seed
from .totpos import (PositivityVerdict, evaluate_params,
                     is_totally_positive_unitriangular,
                     relevant_minor_pairs, sample_positive)
from .weyl import longest_element


def _lazy_numpy():
    """numpy, bound here but executed on its first attribute access."""
    spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
    if spec is None:  # loaded already, or missing: a plain import returns or raises
        import numpy
        return numpy
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


@dataclass(frozen=True)
class TorusPoint:
    """Positive diagonal torus element in simple-root coordinates:
    coords[i-1] = t_{i+1} / t_i for the determinant-1 diagonal t.
    Coordinates are exact rationals or finite floats; the matrix form
    exists exactly only when the implied n-th root is rational."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise ValueError("torus point needs at least one coordinate")
        # not math.isfinite: that overflows on a huge Fraction
        if not all(0 < c < math.inf for c in coords):
            raise ValueError(f"all coordinates must be positive and finite: {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return len(self.coords) + 1

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coords)

    def inverse(self) -> "TorusPoint":
        return TorusPoint(tuple(1 / c for c in self.coords))

    def to_matrix(self) -> RationalMatrix:
        """Exact diagonal matrix with these coordinate ratios and
        determinant 1.  Raises ValueError when the normalizing n-th root
        is irrational."""
        if not self.is_exact:
            raise ValueError("exact matrix form needs rational coordinates")
        n = self.n
        prod = Fraction(1)
        for i, r in enumerate(self.coords, start=1):
            prod *= r ** (n - i)
        root = perfect_nth_root(prod, n)
        if root is None:
            raise ValueError("torus point is not exactly representable "
                             "(normalizing root is irrational)")
        entries = [1 / root]
        for r in self.coords:
            entries.append(entries[-1] * r)
        return RationalMatrix.diagonal(entries)

    def to_matrix_float(self) -> np.ndarray:
        n = self.n
        coords = [float(c) for c in self.coords]
        prod = 1.0
        for i, r in enumerate(coords, start=1):
            prod *= r ** (n - i)
        entries = [prod ** (-1.0 / n)]
        for r in coords:
            entries.append(entries[-1] * r)
        return np.diag(entries)

    @classmethod
    def from_matrix(cls, t: RationalMatrix) -> "TorusPoint":
        if not t.is_diagonal():
            raise ValueError("not a diagonal matrix")
        d = t.diagonal_entries()
        return cls(tuple(d[i + 1] / d[i] for i in range(len(d) - 1)))


@dataclass(frozen=True)
class ThetaInstance:
    """A (u, u', t-or-targets) problem instance, as read from disk."""

    u: RationalMatrix
    uprime: RationalMatrix
    t: Optional[TorusPoint] = None
    z: Optional[tuple] = None

    def __post_init__(self):
        if self.t is None and self.z is None:
            raise ValueError("instance needs at least one of t, z")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThetaInstance":
        if "u" not in data or "uprime" not in data:
            raise ValueError("instance needs 'u' and 'uprime' matrices")
        u = RationalMatrix.from_json_dict(data["u"])
        uprime = RationalMatrix.from_json_dict(data["uprime"])
        for name, m in (("u", u), ("uprime", uprime)):
            verdict = is_totally_positive_unitriangular(m, "lower")
            if not verdict.member:
                raise ValueError(f"{name} is not totally positive: "
                                 f"{verdict.witness.describe()}")
        t = None
        if data.get("t") is not None:
            t = TorusPoint(tuple(_parse_scalar(x) for x in data["t"]))
        z = None
        if data.get("z") is not None:
            z = tuple(_parse_scalar(x) for x in data["z"])
        return cls(u, uprime, t, z)

    def to_json_dict(self) -> dict:
        out = {"n": self.u.n, "u": self.u.to_json_dict(),
               "uprime": self.uprime.to_json_dict()}
        if self.t is not None:
            out["t"] = [format_scalar(c) for c in self.t.coords]
        if self.z is not None:
            out["z"] = [format_scalar(c) for c in self.z]
        return out


def _parse_scalar(x):
    """Strings parse as exact rationals, JSON numbers as floats."""
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def format_scalar(x):
    """JSON form of a scalar: exact rationals as strings, the rest as
    floats; :func:`_parse_scalar` reads it back."""
    return str(x) if isinstance(x, Fraction) else float(x)


# ---------------------------------------------------------------------------
# Forward map


def z_function(u, j: int):
    """The j-th corner minor of a unit lower triangular matrix: rows
    {n-j+1..n} against columns {1..j}.  Strictly positive on the totally
    positive cone; equals the lowest wedge coordinate of the j-th
    exterior power applied to the leading coordinate wedge."""
    n = u.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"index must be in 1..{n - 1}, got {j}")
    return u.minor(tuple(range(n - j + 1, n + 1)), tuple(range(1, j + 1)))


def _conjugate_rows(u, coords) -> list:
    """Exact rows of t u t^-1 for unit lower u and rational coords: entry
    (i, k) with i > k scales by prefix[i] / prefix[k], the product of
    coords k..i-1."""
    n = len(u)
    one = Fraction(1)
    prefix = [one]
    for c in coords:
        prefix.append(prefix[-1] * c)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = one
        for k in range(i):
            rows[i][k] = u[i][k] * (prefix[i] / prefix[k])
    return rows


def _conjugated_product(u, binv, coords) -> list:
    """Exact rows of t u t^-1 u'^-1 from u and binv = u'^-1.  Both are
    unit lower, so only l = k..i contribute, and entry (i, k) reads
    columns k..i of its row of t u t^-1: rows update in place."""
    rows = _conjugate_rows(u, coords)
    for i, row in enumerate(rows):
        for k in range(i):
            row[k] = sum(row[l] * binv[l][k] for l in range(k, i + 1))
    return rows


def _check_conjugation(t: TorusPoint, u: RationalMatrix):
    if not u.is_unit_triangular("lower"):
        raise ValueError("input is not unit lower triangular")
    if t.n != u.n:
        raise ValueError("torus point size does not match the matrix")


def torus_conjugate(t: TorusPoint, u: RationalMatrix) -> RationalMatrix:
    """Exact conjugation t u t^-1 of a unit lower triangular matrix:
    entry (i, k) with i > k scales by the product of coords k..i-1."""
    if not t.is_exact:
        raise ValueError("exact conjugation needs rational coordinates")
    _check_conjugation(t, u)
    return RationalMatrix(_conjugate_rows(u.rows, t.coords))


def _domain_point(u: RationalMatrix, binv: RationalMatrix, t: TorusPoint) -> tuple:
    """(t u t^-1 u'^-1, its exact lower positivity verdict) from
    binv = u'^-1.  A float coordinate is the rational it denotes."""
    # the kernel reads only the lower triangles of same-size inputs
    _check_conjugation(t, u)
    if binv.n != u.n:
        raise ValueError("dimension mismatch")
    if not binv.is_unit_triangular("lower"):
        raise ValueError("input is not unit lower triangular")
    coords = t.coords if t.is_exact else tuple(Fraction(c) for c in t.coords)
    m = RationalMatrix(_conjugated_product(u.rows, binv.rows, coords))
    return m, is_totally_positive_unitriangular(m, "lower")


def torus_set_membership(u: RationalMatrix, uprime: RationalMatrix,
                         t: TorusPoint) -> PositivityVerdict:
    """Does t stay in the open torus region attached to (u, u')?  True
    iff t u t^-1 u'^-1 is totally positive, decided exactly."""
    return _domain_point(u, uprime.inverse(), t)[1]


def theta_forward(u: RationalMatrix, uprime: RationalMatrix, t: TorusPoint) -> tuple:
    """The vector of corner minors of t u t^-1 u'^-1, one per wedge
    index; requires t inside the torus region (else NotInTorusSet).
    Exact; for float coordinates each z_j is rounded once to a float
    (OverflowError past the float range)."""
    m, verdict = _domain_point(u, uprime.inverse(), t)
    if not verdict.member:
        raise NotInTorusSet(f"torus point outside the domain: "
                            f"{verdict.witness.describe()}", verdict)
    z = tuple(z_function(m, j) for j in range(1, u.n))
    return z if t.is_exact else tuple(float(v) for v in z)


# ---------------------------------------------------------------------------
# Closed-form inverses, n = 2 and n = 3


def _target_vector(z, n: int) -> tuple:
    """z as a tuple, checked to hold one target per wedge index 1..n-1."""
    z = tuple(z)
    if len(z) != n - 1:
        raise ValueError("target vector has wrong length")
    return z


def _closed_form_point(coords) -> TorusPoint:
    """TorusPoint of a closed-form solution; a non-finite float there is
    an arithmetic failure (exit 3), not an input error."""
    if not all(math.isfinite(c) for c in coords if isinstance(c, float)):
        raise OverflowError(f"closed-form solution is not a finite float: {coords}")
    return TorusPoint(coords)


def theta_inverse_sl2(u: RationalMatrix, uprime: RationalMatrix, z) -> TorusPoint:
    """n = 2: the single target A = R a - a' inverts to R = (A + a')/a,
    exactly when the inputs are exact."""
    if u.n != 2 or uprime.n != 2:
        raise ValueError("closed form requires 2x2 inputs")
    a = u.rows[1][0]
    aprime = uprime.rows[1][0]
    (A,) = _target_vector(z, 2)
    if A <= 0:
        raise ValueError("target must be positive")
    return _closed_form_point(((A + aprime) / a,))


def sl3_root_pair(u: RationalMatrix, uprime: RationalMatrix, z):
    """Both solutions of the n = 3 quadratic: the accepted root as a
    TorusPoint and the rejected root as a raw coordinate pair (it always
    violates the first domain inequality and may not even be positive).
    Exact whenever the discriminant is a perfect rational square."""
    if u.n != 3 or uprime.n != 3:
        raise ValueError("closed form requires 3x3 inputs")
    a, b, c = u.rows[1][0], u.rows[2][1], u.rows[2][0]
    ap, bp, cp = uprime.rows[1][0], uprime.rows[2][1], uprime.rows[2][0]
    A, B = _target_vector(z, 3)
    if A <= 0 or B <= 0:
        raise ValueError("targets must be positive")
    exact = all(isinstance(x, Fraction) for x in (a, b, c, ap, bp, cp, A, B))

    lead = (a * b - c) * ap * b
    mu = a * b * cp - ap * bp * c + (a * b - c) * A - c * B
    const = -(A + B) * c * bp / b
    disc = mu * mu - 4 * lead * const

    sqrt_d = perfect_nth_root(disc, 2) if exact else None
    if sqrt_d is not None:
        s_plus = (-mu + sqrt_d) / (2 * lead)
        s_minus = (-mu - sqrt_d) / (2 * lead)
    else:
        leadf, muf, constf = float(lead), float(mu), float(const)
        root = math.sqrt(float(disc))
        # split the quadratic the numerically stable way
        if muf >= 0:
            s_minus = (-muf - root) / (2 * leadf)
            s_plus = constf / (leadf * s_minus)
        else:
            s_plus = (-muf + root) / (2 * leadf)
            s_minus = constf / (leadf * s_plus)
        a, b, c, ap, bp, cp = (float(x) for x in (a, b, c, ap, bp, cp))

    scale = (a * b - c) * ap * b / (a * bp * c)
    r_plus = -scale * s_minus
    r_minus = -scale * s_plus
    accepted = _closed_form_point((r_plus + ap / a, s_plus + bp / b))
    rejected = (r_minus + ap / a, s_minus + bp / b)
    return accepted, rejected


def theta_inverse_sl3(u: RationalMatrix, uprime: RationalMatrix, z) -> TorusPoint:
    """n = 3 closed form: solve the quadratic for the shifted second
    coordinate and keep the positive branch; the result always satisfies
    the domain inequalities and reproduces the targets."""
    accepted, _ = sl3_root_pair(u, uprime, z)
    return accepted


# ---------------------------------------------------------------------------
# Numeric inverse for general n


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the multi-start damped Newton solver.  All runs are
    deterministic functions of (inputs, config)."""

    starts: int = 10
    max_iterations: int = 60
    newton_tolerance: float = 1e-12
    residual_tolerance: float = 1e-9
    cluster_threshold: float = 1e-6
    start_box: float = 3.0
    membership_margin: float = 1e-14
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1 or self.max_iterations < 1:
            raise ValueError("starts and max_iterations must be >= 1")
        if not self.membership_margin >= 0:  # keeps every accepted z_j > 0
            raise ValueError("membership_margin must be >= 0")
        for name in ("newton_tolerance", "residual_tolerance",
                     "cluster_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a multi-start solve: the best-residual limit, how many
    distinct limits the converged starts clustered into, and per-start
    iteration counts."""

    solution: TorusPoint
    residual: float
    starts_tried: int
    distinct_limits: int
    iterations: tuple
    converged: tuple

    def to_json_dict(self) -> dict:
        return {"solution": [float(c) for c in self.solution.coords],
                "residual": self.residual,
                "starts_tried": self.starts_tried,
                "distinct_limits": self.distinct_limits,
                "iterations": list(self.iterations),
                "converged": list(self.converged)}


class ZSystem:
    """The corner minors of t u t^-1 u'^-1 for fixed (u, u') as
    polynomials in the torus coordinates R: the targets z_j(R), their
    partials, and the domain test of the Newton solver.

    By Cauchy-Binet, for each lower pair of :func:`relevant_minor_pairs`,
    rows I = {j+1..j+k} against columns {1..k}, and S over the k-subsets
    of {1..n},

        D_I(R) = sum_S  D_{I,S}(u) * D_{S,[1..k]}(u'^-1) * R^e(S),
        e(S)_m = #{i in I : i > m} - #{s in S : s > m},

    since conjugating by t scales the minor D_{I,S}(u) by t_I / t_S.  The
    z_j are the pairs whose last row is n, and R lies in the domain iff
    every D_I(R) is positive.  Coefficients are summed exactly, then
    frozen as floats; the domain test returns the z values it read."""

    def __init__(self, u: RationalMatrix, uprime: RationalMatrix):
        n = u.n
        if uprime.n != n:
            raise ValueError("size mismatch")
        if not (u.is_unit_triangular("lower") and uprime.is_unit_triangular("lower")):
            raise ValueError("inputs must be unit lower triangular")
        self.n = n
        self.dim = n - 1
        binv = uprime.inverse()
        self._corner_polys = []  # (frozen polynomial, is a z_j)
        self._dz_polys = []
        for rows, cols in relevant_minor_pairs(n, "lower"):
            poly = {}
            for s in combinations(range(1, n + 1), len(cols)):
                c = _submatrix_det(u.rows, rows, s)
                if c:
                    c *= _submatrix_det(binv.rows, s, cols)
                    e = tuple(sum(i > m for i in rows) - sum(x > m for x in s)
                              for m in range(1, n))
                    poly[e] = poly.get(e, 0) + c
            self._corner_polys.append((self._freeze(poly), rows[-1] == n))
            if rows[-1] == n:
                self._dz_polys.append(tuple(self._freeze(self._diff(poly, i))
                                            for i in range(self.dim)))

    @staticmethod
    def _freeze(poly: dict) -> tuple:
        return tuple((float(c), e) for e, c in sorted(poly.items()) if c)

    @staticmethod
    def _diff(poly: dict, i: int) -> dict:
        out = {}
        for e, c in poly.items():
            if e[i] > 0:
                e2 = tuple(x - 1 if m == i else x for m, x in enumerate(e))
                out[e2] = out.get(e2, 0) + c * e[i]
        return out

    @staticmethod
    def _eval(frozen: tuple, R) -> float:
        total = 0.0
        for c, e in frozen:
            term = c
            for i, p in enumerate(e):
                if p:
                    term *= R[i] ** p
            total += term
        return total

    def z_values(self, R) -> np.ndarray:
        return np.array([self._eval(p, R) for p, is_z in self._corner_polys if is_z])

    def jacobian(self, R) -> np.ndarray:
        """d z_j / d R_i."""
        return np.array([[self._eval(self._dz_polys[j][i], R)
                          for i in range(self.dim)] for j in range(self.dim)])

    def membership(self, R, margin: float) -> Optional[tuple]:
        """z(R) as a tuple, bit for bit :meth:`z_values`, when every corner
        value lies in (margin, inf); None otherwise.  Python floats carry
        inf and NaN silently; a power past the float range rejects R."""
        R = [float(r) for r in R]
        z = []
        try:
            for poly, is_z in self._corner_polys:
                value = self._eval(poly, R)
                if not margin < value < math.inf:
                    return None
                if is_z:
                    z.append(value)
        except OverflowError:
            return None
        return tuple(z)


# The table of the last (u, u'): an instance's main and round-trip solves share it.
_zsystem = functools.lru_cache(maxsize=1)(ZSystem)


def _find_start(zsys: ZSystem, rng: SplitMix64, config: SolverConfig) -> tuple:
    """Feasible start (x, z(e^x)) in log-coordinates: log-uniform in a box
    around 1, shifted upward on repeated failures (large coordinates
    always land inside the domain)."""
    for attempt in range(400):
        shift = min(attempt // 20, 30)
        x = np.array([rng.uniform(-config.start_box, config.start_box) + shift
                      for _ in range(zsys.dim)])
        if z := zsys.membership(np.exp(x), config.membership_margin):
            return x, z
    raise NoConvergence("could not find a feasible start point")


def _newton_from(zsys: ZSystem, x: np.ndarray, z: tuple, log_target: np.ndarray,
                 config: SolverConfig):
    """Damped Newton on F(x) = log z(e^x) - log target from a start (x, z).
    Steps are halved until the domain test accepts the iterate, and the z
    it returns is the z the next step reads, so every z_j the solver sees
    exceeds the margin.  Returns (x, z, iterations, converged)."""
    for it in range(1, config.max_iterations + 1):
        R = np.exp(x)
        f = np.log(z) - log_target
        if float(np.max(np.abs(f))) <= config.newton_tolerance:
            return x, z, it, True
        jac = zsys.jacobian(R) * R[np.newaxis, :] / np.array(z)[:, np.newaxis]
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return x, z, it, False
        lam = 1.0
        # an overflowing coordinate is outside the domain: membership rejects it
        with np.errstate(over="ignore"):
            while lam >= 2.0 ** -60:
                cand = x + lam * step
                if z_cand := zsys.membership(np.exp(cand), config.membership_margin):
                    break
                lam *= 0.5
            else:
                return x, z, it, False
        x, z = cand, z_cand
    return x, z, config.max_iterations, False


def _cluster(limits, threshold: float):
    clusters = []
    for x in limits:
        for rep in clusters:
            if float(np.max(np.abs(x - rep))) <= threshold:
                break
        else:
            clusters.append(x)
    return clusters


def theta_inverse_numeric(u: RationalMatrix, uprime: RationalMatrix, z,
                          config: SolverConfig = SolverConfig()) -> SolveReport:
    """Hunt for a torus preimage of the target vector with damped Newton
    from multiple deterministic pseudo-random starts.

    All converged limits are clustered; more than one cluster is reported
    as ``distinct_limits > 1`` and never silently resolved, since the
    uniqueness of preimages is exactly what is under investigation.
    Raises :class:`NoConvergence` when no start meets the tolerance.
    """
    z = _target_vector(z, u.n)
    if any(v <= 0 for v in z):
        raise ValueError("targets must be strictly positive")
    zsys = _zsystem(u, uprime)
    target = np.array([float(v) for v in z])
    log_target = np.log(target)
    rng = SplitMix64(config.seed)

    limits = []  # (x, residual) per converged start
    iterations = []
    converged = []
    for _ in range(config.starts):
        x, z_x = _find_start(zsys, rng, config)
        x, z_x, iters, ok = _newton_from(zsys, x, z_x, log_target, config)
        iterations.append(iters)
        converged.append(ok)
        if ok:
            limits.append((x, float(np.max(np.abs(np.array(z_x) - target)))))

    if not limits:
        raise NoConvergence(
            f"none of {config.starts} starts met the Newton tolerance")

    best, residual = min(limits, key=lambda limit: limit[1])
    clusters = _cluster([x for x, _ in limits], config.cluster_threshold)
    return SolveReport(solution=TorusPoint(tuple(float(v) for v in np.exp(best))),
                       residual=residual,
                       starts_tried=config.starts,
                       distinct_limits=len(clusters),
                       iterations=tuple(iterations),
                       converged=tuple(converged))


def sample_torus_in_domain(u: RationalMatrix, uprime: RationalMatrix,
                           seed: int, scale: int = 4) -> TorusPoint:
    """Exact rational torus point inside the domain attached to (u, u'),
    by rejection with geometric growth (large coordinates are always
    inside, so this terminates)."""
    rng = SplitMix64(seed)
    binv = uprime.inverse()
    for attempt in range(64):
        growth = Fraction(2) ** min(attempt, 30)
        t = TorusPoint(tuple(growth * rng.fraction(scale) for _ in range(u.n - 1)))
        if _domain_point(u, binv, t)[1].member:
            return t
    raise NoConvergence("could not sample a torus point in the domain")


# ---------------------------------------------------------------------------
# Evidence campaign


@dataclass(frozen=True)
class InstanceRecord:
    instance_id: int
    n: int
    seed: int
    residual: float
    starts: int
    distinct_limits: int
    iterations_max: int
    roundtrip_err: float
    converged: bool
    aux_distinct_limits: int

    def csv_row(self) -> str:
        return ",".join([str(self.instance_id), str(self.n), str(self.seed),
                         f"{self.residual:.17g}", str(self.starts),
                         str(self.distinct_limits), str(self.iterations_max),
                         f"{self.roundtrip_err:.17g}"])


CSV_HEADER = "instance_id,n,seed,residual,starts,distinct_limits,iterations_max,roundtrip_err"


@dataclass(frozen=True)
class CampaignReport:
    n: int
    trials: int
    seed: int
    config: SolverConfig
    records: tuple
    counterexamples: tuple = field(default_factory=tuple)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.records)

    @property
    def all_unique_limits(self) -> bool:
        return all(r.distinct_limits == 1 and r.aux_distinct_limits == 1
                   for r in self.records)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.records), default=0.0)

    @property
    def max_roundtrip_err(self) -> float:
        return max((r.roundtrip_err for r in self.records), default=0.0)

    def csv_text(self) -> str:
        lines = [CSV_HEADER] + [r.csv_row() for r in self.records]
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        converged = sum(1 for r in self.records if r.converged)
        max_residual, max_roundtrip_err = (  # a failed solve's inf: JSON null
            m if math.isfinite(m) else None
            for m in (self.max_residual, self.max_roundtrip_err))
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "config": self.config.to_json_dict(),
            "converged_instances": converged,
            "success_rate": converged / max(1, self.trials),
            "max_residual": max_residual,
            "max_roundtrip_err": max_roundtrip_err,
            "multi_limit_instances": [r.instance_id for r in self.records
                                      if r.distinct_limits > 1
                                      or r.aux_distinct_limits > 1],
            "all_unique_limits": self.all_unique_limits,
        }


def verify_conjecture(n: int, trials: int, seed: int,
                      config: SolverConfig = SolverConfig()) -> CampaignReport:
    """Evidence campaign for bijectivity of the torus-to-targets map at
    fixed (u, u').

    Each instance samples (u, u', z) with z drawn directly in the
    positive orthant (probing existence of a preimage), solves, then
    additionally round-trips a known in-domain torus point through
    forward-then-inverse (probing uniqueness: a second basin would show
    up as a large round-trip error or a second limit cluster).  Failures
    are recorded, never raised.
    """
    if not 2 <= n <= 5:
        raise ValueError("campaigns are supported for 2 <= n <= 5")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    w0 = longest_element(range(1, n), n)
    records = []
    counterexamples = []
    for k in range(trials):
        base = derive_seed(seed, k)
        u = evaluate_params(sample_positive(w0, "lower", derive_seed(base, 1)),
                            "lower", n)
        uprime = evaluate_params(sample_positive(w0, "lower", derive_seed(base, 2)),
                                 "lower", n)
        zrng = SplitMix64(derive_seed(base, 3))
        z_target = tuple(zrng.fraction(4) for _ in range(n - 1))

        residual = math.inf
        distinct = 0
        iterations_max = 0
        converged = False
        try:
            report = theta_inverse_numeric(u, uprime, z_target,
                                           replace(config, seed=derive_seed(base, 4)))
            residual = report.residual
            distinct = report.distinct_limits
            iterations_max = max(report.iterations)
            converged = residual <= config.residual_tolerance
        except NoConvergence:
            pass

        t_star = sample_torus_in_domain(u, uprime, derive_seed(base, 5))
        z_star = theta_forward(u, uprime, t_star)
        roundtrip = math.inf
        aux_distinct = 0
        try:
            aux = theta_inverse_numeric(u, uprime, z_star,
                                        replace(config, seed=derive_seed(base, 6)))
            aux_distinct = aux.distinct_limits
            iterations_max = max([iterations_max, *aux.iterations])
            roundtrip = max(abs(math.log(float(s)) - math.log(float(c)))
                            for s, c in zip(aux.solution.coords, t_star.coords))
        except NoConvergence:
            converged = False

        record = InstanceRecord(instance_id=k, n=n, seed=base,
                                residual=residual, starts=config.starts,
                                distinct_limits=distinct,
                                iterations_max=iterations_max,
                                roundtrip_err=roundtrip,
                                converged=converged,
                                aux_distinct_limits=aux_distinct)
        records.append(record)
        if distinct > 1 or aux_distinct > 1:
            counterexamples.append({
                "instance_id": k,
                "u": u.to_json_dict(),
                "uprime": uprime.to_json_dict(),
                "z": [str(v) for v in z_target],
                "z_roundtrip": [str(v) for v in z_star],
                "note": "multiple limit clusters: potential uniqueness "
                        "counterexample, preserve and investigate",
            })
    return CampaignReport(n=n, trials=trials, seed=seed, config=config,
                          records=tuple(records),
                          counterexamples=tuple(counterexamples))
