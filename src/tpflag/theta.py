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

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import NoConvergence, NotInTorusSet
from .exactmat import RationalMatrix, float_det, perfect_nth_root
from .prng import SplitMix64, derive_seed
from .totpos import (MinorWitness, PositivityVerdict, evaluate_params,
                     is_totally_positive_unitriangular,
                     relevant_minor_pairs, sample_positive)
from .weyl import longest_element


@dataclass(frozen=True)
class TorusPoint:
    """Positive diagonal torus element in simple-root coordinates:
    coords[i-1] = t_{i+1} / t_i for the determinant-1 diagonal t.
    Coordinates are exact rationals or floats; the matrix form exists
    exactly only when the implied n-th root is rational."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise ValueError("torus point needs at least one coordinate")
        if any(c <= 0 for c in coords):
            raise ValueError(f"all coordinates must be positive: {coords}")
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
    def from_json_dict(cls, data: dict, check_membership: bool = True) -> "ThetaInstance":
        if "u" not in data or "uprime" not in data:
            raise ValueError("instance needs 'u' and 'uprime' matrices")
        u = RationalMatrix.from_json_dict(data["u"])
        uprime = RationalMatrix.from_json_dict(data["uprime"])
        if check_membership:
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


def torus_conjugate(t: TorusPoint, u: RationalMatrix) -> RationalMatrix:
    """Exact conjugation t u t^-1 of a unit lower triangular matrix:
    entry (i, k) with i > k scales by the product of coords k..i-1."""
    if not t.is_exact:
        raise ValueError("exact conjugation needs rational coordinates")
    if not u.is_unit_triangular("lower"):
        raise ValueError("input is not unit lower triangular")
    n = u.n
    if t.n != n:
        raise ValueError("torus point size does not match the matrix")
    rows = [list(row) for row in u.rows]
    for i in range(n):
        for k in range(i):
            factor = Fraction(1)
            for m in range(k, i):
                factor *= t.coords[m]
            rows[i][k] = rows[i][k] * factor
    return RationalMatrix.from_rows(rows)


def _conjugated_product_float(u, uprime_inv, coords):
    """Float t u t^-1 u'^-1 for float coordinate work."""
    n = len(u)
    prefix = [1.0]
    for c in coords:
        prefix.append(prefix[-1] * float(c))
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 1.0
        for k in range(i):
            a[i][k] = float(u[i][k]) * (prefix[i] / prefix[k])
    # both factors are unit lower: the product is too, and the terms
    # outside l = k..i are exact zeros
    out = [[float(i == k) for k in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            out[i][k] = sum(a[i][l] * uprime_inv[l][k] for l in range(k, i + 1))
    return out


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


def torus_set_membership(u: RationalMatrix, uprime: RationalMatrix,
                         t: TorusPoint, margin: float = 0.0) -> PositivityVerdict:
    """Does t stay in the open torus region attached to (u, u')?  True
    iff t u t^-1 u'^-1 is totally positive.  Exact for rational
    coordinates; float coordinates use the float minor test with the
    given margin."""
    if t.is_exact:
        m = torus_conjugate(t, u) @ uprime.inverse()
        return is_totally_positive_unitriangular(m, "lower")
    mf = _conjugated_product_float(u.to_float(), uprime.inverse().to_float(),
                                   t.coords)
    ok, witness = _float_membership(mf, relevant_minor_pairs(u.n, "lower"),
                                    margin)
    return PositivityVerdict(ok, witness)


def theta_forward(u: RationalMatrix, uprime: RationalMatrix, t: TorusPoint) -> tuple:
    """The vector of corner minors of t u t^-1 u'^-1, one per wedge
    index; requires t inside the torus region (else NotInTorusSet).
    Exact when the coordinates are rational, float otherwise."""
    n = u.n
    if t.is_exact:
        m = torus_conjugate(t, u) @ uprime.inverse()
        verdict = is_totally_positive_unitriangular(m, "lower")
        if not verdict.member:
            raise NotInTorusSet(f"torus point outside the domain: "
                                f"{verdict.witness.describe()}", verdict)
        return tuple(z_function(m, j) for j in range(1, n))
    mf = _conjugated_product_float(u.to_float(), uprime.inverse().to_float(),
                                   t.coords)
    ok, witness = _float_membership(mf, relevant_minor_pairs(n, "lower"), 0.0)
    if not ok:
        raise NotInTorusSet(f"torus point outside the domain: {witness.describe()}",
                            PositivityVerdict(False, witness))
    out = []
    for j in range(1, n):
        sub = [[mf[r][c] for c in range(j)] for r in range(n - j, n)]
        out.append(float_det(sub))
    return tuple(out)


# ---------------------------------------------------------------------------
# Closed-form inverses, n = 2 and n = 3


def theta_inverse_sl2(u: RationalMatrix, uprime: RationalMatrix, z) -> TorusPoint:
    """n = 2: the single target A = R a - a' inverts to R = (A + a')/a,
    exactly when the inputs are exact."""
    if u.n != 2 or uprime.n != 2:
        raise ValueError("closed form requires 2x2 inputs")
    a = u.rows[1][0]
    aprime = uprime.rows[1][0]
    (A,) = tuple(z)
    if A <= 0:
        raise ValueError("target must be positive")
    return TorusPoint(((A + aprime) / a,))


def sl3_root_pair(u: RationalMatrix, uprime: RationalMatrix, z):
    """Both solutions of the n = 3 quadratic: the accepted root as a
    TorusPoint and the rejected root as a raw coordinate pair (it always
    violates the first domain inequality and may not even be positive).
    Exact whenever the discriminant is a perfect rational square."""
    if u.n != 3 or uprime.n != 3:
        raise ValueError("closed form requires 3x3 inputs")
    a, b, c = u.rows[1][0], u.rows[2][1], u.rows[2][0]
    ap, bp, cp = uprime.rows[1][0], uprime.rows[2][1], uprime.rows[2][0]
    A, B = tuple(z)
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
    accepted = TorusPoint((r_plus + ap / a, s_plus + bp / b))
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
    check_jacobian: bool = False

    def __post_init__(self):
        if self.starts < 1 or self.max_iterations < 1:
            raise ValueError("starts and max_iterations must be >= 1")
        for name in ("newton_tolerance", "residual_tolerance",
                     "cluster_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    def to_json_dict(self) -> dict:
        return {"starts": self.starts, "max_iterations": self.max_iterations,
                "newton_tolerance": self.newton_tolerance,
                "residual_tolerance": self.residual_tolerance,
                "cluster_threshold": self.cluster_threshold,
                "start_box": self.start_box,
                "membership_margin": self.membership_margin,
                "seed": self.seed}


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


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _poly_det(entries):
    """Determinant of a square matrix of exponent-dict polynomials, by
    Laplace expansion along the first column."""
    size = len(entries)
    if size == 1:
        return entries[0][0]
    out = {}
    for r in range(size):
        cell = entries[r][0]
        if not cell:
            continue
        sub = [row[1:] for i, row in enumerate(entries) if i != r]
        term = _poly_mul(cell, _poly_det(sub))
        sign = 1 if r % 2 == 0 else -1
        for e, c in term.items():
            out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c != 0}


class ZSystem:
    """The target polynomials z_j(R) for fixed (u, u'), their partials,
    and the float helpers the Newton solver needs.  Coefficients are
    computed exactly, then frozen as floats for evaluation."""

    def __init__(self, u: RationalMatrix, uprime: RationalMatrix):
        n = u.n
        if uprime.n != n:
            raise ValueError("size mismatch")
        if not (u.is_unit_triangular("lower") and uprime.is_unit_triangular("lower")):
            raise ValueError("inputs must be unit lower triangular")
        self.n = n
        self.dim = n - 1
        self._uf = u.to_float()
        self._binv = uprime.inverse().to_float()
        self._pairs = relevant_minor_pairs(n, "lower")

        zero = tuple([0] * self.dim)
        binv_exact = uprime.inverse().rows
        # entry (i, l) of t u t^-1 carries the monomial R_l ... R_{i-1}
        a_poly = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            a_poly[i][i] = {zero: Fraction(1)}
            for l in range(i):
                if u.rows[i][l] != 0:
                    exp = tuple(1 if l <= m < i else 0 for m in range(self.dim))
                    a_poly[i][l] = {exp: u.rows[i][l]}
        m_poly = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                acc = {}
                for l in range(n):
                    if a_poly[i][l] and binv_exact[l][k] != 0:
                        for e, c in a_poly[i][l].items():
                            acc[e] = acc.get(e, 0) + c * binv_exact[l][k]
                m_poly[i][k] = {e: c for e, c in acc.items() if c != 0}

        self._z_polys = []
        self._dz_polys = []
        for j in range(1, n):
            sub = [[m_poly[r][c] for c in range(j)] for r in range(n - j, n)]
            zp = _poly_det(sub)
            self._z_polys.append(self._freeze(zp))
            self._dz_polys.append(tuple(self._freeze(self._diff(zp, i))
                                        for i in range(self.dim)))

    @staticmethod
    def _freeze(poly: dict) -> tuple:
        return tuple((float(c), e) for e, c in sorted(poly.items()))

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
        return np.array([self._eval(p, R) for p in self._z_polys])

    def jacobian(self, R) -> np.ndarray:
        """d z_j / d R_i."""
        return np.array([[self._eval(self._dz_polys[j][i], R)
                          for i in range(self.dim)] for j in range(self.dim)])

    def matrix(self, R):
        return _conjugated_product_float(self._uf, self._binv, R)

    def membership(self, R, margin: float) -> bool:
        return _float_membership(self.matrix(R), self._pairs, margin)[0]


def _check_jacobian_fd(zsys: ZSystem, R, tol: float = 1e-6):
    """Central finite differences against the symbolic Jacobian."""
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
    err = float(np.max(np.abs(analytic - fd))) / scale
    if err > tol:
        raise AssertionError(f"Jacobian mismatch vs finite differences: {err:.3g}")


def _find_start(zsys: ZSystem, rng: SplitMix64, config: SolverConfig) -> np.ndarray:
    """Feasible start in log-coordinates: log-uniform in a box around 1,
    shifted upward on repeated failures (large coordinates always land
    inside the domain)."""
    for attempt in range(400):
        shift = min(attempt // 20, 30)
        x = np.array([rng.uniform(-config.start_box, config.start_box) + shift
                      for _ in range(zsys.dim)])
        if zsys.membership(np.exp(x), config.membership_margin):
            return x
    raise NoConvergence("could not find a feasible start point")


def _newton_from(zsys: ZSystem, x0: np.ndarray, log_target: np.ndarray,
                 config: SolverConfig):
    """Damped Newton on F(x) = log z(e^x) - log target.  Steps are halved
    until the iterate stays inside the domain.  Returns (x, iterations,
    converged)."""
    x = x0.copy()
    for it in range(1, config.max_iterations + 1):
        R = np.exp(x)
        z = zsys.z_values(R)
        if np.any(z <= 0):
            return x, it, False
        f = np.log(z) - log_target
        if float(np.max(np.abs(f))) <= config.newton_tolerance:
            return x, it, True
        jac = zsys.jacobian(R) * R[np.newaxis, :] / z[:, np.newaxis]
        if config.check_jacobian and it == 1:
            _check_jacobian_fd(zsys, R)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return x, it, False
        lam = 1.0
        while lam >= 2.0 ** -60:
            cand = x + lam * step
            if zsys.membership(np.exp(cand), config.membership_margin):
                break
            lam *= 0.5
        else:
            return x, it, False
        x = cand
    return x, config.max_iterations, False


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
    z = tuple(z)
    if len(z) != u.n - 1:
        raise ValueError("target vector has wrong length")
    if any(v <= 0 for v in z):
        raise ValueError("targets must be strictly positive")
    zsys = ZSystem(u, uprime)
    target = np.array([float(v) for v in z])
    log_target = np.log(target)
    rng = SplitMix64(config.seed)

    limits = []
    iterations = []
    converged = []
    for _ in range(config.starts):
        x0 = _find_start(zsys, rng, config)
        x, iters, ok = _newton_from(zsys, x0, log_target, config)
        iterations.append(iters)
        converged.append(ok)
        if ok:
            limits.append(x)

    if not limits:
        raise NoConvergence(
            f"none of {config.starts} starts met the Newton tolerance")

    def residual_of(x):
        return float(np.max(np.abs(zsys.z_values(np.exp(x)) - target)))

    best = min(limits, key=residual_of)
    clusters = _cluster(limits, config.cluster_threshold)
    return SolveReport(solution=TorusPoint(tuple(float(v) for v in np.exp(best))),
                       residual=residual_of(best),
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
    for attempt in range(64):
        growth = Fraction(2) ** min(attempt, 30)
        coords = tuple(growth * rng.fraction(scale) for _ in range(u.n - 1))
        t = TorusPoint(coords)
        if torus_set_membership(u, uprime, t).member:
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
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "config": self.config.to_json_dict(),
            "converged_instances": converged,
            "success_rate": converged / max(1, self.trials),
            "max_residual": self.max_residual,
            "max_roundtrip_err": self.max_roundtrip_err,
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
        report = None
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
