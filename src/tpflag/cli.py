"""Command-line front door.

Subcommands: check (membership verdicts), theta (forward map and torus
solves), verify (bijectivity-evidence campaigns with CSV/JSON reports),
flag (Borel/parabolic classification, fibre coordinates, cell splits)
and sample (deterministic test-data generation).

Exit codes are part of the interface so shell harnesses can assert
outcomes: 0 ok, 1 negative verdict, 2 input error, 3 domain error (a
float arithmetic failure, such as a float target beyond the float range,
exits 3 too), 4 convergence failure.  A float torus coordinate is the
rational it denotes, so its domain verdict is exact.  Every command is deterministic given its full
flag set including --seed; no environment variables are consulted.
"""

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

from .errors import (DecompositionUnavailable, EigenvalueCollision,
                     FlagComputationError, MembershipViolation, NoConvergence,
                     NotInCell, NotInFibre, NotInTorusSet, NotPositive)
from .exactmat import MAX_DIMENSION, RationalMatrix
from .flag import (DEFAULT_TOLERANCES, FlagPoint, FloatTolerances, sigma_b,
                   perron_line_check, snap_matrix, split_cell, zeta, zeta_j)
from .prng import derive_seed
from .theta import (SolverConfig, ThetaInstance, format_scalar,
                    sample_torus_in_domain, theta_forward, theta_inverse_numeric,
                    theta_inverse_sl2, theta_inverse_sl3, verify_conjecture)
from .totpos import (is_g_positive, is_totally_positive_unitriangular,
                     evaluate_params, sample_g_positive, sample_positive,
                     sample_torus_matrix)
from .weyl import longest_element

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4

# The solver settings of `theta solve` and of a campaign config: (flag, field).
_SOLVER_FLAGS = (("--starts", "starts"), ("--max-iterations", "max_iterations"),
                ("--newton-tol", "newton_tolerance"),
                ("--residual-tol", "residual_tolerance"),
                ("--cluster-threshold", "cluster_threshold"))


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce a campaign, serializable as JSON."""

    n: int
    trials: int
    seed: int
    starts: int = SolverConfig.starts
    max_iterations: int = SolverConfig.max_iterations
    newton_tolerance: float = SolverConfig.newton_tolerance
    residual_tolerance: float = SolverConfig.residual_tolerance
    cluster_threshold: float = SolverConfig.cluster_threshold
    output_csv: str = "campaign.csv"
    output_json: str = "campaign.json"
    counterexample_dir: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.solver_config()  # SolverConfig validates the solver fields

    @classmethod
    def from_json_dict(cls, data: dict) -> "CampaignConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**{field: getattr(self, field) for _, field in _SOLVER_FLAGS})


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tpflag-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(payload: dict, output: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _load_matrix(path: str) -> RationalMatrix:
    data = _load_json(path)
    if isinstance(data, dict) and "entries" not in data and "matrix" in data:
        data = data["matrix"]  # accept `tpflag sample` output directly
    return RationalMatrix.from_json_dict(data)


def _parse_letters(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_tolerances(pairs) -> FloatTolerances:
    tol = DEFAULT_TOLERANCES
    for pair in pairs or ():
        name, _, value = pair.partition("=")
        if not value:
            raise ValueError(f"--tolerance expects NAME=VALUE, got {pair!r}")
        if name not in {f.name for f in dataclasses.fields(FloatTolerances)}:
            raise ValueError(f"unknown tolerance {name!r}")
        tol = dataclasses.replace(tol, **{name: float(value)})
    return tol


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    m = _load_matrix(args.matrix)
    if args.kind == "g":
        verdict = is_g_positive(m)
    else:
        verdict = is_totally_positive_unitriangular(m, args.kind)
    _emit({"kind": args.kind, "verdict": verdict.to_json_dict()}, args.output)
    return EXIT_OK if verdict.member else EXIT_NEGATIVE


def cmd_theta(args) -> int:
    instance = ThetaInstance.from_json_dict(_load_json(args.instance))
    n = instance.u.n
    if args.subcommand == "forward":
        if instance.t is None:
            raise ValueError("forward needs a 't' field in the instance")
        z = theta_forward(instance.u, instance.uprime, instance.t)
        _emit({"n": n, "z": [format_scalar(v) for v in z]}, args.output)
        return EXIT_OK

    if instance.z is None:
        raise ValueError("solve needs a 'z' field in the instance")
    method = args.method
    if method == "auto":
        method = "closed" if n <= 3 else "numeric"
    if method == "closed":
        if n == 2:
            point = theta_inverse_sl2(instance.u, instance.uprime, instance.z)
        elif n == 3:
            point = theta_inverse_sl3(instance.u, instance.uprime, instance.z)
        else:
            raise ValueError("closed-form solve is only available for n <= 3")
        back = theta_forward(instance.u, instance.uprime, point)
        residual = max(abs(float(a) - float(b)) for a, b in zip(back, instance.z))
        payload = {"method": "closed",
                   "solution": [float(c) for c in point.coords],
                   "residual": residual}
        if point.is_exact:
            payload["solution_exact"] = [str(c) for c in point.coords]
        _emit(payload, args.output)
        return EXIT_OK

    config = SolverConfig(**{field: getattr(args, field) for _, field in _SOLVER_FLAGS},
                          seed=args.seed)
    report = theta_inverse_numeric(instance.u, instance.uprime, instance.z, config)
    _emit({"method": "numeric", **report.to_json_dict()}, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = CampaignConfig.from_json_dict(_load_json(args.config))
    report = verify_conjecture(config.n, config.trials, config.seed,
                               config.solver_config())
    _atomic_write(config.output_csv, report.csv_text())
    summary = report.summary_dict()
    summary["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _atomic_write(config.output_json,
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    counter_dir = config.counterexample_dir or os.path.dirname(
        os.path.abspath(config.output_json))
    for counter in report.counterexamples:
        path = os.path.join(counter_dir,
                            f"counterexample-{counter['instance_id']:04d}.json")
        _atomic_write(path, json.dumps(counter, indent=2, sort_keys=True) + "\n")
    ok = report.all_converged and report.all_unique_limits
    sys.stdout.write(f"campaign n={config.n} trials={config.trials}: "
                     f"{'ok' if ok else 'FAILURES RECORDED'} "
                     f"(reports: {config.output_csv}, {config.output_json})\n")
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def cmd_flag(args) -> int:
    tol = _parse_tolerances(args.tolerance)
    if args.subcommand == "zeta":
        point = zeta(_load_matrix(args.matrix), tol)
        payload = point.to_json_dict()
        try:
            payload["rep"] = snap_matrix(point.rep_rows(), tol.snap).to_json_dict()
        except FlagComputationError:
            pass
        _emit(payload, args.output)
        return EXIT_OK
    if args.subcommand == "classify":
        g = _load_matrix(args.matrix)
        J = _parse_letters(args.J)
        point = zeta_j(g, J, tol)
        payload = point.to_json_dict()
        payload["perron_check"] = perron_line_check(g, J, tol)
        _emit(payload, args.output)
        return EXIT_OK
    if args.subcommand == "sigma":
        g = _load_matrix(args.g)
        borel = FlagPoint(_load_matrix(args.b))
        coords = sigma_b(g, borel)
        _emit(coords.to_json_dict(), args.output)
        return EXIT_OK
    if args.subcommand == "split":
        u1 = _load_matrix(args.matrix)
        first, second = split_cell(u1, _parse_letters(args.J))
        _emit({"first": first.to_json_dict(), "second": second.to_json_dict()},
              args.output)
        return EXIT_OK
    raise ValueError(f"unknown flag subcommand {args.subcommand!r}")


def cmd_sample(args) -> int:
    n, seed, scale = args.n, args.seed, args.scale
    if not 2 <= n <= MAX_DIMENSION:
        raise ValueError(f"sampling supports 2 <= n <= {MAX_DIMENSION}")
    w0 = longest_element(range(1, n), n)
    if args.kind in ("lower", "upper"):
        params = sample_positive(w0, args.kind, seed, scale)
        payload = {"kind": args.kind, "n": n,
                   "params": params.to_json_dict(),
                   "matrix": evaluate_params(params, args.kind, n).to_json_dict()}
    elif args.kind == "g":
        payload = {"kind": "g", "n": n,
                   "matrix": sample_g_positive(n, seed, scale).to_json_dict()}
    elif args.kind == "torus":
        t = sample_torus_matrix(n, seed, scale)
        payload = {"kind": "torus", "n": n, "matrix": t.to_json_dict(),
                   "coords": [str(t.rows[i + 1][i + 1] / t.rows[i][i])
                              for i in range(n - 1)]}
    elif args.kind == "instance":
        u = evaluate_params(sample_positive(w0, "lower", derive_seed(seed, 0), scale),
                            "lower", n)
        uprime = evaluate_params(sample_positive(w0, "lower", derive_seed(seed, 1),
                                                 scale), "lower", n)
        t = sample_torus_in_domain(u, uprime, derive_seed(seed, 2), scale)
        z = theta_forward(u, uprime, t)
        payload = ThetaInstance(u, uprime, t, z).to_json_dict()
        payload["kind"] = "instance"
    else:
        raise ValueError(f"unknown sample kind {args.kind!r}")
    _emit(payload, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpflag",
        description="Totally positive elements of SL_n: membership checks, "
                    "cell coordinates, torus target solves, flag "
                    "classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", help="write the JSON result to this path "
                                      "(atomic) instead of stdout")

    p_check = sub.add_parser("check", parents=[out],
                             help="membership verdict for a matrix file")
    p_check.add_argument("matrix", help="matrix JSON file")
    p_check.add_argument("--kind", required=True,
                         choices=("lower", "upper", "g"))
    p_check.set_defaults(func=cmd_check)

    p_theta = sub.add_parser("theta", parents=[out],
                             help="forward target map / torus solve")
    p_theta.add_argument("subcommand", choices=("forward", "solve"))
    p_theta.add_argument("--instance", required=True,
                         help="instance JSON file with u, uprime and t or z")
    p_theta.add_argument("--method", default="auto",
                         choices=("auto", "closed", "numeric"))
    for flag, field in _SOLVER_FLAGS + (("--seed", "seed"),):
        default = getattr(SolverConfig, field)
        p_theta.add_argument(flag, dest=field, type=type(default), default=default,
                             metavar=flag[2:].upper().replace("-", "_"))
    p_theta.set_defaults(func=cmd_theta)

    p_verify = sub.add_parser("verify",
                              help="run an evidence campaign from a config file")
    p_verify.add_argument("--config", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_flag = sub.add_parser("flag", parents=[out],
                            help="flag and parabolic computations")
    p_flag.add_argument("subcommand", choices=("zeta", "classify", "sigma", "split"))
    p_flag.add_argument("matrix", nargs="?",
                        help="matrix JSON file (zeta, classify, split)")
    p_flag.add_argument("--J", default="",
                        help="comma-separated letters, e.g. '1,3' (empty = none)")
    p_flag.add_argument("--g", help="group element file (sigma)")
    p_flag.add_argument("--b", help="Borel representative file (sigma)")
    p_flag.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                        help="override a float tolerance (repeatable)")
    p_flag.set_defaults(func=cmd_flag)

    p_sample = sub.add_parser("sample", parents=[out],
                              help="deterministic sample objects")
    p_sample.add_argument("--kind", required=True,
                          choices=("lower", "upper", "g", "torus", "instance"))
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--scale", type=int, default=4)
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotPositive, NotInFibre) as exc:
        payload = {"error": str(exc)}
        if getattr(exc, "verdict", None) is not None:
            payload["verdict"] = exc.verdict.to_json_dict()
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_NEGATIVE if isinstance(exc, NotPositive) else EXIT_DOMAIN
    except (NotInTorusSet, NotInCell, DecompositionUnavailable,
            MembershipViolation, EigenvalueCollision, FlagComputationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except NoConvergence as exc:
        sys.stderr.write(f"no convergence: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except ArithmeticError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_DOMAIN
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
