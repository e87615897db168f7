import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import tpflag
from tpflag import RationalMatrix, evaluate_params, sample_positive
from tpflag.cli import CampaignConfig, main
from tpflag.theta import SolverConfig
from tpflag.weyl import longest_element


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def matrix_file(tmp_path, name, m):
    return write_json(tmp_path / name, m.to_json_dict())


@pytest.fixture
def lower_member(tmp_path):
    m = RationalMatrix.from_rows([[1, 0], [1, 1]])
    return matrix_file(tmp_path, "lower.json", m)


class TestCheck:
    def test_member_exits_zero(self, tmp_path, capsys, lower_member):
        code, out = run(capsys, "check", lower_member, "--kind", "lower")
        assert code == 0
        assert json.loads(out)["verdict"]["member"] is True

    def test_identity_g_positive_exits_one(self, tmp_path, capsys):
        path = matrix_file(tmp_path, "id.json", RationalMatrix.identity(3))
        code, out = run(capsys, "check", path, "--kind", "g")
        assert code == 1
        verdict = json.loads(out)["verdict"]
        assert verdict["member"] is False
        assert verdict["witness"]["rows"]

    def test_truncated_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "entries": [["1", "0"]')
        code, _ = run(capsys, "check", str(bad), "--kind", "lower")
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _ = run(capsys, "check", "/nonexistent.json", "--kind", "lower")
        assert code == 2


def sample_instance(tmp_path, capsys, n=3, seed=5):
    path = tmp_path / "instance.json"
    code, out = run(capsys, "sample", "--kind", "instance", "--n", str(n),
                    "--seed", str(seed), "--output", str(path))
    assert code == 0
    return json.loads(path.read_text()), str(path)


class TestTheta:
    def test_forward_recovers_sampled_targets(self, tmp_path, capsys):
        instance, path = sample_instance(tmp_path, capsys)
        code, out = run(capsys, "theta", "forward", "--instance", path)
        assert code == 0
        assert json.loads(out)["z"] == instance["z"]

    def test_solve_closed_round_trips(self, tmp_path, capsys):
        instance, path = sample_instance(tmp_path, capsys)
        code, out = run(capsys, "theta", "solve", "--instance", path,
                        "--method", "closed")
        assert code == 0
        payload = json.loads(out)
        expected = [F(c) for c in instance["t"]]
        assert payload["residual"] < 1e-12
        for got, want in zip(payload["solution"], expected):
            assert abs(got - float(want)) < 1e-9

    def test_solve_methods_agree(self, tmp_path, capsys):
        instance, path = sample_instance(tmp_path, capsys, n=2, seed=9)
        _, closed = run(capsys, "theta", "solve", "--instance", path,
                        "--method", "closed")
        _, numeric = run(capsys, "theta", "solve", "--instance", path,
                         "--method", "numeric", "--seed", "3")
        a = json.loads(closed)["solution"][0]
        b = json.loads(numeric)["solution"][0]
        assert abs(a - b) / a < 1e-10

    def test_symmetric_irrational_instance(self, tmp_path, capsys):
        # coordinates sqrt(2)+1 (as floats) map the symmetric 3x3 pair to
        # targets (1, 1); solving the targets recovers the coordinates
        u = {"n": 3, "entries": [["1", "0", "0"], ["1", "1", "0"],
                                 ["1/2", "1", "1"]]}
        root = 2 ** 0.5 + 1
        path = write_json(tmp_path / "sym.json",
                          {"u": u, "uprime": u, "t": [root, root],
                           "z": ["1", "1"]})
        code, out = run(capsys, "theta", "forward", "--instance", path)
        assert code == 0
        assert all(abs(v - 1) < 1e-12 for v in json.loads(out)["z"])
        code, out = run(capsys, "theta", "solve", "--instance", path)
        assert code == 0
        assert all(abs(v - root) < 1e-10 for v in json.loads(out)["solution"])

    def test_forward_outside_domain_exits_three(self, tmp_path, capsys):
        n = 2
        w0 = longest_element(range(1, n), n)
        u = evaluate_params(sample_positive(w0, "lower", 1), "lower", n)
        instance = {"u": u.to_json_dict(), "uprime": u.to_json_dict(),
                    "t": ["1/1000000"]}
        path = write_json(tmp_path / "bad.json", instance)
        code, _ = run(capsys, "theta", "forward", "--instance", path)
        assert code == 3

    def test_forward_z_past_the_float_range_exits_three(self, tmp_path, capsys):
        # 1e200 t* is in the domain, but its exact z_1 exceeds every float
        instance, _ = sample_instance(tmp_path, capsys, n=4, seed=3)
        instance["t"] = [1e200 * float(F(c)) for c in instance["t"]]
        path = write_json(tmp_path / "huge_t.json", instance)
        code = main(["theta", "forward", "--instance", path])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: OverflowError: ")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_forward_non_finite_t_exits_two(self, tmp_path, capsys, value):
        instance, _ = sample_instance(tmp_path, capsys, n=3, seed=5)
        instance["t"] = [value, 2.0]
        path = write_json(tmp_path / "non_finite_t.json", instance)
        code = main(["theta", "forward", "--instance", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "input error: all coordinates must be positive and finite: ")

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("case,message", [
        ("uprime smaller", "dimension mismatch"),
        ("uprime larger", "dimension mismatch"),
        ("t too short", "torus point size does not match the matrix"),
        ("t too long", "torus point size does not match the matrix"),
    ])
    def test_forward_mismatched_sizes_exit_two(self, tmp_path, capsys, case,
                                               message, exact):
        instance, _ = sample_instance(tmp_path, capsys, n=3, seed=5)
        if case.startswith("uprime"):
            m = 2 if case == "uprime smaller" else 4
            w0 = longest_element(range(1, m), m)
            instance["uprime"] = evaluate_params(sample_positive(w0, "lower", 2),
                                                 "lower", m).to_json_dict()
        else:
            instance["t"] = instance["t"][:1] if case == "t too short" \
                else instance["t"] + ["2"]
        if not exact:
            instance["t"] = [float(F(c)) for c in instance["t"]]
        path = write_json(tmp_path / "mismatch.json", instance)
        code = main(["theta", "forward", "--instance", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("z,converged", [(1e300, None), (1e12, [True] * 10)])
    def test_solve_line_search_halves_past_underflow(self, tmp_path, capsys, z,
                                                     converged):
        # huge targets send line-search steps onto coordinates whose float
        # prefix products underflow; those points are outside the domain,
        # so the step is halved and the solve goes on
        instance, _ = sample_instance(tmp_path, capsys, n=4, seed=3)
        instance["z"] = [z] * 3
        path = write_json(tmp_path / "huge_z.json", instance)
        code, out = run(capsys, "theta", "solve", "--instance", path)
        assert code == 0
        report = json.loads(out)
        assert report["distinct_limits"] == 1
        if converged is not None:
            assert report["converged"] == converged

    def test_forward_underflowed_t_exits_three(self, tmp_path, capsys):
        instance, _ = sample_instance(tmp_path, capsys, n=4, seed=3)
        instance["t"] = [1e-200] * 3
        path = write_json(tmp_path / "tiny_t.json", instance)
        code = main(["theta", "forward", "--instance", path])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(
            "error: torus point outside the domain: minor rows {2} cols {1} = ")

    @pytest.mark.parametrize("n,z", [(2, 1.7e308), (3, 1e308)])
    def test_solve_closed_past_the_float_range_exits_three(self, tmp_path, capsys, n, z):
        # the float closed form overflows (at n = 2, seed 7: R = (z + a')/a
        # with a = 2/3): an arithmetic failure, not an input error
        instance, _ = sample_instance(tmp_path, capsys, n=n, seed=7 if n == 2 else 1)
        instance["z"] = [z] * (n - 1)
        path = write_json(tmp_path / "huge_z.json", instance)
        code = main(["theta", "solve", "--instance", path, "--method", "closed"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(
            "error: OverflowError: closed-form solution is not a finite float: ")

    @pytest.mark.parametrize("n,method", [(2, "closed"), (3, "closed"), (4, "numeric")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_solve_non_finite_target_exits_two(self, tmp_path, capsys, n, method, value):
        instance, _ = sample_instance(tmp_path, capsys, n=n, seed=5)
        instance["z"] = [value] * (n - 1)
        path = write_json(tmp_path / "non_finite_z.json", instance)
        code = main(["theta", "solve", "--instance", path, "--method", method])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: targets must be positive and finite\n"

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("length", ["short", "long"])
    def test_solve_closed_checks_target_length(self, tmp_path, capsys, n, length):
        instance, _ = sample_instance(tmp_path, capsys, n=n, seed=5)
        instance["z"] = instance["z"][:-1] if length == "short" else instance["z"] + ["2"]
        path = write_json(tmp_path / "bad_z.json", instance)
        code = main(["theta", "solve", "--instance", path, "--method", "closed"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "input error: target vector has wrong length\n"

    @pytest.mark.parametrize("subcommand,field,n,extra,message", [
        ("forward", "t", 3, [], "forward needs a 't' field in the instance"),
        ("solve", "z", 3, [], "solve needs a 'z' field in the instance"),
        ("solve", None, 4, ["--method", "closed"],
         "closed-form solve is only available for n <= 3"),
    ])
    def test_unusable_instance_exits_two(self, tmp_path, capsys, subcommand, field,
                                         n, extra, message):
        instance, _ = sample_instance(tmp_path, capsys, n=n, seed=5)
        instance.pop(field, None)
        path = write_json(tmp_path / "partial.json", instance)
        code = main(["theta", subcommand, "--instance", path, *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"input error: {message}\n"

    def test_solve_without_convergence_exits_four(self, tmp_path, capsys):
        _, path = sample_instance(tmp_path, capsys, n=4, seed=2)
        code, _ = run(capsys, "theta", "solve", "--instance", path,
                      "--method", "numeric", "--starts", "1",
                      "--max-iterations", "1", "--newton-tol", "1e-15")
        assert code == 4


class TestVerify:
    def config(self, tmp_path, **overrides):
        payload = {"n": 2, "trials": 3, "seed": 11, "starts": 4,
                   "output_csv": str(tmp_path / "campaign.csv"),
                   "output_json": str(tmp_path / "campaign.json")}
        payload.update(overrides)
        return write_json(tmp_path / "config.json", payload)

    def test_small_campaign_succeeds(self, tmp_path, capsys):
        path = self.config(tmp_path)
        code, out = run(capsys, "verify", "--config", path)
        assert code == 0
        csv_lines = (tmp_path / "campaign.csv").read_text().splitlines()
        assert csv_lines[0] == \
            "instance_id,n,seed,residual,starts,distinct_limits,iterations_max,roundtrip_err"
        assert len(csv_lines) == 4
        for line in csv_lines[1:]:
            fields = line.split(",")
            assert float(fields[3]) < 1e-12   # residual
            assert fields[5] == "1"           # distinct_limits
        summary = json.loads((tmp_path / "campaign.json").read_text())
        assert summary["success_rate"] == 1.0
        assert summary["all_unique_limits"] is True
        assert "generated_at" in summary

    def test_reports_regenerate_identically(self, tmp_path, capsys):
        path = self.config(tmp_path)
        run(capsys, "verify", "--config", path)
        first_csv = (tmp_path / "campaign.csv").read_bytes()
        first_json = json.loads((tmp_path / "campaign.json").read_text())
        run(capsys, "verify", "--config", path)
        assert (tmp_path / "campaign.csv").read_bytes() == first_csv
        second_json = json.loads((tmp_path / "campaign.json").read_text())
        first_json.pop("generated_at")
        second_json.pop("generated_at")
        assert first_json == second_json

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = self.config(tmp_path, trials=0)
        code, _ = run(capsys, "verify", "--config", path)
        assert code == 2

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        path = self.config(tmp_path, colour="blue")
        code = main(["verify", "--config", path])
        assert code == 2
        assert capsys.readouterr().err == "input error: unknown config keys: ['colour']\n"

    def test_multiple_limits_write_counterexamples(self, tmp_path, capsys):
        # a cluster threshold of 1e-300 splits every set of converged starts
        path = self.config(tmp_path, n=3, trials=2, seed=1, starts=10,
                           cluster_threshold=1e-300,
                           counterexample_dir=str(tmp_path / "cx"))
        code, out = run(capsys, "verify", "--config", path)
        assert code == 4
        assert "FAILURES RECORDED" in out
        names = sorted(p.name for p in (tmp_path / "cx").iterdir())
        assert names == ["counterexample-0000.json", "counterexample-0001.json"]
        for k, name in enumerate(names):
            counter = json.loads((tmp_path / "cx" / name).read_text())
            assert counter["instance_id"] == k
        summary = json.loads((tmp_path / "campaign.json").read_text())
        assert summary["multi_limit_instances"] == [0, 1]

    def test_no_convergence_records_infinite_residual(self, tmp_path, capsys):
        path = self.config(tmp_path, n=3, trials=2, seed=1, starts=10,
                           max_iterations=1, newton_tolerance=1e-300)
        code, _ = run(capsys, "verify", "--config", path)
        assert code == 4
        rows = (tmp_path / "campaign.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["inf", "inf"]
        assert not list(tmp_path.glob("counterexample-*.json"))

        def reject(token):  # Infinity and NaN are not JSON (RFC 8259)
            raise ValueError(f"non-standard JSON constant {token}")

        summary = json.loads((tmp_path / "campaign.json").read_text(),
                             parse_constant=reject)
        assert summary["max_residual"] is None
        assert summary["max_roundtrip_err"] is None

    @pytest.mark.parametrize("field,value", [
        ("starts", 0), ("max_iterations", 0), ("newton_tolerance", 0.0),
        ("residual_tolerance", -1e-9), ("cluster_threshold", 0.0)])
    def test_bad_solver_field_exits_two(self, tmp_path, capsys, field, value):
        path = self.config(tmp_path, **{field: value})
        code, _ = run(capsys, "verify", "--config", path)
        assert code == 2

    @pytest.mark.parametrize("margin", [-1e-14, float("nan")])
    def test_negative_membership_margin_rejected(self, margin):
        # the solver takes log z at every accepted iterate, so the domain
        # test must not admit z_j <= 0; no campaign config key sets the
        # margin, so SolverConfig is checked directly
        with pytest.raises(ValueError, match="membership_margin must be >= 0"):
            SolverConfig(membership_margin=margin)
        assert SolverConfig(membership_margin=0.0).membership_margin == 0.0

    def test_defaults_are_the_solver_defaults(self):
        config = CampaignConfig(n=3, trials=1, seed=0)
        assert config.solver_config() == SolverConfig()


class TestFlag:
    def g_file(self, tmp_path, capsys, n=3, seed=4):
        path = tmp_path / "g.json"
        run(capsys, "sample", "--kind", "g", "--n", str(n),
            "--seed", str(seed), "--output", str(path))
        return str(path)

    def test_zeta_emits_float_and_snapped(self, tmp_path, capsys):
        code, out = run(capsys, "flag", "zeta", self.g_file(tmp_path, capsys))
        assert code == 0
        payload = json.loads(out)
        assert "rep_float" in payload and "rep" in payload
        snapped = RationalMatrix.from_json_dict(payload["rep"])
        for i in range(3):
            for j in range(3):
                assert abs(float(snapped.rows[i][j])
                           - payload["rep_float"][i][j]) < 1e-8

    def test_zeta_non_member_exits_one(self, tmp_path, capsys):
        path = matrix_file(tmp_path, "id.json", RationalMatrix.identity(2))
        code, out = run(capsys, "flag", "zeta", path)
        assert code == 1
        assert "verdict" in json.loads(out)

    def test_classify_includes_perron_verdict(self, tmp_path, capsys):
        code, out = run(capsys, "flag", "classify",
                        self.g_file(tmp_path, capsys), "--J", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["J"] == [1]
        assert payload["perron_check"]["ok"] is True

    def test_classify_full_type_gives_identity(self, tmp_path, capsys):
        code, out = run(capsys, "flag", "classify",
                        self.g_file(tmp_path, capsys), "--J", "1,2")
        assert code == 0
        rep = json.loads(out)["rep_float"]
        for i in range(3):
            for j in range(3):
                assert abs(rep[i][j] - (1.0 if i == j else 0.0)) < 1e-9

    def test_split_trivial_parabolic(self, tmp_path, capsys):
        n = 3
        w0 = longest_element(range(1, n), n)
        u = evaluate_params(sample_positive(w0, "lower", 6), "lower", n)
        path = matrix_file(tmp_path, "u.json", u)
        code, out = run(capsys, "flag", "split", path, "--J", "")
        assert code == 0
        payload = json.loads(out)
        assert RationalMatrix.from_json_dict(payload["first"]) == u
        assert RationalMatrix.from_json_dict(payload["second"]) == \
            RationalMatrix.identity(n)

    def test_sigma_round_trip_through_files(self, tmp_path, capsys):
        # build a fibre element: u' v t u'^-1 with t = diag(2, 1/2)
        uprime = RationalMatrix.from_rows([[1, 0], [1, 1]])
        v = RationalMatrix.from_rows([[1, 1], [0, 1]])
        t = RationalMatrix.diagonal([F(2), F(1, 2)])
        g = uprime @ v @ t @ uprime.inverse()
        g_path = matrix_file(tmp_path, "g.json", g)
        b_path = matrix_file(tmp_path, "b.json", uprime)
        code, out = run(capsys, "flag", "sigma", "--g", g_path, "--b", b_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["v"]["params"] == ["1"]
        assert payload["zvec"] == ["1"]

    def test_sigma_missing_args_exits_two(self, capsys):
        code, _ = run(capsys, "flag", "sigma")
        assert code == 2

    def test_tolerance_override(self, tmp_path, capsys):
        # a line_agreement of 0 fails the wedge-line cross-check, which
        # passes at the default (test_classify_includes_perron_verdict)
        g = self.g_file(tmp_path, capsys)
        code = main(["flag", "classify", g, "--J", "1",
                     "--tolerance", "line_agreement=0"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: wedge index 2: leading eigenline deviates")

    @pytest.mark.parametrize("pair,message", [
        ("compare", "--tolerance expects NAME=VALUE, got 'compare'"),
        ("colour=1", "unknown tolerance 'colour'"),
    ])
    def test_bad_tolerance_exits_two(self, tmp_path, capsys, pair, message):
        g = self.g_file(tmp_path, capsys)
        code = main(["flag", "classify", g, "--J", "1", "--tolerance", pair])
        assert code == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


class TestSample:
    def test_deterministic_output(self, capsys):
        code1, out1 = run(capsys, "sample", "--kind", "g", "--n", "3",
                          "--seed", "42")
        code2, out2 = run(capsys, "sample", "--kind", "g", "--n", "3",
                          "--seed", "42")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_lower_sample_is_member(self, capsys, tmp_path):
        code, out = run(capsys, "sample", "--kind", "lower", "--n", "4",
                        "--seed", "12")
        assert code == 0
        payload = json.loads(out)
        path = write_json(tmp_path / "m.json", payload["matrix"])
        code, _ = run(capsys, "check", path, "--kind", "lower")
        assert code == 0

    def test_dimension_cap_is_max_dimension(self, capsys):
        code, out = run(capsys, "sample", "--kind", "g", "--n", "8", "--seed", "1")
        assert code == 0
        assert json.loads(out)["matrix"]["n"] == 8
        code, _ = run(capsys, "sample", "--kind", "g", "--n", "9")
        assert code == 2

    def test_torus_sample(self, capsys):
        code, out = run(capsys, "sample", "--kind", "torus", "--n", "4", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        t = RationalMatrix.from_json_dict(payload["matrix"])
        assert t.is_diagonal() and t.det() == 1
        d = t.diagonal_entries()
        assert [F(c) for c in payload["coords"]] == [d[i + 1] / d[i] for i in range(3)]

    def test_bad_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sample", "--kind", "weird", "--n", "3"])


# numpy's compiled core: present in sys.modules once numpy has executed
# (numpy.core in numpy 1, numpy._core in numpy 2)
NUMPY_EXECUTED = "any(m.endswith('._multiarray_umath') for m in sys.modules)"

CLI_PROBE = ("import sys\n"
             "from tpflag.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "sys.stdout.flush()\n"
             f"print('numpy executed:', {NUMPY_EXECUTED}, file=sys.stderr)\n"
             "sys.exit(code)\n")


def run_fresh(script, *argv):
    """Run a Python script in a new interpreter that imports this tpflag."""
    src = str(Path(tpflag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=False)


@pytest.fixture
def cli_inputs(tmp_path, capsys):
    """Input files for every subcommand, written by the in-process CLI."""
    def sample(kind, n, seed):
        path = str(tmp_path / f"{kind}{n}.json")
        assert run(capsys, "sample", "--kind", kind, "--n", str(n),
                   "--seed", str(seed), "--output", path)[0] == 0
        return path

    w0 = longest_element(range(1, 3), 3)
    uprime = RationalMatrix.from_rows([[1, 0], [1, 1]])
    fibre = (uprime @ RationalMatrix.from_rows([[1, 1], [0, 1]])
             @ RationalMatrix.diagonal([F(2), F(1, 2)]) @ uprime.inverse())
    return {
        "lower": matrix_file(tmp_path, "lower.json", uprime),
        "upper": matrix_file(tmp_path, "upper.json", uprime.transpose()),
        "g": sample("g", 3, 4),
        "identity": matrix_file(tmp_path, "id.json", RationalMatrix.identity(3)),
        "instance2": sample("instance", 2, 9),
        "instance3": sample("instance", 3, 5),
        "fibre": matrix_file(tmp_path, "fibre.json", fibre),
        "u": matrix_file(tmp_path, "u.json", evaluate_params(
            sample_positive(w0, "lower", 6), "lower", 3)),
    }


EXACT_CALLS = [
    ("check", "{lower}", "--kind", "lower"),
    ("check", "{upper}", "--kind", "upper"),
    ("check", "{g}", "--kind", "g"),
    ("check", "{identity}", "--kind", "g"),
    *[("sample", "--kind", kind, "--n", "3", "--seed", "7")
      for kind in ("lower", "upper", "g", "torus", "instance")],
    ("theta", "forward", "--instance", "{instance3}"),
    *[("theta", "solve", "--instance", f"{{instance{n}}}", "--method", method)
      for n in (2, 3) for method in ("auto", "closed")],
    ("flag", "sigma", "--g", "{fibre}", "--b", "{lower}"),
    ("flag", "split", "{u}", "--J", "1"),
]

FLOAT_CALLS = [
    ("flag", "zeta", "{g}"),
    ("flag", "classify", "{g}", "--J", "1"),
    ("theta", "solve", "--instance", "{instance2}", "--method", "numeric"),
]

PUBLIC_NAMES = sorted("""
    CampaignReport CellCoordinates DEFAULT_TOLERANCES DecompositionUnavailable
    EigenFlag EigenvalueCollision FlagComputationError FlagPoint FloatTolerances
    GaussFactors LusztigParams MembershipViolation MinorWitness NoConvergence
    NotInCell NotInFibre NotInTorusSet NotPositive ParabolicPoint
    PositivityVerdict RationalMatrix SolveReport SolverConfig ThetaInstance
    TorusPoint TotalPositivityError WeylElement ZSystem check_partition
    colex_subsets concat_is_reduced eigen_flag errors evaluate_params exactmat
    exterior_power extract_params flag gamma_p_point gauss_decompose
    is_g_positive is_reduced is_totally_positive_unitriangular length
    longest_element minor perfect_nth_root perron_line_check prng reduced_word
    relevant_minor_pairs sample_g_positive sample_positive
    sample_torus_in_domain sample_torus_matrix sigma_b sigma_b_inverse
    sl3_root_pair snap_matrix split_cell theta theta_forward
    theta_inverse_numeric theta_inverse_sl2 theta_inverse_sl3 torus_conjugate
    torus_set_membership totpos verify_conjecture weyl z_function zeta
    zeta_j""".split())


class TestNumpyOnDemand:
    """numpy executes on the first float computation, not at import."""

    @pytest.mark.parametrize("argv,loads", [(a, False) for a in EXACT_CALLS]
                             + [(a, True) for a in FLOAT_CALLS],
                             ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_cli_call_loads_numpy_only_for_floats(self, capsys, cli_inputs,
                                                  argv, loads):
        argv = [arg.format(**cli_inputs) for arg in argv]
        code, out = run(capsys, *argv)
        fresh = run_fresh(CLI_PROBE, *argv)
        assert (fresh.returncode, fresh.stdout) == (code, out)
        assert fresh.stderr.splitlines()[-1] == f"numpy executed: {loads}"

    def test_import_and_star_import_leave_numpy_unloaded(self):
        fresh = run_fresh(
            "import sys, tpflag\n"
            "names = {}\n"
            "exec('from tpflag import *', names)\n"
            "print(sorted(set(names) - {'__builtins__'}))\n"
            f"print({NUMPY_EXECUTED})\n")
        assert fresh.returncode == 0, fresh.stderr
        names, executed = fresh.stdout.splitlines()
        assert executed == "False"
        assert names == str(PUBLIC_NAMES)

    def test_lazy_binding_is_the_loaded_numpy(self):
        fresh = run_fresh(
            "import sys, numpy\n"
            "before = sys.modules['numpy']\n"
            "import tpflag.flag, tpflag.theta\n"
            "print(tpflag.theta.np is numpy, tpflag.flag.np is numpy,\n"
            "      sys.modules['numpy'] is before)\n")
        assert (fresh.returncode, fresh.stdout) == (0, "True True True\n")

    def test_first_float_call_gives_the_same_bits(self, cli_inputs):
        script = ("import json, sys, tpflag\n"
                  f"print({NUMPY_EXECUTED})\n"
                  "g = tpflag.RationalMatrix.from_json_dict(\n"
                  "    json.load(open(sys.argv[1]))['matrix'])\n"
                  "ef = tpflag.eigen_flag(g)\n"
                  "print([x.hex() for x in ef.eigenvalues]\n"
                  "      + [x.hex() for row in ef.basis for x in row])\n")
        lazy = run_fresh(script, cli_inputs["g"])
        eager = run_fresh("import numpy\n" + script, cli_inputs["g"])
        assert lazy.returncode == eager.returncode == 0, lazy.stderr + eager.stderr
        assert lazy.stdout.splitlines()[0] == "False"
        assert eager.stdout.splitlines()[0] == "True"
        assert lazy.stdout.splitlines()[1] == eager.stdout.splitlines()[1]

