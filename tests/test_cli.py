import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from momentdet import cli


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def src_env():
    """The environment of a child process that imports this checkout's momentdet,
    with RuntimeWarnings as errors as in the suite's own filterwarnings."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def exp_normal_spec(tmp_path):
    return write_spec(tmp_path, {
        "version": 1,
        "factors": [{"family": "exp"}, {"family": "normal"}],
    })


@pytest.fixture
def exp_spec(tmp_path):
    return write_spec(tmp_path, {"version": 1, "factors": [{"family": "exp"}]})


class TestAnalyze:
    def test_indeterminate_exit_and_citation(self, exp_normal_spec):
        code, out = run_cli("analyze", exp_normal_spec)
        assert code == cli.EXIT_MINDET
        doc = json.loads(out)
        assert doc["conclusion"] == "M-indet"
        assert "Corollary 4" in doc["rule"]

    def test_determinate_exit(self, exp_spec):
        code, out = run_cli("analyze", exp_spec)
        assert code == cli.EXIT_MDET
        doc = json.loads(out)
        assert doc["conclusion"] == "M-det"
        assert "Theorem 1" in doc["rule"]

    def test_inconclusive_exit(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1, "beta": 0.50000001, "gamma": 1}]})
        code, out = run_cli("analyze", spec)
        assert code == cli.EXIT_INCONCLUSIVE

    @pytest.mark.parametrize("factor", [
        {"family": "GG", "alpha": 1, "beta": -2, "gamma": 1},
        {"family": "exp", "rate": None},
        {"family": "GG", "alpha": [1], "beta": 1, "gamma": 1},
        {"family": "IG", "mu": {}, "lambda": 1},
        {"family": "GG", "alpha": 1, "beta": "1/0", "gamma": 1},
        {"family": "GG", "alpha": 1, "beta": "1e400", "gamma": 1},
        {"family": "GG", "alpha": True, "beta": 1, "gamma": 1},
    ], ids=["negative", "null", "list", "object", "zero-denominator", "overflow", "bool"])
    def test_malformed_parameter(self, tmp_path, capsys, factor):
        spec = write_spec(tmp_path, {"factors": [factor]})
        code, _ = run_cli("analyze", spec)
        assert code == cli.EXIT_USAGE
        assert "factors[0]" in capsys.readouterr().err

    def test_unknown_family_named(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"factors": [{"family": "cauchy"}]})
        code, _ = run_cli("analyze", spec)
        assert code == cli.EXIT_USAGE
        assert "factors[0]" in capsys.readouterr().err

    def test_parse_error_has_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"factors": [}')
        code, _ = run_cli("analyze", str(path))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file(self, capsys):
        code, _ = run_cli("analyze", "/nonexistent/spec.json")
        assert code == cli.EXIT_USAGE

    def test_deterministic_output(self, exp_normal_spec):
        _, out1 = run_cli("analyze", exp_normal_spec)
        _, out2 = run_cli("analyze", exp_normal_spec)
        assert out1 == out2

    def test_report_round_trip(self, exp_normal_spec):
        _, out = run_cli("analyze", exp_normal_spec)
        doc = json.loads(out)
        assert doc["conclusion"] == "M-indet"
        assert doc["exponent_sum"] == pytest.approx(1.5)
        assert doc["threshold"] == 1.0
        assert [f["family"] for f in doc["input"]["factors"]] == ["GG", "DGG"]
        assert doc["factor_exponents"] == [1.0, 0.5]

    def test_ratio_flag(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}, {"family": "exp"}]})
        code, out = run_cli("analyze", spec, "--ratio")
        assert code == cli.EXIT_MDET
        doc = json.loads(out)
        assert doc["ratio_route"]["conclusion"] == "M-det"
        assert "Theorem 6" in doc["ratio_route"]["rule"]

    def test_pretty_includes_explanation(self, exp_normal_spec):
        code, out = run_cli("analyze", exp_normal_spec, "--pretty")
        doc = json.loads(out)
        assert any("Corollary 4" in line for line in doc["explanation"])

    @pytest.mark.parametrize("factors,line", [
        ([{"family": "IG", "mu": 1, "lambda": 2000}, {"family": "IG", "mu": 1, "lambda": 1},
          {"family": "exp"}],
         "  - hazard_bound: holds (factor=IG(mu=1, lambda=2000), ln A=-993.092)"),
        ([{"family": "GG", "alpha": 1, "beta": "1/20", "gamma": 9}],
         "  - tail_bound: holds (factor=GG(alpha=1, beta=0.05, gamma=9), ln B=-753.055)"),
    ], ids=["A", "B"])
    def test_pretty_shows_log_of_underflowing_constant(self, tmp_path, factors, line):
        code, out = run_cli("analyze", write_spec(tmp_path, {"factors": factors}), "--pretty")
        assert code == cli.EXIT_MINDET
        lines = json.loads(out)["explanation"]
        assert line in lines
        # the constants are shown by their logs only, never as a float that underflows to 0
        assert not any(", A=" in l or ", B=" in l for l in lines)

    def test_alias_canonicalization(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [
            {"family": "chisq", "nu": 3}, {"family": "halfnormal"},
            {"family": "IG", "mu": 1, "lambda": 2}]})
        _, out = run_cli("analyze", spec)
        doc = json.loads(out)
        fams = [f["family"] for f in doc["input"]["factors"]]
        assert fams == ["GG", "GG", "IG"]
        chisq = doc["input"]["factors"][0]
        assert (chisq["alpha"], chisq["beta"], chisq["gamma"]) == (0.5, 1.0, 1.5)

    def test_rational_beta_string(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1, "beta": "1/3", "gamma": 1}]})
        code, out = run_cli("analyze", spec)
        assert code == cli.EXIT_MINDET
        doc = json.loads(out)
        assert doc["exact_boundary_arithmetic"] is True

    def test_unknown_override_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}],
                                     "overrides": {"tolerancee": 0.1}})
        code, _ = run_cli("analyze", spec)
        assert code == cli.EXIT_USAGE
        assert "tolerancee" in capsys.readouterr().err

    def test_schedule_override_for_krein(self, tmp_path):
        spec = write_spec(tmp_path, {
            "factors": [{"family": "normal"}],
            "overrides": {"schedule": [10.0 * 2 ** j for j in range(20)]},
        })
        code, out = run_cli("criterion", "krein", spec)
        assert code == cli.EXIT_FAILS
        assert len(json.loads(out)["evidence"]["ladder"]) == 20


class TestConfig:
    @pytest.mark.parametrize("flags,field", [
        (("--k-horizon", "0"), "k_horizon"),
        (("--k-horizon", "10"), "k_horizon"),
        (("--x0", "0"), "x0"),
        (("--x0", "-5"), "x0"),
        (("--x0", "nan"), "x0"),
        (("--x0", "inf"), "x0"),
    ])
    @pytest.mark.parametrize("command", [("analyze",), ("criterion", "growth")])
    def test_invalid_flag_named(self, exp_spec, capsys, command, flags, field):
        code, out = run_cli(*command, exp_spec, *flags)
        assert code == cli.EXIT_USAGE and out == ""
        assert f"{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,field", [
        ({"k_horizon": "abc"}, "k_horizon"),
        ({"k_horizon": 39}, "k_horizon"),
        ({"k_horizon": 200.5}, "k_horizon"),
        ({"x0": "1"}, "x0"),
        ({"x0": -1}, "x0"),
    ])
    def test_invalid_override_named(self, tmp_path, capsys, overrides, field):
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}], "overrides": overrides})
        code, _ = run_cli("analyze", spec)
        assert code == cli.EXIT_USAGE
        assert f"{field}:" in capsys.readouterr().err

    def test_valid_values_echoed(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}],
                                     "overrides": {"k_horizon": 40, "x0": 2}})
        code, out = run_cli("analyze", spec)
        assert code == cli.EXIT_MDET
        doc = json.loads(out)
        assert (doc["k_horizon"], doc["x0"]) == (40, 2.0)
        code, out = run_cli("analyze", spec, "--k-horizon", "60", "--x0", "3.5")
        doc = json.loads(out)
        assert (doc["k_horizon"], doc["x0"]) == (60, 3.5)


    @pytest.mark.parametrize("overrides,field", [
        ({"seed": "abc"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"mc": 100000.7}, "mc"),
        ({"mc": "1e6"}, "mc"),
        ({"mc": 0}, "mc"),
        ({"kmax": True}, "kmax"),
        ({"kmax": 0}, "kmax"),
        ({"kmax": 9}, "kmax"),
        ({"schedule": 5}, "schedule"),
        ({"schedule": ["a", "b", "c", "d", "e", "f"]}, "schedule"),
    ])
    @pytest.mark.parametrize("command", [("verify",), ("criterion", "krein")])
    def test_invalid_setting_named_by_every_command(self, tmp_path, capsys, command,
                                                     overrides, field):
        # the spec is one document: every command checks all six settings
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}], "overrides": overrides})
        code, out = run_cli(*command, spec)
        assert code == cli.EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert f"{field}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags,field", [(("--mc", "0"), "mc"), (("--kmax", "0"), "kmax")])
    def test_verify_zero_flag_rejected(self, exp_spec, capsys, flags, field):
        code, out = run_cli("verify", exp_spec, *flags)
        assert code == cli.EXIT_USAGE and out == ""
        assert f"{field}:" in capsys.readouterr().err

    def test_verify_takes_no_decision_flags(self, exp_spec):
        code, out = run_cli("verify", exp_spec, "--x0", "2")
        assert code == cli.EXIT_USAGE and out == ""
        _, out = run_cli("verify", "--help")
        assert "--x0" not in out and "--k-horizon" not in out


class TestCriterion:
    def test_krein_counterexample(self):
        code, out = run_cli("criterion", "krein", "--counterexample", "stieltjes",
                            "--delta", "2")
        assert code == cli.EXIT_HOLDS
        doc = json.loads(out)
        assert doc["evidence"]["classification"] == "finite"

    def test_krein_counterexample_bad_delta(self, capsys):
        code, _ = run_cli("criterion", "krein", "--counterexample", "stieltjes",
                          "--delta", "1.0")
        assert code == cli.EXIT_USAGE

    def test_hardy_on_exponential(self, exp_spec):
        code, out = run_cli("criterion", "hardy", exp_spec)
        assert code == cli.EXIT_HOLDS
        doc = json.loads(out)
        assert doc["evidence"]["c0"] <= 1.0

    def test_carleman_on_heavy_factor(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1, "beta": "1/3", "gamma": 1}]})
        code, out = run_cli("criterion", "carleman", spec)
        assert code == cli.EXIT_FAILS
        assert json.loads(out)["evidence"]["classification"] == "convergent"

    def test_growth_exit_holds(self, exp_spec):
        code, out = run_cli("criterion", "growth", exp_spec)
        assert code == cli.EXIT_HOLDS

    def test_lin_requires_single_factor(self, exp_normal_spec, capsys):
        code, _ = run_cli("criterion", "lin", exp_normal_spec)
        assert code == cli.EXIT_USAGE

    def test_lin_on_slow_family_holds(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 0.655715, "beta": "1/23", "gamma": 0.116983}]})
        code, out = run_cli("criterion", "lin", spec)
        assert code == cli.EXIT_HOLDS
        assert json.loads(out)["status"] == "holds"

    def test_lin_family_overflowing_grid_holds(self, tmp_path):
        # L = 1 + 5 x^5 overflows on the grid from 1e100; the status is closed form
        spec = write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1, "beta": 5, "gamma": 1}]})
        code, out = run_cli("criterion", "lin", spec, "--x0", "1e100")
        assert code == cli.EXIT_HOLDS
        assert json.loads(out)["status"] == "holds"

    def test_krein_on_normal_fails_exit(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [{"family": "normal"}]})
        code, out = run_cli("criterion", "krein", spec)
        assert code == cli.EXIT_FAILS
        assert json.loads(out)["evidence"]["classification"] == "infinite"

    def test_spec_required_without_counterexample(self, capsys):
        code, _ = run_cli("criterion", "hardy")
        assert code == cli.EXIT_USAGE


class TestVerify:
    def test_pass_and_exit_zero(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}, {"family": "exp"}]})
        code, out = run_cli("verify", spec, "--mc", "150000", "--seed", "7", "--kmax", "4")
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["seed"] == 7
        assert len(doc["monte_carlo"]) == 4
        assert all(r["ok"] for r in doc["oracle"])

    def test_normal_moments(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [{"family": "normal"}]})
        code, out = run_cli("verify", spec, "--mc", "150000", "--seed", "3", "--kmax", "6")
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        analytic = [r["analytic"] for r in doc["monte_carlo"]]
        assert analytic == pytest.approx([0.0, 1.0, 0.0, 3.0, 0.0, 15.0], rel=1e-9)

    def test_seed_from_overrides(self, tmp_path):
        spec = write_spec(tmp_path, {
            "factors": [{"family": "exp"}],
            "overrides": {"seed": 123, "mc": 150000},
        })
        code, out = run_cli("verify", spec)
        assert code == cli.EXIT_OK
        assert json.loads(out)["seed"] == 123

    def test_determinism(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [{"family": "IG", "mu": 1, "lambda": 1}]})
        _, out1 = run_cli("verify", spec, "--mc", "120000", "--seed", "9")
        _, out2 = run_cli("verify", spec, "--mc", "120000", "--seed", "9")
        assert out1 == out2

    def test_numerical_failure_is_reported(self, tmp_path):
        # the moment integrand of factor 0 peaks near x = e^1000 and its
        # moments overflow: the oracle and Monte Carlo failures are reported,
        # the other factor keeps its oracle row
        spec = write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1e-3, "beta": "1/50", "gamma": 100}, {"family": "exp"}]})
        run = subprocess.run([sys.executable, "-m", "momentdet.cli", "verify", spec,
                              "--mc", "100000", "--kmax", "2"],
                             env=src_env(), capture_output=True, text=True)
        assert run.returncode == cli.EXIT_VERIFY_FAILED
        assert "Traceback" not in run.stderr
        assert "RuntimeWarning" not in run.stderr
        doc = json.loads(run.stdout)
        assert doc["ok"] is False
        assert doc["failures"][0].startswith("oracle failed on factor 0")
        assert any(f.startswith("Monte Carlo failed") for f in doc["failures"])
        assert [r["factor_index"] for r in doc["oracle"]] == [1] and doc["oracle"][0]["ok"]


class TestParser:
    def test_version_flag(self):
        code, _ = run_cli("--version")
        assert code == 0

    def test_no_command_is_usage_error(self):
        code, _ = run_cli()
        assert code == cli.EXIT_USAGE

    def test_unknown_criterion_choice(self, exp_spec):
        code, _ = run_cli("criterion", "bogus", exp_spec)
        assert code == cli.EXIT_USAGE


GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "cli_golden"


def test_import_leaves_integrate_and_optimize_unloaded():
    # only the quadrature oracle and Krein use them; they import on first call
    code = ("import sys, momentdet.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestGoldenBytes:
    """Report bytes pinned from an earlier release of the CLI."""

    @pytest.mark.parametrize("name,argv", [
        ("analyze", ("analyze", "product.json")),
        ("analyze_ratio_pretty", ("analyze", "--ratio", "--pretty", "product.json")),
        ("criterion_growth", ("criterion", "growth", "product.json")),
        ("verify", ("verify", "light.json")),
    ])
    def test_report_bytes_unchanged(self, name, argv):
        *head, spec = argv
        _, out = run_cli(*head, str(GOLDEN / spec))
        assert out == (GOLDEN / f"{name}.out").read_text()
