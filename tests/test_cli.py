import ast
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from momentdet import cli, criteria
from momentdet import distributions as dist


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

    @pytest.mark.parametrize("factor,unknown,known", [
        ({"family": "GG", "alpha": 1, "beta": 2, "gamma": 1, "mu": 3, "betta": 9},
         "['betta', 'mu']", "['alpha', 'beta', 'family', 'gamma']"),
        ({"family": "DGG", "alpha": 1, "beta": 2, "gamma": 1, "beta_exact": "2"},
         "['beta_exact']", "['alpha', 'beta', 'family', 'gamma']"),
        ({"family": "IG", "mu": 1, "lambda": 2, "alpha": 1},
         "['alpha']", "['family', 'lam', 'lambda', 'mu']"),
        ({"family": "exp", "lambda": 2}, "['lambda']", "['family', 'rate']"),
        ({"family": "chisq", "nu": 3, "k": 3}, "['k']", "['family', 'nu']"),
        ({"family": "normal", "sigma": 2}, "['sigma']", "['family']"),
    ], ids=["gg-typo", "dgg-beta-exact", "ig", "exp", "chisq", "normal"])
    def test_unknown_factor_key_named(self, tmp_path, capsys, factor, unknown, known):
        # a key outside the family's parameters is rejected, never ignored
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}, factor]})
        code, out = run_cli("analyze", spec)
        assert code == cli.EXIT_USAGE and out == ""
        assert capsys.readouterr().err == (
            f"momentdet: error: factors[1]: unknown key(s) {unknown} for family "
            f"{factor['family']!r} (known: {known})\n")

    @pytest.mark.parametrize("factor,field", [
        ({"family": "GG", "alpha": 1, "gamma": 1}, "beta"),
        ({"family": "chi-square"}, "nu"),
        ({"family": "IG", "mu": 1, "lambda": None}, "lambda"),
    ], ids=["gg", "chisq-alias", "ig-null"])
    def test_missing_parameter_named(self, tmp_path, capsys, factor, field):
        spec = write_spec(tmp_path, {"factors": [factor]})
        assert run_cli("analyze", spec) == (cli.EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            f"momentdet: error: factors[0].{field}: missing for family {factor['family']!r}\n")

    def test_lam_is_an_alias_of_lambda(self, tmp_path):
        spec = write_spec(tmp_path, {"factors": [{"family": "IG", "mu": 1, "lam": 2}]})
        code, out = run_cli("analyze", spec)
        assert code == cli.EXIT_MDET
        assert json.loads(out)["input"]["factors"] == [{"family": "IG", "mu": 1.0, "lambda": 2.0}]

    def test_lambda_and_lam_together_rejected(self, tmp_path, capsys):
        # either spelling alone is lambda; both at once would drop one value
        spec = write_spec(tmp_path, {"factors": [
            {"family": "exp"}, {"family": "IG", "mu": 1, "lambda": 2, "lam": 5}]})
        assert run_cli("analyze", spec) == (cli.EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            "momentdet: error: factors[1]: 'lam' is an alias of 'lambda'; give one of them\n")

    def test_unknown_top_level_key_named(self, tmp_path, capsys):
        # a misspelt "overrides" would otherwise drop every setting in it
        spec = write_spec(tmp_path, {"version": 1, "factors": [{"family": "exp"}],
                                     "overides": {"seed": -5}})
        assert run_cli("analyze", spec) == (cli.EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            "momentdet: error: spec document: unknown key(s) ['overides'] "
            "(known: ['factors', 'overrides', 'version'])\n")

    @pytest.mark.parametrize("text,key", [
        ('{"factors": [{"family": "exp"}], "factors": [{"family": "normal"}]}', "factors"),
        ('{"factors": [{"family": "GG", "alpha": 1, "beta": 2, "gamma": 1, "beta": 3}]}', "beta"),
        ('{"factors": [{"family": "exp"}], "overrides": {"seed": 1, "seed": 2}}', "seed"),
    ], ids=["top-level", "factor", "overrides"])
    def test_duplicate_key_named(self, tmp_path, capsys, text, key):
        # JSON would keep the last of two equal keys and drop the first unseen
        path = tmp_path / "dup.json"
        path.write_text(text)
        assert run_cli("analyze", str(path)) == (cli.EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            f"momentdet: error: duplicate key {key!r} in a spec object\n")

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2, 0, None, [1]])
    def test_version_other_than_the_int_1_rejected(self, tmp_path, capsys, version):
        # true and 1.0 compare equal to 1, yet neither is the version 1
        spec = write_spec(tmp_path, {"version": version, "factors": [{"family": "exp"}]})
        code, out = run_cli("analyze", spec)
        assert code == cli.EXIT_USAGE and out == ""
        assert capsys.readouterr().err == (
            f"momentdet: error: unsupported spec version {version!r} (expected 1)\n")

    @pytest.mark.parametrize("doc", [{"version": 1}, {}], ids=["one", "absent"])
    def test_version_1_or_absent_accepted(self, tmp_path, doc):
        spec = write_spec(tmp_path, {**doc, "factors": [{"family": "exp"}]})
        assert run_cli("analyze", spec)[0] == cli.EXIT_MDET

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

    @pytest.mark.parametrize("pretty", [(), ("--pretty",)])
    def test_non_finite_evidence_is_strict_json(self, tmp_path, pretty):
        # this density decreases from 0 on: the report says "-inf" for the log
        # of that point, which a strict parser accepts, where -Infinity is not JSON
        spec = write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1, "beta": "1/3", "gamma": 1}]})
        code, out = run_cli("analyze", spec, *pretty)
        assert code == cli.EXIT_MINDET

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        doc = json.loads(out, parse_constant=refuse)
        assert doc["side_conditions"][0]["evidence"]["ln_decreasing_from"] == "-inf"

    def test_every_non_finite_float_is_named(self, capsys):
        args = cli.build_parser().parse_args(["analyze", "spec.json"])
        cli._emit(args, {}, {"values": [float("inf"), -math.inf, math.nan, 1.5],
                             "nested": {"z": (np.float64(-np.inf),)}})
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == ["inf", "-inf", "nan", 1.5]
        assert doc["nested"] == {"z": ["-inf"]}

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

    def test_schedule_override_for_krein(self, tmp_path, capsys):
        # the Krein ladder is the built-in one: "schedule" is an unknown key
        for factor, schedule in [
                ({"family": "normal"}, [10.0 * 2 ** j for j in range(20)]),
                # a short ladder once read this infinite integral as finite
                ({"family": "IG", "mu": 1, "lambda": 1}, [2, 3, 4, 5, 6, 7])]:
            spec = write_spec(tmp_path, {"factors": [factor], "overrides": {"schedule": schedule}})
            code, out = run_cli("criterion", "krein", spec)
            assert code == cli.EXIT_USAGE and out == ""
            assert "unknown key(s) ['schedule']" in capsys.readouterr().err


INVALID_FLAGS = [(("--k-horizon", "0"), "k_horizon"), (("--k-horizon", "10"), "k_horizon"),
                 (("--x0", "0"), "x0"), (("--x0", "-5"), "x0"), (("--x0", "nan"), "x0"),
                 (("--x0", "inf"), "x0")]


class TestConfig:
    # No command takes --k-horizon or --x0: the moment horizon is fixed and the
    # start of the side conditions is worked out, so either flag is
    # unrecognized whatever its value
    @pytest.mark.parametrize("command,flags,field", [
        pytest.param(command, flags, field, id=f"command{i}-flags{j}-{field}")
        for i, command in enumerate([("analyze",), ("criterion", "growth")])
        for j, (flags, field) in enumerate(INVALID_FLAGS)])
    def test_invalid_flag_named(self, exp_spec, capsys, command, flags, field):
        code, out = run_cli(*command, exp_spec, *flags)
        assert code == cli.EXIT_USAGE and out == ""
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    def test_analyze_takes_no_k_horizon_flag(self, exp_spec, capsys):
        # no decision and no criterion reads a moment horizon from the user
        for command in (("analyze",), ("criterion", "growth")):
            code, out = run_cli(*command, exp_spec, "--k-horizon", "60")
            assert code == cli.EXIT_USAGE and out == ""
            assert "unrecognized arguments: --k-horizon" in capsys.readouterr().err
            _, out = run_cli(*command, "--help")
            assert "--x0" not in out and "--k-horizon" not in out

    @pytest.mark.parametrize("overrides,field", [
        ({"k_horizon": "abc"}, "k_horizon"),
        ({"k_horizon": 39}, "k_horizon"),
        ({"k_horizon": 200.5}, "k_horizon"),
        ({"x0": "1"}, "x0"),
        ({"x0": -1}, "x0"),
    ])
    def test_invalid_override_named(self, tmp_path, capsys, overrides, field):
        # "k_horizon" and "x0" are no settings: any value of them is an unknown key
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}], "overrides": overrides})
        code, _ = run_cli("analyze", spec)
        assert code == cli.EXIT_USAGE
        assert f"unknown key(s) ['{field}']" in capsys.readouterr().err

    def test_valid_values_echoed(self, tmp_path):
        # verify's settings are valid in any spec; analyze and criterion read none
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}],
                                     "overrides": {"seed": 7, "mc": 200000, "kmax": 2}})
        code, out = run_cli("analyze", spec)
        assert code == cli.EXIT_MDET
        assert not set(json.loads(out)) & {"seed", "n", "kmax", "k_horizon", "x0"}
        # the closed form on a spec reads no moment horizon either
        _, out = run_cli("criterion", "growth", spec)
        assert not set(json.loads(out)["evidence"]) & {"seed", "n", "kmax", "k_max"}
        assert set(cli.SETTINGS) == {"seed", "mc", "kmax"}

    @pytest.mark.parametrize("name", cli.CRITERION_NAMES)
    def test_no_setting_reaches_a_criterion(self, tmp_path, name):
        factors = [{"family": "GG", "alpha": 1, "beta": "1/3", "gamma": 1}]
        plain = write_spec(tmp_path, {"factors": factors}, "plain.json")
        tuned = write_spec(tmp_path, {"factors": factors,
                                      "overrides": {"seed": 3, "mc": 200000, "kmax": 2}})
        assert run_cli("criterion", name, tuned) == run_cli("criterion", name, plain)


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
        ({"k_horizon": 200}, "k_horizon"),
        ({"schedule": [10, 20, 40, 80, 160, 320]}, "schedule"),
    ])
    @pytest.mark.parametrize("command", [("verify",), ("criterion", "krein"), ("analyze",)])
    def test_invalid_setting_named_by_every_command(self, tmp_path, capsys, command,
                                                     overrides, field):
        # the spec is one document: every command checks all three settings,
        # and "k_horizon" and "schedule" are unknown keys whatever their value
        spec = write_spec(tmp_path, {"factors": [{"family": "exp"}], "overrides": overrides})
        code, out = run_cli(*command, spec)
        assert code == cli.EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        removed = field in ("k_horizon", "schedule")
        named = f"unknown key(s) ['{field}']" if removed else f"{field}:"
        assert named in err and "Traceback" not in err

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

    def test_krein_counterexample_echoes_the_default_delta(self):
        code, out = run_cli("criterion", "krein", "--counterexample", "hamburger")
        assert code == cli.EXIT_HOLDS
        assert json.loads(out)["input"] == {"counterexample": "hamburger", "delta": 2.0}

    @pytest.mark.parametrize("spec_doc", [{"factors": [{"family": "exp"}]}, {"factors": []}])
    def test_spec_and_counterexample_exclude_each_other(self, tmp_path, capsys, spec_doc):
        # a valid spec is not ignored, and an invalid one not skipped unparsed
        spec = write_spec(tmp_path, spec_doc)
        code, out = run_cli("criterion", "krein", spec, "--counterexample", "stieltjes")
        assert code == cli.EXIT_USAGE and out == ""
        assert "exclude each other" in capsys.readouterr().err

    @pytest.mark.parametrize("name", cli.CRITERION_NAMES)
    def test_delta_without_counterexample_rejected(self, exp_spec, capsys, name):
        code, out = run_cli("criterion", name, exp_spec, "--delta", "3")
        assert code == cli.EXIT_USAGE and out == ""
        assert "--delta applies to --counterexample only" in capsys.readouterr().err

    def test_krein_counterexample_bad_delta(self, capsys):
        code, _ = run_cli("criterion", "krein", "--counterexample", "stieltjes",
                          "--delta", "1.0")
        assert code == cli.EXIT_USAGE

    # the witness's scan window passes the float range from about delta = 53.5
    # (half line) and 107 (line); an infinite delta is no delta
    @pytest.mark.parametrize("case,delta", [("stieltjes", "100"), ("hamburger", "1000"),
                                            ("stieltjes", "inf"), ("hamburger", "inf")])
    def test_krein_counterexample_large_delta_named(self, capsys, case, delta):
        code, out = run_cli("criterion", "krein", "--counterexample", case, "--delta", delta)
        assert code == cli.EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert "delta" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("name", ["lin", "krein"])
    def test_ig_with_mu_squared_past_the_float_range(self, tmp_path, name):
        # mu^2 = 1e400 overflows in the closed form of L; Condition L holds,
        # and the Krein integral of an IG density is infinite
        spec = write_spec(tmp_path, {"factors": [{"family": "IG", "mu": 1e200, "lambda": 1}]})
        code, out = run_cli("criterion", name, spec)
        assert code == {"lin": cli.EXIT_HOLDS, "krein": cli.EXIT_FAILS}[name]
        assert json.loads(out)["name"] == name

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
        # the command starts at 1; from 1e100, a start only the library takes,
        # L = 1 + 5 x^5 overflows on the grid and the status is closed form
        spec = write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1, "beta": 5, "gamma": 1}]})
        code, out = run_cli("criterion", "lin", spec)
        assert code == cli.EXIT_HOLDS and json.loads(out)["status"] == "holds"
        rep = criteria.condition_L_check(dist.gg(1, 5, 1), x0=1e100)
        assert rep.status == criteria.HOLDS

    @pytest.mark.parametrize("factor", [
        {"family": "GG", "alpha": 1e300, "beta": 5, "gamma": 1},
        {"family": "IG", "mu": 1e-160, "lambda": 1e300}])
    def test_lin_past_the_float_range_is_monotone_without_nan(self, tmp_path, factor):
        # L passes the float range on [1, 1e4]: no sample reads as a fall and
        # no inf - inf as the climb
        code, out = run_cli("criterion", "lin", write_spec(tmp_path, {"factors": [factor]}))
        ev = json.loads(out)["evidence"]
        assert code == cli.EXIT_HOLDS and ev["monotone"] is True and ev["climb"] == "inf"
        assert '"nan"' not in out

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
    # only the quadrature oracle and Krein use them, only the kernels that
    # evaluate a special function use scipy.special, and each module binds
    # NumPy on its first array operation; they import on first call
    code = ("import sys, momentdet.cli; print([m for m in "
            "('numpy', 'scipy.special', 'scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _is_heavy(module):
    return isinstance(module, str) and module.split(".")[0] in ("numpy", "scipy")


def test_numpy_and_scipy_load_only_on_first_use():
    # Each module binds NumPy and SciPy as module globals of the form
    # `name = _OnFirstUse(globals(), "name", module)`, and the first attribute
    # lookup on one imports its module and rebinds `name`.  No module imports
    # them any other way, so none can load them at import time or pay for an
    # import statement per call; a binding under another global than `name`
    # would never be rebound, and every bound name is used.
    for path in sorted(pathlib.Path(cli.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loader = [n for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "_OnFirstUse"
                  for n in c.body if isinstance(n, ast.FunctionDef) and n.name == "__getattr__"]
        exempt = {id(n) for f in loader for n in ast.walk(f)}
        bindings = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and getattr(node.value.func, "id", None) == "_OnFirstUse":
                call = node.value
                namespace, name, _ = call.args
                assert ast.unparse(namespace) == "globals()", f"{path.name}:{node.lineno}"
                assert [ast.unparse(t) for t in node.targets] == [name.value], \
                    f"{path.name}:{node.lineno} binds {name.value!r} under another name"
                bindings[id(call)] = name.value
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Import):
                assert not any(_is_heavy(a.name) for a in node.names), where
            elif isinstance(node, ast.ImportFrom):
                assert node.level > 0 or not _is_heavy(node.module), where
            elif isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if func.endswith("import_module") or func == "__import__":
                    assert not any(_is_heavy(getattr(a, "value", None)) for a in node.args), where
                if func == "_OnFirstUse":
                    assert id(node) in bindings, f"{where}: not a module-level binding"
        assert set(bindings.values()) <= used, f"{path.name} binds a name it never uses"


def test_no_module_imports_dataclasses():
    # the records are NamedTuples and slots classes: importing dataclasses
    # (and with it inspect, ast, dis and tokenize) would cost a cold CLI
    # process about 12 ms
    for path in sorted(pathlib.Path(cli.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


# runs the CLI as `python -m momentdet.cli` would, then reports the exit code
# and whether scipy.special, NumPy, dataclasses and inspect were loaded
RUN_CLI_AND_REPORT_IMPORTS = (
    "import runpy, sys\n"
    "sys.argv = ['momentdet'] + sys.argv[1:]\n"
    "try:\n"
    "    runpy.run_module('momentdet.cli', run_name='__main__')\n"
    "except SystemExit as e:\n"
    "    code = e.code\n"
    "print(code, 'scipy.special' in sys.modules,\n"
    "      any(m == 'numpy' or m.startswith('numpy.') for m in sys.modules),\n"
    "      'dataclasses' in sys.modules, 'inspect' in sys.modules)\n")

LEAN = "False False False False"


@pytest.mark.parametrize("argv,spec,expected", [
    (("analyze",), "det", f"0 {LEAN}"),
    (("analyze",), "indet", f"10 {LEAN}"),
    (("analyze",), "band", f"20 {LEAN}"),
    # every criterion on a spec is a closed form made of math calls
    (("criterion", "lin"), "single", f"0 {LEAN}"),
    # the ratio route certifies its rates with math calls
    (("analyze", "--ratio"), "indet", f"10 {LEAN}"),
    (("analyze",), "slow", f"10 {LEAN}"),
    *((("criterion", name), "single", f"{10 if name == 'krein' else 0} {LEAN}")
      for name in cli.CRITERION_NAMES if name != "lin"),
    (("criterion", "hardy"), "indet", f"10 {LEAN}"),
    (("criterion", "carleman"), "band", f"20 {LEAN}"),
    # the Krein ladder of a witness integrates with SciPy, which loads
    # dataclasses and inspect itself
    (("criterion", "krein", "--counterexample", "stieltjes"), None, "0 True True True True"),
])
def test_commands_load_scipy_special_only_where_a_special_function_runs(
        tmp_path, argv, spec, expected):
    # a decision needs the exponent sum and closed-form certificates made of
    # math calls: it loads neither NumPy nor scipy.special, and neither does
    # a criterion on a spec; the records are plain, so neither loads
    # dataclasses or inspect either
    specs = {
        None: None,
        "det": str(GOLDEN / "light.json"),
        "indet": str(GOLDEN / "product.json"),
        # 1/2 + 1/2.0001 is a float sum inside the boundary band of 1
        "band": write_spec(tmp_path, {"factors": [
            {"family": "DGG", "alpha": 1, "beta": 2, "gamma": 1},
            {"family": "DGG", "alpha": 1, "beta": 2.0001, "gamma": 1}]}, "band.json"),
        "single": write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1, "beta": 3, "gamma": 2}]}, "single.json"),
        # one GG factor with a growth exponent of 20, an indeterminate single
        "slow": write_spec(tmp_path, {"factors": [
            {"family": "GG", "alpha": 1, "beta": "1/20", "gamma": 1}]}, "slow.json"),
    }
    out = subprocess.run([sys.executable, "-c", RUN_CLI_AND_REPORT_IMPORTS, *argv,
                          *filter(None, [specs[spec]])],
                         env=src_env(), capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == expected


# Each case calls kernels that evaluate a special function.  In a fresh
# interpreter the first of those calls binds scipy.special, and every value
# must keep the bits it has in a process where SciPy is already loaded.
FIRST_USE_SETUP = """
import numpy as np
from momentdet import criteria as crit, distributions as dist
GG, DGG, IG = dist.gg(2, 1.5, 0.7), dist.dgg(0.5, 2, 3), dist.ig(1, 1)
XS = np.concatenate([-np.geomspace(1e-2, 1e2, 5), np.geomspace(1e-3, 1e4, 9)])
# one point per route of the IG tail: a <= 0 (log_ndtr), two erfcx values,
# the Taylor and the asymptotic series of the Mills-ratio difference
IG_ROUTES = ((2.0, 3.0, 0.5), (1.0, 1.0, 3.0), (644.0, 1.28e-3, 1.04e11), (1.0, 1.0, 1e6))
# the IG moments come from a recurrence, so building this sequence binds nothing
IG_SEQ = crit.LogMomentSequence.from_distribution(IG)
def shown(values):
    return repr([v.tolist() if isinstance(v, np.ndarray) else v for v in values])
"""
FIRST_USE_CASES = {
    "log_density": "[dist.log_density(d, x) for d in (GG, DGG) for x in (0.7, -1.3, XS)]",
    "log_moment": "[dist.log_moment(d, k) for d in (GG, DGG) for k in (6, np.arange(1, 41))]",
    "log_tail_gg_dgg": "[dist.log_tail(d, x) for d in (GG, DGG) for x in (0.7, XS)]",
    "log_tail_ig": "[dist.log_tail(dist.ig(mu, lam), x) for mu, lam, x in IG_ROUTES]",
    "hazard": "[dist.hazard(d, x) for d in (GG, DGG, IG) for x in (0.7, XS)]",
    "hardy_check": "[crit.hardy_check(IG_SEQ)]",
    "cramer_check": "[crit.cramer_check(IG_SEQ)]",
}


@pytest.mark.parametrize("case", FIRST_USE_CASES)
def test_first_use_of_scipy_special_keeps_the_bits(case):
    namespace = {}
    exec(FIRST_USE_SETUP, namespace)
    expected = namespace["shown"](eval(FIRST_USE_CASES[case], namespace))
    code = (FIRST_USE_SETUP + "import sys\n"
            "assert 'scipy.special' not in sys.modules\n"
            f"print(shown({FIRST_USE_CASES[case]}))\n")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == expected


# Each case makes the first NumPy-needing calls of a fresh interpreter, which
# must give the values they give here, and reports whether the modules' np,
# special, integrate and optimize are the modules themselves, so no stand-in
# is left on a hot path.
FIRST_NUMPY_SETUP = """
import contextlib, io, sys, threading
from momentdet import cli, criteria as crit, distributions as dist, verify as ver
GG, IG = dist.gg(2, 1.5, 0.7), dist.ig(1, 2)
P = dist.ProductSpec([IG, dist.dgg(1, 2, 3)])
def plain(v):
    return v.tolist() if hasattr(v, "tolist") else v
def calls():
    seq = crit.LogMomentSequence.from_product(P, 40)
    return repr([dist.log_density(GG, 1.3), plain(dist.log_moment(IG, [1, 5, 9])),
                 plain(seq.orders), plain(seq.values), crit.condition_L_check(GG),
                 crit.cramer_check(seq), plain(dist.sample_product(P, 11, 5))])
MODULES = {"np": "numpy", "special": "scipy.special", "integrate": "scipy.integrate",
           "optimize": "scipy.optimize"}
def bound(name, *modules):
    return all(getattr(m, name) is sys.modules[MODULES[name]] for m in modules)
"""
# name -> (code run before the setup, code run after it, expected stdout);
# the child gets the golden verify spec and report as its arguments
FIRST_NUMPY_CASES = {
    # the calls bind NumPy and scipy.special in distributions and criteria, a
    # verify run binds NumPy in verify, and its quadrature binds
    # scipy.integrate and scipy.optimize in verify
    "fresh": ("", """
assert "numpy" not in sys.modules
print(calls())
with contextlib.redirect_stdout(io.StringIO()) as report:
    cli.main(["verify", sys.argv[1]])
print(report.getvalue() == open(sys.argv[2]).read(), bound("np", dist, crit, ver),
      bound("special", dist, crit), bound("integrate", ver), bound("optimize", ver))
""", "{calls}\nTrue True True True True"),
    # a NumPy imported before momentdet is the one bound
    "numpy_imported_first": ("import numpy\n", """
print(calls())
print(dist.np is numpy and crit.np is numpy)
""", "{calls}\nTrue"),
    # a thread that needs NumPy while another is importing it waits for the
    # whole module; more threads than cores, switching every microsecond
    "concurrent_threads": ("", """
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4)
shown = [None] * 4
def first(i):
    barrier.wait()
    shown[i] = calls()
threads = [threading.Thread(target=first, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
print(*shown, bound("np", dist, crit), bound("special", dist, crit), sep="\\n")
""", "{calls}\n" * 4 + "True\nTrue"),
}


@pytest.mark.parametrize("case", FIRST_NUMPY_CASES)
def test_first_use_of_numpy_keeps_the_bits(case):
    before, after, expected = FIRST_NUMPY_CASES[case]
    namespace = {}
    exec(FIRST_NUMPY_SETUP, namespace)
    expected = expected.format(calls=namespace["calls"]())
    out = subprocess.run([sys.executable, "-c", before + FIRST_NUMPY_SETUP + after,
                          str(GOLDEN / "light.json"), str(GOLDEN / "verify.out")],
                         env=src_env(), capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == expected.splitlines()


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
