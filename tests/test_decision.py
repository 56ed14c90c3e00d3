import itertools
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import mpmath
except ImportError:  # the certificate suite needs it
    mpmath = None

from momentdet import criteria as cr
from momentdet import decision as dec
from momentdet import distributions as dist

P = dist.ProductSpec
EXP = dist.exponential()
NORMAL = dist.std_normal()
IG11 = dist.ig(1, 1)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# name -> (factors, x0) of decisions above the threshold: indeterminate, or
# inconclusive with a side condition failing.  fixtures/envelope_reports.tsv
# holds json.dumps(decide_product(...).to_dict()) for each, with the
# closed-form hazard and tail certificates.
PINNED_ENVELOPES = {
    "GG(1,1/3,1)": ([dist.gg(1, "1/3", 1)], 1.0),
    "DGG(1,1/25,1)": ([dist.dgg(1, "1/25", 1)], 1.0),
    "GG(0.117,1/3,2.87)": ([dist.gg(0.117, "1/3", 2.87)], 1.0),
    "IG(1,1)*IG(2,1)*Exp": ([IG11, dist.ig(2, 1), EXP], 1.0),
    "IG(0.13,6.6)*IG(7.5,0.047)*GG(2,1/2,3)": (
        [dist.ig(0.13, 6.6), dist.ig(7.5, 0.047), dist.gg(2, "1/2", 3)], 1.0),
    "Exp*Normal": ([EXP, NORMAL], 1.0),
    "IG(1,1)*Normal": ([IG11, NORMAL], 1.0),
    "Normal^3": ([NORMAL, NORMAL, NORMAL], 1.0),
    "DGG(1,1/2,1)*DGG(2,4,3)": ([dist.dgg(1, "1/2", 1), dist.dgg(2, 4, 3)], 1.0),
    "DGG(0.7,0.45,2.2)*GG(0.31,0.3123457,1.7)*IG(0.13,6.6)": (
        [dist.dgg(0.7, 0.45, 2.2), dist.gg(0.31, 0.3123457, 1.7), dist.ig(0.13, 6.6)], 1.0),
    "GG(1,10,1)*GG(1,1/3,1)": ([dist.gg(1, 10, 1), dist.gg(1, "1/3", 1)], 1.0),
    "GG(1e-3,1/50,100)*Exp": ([dist.gg(1e-3, "1/50", 100), EXP], 1.0),
    "GG(1e-3,1/50,100)": ([dist.gg(1e-3, "1/50", 100)], 1.0),
    "GG(1,1/20,9)": ([dist.gg(1, "1/20", 9)], 1.0),
    "IG(0.39,713)*GG(1,1/2,1)": ([dist.ig(0.39, 713), dist.gg(1, "1/2", 1)], 1.0),
    "IG(1,1)^2*Exp x0=1e7": ([IG11, IG11, EXP], 1e7),
    "Exp*Normal x0=1e306": ([EXP, NORMAL], 1e306),
    "GG(1,1/3,1) x0=1e300": ([dist.gg(1, "1/3", 1)], 1e300),
}


def load_pinned_envelopes():
    with open(FIXTURES / "envelope_reports.tsv") as fh:
        assert next(fh).rstrip("\n").split("\t") == ["case", "to_dict"]
        return dict(line.rstrip("\n").split("\t") for line in fh)


class TestFactorExponent:
    @pytest.mark.parametrize("d,expected", [
        (dist.gg(1, 1, 1), 1.0),
        (dist.dgg(0.5, 2, 1), 0.5),
        (dist.ig(1, 1), 1.0),
        (dist.ig(3, 0.5), 1.0),
        (dist.gg(2, "1/3", 5), 3.0),
    ])
    def test_closed_form(self, d, expected):
        assert dec.factor_exponent(d) == pytest.approx(expected, rel=1e-12)

    def test_exact_rationals(self):
        assert dec.exact_exponent(dist.gg(1, "1/3", 1)) == (3, 1)
        assert dec.exact_exponent(dist.ig(2, 2)) == (1, 1)
        assert dec.exact_exponent(
            dist.DistributionSpec("GG", alpha=1.0, beta=0.5000001, gamma=1.0)) is None

    @pytest.mark.parametrize("d", [
        dist.gg(1, 1, 1), dist.gg(2, 0.5, 3), dist.dgg(1, 2, 1),
        dist.ig(1, 1), dist.ig(2, 0.5),
    ])
    def test_agrees_with_growth_estimate(self, d):
        seq = cr.LogMomentSequence.from_distribution(d)
        a_hat = cr.growth_exponent(seq).evidence["a_hat"]
        assert a_hat == pytest.approx(dec.factor_exponent(d), abs=0.05)


class TestDecideSingle:
    def test_exponential_det(self):
        v = dec.decide_single(EXP)
        assert v.conclusion == dec.M_DET
        assert "Theorem 1" in v.rule
        assert v.exact

    def test_cube_of_exponential_indet(self):
        v = dec.decide_single(dist.gg(1, "1/3", 1))
        assert v.conclusion == dec.M_INDET
        assert "Theorem 2" in v.rule
        assert [r.criterion for r in v.side_conditions] == \
            ["density_decreasing", "hazard_bound", "tail_bound"]
        assert all(r.holds for r in v.side_conditions)

    @pytest.mark.parametrize("d,theorem", [
        (dist.gg(1, "1/7", 1), "Theorem 2"),
        (dist.dgg(1, "1/25", 1), "Theorem 4"),
        (dist.gg(1, "1/30", 1), "Theorem 2"),
    ])
    def test_slow_single_indet(self, d, theorem):
        # the moment growth of beta = 1/7 .. 1/30 has not converged by K = 200,
        # but the side conditions are those of a product of one
        v = dec.decide_single(d)
        assert v.conclusion == dec.M_INDET
        assert v.rule.split("; ")[0] == theorem
        assert v == dec.decide_product(P([d]))

    def test_underflowing_tail_constant_noted(self):
        # s = 180 and alpha = 1: B = 1/Gamma(180) ~ e^-753 underflows, and the
        # report and the explanation give its finite log
        v = dec.decide_single(dist.gg(1, "1/20", 9))
        assert v.conclusion == dec.M_INDET
        tail = v.side_conditions[2]
        assert tail.criterion == "tail_bound" and tail.holds
        ln_b = tail.evidence["ln_B"]
        assert ln_b == pytest.approx(-math.lgamma(180.0), rel=1e-14)
        assert math.exp(ln_b) == 0.0
        assert f"ln B={ln_b:.6g}" in dec.explain(v)

    def test_overflowing_decreasing_point_named(self):
        # the density rises up to x ~ 1e335, past the largest float: the start
        # is not finite, so the checks fail by name instead of raising
        d = dist.gg(1e-3, "1/50", 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = dec.decide_single(d)
            dec.decide_product(P([d, EXP]))
        assert v.conclusion == cr.INCONCLUSIVE
        assert v.caveats == ("unverified: density_decreasing[0], hazard_bound[0], "
                             "tail_bound[0]",)

    @pytest.mark.parametrize("factors,caveats", [
        # s = gamma/beta underflows to 0, so Gamma(s) and ln B are infinite
        ([dist.gg(1, 1e300, 1e-300), dist.gg(1, "1/3", 1)], ("unverified: tail_bound[0]",)),
        # mu^2 underflows to 0; k = lam/(2 mu^2) is past the float range, its log is not
        ([dist.ig(1e-200, 1), IG11, EXP], ()),
    ])
    def test_extreme_parameters_named_not_raised(self, factors, caveats):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = dec.decide_product(P(factors))
        assert v.conclusion == (cr.INCONCLUSIVE if caveats else dec.M_INDET)
        assert v.caveats == caveats

    @pytest.mark.parametrize("x0", [1e300, 1e306])
    @pytest.mark.parametrize("factors", [[dist.gg(1, "1/3", 1)], [EXP, NORMAL],
                                         [IG11, dist.ig(2, 1), EXP]])
    def test_huge_x0_total(self, factors, x0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = dec.decide_product(P(factors), dec.DecisionConfig(x0=x0))
        # every certificate is taken in log space, so a start near the top of
        # the float range still gives finite constants
        assert v.conclusion == dec.M_INDET
        assert all(math.isfinite(r.evidence["ln_x_start"]) for r in v.side_conditions[1:])

    def test_boundary_stieltjes_det(self):
        # a = 2 exactly is still determinate
        v = dec.decide_single(dist.gg(1, "1/2", 1))
        assert v.conclusion == dec.M_DET and v.exact

    def test_symmetric_exponential_boundary(self):
        v = dec.decide_single(dist.dgg(1, 1, 1))
        assert v.conclusion == dec.M_DET
        assert "Theorem 3" in v.rule

    def test_heavy_dgg_indet(self):
        v = dec.decide_single(dist.dgg(1, "1/2", 1))
        assert v.conclusion == dec.M_INDET
        assert "Theorem 4" in v.rule

    def test_normal_det(self):
        assert dec.decide_single(NORMAL).conclusion == dec.M_DET

    def test_ig_det(self):
        v = dec.decide_single(IG11)
        assert v.conclusion == dec.M_DET
        assert v.exponent_sum == 1.0

    def test_float_boundary_inconclusive(self):
        d = dist.DistributionSpec("GG", alpha=1.0, beta=0.50000001, gamma=1.0)
        v = dec.decide_single(d)
        assert v.conclusion == cr.INCONCLUSIVE
        assert v.rule == "boundary"


class TestDecideProduct:
    def test_pair_of_exponentials_boundary_det(self):
        v = dec.decide_product(P([EXP, EXP]))
        assert v.conclusion == dec.M_DET
        assert "Theorem 5" in v.rule and "Corollary 1" in v.rule
        assert v.exponent_sum == 2.0 and v.threshold == 2.0

    def test_ig_exp_det(self):
        v = dec.decide_product(P([IG11, EXP]))
        assert v.conclusion == dec.M_DET
        assert "Corollary 2" in v.rule

    def test_ig_pair_det(self):
        v = dec.decide_product(P([IG11, dist.ig(2, 1)]))
        assert v.conclusion == dec.M_DET
        assert "Corollary 2" in v.rule

    def test_ig_ig_exp_indet(self):
        v = dec.decide_product(P([IG11, dist.ig(2, 1), EXP]))
        assert v.conclusion == dec.M_INDET
        assert "Theorem 7" in v.rule and "Corollary 2" in v.rule
        assert all(r.holds for r in v.side_conditions)

    def test_underflowing_hazard_constant_still_holds(self):
        # lam/(2 x0) = 1000: A = k x0 e^(-lam/(2 x0)) underflows, ln A is finite
        v = dec.decide_product(P([dist.ig(1, 2000), IG11, EXP]))
        assert v.conclusion == dec.M_INDET
        assert v.rule == "Theorem 7; Corollary 2"
        hazard = v.side_conditions[1]
        assert hazard.criterion == "hazard_bound" and hazard.holds
        assert hazard.evidence["ln_A"] == pytest.approx(math.log(1000.0) - 1000.0, rel=1e-15)
        assert math.exp(hazard.evidence["ln_A"]) == 0.0

    def test_start_past_the_float_range(self):
        # s = 5000: the hazard certificate starts where alpha x^beta = s, at
        # x = e^771, which no float holds; its log does, and A = beta there
        v = dec.decide_product(P([dist.gg(1e-3, "1/50", 100), EXP]))
        assert v.conclusion == dec.M_INDET
        assert v.rule == "Theorem 7; Corollary 1"
        hazard = v.side_conditions[1]
        assert hazard.evidence["ln_x_start"] == pytest.approx(
            50 * (math.log(5000.0) - math.log(1e-3)), rel=1e-14)
        assert hazard.evidence["ln_A"] == pytest.approx(math.log(0.02), rel=1e-14)

    def test_exp_normal_indet(self):
        v = dec.decide_product(P([EXP, NORMAL]))
        assert v.conclusion == dec.M_INDET
        assert "Theorem 11" in v.rule and "Corollary 4" in v.rule
        assert v.support == dist.MIXED and v.threshold == 1.0

    def test_chisq_normal_indet(self):
        v = dec.decide_product(P([dist.chi_square(3), NORMAL]))
        assert v.conclusion == dec.M_INDET
        assert "Corollary 5" in v.rule

    def test_ig_normal_indet(self):
        v = dec.decide_product(P([IG11, NORMAL]))
        assert v.conclusion == dec.M_INDET
        assert "Corollary 5" in v.rule

    def test_mixed_det_carries_caveat(self):
        v = dec.decide_product(P([dist.half_normal(), NORMAL]))
        assert v.conclusion == dec.M_DET
        assert "analogue" in v.rule
        assert any("analogue" in c for c in v.caveats)

    def test_dgg_grid_iff(self):
        for betas in itertools.combinations_with_replacement(("1/2", "1", "2", "4"), 2):
            total = sum(Fraction(1) / Fraction(b) for b in betas)
            v = dec.decide_product(P([dist.dgg(1, b, 1) for b in betas]))
            expected = dec.M_DET if total <= 1 else dec.M_INDET
            assert v.conclusion == expected, betas

    def test_one_certificate_per_factor(self, monkeypatch):
        # one closed-form certificate per factor gives both its hazard and
        # its tail report; no tail or density kernel is evaluated
        def forbidden(*args):
            raise AssertionError("a kernel was evaluated")
        for name in ("_tails", "_gg_tails", "_ig_tails", "_log_density_pos", "_log_gammaincc"):
            monkeypatch.setattr(dist, name, forbidden)
        calls = []
        certify = dec._certify_envelope
        monkeypatch.setattr(dec, "_certify_envelope",
                            lambda d, i, x0: calls.append(i) or certify(d, i, x0))
        v = dec.decide_product(P([IG11, dist.ig(2, 1), EXP]))
        assert v.conclusion == dec.M_INDET
        assert calls == [0, 1, 2]
        assert [(r.criterion, r.evidence["factor_index"]) for r in v.side_conditions] == [
            ("density_decreasing", 2), ("hazard_bound", 0), ("tail_bound", 0),
            ("hazard_bound", 1), ("tail_bound", 1), ("hazard_bound", 2), ("tail_bound", 2)]

    def test_indet_side_conditions_recorded(self):
        v = dec.decide_product(P([NORMAL, NORMAL, NORMAL]))
        assert v.conclusion == dec.M_INDET
        kinds = {r.criterion for r in v.side_conditions}
        assert kinds == {"density_decreasing", "hazard_bound", "tail_bound"}
        dec_rep = next(r for r in v.side_conditions if r.criterion == "density_decreasing")
        assert "factor" in dec_rep.evidence  # which factor is decreasing is recorded

    def test_mixed_decreasing_factor_is_real_valued(self):
        # in the mixed case the decreasing density must come from the
        # real-line group
        v = dec.decide_product(P([EXP, NORMAL]))
        rep = next(r for r in v.side_conditions if r.criterion == "density_decreasing")
        assert "DGG" in rep.evidence["factor"]

    def test_single_factor_delegates(self):
        v = dec.decide_product(P([dist.gg(1, "1/3", 1)]))
        assert v.conclusion == dec.M_INDET
        assert "Theorem 2" in v.rule

    def test_pre_asymptotic_tail_ratio_not_misflagged(self):
        # small alpha and beta = 1/3 give s = gamma/beta = 8.61 > 1: the hazard
        # certificate starts later, where z = alpha x^beta reaches s, with
        # A = beta; the tail certificate holds from x0
        d = dist.gg(0.117, "1/3", 2.87)
        hazard, tail = dec._certify_envelope(d, 0, 1.0)
        assert hazard.holds and tail.holds
        s = 2.87 / (1 / 3)
        assert hazard.evidence["ln_x_start"] == pytest.approx(
            3 * (math.log(s) - math.log(0.117)), rel=1e-12)
        assert hazard.evidence["ln_A"] == pytest.approx(math.log(1 / 3), rel=1e-12)
        assert tail.evidence["ln_x_start"] == 0.0
        assert tail.evidence["ln_B"] == pytest.approx(
            (s - 1) * math.log(0.117) - math.lgamma(s), rel=1e-12)

    def test_envelope_order_is_family_native(self):
        # the tail certificate is for the family's own order (a, b, g), and
        # both bounds hold against the tail kernels from their starts on
        for d in (dist.dgg(0.5, 2, 1), dist.gg(0.117, "1/3", 2.87), dist.gg(2, 3, "1/2"),
                  dist.ig(2, 3), dist.ig(0.05, 40)):
            hazard, tail = dec._certify_envelope(d, 0, 2.0)
            a, b, g = dist.tail_bound_params(d)
            assert (tail.evidence["alpha"], tail.evidence["beta"], tail.evidence["gamma"]) \
                == (a, b, g)
            for u in (0.0, 1.0, 3.0, 6.0):
                x = math.exp(tail.evidence["ln_x_start"] + u)
                assert dist.log_tail(d, x) >= tail.evidence["ln_B"] + g * math.log(x) - a * x ** b
                x = math.exp(hazard.evidence["ln_x_start"] + u)
                assert math.log(x) + dist.log_hazard(d, x) >= hazard.evidence["ln_A"], str(d)

    @pytest.mark.parametrize("beta", ["20/3", 10])
    def test_steep_factor_hazard(self, beta):
        # alpha x^beta reaches 1e20 and more on the grid: the hazard is taken
        # in closed log form, not as the difference of two huge logs
        v = dec.decide_product(P([dist.gg(1, beta, 1), dist.gg(1, "1/3", 1)]))
        assert v.conclusion == dec.M_INDET
        assert v.rule == "Theorem 7; Corollary 1"

    def test_overflowing_tail_constant_has_finite_log(self):
        # lam/mu ~ 1828: B is past the float range, and the certificate keeps
        # its log instead of clamping it
        _, rep = dec._certify_envelope(dist.ig(0.39, 713), 0, 1.0)
        assert rep.holds
        k = 713 / (2 * 0.39 ** 2)
        expected = 0.5 * math.log(713 / (2 * math.pi)) + 713 / 0.39 - 713 / 2 - math.log(k + 1.5)
        assert rep.evidence["ln_B"] == pytest.approx(expected, rel=1e-14)
        assert rep.evidence["ln_B"] > math.log(sys.float_info.max)

    def test_envelope_reports_pinned(self):
        # the certificates are closed forms: every report keeps its bytes
        pinned = load_pinned_envelopes()
        assert sorted(pinned) == sorted(PINNED_ENVELOPES)
        for name, (factors, x0) in PINNED_ENVELOPES.items():
            v = dec.decide_product(P(factors), dec.DecisionConfig(x0=x0))
            assert json.dumps(v.to_dict()) == pinned[name], name

    def test_far_start_ig_product_indet(self):
        # from x0 = 1e7 a sampled IG tail used to cancel completely; the
        # certificates take no tail value and hold from that start
        v = dec.decide_product(P([IG11, IG11, EXP]), dec.DecisionConfig(x0=1e7))
        assert v.conclusion == dec.M_INDET
        assert v.rule == "Theorem 7; Corollary 2"
        assert {r.evidence["ln_x_start"] for r in v.side_conditions[1:]} == {math.log(1e7)}


class TestRatioRoute:
    def test_pair_of_exponentials(self):
        v = dec.ratio_route(P([EXP, EXP]))
        assert v.conclusion == dec.M_DET
        assert "Theorem 6" in v.rule
        assert v.exponent_sum == 2.0

    def test_normal_pair_theorem9(self):
        v = dec.ratio_route(P([NORMAL, NORMAL]))
        assert v.conclusion == dec.M_DET
        assert "Theorem 9" in v.rule

    def test_four_normals_not_provable_here(self):
        v = dec.ratio_route(P([NORMAL] * 4))
        assert v.conclusion == cr.INCONCLUSIVE
        assert v.exponent_sum > 2.0

    def test_heavy_pair_deferred(self):
        v = dec.ratio_route(P([dist.gg(1, "1/2", 1)] * 2))
        assert v.conclusion == cr.INCONCLUSIVE
        assert v.exponent_sum == pytest.approx(4.0, abs=0.1)

    def test_never_contradicts_main_route(self):
        rng = np.random.default_rng(2024)
        fams = [
            lambda r: dist.gg(r.uniform(0.4, 3), float(r.choice([0.5, 1, 2, 3])), r.uniform(0.4, 3)),
            lambda r: dist.dgg(r.uniform(0.4, 3), float(r.choice([0.5, 1, 2, 4])), r.uniform(0.4, 3)),
            lambda r: dist.ig(r.uniform(0.4, 3), r.uniform(0.4, 3)),
        ]
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p = P([fams[int(rng.integers(0, 3))](rng) for _ in range(n)])
            ratio = dec.ratio_route(p)
            main = dec.decide_product(p)
            # every shape here is exact, so both routes decide the same sum
            assert ratio.exact and main.exact
            assert (ratio.conclusion == dec.M_DET) == (main.conclusion == dec.M_DET), str(p)

    def test_float_band_product_not_determinate(self):
        # exact exponent sum 0.5014 + 1 + 0.5 = 2.0014 lies above 2; the
        # estimated rates converge from below and sum to about 1.947
        p = P([dist.gg(1, 1 / 0.5014, 1), dist.ig(0.13, 6.6), dist.gg(0.5, 2, 3.1)])
        v = dec.ratio_route(p)
        assert v.conclusion == cr.INCONCLUSIVE
        assert v.rule == "ratio route not applicable"
        assert not v.exact
        assert v.exponent_sum == pytest.approx(2.0014, abs=1e-12)
        assert [r.criterion for r in v.side_conditions] == ["ratio"] * 3


HALF_NORMAL = dist.half_normal()
FLOAT_HALF = dist.DistributionSpec("GG", alpha=1.0, beta=0.50000001, gamma=1.0)

# (route, factors, rule code): one case per cell of dec.RULES, plus the
# inconclusive outcomes
RULE_CASES = [
    ("single", [EXP], "Theorem 1"),
    ("single", [dist.gg(1, "1/3", 1)], "Theorem 2"),
    ("single", [dist.dgg(1, 1, 1)], "Theorem 3"),
    ("single", [dist.dgg(1, "1/2", 1)], "Theorem 4"),
    ("single", [FLOAT_HALF], "boundary"),
    ("single", [dist.gg(1e-3, "1/50", 100)], "side conditions unverified"),
    ("product", [EXP, EXP], "Theorem 5"),
    ("product", [IG11, dist.ig(2, 1), EXP], "Theorem 7"),
    ("product", [NORMAL, NORMAL], "Theorem 8"),
    ("product", [NORMAL] * 3, "Theorem 10"),
    ("product", [HALF_NORMAL, NORMAL], "Theorems 8-9 analogue (mixed case)"),
    ("product", [EXP, NORMAL], "Theorem 11"),
    ("product", [dist.gg(1, 1.00000001, 1), EXP], "boundary"),
    ("ratio", [EXP, EXP], "Theorem 6"),
    ("ratio", [NORMAL, NORMAL], "Theorem 9"),
    ("ratio", [HALF_NORMAL, NORMAL], "Theorems 8-9 analogue (mixed case)"),
    ("ratio", [dist.gg(1, "1/2", 1)] * 2, "ratio route not applicable"),
    ("ratio", [NORMAL] * 4, "ratio route not applicable"),
    ("ratio", [EXP, NORMAL], "ratio route not applicable"),
]
ROUTES = {"single": lambda fs: dec.decide_single(fs[0]),
          "product": lambda fs: dec.decide_product(P(fs)),
          "ratio": lambda fs: dec.ratio_route(P(fs))}


class TestRuleTable:
    @pytest.mark.parametrize("route,factors,rule", RULE_CASES,
                             ids=[f"{r}-{dist.support_class(P(fs))}-{c}"
                                  for r, fs, c in RULE_CASES])
    def test_rule_code(self, route, factors, rule):
        v = ROUTES[route](factors)
        assert v.rule.split("; ")[0] == rule


class TestEngineInvariants:
    def _random_product(self, rng):
        fams = []
        n = int(rng.integers(1, 4))
        for _ in range(n):
            which = int(rng.integers(0, 3))
            if which == 0:
                fams.append(dist.gg(rng.uniform(0.4, 3),
                                    float(rng.choice([1 / 3, 0.5, 1, 2, 3])),
                                    rng.uniform(0.4, 3)))
            elif which == 1:
                fams.append(dist.dgg(rng.uniform(0.4, 3),
                                     float(rng.choice([0.5, 1, 2, 4])),
                                     rng.uniform(0.4, 3)))
            else:
                fams.append(dist.ig(rng.uniform(0.4, 3), rng.uniform(0.4, 3)))
        return P(fams)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = self._random_product(rng)
            base = dec.decide_product(p)
            perm = list(p.factors)
            rng.shuffle(perm)
            v = dec.decide_product(P(perm))
            assert v.conclusion == base.conclusion
            assert v.rule == base.rule
            assert v.exponent_sum == pytest.approx(base.exponent_sum, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = self._random_product(rng)
            base = dec.decide_product(p)
            scaled = []
            for d in p.factors:
                if d.family == dist.IG:
                    scaled.append(d)
                else:
                    scaled.append(dist.DistributionSpec(
                        d.family, alpha=d.alpha * float(rng.uniform(0.2, 10)),
                        beta=d.beta, gamma=d.gamma, beta_exact=d.beta_exact))
            v = dec.decide_product(P(scaled))
            assert v.conclusion == base.conclusion, (str(p), str(P(scaled)))

    def test_append_monotonicity(self):
        rng = np.random.default_rng(9)
        appended = 0
        for _ in range(40):
            p = self._random_product(rng)
            if dec.decide_product(p).conclusion != dec.M_INDET:
                continue
            extra = self._random_product(rng).factors[0]
            v = dec.decide_product(P(list(p.factors) + [extra]))
            assert v.conclusion != dec.M_DET, (str(p), str(extra))
            appended += 1
        assert appended >= 5


class TestExplain:
    def test_renders_trail(self):
        v = dec.decide_product(P([EXP, NORMAL]))
        text = dec.explain(v)
        assert "M-indet" in text
        assert "Corollary 4" in text
        assert "exponent sum" in text
        assert "hazard_bound" in text

    def test_inconclusive_lists_failures(self):
        d = dist.DistributionSpec("GG", alpha=1.0, beta=0.50000001, gamma=1.0)
        v = dec.decide_single(d)
        text = dec.explain(v)
        assert "inconclusive" in text
        assert "boundary" in text

    def test_deterministic(self):
        v1 = dec.decide_product(P([EXP, NORMAL]))
        v2 = dec.decide_product(P([EXP, NORMAL]))
        assert dec.explain(v1) == dec.explain(v2)


def _fuzz_factor(rng: random.Random):
    """Parameters log-uniform over alpha in [1e-3, 1e3], beta in [0.03, 30],
    gamma in [0.01, 100] and IG mu, lambda in [1e-3, 1e3]."""
    def draw(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))
    family = rng.choice((dist.GG, dist.DGG, dist.IG))
    if family == dist.IG:
        return dist.ig(draw(1e-3, 1e3), draw(1e-3, 1e3)), Fraction(1)
    beta = draw(0.03, 30.0)
    make = dist.gg if family == dist.GG else dist.dgg
    return make(draw(1e-3, 1e3), beta, draw(0.01, 100.0)), 1 / Fraction(beta)


def test_fuzz_total_and_sound():
    """No exception or RuntimeWarning escapes a decision over the whole
    parameter space, and every conclusive verdict obeys the exact
    exponent-sum rule."""
    rng = random.Random(20240)
    for _ in range(1000):
        drawn = [_fuzz_factor(rng) for _ in range(rng.randint(1, 4))]
        p = P([d for d, _ in drawn])
        exact_sum = sum((a for _, a in drawn), Fraction(0))
        threshold = 2 if dist.support_class(p) == dist.STIELTJES else 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = dec.decide_product(p)
        # the certificates are finite over the whole range: nothing above the
        # threshold stays unverified
        assert v.rule != "side conditions unverified", (str(p), v.caveats)
        if v.conclusion != cr.INCONCLUSIVE:
            expected = dec.M_DET if exact_sum <= threshold else dec.M_INDET
            assert v.conclusion == expected, str(p)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# the parameter ranges of _fuzz_factor
_SHAPES = (_log_uniform(1e-3, 1e3), _log_uniform(0.03, 30.0), _log_uniform(0.01, 100.0))
FUZZ_FACTORS = st.one_of(st.builds(dist.gg, *_SHAPES), st.builds(dist.dgg, *_SHAPES),
                         st.builds(dist.ig, _log_uniform(1e-3, 1e3), _log_uniform(1e-3, 1e3)))


def _mp_tail_ratio_and_hazard(d, ln_x):
    """ln(F-bar(x) / (x^g e^(-a x^b))) with the exact envelope (a, b, g) that
    tail_bound_params rounds, and ln(x h(x)), at x = e^ln_x.  Computed with
    50 digits beyond the size of a x^b, which cancels in both."""
    a, b, _ = dist.tail_bound_params(d)
    size = max(1.0, math.log(a) + b * ln_x, math.log(d.lam / d.mu) if d.family == dist.IG else 0)
    with mpmath.workdps(50 + int(size / math.log(10))):
        ln_x = mpmath.mpf(ln_x)
        x = mpmath.exp(ln_x)
        if d.family == dist.IG:
            mu, lam = mpmath.mpf(d.mu), mpmath.mpf(d.lam)
            rt = mpmath.sqrt(lam / x)
            ln_tail = mpmath.log(mpmath.ncdf(-rt * (x / mu - 1))
                                 - mpmath.exp(2 * lam / mu) * mpmath.ncdf(-rt * (x / mu + 1)))
            ln_f = (mpmath.log(lam / (2 * mpmath.pi)) - 3 * ln_x) / 2 \
                - lam * (x - mu) ** 2 / (2 * mu ** 2 * x)
            ln_env = -1.5 * ln_x - lam / (2 * mu ** 2) * x
            return float(ln_tail - ln_env), float(ln_x + ln_f - ln_tail)
        s = mpmath.mpf(d.gamma) / mpmath.mpf(d.beta)
        ln_z = mpmath.log(d.alpha) + mpmath.mpf(d.beta) * ln_x
        z = mpmath.exp(ln_z)                       # the envelope exponent alpha x^beta
        ln_upper = mpmath.log(mpmath.gammainc(s, z))
        ln_tail = ln_upper - mpmath.loggamma(s) - (mpmath.log(2) if d.family == dist.DGG else 0)
        ln_env = (mpmath.mpf(d.gamma) - d.beta) * ln_x - z
        # x f(x) = beta z^s e^-z / Gamma(s) on x > 0, halved for DGG as the tail is
        return float(ln_tail - ln_env), float(mpmath.log(d.beta) + s * ln_z - z - ln_upper)


# exact rational and float shapes; horizons 40-200, the odd ones included
_RATIO_BETAS = st.one_of(st.sampled_from(["1/3", "1/2", 1, 2, "5/2"]), _SHAPES[1])
RATIO_FACTORS = st.one_of(st.builds(dist.gg, _SHAPES[0], _RATIO_BETAS, _SHAPES[2]),
                          st.builds(dist.dgg, _SHAPES[0], _RATIO_BETAS, _SHAPES[2]),
                          FUZZ_FACTORS)


def _per_factor_rates(factors, k_horizon):
    parity = cr.PARITY[dist.MOMENT_STEP[dist.support_class(P(factors))]]
    return tuple(cr.ratio_rate(cr.LogMomentSequence.from_distribution(d, k_horizon, parity))
                 for d in factors)


@given(factors=st.lists(RATIO_FACTORS, min_size=1, max_size=8),
       k_horizon=st.one_of(st.sampled_from([40, 41, 199, 200]), st.integers(40, 200)))
@example(factors=[EXP, IG11], k_horizon=41)
@example(factors=[NORMAL, dist.dgg(2, "1/2", 3)], k_horizon=199)
@example(factors=[HALF_NORMAL, NORMAL, dist.ig(0.13, 6.6)], k_horizon=41)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_ratio_evidence_is_the_per_factor_rate(factors, k_horizon):
    """The ratio route rates all factors in one pass; every report, evidence
    and note, is the one-factor ``ratio_rate`` of that factor's own sequence,
    bit for bit, and a horizon below the minimum raises the same error."""
    v = dec.ratio_route(P(factors), dec.DecisionConfig(k_horizon=k_horizon))
    assert v.side_conditions == _per_factor_rates(factors, k_horizon)
    with pytest.raises(ValueError) as want:
        _per_factor_rates(factors, 39)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        dec.ratio_route(P(factors), dec.DecisionConfig(k_horizon=39))


def test_ratio_evidence_past_the_float_range_raises():
    # with beta = 5e-304, ln m_k passes the float range from order 127 on
    p = P([EXP, dist.gg(1, 5e-304, 1)])
    with pytest.raises(ValueError, match="every stored ln m_k must be finite"):
        _per_factor_rates(p.factors, 200)
    with pytest.raises(ValueError, match="every stored ln m_k must be finite"):
        dec.ratio_route(p)


EXACT_FACTORS = st.one_of(
    *(st.builds(make, st.just(1), st.fractions(Fraction(1, 12), 30, max_denominator=12),
                st.just(1)) for make in (dist.gg, dist.dgg)),
    st.just(IG11))


@given(factors=st.lists(EXACT_FACTORS, min_size=1, max_size=8))
@example(factors=[EXP, EXP])                                   # Stieltjes, sum 2
@example(factors=[dist.dgg(1, 2, 1), dist.dgg(1, 2, 1)])       # Hamburger, sum 1
@example(factors=[dist.gg(1, 2, 1), dist.dgg(1, 2, 1)])        # Mixed, sum 1
@example(factors=[dist.gg(1, "2/3", 1), IG11, dist.dgg(1, 6, 1)])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_integer_comparison_matches_fractions(factors):
    """With every beta rational, the verdict, ``exact`` and the ratio route's
    rates are those of the exact Fraction sum, bit for bit."""
    support = dist.support_class(P(factors))
    step = dist.MOMENT_STEP[support]
    exps = [Fraction(1) if d.family == dist.IG else 1 / d.beta_exact for d in factors]
    total = sum(exps, Fraction(0))
    det = total * step <= 2
    main = dec.decide_product(P(factors))
    assert main.exact and (main.conclusion == dec.M_DET) == det
    ratio = dec.ratio_route(P(factors), dec.DecisionConfig(k_horizon=40))
    assert ratio.exact and ratio.conclusion == (dec.M_DET if det else cr.INCONCLUSIVE)
    assert ratio.factor_exponents == tuple(float(step * e) for e in exps)
    assert ratio.exponent_sum == float(step * total)


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@given(d=FUZZ_FACTORS, ln_x0=st.floats(0.0, 5.0), u=st.floats(0.0, 6.0))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_certificates_hold_against_mpmath(d, ln_x0, u):
    """Both certificates of a factor are finite, and at x = start e^u the
    50-digit tail and hazard satisfy F-bar(x) >= B x^g e^(-a x^b) and
    x h(x) >= A, up to the rounding of the closed forms."""
    hazard, tail = dec._certify_envelope(d, 0, math.exp(ln_x0))
    assert hazard.holds and tail.holds
    ln_a, ln_b = hazard.evidence["ln_A"], tail.evidence["ln_B"]
    starts = hazard.evidence["ln_x_start"], tail.evidence["ln_x_start"]
    assert all(math.isfinite(v) for v in (ln_a, ln_b, *starts))
    ln_ratio, _ = _mp_tail_ratio_and_hazard(d, starts[1] + u)
    assert ln_ratio >= ln_b - 1e-12 * (1 + abs(ln_b)), str(d)
    _, ln_xh = _mp_tail_ratio_and_hazard(d, starts[0] + u)
    assert ln_xh >= ln_a - 1e-12 * (1 + abs(ln_a)), str(d)


def test_indet_decision_loads_no_heavy_module():
    # the certificates are a few math operations: an indeterminate decision
    # imports neither NumPy, nor mpmath, nor the special functions, nor the
    # quadrature and root-finding modules
    src = str(pathlib.Path(dec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; from momentdet import decision as dec, distributions as dist; "
            "v = dec.decide_product(dist.ProductSpec([dist.ig(1, 1), dist.ig(2, 1), "
            "dist.exponential(), dist.std_normal(), dist.gg(1, '1/3', 1)])); "
            "print(v.conclusion, [m for m in ('numpy', 'mpmath', 'scipy.special', 'scipy.integrate', "
            "'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "M-indet []"
