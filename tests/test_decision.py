import collections
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

# name -> factors of decisions above the threshold: indeterminate, or
# inconclusive with a side condition failing.  fixtures/envelope_reports.tsv
# holds json.dumps(decide_product(...).to_dict()) for each, with the
# closed-form hazard and tail certificates.
PINNED_ENVELOPES = {
    "GG(1,1/3,1)": [dist.gg(1, "1/3", 1)],
    "DGG(1,1/25,1)": [dist.dgg(1, "1/25", 1)],
    "GG(0.117,1/3,2.87)": [dist.gg(0.117, "1/3", 2.87)],
    "IG(1,1)*IG(2,1)*Exp": [IG11, dist.ig(2, 1), EXP],
    "IG(0.13,6.6)*IG(7.5,0.047)*GG(2,1/2,3)":
        [dist.ig(0.13, 6.6), dist.ig(7.5, 0.047), dist.gg(2, "1/2", 3)],
    "Exp*Normal": [EXP, NORMAL],
    "IG(1,1)*Normal": [IG11, NORMAL],
    "Normal^3": [NORMAL, NORMAL, NORMAL],
    "DGG(1,1/2,1)*DGG(2,4,3)": [dist.dgg(1, "1/2", 1), dist.dgg(2, 4, 3)],
    "DGG(0.7,0.45,2.2)*GG(0.31,0.3123457,1.7)*IG(0.13,6.6)":
        [dist.dgg(0.7, 0.45, 2.2), dist.gg(0.31, 0.3123457, 1.7), dist.ig(0.13, 6.6)],
    "GG(1,10,1)*GG(1,1/3,1)": [dist.gg(1, 10, 1), dist.gg(1, "1/3", 1)],
    "GG(1e-3,1/50,100)*Exp": [dist.gg(1e-3, "1/50", 100), EXP],
    "GG(1e-3,1/50,100)": [dist.gg(1e-3, "1/50", 100)],
    "GG(1,1/20,9)": [dist.gg(1, "1/20", 9)],
    "IG(0.39,713)*GG(1,1/2,1)": [dist.ig(0.39, 713), dist.gg(1, "1/2", 1)],
}
# name -> (factors, x0) of certificates from a far start: the tsv holds the
# json.dumps of the list of every factor's hazard and tail reports from x0
PINNED_FAR_STARTS = {
    "IG(1,1)^2*Exp x0=1e7": ([IG11, IG11, EXP], 1e7),
    "Exp*Normal x0=1e306": ([EXP, NORMAL], 1e306),
    "GG(1,1/3,1) x0=1e300": ([dist.gg(1, "1/3", 1)], 1e300),
}


def far_start_reports(factors, x0):
    return [r for i, d in enumerate(factors) for r in dec._certify_envelope(d, i, math.log(x0))]


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
        # the density rises up to ln x ~ 7e308, a log past the largest float:
        # the start is not finite, so the checks fail by name instead of raising
        d = dist.gg(1, 1e-306, 2)
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
        # s = gamma/beta ~ 3e307: ln Gamma(s) overflows, so ln B is not finite
        ([dist.gg(5.83945e-107, "1/3", 1.34337e206), dist.gg(2.02699e102, 1, 3.07446e307)],
         ("unverified: tail_bound[1]",)),
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
        # every certificate is taken in log space, so a start near the top of
        # the float range still gives finite constants
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = far_start_reports(factors, x0)
        assert len(reports) == 2 * len(factors) and all(r.holds for r in reports)
        assert all(math.isfinite(r.evidence["ln_x_start"]) for r in reports)

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
                            lambda d, i, ln_x0: calls.append(i) or certify(d, i, ln_x0))
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
        hazard, tail = dec._certify_envelope(d, 0, 0.0)
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
            hazard, tail = dec._certify_envelope(d, 0, math.log(2.0))
            ln_a, b, g = dist.tail_envelope(d)
            assert (tail.evidence["ln_alpha"], tail.evidence["beta"], tail.evidence["gamma"]) \
                == (ln_a, b, g)
            a = math.exp(ln_a)
            assert a == pytest.approx(d.lam / (2 * d.mu ** 2) if d.family == dist.IG
                                      else d.alpha, rel=1e-14)
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
        _, rep = dec._certify_envelope(dist.ig(0.39, 713), 0, 0.0)
        assert rep.holds
        k = 713 / (2 * 0.39 ** 2)
        expected = 0.5 * math.log(713 / (2 * math.pi)) + 713 / 0.39 - 713 / 2 - math.log(k + 1.5)
        assert rep.evidence["ln_B"] == pytest.approx(expected, rel=1e-14)
        assert rep.evidence["ln_B"] > math.log(sys.float_info.max)

    def test_tail_constant_past_the_float_range_clamped(self):
        # lam/mu = 1e310: ln B itself overflows; the largest finite float is a
        # smaller B, still a lower bound, and the note says so
        _, rep = dec._certify_envelope(dist.ig(1e-10, 1e300), 0, 0.0)
        assert rep.holds
        assert rep.evidence["ln_B"] == sys.float_info.max
        assert rep.notes[0].endswith("the largest float, a smaller B, is given")
        v = dec.decide_product(P([dist.ig(1e-10, 1e300), IG11, EXP]))
        assert v.conclusion == dec.M_INDET

    @pytest.mark.parametrize("factor,ln_rate", [
        # lam/(2 mu^2) = e^-2073 underflows to 0.0, and e^1380 overflows
        (dist.ig(1e300, 1e-300), math.log(1e-300) - math.log(2.0) - 2 * math.log(1e300)),
        (dist.ig(1e-10, 1e300), math.log(1e300) - math.log(2.0) - 2 * math.log(1e-10)),
        (dist.gg(1e-300, "1/3", 1), math.log(1e-300)),
    ])
    def test_tail_rate_reported_as_its_log(self, factor, ln_rate):
        v = dec.decide_product(P([factor, IG11, EXP]))
        assert v.conclusion == dec.M_INDET
        tail = v.side_conditions[2]
        assert tail.criterion == "tail_bound" and tail.evidence["factor_index"] == 0
        assert tail.evidence["ln_alpha"] == pytest.approx(ln_rate, rel=1e-15)
        assert "alpha" not in tail.evidence

    def test_envelope_reports_pinned(self):
        # the certificates are closed forms: every report keeps its bytes
        pinned = load_pinned_envelopes()
        assert sorted(pinned) == sorted([*PINNED_ENVELOPES, *PINNED_FAR_STARTS])
        for name, factors in PINNED_ENVELOPES.items():
            v = dec.decide_product(P(factors))
            assert json.dumps(v.to_dict()) == pinned[name], name
        for name, (factors, x0) in PINNED_FAR_STARTS.items():
            reports = [r.to_dict() for r in far_start_reports(factors, x0)]
            assert json.dumps(reports) == pinned[name], name

    def test_far_start_ig_product_indet(self):
        # from x0 = 1e7 a sampled IG tail used to cancel completely; the
        # certificates take no tail value and hold from that start
        reports = far_start_reports([IG11, IG11, EXP], 1e7)
        assert all(r.holds for r in reports)
        assert {r.evidence["ln_x_start"] for r in reports} == {math.log(1e7)}


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

    def test_failed_certificate_leaves_m_det_unverified(self, monkeypatch):
        # with a rate sum at most 2 every constant is finite; a certificate
        # that fails all the same is named, as an indeterminacy one is
        certify = dec._certify_rate

        def second_fails(d, index, step, rate):
            rep = certify(d, index, step, rate)
            return rep._replace(status=cr.FAILS) if index == 1 else rep

        monkeypatch.setattr(dec, "_certify_rate", second_fails)
        v = dec.ratio_route(P([EXP, EXP]))
        assert (v.conclusion, v.rule) == (cr.INCONCLUSIVE, "side conditions unverified")
        assert v.caveats == ("unverified: ratio[1]",)

    def test_float_band_product_not_determinate(self):
        # exact exponent sum 0.5014 + 1 + 0.5 = 2.0014 lies above 2, and
        # with a float shape the sum is not exact
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
    ("single", [dist.gg(1, 1e-306, 2)], "side conditions unverified"),
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


def _mp_ig_log_tail_terms(d, ln_x):
    """(ln F-bar + a^2/2, a > 0) of IG(mu, lam) at x = e^ln_x with 30 digits,
    a = sqrt(lam/x) (x/mu - 1), b = sqrt(lam/x) (x/mu + 1), formed with no
    cancellation and no e^(2 lam/mu) (mpmath.ncdf raises OverflowError from
    arguments near 1e156).  For a > 0, F-bar = phi(a) (M(a) - M(b)) with M
    the Mills ratio, and M(a) - M(b) = int_0^inf e^(-u^2/2 - a u) (1 -
    e^(-(b - a) u)) du, a positive integrand, taken in v = a u from a = 1 on.
    For a <= 0, F-bar = 1 - phi(a) (M(-a) + M(b)), which cancels to about
    b - a = 2 sqrt(lam/x): that many more digits are carried, and M(t) is
    sqrt(pi/2) erfc(t/sqrt 2) e^(t^2/2), or Laplace's continued fraction
    from t = 10 on, where t < 2 sqrt(lam/x) and 30 digits serve."""
    right = ln_x > math.log(d.mu)                     # a > 0
    extra = 0 if right else max(0, int((ln_x - math.log(d.lam)) / (2 * math.log(10))))
    with mpmath.workdps(30 + extra):
        ln_x, mu, lam = mpmath.mpf(ln_x), mpmath.mpf(d.mu), mpmath.mpf(d.lam)
        x = mpmath.exp(ln_x)
        rt = mpmath.sqrt(lam / x)
        a, h = rt * (x / mu - 1), 2 * rt
        ln_2pi = mpmath.log(2 * mpmath.pi)
        if right:
            # divided by the step, since quad stops at an absolute error of 1e-50
            if a < 1:
                diff = h * mpmath.quad(lambda u: mpmath.exp(-u * u / 2 - a * u)
                                       * -mpmath.expm1(-h * u) / h, [0, 1, mpmath.inf])
            else:
                rho = h / a
                diff = rho / a * mpmath.quad(lambda v: mpmath.exp(-v * v / (2 * a * a) - v)
                                             * -mpmath.expm1(-rho * v) / rho, [0, 1, mpmath.inf])
            return mpmath.log(diff) - ln_2pi / 2, True

        def mills(t):
            if t < 10:
                return mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(t / mpmath.sqrt(2)) \
                    * mpmath.exp(t * t / 2)
            f = t
            for n in range(200, 0, -1):
                f = t + n / f
            return 1 / f
        phi = mpmath.exp(-a * a / 2 - ln_2pi / 2)
        return mpmath.log1p(-phi * (mills(-a) + mills(a + h))) + a * a / 2, False


def _mp_tail_ratio_and_hazard(d, ln_x, ln_alpha):
    """ln(F-bar(x) / (x^g e^(-a x^b))) with the exact envelope (a, b, g) that
    tail_envelope rounds, and ln(x h(x)), at x = e^ln_x.  For GG and DGG,
    computed with 50 digits beyond the size of a x^b = e^(ln_alpha + b ln x),
    which cancels in both; for IG from ``_mp_ig_log_tail_terms`` and
    -a^2/2 + lam x/(2 mu^2) = lam/mu - lam/(2x), which cancels nothing."""
    if d.family == dist.IG:
        scaled, _ = _mp_ig_log_tail_terms(d, ln_x)    # ln F-bar + a^2/2
        with mpmath.workdps(50):
            ln_x, mu, lam = mpmath.mpf(ln_x), mpmath.mpf(d.mu), mpmath.mpf(d.lam)
            shift = lam / mu - lam / (2 * mpmath.exp(ln_x))
            # ln f + a^2/2 = (ln lam - ln 2pi - 3 ln x)/2, the envelope -3/2 ln x - lam x/(2 mu^2)
            ln_f = (mpmath.log(lam) - mpmath.log(2 * mpmath.pi) - 3 * ln_x) / 2
            return float(scaled + shift + 1.5 * ln_x), float(ln_x + ln_f - scaled)
    _, b, _ = dist.tail_envelope(d)
    size = max(1.0, ln_alpha + b * ln_x)
    with mpmath.workdps(50 + int(size / math.log(10))):
        ln_x = mpmath.mpf(ln_x)
        s = mpmath.mpf(d.gamma) / mpmath.mpf(d.beta)
        ln_z = mpmath.log(d.alpha) + mpmath.mpf(d.beta) * ln_x
        z = mpmath.exp(ln_z)                       # the envelope exponent alpha x^beta
        ln_upper = mpmath.log(mpmath.gammainc(s, z))
        ln_tail = ln_upper - mpmath.loggamma(s) - (mpmath.log(2) if d.family == dist.DGG else 0)
        ln_env = (mpmath.mpf(d.gamma) - d.beta) * ln_x - z
        # x f(x) = beta z^s e^-z / Gamma(s) on x > 0, halved for DGG as the tail is
        return float(ln_tail - ln_env), float(mpmath.log(d.beta) + s * ln_z - z - ln_upper)


# scales over the whole float range; exact rational and float shapes
_WIDE = _log_uniform(1e-300, 1e300)
_RATIO_BETAS = st.one_of(st.sampled_from(["1/3", "1/2", 1, 2, "5/2"]), _SHAPES[1])
RATIO_FACTORS = st.one_of(*(st.builds(make, _WIDE, _RATIO_BETAS, _SHAPES[2])
                            for make in (dist.gg, dist.dgg)),
                          st.builds(dist.ig, _WIDE, _WIDE))


def _mp_log_moments(d, k_max, extra=0):
    """ln m_0 .. ln m_kmax with 50 digits, and ``extra`` more: the GG/DGG
    closed form (even orders for DGG), the IG three-term recurrence in exact
    positive terms."""
    with mpmath.workdps(50 + extra):
        if d.family == dist.IG:
            mu, lam = mpmath.mpf(d.mu), mpmath.mpf(d.lam)
            m = [mpmath.mpf(1), mu]
            for k in range(1, k_max):
                m.append((2 * k - 1) * mu ** 2 / lam * m[k] + mu ** 2 * m[k - 1])
            return [mpmath.log(v) for v in m]
        alpha, beta, gamma = (mpmath.mpf(v) for v in (d.alpha, d.beta, d.gamma))
        return [-k / beta * mpmath.log(alpha) + mpmath.loggamma((gamma + k) / beta)
                - mpmath.loggamma(gamma / beta) for k in range(k_max + 1)]


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@given(d=RATIO_FACTORS, even=st.booleans())
@example(d=dist.gg(1e-300, 0.03, 0.01), even=False)
@example(d=dist.dgg(1e300, 30, 100), even=True)
@example(d=dist.ig(1e300, 1e-300), even=False)
@example(d=dist.ig(1e-300, 1e300), even=True)
@example(d=dist.ig(1, 1e300), even=False)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rate_certificates_hold_against_mpmath(d, even):
    """At every order up to 200, steps 1 and 2 (DGG: 2), the 50-digit
    ln(m_((j+1)s)/m_(js)) lies within r ln(j+1) + ln C_lower and
    r ln(j+1) + ln C_upper, up to the rounding of the closed forms."""
    step = 2 if even or d.family == dist.DGG else 1
    rep = dec._certify_rate(d, 0, step, step * dec.factor_exponent(d))
    assert rep.holds and rep.evidence["j_from"] == 1
    r, up, lo = (rep.evidence[key] for key in ("rate", "ln_C_upper", "ln_C_lower"))
    ln_m = _mp_log_moments(d, 200)
    with mpmath.workdps(50):
        for j in range(1, 200 // step):
            ln_ratio = ln_m[(j + 1) * step] - ln_m[j * step]
            ln_idx = r * mpmath.log(j + 1)
            assert ln_ratio - ln_idx <= up + 1e-12 * (1 + abs(up)), (str(d), step, j)
            assert ln_ratio - ln_idx >= lo - 1e-12 * (1 + abs(lo)), (str(d), step, j)


# every positive float as a scale or a shape
_ANY = _log_uniform(1e-320, 1e308)
ANY_FACTORS = st.one_of(*(st.builds(make, _ANY, st.one_of(_RATIO_BETAS, _ANY), _ANY)
                          for make in (dist.gg, dist.dgg)),
                        st.builds(dist.ig, _ANY, _ANY))


@given(factors=st.lists(ANY_FACTORS, min_size=1, max_size=8))
@example(factors=[EXP, dist.gg(1, 5e-304, 1)])
@example(factors=[dist.gg(5e-324, 5e-324, 1.7e308), dist.ig(1.7e308, 5e-324)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_ratio_route_is_total(factors):
    """No exception or RuntimeWarning escapes the ratio route for a valid
    spec; every factor has its certificate, and an M-det verdict holds them all."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = dec.ratio_route(P(factors))
    assert [r.evidence["factor_index"] for r in v.side_conditions] == list(range(len(factors)))
    if v.conclusion == dec.M_DET:
        assert all(r.holds for r in v.side_conditions)


@given(factors=st.lists(RATIO_FACTORS, min_size=1, max_size=8))
@example(factors=[EXP, dist.ig(1e-300, 1e300)])
@example(factors=[dist.half_normal(), dist.dgg(1e300, 2, 1)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_ratio_route_m_det_is_decide_product_m_det(factors):
    """With scales over the whole float range and every shape exact, the
    ratio route is M-det exactly where ``decide_product`` is."""
    ratio, main = dec.ratio_route(P(factors)), dec.decide_product(P(factors))
    if ratio.exact and main.exact:
        assert (ratio.conclusion == dec.M_DET) == (main.conclusion == dec.M_DET), str(P(factors))


@given(factors=st.lists(ANY_FACTORS, min_size=1, max_size=8))
@example(factors=[dist.gg(7.38182e-251, 5.15937e-126, 5.15462e80)])
@example(factors=[dist.gg(5.83945e-107, "1/3", 1.34337e206), dist.gg(2.02699e102, 1, 3.07446e307)])
@example(factors=[dist.ig(1e10, 30), dist.gg(1, "1/3", 1)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_decide_product_is_total(factors):
    """No exception or RuntimeWarning escapes ``decide_product`` for a valid
    spec: a start or a constant past the float range fails its check by name."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = dec.decide_product(P(factors))
    failed = [f"{r.criterion}[{r.evidence['factor_index']}]"
              for r in v.side_conditions if not r.holds]
    assert (v.rule == "side conditions unverified") == bool(failed)
    if failed:
        assert v.caveats[-1] == "unverified: " + ", ".join(failed)


_STEEP = (_WIDE, st.one_of(_log_uniform(1e-6, 1e-3), _log_uniform(1e-3, 1.0)),
          st.one_of(_log_uniform(1e-12, 1e3).map(lambda t: 1.0 + t), _SHAPES[2]))
MODE_FACTORS = st.one_of(st.builds(dist.gg, *_STEEP), st.builds(dist.dgg, *_STEEP),
                         st.builds(dist.ig, _WIDE, _WIDE))


def _mp_rises_at(d, ln_x):
    """Whether the density rises at x = e^ln_x, by its 50-digit log-derivative
    sign: (gamma-1) - alpha beta x^beta > 0 for GG/DGG,
    lam x^2 + 3 mu^2 x - lam mu^2 < 0 for IG."""
    with mpmath.workdps(50):
        x = mpmath.exp(mpmath.mpf(ln_x))
        if d.family == dist.IG:
            mu, lam = mpmath.mpf(d.mu), mpmath.mpf(d.lam)
            return lam * x ** 2 + 3 * mu ** 2 * x - lam * mu ** 2 < 0
        beta = mpmath.mpf(d.beta)
        return mpmath.mpf(d.gamma) - 1 - d.alpha * beta * x ** beta > 0


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@given(factors=st.lists(MODE_FACTORS, min_size=1, max_size=3))
@example(factors=[dist.ig(1e10, 30)])
@example(factors=[dist.ig(1e10, 30), dist.gg(1, "1/3", 2)])
@example(factors=[dist.gg(1e-3, 1e-6, 1.0 + 1e-12), dist.dgg(1e300, 1e-3, 1e3)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_certified_start_is_past_the_mode(factors):
    """The chosen density is nonincreasing from ln_decreasing_from on, and so
    from the effective start: no rounding of the closed-form mode puts the
    start below the 50-digit mode, for beta down to 1e-6 and scales over the
    whole float range.  Each factor is taken three times, so that the
    product is above its threshold."""
    product = factors * 3
    rep = dec.decide_product(P(product)).side_conditions[0]
    assert rep.criterion == "density_decreasing" and rep.holds
    chosen = product[rep.evidence["factor_index"]]
    ln_dec, ln_x0 = rep.evidence["ln_decreasing_from"], rep.evidence["ln_x0_effective"]
    assert ln_dec == dist.log_decreasing_from(chosen) and ln_x0 == max(0.0, ln_dec)
    assert not _mp_rises_at(chosen, ln_dec) and not _mp_rises_at(chosen, ln_x0), str(chosen)


_LN_FLOAT_MIN, _LN_FLOAT_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def _rescaled(d, t):
    """d scaled by e^t: GG/DGG alpha -> alpha e^(-beta t), IG (mu, lam) ->
    (mu e^t, lam e^t); None where a parameter leaves the float range."""
    logs = (dict(mu=math.log(d.mu) + t, lam=math.log(d.lam) + t) if d.family == dist.IG
            else dict(alpha=math.log(d.alpha) - d.beta * t))
    if not all(_LN_FLOAT_MIN < v < _LN_FLOAT_MAX for v in logs.values()):
        return None
    return d._replace(**{k: math.exp(v) for k, v in logs.items()})


def test_scale_relation():
    """Moment determinacy does not depend on scale: rescaling every factor of
    a fuzz-range product by e^t, t uniform in [-600, 600], keeps the verdict
    and the rule code."""
    rng = random.Random(20261)
    checked = 0
    for _ in range(1000):
        factors = [_fuzz_factor(rng)[0] for _ in range(rng.randint(1, 4))]
        base = dec.decide_product(P(factors))
        for _ in range(2):
            scaled = [_rescaled(d, rng.uniform(-600.0, 600.0)) for d in factors]
            if None in scaled:
                continue
            v = dec.decide_product(P(scaled))
            assert (v.conclusion, v.rule) == (base.conclusion, base.rule), str(P(scaled))
            checked += 1
    assert checked >= 1000


def _permutation_factor(rng: random.Random):
    """A factor of the permutation relation's pool: fuzz-range, exact-shape,
    whole-range-scale or named, so that ties in ln_decreasing_from occur."""
    kind = rng.randrange(4)
    if kind == 0:
        return _fuzz_factor(rng)[0]
    if kind == 1:
        make = rng.choice((dist.gg, dist.dgg))
        return make(rng.choice((1, 2, 0.5)), rng.choice(("1/3", "1/2", "2/3", 1, 2, 4)),
                    rng.choice((1, 2, 0.5)))
    if kind == 2:
        def wide():
            return math.exp(rng.uniform(-690.0, 690.0))
        return rng.choice((dist.gg(wide(), rng.choice(("1/3", 2)), 3.0), dist.ig(wide(), wide())))
    return rng.choice((EXP, NORMAL, IG11, HALF_NORMAL, dist.chi_square(3)))


def _up_to_order(v, order):
    """The report of a verdict on factors shuffled by ``order`` (order[j] is
    the original index of factor j), with every factor index and the factor
    exponents put back in the original order and the certificates sorted by
    factor; the named decreasing factor is returned apart."""
    doc = v.to_dict()
    exponents = [0.0] * len(order)
    for j, e in enumerate(doc["factor_exponents"]):
        exponents[order[j]] = e
    doc["factor_exponents"] = exponents
    for r in doc["side_conditions"]:
        r["evidence"]["factor_index"] = order[r["evidence"]["factor_index"]]
    named = None
    if doc["side_conditions"] and doc["side_conditions"][0]["criterion"] == "density_decreasing":
        first = doc["side_conditions"].pop(0)
        named = first["evidence"].pop("factor_index"), first["evidence"].pop("factor")
        doc["density_decreasing"] = first
    doc["side_conditions"].sort(key=lambda r: (r["evidence"]["factor_index"], r["criterion"]))

    def unordered(caveat):
        mapped = re.sub(r"\[(\d+)\]", lambda m: f"[{order[int(m.group(1))]}]", caveat)
        if mapped.startswith("unverified: "):
            mapped = "unverified: " + ", ".join(sorted(mapped[12:].split(", ")))
        return mapped
    doc["caveats"] = [unordered(c) for c in doc["caveats"]]
    return doc, named


def test_permutation_relation():
    """Shuffling the factors leaves the conclusion, the rule, the header
    fields and every certificate unchanged, up to factor order, on both
    routes.  Only the decreasing density may be another factor, one with the
    same ln_decreasing_from: the first of the least is named."""
    rng = random.Random(20263)
    checked = ties = 0
    for _ in range(600):
        factors = [_permutation_factor(rng) for _ in range(rng.randint(2, 6))]
        for route in (dec.decide_product, dec.ratio_route):
            base, base_named = _up_to_order(route(P(factors)), list(range(len(factors))))
            for _ in range(2):
                order = list(range(len(factors)))
                rng.shuffle(order)
                doc, named = _up_to_order(route(P([factors[i] for i in order])), order)
                assert doc == base, str(P(factors))
                if named != base_named:
                    assert dist.log_decreasing_from(factors[named[0]]) == \
                        dist.log_decreasing_from(factors[base_named[0]])
                    ties += 1
                checked += 1
    assert checked == 2400 and ties >= 10


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
    ratio = dec.ratio_route(P(factors))
    assert ratio.exact and ratio.conclusion == (dec.M_DET if det else cr.INCONCLUSIVE)
    assert ratio.factor_exponents == tuple(float(step * e) for e in exps)
    assert ratio.exponent_sum == float(step * total)


# scales over the whole float range, shapes over the fuzz ranges
WIDE_FACTORS = st.one_of(st.builds(dist.gg, _WIDE, *_SHAPES[1:]),
                         st.builds(dist.dgg, _WIDE, *_SHAPES[1:]),
                         st.builds(dist.ig, _WIDE, _WIDE))


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@given(d=WIDE_FACTORS, ln_x0=st.floats(0.0, 5.0), u=st.floats(0.0, 6.0))
@example(d=dist.ig(1e300, 1e-300), ln_x0=0.0, u=1.0)     # lam/(2 mu^2) = e^-2073
@example(d=dist.ig(1e-300, 1e300), ln_x0=0.0, u=0.0)     # lam/mu = 1e600
@example(d=dist.ig(1e-10, 1e300), ln_x0=0.0, u=3.0)     # ln B clamped
@example(d=dist.gg(1e-300, 0.03, 100), ln_x0=5.0, u=6.0)  # starts near ln x = 25000
# starts near the top of the float range
@example(d=EXP, ln_x0=math.log(1e306), u=0.0)
@example(d=dist.gg(1, "1/3", 1), ln_x0=math.log(1e300), u=6.0)
@example(d=IG11, ln_x0=math.log(1e306), u=1.0)
@example(d=dist.ig(2, 1), ln_x0=math.log(1e300), u=0.0)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_certificates_hold_against_mpmath(d, ln_x0, u):
    """Both certificates of a factor are finite, and at x = start e^u the
    50-digit tail and hazard satisfy F-bar(x) >= B x^g e^(-a x^b) and
    x h(x) >= A, up to the rounding of the closed forms.  The scales alpha,
    mu and lam cover [1e-300, 1e300]; the start may lie past the float range."""
    hazard, tail = dec._certify_envelope(d, 0, ln_x0)
    assert hazard.holds and tail.holds
    ln_a, ln_b = hazard.evidence["ln_A"], tail.evidence["ln_B"]
    starts = hazard.evidence["ln_x_start"], tail.evidence["ln_x_start"]
    assert all(math.isfinite(v) for v in (ln_a, ln_b, *starts))
    ln_alpha = tail.evidence["ln_alpha"]
    ln_ratio, ln_xh = _mp_tail_ratio_and_hazard(d, starts[1] + u, ln_alpha)
    assert ln_ratio >= ln_b - 1e-12 * (1 + abs(ln_b)), str(d)
    if starts[0] != starts[1]:
        _, ln_xh = _mp_tail_ratio_and_hazard(d, starts[0] + u, ln_alpha)
    assert ln_xh >= ln_a - 1e-12 * (1 + abs(ln_a)), str(d)


def test_indet_decision_loads_no_heavy_module():
    # the certificates are a few math operations: an indeterminate decision
    # and an M-det and an inconclusive ratio route import neither NumPy, nor
    # mpmath, nor the special functions, nor the quadrature and root-finding
    # modules
    src = str(pathlib.Path(dec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; from momentdet import decision as dec, distributions as dist; "
            "P = dist.ProductSpec; "
            "v = dec.decide_product(P([dist.ig(1, 1), dist.ig(2, 1), "
            "dist.exponential(), dist.std_normal(), dist.gg(1, '1/3', 1)])); "
            "det = dec.ratio_route(P([dist.ig(1, 1), dist.exponential()])); "
            "inc = dec.ratio_route(P([dist.ig(1, 1), dist.std_normal(), dist.gg(1, '1/3', 1)])); "
            "print(v.conclusion, det.conclusion, inc.conclusion, "
            "[m for m in ('numpy', 'mpmath', 'scipy.special', 'scipy.integrate', "
            "'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "M-indet M-det inconclusive []"


# ---------------------------------------------------------------------------
# the criteria on a spec, in closed form


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@given(factors=st.lists(RATIO_FACTORS, min_size=1, max_size=3))
@example(factors=[EXP])
@example(factors=[dist.ig(1e300, 1e-300)])
@example(factors=[dist.ig(1e-300, 1e300), dist.dgg(1e300, 30, 100)])
@example(factors=[dist.gg(1e-300, 0.03, 0.01), dist.half_normal()])
@example(factors=[dist.gg(1, "1/2", 1), IG11])
# gamma/beta past math.lgamma's range: below the least float, and above 2.5e305
@example(factors=[dist.gg(1, 1e300, 1e-30)])
@example(factors=[dist.dgg(1e-300, 2e300, 1e-20), EXP])
@example(factors=[dist.gg(1, 1, 1e306), dist.gg(1e300, "1/3", 7)])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_moment_constants_hold_against_mpmath(factors):
    """Every constant of the closed-form criteria holds, with no tolerance,
    against 50-digit moments at every order up to 200: ln m_(js) within
    r ln j! + j ln M_lower and r ln j! + j ln M_upper, the summed ratio
    constants, and Hardy's and Cramer's c0 where they hold.  The scales
    alpha, mu and lam cover [1e-300, 1e300]."""
    p = P(factors)
    b = dec._moment_bounds(p)
    assert b.finite, str(p)
    step = b.step
    # Gamma at (gamma + k)/beta tells the orders apart with as many more digits as gamma/beta has
    columns = [_mp_log_moments(d, 200, max(0, int(math.log10(d.gamma) - math.log10(d.beta))))
               if d.family != dist.IG else _mp_log_moments(d, 200) for d in factors]
    hardy = dec.spec_criterion(p, "hardy") if step == 1 else None
    cramer = dec.spec_criterion(p, "cramer")
    with mpmath.workdps(50):
        ln_m = [mpmath.fsum(col) for col in zip(*columns)]
        r, lo, up = (mpmath.mpf(v) for v in (b.rate, b.ln_m_lower, b.ln_m_upper))
        for j in range(1, 200 // step + 1):
            ln_fact = mpmath.loggamma(j + 1)
            assert r * ln_fact + j * lo <= ln_m[j * step] <= r * ln_fact + j * up, (str(p), j)
            if j < 200 // step:
                ln_ratio = ln_m[(j + 1) * step] - ln_m[j * step] - r * mpmath.log(j + 1)
                assert b.c_lo <= ln_ratio <= b.c_up, (str(p), j)
        for rep, orders in ((hardy, range(1, 201)), (cramer, range(2, 201, 2))):
            if rep is not None and rep.holds:
                ln_c0 = mpmath.mpf(rep.evidence["ln_c0"])
                assert mpmath.mpf(rep.evidence["c0"]) >= mpmath.exp(ln_c0), str(p)
                for k in orders:
                    half = k if rep.criterion == "hardy" else k // 2
                    assert ln_m[k] <= half * ln_c0 + mpmath.loggamma(2 * half + 1), (str(p), k)


def test_hardy_fails_where_the_fit_held():
    # the fit at K = 200 read m_k <= c0^k (2k)! for GG(1, 2/5, 10), whose
    # moments grow like k^(2.5 k): the exponent sum 5/2 decides
    p = P([dist.gg(1, "2/5", 10)])
    rep = dec.spec_criterion(p, "hardy")
    assert rep.status == cr.FAILS and rep.evidence["c0"] is None
    assert rep.evidence["exponent_sum"] == 2.5 and rep.evidence["exact_boundary_arithmetic"]
    assert dec.decide_product(p).conclusion == dec.M_INDET


@pytest.mark.parametrize("factors,name,status", [
    ([EXP, EXP], "hardy", cr.HOLDS),                         # S = 2 exactly
    ([dist.gg(1, "1/2", "1/2")], "hardy", cr.HOLDS),         # m_k = (2k)!
    ([dist.gg(1, "1/2", 1), IG11], "hardy", cr.FAILS),        # S = 3
    ([EXP], "cramer", cr.HOLDS),                             # S = 1 exactly, all orders
    ([NORMAL, NORMAL], "cramer", cr.HOLDS),                  # S = 1 exactly, even orders
    ([EXP, NORMAL], "cramer", cr.FAILS),                     # S = 3/2
    ([NORMAL, NORMAL], "carleman", cr.HOLDS),
    ([EXP, NORMAL], "carleman", cr.FAILS),
    ([EXP, dist.gg(1, 1.0001234, 1)], "hardy", cr.INCONCLUSIVE),  # float sum in the band
    ([dist.gg(1, 0.9998765, 1)], "cramer", cr.INCONCLUSIVE),
])
def test_threshold_criteria_at_and_near_the_boundary(factors, name, status):
    rep = dec.spec_criterion(P(factors), name)
    assert rep.status == status
    if status == cr.HOLDS and name != "carleman":
        assert rep.evidence["c0"] > math.exp(rep.evidence["ln_c0"])


def test_hardy_needs_a_half_line_product():
    with pytest.raises(ValueError, match="half-line"):
        dec.spec_criterion(P([EXP, NORMAL]), "hardy")


@pytest.mark.parametrize("d,classification", [
    (dist.gg(1, 0.45, 1), "finite"), (dist.gg(1, 0.48, 1), "finite"),
    (dist.gg(1, 0.49, 1), "finite"), (dist.gg(1, 0.495, 1), "finite"),
    (dist.dgg(1, 0.97, 1), "finite"), (dist.dgg(1, 0.99, 1), "finite"),
    (dist.gg(1, "1/2", 1), "infinite"), (dist.dgg(1, 1, 1), "infinite"),
    (dist.ig(1e300, 1e-300), "infinite"), (dist.dgg(1, 2, 1e300), "infinite"),
    # beta = 0.4999999999999 is the exact 1/2 to the input's precision
    (dist.gg(1, 0.4999999999999, 1), "infinite"),
])
def test_krein_closed_form(d, classification):
    # every edge case the truncation ladder misread: GG(1, 0.49, 1) and
    # DGG(1, 0.99, 1) read infinite, IG(1e300, 1e-300) and DGG(1, 2, 1e300)
    # finite, GG(1, 0.48, 1) and DGG(1, 0.97, 1) inconclusive
    rep = dec.krein_closed_form(d)
    assert rep.evidence["classification"] == classification
    assert rep.status == (cr.HOLDS if classification == "finite" else cr.FAILS)
    assert cr.KREIN_THEOREM_NOTE in rep.notes


# the theorem-implied consistency of the criteria on a spec with its verdict:
# criterion, the status that implies a conclusion, the conclusion it
# contradicts.  Hardy's and Cramer's bounds and a divergent Carleman sum
# imply determinacy (Stoyanov, Counterexamples in Probability, 3rd ed., 2013,
# section 11), a finite Krein integral indeterminacy (Krein 1945; Pedersen
# 1998), and an infinite one with Lin's condition determinacy (Lin 1997).
RELATIONS = {
    "hardy": (cr.HOLDS, dec.M_INDET),
    "cramer": (cr.HOLDS, dec.M_INDET),
    "carleman": (cr.HOLDS, dec.M_INDET),
    "krein": (cr.HOLDS, dec.M_DET),
    "krein+lin": (cr.FAILS, dec.M_INDET),
}


def _relation(name, p):
    """(the report's status, whether it contradicts the verdict) for one
    relation, or None where it does not apply to the spec."""
    if name == "hardy" and dist.support_class(p) != dist.STIELTJES:
        return None
    if name.startswith("krein") and len(p.factors) != 1:
        return None
    status = dec.spec_criterion(p, name.split("+")[0]).status
    if name == "krein+lin" and dec.spec_criterion(p, "lin").status != cr.HOLDS:
        return None
    implying, contradicted = RELATIONS[name]
    return status, status == implying and dec.decide_product(p).conclusion == contradicted


@pytest.mark.parametrize("name", RELATIONS)
@given(factors=st.lists(ANY_FACTORS, min_size=1, max_size=8))
@example(factors=[dist.gg(1, "2/5", 10)])
@example(factors=[dist.gg(1, 0.49, 1)])
@example(factors=[dist.ig(1e300, 1e-300)])
@example(factors=[dist.dgg(1, 2, 1e300)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_no_criterion_contradicts_the_verdict(name, factors):
    """Over every positive float as a scale or a shape, no conclusive
    criterion report contradicts ``decide_product``; an inconclusive one is
    allowed.  The Krein relations take the first factor alone."""
    if name.startswith("krein"):
        factors = factors[:1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seen = _relation(name, P(factors))
    assert seen is None or not seen[1], (name, str(P(factors)))


def _benchmark_specs():
    """benchmarks/specs.py, which builds the decide_mix and fuzz pools."""
    import importlib.util
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "specs.py"
    name = "momentdet_bench_specs"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _pool_factor(f):
    if f["family"] == "IG":
        return dist.ig(f["mu"], f["lambda"])
    return (dist.gg if f["family"] == "GG" else dist.dgg)(f["alpha"], f["beta"], f["gamma"])


def test_no_criterion_contradicts_the_verdict_on_the_benchmark_pools():
    """The same relations over the 3,400 decide_mix and fuzz products of
    seeds 0-9: no contradiction, and each relation concludes on most of the
    products it applies to (inconclusive reports are counted)."""
    bench = _benchmark_specs()
    counts = {name: collections.Counter() for name in RELATIONS}
    for pool in (bench.decide_mix, bench.fuzz):
        for seed in range(10):
            for s in pool(seed):
                p = P([_pool_factor(f) for f in s.factors])
                for name in RELATIONS:
                    seen = _relation(name, p)
                    if seen is not None:
                        counts[name][seen[0]] += 1
                        counts[name]["contradictions"] += seen[1]
    for name, c in counts.items():
        assert c["contradictions"] == 0, (name, c)
        assert c[cr.INCONCLUSIVE] < 0.2 * sum(c[s] for s in (cr.HOLDS, cr.FAILS, cr.INCONCLUSIVE))
