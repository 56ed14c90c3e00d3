import itertools
import json
import math
import pathlib
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

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
# holds json.dumps(decide_product(...).to_dict()) for each, as computed when
# the hazard and tail checks still took the scaled tail separately.
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
        assert dec.factor_exponent_exact(dist.gg(1, "1/3", 1)) == Fraction(3)
        assert dec.factor_exponent_exact(dist.ig(2, 2)) == Fraction(1)
        assert dec.factor_exponent_exact(
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
        # the tail ratio falls to about e^-752 on the grid: B underflows, and
        # a note gives ln B as the hazard check gives ln A
        v = dec.decide_single(dist.gg(1, "1/20", 9))
        assert v.conclusion == dec.M_INDET
        tail = v.side_conditions[2]
        assert tail.criterion == "tail_bound" and tail.holds
        assert tail.evidence["B"] == 0.0
        head, _, log_b = tail.notes[-1].partition("ln B = ")
        assert head == "B underflows to 0; " and math.isfinite(float(log_b))

    def test_overflowing_decreasing_point_named(self):
        # the density rises up to x ~ 1e335, past the largest float: the grid
        # is not finite, so the checks fail by name instead of raising
        d = dist.gg(1e-3, "1/50", 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = dec.decide_single(d)
            dec.decide_product(P([d, EXP]))
        assert v.conclusion == cr.INCONCLUSIVE
        assert v.caveats == ("unverified: density_decreasing[0], hazard_bound[0], "
                             "tail_bound[0]",)

    @pytest.mark.parametrize("x0", [1e300, 1e306])
    @pytest.mark.parametrize("factors", [[dist.gg(1, "1/3", 1)], [EXP, NORMAL],
                                         [IG11, dist.ig(2, 1), EXP]])
    def test_huge_x0_total(self, factors, x0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = dec.decide_product(P(factors), dec.DecisionConfig(x0=x0))
        assert v.conclusion in (dec.M_INDET, cr.INCONCLUSIVE)
        if x0 * dec.GRID_SPAN == math.inf:
            # the grid overflows: the decreasing-density check fails by name
            assert v.conclusion == cr.INCONCLUSIVE
            assert "density_decreasing" in v.caveats[-1]

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
        # x h(x) is about e^-72125 on the grid: A underflows, ln A is finite
        v = dec.decide_product(P([dist.gg(1e-3, "1/50", 100), EXP]))
        assert v.conclusion == dec.M_INDET
        assert v.rule == "Theorem 7; Corollary 1"
        hazard = v.side_conditions[1]
        assert hazard.criterion == "hazard_bound" and hazard.holds
        assert hazard.evidence["A"] == 0.0 and "ln A = -72125" in hazard.notes[0]

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

    def test_one_grid_per_decision(self, monkeypatch):
        # one grid per decision, and one scaled tail per factor on it: the
        # hazard and tail checks of a factor share it
        calls, tails = [], []
        geomspace, scaled = np.geomspace, dist._log_tail_scaled
        monkeypatch.setattr(np, "geomspace", lambda *a, **k: calls.append(a) or geomspace(*a, **k))
        monkeypatch.setattr(dist, "_log_tail_scaled", lambda *a: tails.append(a) or scaled(*a))
        v = dec.decide_product(P([IG11, dist.ig(2, 1), EXP]))
        assert v.conclusion == dec.M_INDET
        assert len(calls) == 1
        assert len(tails) == 3

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
        # small alpha and beta = 1/3: the tail ratio decays polynomially for
        # the whole verification grid, which is not an envelope violation
        d = dist.gg(0.117, "1/3", 2.87)
        _, rep = dec._verify_envelope(d, 0, dec._verification_grid(1.0))
        assert rep.holds

    def test_wrong_envelope_order_rejected(self, monkeypatch):
        # pretend a Gaussian-type tail had a pure-exponential envelope: the
        # slope gate must catch the mismatch
        d = dist.dgg(0.5, 2, 1)
        monkeypatch.setattr(dec, "tail_bound_params", lambda _: (0.5, 1.0, -1.0))
        wrong_scaled = lambda dd, x: dist.log_tail(dd, x) + 0.5 * x
        monkeypatch.setattr(dec, "log_tail_scaled", wrong_scaled)
        _, rep = dec._verify_envelope(d, 0, dec._verification_grid(1.0))
        assert not rep.holds

    @pytest.mark.parametrize("beta", ["20/3", 10])
    def test_steep_factor_hazard(self, beta):
        # alpha x^beta reaches 1e20 and more on the grid: the hazard is taken
        # in closed log form, not as the difference of two huge logs
        v = dec.decide_product(P([dist.gg(1, beta, 1), dist.gg(1, "1/3", 1)]))
        assert v.conclusion == dec.M_INDET
        assert v.rule == "Theorem 7; Corollary 1"

    def test_fitted_constant_clamped(self):
        # ln(F-bar / envelope) stays near lam/mu ~ 1830 on the grid: B is the
        # largest float, still a valid constant for the lower bound
        _, rep = dec._verify_envelope(dist.ig(0.39, 713), 0, dec._verification_grid(1.0))
        assert rep.holds
        assert rep.evidence["B"] == sys.float_info.max * (1.0 - 1e-9)

    def test_envelope_reports_pinned(self):
        # one scaled tail per factor feeds both checks: the reports keep
        # every byte they had when each check computed its own
        pinned = load_pinned_envelopes()
        assert sorted(pinned) == sorted(PINNED_ENVELOPES)
        for name, (factors, x0) in PINNED_ENVELOPES.items():
            v = dec.decide_product(P(factors), dec.DecisionConfig(x0=x0))
            assert json.dumps(v.to_dict()) == pinned[name], name

    def test_tail_cancellation_names_the_check(self):
        # from x0 = 1e7 the IG tail cancels completely on part of the grid;
        # the failing checks are named instead of an exception escaping
        v = dec.decide_product(P([IG11, IG11, EXP]), dec.DecisionConfig(x0=1e7))
        assert v.conclusion == cr.INCONCLUSIVE
        assert v.rule == "side conditions unverified"
        assert "tail_bound[0]" in v.caveats[0]


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
    for _ in range(300):
        drawn = [_fuzz_factor(rng) for _ in range(rng.randint(1, 4))]
        p = P([d for d, _ in drawn])
        exact_sum = sum((a for _, a in drawn), Fraction(0))
        threshold = 2 if dist.support_class(p) == dist.STIELTJES else 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = dec.decide_product(p)
        if v.conclusion != cr.INCONCLUSIVE:
            expected = dec.M_DET if exact_sum <= threshold else dec.M_INDET
            assert v.conclusion == expected, str(p)
