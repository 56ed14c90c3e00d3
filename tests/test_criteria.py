import itertools
import math

import numpy as np
import pytest

from momentdet import criteria as cr
from momentdet import distributions as dist
from momentdet import verify as ver


def seq_of(d, k_max=200, parity=None):
    return cr.LogMomentSequence.from_distribution(d, k_max, parity=parity)


def synthetic(fn, k_max=200, parity="all"):
    step = 1 if parity == "all" else 2
    orders = np.arange(step, k_max + 1, step)
    return cr.LogMomentSequence(orders=orders, values=fn(orders.astype(float)),
                                parity=parity, source="analytic")


class TestLogMomentSequence:
    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            cr.LogMomentSequence(orders=np.array([1, 2, 3]),
                                 values=np.array([0.0, math.inf, 1.0]), parity="all")
        with pytest.raises(ValueError, match="even"):
            cr.LogMomentSequence(orders=np.array([1, 2, 4]),
                                 values=np.zeros(3), parity="even")
        with pytest.raises(ValueError, match="increasing"):
            cr.LogMomentSequence(orders=np.array([2, 2, 4]),
                                 values=np.zeros(3), parity="even")

    def test_parity_defaults(self):
        assert seq_of(dist.exponential()).parity == "all"
        assert seq_of(dist.std_normal()).parity == "even"

    def test_compose_is_additive(self):
        e = seq_of(dist.exponential())
        g = seq_of(dist.gg(1, 2, 1))
        c = cr.compose([e, g])
        k = 40
        i = np.searchsorted(c.orders, k)
        assert c.values[i] == pytest.approx(
            dist.log_moment(dist.exponential(), k) + dist.log_moment(dist.gg(1, 2, 1), k),
            rel=1e-14)
        assert c.source == "product-composed"

    def test_compose_mixed_parity(self):
        p = dist.ProductSpec([dist.exponential(), dist.std_normal()])
        s = cr.LogMomentSequence.from_product(p)
        assert s.parity == "even"
        assert np.all(s.orders % 2 == 0)

    def test_horizon_floor(self):
        s = seq_of(dist.exponential(), k_max=20)
        with pytest.raises(ValueError, match="horizon"):
            cr.growth_exponent(s)


class TestGrowthExponent:
    def test_exponential(self):
        rep = cr.growth_exponent(seq_of(dist.exponential()))
        assert rep.status == cr.HOLDS
        assert rep.evidence["a_hat"] == pytest.approx(1.0, abs=0.05)

    def test_square_of_exponential(self):
        # xi^2 for xi ~ Exp(1) is GG(1, 1/2, 1/2) with m_k = (2k)!
        rep = cr.growth_exponent(seq_of(dist.gg(1, "1/2", "1/2")))
        assert rep.evidence["a_hat"] == pytest.approx(2.0, abs=0.05)

    def test_normal_even_moments(self):
        rep = cr.growth_exponent(seq_of(dist.std_normal()))
        assert rep.evidence["a_hat"] == pytest.approx(0.5, abs=0.05)

    def test_scale_invariance(self):
        a1 = cr.growth_exponent(seq_of(dist.gg(1, 1, 1))).evidence["a_hat"]
        a2 = cr.growth_exponent(seq_of(dist.gg(100, 1, 1))).evidence["a_hat"]
        assert a1 == pytest.approx(a2, abs=1e-6)

    def test_direct_quotient_reported(self):
        rep = cr.growth_exponent(seq_of(dist.exponential()))
        # the raw quotient is biased low by ~1/ln k; it is evidence, not the estimate
        assert 0.7 < rep.evidence["a_hat_direct"] < 0.9

    def test_additivity_for_products(self):
        p = dist.ProductSpec([dist.exponential(), dist.gg(1, 2, 1), dist.ig(1, 1)])
        rep = cr.growth_exponent(cr.LogMomentSequence.from_product(p))
        assert rep.evidence["a_hat"] == pytest.approx(1 + 0.5 + 1, abs=0.05)

    def test_nonconverged_flagged(self):
        # ln m_k = k (ln k)^1.5 rises forever in the a-scale
        s = synthetic(lambda k: k * np.log(k) ** 1.5)
        rep = cr.growth_exponent(s)
        assert rep.status == cr.INCONCLUSIVE


class TestRatioRate:
    def test_exponential(self):
        rep = cr.ratio_rate(seq_of(dist.exponential()))
        assert rep.evidence["r_hat"] == pytest.approx(1.0, abs=0.02)
        assert rep.evidence["r_hat_direct"] == pytest.approx(1.0, abs=1e-9)

    def test_gamma_ratio_two(self):
        rep = cr.ratio_rate(seq_of(dist.gg(1, "1/2", 1)))
        assert rep.evidence["r_hat"] == pytest.approx(2.0, abs=0.05)

    def test_normal_even_step(self):
        # m_(2(k+1)) / m_(2k) = 2k+1 for the standard normal: rate 1
        rep = cr.ratio_rate(seq_of(dist.std_normal()))
        assert rep.evidence["r_hat"] == pytest.approx(1.0, abs=0.05)

    def test_scale_invariance_of_slope(self):
        # the raw quotient is polluted by the constant alpha^(-1/beta); the
        # slope estimate is not
        rep = cr.ratio_rate(seq_of(dist.gg(100, 1, 1)))
        assert rep.evidence["r_hat"] == pytest.approx(1.0, abs=0.02)
        assert rep.evidence["r_hat_direct"] < 0.5


class TestHardyCheck:
    def test_exponential_holds(self):
        rep = cr.hardy_check(seq_of(dist.exponential()))
        assert rep.status == cr.HOLDS
        assert rep.evidence["c0"] <= 1.0

    def test_equality_case(self):
        # m_k = (2k)! exactly: the bound holds with c0 = 1
        rep = cr.hardy_check(seq_of(dist.gg(1, "1/2", "1/2")))
        assert rep.status == cr.HOLDS
        assert rep.evidence["c0"] == pytest.approx(1.0, abs=1e-12)

    def test_cube_of_exponential_fails(self):
        rep = cr.hardy_check(seq_of(dist.gg(1, "1/3", 1)))
        assert rep.status == cr.FAILS

    def test_requires_all_parity(self):
        with pytest.raises(ValueError):
            cr.hardy_check(seq_of(dist.std_normal()))

    def test_lemma_equivalence_flip(self):
        # hardy holds exactly when the growth exponent stays at or below 2
        for beta in (0.4, 0.5, 0.6, 1.0, 2.0):
            s = seq_of(dist.gg(1, beta, 1))
            hardy = cr.hardy_check(s).status == cr.HOLDS
            growth = cr.growth_exponent(s).evidence["a_hat"] <= 2.05
            assert hardy == growth, f"beta={beta}"
            assert hardy == (beta >= 0.5), f"beta={beta}"


class TestCramerCheck:
    def test_normal_holds(self):
        rep = cr.cramer_check(seq_of(dist.std_normal()))
        assert rep.status == cr.HOLDS

    def test_equality_case(self):
        # symmetrized exponential: m_(2k) = (2k)! exactly
        rep = cr.cramer_check(seq_of(dist.dgg(1, 1, 1)))
        assert rep.status == cr.HOLDS
        assert rep.evidence["c0"] == pytest.approx(1.0, abs=1e-12)

    def test_heavy_dgg_fails(self):
        rep = cr.cramer_check(seq_of(dist.dgg(1, "1/2", 1)))
        assert rep.status == cr.FAILS

    def test_accepts_all_parity_input(self):
        rep = cr.cramer_check(seq_of(dist.gg(1, 1, 1)))
        assert rep.status == cr.HOLDS

    def test_lemma_equivalence_flip(self):
        for beta in (0.5, 0.8, 1.0, 2.0, 4.0):
            s = seq_of(dist.dgg(1, beta, 1))
            cramer = cr.cramer_check(s).status == cr.HOLDS
            growth = cr.growth_exponent(s).evidence["a_hat"] <= 1.05
            assert cramer == growth, f"beta={beta}"
            assert cramer == (beta >= 1.0), f"beta={beta}"


class TestCarleman:
    def test_fast_growth_convergent(self):
        s = synthetic(lambda k: 3.0 * k * np.log(k))
        rep = cr.carleman_quantity(s)
        assert rep.status == cr.FAILS
        assert rep.evidence["classification"] == "convergent"

    def test_exponential_divergent(self):
        rep = cr.carleman_quantity(seq_of(dist.exponential()))
        assert rep.status == cr.HOLDS
        assert rep.evidence["classification"] == "divergent"

    def test_normal_divergent(self):
        rep = cr.carleman_quantity(seq_of(dist.std_normal()))
        assert rep.evidence["classification"] == "divergent"

    def test_partial_sums_increase(self):
        rep = cr.carleman_quantity(seq_of(dist.exponential()))
        sums = rep.evidence["partial_sums"]
        assert all(b > a for a, b in zip(sums, sums[1:]))

    def test_never_concludes_indeterminacy(self):
        # finiteness is only necessary: the note must say so on every path
        for s in (seq_of(dist.exponential()), seq_of(dist.gg(1, "1/3", 1)),
                  seq_of(dist.std_normal())):
            rep = cr.carleman_quantity(s)
            assert any("necessary" in n for n in rep.notes)
            assert "M-indet" not in rep.status


class TestKrein:
    def test_witness_densities_finite(self):
        for case in ("stieltjes", "hamburger"):
            cd = ver.build_counterexample(case, 2.0)
            krein_case = dist.STIELTJES if case == "stieltjes" else dist.HAMBURGER
            rep = cr.krein_quantity(cd.log_density, krein_case)
            assert rep.evidence["classification"] == "finite", case

    def test_normal_infinite(self):
        n = dist.std_normal()
        rep = cr.krein_quantity(lambda x: dist.log_density(n, x), dist.HAMBURGER)
        assert rep.status == cr.FAILS
        assert rep.evidence["classification"] == "infinite"

    def test_exponential_infinite(self):
        e = dist.exponential()
        rep = cr.krein_quantity(lambda x: dist.log_density(e, x), dist.STIELTJES)
        assert rep.evidence["classification"] == "infinite"

    def test_lognormal_finite(self):
        lognorm = lambda x: -np.log(x) - 0.5 * np.log(2 * np.pi) - 0.5 * np.log(x) ** 2
        rep = cr.krein_quantity(lognorm, dist.STIELTJES)
        assert rep.evidence["classification"] == "finite"

    def test_ladder_monotone(self):
        e = dist.exponential()
        rep = cr.krein_quantity(lambda x: dist.log_density(e, x), dist.STIELTJES)
        ladder = rep.evidence["ladder"]
        assert all(b >= a for a, b in zip(ladder, ladder[1:]))

    def test_vanishing_density_rejected(self):
        def holey(x):
            return -math.inf if 40.0 < x < 50.0 else -x
        with pytest.raises(ValueError, match="inapplicable|finite"):
            cr.krein_quantity(holey, dist.STIELTJES)

    def test_schedule_validation(self):
        e = dist.exponential()
        with pytest.raises(ValueError, match="schedule"):
            cr.krein_quantity(lambda x: dist.log_density(e, x), dist.STIELTJES,
                              schedule=[10.0, 20.0])


class TestConditionL:
    def test_exponential_holds(self):
        assert cr.condition_L_check(dist.exponential()).status == cr.HOLDS

    def test_gg_closed_form_holds(self):
        rep = cr.condition_L_check(dist.gg(2, 3, 5))
        assert rep.status == cr.HOLDS
        assert rep.evidence["monotone"]

    def test_slow_power_growth_holds(self):
        # L = x^(1/3)/3 climbs < 1e3 over the grid but has clear power growth
        rep = cr.condition_L_check(dist.gg(1, "1/3", 1))
        assert rep.status == cr.HOLDS
        assert rep.evidence["power_slope"] == pytest.approx(1 / 3, abs=0.02)

    @pytest.mark.parametrize("make", [dist.gg, dist.dgg])
    def test_family_spec_holds_in_closed_form(self, make):
        # L = (1-gamma) + alpha beta x^beta climbs too slowly for the grid
        # test when beta is small, but it is increasing and unbounded
        for alpha, gamma, q in itertools.product((0.1, 1, 10), (0.1, 1, 10),
                                                 (2, 3, 5, 7, 10, 20, 30)):
            rep = cr.condition_L_check(make(alpha, f"1/{q}", gamma))
            assert rep.status == cr.HOLDS, (alpha, gamma, q)
        rep = cr.condition_L_check(dist.gg(0.655715, "1/23", 0.116983))
        assert rep.status == cr.HOLDS and rep.evidence["monotone"]

    def test_bounded_heavy_tail_fails(self):
        heavy = lambda x: np.log(4.0) - 5.0 * np.log1p(x)
        rep = cr.condition_L_check(heavy, symmetric=False)
        assert rep.status == cr.FAILS

    def test_ig_holds(self):
        assert cr.condition_L_check(dist.ig(1, 1)).status == cr.HOLDS

    def test_symmetry_flag(self):
        assert cr.condition_L_check(dist.std_normal()).evidence["symmetric"] is True
        assert cr.condition_L_check(dist.exponential()).evidence["symmetric"] is False

    def test_numeric_fallback_matches_closed_form(self):
        d = dist.gg(2, 3, 5)
        rep_closed = cr.condition_L_check(d)
        rep_numeric = cr.condition_L_check(lambda x: dist.log_density(d, x),
                                           symmetric=False)
        assert rep_numeric.status == rep_closed.status == cr.HOLDS
        assert rep_numeric.evidence["L_last"] == pytest.approx(
            rep_closed.evidence["L_last"], rel=1e-4)

    def test_counterexample_density_satisfies_L(self):
        cd = ver.build_counterexample("stieltjes", 2.0)
        rep = cr.condition_L_check(cd, x0=10.0)
        assert rep.status == cr.HOLDS
