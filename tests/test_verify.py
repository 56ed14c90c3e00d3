import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentdet import decision as dec
from momentdet import distributions as dist
from momentdet import verify as ver

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name):
    rows = []
    with open(FIXTURES / name) as fh:
        header = next(fh)
        assert header.split() == ["k", "ln_mk", "tol"]
        for line in fh:
            k, lm, tol = line.split("\t")
            rows.append((int(k), float(lm), float(tol)))
    return rows


class TestQuadratureMoment:
    def test_exponential_m4(self):
        e = dist.exponential()
        q = ver.quadrature_moment(lambda x: dist.log_density(e, x),
                                  ver.POSITIVE_HALF_LINE, 4)
        assert q == pytest.approx(24.0, rel=1e-8)

    def test_normal_m6(self):
        n = dist.std_normal()
        q = ver.quadrature_moment(lambda x: dist.log_density(n, x), ver.REAL_LINE, 6)
        assert q == pytest.approx(15.0, rel=1e-8)

    def test_odd_symmetric_vanishes(self):
        n = dist.std_normal()
        q = ver.quadrature_moment(lambda x: dist.log_density(n, x), ver.REAL_LINE, 3)
        assert abs(q) < 1e-10

    def test_log_form_rejects_odd_real_line(self):
        n = dist.std_normal()
        with pytest.raises(ValueError, match="odd"):
            ver.quadrature_log_moment(lambda x: dist.log_density(n, x), ver.REAL_LINE, 3)

    def test_large_order_stays_in_log_space(self):
        d = dist.gg(1, "1/3", 1)
        lm = ver.quadrature_log_moment(lambda x: dist.log_density(d, x),
                                       ver.POSITIVE_HALF_LINE, 60)
        assert lm == pytest.approx(dist.log_moment(d, 60), rel=1e-10)
        assert lm > 700  # the plain moment would overflow

    def test_unknown_support_rejected(self):
        with pytest.raises(ValueError):
            ver.quadrature_log_moment(lambda x: -x, "circle", 2)


class TestQuadratureLogTail:
    @pytest.mark.parametrize("d,x_under", [
        (dist.gg(1, 2, 3), 30.0), (dist.gg(2, "1/2", "1/2"), 1e6),
        (dist.dgg(1, "1/2", 2), 1e6), (dist.ig(1, 1), 2000.0),
    ], ids=str)
    def test_log_tail_agrees_from_the_certified_start(self, d, x_under):
        # the closed-form log-tail against the log-space oracle at x_c e^j,
        # x_c the start of both certificates, and where the tail underflows
        hazard, tail = dec._certify_envelope(d, 0, 1.0)
        ln_xc = max(hazard.evidence["ln_x_start"], tail.evidence["ln_x_start"])
        assert dist.tail(d, x_under) == 0.0
        for x in [math.exp(ln_xc + j) for j in range(4)] + [x_under]:
            q = ver.quadrature_log_tail(lambda t: dist.log_density(d, t), x)
            assert dist.log_tail(d, x) == pytest.approx(q, rel=1e-12), (str(d), x)


def _log_moment(d, k):
    return lambda: ver.quadrature_log_moment(lambda x: dist.log_density(d, x), d.support, k)


def _witness(case, k):
    def value():
        cd = ver.build_counterexample(case, 2.0)
        return cd.log_norming if k is None else ver.quadrature_log_moment(
            cd.log_density, cd.support, k)
    return value


def _shifted_normal_m3():
    # N(1, 1): E[X^3] = 1 + 3 = 4, a signed real-line moment
    log_dens = lambda x: -0.5 * (x - 1.0) ** 2 - 0.5 * math.log(2.0 * math.pi)
    return ver.quadrature_moment(log_dens, ver.REAL_LINE, 3)


# name -> quadrature value.  fixtures/quadrature_values.tsv holds their reprs
# as computed when the scan window was still a loop of scalar calls: the array
# scan only brackets the peak, so every value must stay bit-identical.
PINNED_QUADRATURE = {
    "GG(1,1/3,1) k=0": _log_moment(dist.gg(1, "1/3", 1), 0),
    "GG(1,1/3,1) k=3": _log_moment(dist.gg(1, "1/3", 1), 3),
    "GG(1,1/3,1) k=12": _log_moment(dist.gg(1, "1/3", 1), 12),
    "GG(1,1/3,1) k=60": _log_moment(dist.gg(1, "1/3", 1), 60),
    "GG(0.5,2,3.1) k=2": _log_moment(dist.gg(0.5, 2, 3.1), 2),
    "GG(0.5,2,3.1) k=7": _log_moment(dist.gg(0.5, 2, 3.1), 7),
    "Exp k=3": _log_moment(dist.exponential(), 3),
    "DGG(0.5,2,1) k=0": _log_moment(dist.dgg(0.5, 2, 1), 0),
    "DGG(0.5,2,1) k=4": _log_moment(dist.dgg(0.5, 2, 1), 4),
    "DGG(1,1/3,1) k=10": _log_moment(dist.dgg(1, "1/3", 1), 10),
    "IG(1,1) k=1": _log_moment(dist.ig(1, 1), 1),
    "IG(1,1) k=5": _log_moment(dist.ig(1, 1), 5),
    "IG(0.13,6.6) k=3": _log_moment(dist.ig(0.13, 6.6), 3),
    "IG(7.5,0.047) k=2": _log_moment(dist.ig(7.5, 0.047), 2),
    "stieltjes witness log_norming": _witness("stieltjes", None),
    "stieltjes witness k=10": _witness("stieltjes", 10),
    "hamburger witness log_norming": _witness("hamburger", None),
    "hamburger witness k=8": _witness("hamburger", 8),
    "N(0,1) m3": lambda: ver.quadrature_moment(
        lambda x: dist.log_density(dist.std_normal(), x), ver.REAL_LINE, 3),
    "N(1,1) m3": _shifted_normal_m3,
}


def load_pinned_quadrature():
    with open(FIXTURES / "quadrature_values.tsv") as fh:
        assert next(fh).rstrip("\n").split("\t") == ["case", "repr"]
        return dict(line.rstrip("\n").split("\t") for line in fh)


class TestArrayScan:
    """The scan window is one array call of log_dens; everything else is scalar."""

    @staticmethod
    def counted(log_dens):
        sizes = []

        def wrapper(x):
            sizes.append(np.size(x))
            return log_dens(x)
        return wrapper, sizes

    def test_one_array_call_per_scan_window(self):
        e = dist.exponential()
        log_dens, sizes = self.counted(lambda x: dist.log_density(e, x))
        lm = ver.quadrature_log_moment(log_dens, ver.POSITIVE_HALF_LINE, 3)
        assert lm == pytest.approx(math.log(6.0), rel=1e-12)
        assert [s for s in sizes if s > 1] == [2001]
        assert len(sizes) < 600  # about 2,500 when the scan was scalar

    def test_real_line_scans_each_half_once(self):
        n = dist.std_normal()
        log_dens, sizes = self.counted(lambda x: dist.log_density(n, x))
        ver.quadrature_moment(log_dens, ver.REAL_LINE, 3)
        assert [s for s in sizes if s > 1] == [2001, 2001]

    @pytest.mark.parametrize("log_dens", [
        lambda x: -x if x > 0 else -math.inf,
        lambda x: math.log(x) - x,
        lambda x: float(np.max(-x)),
    ], ids=["truth-value-of-array", "math-on-array", "scalar-for-array"])
    def test_scalar_only_callable_named(self, log_dens):
        with pytest.raises(ValueError, match="must take an array of x"):
            ver.quadrature_log_moment(log_dens, ver.POSITIVE_HALF_LINE, 2)

    def test_peak_past_the_float_range_overflows(self):
        # x^(k+99) exp(-1e-3 x^(1/50)) peaks near u = ln x = 1000, beyond the
        # largest float: the scan stops with OverflowError and no RuntimeWarning
        d = dist.gg(1e-3, "1/50", 100)
        with pytest.raises(OverflowError):
            ver.quadrature_log_moment(lambda x: dist.log_density(d, x), d.support, 2)

    @pytest.mark.parametrize("name", sorted(PINNED_QUADRATURE))
    def test_values_pinned(self, name):
        assert repr(PINNED_QUADRATURE[name]()) == load_pinned_quadrature()[name]


class TestCounterexampleDensity:
    def test_normalization(self):
        for case in ("stieltjes", "hamburger"):
            cd = ver.build_counterexample(case, 2.0)
            total = ver.quadrature_moment(cd.log_density, cd.support, 0)
            assert total == pytest.approx(1.0, abs=1e-6), case

    def test_delta_precondition(self):
        with pytest.raises(ValueError, match="delta"):
            ver.build_counterexample("stieltjes", 1.0)
        with pytest.raises(ValueError, match="case"):
            ver.build_counterexample("circular", 2.0)

    def test_hamburger_symmetric_with_removable_origin(self):
        cd = ver.build_counterexample("hamburger", 2.0)
        assert cd.log_density(1.3) == cd.log_density(-1.3)
        assert cd.log_density(0.0) == cd.log_norming  # continuous limit

    def test_golden_moments_stieltjes(self):
        cd = ver.build_counterexample("stieltjes", 2.0)
        for k, lm_expected, tol in load_fixture("witness_stieltjes_delta2_logmoments.tsv"):
            lm = ver.quadrature_log_moment(cd.log_density, cd.support, k)
            assert lm == pytest.approx(lm_expected, rel=tol), f"k={k}"

    def test_golden_moments_hamburger(self):
        cd = ver.build_counterexample("hamburger", 2.0)
        for k, lm_expected, tol in load_fixture("witness_hamburger_delta2_logmoments.tsv"):
            lm = ver.quadrature_log_moment(cd.log_density, cd.support, k)
            assert lm == pytest.approx(lm_expected, rel=tol), f"k={k}"

    def test_first_moment_fixture_value(self):
        # frozen by this very oracle; a regression anchor
        cd = ver.build_counterexample("stieltjes", 2.0)
        rows = load_fixture("witness_stieltjes_delta2_logmoments.tsv")
        assert rows[0][0] == 1
        lm1 = ver.quadrature_log_moment(cd.log_density, cd.support, 1)
        assert lm1 == pytest.approx(rows[0][1], rel=1e-9)
        assert lm1 > 0  # finite positive first moment


class TestVerifyGrowthBound:
    def test_clearly_violated_exponent(self):
        cd = ver.build_counterexample("stieltjes", 2.0)
        rep = ver.verify_growth_bound(cd, a=1.9, kmax=40)
        assert not rep.ok
        assert rep.window == (20, 40)

    def test_hamburger_clearly_violated(self):
        cd = ver.build_counterexample("hamburger", 2.0)
        rep = ver.verify_growth_bound(cd, a=0.9, kmax=40)
        assert not rep.ok

    def test_bound_far_above_measured_growth(self):
        # the finite-horizon exponent of the stieltjes witness sits near 5.2
        cd = ver.build_counterexample("stieltjes", 2.0)
        rep = ver.verify_growth_bound(cd, a=6.5, kmax=40)
        assert rep.ok
        assert 5.0 < rep.window_max < 6.5

    def test_kmax_guard(self):
        cd = ver.build_counterexample("stieltjes", 2.0)
        for kmax in (100, 1, 0):
            with pytest.raises(ValueError, match="kmax"):
                ver.verify_growth_bound(cd, a=2.5, kmax=kmax)

    def test_report_is_truthy_like(self):
        cd = ver.build_counterexample("hamburger", 2.0)
        assert bool(ver.verify_growth_bound(cd, a=6.0, kmax=20))


class TestThetaSplit:
    def test_three_unit_betas(self):
        ts = ver.theta_split([1, 1, 1], "stieltjes")
        assert math.fsum(ts.thetas) == pytest.approx(1.0, abs=1e-15)
        for t in ts.thetas:
            assert 2 * t * 1 < 1

    def test_hamburger_pair(self):
        ts = ver.theta_split([1, 2], "hamburger")
        t1, t2 = ts.thetas
        assert 0.5 < t1 < 1
        assert t2 < 0.5
        assert t1 + t2 == pytest.approx(1.0, abs=1e-15)

    def test_infeasible_rejected_with_named_inequality(self):
        with pytest.raises(ver.ThetaSplitError, match=r"sum\(1/beta_i\) > 2"):
            ver.theta_split([2, 2], "stieltjes")
        with pytest.raises(ver.ThetaSplitError, match=r"sum\(1/beta_i\) > 1"):
            ver.theta_split([2, 4], "hamburger")

    def test_needs_two_factors(self):
        with pytest.raises(ver.ThetaSplitError):
            ver.theta_split([0.2], "stieltjes")

    @given(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=2, max_size=6),
           st.sampled_from(["stieltjes", "hamburger"]))
    @settings(max_examples=300, deadline=None)
    def test_feasible_splits_have_margin(self, betas, case):
        thr = 2.0 if case == "stieltjes" else 1.0
        total = sum(1.0 / b for b in betas)
        if total <= thr + 1e-3:
            return  # stay away from degenerate feasibility
        ts = ver.theta_split(betas, case)
        scale = 2.0 if case == "stieltjes" else 1.0
        for t, b in zip(ts.thetas, betas):
            assert t > 1e-9
            assert scale * t * b < 1.0 - 1e-9


class TestMCCrossCheck:
    def test_pair_of_exponentials(self):
        p = dist.ProductSpec([dist.exponential(), dist.exponential()])
        rep = ver.mc_cross_check(p, seed=7, n=200_000, kmax=4)
        assert rep.ok
        for row in rep.rows:
            assert row.analytic == pytest.approx(math.factorial(row.k) ** 2, rel=1e-9)

    def test_mixed_odd_moments_vanish(self):
        p = dist.ProductSpec([dist.std_normal(), dist.exponential()])
        rep = ver.mc_cross_check(p, seed=11, n=200_000, kmax=4)
        assert rep.ok
        for row in rep.rows:
            if row.k % 2 == 1:
                assert row.analytic == 0.0
                assert abs(row.empirical) <= 4 * row.std_error

    def test_ig_exp_product(self):
        p = dist.ProductSpec([dist.ig(1, 1), dist.exponential()])
        rep = ver.mc_cross_check(p, seed=5, n=200_000, kmax=4)
        assert rep.ok

    def test_validation(self):
        p = dist.ProductSpec([dist.exponential()])
        with pytest.raises(ValueError, match="kmax"):
            ver.mc_cross_check(p, 1, 200_000, kmax=9)
        with pytest.raises(ValueError, match="n must"):
            ver.mc_cross_check(p, 1, 10_000, kmax=4)

    def test_kmax_below_one_rejected(self):
        # zero rows would be a pass that checks nothing
        p = dist.ProductSpec([dist.exponential()])
        with pytest.raises(ValueError, match="kmax"):
            ver.mc_cross_check(p, 1, 200_000, kmax=0)

    def test_overflowing_samples_raise(self):
        # GG(1e-3, 1/50, 100) draws pass the float range; that is an error
        # named before any moment is taken, and no RuntimeWarning on the way
        p = dist.ProductSpec([dist.gg(1e-3, "1/50", 100), dist.exponential()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="samples are not finite"):
                ver.mc_cross_check(p, seed=0, n=100_000, kmax=2)

    def test_mirrored_sample_negates_odd_rows(self, monkeypatch):
        # z and -z: odd rows change sign and even rows keep every bit, so
        # samples of either sign take the same power kernel
        p = dist.ProductSpec([dist.dgg(1, 1.5, 1.4)])
        z = dist.sample_product(p, 3, 100_000)
        monkeypatch.setattr(ver, "sample_product", lambda p, seed, n: z)
        rows = ver.mc_cross_check(p, seed=3, n=100_000, kmax=4).rows
        monkeypatch.setattr(ver, "sample_product", lambda p, seed, n: -z)
        mirrored = ver.mc_cross_check(p, seed=3, n=100_000, kmax=4).rows
        for r, m in zip(rows, mirrored):
            if r.k % 2 == 1:
                assert r.analytic == 0.0
                assert m == r._replace(empirical=-r.empirical, z=-r.z), r.k
            else:
                assert m == r, r.k

    def test_half_line_rows_pinned(self):
        # a half-line product keeps every bit of its rows at kmax = 4;
        # fixtures/mc_rows_ig_ig_exp.txt holds their reprs
        p = dist.ProductSpec([dist.ig(1, 1), dist.ig(2, 1), dist.exponential()])
        rep = ver.mc_cross_check(p, seed=0, n=100_000, kmax=4)
        pinned = (FIXTURES / "mc_rows_ig_ig_exp.txt").read_text().splitlines()
        assert [repr(r) for r in rep.rows] == pinned

    def test_failures_reported_not_raised(self):
        # deliberately wrong analytic target cannot happen through the API, so
        # check the report shape instead: z-scores and flags are populated
        p = dist.ProductSpec([dist.exponential()])
        rep = ver.mc_cross_check(p, seed=3, n=100_000, kmax=2)
        assert len(rep.rows) == 2
        assert all(math.isfinite(r.z) for r in rep.rows)
