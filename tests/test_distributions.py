import copy
import math
import pathlib
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentdet import criteria as cr
from momentdet import decision as dec
from momentdet import distributions as dist
from momentdet import verify as ver

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def logf(d):
    return lambda x: dist.log_density(d, x)


class TestSpecsAndAliases:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            dist.gg(-1, 1, 1)
        with pytest.raises(ValueError, match="beta"):
            dist.gg(1, 0, 1)
        with pytest.raises(ValueError, match="lambda"):
            dist.ig(1, float("nan"))
        with pytest.raises(ValueError, match="family"):
            dist.DistributionSpec("Weibull")

    def test_exponential_is_unit_gg(self):
        e = dist.exponential()
        assert (e.family, e.alpha, e.beta, e.gamma) == (dist.GG, 1.0, 1.0, 1.0)
        assert dist.log_density(e, 2.0) == pytest.approx(-2.0, abs=1e-15)

    def test_chi_square_alias(self):
        # chi2(3): f(x) = x^(1/2) e^(-x/2) / (2^(3/2) Gamma(3/2))
        c = dist.chi_square(3)
        x = 1.7
        expected = 0.5 * math.log(x) - x / 2 - 1.5 * math.log(2.0) - math.lgamma(1.5)
        assert dist.log_density(c, x) == pytest.approx(expected, rel=1e-14)

    def test_std_normal_alias(self):
        n = dist.std_normal()
        x = 0.7
        expected = -0.5 * x * x - 0.5 * math.log(2 * math.pi)
        assert dist.log_density(n, x) == pytest.approx(expected, rel=1e-14)

    def test_half_normal_alias(self):
        h = dist.half_normal()
        x = 0.9
        expected = math.log(math.sqrt(2 / math.pi)) - 0.5 * x * x
        assert dist.log_density(h, x) == pytest.approx(expected, rel=1e-14)

    def test_rational_snap(self):
        d = dist.gg(1, 1 / 3, 1)
        assert d.beta_exact is not None and d.beta_exact.denominator == 3
        d = dist.gg(1, "1/3", 1)
        assert float(d.beta_exact) == pytest.approx(1 / 3)
        d = dist.gg(1, 0.50000001, 1)
        assert d.beta_exact is None

    def test_bool_parameter_rejected(self):
        # True is an int, but not a parameter: the field is named
        with pytest.raises(ValueError, match="alpha"):
            dist.DistributionSpec(dist.GG, alpha=True)
        with pytest.raises(ValueError, match="lam"):
            dist.DistributionSpec(dist.IG, lam=False)

    def test_exact_rational_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            dist.exact_rational("1/0")

    def test_support_class(self):
        P = dist.ProductSpec
        assert dist.support_class(P([dist.gg(1, 1, 1), dist.ig(1, 1)])) == dist.STIELTJES
        assert dist.support_class(P([dist.dgg(1, 1, 1)] * 2)) == dist.HAMBURGER
        assert dist.support_class(P([dist.gg(1, 1, 1), dist.dgg(1, 1, 1)])) == dist.MIXED
        with pytest.raises(ValueError):
            P([])

    # a product of two factors in each support class
    CLASS_PRODUCTS = {dist.STIELTJES: [dist.gg(1, 1, 1), dist.ig(1, 2)],
                      dist.HAMBURGER: [dist.std_normal(), dist.dgg(1, 1, 1)],
                      dist.MIXED: [dist.half_normal(), dist.std_normal()]}

    @pytest.mark.parametrize("support", [dist.STIELTJES, dist.HAMBURGER, dist.MIXED])
    def test_every_consumer_keys_on_the_moment_step(self, support):
        step = dist.MOMENT_STEP[support]
        thr = 2.0 / step
        p = dist.ProductSpec(self.CLASS_PRODUCTS[support])
        assert dist.support_class(p) == support
        assert dec.decide_product(p).threshold == thr
        assert dec.ratio_route(p).threshold == 2.0
        assert cr.LogMomentSequence.from_product(p).step == step
        case = support.lower()
        if support == dist.MIXED:            # no witness lives on mixed support
            with pytest.raises(ValueError, match="case"):
                ver.build_counterexample(case, 2.0)
            with pytest.raises(ver.ThetaSplitError, match="unknown case"):
                ver.theta_split([1.0, 1.0], case)
            return
        cd = ver.build_counterexample(case, 2.0)
        assert cd.support == support
        assert set(np.diff(ver.verify_growth_bound(cd, a=10.0, kmax=8).orders)) == {step}
        # equal betas just inside sum(1/beta_i) > thr split evenly, so every
        # thr theta_i beta_i is 0.99; at sum(1/beta_i) = thr no split exists
        betas = [2.0 / thr * 0.99] * 2
        ts = ver.theta_split(betas, case)
        assert ts.support == support
        assert [thr * t * b for t, b in zip(ts.thetas, betas)] == pytest.approx([0.99, 0.99])
        with pytest.raises(ver.ThetaSplitError, match=rf"sum\(1/beta_i\) > {thr:g}$"):
            ver.theta_split([2.0 / thr] * 2, case)


class TestRecords:
    """The records are plain immutable values: fields, defaults, repr,
    equality and hash as written, and validation on every construction."""

    def test_beta_exact_takes_no_part_in_equality_or_hash(self):
        plain = dist.DistributionSpec("GG", beta=0.5)
        exact = dist.DistributionSpec("GG", beta=0.5, beta_exact=Fraction(1, 2))
        assert plain == exact and hash(plain) == hash(exact)
        assert exact == dist.gg(1, "1/2", 1) and exact.beta_exact == Fraction(1, 2)
        assert plain != dist.DistributionSpec("DGG", beta=0.5)
        assert plain != dist.DistributionSpec("GG", beta=0.25)
        assert repr(exact) == ("DistributionSpec(family='GG', alpha=1.0, beta=0.5, gamma=1.0, "
                               "mu=1.0, lam=1.0, beta_exact=Fraction(1, 2))")

    def test_distribution_spec_checks_every_construction(self):
        with pytest.raises(ValueError, match="^unknown family 'Cauchy'$"):
            dist.DistributionSpec("Cauchy")
        with pytest.raises(ValueError, match="^mu must be a finite positive number, got True$"):
            dist.DistributionSpec("IG", mu=True)
        d = dist.gg(2, "1/3", 1)
        moved = d._replace(alpha=3.0)
        assert (moved.alpha, moved.beta, moved.beta_exact, d.alpha) == (3.0, 1 / 3, Fraction(1, 3), 2.0)
        with pytest.raises(ValueError, match="^gamma must be a finite positive number, got inf$"):
            d._replace(gamma=math.inf)
        with pytest.raises(TypeError):
            d._replace(lambda_=1.0)

    # a decision compares beta_exact in place of beta, so one that does not
    # round to beta decides another factor
    STALE_BETA_EXACT = {
        # exponent sum 2.5 above the threshold 2, yet the exact sum 2 decides M-det
        "replaced_beta": lambda: dist.gg(1, "1/2", 1)._replace(beta=0.4),
        # exponent sum 2.0 at the threshold 2.0, yet the exact sum 3 decides M-indet
        "other_rational": lambda: dist.DistributionSpec("GG", beta=0.5, beta_exact=Fraction(1, 3)),
        # a float has no denominator for the exact sum
        "float": lambda: dist.DistributionSpec("GG", beta=0.5, beta_exact=0.5),
        "negative": lambda: dist.DistributionSpec("GG", beta=0.5, beta_exact=Fraction(-1, 2)),
        "on_ig": lambda: dist.DistributionSpec("IG", beta_exact=Fraction(1)),
    }

    @pytest.mark.parametrize("case", STALE_BETA_EXACT)
    def test_beta_exact_must_round_to_beta(self, case):
        with pytest.raises(ValueError, match="^beta_exact must be None on IG, else a positive"):
            self.STALE_BETA_EXACT[case]()

    def test_beta_exact_kept_where_it_rounds_to_beta(self):
        assert dist.gg(1, 0.333333333333, 1).beta_exact == Fraction(1, 3)
        assert dist.gg(1, "1/1001", 1).beta_exact == Fraction(1, 1001)
        # a subnormal beta is the rounded rational, outside the relative tolerance
        assert dist.dgg(1, "1e-320", 1).beta_exact == Fraction(1, 10 ** 320)

    def test_product_spec_keeps_len_repr_and_hash(self):
        f = (dist.ig(1, 2), dist.exponential())
        p = dist.ProductSpec(iter(f))
        assert len(p) == 2 and len(dist.ProductSpec(f[:1])) == 1
        assert p.factors == f
        assert p == dist.ProductSpec(list(f)) and hash(p) == hash(dist.ProductSpec(list(f)))
        assert hash(p) == hash((f,))
        assert repr(p) == f"ProductSpec(factors=({f[0]!r}, {f[1]!r}))"
        with pytest.raises(ValueError, match="^a product needs at least one factor$"):
            dist.ProductSpec([])

    def test_copies_are_equal_values(self):
        p = dist.ProductSpec([dist.gg(2, "1/3", 1), dist.std_normal()])
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and q.factors[0].beta_exact == Fraction(1, 3)

    def test_assigning_a_field_raises(self):
        p = dist.ProductSpec([dist.exponential()])
        seq = cr.LogMomentSequence.from_distribution(dist.ig(1, 1), 40)
        records = [
            (p.factors[0], "alpha"), (p.factors[0], "beta_exact"), (p, "factors"),
            (dec.decide_product(p), "conclusion"), (dec.spec_criterion(p, "growth"), "status"),
            (seq, "parity"), (ver.theta_split([1, 1, 1], "stieltjes"), "thetas"),
            (ver.MCMomentRow(1, 2.0, 2.0, 0.1, 0.0, True), "ok"),
        ]
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            p.extra = 1

    def test_theta_split_and_sequence_check_every_construction(self):
        ts = ver.theta_split([1, 1, 1], "stieltjes")
        with pytest.raises(ver.ThetaSplitError, match="^thetas must sum to 1$"):
            ver.ThetaSplit(thetas=(0.5, 0.6), support=dist.STIELTJES, betas=(1.0, 1.0))
        with pytest.raises(ver.ThetaSplitError, match="^thetas must sum to 1$"):
            ts._replace(thetas=(0.5, 0.5, 0.5))
        seq = cr.LogMomentSequence.from_distribution(dist.ig(1, 1), 40)
        with pytest.raises(ValueError, match="^unknown parity 'odd'$"):
            cr.LogMomentSequence(orders=seq.orders, values=seq.values, parity="odd")
        with pytest.raises(ValueError, match="^orders/values must be matching 1-d arrays"):
            cr.LogMomentSequence(orders=[1, 2], values=[0.0, 1.0], parity="all")
        with pytest.raises(ValueError, match="^even-parity orders must be the consecutive"):
            seq._replace(parity="even")

    def test_mc_row_repr_keeps_its_text(self):
        row = ver.MCMomentRow(k=1, empirical=2.5, analytic=2.0, std_error=0.25, z=2.0, ok=True)
        assert repr(row) == ("MCMomentRow(k=1, empirical=2.5, analytic=2.0, std_error=0.25, "
                             "z=2.0, ok=True)")
        assert row._replace(z=-2.0).z == -2.0 and row.z == 2.0


class TestDensity:
    def test_ig_at_mean(self):
        # the quadratic exponent vanishes at x = mu
        assert dist.log_density(dist.ig(1, 1), 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-14)

    def test_ig_with_mu_squared_past_the_float_range(self):
        # mu^2 = 1e400 overflows; ((x - mu)/mu)^2 = 1 at x = 1 does not
        d = dist.ig(1e200, 1)
        expected = -0.5 * math.log(2 * math.pi) - 0.5
        assert dist.log_density(d, 1.0) == pytest.approx(expected, rel=1e-15)
        assert dist.log_density(d, np.array([1.0])).tolist() == [dist.log_density(d, 1.0)]

    @pytest.mark.parametrize("d,x", [
        (dist.gg(1, 2, 1), 1e200), (dist.dgg(1, 2, 3), -1e300),
        (dist.ig(1, 1), 1e300), (dist.ig(1, 1), 1e-320), (dist.ig(1, 1), 1e308),
    ])
    def test_underflowing_density_is_quiet(self, d, x):
        # the exponent passes the float range: -inf on both routes, without
        # a RuntimeWarning, which the suite turns into an error; at 1e308
        # the IG form lam (x - mu)^2 / (2 mu^2 x) reads inf/inf
        assert dist.log_density(d, x) == -math.inf
        assert dist.log_density(d, np.array([x, 1.0]))[0] == -math.inf

    @pytest.mark.parametrize("d,x", [(dist.gg(1e-20, 2, 3), 1e160),
                                     (dist.dgg(1e-20, 2, 3), -1e160)])
    def test_density_where_x_beta_overflows(self, d, x):
        # x^beta = 1e320 overflows, alpha x^beta = 1e300 does not: ln f is
        # about -1e300, as the tail is, on both routes and without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = dist.log_tail(d, abs(x))
            assert dist.log_density(d, x) == pytest.approx(expected, rel=1e-12)
            assert dist.log_density(d, np.array([x, 1.0]))[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_convention(self):
        # f(0) = 0 whenever gamma != 1, as a removable single point
        assert dist.log_density(dist.gg(1, 1, 2), 0.0) == -math.inf
        assert dist.log_density(dist.gg(1, 1, 1), -1.0) == -math.inf
        assert dist.log_density(dist.dgg(1, 2, 0.5), 0.0) == -math.inf
        assert math.isfinite(dist.log_density(dist.gg(1, 1, 1), 0.0))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_dgg_symmetry_exact(self, x):
        d = dist.dgg(0.7, 1.3, 2.2)
        assert dist.log_density(d, x) == dist.log_density(d, -x)

    def test_normalization_sample(self, family_sample):
        for d in family_sample:
            support = ver.REAL_LINE if d.family == dist.DGG else ver.POSITIVE_HALF_LINE
            total = ver.quadrature_moment(logf(d), support, 0)
            assert total == pytest.approx(1.0, abs=1e-8), str(d)


PINNED_MOMENT_ORDERS = (1, 2, 3, 7, 50, 200)
PINNED_MOMENT_FACTORS = {
    "GG(1,1,1)": dist.gg(1, 1, 1),
    "GG(1,1/3,1)": dist.gg(1, "1/3", 1),
    "GG(0.5,2,3.1)": dist.gg(0.5, 2, 3.1),
    "GG(1e-3,1/50,100)": dist.gg(1e-3, "1/50", 100),
    "DGG(1/2,2,1)": dist.std_normal(),
    "DGG(2,1/2,3)": dist.dgg(2, "1/2", 3),
    "DGG(0.7,0.45,2.2)": dist.dgg(0.7, 0.45, 2.2),
    "IG(1,1)": dist.ig(1, 1),
    "IG(0.13,6.6)": dist.ig(0.13, 6.6),
    "IG(1e150,1e-150)": dist.ig(1e150, 1e-150),
    "IG(1e-200,1e200)": dist.ig(1e-200, 1e200),
}
# name -> (factors, k_max, parity): a Stieltjes, a Hamburger and a Mixed product
PINNED_PRODUCTS = {
    "Exp*IG(2,1) K=41": ([dist.exponential(), dist.ig(2, 1)], 41, "all"),
    "Normal*DGG(2,1/2,3) K=199": ([dist.std_normal(), dist.dgg(2, "1/2", 3)], 199, "even"),
    "HalfNormal*Normal*IG(0.13,6.6) K=200":
        ([dist.half_normal(), dist.std_normal(), dist.ig(0.13, 6.6)], 200, "even"),
}


class TestMoments:
    def test_exponential_factorials(self):
        e = dist.exponential()
        assert dist.log_moment(e, 3) == pytest.approx(math.log(6.0), rel=1e-14)
        assert dist.moment(e, 5) == pytest.approx(120.0, rel=1e-12)

    def test_normal_moments(self):
        n = dist.std_normal()
        assert dist.moment(n, 4) == pytest.approx(3.0, rel=1e-12)
        assert dist.moment(n, 6) == pytest.approx(15.0, rel=1e-12)
        assert dist.log_moment(n, 3) == -math.inf
        assert dist.moment(n, 3) == 0.0

    def test_ig_closed_form_matches_quadrature(self):
        d = dist.ig(1, 1)
        q = ver.quadrature_moment(logf(d), ver.POSITIVE_HALF_LINE, 3)
        assert math.exp(dist.log_moment(d, 3)) == pytest.approx(q, rel=1e-10)
        # and the small-order values are the textbook ones
        assert dist.moment(d, 1) == pytest.approx(1.0, rel=1e-12)
        assert dist.moment(d, 2) == pytest.approx(2.0, rel=1e-12)
        assert dist.moment(d, 3) == pytest.approx(7.0, rel=1e-12)

    def test_moment_order_validation(self):
        with pytest.raises(ValueError):
            dist.log_moment(dist.exponential(), 0)

    @pytest.mark.parametrize("d", [dist.gg(2, 3, 1), dist.dgg(2, "1/2", 3), dist.ig(1, 1)],
                             ids=["GG", "DGG", "IG"])
    def test_empty_orders_give_an_empty_result(self, d):
        out = dist.log_moment(d, np.array([], dtype=int))
        assert out.shape == (0,) and out.dtype == float
        assert dist.log_moment(d, np.empty((3, 0), dtype=int)).shape == (3, 0)

    @pytest.mark.parametrize("d", [dist.gg(2, 3, 1), dist.dgg(2, "1/2", 3), dist.ig(1, 1)],
                             ids=["GG", "DGG", "IG"])
    def test_unsigned_orders_are_orders(self, d):
        # -k of an unsigned k wraps around; the closed form never negates k
        ks = np.arange(1, 9)
        expected = dist.log_moment(d, ks).tobytes()
        assert dist.log_moment(d, ks.astype(np.uint64)).tobytes() == expected
        assert [dist.log_moment(d, np.uint8(k)) for k in ks] == dist.log_moment(d, ks).tolist()

    def test_values_pinned(self):
        # fixtures/log_moment_values.tsv was written by an earlier multi-factor
        # moment matrix; the scalar route, the array route and from_product
        # keep its bits
        with open(FIXTURES / "log_moment_values.tsv") as fh:
            assert next(fh).rstrip("\n").split("\t") == ["case", "repr"]
            pinned = dict(line.rstrip("\n").split("\t") for line in fh)
        assert sorted(pinned) == sorted(
            [f"{name} k={k}" for name in PINNED_MOMENT_FACTORS for k in PINNED_MOMENT_ORDERS]
            + [f"{name} {parity}" for name, (_, _, parity) in PINNED_PRODUCTS.items()])
        for name, d in PINNED_MOMENT_FACTORS.items():
            array = dist.log_moment(d, np.array(PINNED_MOMENT_ORDERS)).tolist()
            for k, a in zip(PINNED_MOMENT_ORDERS, array):
                assert repr(dist.log_moment(d, k)) == repr(a) == pinned[f"{name} k={k}"]
        for name, (factors, k_max, parity) in PINNED_PRODUCTS.items():
            s = cr.LogMomentSequence.from_product(dist.ProductSpec(factors), k_max)
            assert s.parity == parity
            assert " ".join(map(repr, s.values.tolist())) == pinned[f"{name} {parity}"], name

    def test_oracle_agreement_sample(self, family_sample):
        worst = 0.0
        for d in family_sample:
            support = ver.REAL_LINE if d.family == dist.DGG else ver.POSITIVE_HALF_LINE
            step = 2 if d.family == dist.DGG else 1
            for k in range(step, 21, step):
                q = ver.quadrature_log_moment(logf(d), support, k)
                worst = max(worst, abs(math.expm1(q - dist.log_moment(d, k))))
        assert worst < 1e-8

    def test_log_space_reach(self):
        # k = 400 for a heavy sub-Weibull point stays finite in log space
        lm = dist.log_moment(dist.gg(0.5, 1 / 3, 1), 400)
        assert math.isfinite(lm) and lm > 1e3


class TestTail:
    def test_exponential_tail(self):
        assert dist.tail(dist.exponential(), 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_rayleigh_tail(self):
        # f = 2x e^(-x^2) integrates to e^(-x^2)
        d = dist.gg(1, 2, 2)
        assert dist.tail(d, 2.0) == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_ig_tail_matches_quadrature(self):
        d = dist.ig(1, 1)
        q = math.exp(ver.quadrature_log_tail(logf(d), 3.0))
        assert abs(dist.tail(d, 3.0) - q) < 1e-10

    def test_tail_monotone(self, family_sample):
        xs = np.geomspace(0.05, 50.0, 40)
        for d in family_sample:
            t = np.array([dist.tail(d, x) for x in xs])
            assert np.all(np.diff(t) <= 1e-15), str(d)
            assert np.all((t >= 0) & (t <= 1))

    def test_dgg_tail_symmetry(self):
        d = dist.dgg(1, 2, 1.5)
        for x in (0.3, 1.0, 4.0):
            assert dist.tail(d, -x) + dist.tail(d, x) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("d,x", [(dist.gg(1, 1, 1), 1e-10), (dist.gg(1, 1, 1), 1e-20),
                                     (dist.gg(1, 2, 3), 1e-6), (dist.dgg(1, 1, 1), 1e-10),
                                     (dist.dgg(1, 1, 1), -1e-10)])
    def test_log_tail_where_the_tail_is_near_one(self, d, x):
        # at the left end of a GG tail ln Q is tiny and keeps its relative digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            s = mpmath.mpf(d.gamma) / mpmath.mpf(d.beta)
            q = mpmath.gammainc(s, d.alpha * mpmath.mpf(abs(x)) ** d.beta, mpmath.inf,
                                regularized=True)
            if d.family == dist.DGG:
                q = q / 2 if x > 0 else 1 - q / 2
            ref = float(mpmath.log(q))
        assert dist.log_tail(d, x) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_log_tail_deep(self):
        # far past any double-precision tail probability
        d = dist.gg(3, 3, 0.5)
        lt = dist.log_tail(d, 1000.0)
        assert math.isfinite(lt) and lt < -2.9e9
        ig_lt = dist.log_tail(dist.ig(1, 1), 1000.0)
        assert math.isfinite(ig_lt) and ig_lt < -400


class TestHazard:
    def test_exponential_constant(self):
        e = dist.exponential()
        for x in (0.1, 1.0, 7.0, 50.0):
            assert dist.hazard(e, x) == pytest.approx(1.0, rel=1e-12)

    def test_rayleigh_exact(self):
        # hazard of f = 2x e^(-x^2) is exactly 2x = alpha beta x^(beta-1)
        d = dist.gg(1, 2, 2)
        assert dist.hazard(d, 5.0) == pytest.approx(10.0, rel=1e-10)

    def test_gg_hazard_asymptote(self, family_sample):
        # hazard / (alpha beta x^(beta-1)) -> 1; the first-order correction is
        # (gamma - beta)/(alpha beta x^beta), so test where it is below 1%
        for d in family_sample:
            if d.family == dist.IG:
                continue
            x_star = max(50.0, (abs(d.gamma - d.beta) / (0.01 * d.alpha * d.beta))
                         ** (1.0 / d.beta))
            for x in (x_star, 2 * x_star):
                ratio = math.exp(dist.log_hazard(d, x)) / (d.alpha * d.beta * x ** (d.beta - 1))
                assert abs(ratio - 1.0) < 0.02, (str(d), x, ratio)

    def test_ig_hazard_limit(self):
        # r(x) -> lam / (2 mu^2), from above at rate 3/(2x)
        d = dist.ig(1, 1)
        assert dist.hazard(d, 500.0) == pytest.approx(0.5, rel=0.02)
        d2 = dist.ig(2, 3)
        limit = 3 / 8
        assert dist.hazard(d2, 2000.0) == pytest.approx(limit, rel=0.02)

    def test_ig_hazard_against_quadrature(self):
        d = dist.ig(1, 1)
        f50 = math.exp(dist.log_density(d, 50.0))
        t50 = math.exp(ver.quadrature_log_tail(logf(d), 50.0))
        assert dist.hazard(d, 50.0) == pytest.approx(f50 / t50, rel=1e-8)


class TestArrayKernels:
    """The kernels take arrays, and a scalar gives the same bits as the same
    point in an array."""

    ORDERS = np.arange(1, 201)
    POINTS = np.concatenate([-np.geomspace(1e-2, 1e2, 9), [0.0], np.geomspace(1e-3, 1e4, 40)])
    POSITIVE = np.geomspace(1e-3, 1e4, 40)

    # -0.0, nan and +-inf for the support cases of the log-densities; the
    # witness exponent |ln x|^delta of a C-library pow differs from np.power
    # in the last bit on a few percent of points, so it gets a denser grid
    DENSITY_POINTS = np.concatenate([POINTS, [-0.0, np.nan, np.inf, -np.inf]])
    WITNESS_POINTS = np.concatenate([DENSITY_POINTS, np.geomspace(1e-3, 1e4, 400)])

    @staticmethod
    def _same_bits(f, d, xs):
        scalar = np.array([f(d, x) for x in xs])
        assert scalar.tobytes() == f(d, xs).tobytes(), (f.__name__, str(d))

    def test_scalar_equals_array(self, family_grid):
        for d in family_grid:
            self._same_bits(dist.log_density, d, self.DENSITY_POINTS)
            self._same_bits(dist.log_moment, d, self.ORDERS)
            self._same_bits(dist.log_tail, d, self.POINTS)
            self._same_bits(dist.log_hazard, d, self.POINTS)
            self._same_bits(dist.log_tail_scaled, d, self.POSITIVE)
            self._same_bits(dist.log_density_scaled, d, self.POSITIVE)
            self._same_bits(dist.tail, d, self.POINTS)
            self._same_bits(dist.hazard, d, self.POINTS)
        for case in (ver.STIELTJES_CASE, ver.HAMBURGER_CASE):
            cd = ver.build_counterexample(case, 2.5)
            self._same_bits(ver.CounterexampleDensity.log_density, cd, self.WITNESS_POINTS)

    def test_infinite_points_have_zero_density(self, family_grid):
        # +-inf lie off every support: -inf for a scalar and in an array, and
        # the closed form (inf - inf, 0 * inf) is never evaluated there
        infs = np.array([np.inf, -np.inf])
        densities = [(dist.log_density, d) for d in family_grid]
        densities += [(ver.CounterexampleDensity.log_density, ver.build_counterexample(case, 2.5))
                      for case in (ver.STIELTJES_CASE, ver.HAMBURGER_CASE)]
        for f, d in densities:
            assert [f(d, x) for x in infs] == [-math.inf, -math.inf], str(d)
            assert f(d, infs).tolist() == [-math.inf, -math.inf], str(d)

    @pytest.mark.parametrize("kernel", ["log_tail", "tail", "log_hazard", "hazard",
                                        "log_tail_scaled", "log_density_scaled"])
    def test_tails_and_hazards_at_non_finite_points(self, family_grid, kernel):
        # at +inf, -inf and nan: the tail is 0, 1 (also for DGG) and nan, and
        # the hazard its limit alpha_t beta_t x^(beta_t - 1), 0 and nan; the
        # scaled kernels, defined for x > 0, go to their limits at +inf: with
        # s = gamma/beta, the GG tail like (s - 1) ln x, exactly 0 at s = 1,
        # the GG density like (gamma - 1) ln x, ln c at gamma = 1, DGG a half
        # of each, and IG to -inf; for a scalar as in an array, and without a
        # warning
        scaled = kernel.endswith("_scaled")
        points = np.array([np.inf] if scaled else [np.inf, -np.inf, np.nan])
        f = getattr(dist, kernel)
        for d in family_grid:
            ln_a_t, b_t, _ = dist.tail_envelope(d)
            ln_limit = ln_a_t if b_t == 1.0 else math.copysign(math.inf, b_t - 1.0)
            log_values = [ln_limit, -math.inf, math.nan] if kernel.endswith("hazard") \
                else [-math.inf, 0.0, math.nan]
            if scaled:
                if d.family == dist.IG:
                    log_values = [-math.inf]
                elif kernel == "log_tail_scaled":
                    half = math.log(0.5) if d.family == dist.DGG else 0.0
                    s = d.gamma / d.beta
                    log_values = [half + (0.0 if s == 1.0 else math.copysign(math.inf, s - 1.0))]
                else:   # the scaled density is the constant ln c at gamma = 1
                    log_values = [dist.log_density_scaled(d, 1.0) if d.gamma == 1.0
                                  else math.copysign(math.inf, d.gamma - 1.0)]
            expected = log_values if kernel.startswith("log_") else np.exp(log_values)
            for got in ([f(d, x) for x in points], f(d, points)):
                np.testing.assert_allclose(got, expected, rtol=1e-15, err_msg=str(d))

    def test_hazard_past_the_float_range(self):
        # ln h = 732.4 at the smallest subnormal: inf for a scalar as in an
        # array, with no OverflowError and no warning
        d = dist.gg(1, 1, 0.01)
        assert dist.log_hazard(d, 5e-324) == pytest.approx(732.4, abs=0.1)
        assert dist.hazard(d, 5e-324) == math.inf
        assert dist.hazard(d, np.array([5e-324])).tolist() == [math.inf]

    def test_hazard_is_scaled_density_over_scaled_tail(self, family_grid):
        # on x > 0 the GG and DGG hazard is the difference of the two scaled
        # kernels, which share the envelope factor exp(-alpha_t x^beta_t); the
        # IG hazard is (ln lam - 3 ln x)/2 - ln D, which carries no lam/mu, so
        # it is checked against ln(f / F-bar) with 50 digits
        mpmath = pytest.importorskip("mpmath")
        for d in family_grid:
            got = dist.log_hazard(d, self.POSITIVE)
            if d.family != dist.IG:
                expected = dist.log_density_scaled(d, self.POSITIVE) \
                    - dist.log_tail_scaled(d, self.POSITIVE)
                assert got.tobytes() == expected.tobytes(), str(d)
                continue
            with mpmath.workdps(50):
                m, l = mpmath.mpf(d.mu), mpmath.mpf(d.lam)
                ref = []
                for x in map(mpmath.mpf, self.POSITIVE):
                    rt = mpmath.sqrt(l / x)
                    tail = mpmath.ncdf(-rt * (x / m - 1)) \
                        - mpmath.exp(2 * l / m) * mpmath.ncdf(-rt * (x / m + 1))
                    ln_f = mpmath.log(l / (2 * mpmath.pi * x ** 3)) / 2 \
                        - l * (x - m) ** 2 / (2 * m ** 2 * x)
                    ref.append(float(ln_f - mpmath.log(tail)))
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13, err_msg=str(d))

    def test_array_shape_kept(self):
        d = dist.gg(1, 2, 3)
        xs = self.POSITIVE.reshape(8, 5)
        assert dist.log_tail(d, xs).shape == (8, 5)
        assert dist.log_moment(d, np.array([[1, 2], [3, 4]])).shape == (2, 2)

    @pytest.mark.parametrize("mu,lam", [(1e-3, 1e-3), (1e-3, 1e3), (1e3, 1e-3), (1e3, 1e3),
                                        (1.0, 1.0), (0.03, 30.0), (30.0, 0.03), (7.5, 0.047)])
    def test_ig_log_moment_matches_mpmath(self, mu, lam):
        # reference: m_k = mu^k sum_(i<k) (k-1+i)! / (i! (k-1-i)!) (mu / (2 lam))^i
        # at 50 digits, with the integer coefficients exact
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            q = mpmath.mpf(mu) / (2 * mpmath.mpf(lam))
            ref = []
            for k in range(1, 201):
                total = mpmath.fsum(
                    (math.factorial(k - 1 + i) // (math.factorial(i) * math.factorial(k - 1 - i)))
                    * q ** i for i in range(k))
                ref.append(float(k * mpmath.log(mu) + mpmath.log(total)))
        got = dist.log_moment(dist.ig(mu, lam), self.ORDERS)
        assert np.max(np.abs(got - np.array(ref))) <= 1e-11
        # and to 1e-13 relative at every order, ln m_1 = ln 1 = 0 of IG(1, 1) exactly
        assert np.all(np.abs(got - np.array(ref)) <= 1e-13 * np.abs(ref))

    def test_ig_tail_far_out_is_finite(self):
        # at x = 1e12 the two normal-tail terms of the IG tail agree in every
        # double digit; as phi(a) times a Mills-ratio difference the tail
        # stays finite, and the hazard tends to lam/(2 mu^2) from above
        d = dist.ig(1, 1)
        assert dist.log_tail(d, 1e12) == pytest.approx(-0.5e12, rel=1e-9)
        assert math.log(0.5) < dist.log_hazard(d, 1e12) < math.log(0.5) + 1e-11

    @pytest.mark.parametrize("mu,lam,x", [
        (1.0, 1.0, 1e6), (1.0, 1.0, 1e8), (1.0, 1.0, 1e10), (7.5, 0.047, 1e12),
        (0.13, 6.6, 1e10), (1e-3, 1e3, 1e4),
        # the Taylor route: a below the asymptotic range and b - a small
        (644.0, 1.28e-3, 1.04e11), (1e3, 1e-3, 1e9),
        # the erfcx route and the a <= 0 route
        (1.0, 1.0, 3.0), (2.0, 3.0, 0.5),
    ])
    def test_ig_tail_scaled_matches_mpmath(self, mu, lam, x):
        # ln F-bar + lam x/(2 mu^2) against Phi(-a) - e^(2 lam/mu) Phi(-b)
        # evaluated with 50 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            m, l, xx = mpmath.mpf(mu), mpmath.mpf(lam), mpmath.mpf(x)
            rt = mpmath.sqrt(l / xx)
            tail = mpmath.ncdf(-rt * (xx / m - 1)) \
                - mpmath.exp(2 * l / m) * mpmath.ncdf(-rt * (xx / m + 1))
            ref = float(mpmath.log(tail) + l * xx / (2 * m ** 2))
        got = dist.log_tail_scaled(dist.ig(mu, lam), x)
        assert math.isfinite(got)
        assert abs(got - ref) <= 1e-9, (got, ref)

    @staticmethod
    def _reference_past_the_float_range(d, x):
        # (ln F-bar, ln F-bar + alpha_t x^beta_t, ln h) with 50 digits, formed
        # without a cancellation: for GG and DGG from the regularized upper
        # incomplete gamma; for IG as phi(a) D with D = M(a) - M(a + h) =
        # int_0^inf exp(-u^2/2 - a u) (1 - e^(-h u)) du, taken in v = a u and
        # divided by h/a, since quad stops at an absolute error of 1e-50
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            xx = mpmath.mpf(x)
            if d.family == dist.IG:
                m, l = mpmath.mpf(d.mu), mpmath.mpf(d.lam)
                rt = mpmath.sqrt(l / xx)
                a = rt * (xx / m - 1)
                rho = 2 * rt / a
                integral = mpmath.quad(lambda v: mpmath.exp(-v * v / (2 * a * a) - v)
                                       * -mpmath.expm1(-rho * v) / rho, [0, 1, mpmath.inf])
                log_d = mpmath.log(integral * rho / a) - mpmath.log(2 * mpmath.pi) / 2
                return (float(log_d - a * a / 2), float(log_d + l / m - l / (2 * xx)),
                        float(mpmath.log(l / (2 * mpmath.pi * xx ** 3)) / 2 - log_d))
            a, b, g = (mpmath.mpf(v) for v in (d.alpha, d.beta, d.gamma))
            s, z = g / b, a * xx ** b
            q = mpmath.gammainc(s, z, regularized=True)
            c = b * a ** s / mpmath.gamma(s)       # the DGG halves of f and F-bar cancel in h
            half = mpmath.log(2) if d.family == dist.DGG else 0
            return (float(mpmath.log(q) - half), float(mpmath.log(q * mpmath.exp(z)) - half),
                    float(mpmath.log(c * xx ** (g - 1) * mpmath.exp(-z) / q)))

    @pytest.mark.parametrize("d,x", [
        # alpha x^beta = 1e400 overflows: the tail is 0 and ln h = ln 2x
        (dist.gg(1, 2, 3), 1e200), (dist.dgg(1, 2, 3), 1e200),
        # only x^beta overflows; alpha x^beta = 1e300
        (dist.gg(1e-20, 2, 3), 1e160),
        # the Mills difference is about 1e-450 and the log-tail about -5e299
        (dist.ig(1, 1), 1e300), (dist.ig(2, 3), 1e305),
        # x/mu = 1e310 overflows, a = sqrt(lam/x) (x/mu - 1) = 1e160 does not
        (dist.ig(1e-10, 1), 1e300),
        # a = 1e350 overflows as well: the tail is 0, the scaled tail lam/mu
        (dist.ig(1e-200, 1), 1e300),
        # lam/x = 1e-350 underflows, a = 1e175 and the Mills step do not
        (dist.ig(1e-100, 1e-100), 1e250),
        # lam/mu = 1e20: the hazard carries none of it
        (dist.ig(1e-20, 1), 1e300),
    ], ids=["GG", "DGG", "GG-x^beta", "IG", "IG-1e305", "IG-x/mu", "IG-a", "IG-lam/x",
            "IG-lam/mu"])
    def test_tails_and_hazards_past_the_float_range(self, d, x):
        # the incomplete-gamma argument is taken in log space and the IG
        # Mills difference as a log, for a scalar as in an array, without a
        # warning.  The scaled tail carries lam/mu, so it is good to an ulp
        # of its size; the tail and the hazard to 1e-13
        expected = self._reference_past_the_float_range(d, x)
        tols = (1e-12, max(1e-12, 2 * math.ulp(expected[1])), 1e-12)
        kernels = (dist.log_tail, dist.log_tail_scaled, dist.log_hazard)
        for f, ref, tol in zip(kernels, expected, tols):
            for got in (f(d, x), f(d, np.array([x, 1.0]))[0]):
                assert got == pytest.approx(ref, rel=1e-13, abs=tol), (f.__name__, got, ref)

    @staticmethod
    def _reference_left_of_mu(mu, lam, x):
        # (ln F-bar, ln h) of IG(mu, lam) at 0 < x <= mu.  F-bar = Phi(-a) -
        # e^(2 lam/mu) Phi(-b); as b^2 - a^2 = 4 lam/mu, e^(2 lam/mu) Phi(-b) =
        # phi(a) M(b), and Phi(-a) = 1 - phi(a) M(-a), so F-bar = 1 - phi(a)
        # (M(-a) + M(b)) with no e^(2 lam/mu) (mpmath.ncdf raises OverflowError
        # from arguments near 1e156).  M(t) is sqrt(pi/2) erfc(t/sqrt 2)
        # e^(t^2/2) below t = 10 and Laplace's continued fraction 1/(t + 1/(t +
        # 2/(t + ...))) from there on.  The difference cancels to about b - a =
        # 2 sqrt(lam/x), so that many more digits are carried; t < 2 sqrt(lam/x)
        # then, and the continued fraction is used at 40 digits only.
        mpmath = pytest.importorskip("mpmath")

        def mills(t):
            if t < 10:
                return mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(t / mpmath.sqrt(2)) \
                    * mpmath.exp(t * t / 2)
            f = t
            for n in range(200, 0, -1):
                f = t + n / f
            return 1 / f

        extra = max(0, int((math.log10(x) - math.log10(lam)) / 2))
        with mpmath.workdps(40 + extra):
            m, l, xx = mpmath.mpf(mu), mpmath.mpf(lam), mpmath.mpf(x)
            rt = mpmath.sqrt(l / xx)
            a, b = rt * (xx / m - 1), rt * (xx / m + 1)
            ln_phi = -a * a / 2 - mpmath.log(2 * mpmath.pi) / 2
            ln_tail = mpmath.log1p(-mpmath.exp(ln_phi) * (mills(-a) + mills(b)))
            ln_f = (mpmath.log(l) - 3 * mpmath.log(xx)) / 2 + ln_phi
            return float(ln_tail), float(ln_f - ln_tail)

    @staticmethod
    def _left_of_mu_cases():
        # lam/mu log-uniform from 1e-300 to 1e308 and x/mu from 1e-12 to 1,
        # half of them within 1e-16 .. 1e-2 of mu
        rng = np.random.default_rng(20262)
        cases = [(1.0, 1e10, 0.99999), (1.0, 1e14, 0.9999999), (1.0, 1e308, 1.0),
                 (1e-10, 1e300, 1e-12), (1e300, 1e-300, 1e299), (1e5, 1e-300, 1e5),
                 (1.0, 1e-10, 0.999), (1.0, 1.0, 0.5), (2.0, 3.0, 0.5), (1.0, 1e3, 0.99)]
        while len(cases) < 40:
            ln_mu, ln_ratio = rng.uniform(-690, 690), rng.uniform(-690, 709)
            if not -708 < ln_mu + ln_ratio < 709:
                continue
            u = (1 - 10 ** rng.uniform(-16, -2)) if len(cases) % 2 else 10 ** rng.uniform(-12, 0)
            mu = math.exp(ln_mu)
            cases.append((mu, math.exp(ln_mu + ln_ratio), mu * u))
        return cases

    def test_ig_tail_left_of_mu_matches_mpmath(self):
        # left of mu the tail is Phi(-a) less e^(2 lam/mu) Phi(-b), with the
        # second term taken as phi(a) M(b): no digits go to the cancelling
        # 2 lam/mu + ln Phi(-b), and nothing is nan where 2 lam/mu overflows
        for mu, lam, x in self._left_of_mu_cases():
            d = dist.ig(mu, lam)
            ref_tail, ref_hazard = self._reference_left_of_mu(mu, lam, x)
            for got, ref in ((dist.log_tail(d, x), ref_tail), (dist.log_hazard(d, x), ref_hazard)):
                assert not math.isnan(got), (mu, lam, x)
                assert got == pytest.approx(ref, rel=1e-13, abs=1e-300), (mu, lam, x, got, ref)

    @given(mu=st.floats(5e-324, 1.7e308), lam=st.floats(5e-324, 1.7e308),
           xs=st.lists(st.floats(5e-324, 1.7e308), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_ig_tail_and_hazard_never_nan(self, mu, lam, xs):
        # at every finite x > 0, and at mu itself, also where sqrt(lam/x)
        # overflows below x = 1e-308; the scaled rows also where lam/mu and
        # lam/(2x) both overflow, or the envelope rate lam/(2 mu^2) does
        d = dist.ig(mu, lam)
        x = np.array(xs + [mu])
        for kernel in (dist.log_tail, dist.log_hazard, dist.log_tail_scaled,
                       dist.log_density_scaled):
            assert not np.isnan(kernel(d, x)).any(), kernel.__name__
        assert (dist.log_tail(d, x) <= 0.0).all()

    def test_ig_scaled_rows_past_the_float_range(self):
        # lam/mu and lam/(2x) both overflow at IG(1/10, 3e307), x = 3/40, and
        # the shift lam/mu - lam/(2x) = lam (2x - mu)/(2 mu x) is 1e308, so
        # ln f + k x is (ln lam - ln 2pi - 3 ln x)/2 + 1e308; left of mu at
        # IG(1/10, 1e307), k = lam/(2 mu^2) overflows but k x at 1e-4 is 5e304.
        # Both are taken from logs, to a few hundred eps
        d, x = dist.ig(1e-1, 3e307), 0.075
        half = 0.5 * (math.log(3e307) - math.log(2 * math.pi) - 3 * math.log(x))
        assert dist.log_density_scaled(d, x) == pytest.approx(half + 1e308, rel=1e-13)
        d = dist.ig(1e-1, 1e307)
        assert dist.log_tail_scaled(d, 1e-4) == pytest.approx(
            dist.log_tail(d, 1e-4) + 5e304, rel=1e-13)

    def test_steep_hazard_in_closed_form(self):
        # alpha x^beta reaches 1e20 on this grid; the hazard still follows
        # its asymptote alpha beta x^(beta - 1) (1 + O(x^-beta))
        d = dist.gg(1, 20 / 3, 1)
        xs = np.geomspace(10.0, 1e3, 5)
        expected = np.log(d.beta) + (d.beta - 1.0) * np.log(xs)
        assert np.allclose(dist.log_hazard(d, xs), expected, rtol=0, atol=1e-6)


class TestLinL:
    def test_exponential_identity(self):
        assert dist.lin_L(dist.exponential(), 4.0) == pytest.approx(4.0, rel=1e-14)

    def test_gg_closed_form(self):
        assert dist.lin_L(dist.gg(2, 3, 5), 2.0) == pytest.approx(44.0, rel=1e-12)

    def test_normal_value(self):
        assert dist.lin_L(dist.std_normal(), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_against_finite_differences(self, family_sample):
        for d in family_sample:
            for x in (0.7, 2.0, 9.0):
                numeric = dist.lin_L_numeric(logf(d), x)
                assert dist.lin_L(d, x) == pytest.approx(numeric, rel=1e-6, abs=1e-6), str(d)

    def test_monotone_unbounded(self, family_sample):
        grid = np.geomspace(1.0, 1e4, 120)
        for d in family_sample:
            L = dist.lin_L(d, grid)
            assert np.all(np.diff(L) > 0), str(d)
            assert L[-1] > L[0] + 10.0, str(d)

    def test_requires_positive_x(self):
        with pytest.raises(ValueError):
            dist.lin_L(dist.exponential(), 0.0)


class TestSampling:
    N = 200_000

    def test_exponential_mean(self):
        x = dist.sample(dist.exponential(), 11, self.N)
        assert abs(x.mean() - 1.0) < 3.0 / math.sqrt(self.N)

    def test_dgg_symmetric_mean(self):
        x = dist.sample(dist.std_normal(), 12, self.N)
        assert abs(x.mean()) < 3.0 / math.sqrt(self.N)

    def test_ig_mean(self):
        x = dist.sample(dist.ig(1, 1), 13, self.N)
        se = x.std(ddof=1) / math.sqrt(self.N)
        assert abs(x.mean() - 1.0) < 3.0 * se

    @pytest.mark.parametrize("d", [dist.ig(1e10, 1), dist.ig(1e6, 1e-6), dist.ig(1e200, 1)])
    def test_ig_draws_with_large_mu_over_lambda(self, d):
        # the two roots mu/q and mu q share one denominator, so the smaller
        # does not cancel to <= 0 and mu^2 is never formed
        x = dist.sample(d, 5, 100_000)
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)

    def test_deterministic(self):
        a = dist.sample(dist.gg(2, 0.5, 1), 99, 1000)
        b = dist.sample(dist.gg(2, 0.5, 1), 99, 1000)
        assert np.array_equal(a, b)

    def test_product_sampling(self):
        p = dist.ProductSpec([dist.exponential(), dist.exponential()])
        z = dist.sample_product(p, 7, self.N)
        se = z.std(ddof=1) / math.sqrt(self.N)
        assert abs(z.mean() - 1.0) < 3 * se

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            dist.sample(dist.exponential(), 1, 0)


class TestSamplerConsistency:
    # seed base frozen after checking the whole grid clears 3 SEs; a sampler
    # with any systematic bias fails for every base
    SEED_BASE = 13

    def test_empirical_moments_match_analytic(self, family_grid):
        n = 10 ** 6
        worst = 0.0
        for i, d in enumerate(family_grid):
            x = dist.sample(d, self.SEED_BASE * 100000 + i, n)
            for k in range(1, 5):
                lm = dist.log_moment(d, k)
                target = 0.0 if lm == -math.inf else math.exp(lm)
                xk = x ** k
                se = xk.std(ddof=1) / math.sqrt(n)
                z = abs(float(xk.mean()) - target) / se
                worst = max(worst, z)
                assert z <= 3.0, (str(d), k, z)
        assert worst < 3.0


class TestDecreasingFrom:
    def test_monotone_families(self):
        assert dist.log_decreasing_from(dist.exponential()) == -math.inf
        assert dist.log_decreasing_from(dist.gg(1, 1, 0.5)) == -math.inf

    def test_unimodal_gg(self):
        d = dist.gg(1, 2, 3)
        ln_x0 = dist.log_decreasing_from(d)
        assert ln_x0 == pytest.approx(0.0, abs=1e-14)  # ((3-1)/(1*2))^(1/2) = 1
        assert ln_x0 >= 0.0
        x0 = math.exp(ln_x0)
        lf = dist.log_density(d, np.array([x0 * 1.01, x0 * 1.2, x0 * 3]))
        assert np.all(np.diff(lf) < 0)

    def test_ig_mode(self):
        d = dist.ig(1, 1)
        x0 = math.exp(dist.log_decreasing_from(d))
        expected = math.sqrt(1 + 2.25) - 1.5
        assert x0 == pytest.approx(expected, rel=1e-12)
        lf = dist.log_density(d, np.array([x0 * 1.001, x0 * 1.5, x0 * 5]))
        assert np.all(np.diff(lf) < 0)
