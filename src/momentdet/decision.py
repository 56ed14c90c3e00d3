"""The decision engine: moment-determinacy verdicts for single factors and
products, with every side condition certified in closed form and a rule-code
citation trail.

Every verdict follows one pattern.  Each factor has a growth exponent
(``1/beta`` for GG and DGG, 1 for IG); the exponents of a product add, and
their sum is compared with the support-class threshold, 2/step with the
class's moment step from ``distributions.MOMENT_STEP``: 2 on the half line
(Stieltjes), 1 on the real line and for mixed products.  At or below the
threshold the route's M-det rule applies (on the ratio route once every
factor's rate certificate is finite); above it the route's M-indet rule
applies once its side conditions are verified.  ``RULES`` maps each route
(single factor, product, ratio of successive moments) and support class to
its two rule codes; the ratio route has no M-indet rule.  A single factor is
decided as a product of one and differs from a product only in its row.
The comparison is exact, on integers, when every shape parameter is rational;
otherwise a float sum within ``BOUNDARY_BAND`` of the threshold is inconclusive.

Rule codes ("Theorem 5", "Corollary 1", ...) are this tool's rulebook
identifiers; ``explain`` renders them together with the verified evidence.

The same exponent sum, compared the same way, and the ratio certificates
answer ``momentdet criterion`` on a spec in closed form (``spec_criterion``).
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence

from .criteria import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    KREIN_THEOREM_NOTE,
    PARITY,
    CriterionReport,
    condition_L_check,
)
from .distributions import (
    DGG,
    GG,
    HAMBURGER,
    IG,
    MIXED,
    MOMENT_STEP,
    STIELTJES,
    LOG_2PI,
    DistributionSpec,
    ProductSpec,
    log_decreasing_from,
    log_hazard,  # unused here; benchmarks/test_bench_specs.py traces decision.log_hazard
    support_class,
    tail_envelope,
)

M_DET = "M-det"
M_INDET = "M-indet"

# float exponent sums within this distance of the threshold cannot be decided
# without exact rationals
BOUNDARY_BAND = 0.005


class Verdict(NamedTuple):
    conclusion: str
    rule: str
    side_conditions: tuple[CriterionReport, ...]
    factor_exponents: tuple[float, ...]
    exponent_sum: float
    threshold: float
    exact: bool
    support: str
    caveats: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "rule": self.rule,
            "support_class": self.support,
            "exponent_sum": self.exponent_sum,
            "threshold": self.threshold,
            "exact_boundary_arithmetic": self.exact,
            "factor_exponents": list(self.factor_exponents),
            "side_conditions": [r.to_dict() for r in self.side_conditions],
            "caveats": list(self.caveats),
        }


# ---------------------------------------------------------------------------
# factor exponents and the threshold comparison


def factor_exponent(d: DistributionSpec) -> float:
    """The a_i in m_(i,k) = O(k^(a_i k)): 1/beta for GG and DGG, 1 for IG."""
    if d.family == IG:
        return 1.0
    return 1.0 / d.beta


def exact_exponent(d: DistributionSpec) -> Optional[tuple[int, int]]:
    """The exponent q/p of beta = p/q as the ints (q, p), (1, 1) for IG; else None."""
    if d.family == IG:
        return 1, 1
    b = d.beta_exact
    return None if b is None else (b.denominator, b.numerator)


def _exact_sum(factors: Sequence[DistributionSpec]) -> Optional[tuple[int, int]]:
    """The exponent sum as the ints (num, den) when every exponent is exact; else None."""
    num, den = 0, 1
    for d in factors:
        exact = exact_exponent(d)
        if exact is None:
            return None
        q, p = exact
        num, den = num * p + q * den, den * p
    return num, den


def _at_most(total: float, exact: Optional[tuple[int, int]], limit: int) -> Optional[bool]:
    """Whether an exponent sum is at most the int ``limit``: exactly, in ints,
    from its exact form num/den; else from its float total, None within
    BOUNDARY_BAND of the limit."""
    if exact is None:
        return None if abs(total - limit) <= BOUNDARY_BAND else total < limit
    num, den = exact
    return num <= limit * den


# ---------------------------------------------------------------------------
# rule table


SINGLE, PRODUCT, RATIO = "single", "product", "ratio"

_MIXED_DET = "Theorems 8-9 analogue (mixed case)"

# route -> support class -> (M-det rule, M-indet rule); a None M-indet rule
# means the route cannot prove indeterminacy
RULES = {
    SINGLE: {STIELTJES: ("Theorem 1", "Theorem 2"),
             HAMBURGER: ("Theorem 3", "Theorem 4")},
    PRODUCT: {STIELTJES: ("Theorem 5", "Theorem 7"),
              HAMBURGER: ("Theorem 8", "Theorem 10"),
              MIXED: (_MIXED_DET, "Theorem 11")},
    RATIO: {STIELTJES: ("Theorem 6", None),
            HAMBURGER: ("Theorem 9", None),
            MIXED: (_MIXED_DET, None)},
}

_RATIO_NOT_APPLICABLE = "ratio route not applicable"

# route -> (rule, caveat) for a float sum inside the boundary band
_BOUNDARY = {
    SINGLE: ("boundary", "exponent within the boundary band of the threshold and no "
                         "exact rational shape parameter was given"),
    PRODUCT: ("boundary", "exponent sum within the boundary band of the threshold and "
                          "not all shape parameters were given as exact rationals"),
    RATIO: (_RATIO_NOT_APPLICABLE,
            "rate sum within the tolerance band of 2 without exact rates"),
}

def _corollary_tags(factors: Sequence[DistributionSpec]) -> list[str]:
    fams = [d.family for d in factors]
    tags = []
    if all(f == GG for f in fams):
        tags.append("Corollary 1")
    elif all(f == DGG for f in fams):
        tags.append("Corollary 3")
    n_ig = fams.count(IG)
    n_exp = sum(1 for d in factors if d.family == GG and d.beta == 1.0 and d.gamma == 1.0)
    if n_ig >= 1 and n_ig + n_exp == len(factors) and n_ig <= 2 and n_exp <= 1 \
            and len(factors) >= 2:
        tags.append("Corollary 2")
    if len(factors) == 2 and DGG in fams:
        other = factors[0] if fams[1] == DGG else factors[1]
        normal_like = next(d for d in factors if d.family == DGG)
        if normal_like.beta == 2.0 and normal_like.gamma == 1.0:
            if other.family == GG and other.beta == 1.0:
                tags.append("Corollary 4" if other.gamma == 1.0 else "Corollary 5")
            elif other.family == IG:
                tags.append("Corollary 5")
    return tags


_MIXED_CAVEAT = (
    "mixed-support products use the real-line threshold by analogy with the "
    "even-moment composition argument; the determinate direction is an "
    "analogue rule, not a stated theorem"
)


# ---------------------------------------------------------------------------
# side-condition certificates for the indeterminacy theorems
#
# Each factor gets closed-form constants A and B with x h(x) >= A and
# F-bar(x) >= B x^g e^(-a x^b) for every x from a certified start, (a, b, g)
# being the envelope of ``tail_envelope``, the rate a given by its log,
# finite where a under- or overflows.  With s = gamma/beta and z = alpha x^beta,
# F-bar = Gamma(s, z)/Gamma(s) (half of it for DGG) and x h(x) = beta z^s
# e^(-z)/Gamma(s, z) on x > 0.  The incomplete-gamma bounds
# are those of Gautschi, J. Math. Phys. 38 (1959), and Natalini & Palumbo,
# Math. Inequal. Appl. 3 (2000).  Everything is taken in log space, so
# alpha x^beta is never formed.

_NOTE_HAZARD_S_LE_1 = ("Gamma(s,z) <= z^(s-1) e^-z for s <= 1, "
                       "so x h(x) >= beta z, increasing in x")
_NOTE_HAZARD_S_GT_1 = ("Gamma(s,z) <= z^(s-1) e^-z z/(z-s+1) for s > 1, z > s-1, "
                       "so x h(x) >= beta (z-s+1), increasing in x; the start has z >= s")
_NOTE_TAIL_S_GE_1 = "Gamma(s,z) >= z^(s-1) e^-z for s >= 1"
_NOTE_TAIL_S_LT_1 = "Gamma(s,z) >= z^s e^-z/(z+1-s) for s < 1, increasing in z"
_NOTE_HAZARD_IG = ("F-bar(x) <= sqrt(lam/2pi) e^(lam/mu) x^(-3/2) e^(-kx)/k and "
                   "f(x) >= sqrt(lam/2pi) e^(lam/mu) x^(-3/2) e^(-kx) e^(-lam/(2 x0)), "
                   "k = lam/(2 mu^2), so x h(x) >= k x0 e^(-lam/(2 x0))")
_NOTE_TAIL_IG = ("int_x^inf y^(-3/2) e^(-ky) dy >= x^(-3/2) e^(-kx)/(k + 3/(2x)) and "
                 "e^(-lam/(2y)) >= e^(-lam/(2 x0)) for y >= x >= x0")
_NOTE_TAIL_IG_CLAMPED = _NOTE_TAIL_IG + "; ln B overflows: the largest float, a smaller B, is given"


def _softplus(t: float) -> float:
    """ln(1 + e^t) without overflow."""
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _gg_certificates(d: DistributionSpec, ln_x0: float) -> tuple:
    """(ln x_c, ln A, note, ln B, note) of a GG or DGG factor from x0."""
    s = d.gamma / d.beta
    ln_alpha, ln_beta = math.log(d.alpha), math.log(d.beta)
    ln_z0 = ln_alpha + d.beta * ln_x0
    if s <= 1.0:
        ln_xc, ln_a, hazard_note = ln_x0, ln_beta + ln_z0, _NOTE_HAZARD_S_LE_1
    else:
        # from where z >= s on, z - s + 1 >= 1, so A >= beta
        ln_s = math.log(s)
        ln_zc = max(ln_z0, ln_s)
        ln_xc = (ln_zc - ln_alpha) / d.beta if ln_zc > ln_z0 else ln_x0
        u = ln_zc - ln_s
        ln_gap = (math.log1p(s * math.expm1(u)) if u < 1.0
                  else ln_zc + math.log1p(-(s - 1.0) * math.exp(-ln_zc)))
        ln_a, hazard_note = ln_beta + ln_gap, _NOTE_HAZARD_S_GT_1
    # ln Gamma(s) is past the float range where gamma/beta underflows to 0 or
    # lies above 2.5e305; ln B is then not finite, or nan, and the check fails
    ln_b = (s - 1.0) * ln_alpha - (math.lgamma(s) if 0.0 < s < 2.5e305 else math.inf)
    tail_note = _NOTE_TAIL_S_GE_1
    if s < 1.0:
        # z/(z+1-s) >= 1/(1 + (1-s)/z0) for z >= z0
        ln_b -= _softplus(math.log1p(-s) - ln_z0)
        tail_note = _NOTE_TAIL_S_LT_1
    if d.family == DGG:
        ln_b += math.log(0.5)
    return ln_xc, ln_a, hazard_note, ln_b, tail_note


def _ig_certificates(d: DistributionSpec, ln_x0: float) -> tuple:
    """(ln x0, ln A, note, ln B, note) of an IG factor from x0 = e^ln_x0."""
    ln_lam = math.log(d.lam)
    ln_k = tail_envelope(d)[0]
    damp = math.exp(ln_lam - math.log(2.0) - ln_x0)    # lam/(2 x0), finite for x0 >= 1
    ln_a = ln_k + ln_x0 - damp
    ln_b = (0.5 * (ln_lam - LOG_2PI) + d.lam / d.mu - damp
            - ln_k - _softplus(math.log(1.5) - ln_x0 - ln_k))
    if ln_b == math.inf:                                # lam/mu overflows
        return ln_x0, ln_a, _NOTE_HAZARD_IG, sys.float_info.max, _NOTE_TAIL_IG_CLAMPED
    return ln_x0, ln_a, _NOTE_HAZARD_IG, ln_b, _NOTE_TAIL_IG


def _certify_envelope(d: DistributionSpec, index: int,
                      ln_x0: float) -> tuple[CriterionReport, CriterionReport]:
    """Condition (ii) for one factor from x0 = e^ln_x0: the hazard bound
    x h(x) >= A and the envelope F-bar(x) >= B x^g e^(-a x^b), each with its
    closed-form ln A or ln B, its certified start and the inequality behind
    it.  A certificate that is not finite fails."""
    ln_xc, ln_a, hazard_note, ln_b, tail_note = (
        _ig_certificates(d, ln_x0) if d.family == IG else _gg_certificates(d, ln_x0))
    ln_rate, b_t, g_t = tail_envelope(d)
    return CriterionReport(
        criterion="hazard_bound",
        status=HOLDS if math.isfinite(ln_a) and math.isfinite(ln_xc) else FAILS,
        evidence={"factor_index": index, "factor": str(d), "ln_A": ln_a, "ln_x_start": ln_xc},
        notes=(hazard_note,),
    ), CriterionReport(
        criterion="tail_bound",
        status=HOLDS if math.isfinite(ln_b) and math.isfinite(ln_x0) else FAILS,
        evidence={"factor_index": index, "factor": str(d), "ln_B": ln_b,
                  "ln_alpha": ln_rate, "beta": b_t, "gamma": g_t, "ln_x_start": ln_x0},
        notes=(tail_note,),
    )


def _indet_side_conditions(factors: Sequence[DistributionSpec],
                           support: str) -> list[CriterionReport]:
    """Theorems 2, 4, 7, 10 and 11: one density eventually decreasing, of a
    real-line factor off the half line, then the hazard and tail certificates
    of every factor, all from one start x0.

    The theorems only ask for some x0; it is worked out, not chosen: ln x0 is
    the larger of 0 and the chosen density's closed-form
    ``log_decreasing_from``.  The check fails by name only when that start is
    not finite, and so then do the certificates.
    """
    ln_dec, idx = min((log_decreasing_from(d), i) for i, d in enumerate(factors)
                      if support == STIELTJES or d.support == HAMBURGER)
    ln_x0 = max(0.0, ln_dec)
    reports = [CriterionReport(
        criterion="density_decreasing",
        status=HOLDS if math.isfinite(ln_x0) else FAILS,
        evidence={"factor_index": idx, "factor": str(factors[idx]),
                  "ln_decreasing_from": ln_dec, "ln_x0_effective": ln_x0},
        notes=("the density is nonincreasing beyond e^ln_decreasing_from, its closed-form "
               "mode raised by a bound on its rounding; one decreasing density is required "
               "and the verified factor is recorded",),
    )]
    for i, d in enumerate(factors):
        reports.extend(_certify_envelope(d, i, ln_x0))
    return reports


# ---------------------------------------------------------------------------
# rate certificates of the ratio route
#
# With the moment step s, every factor gets closed-form constants with
#   r ln(j+1) + ln C_lower <= ln(m_((j+1)s) / m_(js)) <= r ln(j+1) + ln C_upper
# for every j >= 1, r being its rate s/beta (IG: s), again in log space.

_NOTE_RATIO_GG = ("ln(m_(k+s)/m_k) = -r ln alpha + h psi(y) for some y in (x, x+h), "
                  "x = (gamma+k)/beta, h = r = s/beta, k = js; ln y - 1/y < psi(y) < ln y "
                  "(Alzer, Math. Comp. 66 (1997)), x+h <= (j+1)(s+gamma/2)/beta, "
                  "x >= (j+1)s/(2 beta), 1/x <= beta/(gamma+s)")
_NOTE_RATIO_IG = ("r_(k+1) = m_(k+1)/m_k = (2k-1) mu^2/lam + mu^2/r_k, r_1 = mu, so "
                  "(2k-1) mu^2/lam <= r_(k+1) <= (2k-1) mu^2/lam + lam/(2k-3) for k >= 2, and "
                  "(k+1) mu^2/(2 lam) <= r_(k+1) <= (k+1)(2 mu^2/lam + lam/3) for k >= 1 "
                  "(r_2 = mu + mu^2/lam by AM-GM); the even step r_(2j+2) r_(2j+1) with "
                  "2(j+1)^2 <= (2j+2)(2j+1) <= 4(j+1)^2")


def _certify_rate(d: DistributionSpec, index: int, step: int, rate: float) -> CriterionReport:
    """The two-sided bound of a factor's successive-moment ratio at the step,
    at its exact rate; a constant that is not finite fails."""
    ln2 = math.log(2.0)
    if d.family == IG:
        ln_lam = math.log(d.lam)
        ln_q = 2.0 * math.log(d.mu) - ln_lam       # ln(mu^2/lam), mu^2 never formed
        up = ln2 + ln_q + _softplus(ln_lam - math.log(3.0) - ln2 - ln_q)
        lo = ln_q - ln2
        if step == 2:
            up, lo = 2.0 * (up + ln2), 2.0 * lo + ln2
        note = _NOTE_RATIO_IG
    else:
        ln_base = math.log(step) - math.log(d.beta) - math.log(d.alpha)
        up = rate * (ln_base + math.log1p(d.gamma / (2 * step)))
        lo = rate * (ln_base - ln2 - d.beta / (d.gamma + step))
        note = _NOTE_RATIO_GG
    return CriterionReport(
        criterion="ratio",
        status=HOLDS if math.isfinite(up) and math.isfinite(lo) else FAILS,
        evidence={"factor_index": index, "factor": str(d), "rate": rate,
                  "ln_C_upper": up, "ln_C_lower": lo, "j_from": 1, "parity": PARITY[step]},
        notes=(note,),
    )


# ---------------------------------------------------------------------------
# the decision pipeline


def _decide(p: ProductSpec, route: str) -> Verdict:
    """Compare the exponent sum with the threshold, then cite the route's
    rule from RULES: the M-det rule at or below it, the M-indet rule above it
    once the side conditions hold.  A product of one takes the SINGLE row."""
    factors = p.factors
    if route == PRODUCT and len(factors) == 1:
        route = SINGLE
    support = support_class(p)
    det_rule, indet_rule = RULES[route][support]
    # the ratio route takes the rates step/beta of its class's moment step,
    # against step times the threshold, which is 2
    step = MOMENT_STEP[support]
    scale = step if route == RATIO else 1
    limit = scale * 2 // step
    threshold = float(limit)
    exponents = [scale * factor_exponent(d) for d in factors]
    total = math.fsum(exponents)
    exact = _exact_sum(factors)
    if exact is None:
        det = _at_most(total, None, limit)
    else:
        num, den = exact
        det = _at_most(total, (scale * num, den), limit)
        if route == RATIO:
            # exact rates are reported correctly rounded from their exact values
            exponents = [scale * q / p for q, p in map(exact_exponent, factors)]
            total = scale * num / den

    side = ([_certify_rate(d, i, step, r) for i, (d, r) in enumerate(zip(factors, exponents))]
            if route == RATIO else [])
    caveats = [_MIXED_CAVEAT] if support == MIXED else []
    if det is None:
        rule, caveat = _BOUNDARY[route]
        conclusion = INCONCLUSIVE
        caveats.append(caveat)
    elif not det and indet_rule is None:
        conclusion, rule = INCONCLUSIVE, _RATIO_NOT_APPLICABLE
        caveats.append("rate sum exceeds 2; this route cannot prove indeterminacy")
    else:
        if not det:
            side = _indet_side_conditions(factors, support)
        failed = [f"{r.criterion}[{r.evidence['factor_index']}]" for r in side if not r.holds]
        if failed:
            conclusion, rule = INCONCLUSIVE, "side conditions unverified"
            caveats.append(f"unverified: {', '.join(failed)}")
        else:
            conclusion, rule = (M_DET, det_rule) if det else (M_INDET, indet_rule)
            rule = "; ".join([rule, *_corollary_tags(factors)])
    return Verdict(
        conclusion=conclusion,
        rule=rule,
        side_conditions=tuple(side),
        factor_exponents=tuple(exponents),
        exponent_sum=total,
        threshold=threshold,
        exact=exact is not None,
        support=support,
        caveats=tuple(caveats),
    )


def decide_single(d: DistributionSpec) -> Verdict:
    """Verdict for one factor, decided as a product of one."""
    return decide_product(ProductSpec([d]))


def decide_product(p: ProductSpec) -> Verdict:
    """Verdict for a product of independent factors.

    Exponent sum at or below the support-class threshold proves M-det; above
    it, the per-factor hazard and tail envelopes plus one decreasing density
    prove M-indet (Theorems 2 and 4 for a single factor).  Anything
    unverified stays inconclusive.
    """
    return _decide(p, PRODUCT)


def ratio_route(p: ProductSpec) -> Verdict:
    """Alternative determinacy route via growth rates of successive moments.

    The closed-form rates decide: 1/beta on the half line, 2/beta in the
    even-order form on the real line (IG: 1 and 2).  A rate sum at most 2
    proves M-det once every factor's two-sided ratio certificate is finite;
    this route can never prove indeterminacy.
    """
    return _decide(p, RATIO)


# ---------------------------------------------------------------------------
# the criteria of ``momentdet criterion`` on a spec, in closed form
#
# The ratio certificates telescope.  With the moment step s of the product's
# class, its rate r = s S and the sums c_lo and c_up of its factors' ratio
# constants, ln m_(js) lies within ln m_s + r ln j! + (j-1) c_lo and
# ln m_s + r ln j! + (j-1) c_up for every j >= 1, and so within
#     r ln j! + j ln M_lower   and   r ln j! + j ln M_upper,
# with ln M_lower = min(c_lo, ln m_s) and ln M_upper = max(c_up, ln m_s).
# These two constants and the exponent sum S give each criterion:
# - growth: ln m_k = S k ln k + O(k), as ln j! = j ln j - j + O(ln j);
# - Hardy (s = 1): for S <= 2, m_k <= M_upper^k (k!)^2 <= (M_upper/2)^k (2k)!,
#   as (2k)! >= 2^k (k!)^2; for S > 2, m_k / (2k)! >= (M_lower/4)^k (k!)^(S-2)
#   outgrows c0^k for every c0, as (2k)! <= 4^k (k!)^2;
# - Cramer: for S <= 1, m_2k <= (M_upper/2)^k (2k)! when s = 2 (r <= 2) and
#   m_2k <= M_upper^(2k) (2k)! when s = 1 (r <= 1); for S > 1 the lower
#   bounds outgrow c0^k (2k)! in the same way;
# - Carleman: the term m_(js)^(-1/(2j)) lies within M_upper^(-1/2) (j!)^(-r/(2j))
#   and M_lower^(-1/2) (j!)^(-r/(2j)), and j/e <= (j!)^(1/j) <= j, so the sum
#   diverges iff r <= 2, that is S <= 2/s.
# No polynomial factor is left over at S = 2 or S = 1: (2k)!/(k!)^2 >= 2^k
# takes the sqrt(pi k) of Stirling's formula into c0^k, and
# (j-1) c + ln m_s <= j max(c, ln m_s) takes the first moment into M^j.
# The status is decided from S as ``_decide`` decides, and needs the
# constants it rests on to be finite.

# Every constant here is rounded outward by one rule: by _ROUNDING times the
# sum of the magnitudes of the terms it is made of, plus 1.  The 1 covers
# math.lgamma, whose error near its zeros at 1 and 2 is absolute (up to about
# 6 eps against 50-digit values).
_ROUNDING = 16.0 * sys.float_info.epsilon
# below the minimum of ln Gamma on x > 0, -0.1214862905358496...
_LGAMMA_MIN = -0.1214862906

_NOTE_MOMENTS = ("ln m_(js) lies within r ln j! + j ln M_lower and r ln j! + j ln M_upper "
                 "for every j >= 1, s being the moment step: the ratio certificates summed "
                 "from ln m_s, ln M_lower = min(c_lo, ln m_s), ln M_upper = max(c_up, ln m_s)")
_NOTE_GROWTH = ("so ln m_k = a k ln k + O(k) with a = r/s, as j ln j - j < ln j! <= "
                "j ln j - j + ln(2 pi j)/2 + 1/(12 j) (Robbins, Amer. Math. Monthly 62 (1955))")
_NOTE_RATIO = ("r ln(j+1) + ln C_lower <= ln(m_((j+1)s)/m_(js)) <= r ln(j+1) + ln C_upper "
               "for every j >= 1: the factors' ratio certificates summed")
_NOTE_HARDY = ("S <= 2: m_k <= M_upper^k (k!)^2 <= c0^k (2k)!, c0 = M_upper/2, as "
               "(2k)! >= 2^k (k!)^2; S > 2: m_k/(2k)! >= (M_lower/4)^k (k!)^(S-2) "
               "outgrows c0^k for every c0")
_NOTE_CRAMER = ("S <= 1: m_2k <= c0^k (2k)!, c0 = M_upper/2 on the even orders (r <= 2, "
                "(2k)! >= 2^k (k!)^2) and M_upper^2 on all orders (r <= 1); S > 1: the "
                "lower bounds outgrow c0^k (2k)! for every c0")
_NOTE_CARLEMAN = ("the term m_(js)^(-1/(2j)) lies within M_upper^(-1/2) (j!)^(-r/(2j)) and "
                  "M_lower^(-1/2) (j!)^(-r/(2j)), with j/e <= (j!)^(1/j) <= j: the sum "
                  "diverges iff r <= 2")
_NOTE_CARLEMAN_NECESSARY = ("a finite Carleman sum is only necessary for indeterminacy; no "
                            "M-indet conclusion can be drawn from this criterion alone")
_NOTE_NOT_FINITE = "a constant is not finite, so the bound it carries is not certified"
_NOTE_KREIN_FORMS = ("-ln f(x^2) = alpha x^(2 beta) - 2(gamma-1) ln x - ln c for GG and "
                     "-ln f(x) = alpha |x|^beta - (gamma-1) ln|x| - ln c for DGG on the line, "
                     "so the integral is finite iff beta < 1/2 (GG) or beta < 1 (DGG); for IG, "
                     "-ln f(x^2) grows like lam x^2/(2 mu^2) and it is infinite")


def _outward(value: float, size: float) -> tuple[float, float]:
    """value moved down and up by the shared rounding rule, for terms of total magnitude size."""
    pad = _ROUNDING * (size + 1.0)
    return value - pad, value + pad


def _fsum(values) -> float:
    """math.fsum, nan where the sum passes the float range or meets inf - inf."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _outward_sum(values: list[float], side: int) -> float:
    """The sum of values, moved down (side 0) or up (side 1) by the shared rule."""
    return _outward(_fsum(values), _fsum(map(abs, values)))[side]


def _log_first_moment(d: DistributionSpec, step: int) -> tuple[float, float]:
    """Lower and upper bounds of ln m_step of a factor, rounded outward."""
    if d.family == IG:
        ln_mu = math.log(d.mu)
        if step == 1:
            return _outward(ln_mu, abs(ln_mu))
        ln_lam = math.log(d.lam)
        lift = _softplus(ln_mu - ln_lam)            # m_2 = mu^2 (1 + mu/lam)
        return _outward(2.0 * ln_mu + lift, 2.0 * abs(ln_mu) + abs(ln_lam) + lift)
    # -h ln alpha + ln Gamma(x + h) - ln Gamma(x), x = gamma/beta, h = step/beta
    h, x = step / d.beta, d.gamma / d.beta
    t = -h * math.log(d.alpha)
    if 0.0 < x and x + h < 2.5e305:
        g1, g0 = math.lgamma(x + h), math.lgamma(x)
        return _outward(t + g1 - g0, abs(t) + abs(g1) + abs(g0))
    # past the range of math.lgamma: h psi(y) for some y in (x, x + h), with
    # ln y - 1/y < psi(y) < ln y (Alzer); for x <= 1, where 1/x may overflow,
    # ln Gamma(x) <= -ln x (Gamma(1 + x) <= 1) and ln Gamma >= _LGAMMA_MIN instead
    ln_beta, ln_gamma, ln_top = math.log(d.beta), math.log(d.gamma), math.log(d.gamma + step)
    hi = t + h * (ln_top - ln_beta)
    size = abs(t) + h * (abs(ln_top) + abs(ln_beta))
    if x <= 1.0:
        lo = t + _LGAMMA_MIN + ln_gamma - ln_beta
        size_lo = abs(t) + 1.0 + abs(ln_gamma) + abs(ln_beta)
    else:
        lo = t + h * (ln_gamma - ln_beta - d.beta / d.gamma)
        size_lo = abs(t) + h * (abs(ln_gamma) + abs(ln_beta) + d.beta / d.gamma)
    return _outward(lo, size_lo)[0], _outward(hi, size)[1]


class _MomentBounds(NamedTuple):
    """The closed-form moment constants of a product: its moment step s,
    exponent sum S (exact as (num, den) or None), rate r = s S, summed ratio
    constants c_lo and c_up, and moment constants ln M_lower and ln M_upper,
    all rounded outward."""

    step: int
    total: float
    exact: Optional[tuple[int, int]]
    rate: float
    c_lo: float
    c_up: float
    ln_m_lower: float
    ln_m_upper: float

    @property
    def finite(self) -> bool:
        return all(map(math.isfinite, (self.rate, self.c_lo, self.c_up,
                                       self.ln_m_lower, self.ln_m_upper)))

    def against(self, limit: int) -> tuple[Optional[bool], str, tuple[str, ...]]:
        """Whether S <= limit, decided as ``_decide`` decides, the status of a
        criterion that holds iff it is, and the note of an inconclusive one."""
        at_most = _at_most(self.total, self.exact, limit)
        if at_most is None:
            return at_most, INCONCLUSIVE, (_BOUNDARY[PRODUCT][1],)
        if not self.finite:
            return at_most, INCONCLUSIVE, (_NOTE_NOT_FINITE,)
        return at_most, HOLDS if at_most else FAILS, ()

    def evidence(self, limit: Optional[int] = None) -> dict:
        out = {"rate": self.rate, "ln_M_lower": self.ln_m_lower, "ln_M_upper": self.ln_m_upper,
               "j_from": 1, "parity": PARITY[self.step]}
        if limit is not None:
            out.update(exponent_sum=self.total, threshold=float(limit),
                       exact_boundary_arithmetic=self.exact is not None)
        return out


def _unless_nan(pick, a: float, b: float) -> float:
    return math.nan if math.isnan(a) or math.isnan(b) else pick(a, b)


def _moment_bounds(p: ProductSpec) -> _MomentBounds:
    support = support_class(p)
    step = MOMENT_STEP[support]
    exponents = [factor_exponent(d) for d in p.factors]
    total = math.fsum(exponents)
    rates = [_certify_rate(d, i, step, step * a).evidence
             for i, (d, a) in enumerate(zip(p.factors, exponents))]
    c_lo = _outward_sum([c["ln_C_lower"] for c in rates], 0)
    c_up = _outward_sum([c["ln_C_upper"] for c in rates], 1)
    firsts = [_log_first_moment(d, step) for d in p.factors]
    m_lo = _outward_sum([lo for lo, _ in firsts], 0)
    m_up = _outward_sum([up for _, up in firsts], 1)
    return _MomentBounds(step, total, _exact_sum(p.factors), step * total, c_lo, c_up,
                         _unless_nan(min, c_lo, m_lo), _unless_nan(max, c_up, m_up))


def _growth(p: ProductSpec) -> CriterionReport:
    b = _moment_bounds(p)
    return CriterionReport("growth", HOLDS if b.finite else INCONCLUSIVE,
                           {"a": b.total, **b.evidence()},
                           (_NOTE_MOMENTS, _NOTE_GROWTH) + (() if b.finite else (_NOTE_NOT_FINITE,)))


def _ratio(p: ProductSpec) -> CriterionReport:
    b = _moment_bounds(p)
    ok = all(map(math.isfinite, (b.rate, b.c_lo, b.c_up)))
    return CriterionReport("ratio", HOLDS if ok else INCONCLUSIVE,
                           {"r": b.rate, "ln_C_lower": b.c_lo, "ln_C_upper": b.c_up,
                            "j_from": 1, "parity": PARITY[b.step]},
                           (_NOTE_RATIO,) + (() if ok else (_NOTE_NOT_FINITE,)))


def _bound(name: str, p: ProductSpec, limit: int, note: str, ln_c0_of) -> CriterionReport:
    """Hardy's or Cramer's bound c0^k (2k)!, which holds iff S <= limit,
    with ln c0 = ln_c0_of(bounds) rounded up where it holds."""
    b = _moment_bounds(p)
    _, status, caveat = b.against(limit)
    ln_c0 = c0 = None
    if status == HOLDS:
        ln_c0 = _outward(ln_c0_of(b), 2.0 * abs(b.ln_m_upper) + 1.0)[1]
        try:
            c0 = math.nextafter(math.exp(ln_c0), math.inf)   # rounded up, as ln c0 is
        except OverflowError:
            c0 = math.inf
    return CriterionReport(name, status, {**b.evidence(limit), "ln_c0": ln_c0, "c0": c0},
                           (_NOTE_MOMENTS, note, *caveat))


def _hardy(p: ProductSpec) -> CriterionReport:
    if support_class(p) != STIELTJES:
        raise ValueError("the hardy criterion needs a half-line product, whose moments of "
                         "every order are its sequence; on the real line use cramer")
    return _bound("hardy", p, 2, _NOTE_HARDY, lambda b: b.ln_m_upper - math.log(2.0))


def _cramer(p: ProductSpec) -> CriterionReport:
    return _bound("cramer", p, 1, _NOTE_CRAMER, lambda b: (
        b.ln_m_upper - math.log(2.0) if b.step == 2 else 2.0 * b.ln_m_upper))


def _carleman(p: ProductSpec) -> CriterionReport:
    b = _moment_bounds(p)
    limit = 2 // b.step
    at_most, status, caveat = b.against(limit)
    classification = "boundary" if at_most is None else {
        HOLDS: "divergent", FAILS: "convergent"}.get(status, "unclassified")
    return CriterionReport("carleman", status,
                           {**b.evidence(limit), "case": STIELTJES if b.step == 1 else HAMBURGER,
                            "classification": classification},
                           (_NOTE_MOMENTS, _NOTE_CARLEMAN, *caveat, _NOTE_CARLEMAN_NECESSARY))


def krein_closed_form(d: DistributionSpec) -> CriterionReport:
    """Krein's logarithmic integral of a factor's density, classified in
    closed form: finite iff beta < 1/2 for GG and beta < 1 for DGG, compared
    with the exact beta when it is given; never finite for IG.  Status
    ``holds`` means finite, which proves indeterminacy."""
    if d.family == IG:
        finite, edge = False, None
    else:
        # beta < 1/2 as 2 beta < 1: exact for a Fraction and for a float
        scale = 2 if d.family == GG else 1
        finite = scale * (d.beta if d.beta_exact is None else d.beta_exact) < 1
        edge = 1.0 / scale
    return CriterionReport(
        criterion="krein",
        status=HOLDS if finite else FAILS,
        evidence={"classification": "finite" if finite else "infinite", "case": d.support,
                  "family": d.family, "beta": None if edge is None else d.beta, "edge": edge,
                  "exact_boundary_arithmetic": d.family == IG or d.beta_exact is not None},
        notes=(_NOTE_KREIN_FORMS, KREIN_THEOREM_NOTE),
    )


def _single_factor(name: str, check):
    def run(p: ProductSpec) -> CriterionReport:
        if len(p.factors) != 1:
            raise ValueError(f"the {name} criterion needs a single-factor spec "
                             "(no closed-form product density)")
        return check(p.factors[0])
    return run


# criterion name -> its closed form on a product spec, in the CLI's order
SPEC_CRITERIA = {"growth": _growth, "ratio": _ratio, "hardy": _hardy, "cramer": _cramer,
                 "carleman": _carleman, "krein": _single_factor("krein", krein_closed_form),
                 "lin": _single_factor("lin", condition_L_check)}


def spec_criterion(p: ProductSpec, name: str) -> CriterionReport:
    """The named criterion on a product spec, from the closed forms above
    and ``criteria.condition_L_check``, with math calls only: no moment
    sequence is fitted and no integral is taken.  Krein and Lin need a
    single factor; Hardy a half-line product."""
    return SPEC_CRITERIA[name](p)


# ---------------------------------------------------------------------------
# rendering


# evidence keys shown by ``explain``, with their labels
_SHOWN = {"rate": "r", "ln_C_upper": "ln C_upper", "ln_C_lower": "ln C_lower",
          "ln_A": "ln A", "ln_B": "ln B", "factor": "factor"}


def explain(v: Verdict) -> str:
    """Deterministic human-readable trail for a verdict."""
    lines = [
        f"conclusion: {v.conclusion}",
        f"rule: {v.rule}",
        f"support class: {v.support}",
        f"exponent sum: {v.exponent_sum:.6g} vs threshold {v.threshold:g}"
        + (" (exact rational arithmetic)" if v.exact else ""),
        "factor exponents: " + ", ".join(f"{a:.6g}" for a in v.factor_exponents),
    ]
    if v.side_conditions:
        lines.append("side conditions:")
        for r in v.side_conditions:
            shown = [(_SHOWN[key], val) for key, val in r.evidence.items() if key in _SHOWN]
            detail = ", ".join(
                f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}"
                for key, val in shown)
            lines.append(f"  - {r.criterion}: {r.status}" + (f" ({detail})" if detail else ""))
    for c in v.caveats:
        lines.append(f"caveat: {c}")
    return "\n".join(lines)
