"""The decision engine: moment-determinacy verdicts for single factors and
products, with every side condition certified in closed form and a rule-code
citation trail.

Every verdict follows one pattern.  Each factor has a growth exponent
(``1/beta`` for GG and DGG, 1 for IG); the exponents of a product add, and
their sum is compared with the support-class threshold, 2/step with the
class's moment step from ``distributions.MOMENT_STEP``: 2 on the half line
(Stieltjes), 1 on the real line and for mixed products.  At or below the
threshold the route's M-det rule applies; above it the route's M-indet rule
applies once its side conditions are verified.  ``RULES`` maps each route
(single factor, product, ratio of successive moments) and support class to
its two rule codes; the ratio route has no M-indet rule.  A single factor is
decided as a product of one and differs from a product only in its row.
The comparison is exact, on integers, when every shape parameter is rational;
otherwise a float sum within ``BOUNDARY_BAND`` of the threshold is inconclusive.

Rule codes ("Theorem 5", "Corollary 1", ...) are this tool's rulebook
identifiers; ``explain`` renders them together with the verified evidence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import criteria
from .criteria import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    CriterionReport,
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
    decreasing_from,
    log_hazard,  # unused here; benchmarks/test_bench_specs.py traces decision.log_hazard
    moment_threshold,
    support_class,
    tail_bound_params,
)

M_DET = "M-det"
M_INDET = "M-indet"

# float exponent sums within this distance of the threshold cannot be decided
# without exact rationals
BOUNDARY_BAND = 0.005


@dataclass(frozen=True)
class DecisionConfig:
    k_horizon: int = criteria.DEFAULT_K_HORIZON
    x0: float = 1.0


DEFAULT_CONFIG = DecisionConfig()


@dataclass(frozen=True)
class Verdict:
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
# being the envelope of ``tail_bound_params``.  With s = gamma/beta and
# z = alpha x^beta, F-bar = Gamma(s, z)/Gamma(s) (half of it for DGG) and
# x h(x) = beta z^s e^(-z)/Gamma(s, z) on x > 0.  The incomplete-gamma bounds
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
    # s is 0 only where gamma/beta underflows; Gamma(s) is then past the float range
    ln_b = (s - 1.0) * ln_alpha - (math.lgamma(s) if s > 0.0 else math.inf)
    tail_note = _NOTE_TAIL_S_GE_1
    if s < 1.0:
        # z/(z+1-s) >= 1/(1 + (1-s)/z0) for z >= z0
        ln_b -= _softplus(math.log1p(-s) - ln_z0)
        tail_note = _NOTE_TAIL_S_LT_1
    if d.family == DGG:
        ln_b += math.log(0.5)
    return ln_xc, ln_a, hazard_note, ln_b, tail_note


def _ig_certificates(d: DistributionSpec, ln_x0: float, x0: float) -> tuple:
    """(ln x0, ln A, note, ln B, note) of an IG factor from x0."""
    ln_k = math.log(d.lam) - math.log(2.0) - 2.0 * math.log(d.mu)
    damp = d.lam / (2.0 * x0)
    ln_a = ln_k + ln_x0 - damp
    ln_b = (0.5 * (math.log(d.lam) - LOG_2PI) + d.lam / d.mu - damp
            - ln_k - _softplus(math.log(1.5) - ln_x0 - ln_k))
    return ln_x0, ln_a, _NOTE_HAZARD_IG, ln_b, _NOTE_TAIL_IG


def _certify_envelope(d: DistributionSpec, index: int,
                      x0: float) -> tuple[CriterionReport, CriterionReport]:
    """Condition (ii) for one factor: the hazard bound x h(x) >= A and the
    envelope F-bar(x) >= B x^g e^(-a x^b), each with its closed-form ln A or
    ln B, its certified start and the inequality behind it.  A certificate
    that is not finite fails."""
    ln_x0 = math.log(x0)
    ln_xc, ln_a, hazard_note, ln_b, tail_note = (
        _ig_certificates(d, ln_x0, x0) if d.family == IG else _gg_certificates(d, ln_x0))
    a_t, b_t, g_t = tail_bound_params(d)
    return CriterionReport(
        criterion="hazard_bound",
        status=HOLDS if math.isfinite(ln_a) and math.isfinite(ln_xc) else FAILS,
        evidence={"factor_index": index, "factor": str(d), "ln_A": ln_a,
                  "ln_x_start": ln_xc},
        notes=(hazard_note,),
    ), CriterionReport(
        criterion="tail_bound",
        status=HOLDS if math.isfinite(ln_b) and math.isfinite(ln_x0) else FAILS,
        evidence={"factor_index": index, "factor": str(d), "ln_B": ln_b,
                  "alpha": a_t, "beta": b_t, "gamma": g_t, "ln_x_start": ln_x0},
        notes=(tail_note,),
    )


def _indet_side_conditions(factors: Sequence[DistributionSpec], support: str,
                           cfg: DecisionConfig) -> list[CriterionReport]:
    """Theorems 2, 4, 7, 10 and 11: one density eventually decreasing, of a
    real-line factor off the half line, then the hazard and tail certificates
    of every factor, all from the effective x0.

    The density of the chosen factor decreases beyond its closed-form
    ``decreasing_from``; the check fails by name only when that point or the
    effective x0 is not finite, and so then do the certificates.
    """
    candidates = [(i, d) for i, d in enumerate(factors)
                  if support == STIELTJES or d.support == HAMBURGER]
    idx, chosen = min(candidates, key=lambda t: decreasing_from(t[1]))
    dec_from = decreasing_from(chosen)
    x0_eff = max(cfg.x0, 1.0, dec_from * (1.0 + 1e-12))
    reports = [CriterionReport(
        criterion="density_decreasing",
        status=HOLDS if math.isfinite(dec_from) and math.isfinite(x0_eff) else FAILS,
        evidence={
            "factor_index": idx,
            "factor": str(chosen),
            "decreasing_from": dec_from,
            "x0_effective": x0_eff,
        },
        notes=("the density is nonincreasing beyond decreasing_from, in closed form; "
               "one decreasing density is required and the verified factor is recorded",),
    )]
    for i, d in enumerate(factors):
        reports.extend(_certify_envelope(d, i, x0_eff))
    return reports


# ---------------------------------------------------------------------------
# the decision pipeline


def _decide(p: ProductSpec, route: str, cfg: DecisionConfig) -> Verdict:
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
    scale = MOMENT_STEP[support] if route == RATIO else 1
    threshold = scale * moment_threshold(support)
    exponents = [scale * factor_exponent(d) for d in factors]
    total = math.fsum(exponents)
    exact = [exact_exponent(d) for d in factors]
    if None in exact:
        exact = None
        det = None if abs(total - threshold) <= BOUNDARY_BAND else total < threshold
    else:
        num, den = 0, 1   # the exact exponent sum num/den, in ints
        for q, p in exact:
            num, den = num * p + q * den, den * p
        det = num * MOMENT_STEP[support] <= 2 * den
        if route == RATIO:
            # exact rates are reported correctly rounded from their exact values
            exponents, total = [scale * q / p for q, p in exact], scale * num / den

    side = (criteria.ratio_rates(factors, cfg.k_horizon, criteria.PARITY[MOMENT_STEP[support]])
            if route == RATIO else [])
    caveats = [_MIXED_CAVEAT] if support == MIXED else []
    if det is None:
        rule, caveat = _BOUNDARY[route]
        conclusion = INCONCLUSIVE
        caveats.append(caveat)
    elif det:
        conclusion, rule = M_DET, "; ".join([det_rule, *_corollary_tags(factors)])
    elif indet_rule is None:
        conclusion, rule = INCONCLUSIVE, _RATIO_NOT_APPLICABLE
        caveats.append("rate sum exceeds 2; this route cannot prove indeterminacy")
    else:
        side = _indet_side_conditions(factors, support, cfg)
        failed = [r.criterion + (f"[{r.evidence['factor_index']}]"
                                 if "factor_index" in r.evidence else "")
                  for r in side if not r.holds]
        if failed:
            conclusion, rule = INCONCLUSIVE, "side conditions unverified"
            caveats.append(f"unverified: {', '.join(failed)}")
        else:
            conclusion, rule = M_INDET, "; ".join([indet_rule, *_corollary_tags(factors)])
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


def decide_single(d: DistributionSpec, cfg: DecisionConfig = DEFAULT_CONFIG) -> Verdict:
    """Verdict for one factor, decided as a product of one."""
    return decide_product(ProductSpec([d]), cfg)


def decide_product(p: ProductSpec, cfg: DecisionConfig = DEFAULT_CONFIG) -> Verdict:
    """Verdict for a product of independent factors.

    Exponent sum at or below the support-class threshold proves M-det; above
    it, the per-factor hazard and tail envelopes plus one decreasing density
    prove M-indet (Theorems 2 and 4 for a single factor).  Anything
    unverified stays inconclusive.
    """
    return _decide(p, PRODUCT, cfg)


def ratio_route(p: ProductSpec, cfg: DecisionConfig = DEFAULT_CONFIG) -> Verdict:
    """Alternative determinacy route via growth rates of successive moments.

    The closed-form rates decide: 1/beta on the half line, 2/beta in the
    even-order form on the real line (IG: 1 and 2).  A rate sum at most 2
    proves M-det; this route can never prove indeterminacy.  The estimated
    rates are recorded as evidence only.
    """
    return _decide(p, RATIO, cfg)


# ---------------------------------------------------------------------------
# rendering


# evidence keys shown by ``explain``, with their labels
_SHOWN = {"r_hat": "r_hat", "ln_A": "ln A", "ln_B": "ln B", "factor": "factor"}


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
