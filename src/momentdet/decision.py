"""The decision engine: moment-determinacy verdicts for single factors and
products, with every side condition verified numerically and a rule-code
citation trail.

Every verdict follows one pattern.  Each factor has a growth exponent
(``1/beta`` for GG and DGG, 1 for IG); the exponents of a product add, and
their sum is compared with the support-class threshold: 2 on the half line
(Stieltjes), 1 on the real line and for mixed products.  At or below the
threshold the route's M-det rule applies; above it the route's M-indet rule
applies once its side conditions are verified.  ``RULES`` maps each route
(single factor, product, ratio of successive moments) and support class to
its two rule codes; the ratio route has no M-indet rule.  A single factor is
decided as a product of one and differs from a product only in its row.
The comparison is exact when every shape parameter is rational; otherwise a
float sum within ``BOUNDARY_BAND`` of the threshold is inconclusive.

Rule codes ("Theorem 5", "Corollary 1", ...) are this tool's rulebook
identifiers; ``explain`` renders them together with the verified evidence.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import criteria
from .criteria import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    CriterionReport,
    LogMomentSequence,
)
from .distributions import (
    DGG,
    GG,
    HAMBURGER,
    IG,
    MIXED,
    STIELTJES,
    DistributionSpec,
    ProductSpec,
    decreasing_from,
    log_density,
    log_hazard,
    log_tail_scaled,
    support_class,
    tail_bound_params,
)

M_DET = "M-det"
M_INDET = "M-indet"

# float exponent sums within this distance of the threshold cannot be decided
# without exact rationals
BOUNDARY_BAND = 0.005

# headroom added to |gamma_t| when bounding the admissible log-log decay of
# the tail ratio: a correct exponential order leaves at most a polynomial
# transient, a wrong one decays without bound
TAIL_SLOPE_HEADROOM = 10.0

# the indeterminacy side conditions are verified on a geometric grid of
# GRID_POINTS points from the effective x0 to GRID_SPAN times it
GRID_POINTS = 60
GRID_SPAN = 1e3

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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

    @property
    def is_determinate(self) -> bool:
        return self.conclusion == M_DET

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


def factor_exponent_exact(d: DistributionSpec) -> Optional[Fraction]:
    if d.family == IG:
        return Fraction(1)
    if d.beta_exact is not None:
        return 1 / d.beta_exact
    return None


def _threshold(support: str) -> float:
    return 2.0 if support == STIELTJES else 1.0


def _at_or_below(total: float, exact_sum: Optional[Fraction],
                 threshold: float) -> Optional[bool]:
    """Is an exponent sum at or below the threshold?  Decided in exact
    arithmetic when the exact sum is known; a float sum within BOUNDARY_BAND
    of the threshold gives None."""
    if exact_sum is not None:
        return exact_sum <= threshold
    if abs(total - threshold) <= BOUNDARY_BAND:
        return None
    return total < threshold


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


def _rule(base: str, factors: Sequence[DistributionSpec]) -> str:
    tags = _corollary_tags(factors)
    return "; ".join([base] + tags)


_MIXED_CAVEAT = (
    "mixed-support products use the real-line threshold by analogy with the "
    "even-moment composition argument; the determinate direction is an "
    "analogue rule, not a stated theorem"
)


# ---------------------------------------------------------------------------
# side-condition verification for the indeterminacy theorems


def _verification_grid(x0: float) -> np.ndarray:
    return np.geomspace(x0, x0 * GRID_SPAN, GRID_POINTS)


def _verify_decreasing(d: DistributionSpec, index: int, grid: np.ndarray) -> CriterionReport:
    """Condition (i): the density of the chosen factor is nonincreasing on
    the grid, which starts beyond the closed-form point where it begins to
    decrease."""
    vals = log_density(d, grid)
    monotone = bool(np.all(np.isfinite(grid))) and bool(np.all(np.diff(vals) <= 1e-12))
    return CriterionReport(
        criterion="density_decreasing",
        status=HOLDS if monotone else FAILS,
        evidence={
            "factor_index": index,
            "factor": str(d),
            "decreasing_from": decreasing_from(d),
            "x0_effective": float(grid[0]),
        },
        notes=("one decreasing density is required; the verified factor is recorded",),
    )


def _fitted_constant(log_value: float) -> float:
    """exp(log_value), clamped at the largest float.  A fitted constant enters
    a lower bound, so any smaller positive value satisfies it as well."""
    return sys.float_info.max if log_value >= _LOG_FLOAT_MAX else math.exp(log_value)


def _verify_hazard_bound(d: DistributionSpec, index: int, grid: np.ndarray) -> CriterionReport:
    """Condition (ii), hazard part: f/F-bar >= A/x on the grid, A fitted at
    the grid minimum of x * hazard(x).  As for B in the tail bound, a finite
    ln A is enough: when A underflows, a note gives ln A."""
    log_xh = log_hazard(d, grid) + np.log(grid)
    ok = bool(np.all(np.isfinite(log_xh)))
    log_a = float(np.min(log_xh)) if ok else float("nan")
    a_fit = _fitted_constant(log_a)
    return CriterionReport(
        criterion="hazard_bound",
        status=HOLDS if ok else FAILS,
        evidence={
            "factor_index": index,
            "factor": str(d),
            "A": a_fit,
            "x0": float(grid[0]),
            "grid_max": float(grid[-1]),
        },
        notes=(f"A underflows to 0; ln A = {log_a!r}",) if a_fit == 0.0 else (),
    )


def _verify_tail_bound(d: DistributionSpec, index: int, grid: np.ndarray) -> CriterionReport:
    """Condition (ii), tail part: F-bar(x) >= B x^g exp(-a x^b) with the
    family-native exponents.

    The log-ratio ln(F-bar / (x^g e^(-a x^b))) is evaluated on the grid.  If
    the exponential order (a, b) matches the true tail, the ratio has at most
    a polynomial transient, so its log-log slope stays bounded; a wrong order
    drives the slope to minus infinity.  B is fitted at the grid minimum.
    """
    a_t, b_t, g_t = tail_bound_params(d)
    log_ratio = log_tail_scaled(d, grid) - g_t * np.log(grid)
    finite = np.all(np.isfinite(log_ratio))
    if not finite:
        ok, b_fit, slope = False, float("nan"), float("-inf")
    else:
        span = math.log(grid[-1]) - math.log(grid[-6])
        slope = float(log_ratio[-1] - log_ratio[-6]) / span
        ok = slope >= -(abs(g_t) + TAIL_SLOPE_HEADROOM)
        b_fit = _fitted_constant(float(np.min(log_ratio))) * (1.0 - 1e-9)
    return CriterionReport(
        criterion="tail_bound",
        status=HOLDS if ok else FAILS,
        evidence={
            "factor_index": index,
            "factor": str(d),
            "B": b_fit,
            "alpha": a_t,
            "beta": b_t,
            "gamma": g_t,
            "x0": float(grid[0]),
            "tail_slope": slope,
        },
        notes=("inequality verified on a geometric grid with fitted constants; "
               "the theorems only require existence",),
    )


def _indet_side_conditions(factors: Sequence[DistributionSpec], support: str,
                           cfg: DecisionConfig) -> list[CriterionReport]:
    """Theorems 2, 4, 7, 10 and 11: one (real-line factor, in the mixed case)
    density eventually decreasing, then the hazard and tail envelopes of
    every factor, all verified on one grid from the effective x0.

    A grid point or value that overflows becomes inf or nan, which fails the
    check that meets it.
    """
    if support == MIXED:
        candidates = [(i, d) for i, d in enumerate(factors) if d.family == DGG]
    else:
        candidates = list(enumerate(factors))
    idx, chosen = min(candidates, key=lambda t: decreasing_from(t[1]))
    x0_eff = max(cfg.x0, 1.0, decreasing_from(chosen) * (1.0 + 1e-12))
    with np.errstate(all="ignore"):
        grid = _verification_grid(x0_eff)
        reports = [_verify_decreasing(chosen, idx, grid)]
        for i, d in enumerate(factors):
            reports.append(_verify_hazard_bound(d, i, grid))
            reports.append(_verify_tail_bound(d, i, grid))
    return reports


# ---------------------------------------------------------------------------
# the decision pipeline


def _ratio_rates(factors: Sequence[DistributionSpec], support: str,
                 cfg: DecisionConfig) -> list[CriterionReport]:
    """Estimated ratio rates, recorded as evidence with every ratio-route verdict."""
    parity = criteria.PARITY_ALL if support == STIELTJES else criteria.PARITY_EVEN
    return [criteria.ratio_rate(LogMomentSequence.from_distribution(
        d, cfg.k_horizon, parity=parity)) for d in factors]


def _decide(p: ProductSpec, route: str, cfg: DecisionConfig) -> Verdict:
    """Compare the exponent sum with the threshold, then cite the route's
    rule from RULES: the M-det rule at or below it, the M-indet rule above it
    once the side conditions hold.  A product of one takes the SINGLE row."""
    factors = p.factors
    if route == PRODUCT and len(factors) == 1:
        route = SINGLE
    support = support_class(p)
    det_rule, indet_rule = RULES[route][support]
    # the ratio route uses the even-step rates 2/beta off the half line
    scale = 2 if route == RATIO and support != STIELTJES else 1
    threshold = scale * _threshold(support)
    exponents = [scale * factor_exponent(d) for d in factors]
    exact = [factor_exponent_exact(d) for d in factors]
    exact_sum = scale * sum(exact, Fraction(0)) if all(e is not None for e in exact) else None
    total = math.fsum(exponents)
    det = _at_or_below(total, exact_sum, threshold)
    if route == RATIO and exact_sum is not None:
        # exact rates are reported as rounded from their exact values
        exponents, total = [float(scale * e) for e in exact], float(exact_sum)

    side = _ratio_rates(factors, support, cfg) if route == RATIO else []
    caveats = [_MIXED_CAVEAT] if support == MIXED else []
    if det is None:
        rule, caveat = _BOUNDARY[route]
        conclusion = INCONCLUSIVE
        caveats.append(caveat)
    elif det:
        conclusion, rule = M_DET, _rule(det_rule, factors)
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
            conclusion, rule = M_INDET, _rule(indet_rule, factors)
    return Verdict(
        conclusion=conclusion,
        rule=rule,
        side_conditions=tuple(side),
        factor_exponents=tuple(exponents),
        exponent_sum=total,
        threshold=threshold,
        exact=exact_sum is not None,
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
            detail = ", ".join(
                f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}"
                for key, val in r.evidence.items()
                if key in ("r_hat", "A", "B", "factor"))
            lines.append(f"  - {r.criterion}: {r.status}" + (f" ({detail})" if detail else ""))
    for c in v.caveats:
        lines.append(f"caveat: {c}")
    return "\n".join(lines)
