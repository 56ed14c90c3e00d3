"""Numerical evaluators for the checkable moment-problem criteria: growth
exponents, ratio rates, Hardy and Cramer bounds, Carleman sums, Krein
integrals and the Lin regularity condition.

All moment-side criteria consume a LogMomentSequence.  Estimates use
bias-corrected finite differences: the raw ln m_k / (k ln k) quotient
converges like 1 - 1/ln k and is hopeless at any usable horizon, while the
second difference k * d^2(ln m_k)/dk^2 removes both the linear term and any
scale factor, leaving an O(1/k) error.  Raw quotients are still reported in
the evidence for inspection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .distributions import (
    DGG,
    DistributionSpec,
    HAMBURGER,
    ProductSpec,
    STIELTJES,
    lin_L,
    lin_L_numeric,
    log_moment,
    support_class,
)

DEFAULT_K_HORIZON = 200
MIN_K_HORIZON = 40

# estimates within this band of a threshold are treated as inconclusive
THRESHOLD_BAND = 0.05
# a tail-window estimate still rising faster than this per doubling has not converged
RISE_TOL = 0.02

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

PARITY_ALL = "all"
PARITY_EVEN = "even"


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    status: str
    evidence: dict
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "status": self.status,
            "evidence": self.evidence,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class LogMomentSequence:
    """k -> ln m_k, exact in log space.

    Even-parity sequences store only even orders (vanishing odd moments are
    never stored).  Product sequences are pointwise sums of their factors'.
    """

    orders: np.ndarray
    values: np.ndarray
    parity: str
    source: str = "analytic"

    def __post_init__(self):
        orders = np.asarray(self.orders, dtype=int)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "values", values)
        if orders.shape != values.shape or orders.ndim != 1 or len(orders) < 3:
            raise ValueError("orders/values must be matching 1-d arrays with >= 3 entries")
        if not np.all(np.diff(orders) > 0):
            raise ValueError("orders must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("every stored ln m_k must be finite")
        if self.parity == PARITY_EVEN and np.any(orders % 2 != 0):
            raise ValueError("even-parity sequences may store even orders only")
        if self.parity not in (PARITY_ALL, PARITY_EVEN):
            raise ValueError(f"unknown parity {self.parity!r}")

    @property
    def k_max(self) -> int:
        return int(self.orders[-1])

    @property
    def step(self) -> int:
        return 1 if self.parity == PARITY_ALL else 2

    @classmethod
    def from_distribution(cls, d: DistributionSpec, k_max: int = DEFAULT_K_HORIZON,
                          parity: Optional[str] = None) -> "LogMomentSequence":
        if parity is None:
            parity = PARITY_EVEN if d.family == DGG else PARITY_ALL
        step = 1 if parity == PARITY_ALL else 2
        orders = np.arange(step, k_max + 1, step)
        values = log_moment(d, orders)
        return cls(orders=orders, values=values, parity=parity, source="analytic")

    @classmethod
    def from_product(cls, p: ProductSpec, k_max: int = DEFAULT_K_HORIZON) -> "LogMomentSequence":
        parity = PARITY_ALL if support_class(p) == STIELTJES else PARITY_EVEN
        seqs = [cls.from_distribution(d, k_max, parity=parity) for d in p.factors]
        return compose(seqs)


def compose(seqs: Sequence[LogMomentSequence]) -> LogMomentSequence:
    """Sequence of a product of independent factors: pointwise sum."""
    if not seqs:
        raise ValueError("nothing to compose")
    parity = PARITY_EVEN if any(s.parity == PARITY_EVEN for s in seqs) else PARITY_ALL
    step = 1 if parity == PARITY_ALL else 2
    k_hi = min(s.k_max for s in seqs)
    orders = np.arange(step, k_hi + 1, step)
    total = np.zeros(len(orders))
    for s in seqs:
        lookup = dict(zip(s.orders.tolist(), s.values.tolist()))
        try:
            total += np.array([lookup[int(k)] for k in orders])
        except KeyError as e:
            raise ValueError(f"factor sequence lacks order {e}") from None
    return LogMomentSequence(orders=orders, values=total, parity=parity,
                             source="product-composed")


def _require_horizon(s: LogMomentSequence):
    if s.k_max < MIN_K_HORIZON:
        raise ValueError(f"moment horizon K = {s.k_max} is below the minimum {MIN_K_HORIZON}")


def _window_mask(orders: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (orders >= lo) & (orders <= hi)


# ---------------------------------------------------------------------------
# growth exponent and ratio rate


def _curvature_estimates(s: LogMomentSequence) -> tuple[np.ndarray, np.ndarray]:
    # If ln m_k ~ a k ln k + b k + ..., then k * second difference -> a.
    k = s.orders.astype(float)
    v = s.values
    h = float(s.step)
    a = k[1:-1] * (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    return s.orders[1:-1], a


def growth_exponent(s: LogMomentSequence) -> CriterionReport:
    """Estimate a in m_k = O(k^(a k)) (even-order convention for even parity).

    Status ``holds`` means the tail-window estimate has stabilized;
    ``inconclusive`` flags a window still rising by more than RISE_TOL per
    doubling.
    """
    _require_horizon(s)
    K = s.k_max
    ks, a = _curvature_estimates(s)
    cur = _window_mask(ks, K / 2, K)
    prev = _window_mask(ks, K / 4, K / 2)
    a_hat = float(np.max(a[cur]))
    rise = a_hat - float(np.max(a[prev]))
    win = _window_mask(s.orders, K / 2, K)
    kw = s.orders[win].astype(float)
    direct_max = float(np.max(s.values[win] / (kw * np.log(kw))))
    status = HOLDS if rise <= RISE_TOL else INCONCLUSIVE
    notes = () if status == HOLDS else (
        f"tail-window estimate still rising by {rise:.4f} per doubling",)
    return CriterionReport(
        criterion="growth",
        status=status,
        evidence={
            "a_hat": a_hat,
            "a_hat_direct": direct_max,
            "rise_per_doubling": rise,
            "window": [int(math.ceil(K / 2)), K],
            "parity": s.parity,
            "k_max": K,
        },
        notes=notes,
    )


def ratio_rate(s: LogMomentSequence) -> CriterionReport:
    """Estimate r in m_(k+1)/m_k = O((k+1)^r) (even-step form for even parity).

    The primary estimate is the log-log slope of the successive-moment ratio
    over the tail window, which is invariant under rescaling the variable;
    the raw quotient (scale-sensitive) is reported alongside.
    """
    _require_horizon(s)
    K = s.k_max
    v = s.values
    # even parity: ratios m_(2(k+1)) / m_(2k) indexed by k = order/2
    idx = s.orders[:-1].astype(float) / s.step
    log_rho = v[1:] - v[:-1]
    log_idx = np.log(idx + 1.0)
    cur = _window_mask(idx * s.step, K / 2, K)
    x, y = log_idx[cur], log_rho[cur]
    slope = float(np.polyfit(x, y, 1)[0])
    half = _window_mask(idx * s.step, K / 4, K / 2)
    slope_prev = float(np.polyfit(log_idx[half], log_rho[half], 1)[0])
    rise = slope - slope_prev
    direct_max = float(np.max(log_rho[cur] / log_idx[cur]))
    status = HOLDS if abs(rise) <= RISE_TOL else INCONCLUSIVE
    notes = () if status == HOLDS else (
        f"ratio-rate slope moved by {rise:.4f} between half-windows",)
    return CriterionReport(
        criterion="ratio",
        status=status,
        evidence={
            "r_hat": slope,
            "r_hat_direct": direct_max,
            "rise_per_doubling": rise,
            "window": [int(math.ceil(K / 2)), K],
            "parity": s.parity,
            "k_max": K,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Hardy / Cramer moment bounds


def _bound_check(criterion: str, orders: np.ndarray, scores: np.ndarray, K: int,
                 boundary_note: str) -> CriterionReport:
    """Score a c0^k (2k)! moment bound by the trend of the tail-window
    maximum of the per-order scores over a doubling: rising beyond
    THRESHOLD_BAND fails, at most RISE_TOL holds, in between is inconclusive."""
    cur = _window_mask(orders, K / 2, K)
    prev = _window_mask(orders, K / 4, K / 2)
    sup = float(np.max(scores[cur]))
    tau = sup - float(np.max(scores[prev]))
    if tau > THRESHOLD_BAND:
        status = FAILS
    elif tau <= RISE_TOL:
        status = HOLDS
    else:
        status = INCONCLUSIVE
    return CriterionReport(
        criterion=criterion,
        status=status,
        evidence={
            "c0": math.exp(sup) if status == HOLDS else None,
            "sup_score": sup,
            "trend_per_doubling": tau,
            "k_max": K,
        },
        notes=(boundary_note,) if status == INCONCLUSIVE else (),
    )


def hardy_check(s: LogMomentSequence) -> CriterionReport:
    """Does m_k <= c0^k (2k)! hold for some c0 (all-order Stieltjes form)?

    The per-order score (ln m_k - ln (2k)!) / k converges to ln c0 when the
    bound holds and grows like a multiple of ln k when it fails; the trend of
    the tail-window maximum over a doubling decides.
    """
    if s.parity != PARITY_ALL:
        raise ValueError("hardy_check needs an all-order sequence")
    _require_horizon(s)
    k = s.orders.astype(float)
    scores = (s.values - gammaln(2.0 * k + 1.0)) / k
    return _bound_check("hardy", s.orders, scores, s.k_max,
                        "score trend sits in the boundary band; growth is k^(2k) "
                        "times a slowly varying factor")


def cramer_check(s: LogMomentSequence) -> CriterionReport:
    """Does m_(2k) <= c0^k (2k)! hold for some c0 (even-order Hamburger form)?"""
    _require_horizon(s)
    if s.parity == PARITY_ALL:
        keep = s.orders % 2 == 0
        s = LogMomentSequence(orders=s.orders[keep], values=s.values[keep],
                              parity=PARITY_EVEN, source=s.source)
    j = s.orders.astype(float)  # j = 2k
    scores = (s.values - gammaln(j + 1.0)) / (j / 2.0)
    return _bound_check("cramer", s.orders, scores, s.k_max,
                        "score trend sits in the boundary band")


# ---------------------------------------------------------------------------
# Carleman


def carleman_quantity(s: LogMomentSequence) -> CriterionReport:
    """Partial Carleman sum plus a convergence classification.

    Stieltjes: sum of m_k^(-1/(2k)); Hamburger: sum of m_(2k)^(-1/(2k)).
    The classification comes from the growth exponent (divergent iff the
    exponent stays at or below the case threshold).  Status ``holds`` means
    the series diverges, i.e. the determinacy-side condition is met;
    finiteness alone decides nothing in the other direction.
    """
    _require_horizon(s)
    k = s.orders.astype(float)
    if s.parity == PARITY_ALL:
        terms = np.exp(-s.values / (2.0 * k))
        threshold = 2.0
        case = STIELTJES
    else:
        terms = np.exp(-s.values / k)  # stored order j = 2k, exponent 1/(2k) = 1/j
        threshold = 1.0
        case = HAMBURGER
    csum = np.cumsum(terms)
    quarters = [int(len(terms) * f) - 1 for f in (0.25, 0.5, 0.75, 1.0)]
    ladder = [float(csum[q]) for q in quarters]
    g = growth_exponent(s)
    a_hat = g.evidence["a_hat"]
    if g.status != HOLDS:
        status = INCONCLUSIVE
        classification = "unclassified"
    elif a_hat <= threshold:
        status = HOLDS
        classification = "divergent"
    elif a_hat > threshold + THRESHOLD_BAND:
        status = FAILS
        classification = "convergent"
    else:
        status = INCONCLUSIVE
        classification = "boundary"
    return CriterionReport(
        criterion="carleman",
        status=status,
        evidence={
            "partial_sums": ladder,
            "partial_sum": ladder[-1],
            "a_hat": a_hat,
            "threshold": threshold,
            "case": case,
            "classification": classification,
        },
        notes=(
            "a finite Carleman sum is only necessary for indeterminacy; no "
            "M-indet conclusion can be drawn from this criterion alone",
        ),
    )


# ---------------------------------------------------------------------------
# Krein


DEFAULT_SCHEDULE: tuple[float, ...] = tuple(10.0 * 2.0 ** j for j in range(15))

# increment-ratio thresholds separating a converging ladder from a diverging
# one; logarithmically convergent integrals approach ratio 1 from below, so
# the finite cutoff must sit well above 1/2
FINITE_RATIO_MAX = 0.96
INFINITE_RATIO_MIN = 0.98


def krein_quantity(log_dens: Callable, case: str, schedule: Optional[Sequence[float]] = None,
                   x0: float = 1.0) -> CriterionReport:
    """Truncation ladder for the Krein logarithmic integral of a density.

    Stieltjes: integral of -ln f(x^2) / (1 + x^2) from x0; Hamburger: the
    symmetric real-line integral, evaluated as twice the positive half.
    Classification is by the decay of ladder increments: geometric-to-
    logarithmic decay (ratios < FINITE_RATIO_MAX) means finite, non-decaying
    increments mean infinite.  Status ``holds`` means finite, the
    indeterminacy-side condition (sufficient only together with regularity).
    """
    if case not in (STIELTJES, HAMBURGER):
        raise ValueError(f"case must be {STIELTJES!r} or {HAMBURGER!r}")
    rungs = tuple(schedule) if schedule is not None else DEFAULT_SCHEDULE
    if len(rungs) < 6 or any(b <= a for a, b in zip(rungs, rungs[1:])):
        raise ValueError("schedule must be >= 6 strictly increasing truncation points")
    if rungs[0] <= x0:
        raise ValueError("the first truncation point must exceed x0")

    if case == STIELTJES:
        def integrand(x):
            return -log_dens(x * x) / (1.0 + x * x)
    else:
        def integrand(x):
            return -2.0 * log_dens(x) / (1.0 + x * x)

    probe = [integrand(x) for x in np.geomspace(x0 * (1 + 1e-9), rungs[-1], 256)]
    if not all(map(math.isfinite, probe)):
        raise ValueError("integrand is not finite on the tail region; criterion inapplicable")

    partials = []
    acc = 0.0
    prev = float(x0)
    for t in rungs:
        with np.errstate(invalid="ignore"):
            val, _ = quad(integrand, prev, t, limit=400)
        if not math.isfinite(val):
            raise ValueError("integrand is not integrable on the tail region; criterion inapplicable")
        acc += val
        partials.append(acc)
        prev = t
    inc = np.diff(partials)
    tail_inc = inc[-4:]
    if np.any(tail_inc <= 0.0):
        # the tail contributes nothing measurable: converged
        status, classification = HOLDS, "finite"
        ratios = []
    else:
        ratios = (inc[1:] / inc[:-1])[-4:].tolist()
        if max(ratios) <= FINITE_RATIO_MAX:
            status, classification = HOLDS, "finite"
        elif min(ratios) >= INFINITE_RATIO_MIN:
            status, classification = FAILS, "infinite"
        else:
            status, classification = INCONCLUSIVE, "inconclusive"
    return CriterionReport(
        criterion="krein",
        status=status,
        evidence={
            "classification": classification,
            "ladder": [float(v) for v in partials],
            "increment_ratios": [float(r) for r in ratios],
            "schedule": [float(t) for t in rungs],
            "x0": float(x0),
            "case": case,
        },
        notes=(
            "integral taken from x0 over the tail; finiteness there is "
            "equivalent to finiteness of the full integral for densities "
            "positive and continuous on compacts",
            "finiteness implies indeterminacy only under tail regularity "
            "such as the Lin condition",
        ),
    )


# ---------------------------------------------------------------------------
# Condition L


def condition_L_check(obj, x0: float = 1.0, symmetric: Optional[bool] = None) -> CriterionReport:
    """Is L(x) = -x f'(x)/f(x) nondecreasing and unbounded beyond x0?

    For a DistributionSpec this holds in closed form: L = (1-gamma) +
    alpha beta x^beta for GG and DGG, L = 3/2 + lam x/(2 mu^2) - lam/(2x) for
    IG, both increasing and unbounded.  Its grid values are kept as evidence.
    A log-density callable is tested numerically (central differences): the
    growth test accepts either a large absolute climb or clear power-law
    growth of L on the last decade of the grid.
    """
    closed_form = isinstance(obj, DistributionSpec)
    if closed_form:
        L_of = lambda x: lin_L(obj, x)
        symmetric = obj.is_symmetric
        label = str(obj)
    else:
        log_dens = obj.log_density if hasattr(obj, "log_density") else obj
        L_of = lambda x: lin_L_numeric(log_dens, x)
        symmetric = bool(symmetric)
        label = "numeric"
    with np.errstate(all="ignore"):
        grid = np.geomspace(x0 * 1.0000001, x0 * 1e4, 240)
        L = np.asarray(L_of(grid), dtype=float)
        finite = bool(np.all(np.isfinite(L)))
        if not (finite or closed_form):
            raise ValueError("L is not finite on the test grid")
        scale = float(np.max(np.abs(L))) or 1.0
        monotone = bool(np.all(np.diff(L) >= -1e-9 * scale))
        climb = float(L[-1] - L[0])
    last_decade = grid >= grid[-1] / 10.0
    slope = None
    if finite and np.all(L[last_decade] > 0.0):
        slope = float(np.polyfit(np.log(grid[last_decade]), np.log(L[last_decade]), 1)[0])
    evidence = {
        "x0": float(x0),
        "L_first": float(L[0]),
        "L_last": float(L[-1]),
        "climb": climb,
        "power_slope": slope,
        "monotone": monotone,
        "symmetric": symmetric,
        "density": label,
    }
    if closed_form:
        return CriterionReport("lin", HOLDS, evidence,
                               ("L is increasing and unbounded in closed form; "
                                "the grid values are evidence only",))
    if not monotone:
        return CriterionReport("lin", FAILS, evidence,
                               ("L is not nondecreasing on the tested range",))
    if climb > 1e3 or (slope is not None and slope >= 0.1):
        return CriterionReport("lin", HOLDS, evidence)
    if slope is not None and slope < 0.01:
        return CriterionReport("lin", FAILS, evidence,
                               ("L is monotone but levels off to a bounded limit",))
    return CriterionReport("lin", INCONCLUSIVE, evidence,
                           ("L is monotone but bounded-looking on the tested range",))
