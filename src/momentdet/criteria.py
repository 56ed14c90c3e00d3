"""Numerical evaluators for the checkable moment-problem criteria: growth
exponents, ratio rates, Hardy and Cramer bounds, Carleman sums, Krein
integrals and the Lin regularity condition.

All moment-side criteria consume a LogMomentSequence.  Estimates use
bias-corrected finite differences: the raw ln m_k / (k ln k) quotient
converges like 1 - 1/ln k and is hopeless at any usable horizon, while the
second difference k * d^2(ln m_k)/dk^2 removes both the linear term and any
scale factor, leaving an O(1/k) error.  Raw quotients are still reported in
the evidence for inspection.

These evaluators serve moment sequences given directly and log-density
callables such as the witnesses.  On a product spec, ``momentdet
criterion`` answers from closed forms instead (``decision.spec_criterion``).
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

from .distributions import (
    DistributionSpec,
    HAMBURGER,
    IG,
    MOMENT_STEP,
    ProductSpec,
    STIELTJES,
    _OnFirstUse,
    lin_L,
    lin_L_numeric,
    log_moment,
    moment_threshold,
    support_class,
)

np = _OnFirstUse(globals(), "np", "numpy")
special = _OnFirstUse(globals(), "special", "scipy.special")
integrate = _OnFirstUse(globals(), "integrate", "scipy.integrate")

DEFAULT_K_HORIZON = 200
MIN_K_HORIZON = 40

# estimates within this band of a threshold are treated as inconclusive
THRESHOLD_BAND = 0.05
# a tail-window estimate still rising faster than this per doubling has not converged
RISE_TOL = 0.02

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# the first note of every growth, ratio, Hardy, Cramer and Carleman report
ESTIMATE_NOTE = ("the status is a tail-window estimate from the orders given, not a "
                 "certificate; decision.spec_criterion decides a product spec in closed form")

PARITY_ALL = "all"
PARITY_EVEN = "even"
# the reports' name of each moment step
PARITY = {1: PARITY_ALL, 2: PARITY_EVEN}
_STEP = {parity: step for step, parity in PARITY.items()}


class CriterionReport(NamedTuple):
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


class _LogMomentFields(NamedTuple):
    orders: np.ndarray
    values: np.ndarray
    parity: str


class LogMomentSequence(_LogMomentFields):
    """k -> ln m_k, exact in log space, at the consecutive multiples step,
    2 step, ..., k_max of the parity's step: 1 for all orders, 2 for even
    orders (the vanishing odd moments are never stored).  Product sequences
    are pointwise sums of their factors'.  Every construction, ``_replace``
    included, checks the fields.
    """

    __slots__ = ()

    def __new__(cls, orders, values, parity: str) -> "LogMomentSequence":
        if parity not in _STEP:
            raise ValueError(f"unknown parity {parity!r}")
        orders = np.asarray(orders)
        values = np.asarray(values, dtype=float)
        if orders.shape != values.shape or orders.ndim != 1 or len(orders) < 3:
            raise ValueError("orders/values must be matching 1-d arrays with >= 3 entries")
        step = _STEP[parity]
        if not np.array_equal(orders, np.arange(step, step * len(orders) + 1, step)):
            raise ValueError(f"{parity}-parity orders must be the consecutive "
                             f"multiples {step}, {2 * step}, {3 * step}, ... of {step}")
        if not np.all(np.isfinite(values)):
            raise ValueError("every stored ln m_k must be finite")
        return super().__new__(cls, orders.astype(int, copy=False), values, parity)

    @classmethod
    def _make(cls, iterable) -> "LogMomentSequence":
        return cls(*iterable)

    @property
    def k_max(self) -> int:
        return int(self.orders[-1])

    @property
    def step(self) -> int:
        return _STEP[self.parity]

    @classmethod
    def from_distribution(cls, d: DistributionSpec, k_max: int = DEFAULT_K_HORIZON,
                          parity: Optional[str] = None) -> "LogMomentSequence":
        if parity is None:
            parity = PARITY[MOMENT_STEP[d.support]]
        orders = np.arange(_STEP[parity], k_max + 1, _STEP[parity])
        return cls(orders=orders, values=log_moment(d, orders), parity=parity)

    @classmethod
    def from_product(cls, p: ProductSpec, k_max: int = DEFAULT_K_HORIZON) -> "LogMomentSequence":
        """``compose`` of the factors' own sequences at the product's parity."""
        parity = PARITY[MOMENT_STEP[support_class(p)]]
        return compose([cls.from_distribution(d, k_max, parity) for d in p.factors])


def compose(seqs: Sequence[LogMomentSequence]) -> LogMomentSequence:
    """Sequence of a product of independent factors: pointwise sum up to the
    smallest horizon, at the even orders if any factor has even parity.
    Order j step of a factor with step s is its entry j step/s - 1."""
    if not seqs:
        raise ValueError("nothing to compose")
    step = max(s.step for s in seqs)
    n = min(s.k_max for s in seqs) // step
    total = np.zeros(n)
    for s in seqs:
        stride = step // s.step
        total += s.values[stride - 1::stride][:n]
    return LogMomentSequence(orders=np.arange(step, step * n + 1, step), values=total,
                             parity=PARITY[step])


def _require_horizon(s: LogMomentSequence):
    if s.k_max < MIN_K_HORIZON:
        raise ValueError(f"moment horizon K = {s.k_max} is below the minimum {MIN_K_HORIZON}")


def _tail_window(ks: np.ndarray, K: int, stat: Callable, *columns) -> tuple[float, float]:
    """The tail-window rule of the sequence criteria: ``stat`` of the columns
    at the orders ks in [K/2, K], and its rise from [K/4, K/2]."""
    now = float(stat(*(c[ks >= K / 2] for c in columns)))
    prev = (ks >= K / 4) & (ks <= K / 2)
    return now, now - float(stat(*(c[prev] for c in columns)))


def _slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Closed-form least-squares slope of y on x, from exactly rounded sums."""
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    dx = [float(a) - mx for a in x]
    return math.fsum(d * (float(b) - my) for d, b in zip(dx, y)) / math.fsum(d * d for d in dx)


# ---------------------------------------------------------------------------
# growth exponent and ratio rate


def growth_exponent(s: LogMomentSequence) -> CriterionReport:
    """Estimate a in m_k = O(k^(a k)) (even-order convention for even parity).

    Status ``holds`` means the tail-window estimate has stabilized;
    ``inconclusive`` flags a window still rising by more than RISE_TOL per
    doubling.
    """
    _require_horizon(s)
    K = s.k_max
    k = s.orders.astype(float)
    v = s.values
    # If ln m_k ~ a k ln k + b k + ..., then k * second difference -> a.
    a = k[1:-1] * (v[2:] - 2.0 * v[1:-1] + v[:-2]) / float(s.step * s.step)
    a_hat, rise = _tail_window(s.orders[1:-1], K, np.max, a)
    win = s.orders >= K / 2
    direct_max = float(np.max(v[win] / (k[win] * np.log(k[win]))))
    status = HOLDS if rise <= RISE_TOL else INCONCLUSIVE
    notes = (ESTIMATE_NOTE,) if status == HOLDS else (
        ESTIMATE_NOTE, f"tail-window estimate still rising by {rise:.4f} per doubling")
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
    # the ratio of entries j + 1 and j (orders (j + 1) step, j step) goes with ln(j + 1)
    log_rho = s.values[1:] - s.values[:-1]
    log_idx = np.log(np.arange(2.0, len(s.values) + 1.0))
    now, prev = s.orders[:-1] >= K / 2, (s.orders[:-1] >= K / 4) & (s.orders[:-1] <= K / 2)
    slope = _slope(log_idx[now], log_rho[now])
    rise = slope - _slope(log_idx[prev], log_rho[prev])
    status = HOLDS if abs(rise) <= RISE_TOL else INCONCLUSIVE
    notes = (ESTIMATE_NOTE,) if status == HOLDS else (
        ESTIMATE_NOTE, f"ratio-rate slope moved by {rise:.4f} between half-windows")
    return CriterionReport(
        criterion="ratio",
        status=status,
        evidence={
            "r_hat": slope,
            "r_hat_direct": float((log_rho / log_idx)[now].max()),
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
    sup, tau = _tail_window(orders, K, np.max, scores)
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
        notes=(ESTIMATE_NOTE, boundary_note) if status == INCONCLUSIVE else (ESTIMATE_NOTE,),
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
    scores = (s.values - special.gammaln(2.0 * k + 1.0)) / k
    return _bound_check("hardy", s.orders, scores, s.k_max,
                        "score trend sits in the boundary band; growth is k^(2k) "
                        "times a slowly varying factor")


def cramer_check(s: LogMomentSequence) -> CriterionReport:
    """Does m_(2k) <= c0^k (2k)! hold for some c0 (even-order Hamburger form)?"""
    _require_horizon(s)
    if s.parity == PARITY_ALL:
        s = LogMomentSequence(orders=s.orders[1::2], values=s.values[1::2],
                              parity=PARITY_EVEN)
    j = s.orders.astype(float)  # j = 2k
    scores = (s.values - special.gammaln(j + 1.0)) / (j / 2.0)
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
    case = STIELTJES if s.parity == PARITY_ALL else HAMBURGER
    threshold = moment_threshold(case)
    # m_j^(-1/(2k)) at the stored order j = k step
    terms = np.exp(-s.values / (2.0 * s.orders.astype(float) / s.step))
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
            ESTIMATE_NOTE,
            "a finite Carleman sum is only necessary for indeterminacy; no "
            "M-indet conclusion can be drawn from this criterion alone",
        ),
    )


# ---------------------------------------------------------------------------
# Krein


DEFAULT_SCHEDULE: tuple[float, ...] = tuple(10.0 * 2.0 ** j for j in range(15))
KREIN_START = 1.0      # the lower end of the integral

# what a Krein classification proves, in every Krein report
KREIN_THEOREM_NOTE = ("a finite integral implies indeterminacy on its own (Krein 1945 on the "
                      "line; Pedersen 1998 on the half line); Lin's condition is the hypothesis "
                      "of the converse: an infinite integral implies determinacy where L is "
                      "eventually increasing and unbounded (Lin 1997)")

# increment-ratio thresholds separating a converging ladder from a diverging
# one; logarithmically convergent integrals approach ratio 1 from below, so
# the finite cutoff must sit well above 1/2
FINITE_RATIO_MAX = 0.96
INFINITE_RATIO_MIN = 0.98


def krein_quantity(log_dens: Callable, case: str,
                   schedule: Optional[Sequence[float]] = None) -> CriterionReport:
    """Truncation ladder for the Krein logarithmic integral of a density.

    Stieltjes: integral of -ln f(x^2) / (1 + x^2) from 1; Hamburger: the
    symmetric real-line integral, evaluated as twice the positive half.
    Classification is by the decay of ladder increments: geometric-to-
    logarithmic decay (ratios < FINITE_RATIO_MAX) means finite, non-decaying
    increments mean infinite.  Status ``holds`` means finite, the
    indeterminacy-side condition.  The ladder serves callables such as the
    witness densities; a factor's integral is classified in closed form by
    ``decision.krein_closed_form``.
    """
    if case not in (STIELTJES, HAMBURGER):
        raise ValueError(f"case must be {STIELTJES!r} or {HAMBURGER!r}")
    rungs = tuple(schedule) if schedule is not None else DEFAULT_SCHEDULE
    if len(rungs) < 6 or any(b <= a for a, b in zip((KREIN_START,) + rungs, rungs)):
        raise ValueError("schedule must be >= 6 strictly increasing truncation points above 1")

    if case == STIELTJES:
        def integrand(x):
            return -log_dens(x * x) / (1.0 + x * x)
    else:
        def integrand(x):
            return -2.0 * log_dens(x) / (1.0 + x * x)

    probe = [integrand(x) for x in np.geomspace(KREIN_START * (1 + 1e-9), rungs[-1], 256)]
    if not all(map(math.isfinite, probe)):
        raise ValueError("integrand is not finite on the tail region; criterion inapplicable")

    partials = []
    acc = 0.0
    prev = KREIN_START
    for t in rungs:
        with np.errstate(invalid="ignore"):
            val, _ = integrate.quad(integrand, prev, t, limit=400)
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
            "x0": KREIN_START,
            "case": case,
        },
        notes=(
            "integral taken from 1 over the tail; finiteness there is "
            "equivalent to finiteness of the full integral for densities "
            "positive and continuous on compacts",
            KREIN_THEOREM_NOTE,
        ),
    )


# ---------------------------------------------------------------------------
# Condition L


LIN_GRID_POINTS = 240


def condition_L_check(obj, x0: float = 1.0) -> CriterionReport:
    """Is L(x) = -x f'(x)/f(x) nondecreasing and unbounded beyond x0?

    For a DistributionSpec this holds in closed form: L = (1-gamma) +
    alpha beta x^beta for GG and DGG, L = 3/2 + lam x/(2 mu^2) - lam/(2x) for
    IG, increasing and unbounded, of power beta and 1: the report gives L at
    x0 and 1e4 x0 and that power, and samples nothing.  A log-density callable
    or a witness is tested numerically (central differences) on a geometric
    grid of LIN_GRID_POINTS points over those four decades: the growth test
    accepts either a large absolute climb or clear power-law growth of L on
    the last decade.  A density is symmetric when its support class is
    Hamburger; a bare callable counts as one-sided.
    """
    if not 0.0 < x0 < math.inf:
        raise ValueError(f"x0 must be finite and positive, got {x0!r}")
    lo, hi = x0 * 1.0000001, x0 * 1e4
    if isinstance(obj, DistributionSpec):
        first, last = lin_L(obj, lo), lin_L(obj, hi)
        climb = math.inf if last == math.inf else last - first
        slope, monotone, label = 1.0 if obj.family == IG else obj.beta, True, str(obj)
        status, notes = HOLDS, ("L is increasing and unbounded in closed form, growing like "
                                "x^power_slope; L_first and L_last are its values at x0 and 1e4 x0",)
    else:
        n = LIN_GRID_POINTS - 1
        grid = [lo * (hi / lo) ** (i / n) for i in range(n)] + [hi]
        with np.errstate(all="ignore"):
            L = lin_L_numeric(getattr(obj, "log_density", obj), np.array(grid)).tolist()
        if not all(map(math.isfinite, L)):
            raise ValueError("L is not finite on the test grid")
        scale = max(map(abs, L)) or 1.0
        monotone = all(b - a >= -1e-9 * scale for a, b in zip(L, L[1:]))
        first, last = L[0], L[-1]
        climb = last - first
        decade = [(x, v) for x, v in zip(grid, L) if x >= hi / 10.0]
        slope, label = None, "numeric"
        if all(v > 0.0 for _, v in decade):
            slope = _slope([math.log(x) for x, _ in decade], [math.log(v) for _, v in decade])
        if not monotone:
            status, notes = FAILS, ("L is not nondecreasing on the tested range",)
        elif climb > 1e3 or (slope is not None and slope >= 0.1):
            status, notes = HOLDS, ()
        elif slope is not None and slope < 0.01:
            status, notes = FAILS, ("L is monotone but levels off to a bounded limit",)
        else:
            status, notes = INCONCLUSIVE, ("L is monotone but bounded-looking on the tested range",)
    evidence = {"x0": float(x0), "L_first": first, "L_last": last, "climb": climb,
                "power_slope": slope, "monotone": monotone,
                "symmetric": getattr(obj, "support", None) == HAMBURGER, "density": label}
    return CriterionReport("lin", status, evidence, notes)
