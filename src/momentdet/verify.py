"""Independent numerical oracles: adaptive quadrature moments, the slowly
log-modulated witness densities, exponent-split construction, Stirling's
approximation and Monte Carlo cross-checks.

The quadrature works in u = ln x coordinates with the integrand rescaled by
its peak value, so results are exact in log space no matter how large the
moment order gets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .distributions import (
    HAMBURGER,
    STIELTJES,
    ProductSpec,
    log_moment,
    sample_product,
)

# quadrature supports, named by their support class
POSITIVE_HALF_LINE = STIELTJES
REAL_LINE = HAMBURGER

STIELTJES_CASE = "stieltjes"
HAMBURGER_CASE = "hamburger"

# Log-integrand drop below the peak at which the remainder is negligible:
# the decay rate past the cutoff is at least 1 per unit u for every density
# in scope, so the discarded mass is < e^-80 of the estimate (< 1e-12 easily).
_LOG_CUTOFF = 80.0

# Monte Carlo: fewest samples for which the standard errors mean anything,
# highest usable moment order, and the pass band in standard errors
MC_MIN_SAMPLES = 10 ** 5
MC_KMAX = 8
MC_SIGMAS = 4.0
# dominating_threshold searches u = ln x0 up to this value
THRESHOLD_U_MAX = 5000.0


class QuadratureError(RuntimeError):
    """Quadrature did not converge; carries the partial estimate."""

    def __init__(self, message: str, partial: float):
        super().__init__(f"{message} (partial estimate {partial!r})")
        self.partial = partial


def _log_integral(g: Callable[[float], float], lo: float = -60.0, hi: float = 60.0) -> float:
    """ln of the integral of exp(g(u)) du over the real line.

    g must be unimodal-ish with g -> -inf on both sides; the scan window is
    widened automatically if the peak sits near an edge.
    """
    i = 0
    for _ in range(40):
        us = np.linspace(lo, hi, 2001)
        gs = np.array([g(u) for u in us])
        i = int(np.argmax(gs))
        if 0 < i < len(us) - 1:
            break
        lo, hi = lo - 40.0, hi + 40.0
    else:
        raise QuadratureError("no interior integrand peak found", float("nan"))
    res = minimize_scalar(lambda u: -g(u), bracket=(us[i - 1], us[i], us[i + 1]))
    u0 = float(res.x)
    m = g(u0)
    if not math.isfinite(m):
        raise QuadratureError("integrand peak is not finite", float("nan"))

    def expand(u, step):
        for _ in range(4000):
            if g(u) < m - _LOG_CUTOFF:
                return u
            u += step
        raise QuadratureError("integrand does not decay", m)

    ulo = expand(u0 - 1.0, -1.0)
    uhi = expand(u0 + 1.0, +1.0)
    f = lambda u: math.exp(g(u) - m)
    i1, e1 = quad(f, ulo, u0, limit=300, epsabs=1e-14, epsrel=1e-12)
    i2, e2 = quad(f, u0, uhi, limit=300, epsabs=1e-14, epsrel=1e-12)
    total = i1 + i2
    if total <= 0.0 or (e1 + e2) > 1e-8 * total:
        raise QuadratureError("quadrature failed to converge", m + math.log(max(total, 1e-300)))
    return m + math.log(total)


def quadrature_log_moment(log_dens: Callable, support: str, k: int) -> float:
    """ln of the k-th moment by adaptive quadrature (k >= 0).

    For the real line this is the absolute-moment form and therefore valid
    for even k (and k = 0) only; odd real-line moments go through
    ``quadrature_moment``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if support == STIELTJES:
        g = lambda u: (k + 1) * u + log_dens(math.exp(u))
        return _log_integral(g)
    if support == HAMBURGER:
        if k % 2 == 1:
            raise ValueError("odd real-line moments are signed; use quadrature_moment")
        gp = lambda u: (k + 1) * u + log_dens(math.exp(u))
        gm = lambda u: (k + 1) * u + log_dens(-math.exp(u))
        return float(np.logaddexp(_log_integral(gp), _log_integral(gm)))
    raise ValueError(f"unknown support {support!r}")


def quadrature_moment(log_dens: Callable, support: str, k: int) -> float:
    """The k-th moment by adaptive quadrature; tail mass bound < 1e-12 relative."""
    if support == HAMBURGER and k % 2 == 1:
        gp = lambda u: (k + 1) * u + log_dens(math.exp(u))
        gm = lambda u: (k + 1) * u + log_dens(-math.exp(u))
        return math.exp(_log_integral(gp)) - math.exp(_log_integral(gm))
    return math.exp(quadrature_log_moment(log_dens, support, k))


def quadrature_tail(log_dens: Callable, x: float, hi: Optional[float] = None) -> float:
    """Upper tail integral of exp(log_dens) from x, for oracle comparisons."""
    g = lambda u: u + log_dens(math.exp(u))
    lo = math.log(x)
    m = g(lo)
    u = lo
    for _ in range(100000):
        u += 0.5
        m_new = g(u)
        if m_new > m:
            m = m_new
        if m_new < m - _LOG_CUTOFF:
            break
    val, err = quad(lambda t: math.exp(g(t) - m), lo, u, limit=400, epsabs=1e-300, epsrel=1e-12)
    return math.exp(m) * val


# ---------------------------------------------------------------------------
# witness densities with slowly log-modulated exponential tails


@dataclass(frozen=True)
class CounterexampleDensity:
    """Normalized witness density with tail exp(-x^p / (1 + |ln x|^delta)).

    ``stieltjes`` uses p = 1/2 on (0, inf); ``hamburger`` is the symmetric
    p = 1 variant on the real line.  Both have all moments finite, moment
    growth arbitrarily close to (but above) the determinacy threshold, and a
    finite Krein integral.
    """

    case: str
    delta: float
    log_norming: float

    @property
    def support(self) -> str:
        """The support class: Stieltjes or Hamburger."""
        return STIELTJES if self.case == STIELTJES_CASE else HAMBURGER

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.full(x.shape, -np.inf)
        if self.case == STIELTJES_CASE:
            ok = x > 0
            xs = x[ok]
            out[ok] = self.log_norming - np.sqrt(xs) / (1.0 + np.abs(np.log(xs)) ** self.delta)
        else:
            ok = x != 0
            xs = np.abs(x[ok])
            out[ok] = self.log_norming - xs / (1.0 + np.abs(np.log(xs)) ** self.delta)
            # the origin is a removable point: the modulated exponent -> 0
            out[~ok] = self.log_norming
        return float(out[0]) if scalar else out


def build_counterexample(case: str, delta: float) -> CounterexampleDensity:
    """Normalize the witness density numerically; requires delta > 1."""
    if case not in (STIELTJES_CASE, HAMBURGER_CASE):
        raise ValueError(f"case must be {STIELTJES_CASE!r} or {HAMBURGER_CASE!r}")
    if not delta > 1.0:
        raise ValueError(f"delta must be > 1, got {delta!r}")
    unnorm = CounterexampleDensity(case=case, delta=float(delta), log_norming=0.0)
    log_z = quadrature_log_moment(unnorm.log_density, unnorm.support, 0)
    return CounterexampleDensity(case=case, delta=float(delta), log_norming=-log_z)


@dataclass(frozen=True)
class GrowthBoundReport:
    ok: bool
    a: float
    case: str
    window: tuple[int, int]
    window_max: float
    orders: tuple[int, ...]
    ratios: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_growth_bound(cd: CounterexampleDensity, a: float, kmax: int = 40) -> GrowthBoundReport:
    """Check ln m_k / (k ln k) < a on the tail window [kmax/2, kmax].

    Moment orders run over all k (stieltjes) or even k (hamburger, where the
    bound is the even-moment form with the 2a convention).
    """
    if kmax > 60:
        raise ValueError("kmax above 60 exceeds the quadrature reach")
    if not a > 0.0:
        raise ValueError("a must be positive")
    if cd.case == STIELTJES_CASE:
        orders = list(range(2, kmax + 1))
    else:
        orders = list(range(2, kmax + 1, 2))
    ratios = []
    for k in orders:
        lm = quadrature_log_moment(cd.log_density, cd.support, k)
        ratios.append(lm / (k * math.log(k)))
    lo = kmax // 2
    window_vals = [r for k, r in zip(orders, ratios) if lo <= k <= kmax]
    wmax = max(window_vals)
    return GrowthBoundReport(
        ok=wmax < a, a=float(a), case=cd.case, window=(lo, kmax),
        window_max=wmax, orders=tuple(orders), ratios=tuple(ratios),
    )


# ---------------------------------------------------------------------------
# exponent splits from the product lower-bound construction


class ThetaSplitError(ValueError):
    """Infeasible inputs; the message names the violated inequality."""


@dataclass(frozen=True)
class ThetaSplit:
    thetas: tuple[float, ...]
    case: str
    betas: tuple[float, ...]

    def __post_init__(self):
        if abs(math.fsum(self.thetas) - 1.0) > 1e-12:
            raise ThetaSplitError("thetas must sum to 1")


def theta_split(betas: Sequence[float], case: str) -> ThetaSplit:
    """A feasible exponent split theta_1..theta_n for the product lower bound.

    Stieltjes needs 2 theta_i beta_i < 1 for every i (possible exactly when
    sum 1/beta_i > 2); the hamburger variant drops the factor 2.  The first
    n-1 weights share the midpoint of the feasible interval proportionally to
    their caps; theta_n is the residual.
    """
    betas = tuple(float(b) for b in betas)
    if len(betas) < 2:
        raise ThetaSplitError("need at least two factors to split")
    if any(b <= 0 for b in betas):
        raise ThetaSplitError("betas must be positive")
    if case == STIELTJES_CASE:
        caps = [1.0 / (2.0 * b) for b in betas]
        need, thr = "sum(1/beta_i) > 2", 2.0
    elif case == HAMBURGER_CASE:
        caps = [1.0 / b for b in betas]
        need, thr = "sum(1/beta_i) > 1", 1.0
    else:
        raise ThetaSplitError(f"unknown case {case!r}")
    total = sum(1.0 / b for b in betas)
    if not total > thr:
        raise ThetaSplitError(
            f"sum(1/beta_i) = {total:.6g} violates the feasibility requirement {need}")
    lo = max(0.0, 1.0 - caps[-1])
    hi = min(1.0, sum(caps[:-1]))
    if not lo < hi:
        raise ThetaSplitError(
            f"empty feasible interval ({lo:.6g}, {hi:.6g}) for sum of leading thetas")
    s_star = 0.5 * (lo + hi)
    w = sum(caps[:-1])
    thetas = [s_star * c / w for c in caps[:-1]]
    thetas.append(1.0 - math.fsum(thetas))
    split = ThetaSplit(thetas=tuple(thetas), case=case, betas=betas)
    # all postconditions checked before returning
    margin = 2.0 if case == STIELTJES_CASE else 1.0
    for i, (t, b) in enumerate(zip(split.thetas, betas)):
        if not (0.0 < t < 1.0):
            raise ThetaSplitError(f"theta_{i + 1} = {t:.6g} is outside (0, 1)")
        if not margin * t * b < 1.0:
            raise ThetaSplitError(
                f"theta_{i + 1} * beta_{i + 1} = {t * b:.6g} violates "
                f"{'2*' if case == STIELTJES_CASE else ''}theta_i*beta_i < 1")
    return split


# ---------------------------------------------------------------------------
# misc


def stirling_gamma(x: float) -> float:
    """sqrt(2 pi) x^(x - 1/2) e^(-x), the leading gamma-function approximation."""
    if x <= 0:
        raise ValueError("x must be positive")
    return math.sqrt(2.0 * math.pi) * x ** (x - 0.5) * math.exp(-x)


def dominating_threshold(b: float, delta: float) -> Optional[float]:
    """Smallest u0 = ln x0 with sqrt(x) > x^(1/b) (1 + |ln x|^delta) for all ln x >= u0.

    Diagnostic for the growth-bound derivation; None if no threshold below
    e^THRESHOLD_U_MAX exists (the threshold grows explosively as b drops toward 2).
    """
    if not b > 2.0:
        return None
    gap = 0.5 - 1.0 / b
    us = np.linspace(1.0, THRESHOLD_U_MAX, 20000)
    ok = gap * us > np.log1p(us ** delta)
    idx = np.nonzero(~ok)[0]
    if len(idx) == 0:
        return float(us[0])
    if idx[-1] == len(us) - 1:
        return None
    return float(us[idx[-1] + 1])


# ---------------------------------------------------------------------------
# Monte Carlo cross-check


@dataclass(frozen=True)
class MCMomentRow:
    k: int
    empirical: float
    analytic: float
    std_error: float
    z: float
    ok: bool


@dataclass(frozen=True)
class MCReport:
    rows: tuple[MCMomentRow, ...]
    n: int
    seed: object
    ok: bool


def mc_cross_check(p: ProductSpec, seed, n: int, kmax: int = 4) -> MCReport:
    """Empirical product moments versus the analytic ones, within MC_SIGMAS
    standard errors; failures are reported, never raised."""
    if not 1 <= kmax <= MC_KMAX:
        raise ValueError(f"kmax must be from 1 to {MC_KMAX} (the Monte Carlo reach)")
    if n < MC_MIN_SAMPLES:
        raise ValueError("n must be at least 1e5 for the standard errors to mean anything")
    z = sample_product(p, seed, n)
    rows = []
    for k in range(1, kmax + 1):
        zk = z ** k
        emp = float(np.mean(zk))
        se = float(np.std(zk, ddof=1) / math.sqrt(n))
        lt = math.fsum(log_moment(d, k) for d in p.factors)
        target = 0.0 if lt == -math.inf else math.exp(lt)
        zscore = (emp - target) / se if se > 0 else math.inf
        rows.append(MCMomentRow(k=k, empirical=emp, analytic=target,
                                std_error=se, z=zscore, ok=abs(zscore) <= MC_SIGMAS))
    return MCReport(rows=tuple(rows), n=n, seed=seed, ok=all(r.ok for r in rows))
