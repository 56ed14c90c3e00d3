"""Independent numerical oracles: adaptive quadrature moments, the slowly
log-modulated witness densities, exponent-split construction and Monte Carlo
cross-checks.

The quadrature works in u = ln x coordinates with the integrand rescaled by
its peak value, so results are exact in log space no matter how large the
moment order gets.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

from .distributions import (
    HAMBURGER,
    MOMENT_STEP,
    STIELTJES,
    ProductSpec,
    _OnFirstUse,
    log_density_on_support,
    log_moment,
    moment_threshold,
    sample_product,
)

np = _OnFirstUse(globals(), "np", "numpy")
integrate = _OnFirstUse(globals(), "integrate", "scipy.integrate")
optimize = _OnFirstUse(globals(), "optimize", "scipy.optimize")

# quadrature supports, named by their support class
POSITIVE_HALF_LINE = STIELTJES
REAL_LINE = HAMBURGER

# witness names, as the CLI and ``build_counterexample`` take them: the class in lower case
STIELTJES_CASE, HAMBURGER_CASE = STIELTJES.lower(), HAMBURGER.lower()
_WITNESS_SUPPORT = {STIELTJES_CASE: STIELTJES, HAMBURGER_CASE: HAMBURGER}

# Log-integrand drop below the peak at which the remainder is negligible:
# the decay rate past the cutoff is at least 1 per unit u for every density
# in scope, so the discarded mass is < e^-80 of the estimate (< 1e-12 easily).
_LOG_CUTOFF = 80.0
# largest u for which e^u is a finite float
_U_MAX = math.log(sys.float_info.max)

_LOG_DENS_CONTRACT = "log_dens must take an array of x and return an array of the same shape"

# Monte Carlo: fewest samples for which the standard errors mean anything,
# highest usable moment order, and the pass band in standard errors
MC_MIN_SAMPLES = 10 ** 5
MC_KMAX = 8
MC_SIGMAS = 4.0


class QuadratureError(RuntimeError):
    """Quadrature did not converge; carries the partial estimate."""

    def __init__(self, message: str, partial: float):
        super().__init__(f"{message} (partial estimate {partial!r})")
        self.partial = partial


def _log_integral(log_dens: Callable, power: float, sign: float = 1.0) -> float:
    """ln of the integral of exp(power u + log_dens(sign e^u)) du over the real
    line, that is ln of the integral of |x|^(power-1) f(x) over sign x > 0.

    The integrand must be unimodal-ish and tend to -inf on both sides.  The
    scan window, widened while the peak sits at an edge, is one array call of
    ``log_dens``, which must take an array of x and return ln f of the same
    shape.  The peak search, the cutoff walk and ``quad`` use the scalar
    integrand, so the integral never depends on how ``log_dens`` handles
    arrays.
    """
    def g(u):
        return power * u + log_dens(sign * math.exp(u))

    lo, hi = -60.0, 60.0
    i = 0
    for _ in range(40):
        if hi > _U_MAX:
            raise OverflowError(f"scan window reaches u = {hi:g}, where e^u overflows")
        us = np.linspace(lo, hi, 2001)
        gs = power * us + _log_dens_on_array(log_dens, sign * np.exp(us))
        i = int(np.argmax(gs))
        if 0 < i < len(us) - 1:
            break
        lo, hi = lo - 40.0, hi + 40.0
    else:
        raise QuadratureError("no interior integrand peak found", float("nan"))
    res = optimize.minimize_scalar(lambda u: -g(u), bracket=(us[i - 1], us[i], us[i + 1]))
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
    i1, e1 = integrate.quad(f, ulo, u0, limit=300, epsabs=1e-14, epsrel=1e-12)
    i2, e2 = integrate.quad(f, u0, uhi, limit=300, epsabs=1e-14, epsrel=1e-12)
    total = i1 + i2
    if total <= 0.0 or (e1 + e2) > 1e-8 * total:
        raise QuadratureError("quadrature failed to converge", m + math.log(max(total, 1e-300)))
    return m + math.log(total)


def _log_dens_on_array(log_dens: Callable, x: np.ndarray) -> np.ndarray:
    """log_dens(x) for an array x, held to the array contract."""
    try:
        out = log_dens(x)
    except (TypeError, ValueError) as e:  # scalar-only code fails on an array
        raise ValueError(_LOG_DENS_CONTRACT) from e
    if np.shape(out) != x.shape:
        raise ValueError(f"{_LOG_DENS_CONTRACT}; got shape {np.shape(out)} for {x.shape}")
    return out


def quadrature_log_moment(log_dens: Callable, support: str, k: int) -> float:
    """ln of the k-th moment by adaptive quadrature (k >= 0).

    For the real line this is the absolute-moment form and therefore valid
    for even k (and k = 0) only; odd real-line moments go through
    ``quadrature_moment``.

    ``log_dens`` must take an array of x and return ln f of the same shape
    (``distributions.log_density`` and ``CounterexampleDensity.log_density``
    do); otherwise ``ValueError`` names this contract.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if support == STIELTJES:
        return _log_integral(log_dens, k + 1)
    if support == HAMBURGER:
        if k % 2 == 1:
            raise ValueError("odd real-line moments are signed; use quadrature_moment")
        return float(np.logaddexp(_log_integral(log_dens, k + 1),
                                  _log_integral(log_dens, k + 1, -1.0)))
    raise ValueError(f"unknown support {support!r}")


def quadrature_moment(log_dens: Callable, support: str, k: int) -> float:
    """The k-th moment by adaptive quadrature; tail mass bound < 1e-12 relative.

    ``log_dens`` must take an array of x and return ln f of the same shape,
    as for ``quadrature_log_moment``.
    """
    if support == HAMBURGER and k % 2 == 1:
        return math.exp(_log_integral(log_dens, k + 1)) \
            - math.exp(_log_integral(log_dens, k + 1, -1.0))
    return math.exp(quadrature_log_moment(log_dens, support, k))


def quadrature_log_tail(log_dens: Callable, x: float) -> float:
    """ln of the upper tail integral of exp(log_dens) from x > 0, for oracle
    comparisons; finite also where the tail is below the float range."""
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
    val, _ = integrate.quad(lambda t: math.exp(g(t) - m), lo, u, limit=400, epsabs=1e-300, epsrel=1e-12)
    return m + math.log(val)


# ---------------------------------------------------------------------------
# witness densities with slowly log-modulated exponential tails


class CounterexampleDensity(NamedTuple):
    """Normalized witness density with tail exp(-x^p / (1 + |ln x|^delta)).

    The Stieltjes witness uses p = 1/2 on (0, inf); the Hamburger one is the
    symmetric p = 1 variant on the real line.  Both have all moments finite,
    moment growth arbitrarily close to (but above) the determinacy
    threshold, and a finite Krein integral.
    """

    support: str
    delta: float
    log_norming: float

    def _log_density_pos(self, x):
        # ln f at 0 < |x| < inf, for an array or a float x: one closed
        # form with the same ufuncs for both routes, so both give the same bits
        head = np.sqrt(x) if self.support == STIELTJES else x
        return self.log_norming - head / (1.0 + np.power(np.abs(np.log(x)), self.delta))

    def _log_density_at_zero(self) -> float:
        # on the real line the origin is a removable point: the modulated
        # exponent -> 0; the half line (0, inf) excludes it
        return self.log_norming if self.support == HAMBURGER else -math.inf

    def log_density(self, x):
        """ln f(x) for a scalar (without building an array) or an array x;
        -inf off the support, at +-inf and at nan."""
        return log_density_on_support(CounterexampleDensity._log_density_pos,
                                      CounterexampleDensity._log_density_at_zero, self, x,
                                      symmetric=self.support == HAMBURGER)


def build_counterexample(case: str, delta: float) -> CounterexampleDensity:
    """Normalize the witness density named ``case`` numerically; requires a finite delta > 1."""
    if case not in _WITNESS_SUPPORT:
        raise ValueError(f"case must be {STIELTJES_CASE!r} or {HAMBURGER_CASE!r}")
    if not 1.0 < delta < math.inf:
        raise ValueError(f"delta must be a finite number > 1, got {delta!r}")
    support = _WITNESS_SUPPORT[case]
    unnorm = CounterexampleDensity(support=support, delta=float(delta), log_norming=0.0)
    log_z = quadrature_log_moment(unnorm.log_density, support, 0)
    return CounterexampleDensity(support=support, delta=float(delta), log_norming=-log_z)


class GrowthBoundReport(NamedTuple):
    ok: bool
    a: float
    support: str
    window: tuple[int, int]
    window_max: float
    orders: tuple[int, ...]
    ratios: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_growth_bound(cd: CounterexampleDensity, a: float, kmax: int = 40) -> GrowthBoundReport:
    """Check ln m_k / (k ln k) < a on the tail window [kmax/2, kmax].

    Moment orders run from 2 in the witness's moment step: all k on the half
    line, even k on the real line (the even-moment form, 2a convention).
    """
    if not 2 <= kmax <= 60:
        raise ValueError("kmax must be from 2 (the first order checked) to 60 "
                         f"(the quadrature reach), got {kmax!r}")
    if not a > 0.0:
        raise ValueError("a must be positive")
    orders = list(range(2, kmax + 1, MOMENT_STEP[cd.support]))
    ratios = []
    for k in orders:
        lm = quadrature_log_moment(cd.log_density, cd.support, k)
        ratios.append(lm / (k * math.log(k)))
    lo = kmax // 2
    window_vals = [r for k, r in zip(orders, ratios) if lo <= k <= kmax]
    wmax = max(window_vals)
    return GrowthBoundReport(
        ok=wmax < a, a=float(a), support=cd.support, window=(lo, kmax),
        window_max=wmax, orders=tuple(orders), ratios=tuple(ratios),
    )


# ---------------------------------------------------------------------------
# exponent splits from the product lower-bound construction


class ThetaSplitError(ValueError):
    """Infeasible inputs; the message names the violated inequality."""


class _ThetaSplitFields(NamedTuple):
    thetas: tuple[float, ...]
    support: str
    betas: tuple[float, ...]


class ThetaSplit(_ThetaSplitFields):
    """Exponent weights theta_i of the product lower bound; every
    construction, ``_replace`` included, checks that they sum to 1."""

    __slots__ = ()

    def __new__(cls, thetas: tuple[float, ...], support: str,
                betas: tuple[float, ...]) -> "ThetaSplit":
        if abs(math.fsum(thetas) - 1.0) > 1e-12:
            raise ThetaSplitError("thetas must sum to 1")
        return super().__new__(cls, thetas, support, betas)

    @classmethod
    def _make(cls, iterable) -> "ThetaSplit":
        return cls(*iterable)


def theta_split(betas: Sequence[float], case: str) -> ThetaSplit:
    """A feasible exponent split theta_1..theta_n for the product lower bound.

    Every i needs thr theta_i beta_i < 1, with thr the threshold of the
    witness's support class, possible exactly when sum 1/beta_i > thr.  The
    first n-1 weights share the midpoint of the feasible interval
    proportionally to their caps 1/(thr beta_i); theta_n is the residual.
    """
    betas = tuple(float(b) for b in betas)
    if len(betas) < 2:
        raise ThetaSplitError("need at least two factors to split")
    if any(b <= 0 for b in betas):
        raise ThetaSplitError("betas must be positive")
    if case not in _WITNESS_SUPPORT:
        raise ThetaSplitError(f"unknown case {case!r}")
    support = _WITNESS_SUPPORT[case]
    thr = moment_threshold(support)
    caps = [1.0 / (thr * b) for b in betas]
    total = sum(1.0 / b for b in betas)
    if not total > thr:
        raise ThetaSplitError(f"sum(1/beta_i) = {total:.6g} violates the feasibility "
                              f"requirement sum(1/beta_i) > {thr:g}")
    lo = max(0.0, 1.0 - caps[-1])
    hi = min(1.0, sum(caps[:-1]))
    if not lo < hi:
        raise ThetaSplitError(
            f"empty feasible interval ({lo:.6g}, {hi:.6g}) for sum of leading thetas")
    s_star = 0.5 * (lo + hi)
    w = sum(caps[:-1])
    thetas = [s_star * c / w for c in caps[:-1]]
    thetas.append(1.0 - math.fsum(thetas))
    split = ThetaSplit(thetas=tuple(thetas), support=support, betas=betas)
    # all postconditions checked before returning
    for i, (t, b) in enumerate(zip(split.thetas, betas)):
        if not (0.0 < t < 1.0):
            raise ThetaSplitError(f"theta_{i + 1} = {t:.6g} is outside (0, 1)")
        if not thr * t * b < 1.0:
            raise ThetaSplitError(
                f"theta_{i + 1} * beta_{i + 1} = {t * b:.6g} violates "
                f"{'2*' if thr == 2.0 else ''}theta_i*beta_i < 1")
    return split


# ---------------------------------------------------------------------------
# Monte Carlo cross-check


class MCMomentRow(NamedTuple):
    k: int
    empirical: float
    analytic: float
    std_error: float
    z: float
    ok: bool


class MCReport(NamedTuple):
    rows: tuple[MCMomentRow, ...]
    n: int
    seed: object
    ok: bool


def mc_cross_check(p: ProductSpec, seed, n: int, kmax: int = 4) -> MCReport:
    """Empirical product moments versus the analytic ones, within MC_SIGMAS
    standard errors; a moment outside that band is reported, not raised.

    The k-th power of each sample is taken as |z|^k, with the sign of z
    restored for odd k, so samples of either sign go through the same power
    kernel.  On a half-line product every row has the bits of z^k; on a
    real-line product the rows can differ from z^k in the last bits.

    Samples past the float range raise ``OverflowError`` before any moment is
    taken.
    """
    if not 1 <= kmax <= MC_KMAX:
        raise ValueError(f"kmax must be from 1 to {MC_KMAX} (the Monte Carlo reach)")
    if n < MC_MIN_SAMPLES:
        raise ValueError("n must be at least 1e5 for the standard errors to mean anything")
    z = sample_product(p, seed, n)
    finite = np.isfinite(z)
    if not finite.all():
        raise OverflowError(f"{n - int(np.count_nonzero(finite))} of {n} product samples "
                            "are not finite (the draws pass the float range)")
    # a negative base takes NumPy's scalar pow, many times slower than |z|^k
    az = np.abs(z)
    rows = []
    for k in range(1, kmax + 1):
        zk = az ** k
        if k % 2 == 1:
            np.copysign(zk, z, out=zk)
        emp = float(np.mean(zk))
        se = float(np.std(zk, ddof=1) / math.sqrt(n))
        lt = math.fsum(log_moment(d, k) for d in p.factors)
        target = 0.0 if lt == -math.inf else math.exp(lt)
        zscore = (emp - target) / se if se > 0 else math.inf
        rows.append(MCMomentRow(k=k, empirical=emp, analytic=target,
                                std_error=se, z=zscore, ok=abs(zscore) <= MC_SIGMAS))
    return MCReport(rows=tuple(rows), n=n, seed=seed, ok=all(r.ok for r in rows))
