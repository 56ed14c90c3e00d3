"""Distribution algebra for the three parametric families GG, DGG and IG.

GG(alpha, beta, gamma)  density  c x^(gamma-1) exp(-alpha x^beta) on [0, inf),
DGG(alpha, beta, gamma) density  c |x|^(gamma-1) exp(-alpha |x|^beta) on R (symmetric),
IG(mu, lam)             the inverse Gaussian density on (0, inf).

Everything is computed in natural-log space so that moments up to order
several hundred stay representable.
"""
from __future__ import annotations

import importlib
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union


class _OnFirstUse:
    """A module's global ``name`` until the module first uses ``module``.

    The first attribute lookup imports ``module`` and rebinds ``name`` in the
    owning module's globals, so later uses are plain global lookups and a
    decision, which never looks, loads neither NumPy nor SciPy.  The import
    holds the import system's lock on ``module``, as the ``import`` statement
    does, so a second thread waits for the complete module.  No module may
    touch such a name while it is being imported.
    """

    __slots__ = ("_namespace", "_name", "_module")

    def __init__(self, namespace: dict, name: str, module: str):
        self._namespace = namespace
        self._name = name
        self._module = module

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._module)
        self._namespace[self._name] = module
        return getattr(module, attr)


np = _OnFirstUse(globals(), "np", "numpy")
special = _OnFirstUse(globals(), "special", "scipy.special")

GG = "GG"
DGG = "DGG"
IG = "IG"

STIELTJES = "Stieltjes"
HAMBURGER = "Hamburger"
MIXED = "Mixed"

# support class -> step of the moment orders it is decided on: every order on
# the half line, the even ones on the real line and for mixed products.  The
# growth-exponent threshold of a class is 2/step.
MOMENT_STEP = {STIELTJES: 1, HAMBURGER: 2, MIXED: 2}

LOG_2PI = math.log(2.0 * math.pi)

ParamLike = Union[int, float, str, Fraction]

# Floats are snapped to a nearby small-denominator rational only when they
# round-trip, so 0.5 becomes 1/2 but 0.500000001 stays a plain float.
_SNAP_MAX_DEN = 1000
_SNAP_REL_TOL = 1e-12
# relative step of the central difference in lin_L_numeric
LIN_REL_STEP = 1e-5
# the IG tail takes the Mills-ratio difference M(a) - M(a + h) from
# MILLS_TERMS terms of its asymptotic series from a = MILLS_SERIES_FROM on,
# and of its Taylor series in h below it for h <= MILLS_TAYLOR_STEP; the
# first omitted term is then below 1e-16 of the sum
MILLS_SERIES_FROM = 20.0
MILLS_TAYLOR_STEP = 0.1
MILLS_TERMS = 20


def exact_rational(value: ParamLike) -> Optional[Fraction]:
    """Best-effort exact rational for a parameter, or None for generic floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:  # "1/0"
            raise ValueError(f"{value!r} has a zero denominator") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        cand = Fraction(value).limit_denominator(_SNAP_MAX_DEN)
        if cand != 0 and abs(float(cand) - value) <= _SNAP_REL_TOL * abs(value):
            return cand
        return None
    return None


def _as_param(value: ParamLike, name: str) -> tuple[float, Optional[Fraction]]:
    """(float, exact rational or None) of a parameter; ValueError naming ``name``
    for anything but a finite positive number or rational string."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise ValueError(f"{name} must be a number or a rational string, got {value!r}")
    try:
        exact = exact_rational(value)
        x = float(exact) if isinstance(value, (str, Fraction)) else float(value)
    except (ValueError, OverflowError):  # "abc", "1/0", "1e400"
        x = math.nan
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return x, exact


@dataclass(frozen=True)
class DistributionSpec:
    """One factor: a tagged family with strictly positive parameters.

    ``beta_exact`` keeps the shape exponent as an exact rational when the
    input allows it; the decision engine uses it for sharp threshold
    arithmetic.  All numerics use the float fields.
    """

    family: str
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    mu: float = 1.0
    lam: float = 1.0
    beta_exact: Optional[Fraction] = field(default=None, compare=False)

    def __post_init__(self):
        if self.family not in (GG, DGG, IG):
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("alpha", "beta", "gamma", "mu", "lam"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")

    @property
    def support(self) -> str:
        return HAMBURGER if self.family == DGG else STIELTJES

    def __str__(self) -> str:
        if self.family == IG:
            return f"IG(mu={self.mu:g}, lambda={self.lam:g})"
        return f"{self.family}(alpha={self.alpha:g}, beta={self.beta:g}, gamma={self.gamma:g})"


def gg(alpha: ParamLike, beta: ParamLike, gamma: ParamLike) -> DistributionSpec:
    a, _ = _as_param(alpha, "alpha")
    b, b_exact = _as_param(beta, "beta")
    g, _ = _as_param(gamma, "gamma")
    return DistributionSpec(GG, alpha=a, beta=b, gamma=g, beta_exact=b_exact)


def dgg(alpha: ParamLike, beta: ParamLike, gamma: ParamLike) -> DistributionSpec:
    a, _ = _as_param(alpha, "alpha")
    b, b_exact = _as_param(beta, "beta")
    g, _ = _as_param(gamma, "gamma")
    return DistributionSpec(DGG, alpha=a, beta=b, gamma=g, beta_exact=b_exact)


def ig(mu: ParamLike, lam: ParamLike) -> DistributionSpec:
    m, _ = _as_param(mu, "mu")
    l, _ = _as_param(lam, "lambda")
    return DistributionSpec(IG, mu=m, lam=l)


def exponential(rate: ParamLike = 1) -> DistributionSpec:
    """Exp(rate) == GG(rate, 1, 1)."""
    _as_param(rate, "rate")
    return gg(rate, 1, 1)


def chi_square(nu: ParamLike) -> DistributionSpec:
    """chi-square(nu) == GG(1/2, 1, nu/2)."""
    n, n_exact = _as_param(nu, "nu")
    half_nu = n_exact / 2 if n_exact is not None else n / 2.0
    return gg(Fraction(1, 2), 1, half_nu)


def std_normal() -> DistributionSpec:
    """Standard normal == DGG(1/2, 2, 1)."""
    return dgg(Fraction(1, 2), 2, 1)


def half_normal() -> DistributionSpec:
    """|N(0,1)| == GG(1/2, 2, 1)."""
    return gg(Fraction(1, 2), 2, 1)


@dataclass(frozen=True)
class ProductSpec:
    """Ordered list of independent factors."""

    factors: tuple[DistributionSpec, ...]

    def __init__(self, factors: Iterable[DistributionSpec]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a product needs at least one factor")
        object.__setattr__(self, "factors", factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return " * ".join(str(f) for f in self.factors)


def support_class(p: ProductSpec) -> str:
    """The factors' common support class, Mixed if they differ."""
    supports = {f.support for f in p.factors}
    return supports.pop() if len(supports) == 1 else MIXED


def moment_threshold(support: str) -> float:
    """The growth-exponent threshold of a support class, 2/step."""
    return 2.0 / MOMENT_STEP[support]


# ---------------------------------------------------------------------------
# densities


def _log_norming(d: DistributionSpec) -> float:
    # GG: c = beta alpha^(gamma/beta) / Gamma(gamma/beta); DGG halves it.
    s = d.gamma / d.beta
    lc = math.log(d.beta) + s * math.log(d.alpha) - special.gammaln(s)
    if d.family == DGG:
        lc -= math.log(2.0)
    return lc


def _log_density_pos(d: DistributionSpec, x):
    """ln f at points 0 < |x| < inf of the support, for an array or a float x.

    Both routes of ``log_density`` evaluate this one closed form with the same
    NumPy ufuncs and IEEE operations, so a point gets the same bits as a
    scalar and in an array.  Where the density underflows, a float x
    overflows quietly in Python arithmetic; where alpha x^beta is above 1e307,
    near enough to the float range for ``np.power`` to warn, it raises
    OverflowError, and ``log_density_on_support`` takes it as an array.
    """
    if d.family == IG:
        return 0.5 * (math.log(d.lam) - LOG_2PI - 3.0 * np.log(x)) - _ig_exponent(d, x)
    if not isinstance(x, float):
        return _log_norming(d) + (d.gamma - 1.0) * np.log(x) - _gg_exponent(d, x)[0]
    if x > 1.0 and d.alpha * x ** d.beta > 1e307:
        raise OverflowError("alpha x^beta near the float range")
    return _log_norming(d) + (d.gamma - 1.0) * np.log(x) - d.alpha * np.power(x, d.beta)


def _gg_exponent(d: DistributionSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, ln z) for z = alpha x^beta at an array x > 0; where x^beta overflows,
    ln z = ln alpha + beta ln x and z = exp(ln z), inf if alpha x^beta is too."""
    z = d.alpha * np.power(x, d.beta)
    ln_z = np.log(z)
    over = z == math.inf
    if over.any():
        ln_z[over] = math.log(d.alpha) + d.beta * np.log(x[over])
        z[over] = np.exp(ln_z[over])
    return z, ln_z


def _ig_exponent(d: DistributionSpec, x):
    """lam (x - mu)^2 / (2 mu^2 x) at a float or an array x > 0.  Where mu^2
    overflows or the form reads inf/inf it is lam ((x - mu)/mu)^2 / x / 2, never
    nan; a float raises FloatingPointError at inf/inf and takes the array route."""
    t = x - d.mu
    try:
        e = d.lam * (t * t) / (2.0 * d.mu ** 2 * x)
    except OverflowError:                           # mu^2 past the float range
        t = t / d.mu
        return d.lam * (t * t) / x / 2.0
    if not isinstance(e, float):
        nan = np.isnan(e)
        t = t[nan] / d.mu
        e[nan] = d.lam * (t * t) / x[nan] / 2.0
    elif e != e:
        raise FloatingPointError("inf/inf in the IG exponent")
    return e


def _log_density_at_zero(d: DistributionSpec) -> float:
    # f(0) is finite and positive only for GG/DGG with gamma == 1; elsewhere
    # the single point 0 is given f(0) = 0
    return _log_norming(d) if d.family != IG and d.gamma == 1.0 else -math.inf


def log_density(d: DistributionSpec, x):
    """ln f(x); -inf where f vanishes (off the support, at +-inf and nan, or
    the f(0) = 0 convention).  Scalar or array x."""
    return log_density_on_support(_log_density_pos, _log_density_at_zero, d, x,
                                  symmetric=d.family == DGG)


def log_density_on_support(log_pos, log_at_zero, owner, x, symmetric: bool):
    """ln f(x) of a density given by its closed form ``log_pos(owner, |x|)``
    for |x| > 0 and its value ``log_at_zero(owner)`` at 0.

    The one support rule of every log-density: x == 0 (also -0.0) gives the
    value at 0; a point with 0 < |x| < inf on the support (x > 0, or x != 0
    when ``symmetric``) gives the closed form; everything else, including
    +-inf and nan, gives -inf.  ``log_at_zero`` is called only when a point
    is 0.  A scalar x is evaluated as a Python float, without building an
    array or entering ``np.errstate``, through the same closed form as the
    array route, so both give the same bits; where that raises an
    ArithmeticError (x/0, or an overflow the closed form guards against),
    the point takes the array route.  Neither route warns where f underflows.
    """
    if isinstance(x, float) or np.ndim(x) == 0:   # np.ndim builds an array for a float
        x = float(x)
        ax = abs(x) if symmetric else x
        if 0.0 < ax < math.inf:
            try:
                return float(log_pos(owner, ax))
            except ArithmeticError:
                return float(log_density_on_support(log_pos, log_at_zero, owner, [x], symmetric)[0])
        return float(log_at_zero(owner)) if x == 0.0 else -math.inf
    x = np.asarray(x, dtype=float)
    ax = np.abs(x) if symmetric else x
    ok = (ax > 0.0) & (ax < math.inf)
    out = np.full(x.shape, -np.inf)
    with np.errstate(all="ignore"):
        out[ok] = log_pos(owner, ax[ok])
    zero = x == 0.0
    if zero.any():
        out[zero] = log_at_zero(owner)
    return out


# ---------------------------------------------------------------------------
# moments


def log_moment(d: DistributionSpec, k):
    """ln E[X^k] in closed form for an order or an array of orders; -inf for
    the vanishing odd moments of DGG.

    Orders are a one-row case of ``log_moments``, so a product's matrix, a
    moment sequence and its single entries agree bit for bit.
    """
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu" or np.any(ks < 1):
        raise ValueError("moment order k must be an integer >= 1")
    out = log_moments((d,), ks.ravel())[0].reshape(ks.shape)
    return float(out) if ks.ndim == 0 else out


def log_moments(factors: tuple[DistributionSpec, ...], ks: np.ndarray) -> np.ndarray:
    """ln E[X^k] of each factor (rows) at the 1-d orders ks >= 1 (columns):
    the GG and DGG rows from one expression with their parameters as column
    vectors, the IG rows from their recurrence."""
    out = np.empty((len(factors), len(ks)))
    rows = [i for i, d in enumerate(factors) if d.family != IG]
    if rows:
        ln_alpha, beta, gamma, s = np.array([(math.log(d.alpha), d.beta, d.gamma, d.gamma / d.beta)
                                             for d in [factors[i] for i in rows]]).T[:, :, None]
        out[rows] = (-ks / beta) * ln_alpha + special.gammaln((gamma + ks) / beta) \
            - special.gammaln(s)
    for i, d in enumerate(factors):
        if d.family == IG:
            out[i] = _ig_log_moments(d, int(ks.max()))[ks]
        elif d.family == DGG:
            out[i, ks % 2 == 1] = -np.inf
    return out


def _ig_log_moments(d: DistributionSpec, k_max: int) -> np.ndarray:
    # ln m_0 .. ln m_kmax from the three-term recurrence
    #   m_(k+1) = (2k-1) (mu^2/lam) m_k + mu^2 m_(k-1),  m_0 = 1, m_1 = mu,
    # divided by m_k: the ratios r_k = m_k / m_(k-1) obey
    #   r_(k+1) = (2k-1) mu^2/lam + mu^2 / r_k,  r_1 = mu.
    # Both terms are positive, so their log-sum is stable; ln m_k is the
    # compensated (Neumaier) running sum of ln r_j.
    log_mu2 = 2.0 * math.log(d.mu)
    log_c = (np.log(np.arange(1, 2 * k_max, 2, dtype=float)) + (log_mu2 - math.log(d.lam))).tolist()
    log_r = total = math.log(d.mu)
    comp = 0.0
    out = [0.0, total]
    append, log1p, exp = out.append, math.log1p, math.exp
    for a in log_c[:k_max - 1]:
        b = log_mu2 - log_r
        log_r = a + log1p(exp(b - a)) if a >= b else b + log1p(exp(a - b))
        t = total + log_r
        comp += (total - t) + log_r if abs(total) >= abs(log_r) else (log_r - t) + total
        total = t
        append(total + comp)
    return np.array(out)


def moment(d: DistributionSpec, k: int) -> float:
    lm = log_moment(d, k)
    return 0.0 if lm == -math.inf else math.exp(lm)


# ---------------------------------------------------------------------------
# tails and hazards


def _log_upper_gamma_cf(s: float, z: np.ndarray) -> np.ndarray:
    # ln of the Lentz continued fraction for Gamma(s, z) / (z^s e^-z),
    # elementwise; reliable for z well above s, which is the only regime we
    # use it in.  Converged elements are frozen while the rest iterate.
    tiny = 1e-300
    b = z + 1.0 - s
    c = np.full(z.shape, 1.0 / tiny)
    dd = 1.0 / b
    h = dd
    active = np.ones(z.shape, dtype=bool)
    for i in range(1, 600):
        an = -i * (i - s)
        b = b + 2.0
        dd = an * dd + b
        dd = np.where(np.abs(dd) < tiny, tiny, dd)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        dd = 1.0 / dd
        delta = dd * c
        h = np.where(active, h * delta, h)
        active &= np.abs(delta - 1.0) >= 1e-16
        if not active.any():
            break
    return np.log(h)


def _log_gammaincc(d: DistributionSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln Q(s, z), ln(Q(s, z) e^z)) at s = gamma/beta and z = alpha x^beta for
    finite x > 0, with Q the regularized upper incomplete gamma, elementwise;
    the second stays accurate where Q underflows.  Where alpha x^beta
    overflows, ln z is taken in log space (``_gg_exponent``), and the
    continued fraction by its limit 1/z where z itself overflows."""
    s = d.gamma / d.beta
    z, ln_z = _gg_exponent(d, x)
    lq = np.zeros(z.shape)                            # the z == 0 value
    near = (z > 0.0) & (z < s + 30.0)
    zn = z[near]
    p = special.gammainc(s, zn)                       # P = 1 - Q
    ln_q = np.log1p(-p)                               # keeps the digits of Q near 1
    ln_q[p > 0.5] = np.log(special.gammaincc(s, zn[p > 0.5]))
    lq[near] = ln_q
    scaled = lq + z
    far = z >= s + 30.0
    zf = z[far]
    if zf.size:
        log_cf = -ln_z[far]
        fin = zf < math.inf
        log_cf[fin] = _log_upper_gamma_cf(s, zf[fin])
        scaled[far] = s * ln_z[far] - special.gammaln(s) + log_cf
        lq[far] = scaled[far] - zf
    return lq, scaled


def _gg_tails(d: DistributionSpec, x: np.ndarray) -> tuple:
    # the rows of _tails for GG and DGG: one incomplete-gamma pass gives
    # the tail and its scaled form, DGG takes half of each, and the hazard is
    # the scaled density over the scaled tail, so exp(-alpha x^beta) cancels
    # analytically
    lq, scaled = _log_gammaincc(d, x)
    if d.family == DGG:
        lq, scaled = math.log(0.5) + lq, scaled + math.log(0.5)
    density = _log_norming(d) + (d.gamma - 1.0) * np.log(x)
    return lq, scaled, density, density - scaled


def _log_mills_difference(a: np.ndarray, ln_a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """ln(M(a) - M(a + h)) for a > 0 (also a = inf, with ln a finite) and
    h > 0, elementwise, with M(t) = Phi(-t)/phi(t) = sqrt(pi/2) erfcx(t/sqrt 2)
    the normal Mills ratio.

    Nothing is subtracted that cancels when h is small against a, and nothing
    under- or overflows where the difference or a are past the float range:
    - from a = MILLS_SERIES_FROM on, the asymptotic series
      M(t) ~ sum_m (-1)^m (2m-1)!! t^-(2m+1) is differenced term by term.
      With b = a + h and q = a/b, a^-n - b^-n = a^-n (h/b) E_n with
      E_n = 1 + q + ... + q^(n-1), a sum of positive terms, and the common
      factor h/(a b) is taken in log space from ln a and ln(h/a);
    - below it, for h <= MILLS_TAYLOR_STEP, the Taylor series in h about a,
      -sum_(n>=1) D_n h^n with D_n = M^(n)(a)/n!, which M' = tM - 1 turns
      into D_(n+1) = (a D_n + D_(n-1))/(n+1);
    - otherwise the two erfcx values are subtracted.
    """
    out = np.empty(a.shape)
    far = a >= MILLS_SERIES_FROM
    if far.any():
        ln_h, ln_af = np.log(h[far]), ln_a[far]
        ratio = np.exp(ln_h - ln_af)                  # h/a
        q = 1.0 / (1.0 + ratio)
        inv_a2 = np.exp(-2.0 * ln_af)
        power = np.ones(q.shape)                      # a^-2m
        coef, total = 1.0, np.zeros(q.shape)          # (-1)^m (2m-1)!!
        e_n, q_n = np.ones(q.shape), q                # E_(2m+1), q^(2m+1)
        for m in range(MILLS_TERMS):
            total += coef * power * e_n
            e_n = e_n + q_n * (1.0 + q)
            q_n = q_n * (q * q)
            coef *= -(2 * m + 1)
            power = power * inv_a2
        out[far] = ln_h - 2.0 * ln_af - np.log1p(ratio) + np.log(total)
    a, h = a[~far], h[~far]
    mills_a = np.sqrt(np.pi / 2.0) * special.erfcx(a / math.sqrt(2.0))
    diff = mills_a - np.sqrt(np.pi / 2.0) * special.erfcx((a + h) / math.sqrt(2.0))
    near = h <= MILLS_TAYLOR_STEP
    if near.any():
        an, hn = a[near], h[near]
        d_prev, d = mills_a[near], an * mills_a[near] - 1.0   # D_0, D_1
        power = hn
        total = -d * power
        for n in range(1, MILLS_TERMS):
            d_prev, d = d, (an * d + d_prev) / (n + 1)
            power = power * hn
            total -= d * power
        diff[near] = total
    out[~far] = np.log(diff)
    return out


def _ig_tails(d: DistributionSpec, x: np.ndarray) -> np.ndarray:
    # the rows of _tails for IG.  1 - F = Phi(-a) - e^(2 lam/mu) Phi(-b)
    # with a, b = sqrt(lam/x) (x/mu -+ 1).  For a > 0 this is phi(a) D with D
    # = M(a) - M(b), exactly, since b^2 - a^2 = 4 lam/mu; the Mills-ratio
    # difference keeps its precision far into the tail, and as f =
    # sqrt(lam/x^3) phi(a), ln h = (ln lam - 3 ln x)/2 - ln D needs no
    # subtraction.  The scaled forms use -a^2/2 + lam x/(2 mu^2) = lam/mu -
    # lam/(2x).  For a <= 0 the first term dominates and log_ndtr serves.
    rt = math.sqrt(d.lam) / np.sqrt(x)                # sqrt(lam/x), also where lam/x underflows
    a_mu = rt * (x - d.mu)                            # a mu, finite at every finite x
    a = a_mu / d.mu                                   # inf only where a itself overflows
    half = 0.5 * (math.log(d.lam) - 3.0 * np.log(x))  # ln sqrt(lam/x^3)
    shift = d.lam / d.mu - d.lam / (2.0 * x)
    out = np.empty((4, x.size))
    out[2] = half - 0.5 * LOG_2PI + shift
    right = a > 0.0
    ar = a[right]
    ln_d = _log_mills_difference(ar, np.log(a_mu[right]) - math.log(d.mu), 2.0 * rt[right])
    out[0, right] = ln_d - 0.5 * LOG_2PI - 0.5 * ar * ar
    out[1, right] = ln_d - 0.5 * LOG_2PI + shift[right]
    out[3, right] = half[right] - ln_d
    left = ~right
    if left.any():
        al = a[left]
        t1 = special.log_ndtr(-al)
        lt = t1 + np.log1p(-np.exp(2.0 * d.lam / d.mu + special.log_ndtr(-al - 2.0 * rt[left]) - t1))
        out[0, left] = lt
        out[1, left] = lt + tail_bound_params(d)[0] * x[left]
        out[3, left] = half[left] - 0.5 * LOG_2PI - 0.5 * al * al - lt
    return out


def _tails(d: DistributionSpec, x: np.ndarray) -> np.ndarray:
    """Rows ln F-bar, ln F-bar + alpha_t x^beta_t, ln f + alpha_t x^beta_t and
    ln h at a flat array of points, with the envelope of ``tail_bound_params``.

    The family kernels see the finite x > 0.  Elsewhere the tail is 1 at -inf
    and at x <= 0 on the half line, 1 - F(|x|) for DGG, 0 at +inf and nan at
    nan; the hazard is ln f - ln F-bar at x <= 0 and its limit at +inf; the
    scaled forms, defined for x > 0, go to their limits at +inf.  With s =
    gamma/beta, GG and DGG go like (s - 1) ln z - ln Gamma(s) (exactly 0 at
    s = 1), ln c + (gamma - 1) ln x and ln(alpha beta x^(beta - 1)); IG like
    -3/2 ln x twice and to ln(lam/(2 mu^2)).
    """
    out = np.full((4, x.size), math.nan)
    pos = (x > 0.0) & (x < math.inf)
    out[:, pos] = (_ig_tails if d.family == IG else _gg_tails)(d, x[pos])
    if d.family == IG:
        limits = -math.inf, -math.inf, math.log(d.lam) - math.log(2.0) - 2.0 * math.log(d.mu)
    else:
        s = d.gamma / d.beta
        limits = ((math.log(0.5) if d.family == DGG else 0.0)
                  + (0.0 if s == 1.0 else math.copysign(math.inf, s - 1.0)),
                  _log_norming(d) if d.gamma == 1.0 else math.copysign(math.inf, d.gamma - 1.0),
                  math.log(d.alpha) if d.beta == 1.0 else math.copysign(math.inf, d.beta - 1.0))
    out[:, x == math.inf] = np.array((-math.inf,) + limits)[:, None]
    rest = x <= 0.0
    if rest.any():
        out[0, rest] = 0.0
        if d.family == DGG:
            neg = (x < 0.0) & (x > -math.inf)
            out[0, neg] = np.log1p(-0.5 * np.exp(_log_gammaincc(d, -x[neg])[0]))
            out[0, x == 0.0] = math.log(0.5)
        out[3, rest] = log_density(d, x[rest]) - out[0, rest]
    return out


def _on_points(d: DistributionSpec, x, row: int, exp: bool = False):
    """Row ``row`` of ``_tails`` (its exp if ``exp``) at a scalar or an array x.

    A scalar is the one-element case of the same computation.  Floating-point
    exceptions are not raised or warned about: an overflow or a complete
    cancellation shows up as a non-finite value, which the caller's checks
    reject.
    """
    xs = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = _tails(d, xs.reshape(-1))[row]
        if exp:
            out = np.exp(out)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def log_tail(d: DistributionSpec, x):
    """ln(1 - F(x)), stable far into the tail; scalar or array x."""
    return _on_points(d, x, 0)


def tail(d: DistributionSpec, x):
    """F-bar(x) = 1 - F(x); scalar or array x."""
    return _on_points(d, x, 0, exp=True)


def log_tail_scaled(d: DistributionSpec, x):
    """ln( F-bar(x) * exp(+alpha_t x^beta_t) ), the tail with the envelope factor
    of ``tail_bound_params`` taken out.

    Computed without forming the huge exponent difference, so it is usable on
    grids where alpha_t x^beta_t reaches 1e9.  Scalar or array x > 0; nan at
    x <= 0.
    """
    return _on_points(d, x, 1)


def log_density_scaled(d: DistributionSpec, x):
    """ln( f(x) * exp(+alpha_t x^beta_t) ) in closed form, the partner of
    ``log_tail_scaled``; scalar or array x > 0, nan at x <= 0."""
    return _on_points(d, x, 2)


def log_hazard(d: DistributionSpec, x):
    """ln(f(x) / F-bar(x)); scalar or array x."""
    return _on_points(d, x, 3)


def hazard(d: DistributionSpec, x):
    """f(x) / F-bar(x), computed in log space; scalar or array x.  A hazard
    past the float range is inf."""
    return _on_points(d, x, 3, exp=True)


def tail_bound_params(d: DistributionSpec) -> tuple[float, float, float]:
    """Family-native (alpha, beta, gamma) of the tail envelope B x^gamma e^(-alpha x^beta).

    GG and DGG tails behave like x^(gamma-beta) e^(-alpha x^beta); the IG tail
    decays like x^(-3/2) e^(-lam x / (2 mu^2)), a pure beta = 1 envelope.
    """
    if d.family == IG:
        # divided in two steps: mu^2 alone underflows to 0 for mu below 1e-162
        return d.lam / (2.0 * d.mu) / d.mu, 1.0, -1.5
    return d.alpha, d.beta, d.gamma - d.beta


def decreasing_from(d: DistributionSpec) -> float:
    """Smallest x beyond which the density is nonincreasing (closed form);
    inf when that point overflows."""
    if d.family == IG:
        r = 1.5 * d.mu / d.lam
        return d.mu * (math.sqrt(1.0 + r * r) - r)
    if d.gamma <= 1.0:
        return 0.0
    try:
        return ((d.gamma - 1.0) / (d.alpha * d.beta)) ** (1.0 / d.beta)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Lin's L-function


def lin_L(d: DistributionSpec, x):
    """L(x) = -x f'(x)/f(x) for x > 0, in closed form per family."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("lin_L requires x > 0")
    if d.family == IG:
        try:
            rise = d.lam * x / (2.0 * d.mu ** 2)
        except OverflowError:                       # mu^2 past the float range
            rise = d.lam * x / (2.0 * d.mu) / d.mu
        out = 1.5 + rise - d.lam / (2.0 * x)
    else:
        out = (1.0 - d.gamma) + d.alpha * d.beta * x ** d.beta
    return float(out) if out.ndim == 0 else out


def lin_L_numeric(log_dens, x):
    """Finite-difference L(x) = -x (d/dx) ln f(x) for composed densities."""
    x = np.asarray(x, dtype=float)
    h = np.maximum(x * LIN_REL_STEP, 1e-12)
    out = -x * (log_dens(x + h) - log_dens(x - h)) / (2.0 * h)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# sampling


def sample(d: DistributionSpec, seed, n: int) -> np.ndarray:
    """n i.i.d. draws, deterministic for a given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return sample_with(d, rng, n)


def sample_with(d: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws from ``rng``; a draw past the float range comes back as inf or
    nan without a warning, and ``verify.mc_cross_check`` rejects it."""
    with np.errstate(all="ignore"):
        if d.family in (GG, DGG):
            g = rng.gamma(d.gamma / d.beta, size=n)
            x = (g / d.alpha) ** (1.0 / d.beta)
            if d.family == DGG:
                np.negative(x, out=x, where=rng.integers(0, 2, size=n) == 0)
            return x
        # IG by the normal-transform method: roots mu/q and mu q, with r = mu y/(2 lam)
        # and q = 1 + r + sqrt(r (r + 2)); the smaller one with probability q/(q + 1).
        # In place where it can be: at n = 1e6 each temporary is 8 MB
        r = rng.standard_normal(n) ** 2 * d.mu / (2.0 * d.lam)
        q = np.sqrt(r + 2.0) * np.sqrt(r)
        q += 1.0 + r
        del r
        keep = rng.random(n) * (q + 1.0) <= q
        x = d.mu / q
        np.multiply(d.mu, q, out=x, where=~keep)
        return x


def sample_product(p: ProductSpec, seed, n: int) -> np.ndarray:
    """Componentwise samples of every factor, multiplied; disjoint substreams."""
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(p.factors))
    z = sample_with(p.factors[0], np.random.default_rng(children[0]), n)
    with np.errstate(all="ignore"):   # an inf draw times 0 is nan, silently as in sample_with
        for d, child in zip(p.factors[1:], children[1:]):
            z *= sample_with(d, np.random.default_rng(child), n)
    return z
