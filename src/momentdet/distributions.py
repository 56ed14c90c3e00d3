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
    def is_symmetric(self) -> bool:
        return self.family == DGG

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

    @property
    def support_class(self) -> str:
        return support_class(self)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return " * ".join(str(f) for f in self.factors)


def support_class(p: ProductSpec) -> str:
    """Stieltjes if all factors are nonnegative, Hamburger if all are real, else Mixed."""
    fams = {f.family for f in p.factors}
    if fams <= {GG, IG}:
        return STIELTJES
    if fams == {DGG}:
        return HAMBURGER
    return MIXED


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
    """ln f at points 0 < |x| < inf of the support, for an array or an np.float64 x.

    Both routes of ``log_density`` evaluate this one closed form with the same
    NumPy ufuncs, so a point gets the same bits as a scalar and in an array.
    """
    if d.family == IG:
        return 0.5 * (math.log(d.lam) - LOG_2PI - 3.0 * np.log(x)) \
            - d.lam * np.square(x - d.mu) / (2.0 * d.mu ** 2 * x)
    return _log_density_scaled(d, x) - d.alpha * np.power(x, d.beta)


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
    is 0.  A scalar x is evaluated without building an array, through the
    same closed form as the array route, so both give the same bits.
    """
    if isinstance(x, float) or np.ndim(x) == 0:   # np.ndim builds an array for a float
        x = np.float64(x)
        ax = abs(x) if symmetric else x
        if 0.0 < ax < math.inf:
            return float(log_pos(owner, ax))
        return float(log_at_zero(owner)) if x == 0.0 else -math.inf
    x = np.asarray(x, dtype=float)
    ax = np.abs(x) if symmetric else x
    ok = (ax > 0.0) & (ax < math.inf)
    out = np.full(x.shape, -np.inf)
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

    A scalar order is the 0-d case of the array computation, so a moment
    sequence and its single entries agree bit for bit.
    """
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu" or np.any(ks < 1):
        raise ValueError("moment order k must be an integer >= 1")
    if d.family == IG:
        out = _ig_log_moments(d, int(ks.max()))[ks]
    else:
        s = d.gamma / d.beta
        out = (-ks / d.beta) * math.log(d.alpha) + special.gammaln((d.gamma + ks) / d.beta) \
            - special.gammaln(s)
        if d.family == DGG:
            out = np.where(ks % 2 == 1, -np.inf, out)
    return float(out) if ks.ndim == 0 else out


def _ig_log_moments(d: DistributionSpec, k_max: int) -> np.ndarray:
    # ln m_0 .. ln m_kmax from the three-term recurrence
    #   m_(k+1) = (2k-1) (mu^2/lam) m_k + mu^2 m_(k-1),  m_0 = 1, m_1 = mu,
    # divided by m_k: the ratios r_k = m_k / m_(k-1) obey
    #   r_(k+1) = (2k-1) mu^2/lam + mu^2 / r_k,  r_1 = mu.
    # Both terms are positive, so their log-sum is stable; ln m_k is the
    # compensated (Neumaier) running sum of ln r_j.
    log_mu2 = 2.0 * math.log(d.mu)
    log_c = (np.log(np.arange(1, 2 * k_max, 2, dtype=float)) + (log_mu2 - math.log(d.lam))).tolist()
    log_r = math.log(d.mu)
    total, comp = 0.0, 0.0
    out = [0.0]
    for k in range(1, k_max + 1):
        t = total + log_r
        comp += (total - t) + log_r if abs(total) >= abs(log_r) else (log_r - t) + total
        total = t
        out.append(total + comp)
        if k < k_max:
            a, b = log_c[k - 1], log_mu2 - log_r
            hi, lo = (a, b) if a >= b else (b, a)
            log_r = hi + math.log1p(math.exp(lo - hi))
    return np.array(out)


def moment(d: DistributionSpec, k: int) -> float:
    lm = log_moment(d, k)
    return 0.0 if lm == -math.inf else math.exp(lm)


# ---------------------------------------------------------------------------
# tails and hazards


def _pointwise(kernel, d: DistributionSpec, x):
    """Apply an array kernel to a scalar or an array of points.

    A scalar is the one-element case of the same computation.  Floating-point
    exceptions are not raised or warned about: an overflow or a complete
    cancellation shows up as a non-finite value, which the caller's checks
    reject.
    """
    xs = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = kernel(d, xs.reshape(-1))
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


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


def _log_gammaincc(d: DistributionSpec, x: np.ndarray, scaled: bool = False) -> np.ndarray:
    """ln Q(s, z) at s = gamma/beta and z = alpha x^beta for x >= 0, with Q the
    regularized upper incomplete gamma, elementwise.

    ``scaled`` returns ln(Q(s, z) * e^z), which stays accurate when z is so
    large that Q underflows (needed for tail bounds out to z ~ 1e9).  Where
    alpha x^beta overflows, ln z = ln alpha + beta ln x is taken in log space,
    and the continued fraction by its limit 1/z where z itself overflows: Q is
    then 0, and the scaled value is finite.
    """
    s = d.gamma / d.beta
    z = d.alpha * x ** d.beta
    out = z.copy() if scaled else np.zeros(z.shape)   # the z <= 0 value
    near = (z > 0.0) & (z < s + 30.0)
    far = ~(near | (z <= 0.0))                        # includes nan
    zn = z[near]
    lq = np.log(special.gammaincc(s, zn))
    out[near] = lq + zn if scaled else lq
    zf = z[far]
    if zf.size:
        log_z = np.log(zf)
        over = zf == math.inf
        if over.any():
            log_z[over] = math.log(d.alpha) + d.beta * np.log(x[far][over])
            zf[over] = np.exp(log_z[over])            # finite where only x^beta overflowed
        log_cf = -log_z
        fin = zf < math.inf
        log_cf[fin] = _log_upper_gamma_cf(s, zf[fin])
        body = s * log_z - special.gammaln(s) + log_cf
        out[far] = body if scaled else body - zf
    return out


def _log_mills_difference(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """ln(M(a) - M(a + h)) for a > 0 and h > 0, elementwise, with M(t) =
    Phi(-t)/phi(t) = sqrt(pi/2) erfcx(t/sqrt 2) the normal Mills ratio.

    Nothing is subtracted that cancels when h is small against a, and nothing
    underflows where the difference is below the float range:
    - from a = MILLS_SERIES_FROM on, the asymptotic series
      M(t) ~ sum_m (-1)^m (2m-1)!! t^-(2m+1) is differenced term by term.
      With b = a + h and q = a/b, a^-n - b^-n = a^-n (h/b) E_n with
      E_n = 1 + q + ... + q^(n-1), a sum of positive terms, and the common
      factor h/(a b) is taken in log space;
    - below it, for h <= MILLS_TAYLOR_STEP, the Taylor series in h about a,
      -sum_(n>=1) D_n h^n with D_n = M^(n)(a)/n!, which M' = tM - 1 turns
      into D_(n+1) = (a D_n + D_(n-1))/(n+1);
    - otherwise the two erfcx values are subtracted.
    """
    b = a + h
    mills_a = np.sqrt(np.pi / 2.0) * special.erfcx(a / math.sqrt(2.0))
    out = mills_a - np.sqrt(np.pi / 2.0) * special.erfcx(b / math.sqrt(2.0))
    near = (a < MILLS_SERIES_FROM) & (h <= MILLS_TAYLOR_STEP)
    if near.any():
        an, hn = a[near], h[near]
        d_prev, d = mills_a[near], an * mills_a[near] - 1.0   # D_0, D_1
        power = hn
        total = -d * power
        for n in range(1, MILLS_TERMS):
            d_prev, d = d, (an * d + d_prev) / (n + 1)
            power = power * hn
            total -= d * power
        out[near] = total
    far = a >= MILLS_SERIES_FROM
    out[~far] = np.log(out[~far])
    if far.any():
        af, bf = a[far], b[far]
        q = af / bf
        inv_a2 = 1.0 / (af * af)
        power = np.ones(af.shape)                    # a^-2m
        coef, total = 1.0, np.zeros(af.shape)        # (-1)^m (2m-1)!!
        e_n, q_n = np.ones(af.shape), q              # E_(2m+1), q^(2m+1)
        for m in range(MILLS_TERMS):
            total += coef * power * e_n
            e_n = e_n + q_n * (1.0 + q)
            q_n = q_n * (q * q)
            coef *= -(2 * m + 1)
            power = power * inv_a2
        out[far] = np.log(h[far]) - np.log(af) - np.log(bf) + np.log(total)
    return out


def _ig_log_tail(d: DistributionSpec, x: np.ndarray, scaled: bool = False) -> np.ndarray:
    # 1 - F = Phi(-a) - e^(2 lam/mu) Phi(-b) with a, b the usual IG arguments.
    # For a > 0 this is phi(a) (M(a) - M(b)) exactly, since b^2 - a^2 =
    # 4 lam/mu, and the Mills-ratio difference keeps its precision far into
    # the tail; there -a^2/2 + lam x/(2 mu^2) = lam/mu - lam/(2x) in closed
    # form.  For a <= 0 the first term dominates and log_ndtr serves.
    rt = np.sqrt(d.lam / x)
    q = x / d.mu
    a = rt * (q - 1.0)
    b = rt * (q + 1.0)
    over = q == math.inf                            # form a and b without x/mu there
    if over.any():
        root = math.sqrt(d.lam) * np.sqrt(x[over]) / d.mu
        a[over] = root - rt[over]
        b[over] = root + rt[over]
    out = np.empty(x.shape)
    right = a > 0.0
    ar = a[right]
    core = _log_mills_difference(ar, 2.0 * rt[right]) - 0.5 * LOG_2PI
    out[right] = core + (d.lam / d.mu - d.lam / (2.0 * x[right]) if scaled else -0.5 * ar * ar)
    left = ~right                                   # includes nan
    t1 = special.log_ndtr(-a[left])
    t2 = 2.0 * d.lam / d.mu + special.log_ndtr(-b[left])
    lt = t1 + np.log1p(-np.exp(t2 - t1))
    out[left] = lt + d.lam * x[left] / (2.0 * d.mu ** 2) if scaled else lt
    return out


def _log_tail(d: DistributionSpec, x: np.ndarray) -> np.ndarray:
    # the tail is 1 at -inf and at x <= 0 on the half line, 0 at +inf, and nan
    # at nan; the kernels below see only finite points
    out = np.zeros(x.shape)
    out[x == math.inf] = -math.inf
    out[np.isnan(x)] = math.nan
    pos = (x > 0.0) & (x < math.inf)
    xp = x[pos]
    if d.family == IG:
        out[pos] = _ig_log_tail(d, xp)
        return out
    if d.family == GG:
        out[pos] = _log_gammaincc(d, xp)
        return out
    # DGG, symmetric about 0
    neg = (x < 0.0) & (x > -math.inf)
    q = np.exp(_log_gammaincc(d, -x[neg]))
    out[neg] = np.log1p(-0.5 * q)
    out[x == 0.0] = math.log(0.5)
    out[pos] = math.log(0.5) + _log_gammaincc(d, xp)
    return out


def log_tail(d: DistributionSpec, x):
    """ln(1 - F(x)), stable far into the tail; scalar or array x."""
    return _pointwise(_log_tail, d, x)


def _tail(d: DistributionSpec, x: np.ndarray) -> np.ndarray:
    return np.exp(_log_tail(d, x))


def tail(d: DistributionSpec, x):
    """F-bar(x) = 1 - F(x); scalar or array x."""
    return _pointwise(_tail, d, x)


def _log_tail_scaled(d: DistributionSpec, x: np.ndarray) -> np.ndarray:
    if d.family == IG:
        out = _ig_log_tail(d, x, scaled=True)
    else:
        out = _log_gammaincc(d, x, scaled=True)
        if d.family == DGG:
            out += math.log(0.5)
    return _at_inf(d, x, out, 1)


def log_tail_scaled(d: DistributionSpec, x):
    """ln( F-bar(x) * exp(+alpha_t x^beta_t) ), the tail with the envelope factor
    of ``tail_bound_params`` taken out.

    Computed without forming the huge exponent difference, so it is usable on
    grids where alpha_t x^beta_t reaches 1e9.  Scalar or array x > 0.
    """
    return _pointwise(_log_tail_scaled, d, x)


def _log_density_scaled(d: DistributionSpec, x: np.ndarray) -> np.ndarray:
    if d.family == IG:
        return 0.5 * (math.log(d.lam) - LOG_2PI - 3.0 * np.log(x)) \
            + d.lam / d.mu - d.lam / (2.0 * x)
    return _log_norming(d) + (d.gamma - 1.0) * np.log(x)


def log_density_scaled(d: DistributionSpec, x):
    """ln( f(x) * exp(+alpha_t x^beta_t) ) in closed form, the partner of
    ``log_tail_scaled``; scalar or array x > 0."""
    return _pointwise(lambda d, x: _at_inf(d, x, _log_density_scaled(d, x), 0), d, x)


def _log_hazard(d: DistributionSpec, x: np.ndarray) -> np.ndarray:
    # For x > 0, ln h = log_density_scaled - log_tail_scaled: exp(-alpha_t x^beta_t)
    # cancels analytically instead of as the difference of two huge logs.
    pos = x > 0.0
    xp = x[pos]
    out = np.empty(x.shape)
    out[pos] = _log_density_scaled(d, xp) - _log_tail_scaled(d, xp)
    if not pos.all():
        rest = x[~pos]
        out[~pos] = log_density(d, rest) - _log_tail(d, rest)
    return _at_inf(d, x, out, 2)


def _at_inf(d: DistributionSpec, x: np.ndarray, out: np.ndarray, which: int) -> np.ndarray:
    # out with its values at x = +inf, where the closed forms read 0 * inf or
    # inf - inf, set to the limit: of the scaled density (which = 0), the
    # scaled tail (1) or the hazard (2).  With s = gamma/beta and z = alpha
    # x^beta, GG and DGG go like ln c + (gamma - 1) ln x, (s - 1) ln z -
    # ln Gamma(s) (exactly 0 at s = 1) and ln(alpha beta x^(beta - 1)); IG
    # like -3/2 ln x twice and, with the envelope of tail_bound_params, to
    # ln(lam/(2 mu^2))
    top = x == math.inf
    if not top.any():
        return out
    if d.family == IG:
        limits = -math.inf, -math.inf, math.log(d.lam) - math.log(2.0) - 2.0 * math.log(d.mu)
    else:
        s = d.gamma / d.beta
        limits = (_log_norming(d) if d.gamma == 1.0 else math.copysign(math.inf, d.gamma - 1.0),
                  (math.log(0.5) if d.family == DGG else 0.0)
                  + (0.0 if s == 1.0 else math.copysign(math.inf, s - 1.0)),
                  math.log(d.alpha) if d.beta == 1.0 else math.copysign(math.inf, d.beta - 1.0))
    out[top] = limits[which]
    return out


def log_hazard(d: DistributionSpec, x):
    """ln(f(x) / F-bar(x)); scalar or array x."""
    return _pointwise(_log_hazard, d, x)


def _hazard(d: DistributionSpec, x: np.ndarray) -> np.ndarray:
    return np.exp(_log_hazard(d, x))


def hazard(d: DistributionSpec, x):
    """f(x) / F-bar(x), computed in log space; scalar or array x.  A hazard
    past the float range is inf."""
    return _pointwise(_hazard, d, x)


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
        out = 1.5 + d.lam * x / (2.0 * d.mu ** 2) - d.lam / (2.0 * x)
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
        # IG by the normal-transform method with the mu/(mu+x) acceptance flip.
        mu, lam = d.mu, d.lam
        y = rng.standard_normal(n) ** 2
        x = mu + mu * mu * y / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(4.0 * mu * lam * y + (mu * y) ** 2)
        u = rng.random(n)
        return np.where(u <= mu / (mu + x), x, mu * mu / x)


def sample_product(p: ProductSpec, seed, n: int) -> np.ndarray:
    """Componentwise samples of every factor, multiplied; disjoint substreams."""
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(p.factors))
    z = sample_with(p.factors[0], np.random.default_rng(children[0]), n)
    with np.errstate(all="ignore"):   # an inf draw times 0 is nan, silently as in sample_with
        for d, child in zip(p.factors[1:], children[1:]):
            z *= sample_with(d, np.random.default_rng(child), n)
    return z
