"""Distribution algebra for the three parametric families GG, DGG and IG.

GG(alpha, beta, gamma)  density  c x^(gamma-1) exp(-alpha x^beta) on [0, inf),
DGG(alpha, beta, gamma) density  c |x|^(gamma-1) exp(-alpha |x|^beta) on R (symmetric),
IG(mu, lam)             the inverse Gaussian density on (0, inf).

Everything is computed in natural-log space so that moments up to order
several hundred stay representable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np
from scipy.special import gammaincc, gammaln, log_ndtr, logsumexp

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


class SupportError(ValueError):
    """Raised in strict mode when a point lies outside the support."""


def exact_rational(value: ParamLike) -> Optional[Fraction]:
    """Best-effort exact rational for a parameter, or None for generic floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        cand = Fraction(value).limit_denominator(_SNAP_MAX_DEN)
        if cand != 0 and abs(float(cand) - value) <= _SNAP_REL_TOL * abs(value):
            return cand
        return None
    return None


def _as_param(value: ParamLike, name: str) -> tuple[float, Optional[Fraction]]:
    exact = exact_rational(value)
    x = float(exact) if isinstance(value, (str, Fraction)) else float(value)
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
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
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
    lc = math.log(d.beta) + s * math.log(d.alpha) - gammaln(s)
    if d.family == DGG:
        lc -= math.log(2.0)
    return lc


def log_density(d: DistributionSpec, x, strict: bool = False):
    """ln f(x); -inf where f vanishes (off-support, or the f(0)=0 convention)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.full(x.shape, -np.inf)

    if d.family == IG:
        ok = x > 0
        if strict and not ok.all():
            raise SupportError("IG density requires x > 0")
        xs = x[ok]
        out[ok] = 0.5 * (math.log(d.lam) - LOG_2PI - 3.0 * np.log(xs)) \
            - d.lam * (xs - d.mu) ** 2 / (2.0 * d.mu ** 2 * xs)
    else:
        lc = _log_norming(d)
        if d.family == GG:
            neg = x < 0
            if strict and neg.any():
                raise SupportError("GG density requires x >= 0")
        zero = x == 0.0
        if strict and zero.any() and d.gamma != 1.0:
            raise SupportError("density vanishes at x = 0 for gamma != 1")
        ax = np.abs(x)
        ok = ax > 0 if d.family == DGG else x > 0
        xs = ax[ok]
        out[ok] = lc + (d.gamma - 1.0) * np.log(xs) - d.alpha * xs ** d.beta
        if d.gamma == 1.0:
            out[zero] = lc

    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# moments


def log_moment(d: DistributionSpec, k: int) -> float:
    """ln E[X^k] in closed form; -inf for the vanishing odd moments of DGG."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("moment order k must be an integer >= 1")
    k = int(k)
    if d.family == DGG and k % 2 == 1:
        return -math.inf
    if d.family in (GG, DGG):
        s = d.gamma / d.beta
        return (-k / d.beta) * math.log(d.alpha) + gammaln((d.gamma + k) / d.beta) - gammaln(s)
    # IG: m_k = mu^k sum_{i<k} (k-1+i)! / (i! (k-1-i)!) (mu / (2 lam))^i,
    # summed in log space (every term is positive).
    i = np.arange(k, dtype=float)
    terms = gammaln(k + i) - gammaln(i + 1.0) - gammaln(k - i) \
        + i * (math.log(d.mu) - math.log(2.0 * d.lam))
    return k * math.log(d.mu) + float(logsumexp(terms))


def moment(d: DistributionSpec, k: int) -> float:
    lm = log_moment(d, k)
    return 0.0 if lm == -math.inf else math.exp(lm)


# ---------------------------------------------------------------------------
# tails and hazards


def _log_upper_gamma_cf(s: float, z: float) -> float:
    # ln of the Lentz continued fraction for Gamma(s, z) / (z^s e^-z);
    # reliable for z well above s, which is the only regime we use it in.
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    dd = 1.0 / b
    h = dd
    for i in range(1, 600):
        an = -i * (i - s)
        b += 2.0
        dd = an * dd + b
        if abs(dd) < tiny:
            dd = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        dd = 1.0 / dd
        delta = dd * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.log(h)


def _log_gammaincc(s: float, z: float, scaled: bool = False) -> float:
    """ln Q(s, z), the regularized upper incomplete gamma.

    ``scaled`` returns ln(Q(s, z) * e^z), which stays accurate when z is so
    large that Q underflows (needed for tail bounds out to z ~ 1e9).
    """
    if z <= 0.0:
        return z if scaled else 0.0
    if z < s + 30.0:
        q = float(gammaincc(s, z))
        lq = math.log(q)
        return lq + z if scaled else lq
    body = s * math.log(z) - gammaln(s) + _log_upper_gamma_cf(s, z)
    return body if scaled else body - z


def log_tail(d: DistributionSpec, x) -> float:
    """ln(1 - F(x)), stable far into the tail."""
    if np.ndim(x) > 0:
        return np.array([log_tail(d, xi) for xi in np.asarray(x, dtype=float)])
    x = float(x)
    if d.family == IG:
        if x <= 0.0:
            return 0.0
        return _ig_log_tail(d, x)
    s = d.gamma / d.beta
    if d.family == GG:
        if x <= 0.0:
            return 0.0
        return _log_gammaincc(s, d.alpha * x ** d.beta)
    # DGG, symmetric about 0
    if x < 0.0:
        q = math.exp(_log_gammaincc(s, d.alpha * (-x) ** d.beta))
        return math.log1p(-0.5 * q)
    if x == 0.0:
        return math.log(0.5)
    return math.log(0.5) + _log_gammaincc(s, d.alpha * x ** d.beta)


def _ig_log_tail(d: DistributionSpec, x: float, scaled: bool = False) -> float:
    # 1 - F = Phi(-a) - e^(2 lam/mu) Phi(-b) with a, b the usual IG arguments;
    # evaluated through log_ndtr to survive the near-cancellation at large x.
    rt = math.sqrt(d.lam / x)
    a = rt * (x / d.mu - 1.0)
    b = rt * (x / d.mu + 1.0)
    t1 = float(log_ndtr(-a))
    t2 = 2.0 * d.lam / d.mu + float(log_ndtr(-b))
    diff = t2 - t1
    if diff >= 0.0:
        diff = -1e-17
    lt = t1 + math.log1p(-math.exp(diff))
    return lt + d.lam * x / (2.0 * d.mu ** 2) if scaled else lt


def tail(d: DistributionSpec, x) -> float:
    """F-bar(x) = 1 - F(x)."""
    lt = log_tail(d, x)
    return np.exp(lt) if np.ndim(x) > 0 else math.exp(lt)


def log_tail_scaled(d: DistributionSpec, x: float) -> float:
    """ln( F-bar(x) * exp(+alpha_t x^beta_t) ) for the family-native tail exponents.

    Computed without forming the huge exponent difference, so it is usable on
    grids where alpha_t x^beta_t reaches 1e9.
    """
    if d.family == IG:
        return _ig_log_tail(d, float(x), scaled=True)
    s = d.gamma / d.beta
    z = d.alpha * float(x) ** d.beta
    lq = _log_gammaincc(s, z, scaled=True)
    if d.family == DGG:
        lq += math.log(0.5)
    return lq


def hazard(d: DistributionSpec, x) -> float:
    """f(x) / F-bar(x), computed in log space."""
    return math.exp(log_hazard(d, x)) if np.ndim(x) == 0 else np.exp(log_hazard(d, x))


def log_hazard(d: DistributionSpec, x):
    return log_density(d, x) - log_tail(d, x)


def tail_bound_params(d: DistributionSpec) -> tuple[float, float, float]:
    """Family-native (alpha, beta, gamma) of the tail envelope B x^gamma e^(-alpha x^beta).

    GG and DGG tails behave like x^(gamma-beta) e^(-alpha x^beta); the IG tail
    decays like x^(-3/2) e^(-lam x / (2 mu^2)), a pure beta = 1 envelope.
    """
    if d.family == IG:
        return d.lam / (2.0 * d.mu ** 2), 1.0, -1.5
    return d.alpha, d.beta, d.gamma - d.beta


def decreasing_from(d: DistributionSpec) -> float:
    """Smallest x beyond which the density is nonincreasing (closed form)."""
    if d.family == IG:
        r = 1.5 * d.mu / d.lam
        return d.mu * (math.sqrt(1.0 + r * r) - r)
    if d.gamma <= 1.0:
        return 0.0
    return ((d.gamma - 1.0) / (d.alpha * d.beta)) ** (1.0 / d.beta)


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


def lin_L_numeric(log_dens, x, rel_step: float = 1e-5):
    """Finite-difference L(x) = -x (d/dx) ln f(x) for composed densities."""
    x = np.asarray(x, dtype=float)
    h = np.maximum(x * rel_step, 1e-12)
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
    if d.family in (GG, DGG):
        g = rng.gamma(d.gamma / d.beta, size=n)
        x = (g / d.alpha) ** (1.0 / d.beta)
        if d.family == DGG:
            sign = rng.integers(0, 2, size=n) * 2 - 1
            x = x * sign
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
    z = np.ones(n)
    for d, child in zip(p.factors, children):
        z = z * sample_with(d, np.random.default_rng(child), n)
    return z
