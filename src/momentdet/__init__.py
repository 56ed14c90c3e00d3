"""Moment (in)determinacy of products of independent random variables.

Decides whether a single random variable or a product of independent,
non-identically distributed factors (generalized gamma, symmetric
generalized gamma, inverse Gaussian) is determined by its moments, via
checkable growth, ratio, Hardy/Cramer, Carleman, Krein and Lin criteria,
with every analytic ingredient cross-verified by quadrature and Monte Carlo.
"""

__version__ = "0.1.0"

from .distributions import (
    DGG,
    GG,
    HAMBURGER,
    IG,
    MIXED,
    STIELTJES,
    DistributionSpec,
    ProductSpec,
    SupportError,
    chi_square,
    dgg,
    exponential,
    gg,
    half_normal,
    hazard,
    ig,
    lin_L,
    log_density,
    log_moment,
    log_tail,
    moment,
    sample,
    sample_product,
    std_normal,
    support_class,
    tail,
)
from .criteria import (
    CriterionReport,
    LogMomentSequence,
    carleman_quantity,
    compose,
    condition_L_check,
    cramer_check,
    growth_exponent,
    hardy_check,
    krein_quantity,
    ratio_rate,
)
from .decision import (
    DecisionConfig,
    M_DET,
    M_INDET,
    Verdict,
    decide_product,
    decide_single,
    explain,
    factor_exponent,
    ratio_route,
)
from .verify import (
    CounterexampleDensity,
    MCReport,
    ThetaSplit,
    ThetaSplitError,
    build_counterexample,
    mc_cross_check,
    quadrature_log_moment,
    quadrature_moment,
    theta_split,
    verify_growth_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
