"""Short-maturity pricing and hedging of arithmetic-average Asian options
under local volatility, with Monte Carlo verification tooling.

The public surface is re-exported here; the implementation lives in:

* :mod:`asianvol.model`       -- market params, vol surfaces, payoffs
* :mod:`asianvol.asymptotics` -- short-maturity price/delta expansions
* :mod:`asianvol.montecarlo`  -- path simulation and estimators
* :mod:`asianvol.approxlab`   -- L^p distance surfaces between process pairs
* :mod:`asianvol.ldp`         -- large-deviations rate function solvers
* :mod:`asianvol.harness`     -- convergence studies and comparisons
* :mod:`asianvol.acceptance`  -- the acceptance battery and its config key tables
* :mod:`asianvol.cli`         -- command-line entry point
"""

from .approxlab import (
    DistanceCurve,
    ScalingFit,
    lp_distance_curve,
    refined_fit,
    scaling_exponent,
)
from .asymptotics import (
    AsymptoticQuote,
    QuadratureInfo,
    VolQuote,
    abs_moment,
    asian_vol,
    asym_delta,
    asym_price,
    delta_parity_and_itm,
    european_vol,
    gaussian_expectation,
    geometric_bs,
    match_volatility,
    power_leading_terms,
    vol_quote,
)
from .errors import AsianvolError, DomainError, NumericError, ValidationError
from .harness import (
    CompareTable,
    ConvergenceReport,
    asymptotics_error_study,
    compare_experiment,
    convergence_report,
)
from .ldp import (
    DecayReport,
    RateFunctionProblem,
    RateFunctionResult,
    decay_slope,
    problem_from_surface,
    rate_function,
    rate_function_shooting,
)
from .model import (
    CappedPowerVol,
    ConstantVol,
    LocalVolSurface,
    MarketParams,
    PayoffSpec,
    TabulatedVol,
    TimeScaledVol,
    market_from_config,
    payoff_from_config,
    surface_from_config,
    tabulated_from_csv,
)
from .montecarlo import (
    McEstimate,
    PathBundle,
    SimConfig,
    mc_asian_price_cv,
    mc_delta_fd,
    mc_delta_malliavin,
    mc_price,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AsianvolError",
    "DomainError",
    "NumericError",
    "ValidationError",
    "CappedPowerVol",
    "ConstantVol",
    "LocalVolSurface",
    "MarketParams",
    "PayoffSpec",
    "TabulatedVol",
    "TimeScaledVol",
    "market_from_config",
    "payoff_from_config",
    "surface_from_config",
    "tabulated_from_csv",
    "VolQuote",
    "QuadratureInfo",
    "AsymptoticQuote",
    "abs_moment",
    "asian_vol",
    "asym_delta",
    "asym_price",
    "delta_parity_and_itm",
    "european_vol",
    "gaussian_expectation",
    "geometric_bs",
    "match_volatility",
    "power_leading_terms",
    "vol_quote",
    "SimConfig",
    "PathBundle",
    "McEstimate",
    "simulate",
    "mc_price",
    "mc_asian_price_cv",
    "mc_delta_fd",
    "mc_delta_malliavin",
    "DistanceCurve",
    "ScalingFit",
    "lp_distance_curve",
    "scaling_exponent",
    "refined_fit",
    "RateFunctionProblem",
    "RateFunctionResult",
    "problem_from_surface",
    "rate_function",
    "rate_function_shooting",
    "DecayReport",
    "decay_slope",
    "ConvergenceReport",
    "convergence_report",
    "asymptotics_error_study",
    "CompareTable",
    "compare_experiment",
    "__version__",
]
