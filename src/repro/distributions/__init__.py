"""Lifetime distributions used as mixture-model components.

The paper's mixture resilience model (Eq. 7) composes two cumulative
distribution functions: one for degradation and one for recovery. The
evaluation uses the Exponential and Weibull distributions; this
subpackage also provides Gamma, Lognormal, Gompertz, and Log-logistic
distributions so that the mixture family can be extended beyond the
paper's four pairings (e.g. ``make_model("gamma-exp")``).

Every distribution exposes the classical reliability quantities: pdf,
cdf, survival (reliability) function, hazard rate, cumulative hazard,
quantile function, moments, and random variate generation.
"""

from repro.distributions.base import LifetimeDistribution
from repro.distributions.exponential import Exponential
from repro.distributions.weibull import Weibull
from repro.distributions.gamma import Gamma
from repro.distributions.lognormal import Lognormal
from repro.distributions.gompertz import Gompertz
from repro.distributions.loglogistic import LogLogistic
from repro.distributions.registry import (
    available_distributions,
    get_distribution_class,
    register_distribution,
)

__all__ = [
    "LifetimeDistribution",
    "Exponential",
    "Weibull",
    "Gamma",
    "Lognormal",
    "Gompertz",
    "LogLogistic",
    "available_distributions",
    "get_distribution_class",
    "register_distribution",
]
