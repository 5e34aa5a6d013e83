"""Strong-coupling pairing model toolkit.

Exact finite-volume quantum dynamics, the infinite-volume self-consistent
mean-field flow on on-site states, the emergent classical layer (Poisson
brackets, Liouville equation, symmetric rotor), and the equilibrium gap
equation, with a harness demonstrating the convergence of the former to the
latter.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConfigError,
    MfbcsError,
    NumericalAbortError,
)
from .model import ModelParams
from .states import OnSiteState, ProductMixture

__all__ = [
    "CapacityError",
    "ConfigError",
    "MfbcsError",
    "ModelParams",
    "NumericalAbortError",
    "OnSiteState",
    "ProductMixture",
    "__version__",
]
