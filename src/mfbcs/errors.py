"""Exception types shared across the package."""


class MfbcsError(Exception):
    """Base class for all package errors."""


class CapacityError(MfbcsError):
    """Requested system size exceeds the configured dense capacity.

    Raised by the dense 4**N builders above the dense limit, where the
    message points at the closed-form product-state series, and by that
    series above its own site limit.
    """


class ConfigError(MfbcsError):
    """Invalid run configuration (bad key, bad value, parse failure)."""


class NumericalAbortError(MfbcsError):
    """An integrator or solver left its validity envelope (e.g. positivity)."""
