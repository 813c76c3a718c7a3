"""Exception types shared across the package."""


class MflabError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatchError(MflabError):
    """An input's dimension does not match the object it is used with."""


class UnsupportedDimensionError(MflabError):
    """Operation only implemented for a restricted set of dimensions."""


class EmptyMeasureError(MflabError):
    """A log potential normalizes to zero mass (all nodes at -inf)."""


class TiltDomainError(MflabError):
    """A Gaussian tilt is not normalizable for the given base measure."""


class InvalidTargetError(MflabError):
    """A sampling target is ill-posed (e.g. non-integrable tilt)."""


class SimulationDivergedError(MflabError):
    """A particle trajectory left the sane numerical range."""

    def __init__(self, step: int, max_abs: float):
        self.step = step
        self.max_abs = max_abs
        super().__init__(
            f"particle coordinates reached |x| = {max_abs:.3g} at step {step}"
        )

    def __reduce__(self):
        return type(self), (self.step, self.max_abs)


class NonconvergenceError(MflabError):
    """Fixed-point solve out of iterations or stalled; carries the residual trace."""

    def __init__(self, residual_trace):
        self.residual_trace = list(residual_trace)
        last = self.residual_trace[-1] if self.residual_trace else float("nan")
        super().__init__(
            f"no convergence after {len(self.residual_trace)} iterations "
            f"(last residual {last:.3e})"
        )

    def __reduce__(self):
        return type(self), (self.residual_trace,)


class IntegrationFailureError(MflabError):
    """A grid fails the law on it: the transport map's grid resolves fewer
    than two CDF levels or its map is not strictly increasing, or a chaos
    sweep's grid does not cover a solved law (its mean lies within
    MIN_COVERAGE_SD sd of a grid end) or does not resolve it (its node
    spacing exceeds MAX_SPACING_SD of the law's sd)."""


class CalculatorDomainError(MflabError):
    """A closed-form calculator was called outside its stated domain."""


class AlreadyRescaledError(MflabError):
    """The coordinate rescaling was requested twice; it is meaningful once."""


class ConfigError(MflabError):
    """An experiment configuration failed schema validation."""
