"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input data violates a documented invariant (malformed curve, bad labels, ...)."""


class ContractViolation(ValidationError):
    """A caller broke an operation precondition (open curve, mismatched inputs, ...)."""


class OnBoundaryError(ValidationError):
    """Query point lies on the curve, so the winding number is undefined."""


class DegenerateOffsetError(ValidationError):
    """Inner offset would invert a positively curved arc (radius <= offset distance)."""


class DegenerateConfigurationError(RuntimeError):
    """A power-diagram cell came out empty for the given seeds/weights."""


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


class OptimizationError(RuntimeError):
    """The search found no feasible configuration, or an evaluated value fell
    below the certified lower bound (an inconsistent Cheeger solve)."""
