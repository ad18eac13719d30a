"""Exception hierarchy.

Three families matter to callers: validation errors (bad inputs, exit code 2
at the CLI), numerical errors (solver/sampler failures, exit code 3), and I/O
errors (exit code 4). Everything derives from SiprError so library users can
catch one type.
"""

from __future__ import annotations


class SiprError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SiprError):
    """Bad user input: shapes, flags, domains."""


class NumericalError(SiprError):
    """A numerical procedure failed or refused to proceed."""


class IOError_(SiprError):
    """File reading/writing problems surfaced with context."""


# --- validation ---------------------------------------------------------


class IntegerEta(ValidationError):
    """The regularity exponent must be a positive non-integer."""


class DimensionMismatch(ValidationError):
    """Arrays disagree on the number of points or features."""


class TooFewPoints(ValidationError):
    """Fewer datapoints than the polynomial constraint requires (N < N0 + 1)."""


class DuplicatePoints(ValidationError):
    """Two input locations coincide within tolerance; the kernel matrix would be singular."""


class ConstraintViolated(ValidationError):
    """Coefficients passed to the norm do not satisfy the growth-rate constraint M a = 0."""


class ConstantFeature(ValidationError):
    """A feature column is constant and cannot be min-max scaled."""


class KTooLarge(ValidationError):
    """More cross-validation folds than datapoints."""


class TooFewSamples(ValidationError):
    """Sampler configuration leaves no kept draws (samples_per_chain <= burn_in)."""


class MissingValue(ValidationError):
    """A CSV cell is empty where a number is required."""


class ParseError(ValidationError):
    """A CSV cell could not be parsed as a number; message names row and column."""


class ArchiveVersionError(ValidationError):
    """A model archive was written by an incompatible format version."""


# --- numerical ----------------------------------------------------------


class SingularSystem(NumericalError):
    """A dense solve hit reciprocal condition < 1e-14 or a rank-deficient stage."""


class NoConvergence(NumericalError):
    """Fixed-point iteration exhausted max_iter; carries the last iterate and residual."""

    def __init__(self, message: str, last_iterate=None, residual: float | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class PoleCollapse(NumericalError):
    """The MAP iteration collapsed onto the nullspace pole (||h|| ~ 0)."""


class DivergentChains(NumericalError):
    """More than half the post-burn-in proposals diverged (energy error > 1e3)."""


class DomainError(NumericalError):
    """A density or derivative was evaluated outside its domain (e.g. ||h|| = 0)."""
