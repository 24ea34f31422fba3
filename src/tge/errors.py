"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the split:
format errors (malformed input text) vs validation errors (well-formed
but semantically bad graphs) vs degenerate-loop errors (infinite
solution sets flagged during loop counting).
"""


class TgeError(Exception):
    """Base class for all package errors."""


class GraphFormatError(TgeError):
    """Graph spec text/JSON is structurally malformed."""


class GraphValidationError(TgeError):
    """A well-formed graph spec violates a graph invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CapExceededError(TgeError):
    """An enumeration grew past its configured resource cap."""


class DegenerateLoopError(TgeError):
    """A closed word has equal p- and q-products: its loop set is a continuum."""

    def __init__(self, word, message=None):
        self.word = word
        super().__init__(message or f"degenerate closed word {word}")


class SpectralConvergenceError(TgeError):
    """A radius bracket stopped narrowing short of tol, which must then be
    finer than doubles resolve; carries the narrowest bracket's midpoint
    and width and the step count."""

    def __init__(self, message, best_estimate, iterations, residual):
        self.best_estimate = best_estimate
        self.iterations = iterations
        self.residual = residual
        super().__init__(message)


class ExpressionSyntaxError(TgeError):
    """Generator expression text failed to parse; carries the offset."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class NormalizationError(TgeError):
    """A square-root normalization flag could not be resolved exactly."""
