"""Exception types shared across the toolkit."""

__all__ = ["DomainError", "ResonanceError", "EigenvalueError", "NoConvergence", "ConvergenceWarning"]


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ResonanceError(ArithmeticError):
    """A normal-form step hit, or came too close to, a low-order resonance."""


class EigenvalueError(ArithmeticError):
    """The requested eigenvalue configuration does not exist."""


class NoConvergence(RuntimeError):
    """Newton iteration failed to converge from the given seed."""


class ConvergenceWarning(UserWarning):
    """Some Newton starts stalled without converging or diverging."""
