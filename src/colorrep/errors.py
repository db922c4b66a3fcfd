"""Exception types shared across the package."""

from __future__ import annotations


class ColorrepError(Exception):
    """Base class for all errors raised by this package."""


class RankMismatchError(ColorrepError):
    """Two graded objects with different numbers of grading bits were combined."""


class SchemaError(ColorrepError):
    """A file or document does not match the expected schema."""


class AxiomError(ColorrepError):
    """Structure data violates a defining axiom (bracket laws, automorphism laws)."""


class PositivityError(ColorrepError):
    """An inner product or Gram matrix fails Hermitian positivity.

    The ``report`` attribute, when set, holds the positivity certificate of
    the sample Gram that the refusal read.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class LevelCapError(ColorrepError):
    """A word in the enveloping algebra exceeds the configured length cap."""


class PerfectnessError(ColorrepError):
    """An even-like sector is not spanned by brackets of odd-like elements.

    Carries the offending sector so callers can report it precisely.
    """

    def __init__(self, message: str, sector=None):
        super().__init__(message)
        self.sector = sector


class ExtensionError(ColorrepError):
    """The stability extension of a partial representation failed.

    The ``report`` attribute, when set, holds the detailed check that failed.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class StabilizationError(ColorrepError):
    """A sampled reconstruction did not close up at the configured level.

    Raised when the Gram rank keeps growing at the level cap, or when a
    translation operator leaves the span the rank test certified.  The
    ``rank_history`` attribute, when set, holds the rank at each level
    sampled, from level 0.
    """

    def __init__(self, message: str, rank_history=None):
        super().__init__(message)
        self.rank_history = rank_history


class EquivalenceError(ColorrepError):
    """No unitary equivalence could be established between two representations."""
