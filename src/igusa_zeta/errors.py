"""Exception hierarchy shared by every module of the package.

All engine failures derive from :class:`EngineError` so callers (notably the
CLI) can map them onto stable exit codes.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class PolynomialSyntaxError(EngineError):
    """Malformed polynomial text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UniformizerInCharZero(PolynomialSyntaxError):
    """The symbol ``u`` (the uniformizer) appeared while parsing in characteristic 0."""


class InsufficientValuation(EngineError):
    """Division by a power of the uniformizer that does not divide the value."""


class BudgetExceeded(EngineError):
    """An enumeration would exceed the configured budget.

    The budget caps the work of one classification (the residue points of
    its parts, p^2 per histogram convolution and the combinations of
    critical points it visits), the N_(j-1) p^n lifting candidates of one
    congruence-counting level and the box^n candidates of the weight search.
    """


class ZeroPolynomial(EngineError):
    """The zero polynomial was passed to an operation that excludes it."""


class NonUnitContent(EngineError):
    """Reduction modulo the uniformizer requires unit content; normalize first."""


class NotSemiQuasiHomogeneous(EngineError):
    """No admissible weight system was found for the input polynomial."""


class InvalidHint(EngineError):
    """A user-supplied weight system is inconsistent with the polynomial."""


class DepthExceeded(EngineError):
    """The dilatation recursion hit the depth cap.

    This is diagnostic: for inputs whose only singularity is the origin the
    recursion on regions away from it terminates, so hitting the cap suggests
    the singularity hypothesis is violated (or the cap is too small).
    """


class InvalidParameters(EngineError):
    """Closed-form generator called with parameters outside its hypotheses."""


class InvariantViolation(EngineError):
    """An internal exact identity failed; indicates a bug or corrupted input."""
