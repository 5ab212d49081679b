"""Exception hierarchy.

Everything this package raises for input it refuses derives from QresError,
and the class decides how the CLI reports it: ``label`` heads the one line
on stderr and ``exit_code`` is the exit status.  A domain error exits 3
(DomainError and the other QresErrors), a usage error 2 (UsageError and its
subclasses), a missed convergence 4 (NotConverged).  DomainError is also a
ValueError, so callers that catch ValueError keep catching it.

Arithmetic and programming errors stay builtins: exact division by zero
(a zero CRat, Quat or denominator) raises ZeroDivisionError, as any numeric
type in Python does, and a wrong type raises TypeError.
"""


class QresError(Exception):
    """Base class for all package-level errors."""

    exit_code = 3
    label = "domain error"


class UsageError(QresError):
    """An argument to correct before any work: bad expression text, an
    unknown name, or a quadrature rule too coarse or too large."""

    exit_code = 2
    label = "usage error"


class DomainError(QresError, ValueError):
    """A value the library refuses, such as a ladder it cannot build, a
    test form or interval it cannot pair or integrate on, or a report value
    that JSON cannot hold."""


class ParseError(UsageError):
    """Bad expression text.

    Carries the character offset and a short description of what would have
    been acceptable at that point.
    """

    def __init__(self, message: str, pos: int, expected: str = ""):
        self.pos = pos
        self.expected = expected
        full = f"{message} at position {pos}"
        if expected:
            full += f" (expected {expected})"
        super().__init__(full)


class PoleError(QresError):
    """Evaluation of a rational function at a point annihilating its denominator."""


class PoleOnDomain(QresError):
    """A pairing's integrand blew up on the integration region itself."""


class IdenticallyZero(QresError):
    """Inversion of the zero function requested."""


class NotHyperholomorphic(QresError):
    """A precondition requiring the operator kernel failed."""


class NotHypermeromorphic(QresError):
    """A precondition requiring invertibility-compatible structure failed."""


class UnknownName(UsageError):
    """Catalogue lookup with a name that is not registered."""


class TooCoarse(UsageError):
    """Quadrature resolution below the supported minimum."""


class NotConverged(QresError):
    """A limit estimate whose tail did not settle, surfaced in strict mode."""

    exit_code = 4
    label = "not converged"


class RuleTooLarge(UsageError):
    """Quadrature rule whose chart mesh would exceed the ray cap."""
