"""Exception hierarchy.

Everything raised on purpose by this package derives from QresError so the
CLI can map domain failures to a single exit code.  Quaternion inversion at
zero raises the builtin ZeroDivisionError instead, matching what any numeric
type in Python does.
"""


class QresError(Exception):
    """Base class for all package-level errors."""


class ParseError(QresError):
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


class UnknownName(QresError):
    """Catalogue lookup with a name that is not registered."""


class TooCoarse(QresError):
    """Quadrature resolution below the supported minimum."""


class NotConverged(QresError):
    """A limit estimate whose tail did not settle, surfaced in strict mode."""


class RuleTooLarge(QresError):
    """Quadrature rule whose chart mesh would exceed the ray cap."""
