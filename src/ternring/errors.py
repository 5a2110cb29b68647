"""Domain errors raised by the workbench.

Every failure that corresponds to a violated mathematical precondition
gets its own class so callers (and the command line front end) can
react to the *kind* of failure without parsing messages.
"""


class TernringError(Exception):
    """Base class for all domain errors in this package."""


class NotAUnit(TernringError):
    """The element has a zero Gray coordinate and is not invertible."""


class ZeroPolynomial(TernringError):
    """The zero polynomial was passed where a nonzero one is required."""


class ConstantPolynomial(TernringError):
    """A constant polynomial was passed where degree >= 1 is required."""


class DivisionByZeroPoly(TernringError):
    """Polynomial division by the zero polynomial."""


class BothZero(TernringError):
    """gcd(0, 0) is undefined."""


class NotADivisor(TernringError):
    """The generator does not divide the required modulus."""


class ZeroCode(TernringError):
    """The code has no nonzero codeword, so the quantity is undefined."""


class LengthMismatch(TernringError):
    """A vector's length does not match the code or operator length."""


class MixedModuli(TernringError):
    """Components live modulo different polynomials and cannot combine."""


class BadFactorization(TernringError):
    """The length does not factor as requested (n != s * l)."""


class EvenLength(TernringError):
    """The operation is only defined for odd lengths."""


class OddS(TernringError):
    """The operation requires an even number of sections."""


class NonUnitLeadingCoefficient(TernringError):
    """Twisted division needs a unit leading coefficient in the divisor."""


class NotRightDivisor(TernringError):
    """The polynomial does not right-divide the required modulus."""


class SelfCheckFailed(TernringError):
    """A computed result failed its internal consistency check, so it is
    not reported (raised explicitly, unlike ``assert``, which ``-O``
    strips)."""


class BudgetExceeded(TernringError):
    """The exponential work the request needs is above the fixed budget,
    so it is refused before it starts instead of hanging or running out
    of memory."""


class NotDualContaining(TernringError):
    """The code does not contain its dual; CSS construction impossible.

    ``failing`` lists the 1-based indices of the offending components.
    """

    def __init__(self, failing):
        self.failing = tuple(failing)
        names = ", ".join(str(i) for i in self.failing)
        super().__init__(f"components not dual-containing: {names}")
