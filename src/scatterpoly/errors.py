"""Exception types shared across the package."""


class ScatterpolyError(Exception):
    """Base class for all library-specific errors."""


class NonPrime(ScatterpolyError):
    def __init__(self, value: int):
        super().__init__(f"{value} is not prime")
        self.value = value


class FieldTooLarge(ScatterpolyError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"field size {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class EvenCharacteristicRejected(ScatterpolyError):
    """Raised for p = 2 unless the caller opts out of the odd-characteristic default."""


class DivisionByZero(ScatterpolyError, ZeroDivisionError):
    pass


class ZeroPolynomial(ScatterpolyError):
    """The term list collapsed to the zero map, which carries no information here."""


class IndexExceedsMinExponent(ScatterpolyError):
    pass


class WouldBeZero(ScatterpolyError):
    pass


class RhoInBaseField(ScatterpolyError):
    pass


class NotADivisor(ScatterpolyError):
    pass


class NotABinomial(ScatterpolyError):
    pass


class HypothesisViolated(ScatterpolyError):
    pass


class BadIndex(ScatterpolyError):
    pass


class ParseError(ScatterpolyError):
    pass


class NeedsFieldAddition(ParseError):
    """Adding field elements needs a field context; beyond the table limit there is none.

    Raised by ``parse_poly`` on a bare ``FieldParams`` for a text that adds
    coefficients while parsing: a coefficient vector or a repeated exponent.
    A field context builds its Zech table when it first adds.
    """
