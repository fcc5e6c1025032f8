"""Exception types shared across the package."""


class ScatterpolyError(Exception):
    """Base class for all library-specific errors."""


class NonPrime(ScatterpolyError):
    def __init__(self, value: int):
        super().__init__(f"{value} is not prime")
        self.value = value


class PrimalityUndecided(ScatterpolyError):
    """A p at or above the bound below which ``field.is_prime`` is exact."""


class FieldTooLarge(ScatterpolyError):
    """The size of ``field``, a ``FieldParams``, exceeds ``cap``; see its ``shown_sizes``."""

    def __init__(self, field, cap: int):
        super().__init__(f"field size {field.shown_sizes()['size']} exceeds cap {cap}")
        self.field = field
        self.size = field.size
        self.cap = cap


class EvenCharacteristicRejected(ScatterpolyError):
    """Raised for p = 2 unless the caller opts out of the odd-characteristic default."""


class DivisionByZero(ScatterpolyError, ZeroDivisionError):
    pass


class ZeroPolynomial(ScatterpolyError):
    """The term list collapsed to the zero map, which carries no information here."""


class WouldBeZero(ScatterpolyError):
    pass


class RhoInBaseField(ScatterpolyError):
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
