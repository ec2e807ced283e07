"""Exception hierarchy shared across the package."""

TOKEN_SHOWN = 40


def shorten(token):
    """`token` as an error message shows it: past TOKEN_SHOWN characters,
    its prefix and its length."""
    if len(token) <= TOKEN_SHOWN:
        return token
    return f"{token[:TOKEN_SHOWN]}... ({len(token)} characters)"


class NatProdError(Exception):
    """Base class for every contract violation raised by this package."""


class DomainMismatch(NatProdError):
    pass


class ShapeMismatch(NatProdError):
    pass


class TypeMismatch(NatProdError):
    """Super matrix operands agree in shape but not in partition."""


class NotAUnit(NatProdError):
    pass


class NotInvertible(NatProdError):
    pass


class ConeViolation(NatProdError):
    """An operation tried to leave a nonnegative cone (e.g. subtraction)."""


class UnsupportedDomain(NatProdError):
    pass


class NotClosed(NatProdError):
    """The result would need values outside the coefficient domain."""


class NotSquare(NatProdError):
    pass


class NotMonicizable(NatProdError):
    pass


class SingularLead(NatProdError):
    pass


class ZeroLead(NatProdError):
    pass


class NoRationalRoot(NatProdError):
    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class ZeroDivisorEntry(NatProdError):
    pass


class TooLarge(NatProdError):
    pass


class NotMember(NatProdError):
    pass


class ParseError(NatProdError):
    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.reason = message
        self.line = line
        self.column = column


class RaggedCuts(ParseError):
    """`|` markers or `--` rows do not line up across the literal."""
