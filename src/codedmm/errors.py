"""Exception types shared across the package."""


class CodedmmError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(CodedmmError):
    """Operands belong to different prime fields."""


class DivisionByZero(CodedmmError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class DuplicateEvaluationPoint(CodedmmError):
    """Interpolation was given two points with the same x-coordinate."""


class BlockShapeMismatch(CodedmmError):
    """Matrix blocks have incompatible shapes for the requested operation."""


class TooFewWorkers(CodedmmError):
    """N is below the minimum the scheme needs to exist."""


class FieldTooSmall(CodedmmError):
    """The field cannot supply enough distinct evaluation points."""


class InsufficientResults(CodedmmError):
    """Fewer worker results than the scheme's recovery threshold."""


class SingularDecodeSystem(CodedmmError):
    """The linear system tying results to unknowns is singular for this subset."""


class TooManyErrors(CodedmmError):
    """More corrupted results than the decoder can locate consistently."""


class DegreeCollision(CodedmmError):
    """Exponent choice maps two distinct product terms onto a needed degree."""


class ConstructionTooLarge(CodedmmError):
    """Composed bilinear construction exceeds the supported rank budget."""


class UnknownWorker(CodedmmError):
    """A worker index outside [0, N) was named in a decode subset."""


class MissingResult(CodedmmError):
    """A worker named in a decode subset has no result."""


class UnsupportedScheme(CodedmmError):
    """The operation is not defined for this coding scheme."""


class NonIntegerEntry(CodedmmError, TypeError):
    """An input meant for GF(q) holds a float, complex or other non-integer entry."""
