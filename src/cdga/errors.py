"""Exception types shared across the package."""


class CdgaError(Exception):
    """Base class for all package errors."""


class MixedAlgebra(CdgaError):
    """Two elements from different algebras were combined."""


class DimensionMismatch(CdgaError):
    """Linear-algebra operands have incompatible shapes."""


class NoSolution(CdgaError):
    """A linear system has no solution, or a supplied solution does not
    solve it."""


class BoundTooLow(CdgaError):
    """A degree bound is below the minimum required."""


class WrongDegree(CdgaError):
    """An element has the wrong degree for the requested operation."""


class InhomogeneousDifferential(CdgaError):
    """A differential image mixes degrees."""


class D2NonZero(CdgaError):
    """The differential does not square to zero."""


class NotACocycle(CdgaError):
    """An element expected to be closed is not."""


class NotDefined(CdgaError):
    """A Massey product is undefined (a cup product is a nonzero class)."""


class NotSimplyConnected(CdgaError):
    """Minimal model construction requires H^1 = 0."""


class NotMinimal(CdgaError):
    """The DGA is not a minimal Sullivan algebra."""


class NotAChainMap(CdgaError):
    """A morphism fails to commute with the differentials."""


class NotInvertible(CdgaError):
    """A matrix that must be invertible is singular."""


class DegreeGap(CdgaError):
    """A cohomology automorphism is missing a required degree."""


class UnknownCorpusEntry(CdgaError):
    """No corpus entry with that name."""


class ParamOutOfRange(CdgaError):
    """A corpus or construction parameter is outside its documented
    range, such as a top_sign other than 1 or -1."""


class ModelTooLarge(CdgaError):
    """A staged construction exceeded its size budget before finishing.

    Where it stopped, as far as known: the stage, the degree and dimension
    of the piece over budget, and the generator count.
    """

    def __init__(self, message, stage=None, degree=None, dimension=None,
                 generators=None):
        super().__init__(message)
        self.stage = stage
        self.degree = degree
        self.dimension = dimension
        self.generators = generators


class ModelSyntaxError(CdgaError):
    """Expression or model-file syntax error, with location."""

    def __init__(self, message, line=None, column=None, field=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.field = field

    def location(self):
        loc = {}
        if self.field is not None:
            loc["field"] = self.field
        if self.line is not None:
            loc["line"] = self.line
        if self.column is not None:
            loc["column"] = self.column
        return loc


class UnknownIdentifier(ModelSyntaxError):
    """An expression identifier resolves to neither generator nor parameter."""
