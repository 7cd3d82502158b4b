"""Exception hierarchy shared by all soficlab modules.

Every structured domain failure raises a subclass of :class:`SoficlabError`,
so callers (and the CLI) can separate bad inputs from genuine bugs.
"""


class SoficlabError(Exception):
    """Base class for all structured errors raised by this package."""


class InvalidGraphFile(SoficlabError, ValueError):
    """A graph file that is not a well-formed graph document."""


class InvalidMapFile(SoficlabError, ValueError):
    """A map file line that is not an integer or not an image in 0..n-1."""


class NotAPermutation(SoficlabError):
    pass


class InversePairMismatch(SoficlabError):
    pass


class NotInverseClosed(SoficlabError):
    pass


class InvalidTable(SoficlabError):
    pass


class GeneratorSetMismatch(SoficlabError):
    pass


class UnknownSymbol(SoficlabError):
    pass


class LengthMismatch(SoficlabError):
    pass


class TooLargeForExhaustive(SoficlabError):
    pass


class DegenerateVector(SoficlabError):
    pass


class NotBijective(SoficlabError):
    pass


class NonPositiveCheeger(SoficlabError):
    pass


class StructureViolation(SoficlabError):
    """Pairwise Hamming distances landed in the forbidden middle band."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class ClosureFailure(SoficlabError):
    pass


class HypothesisViolation(SoficlabError):
    pass


class DefectTooLarge(SoficlabError):
    pass


class CollisionFailure(SoficlabError):
    pass


class MultiplicativityFailure(SoficlabError):
    pass
