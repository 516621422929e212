"""Exception hierarchy shared by all modules."""


class UlrichSurfError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(UlrichSurfError):
    """A coefficient vector does not match the lattice rank."""


class AsymmetricGram(UlrichSurfError):
    """The pairing matrix is not symmetric."""


class ParityViolation(UlrichSurfError):
    """Some basis vector b has b.b + b.K odd, breaking adjunction parity."""


class MissingHypothesis(UlrichSurfError):
    """An operation was invoked without its stated cohomological hypotheses."""


class DegenerateForm(UlrichSurfError):
    """The rank-2 solver found infinitely many solutions along the linear locus.

    Reachable on a degenerate pairing, which a surface document can carry:
    the Hodge-index check of parse_surface tests only K and the basis
    vectors.  Only a full signature check would reject such a document.
    """


class RankTooHigh(UlrichSurfError):
    """Exact enumeration is only available on lattices of rank at most 2."""


class InvalidPolarization(UlrichSurfError):
    """Polarization parameters outside the very-ampleness window."""


class BoxTooLarge(UlrichSurfError):
    """Bounded enumeration would exceed the iteration ceiling."""


class InvalidDegree(UlrichSurfError):
    """Degree parameter outside the range supported by the family."""


class OutOfRange(UlrichSurfError):
    """A family parameter outside the paper-backed window, or a search
    bound below 1."""


class ParseError(UlrichSurfError):
    """A surface document is not well-formed."""


class UnreadableFile(UlrichSurfError):
    """A surface document file could not be read or is not UTF-8 text."""


class ValidationError(UlrichSurfError):
    """A surface document or a command-line value failed validation.

    Carries the path of the offending field, or the option's name.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class UnknownBuiltin(UlrichSurfError):
    """No builtin surface with the requested name."""
