"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own
class, so tests and the command-line layer can catch them by name
instead of matching message strings.
"""

from __future__ import annotations


class KocalcError(Exception):
    """Base class for all errors raised by this package.  ``exit_code`` is
    the command line's when a command stops on the error: 1 for a
    mathematical failure, 2 for a usage or input error."""

    exit_code = 1


class InvalidArgument(KocalcError, ValueError):
    """An argument lies outside the values the function accepts.

    It is also a ``ValueError``, so a caller that catches ``ValueError``
    for a bad argument keeps working.
    """

    exit_code = 2


# --- exact linear algebra ---------------------------------------------------

class DimensionMismatch(KocalcError):
    """Matrix shapes do not admit the requested operation."""


class NotUnitary(KocalcError, ValueError):
    """An antiunitary operator's linear part is not unitary.  Also a
    ``ValueError``, as ``InvalidArgument`` is."""


# --- Clifford representations -----------------------------------------------

class OddDimensionUnsupported(KocalcError):
    """Gamma-matrix construction requires an even number of generators."""

    exit_code = 2


class TooManyGenerators(KocalcError):
    """Gamma-matrix construction is bounded in the number of generators."""

    exit_code = 2


class RealStructureNotFound(KocalcError):
    """No monomial real-structure candidate commutes with all generators."""


class NoHermitianGenerator(KocalcError):
    """A hermitian generator was requested but every generator is anti-hermitian."""

    exit_code = 2


class InconsistentClassification(KocalcError):
    """The classification table gives no matrix algebra of the real dimension
    2^(p+q); like AdditivityViolation, it means a table is wrong."""


# --- spectral triples ---------------------------------------------------------

class NotSignInvolutive(KocalcError):
    """J squared is not a sign times the identity."""


class IndefiniteSign(KocalcError):
    """J neither commutes nor anticommutes uniformly with the given operator.

    ``sides`` holds the two matrices that were compared, K conj(A) and A K
    for the operator A, when the raiser measured them.
    """

    def __init__(self, message: str, sides: tuple | None = None):
        super().__init__(message)
        self.sides = sides


class NoTableMatch(KocalcError):
    """The extracted signs match no row of the mod-8 sign table."""


class NoChirality(KocalcError):
    """The operation needs a chirality operator and the triple has none."""


class RestrictionUndefined(KocalcError):
    """Majorana-Weyl restriction needs eps = +1 and eps'' = +1."""


# --- products and the sign calculus ------------------------------------------

class InvalidComponent(KocalcError):
    """A product factor fails triple validation."""


class IncompleteSigns(KocalcError):
    """A sign component required by the composition rule is absent."""


class AdditivityViolation(KocalcError):
    """A compatible product's signature is not the mod-8 sum of the factors'."""


# --- persistence ---------------------------------------------------------------

class ParseError(KocalcError):
    """A triple document is malformed; carries the JSON location."""

    exit_code = 2

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            super().__init__(f"{location}: {message}")
        else:
            super().__init__(message)


class UnsupportedVersion(KocalcError):
    """The document declares a schema version this package does not read."""

    exit_code = 2


class InvalidTriple(KocalcError):
    """The document parsed but violates a spectral-triple invariant."""
