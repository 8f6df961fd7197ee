"""Exception types shared across the package.

Everything raised deliberately by this package derives from SpectralTspError,
so callers can catch one type at the boundary.  Input-format problems (files
that do not parse) are kept separate from numeric precondition violations so
the command line tool can map them to distinct exit codes.
"""

from __future__ import annotations


class SpectralTspError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(SpectralTspError):
    """A problem file, graph file, or manifest could not be parsed."""


class UnsupportedKeyword(InputFormatError):
    """A problem file uses a keyword or enum value outside the supported set."""


class TruncatedSection(InputFormatError):
    """A data section ended before the declared number of entries."""


class DimensionMismatch(InputFormatError):
    """Declared dimension disagrees with the amount of data present."""


class NonFiniteValue(InputFormatError):
    """A problem or sidecar file holds a number that is not finite, or
    coordinates whose realized distances are not."""


class InvalidDimension(SpectralTspError):
    """Matrix or instance size outside the operation's admissible range."""


class InvalidMatrix(SpectralTspError):
    """A matrix argument is malformed: not square, non-finite, or structurally
    invalid for the operation (e.g. an adjacency matrix with self-loops)."""


class InvalidTolerance(SpectralTspError):
    """A decision tolerance is not a finite number >= 0."""


class NotSymmetric(SpectralTspError):
    """Operation requires a symmetric matrix and the argument is not one."""


class NotNormal(SpectralTspError):
    """Operation requires a normal matrix (commuting with its transpose)."""


class NonzeroDiagonal(SpectralTspError):
    """Distance matrix has nonzero diagonal entries; they are never silently zeroed."""


class TooLarge(SpectralTspError):
    """Instance exceeds the hard size cap of an exact or enumerative routine."""


class InvalidTour(SpectralTspError):
    """A city order is not a permutation of 0..n-1."""


class Disconnected(SpectralTspError):
    """Graph operation requires a connected graph."""

