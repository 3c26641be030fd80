"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should prefer them over
bare ValueError whenever the failure mode is one a caller may want to
distinguish (bad input text, a blown enumeration budget, an impossible
expansion).
"""


class GammalabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GammalabError, ValueError):
    """Malformed input text (permutation strings, etc.)."""


class ResourceBoundError(GammalabError, RuntimeError):
    """An enumeration or series order exceeds the configured bound."""


class StructureError(GammalabError, ValueError):
    """A tree value violates its structural invariants."""


class ExpansionError(GammalabError, ValueError):
    """A polynomial is not in the span of the requested gamma basis."""


class InversionError(GammalabError, ValueError):
    """A power series does not admit a compositional inverse."""


class DistributionError(GammalabError, ValueError):
    """A joint distribution disagrees with its own permutation count."""
