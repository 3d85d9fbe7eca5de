"""Exception types shared across the package."""


class MonoidKitError(Exception):
    """Base class for all monoidkit errors."""


class ValidationError(MonoidKitError):
    """An object failed structural validation."""


class BoundExceeded(MonoidKitError):
    """A bounded search or closure outgrew its configured bound."""


class BadWord(MonoidKitError):
    """Malformed word in a presentation."""


class UnsupportedBackend(MonoidKitError):
    """Operation not available for this monoid backend."""


class ZeroInS(MonoidKitError):
    """A localization set explicitly contained the zero element."""


class ZeroNotPrime(MonoidKitError):
    """Group completion requested but (0) is not prime."""


class NotAnIdeal(MonoidKitError):
    pass


class NotACongruence(MonoidKitError):
    pass


class ImproperIdeal(MonoidKitError):
    """The whole monoid was passed where a proper ideal is required."""


class NotASubset(MonoidKitError):
    """Subset is not closed under the action."""


class NotAES(MonoidKitError):
    """Sequence is not admissible exact."""


class NotAComplex(MonoidKitError):
    pass


class NotReduced(MonoidKitError):
    """Double-arrow complex is not reduced."""


class TruncationTooLow(MonoidKitError):
    pass


class NotNilpotent(MonoidKitError):
    pass


class HypothesisViolated(MonoidKitError):
    """Input violates a stated hypothesis of the formula being applied."""


class NotNormal(MonoidKitError):
    pass


class OracleMismatch(MonoidKitError):
    """A result disagreed with the independent check run against it."""


class MissingExpectation(MonoidKitError):
    """Corpus case without a usable expectation sidecar."""
