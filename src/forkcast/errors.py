"""Package errors: bad outside input, or an expected skip of a frame or range
with nothing to analyze. Anything else is a bug: internal checks raise
``ValueError``, which nothing catches, so a broken invariant crashes instead
of becoming a skipped frame or a failed seed.
"""

from __future__ import annotations


class ForkcastError(Exception):
    """Base class for all package errors."""


# bad outside input: settings, paths, fixtures, registries, provider data
class ConfigError(ForkcastError):
    """Run configuration or registry is invalid or incomplete."""


class MissingArtifact(ForkcastError):
    """An upstream artifact required by this command is absent."""


class ParseError(ForkcastError):
    """An input file line could not be parsed; ``line`` is always its 1-based
    number, and the message starts with it."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptySet(ForkcastError):
    """Ground-truth file contained no addresses."""


class EmptyInput(ForkcastError):
    """No events yield a valid voter matrix."""


class SignatureMismatch(ForkcastError):
    """Log topic0 is none of the registry entry's event signature hashes."""


class MalformedData(ForkcastError):
    """Provider log entry or its data segment cannot be decoded."""


class TransportError(ForkcastError):
    """RPC endpoint unreachable or persistently failing."""


# expected skips: a frame or range with nothing to analyze
class EmptyActiveSet(ForkcastError):
    """Fewer than two addresses met the participation threshold."""


class AllZeroDissimilarity(ForkcastError):
    """Dissimilarity matrix has no nonzero cell; stress is undefined."""


class TooFewPoints(ForkcastError):
    """A frame has fewer points than ``cluster.k_range`` needs."""


class EmptyRange(ForkcastError):
    """No analyzable proposals fall inside the requested range."""
