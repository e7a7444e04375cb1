"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class ForkcastError(Exception):
    """Base class for all package errors."""


# ingest
class SignatureMismatch(ForkcastError):
    """Log topic0 does not match the event signature hash."""


class MalformedData(ForkcastError):
    """Log data segment too short or not decodable for the signature."""


class ParseError(ForkcastError):
    """Input file line could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptySet(ForkcastError):
    """Ground-truth file contained no addresses."""


class TransportError(ForkcastError):
    """RPC endpoint unreachable or persistently failing."""


# matrix
class EmptyInput(ForkcastError):
    """No events yield a valid voter matrix."""


# dissim
class IndexOutOfRange(ForkcastError):
    """Proposal position outside the analyzable 2..m range."""


class EmptyActiveSet(ForkcastError):
    """Fewer than two addresses met the participation threshold."""


# embed
class AllZeroDissimilarity(ForkcastError):
    """Dissimilarity matrix has no nonzero cell; stress is undefined."""


class NonFiniteInput(ForkcastError):
    """Coordinates or dissimilarities contain NaN or infinity."""


# cluster
class TooFewPoints(ForkcastError):
    """Fewer points than requested clusters."""


class SingleCluster(ForkcastError):
    """Silhouette needs at least two non-empty clusters."""


# validate
class EmptyRange(ForkcastError):
    """No analyzable proposals fall inside the requested range."""


# report
class InconsistentSeries(ForkcastError):
    """Chart series lengths do not agree."""


class LabelMismatch(ForkcastError):
    """Labels do not cover all embedded addresses."""


# cli
class ConfigError(ForkcastError):
    """Run configuration is invalid or incomplete."""


class MissingArtifact(ForkcastError):
    """An upstream artifact required by this command is absent."""
