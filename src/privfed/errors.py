"""Exception types shared across the package."""


class PrivFedError(Exception):
    """Base class for all package errors."""


class LayoutError(PrivFedError):
    """Structural mismatch: shapes, lengths, or layouts disagree."""


class ConfigError(PrivFedError):
    """Invalid or inconsistent configuration."""


class CapacityError(PrivFedError):
    """Input exceeds a fixed capacity (e.g. more values than slots)."""


class StateError(PrivFedError):
    """Operands are in incompatible states (level, scale, params)."""


class DepthExhaustedError(StateError):
    """No modulus level left to consume for a rescaling multiplication."""


class DecodeError(PrivFedError):
    """Malformed bytes: bad magic, truncation, or corrupt payload."""


class ParseError(PrivFedError):
    """CSV or config text could not be parsed; carries a row number."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class SplitError(PrivFedError):
    """Dataset cannot be split under the stratification rules."""


class MetricError(PrivFedError):
    """Metric undefined for the given inputs (e.g. single-class labels)."""


class ProtocolError(PrivFedError):
    """Federation message violates the round protocol."""


class AuthError(PrivFedError):
    """A JOIN was refused: the coordinator raises it for a bad token, and a
    site for any refusal the coordinator sends it."""


class EndpointError(PrivFedError):
    """A TCP endpoint could not be bound or connected to."""


class RoundTimeoutError(PrivFedError):
    """A client failed to deliver its update within the round deadline."""
