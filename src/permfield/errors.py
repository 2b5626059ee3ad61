"""Shared exception types."""


class InvalidArgumentError(ValueError):
    """An argument violates an operation's precondition."""


class DomainError(ValueError):
    """A numeric argument lies outside the mathematical domain."""


class CapacityError(OverflowError):
    """Exact integer reduction would exceed the supported range.

    The message names the limiting parameter.
    """


class AccuracyError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class ConfigError(ValueError):
    """An experiment configuration is inconsistent or incomplete."""
