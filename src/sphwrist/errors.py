"""Exception types with stable machine-parsable categories for the CLI."""


class WristError(Exception):
    """Base error; ``category`` is the one-word class printed by the CLI."""

    category = "error"


class InvalidInputError(WristError):
    category = "invalid-input"


class OutOfRangeError(WristError):
    category = "out-of-range"


class SingularOrientationError(WristError):
    category = "singular-orientation"


class UnreachableOrientationError(WristError):
    category = "unreachable-orientation"


class SingularConfigurationError(WristError):
    category = "singular-configuration"


class BranchJumpError(WristError):
    category = "branch-jump"


class InconsistentStateError(WristError):
    category = "inconsistent-state"


class ModelInconsistencyError(WristError):
    category = "model-inconsistency"


class InvalidSpecError(WristError):
    category = "invalid-spec"


class ConfigError(WristError):
    category = "config-error"


class FileIOError(WristError):
    category = "io-error"
