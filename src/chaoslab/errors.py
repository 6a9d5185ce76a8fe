"""Exception types shared across the package."""


class ChaoslabError(Exception):
    """Base class for all library errors."""


class ValidationError(ChaoslabError, ValueError):
    """Invalid system spec, schedule, thresholds or operand."""


class UsageError(ChaoslabError, ValueError):
    """Bad call-level arguments (CLI exit code 1)."""


class PolicyError(ChaoslabError, ValueError):
    """The burn-in or checkpoints give no usable checkpoint grid."""


class MetricUnavailable(ChaoslabError, ValueError):
    """The requested metric needs a track the trajectory does not carry."""


class SchemeError(ChaoslabError, ValueError):
    """Partition scheme cannot be applied to the given pair or depth."""


class MembershipError(ChaoslabError, ValueError):
    """Operand is not a member of the expected block family."""


class InsufficientHorizon(ChaoslabError, ValueError):
    """Horizon too short for the requested construction."""


class GuardExceeded(ChaoslabError, RuntimeError):
    """A window-budget or enumeration guard was exceeded (CLI exit code 3)."""


class InvariantViolation(ChaoslabError, RuntimeError):
    """Post-hoc validation of an output artifact failed (CLI exit code 2)."""
