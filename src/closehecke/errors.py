"""Exception hierarchy.

Every exception carries a stable short ``code`` so the CLI can report
machine-readable failure reasons.
"""


class CloseHeckeError(Exception):
    code = "ERROR"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class SpecMismatchError(CloseHeckeError):
    code = "SPEC_MISMATCH"


class NotAUnitError(CloseHeckeError):
    code = "NOT_A_UNIT"


class NotMCloseError(CloseHeckeError):
    code = "NOT_M_CLOSE"


class GaloisConditionError(CloseHeckeError):
    code = "GALOIS_CONDITION_FAILED"


class SamePrimeError(CloseHeckeError):
    code = "SAME_PRIME"


class KindMismatchError(CloseHeckeError):
    code = "KIND_MISMATCH"


class InsufficientPrecisionError(CloseHeckeError):
    code = "INSUFFICIENT_PRECISION"


class BudgetExceededError(CloseHeckeError):
    code = "BUDGET_EXCEEDED"


class SideMismatchError(CloseHeckeError):
    code = "SIDE_MISMATCH"


class NotSigmaInvariantError(CloseHeckeError):
    code = "NOT_SIGMA_INVARIANT"


class WindowTooSmallError(CloseHeckeError):
    code = "WINDOW_TOO_SMALL"


class NotOrderLError(CloseHeckeError):
    code = "NOT_ORDER_L"


class MissingActionError(CloseHeckeError):
    code = "MISSING_ACTION"


class DimBoundExceededError(CloseHeckeError):
    code = "DIM_BOUND_EXCEEDED"


class GeneratorNameMismatchError(CloseHeckeError):
    code = "GENERATOR_NAME_MISMATCH"


class UndecidedError(CloseHeckeError):
    code = "UNDECIDED"


class ConfigError(CloseHeckeError):
    code = "CONFIG_INVALID"


class InvariantViolationError(CloseHeckeError):
    """A computed result failed the check that guards it."""
    code = "INVARIANT_VIOLATED"
