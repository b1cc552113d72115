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


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string"}


def json_field(value, kind, field, length=None):
    """``value`` if it has the JSON type ``kind`` (int, list, dict or str) and, for
    a list, ``length`` entries when given; else a ConfigError naming
    ``field``.  A boolean is not an integer; a tuple passes as a list."""
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is list:
        ok = isinstance(value, (list, tuple))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{field} must be {_JSON_KINDS[kind]}, not {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{field} must have {length} entries, not {len(value)}")
    return value
