"""Exception types shared across the package.

Every error carries a short machine-parsable ``code`` so the CLI can emit
one-line diagnostics of the form ``ERROR <code>: <message>``.  Every error
pickles whole, so a scan worker can hand its error to the parent.  Every
numeric setting is checked by ``check_number``, and a typed record's int,
float and bool fields by ``check_fields`` against the record's ``BOUNDS``.
"""

import math
import numbers
from dataclasses import fields

import numpy as np


class JumpromError(Exception):
    code = "E_RUNTIME"

    def __reduce__(self):
        # rebuilt without __init__, whose arguments differ from subclass to subclass
        return _rebuild_error, (type(self), self.args, self.__dict__)


def _rebuild_error(cls, args, state):
    error = cls.__new__(cls, *args)
    error.args = args
    error.__dict__.update(state)
    return error


class ValidationError(JumpromError):
    """Input data violates a documented precondition or invariant."""

    code = "E_VALIDATE"


class DatasetLoadError(JumpromError):
    """A dataset file or manifest could not be parsed or validated."""

    code = "E_LOAD"


class NonUniformTimestepError(ValidationError):
    code = "E_TIMESTEP"


class RankDeficientEncoderError(JumpromError):
    """Encoder weight matrix has (numerically) deficient row rank."""

    code = "E_RANK"

    def __init__(self, message, smallest_singular_value):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class PipelineStepError(JumpromError):
    """Wraps a failure inside one of the sequential training steps."""

    code = "E_PIPELINE"

    def __init__(self, step, cause):
        super().__init__(f"pipeline step {step} failed: {cause}")
        self.step = step
        self.cause = cause


class ModelFormatError(JumpromError):
    """Model file malformed; ``byte_offset`` points at the offending line."""

    code = "E_FORMAT"

    def __init__(self, message, byte_offset):
        super().__init__(f"{message} (byte {byte_offset})")
        self.byte_offset = byte_offset


class UnsupportedModelVersionError(JumpromError):
    code = "E_VERSION"

    def __init__(self, found, supported):
        super().__init__(
            f"unsupported model format version {found!r}; this build reads version {supported}"
        )
        self.found = found
        self.supported = supported


class MissingPhaseError(JumpromError):
    """A rollout schedule references a phase the model was not trained on."""

    code = "E_PHASE"

    def __init__(self, phase):
        super().__init__(f"model has no dynamics for phase {phase!r}")
        self.phase = phase


class DivergenceError(JumpromError):
    """Integrated state became non-finite."""

    code = "E_BLOWUP"

    def __init__(self, message, time):
        super().__init__(message)
        self.time = time


def result_or_raise(outcome):
    """``outcome``, unless it is a JumpromError, which is raised."""
    if isinstance(outcome, JumpromError):
        raise outcome
    return outcome


def is_integer(value):
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value):
    """True for a finite real number that is not a bool (nor an int beyond float range)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_KINDS = {"int": ("an integer", is_integer), "float": ("a finite number", is_finite_real),
          "bool": ("true or false", lambda value: isinstance(value, bool))}


def check_number(name, value, kind, bound=""):
    """Raise ValidationError("<name> must be <an integer | a finite number |
    true or false>[ >= b | > b], got <value>") unless ``value`` is of
    ``kind`` ("int", "float" or "bool") and meets ``bound``, "" for none."""
    wording, of_kind = _KINDS[kind]
    op, limit = bound.split() if bound else (">=", "-inf")
    if not (of_kind(value) and (value >= float(limit) if op == ">=" else value > float(limit))):
        raise ValidationError(f"{name} must be {wording} {bound}".rstrip() + f", got {value!r}")


def check_fields(record, bounds):
    """``check_number`` on each field of the dataclass ``record`` annotated
    "int", "float" or "bool", with the bound ``bounds`` gives its name."""
    for f in fields(record):
        if f.type in _KINDS:
            check_number(f.name, getattr(record, f.name), f.type, bounds.get(f.name, ""))


def finite_array(name, value, shape):
    """value as a float array; ValidationError naming ``name`` unless it is
    an array of the given shape of finite numbers."""
    try:
        array = np.asarray(value)
    except ValueError:   # a ragged sequence
        array = np.empty(0)
    if array.shape != shape or array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise ValidationError(f"{name} must be finite numbers of shape {shape}")
    return array.astype(float)
