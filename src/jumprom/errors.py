"""Exception types shared across the package.

Every error carries a short machine-parsable ``code`` so the CLI can emit
one-line diagnostics of the form ``ERROR <code>: <message>``.  Every error
pickles whole, so a scan worker can hand its error to the parent.  The
typed records check their fields with the checks at the end.
"""

import math
import numbers

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
