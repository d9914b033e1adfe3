"""Exception types shared across the package: one per exit code."""


class ChaincapError(Exception):
    """Base class for all package errors; ``exit_code`` is the status a
    command exits with when one ends it."""

    exit_code = 2


class InputError(ChaincapError, ValueError):
    """An argument, profile, file or command line is unusable (exit 2)."""


class CalibrationError(ChaincapError, RuntimeError):
    """A capacity is not borne out (exit 3): a write search's first probe is
    unsteady."""

    exit_code = 3
