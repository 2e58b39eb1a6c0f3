"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError and
ContractError exit 2, DataError (and FormatError) and WorkerError exit 3,
NumericalError exit 4.
"""

import contextlib


class LungFuseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LungFuseError):
    """Invalid or contradictory configuration (unknown keys, bad values)."""


class ContractError(LungFuseError):
    """A function precondition was violated by the caller."""


class DataError(LungFuseError):
    """Input data exists but is unusable (empty volume, class too small)."""


class FormatError(DataError):
    """A file failed to parse; message carries the byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@contextlib.contextmanager
def in_file(path):
    """Lead a FormatError raised inside with the path of the file at fault; keep its offset."""
    try:
        yield
    except FormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


class NumericalError(LungFuseError):
    """A computation degenerated (non-finite loss, zero-variance signal)."""


class WorkerError(LungFuseError):
    """A forked worker process died before its task finished."""
