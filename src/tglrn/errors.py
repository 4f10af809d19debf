"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, data/file problems (an OSError too) with 3, numeric failures (NaN/Inf) with 4.
"""

import contextlib
import os


@contextlib.contextmanager
def open_output(path, mode="w"):
    """``open(path, mode)`` whose OSError, from a write or the close too, names ``path``."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as e:
        e.filename = e.filename or os.fspath(path)
        raise


class TglrnError(Exception):
    """Base class for all package errors."""


class ConfigError(TglrnError):
    """Invalid configuration: unknown keys, bad values, impossible layer schedules."""

    exit_code = 2


class DataError(TglrnError):
    """Invalid data: missing files, parse failures, out-of-range inputs."""

    exit_code = 3


class NumericError(TglrnError):
    """Non-finite values where finite ones are required."""

    exit_code = 4


class CheckpointError(DataError):
    """Malformed or incompatible checkpoint file."""


class StateError(TglrnError):
    """Operation invoked in an invalid order (e.g. backward without a recorded tape)."""

    exit_code = 2
