"""Exception taxonomy shared across the package, and the writers of its output files.

The CLI maps these onto process exit codes: configuration problems exit
with 2 (a MemoryError too: the settings ask for more than the machine has),
data/file problems (an OSError too) with 3, numeric failures (NaN/Inf) with 4.
``open_output`` opens an output file so that its OSError names it; ``write_csv`` writes every CSV.
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


def write_csv(path, header, rows):
    """The ``header`` line, then one line per row: ``str`` cells as they are, others as ``repr``.

    Pass Python scalars (``tolist()``, ``int()``, ``float()``), whose ``repr`` reads back bitwise;
    numpy 2 writes ``repr(np.float64(x))`` as ``np.float64(x)``. The first row decides which
    columns hold ``str`` cells.
    """
    with open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        line = None
        for row in rows:
            line = line or ",".join("%s" if isinstance(cell, str) else "%r" for cell in row) + "\n"
            fh.write(line % tuple(row))


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
