"""Exception taxonomy shared by all covtest modules.

Every error carries a ``category`` used by the CLI to prefix diagnostics
and pick exit codes: data, config, model, numerical.
"""

from contextlib import contextmanager


class CovtestError(Exception):
    """Base class for all errors raised by this package."""

    category = "internal"


class DataError(CovtestError):
    """Malformed or unusable input data (missing rows, non-finite cells)."""

    category = "data"


class ConfigError(CovtestError):
    """Invalid configuration: bad flags, incompatible dimensions, bad ranges."""

    category = "config"


class ModelError(CovtestError):
    """Model cannot be formed or estimated (rank deficiency, degenerate design)."""

    category = "model"


class NumericalError(CovtestError):
    """Numerical failure: non-convergence, ill-conditioning, solver breakdown."""

    category = "numerical"


class DegenerateFitError(ModelError):
    """Fit has zero residual variance; downstream statistics would divide by 0."""


class DegenerateTestError(ModelError):
    """Test statistic is degenerate (e.g. smoother kernel annihilated by projection)."""


class StudyError(NumericalError):
    """Too many per-replicate failures for a simulation study to be trustworthy."""


def check_seed(seed: int) -> int:
    """``seed`` if it lies in [0, 2**32), one word of a stream key (covtest.rng); else a
    ConfigError. numpy would refuse a negative seed and read a larger one as two words,
    the key of a smaller seed's streams."""
    if not 0 <= seed < 2**32:
        raise ConfigError(f"seed must lie in [0, 2**32), got {seed}")
    return seed


@contextmanager
def sized_by(flag: str, count: int):
    """numpy's refusal of the arrays a count sizes in the block (a MemoryError, or a ValueError
    for a shape past the address space) as one config error naming the count's command-line flag."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"--{flag} {count} needs more memory than can be allocated ({exc})") from None
