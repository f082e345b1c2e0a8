"""Lack-of-fit tests for polynomial covariate effects in partially linear
and linear mixed models, against penalized-spline alternatives.

Four test families: exact (restricted) likelihood ratio tests with simulated
finite-sample null distributions, a variance-component score test with scaled
chi-square calibration, and residual cumulative-sum tests with multiplier
resampling; plus a Monte Carlo harness for size/power studies.
"""

__version__ = "0.1.0"

from .data_io import ColumnMap, Dataset, load_csv, save_csv
from .errors import (
    ConfigError,
    CovtestError,
    DataError,
    DegenerateFitError,
    ModelError,
    NumericalError,
    StudyError,
    DegenerateTestError,
)
from .spline_basis import (
    DesignMatrices,
    KnotSet,
    SmootherKernel,
    build_design,
    place_knots,
    smoother_kernel,
    truncated_power,
)
from .null_fit import (
    NullFit,
    RemlProjection,
    fit_ols,
    fit_reml_random_intercept,
    reml_projection,
)
from .exact_lrt import (
    LambdaGrid,
    NullDistribution,
    ProfileSolver,
    SpectralCache,
    TestResult,
    attach_pvalue,
    default_lambda_grid,
    observed_statistic,
    p_value,
    profile_terms,
    simulate_null,
    simulate_null_cached,
    spectral_coordinates,
    spectral_decompose,
)
from .score_test import ScoreMoments, ScoreResult, run_score_test, score_statistic
from .cusum_test import (
    CusumProcess,
    CusumResult,
    cumulative_process,
    multiplier_null,
    multiplier_processes,
    sup_test,
)
from .sim_study import SimCell, SimConfig, SimReport, generate_dataset, nonlinear_effect, run_study

__all__ = [
    "__version__",
    "ColumnMap", "Dataset", "load_csv", "save_csv",
    "CovtestError", "DataError", "ConfigError", "ModelError", "NumericalError",
    "DegenerateFitError", "DegenerateTestError", "StudyError",
    "KnotSet", "DesignMatrices", "SmootherKernel", "place_knots", "truncated_power",
    "build_design", "smoother_kernel",
    "NullFit", "RemlProjection", "fit_ols", "fit_reml_random_intercept", "reml_projection",
    "SpectralCache", "LambdaGrid", "NullDistribution", "TestResult", "ProfileSolver",
    "spectral_decompose", "spectral_coordinates", "default_lambda_grid", "profile_terms",
    "simulate_null", "simulate_null_cached", "observed_statistic", "p_value", "attach_pvalue",
    "ScoreMoments", "ScoreResult", "score_statistic", "run_score_test",
    "CusumProcess", "CusumResult", "cumulative_process", "multiplier_null",
    "multiplier_processes", "sup_test",
    "SimConfig", "SimCell", "SimReport", "generate_dataset", "nonlinear_effect", "run_study",
]
