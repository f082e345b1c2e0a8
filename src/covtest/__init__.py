"""Lack-of-fit tests for polynomial covariate effects in partially linear
and linear mixed models, against penalized-spline alternatives.

Four test families: exact (restricted) likelihood ratio tests with simulated
finite-sample null distributions, a variance-component score test with scaled
chi-square calibration, and residual cumulative-sum tests with multiplier
resampling; plus a Monte Carlo harness for size/power studies.

Each public name is imported from its home submodule on first access
(PEP 562), so ``import covtest`` loads no submodule and a command loads only
the ones it runs. The name is read from the submodule on every access, never
copied here, so ``covtest.X is covtest.<home>.X`` always holds.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home submodule -> the public names it defines, in ``__all__`` order.
_HOMES = {
    "data_io": "Clusters ColumnMap Dataset load_csv save_csv",
    "errors": "CovtestError DataError ConfigError ModelError NumericalError "
              "DegenerateFitError DegenerateTestError StudyError",
    "spline_basis": "KnotSet DesignMatrices SmootherKernel place_knots truncated_power "
                    "build_design smoother_kernel",
    "null_fit": "NullFit fit_ols fit_reml_random_intercept reml_projection",
    "exact_lrt": "SpectralCache LambdaGrid NullDistribution NullVariant TestResult ProfileSolver "
                 "spectral_decompose spectral_coordinates default_lambda_grid profile_terms "
                 "simulate_null simulate_nulls simulate_null_cached observed_statistic p_value attach_pvalue",
    "score_test": "ScoreMoments ScoreResult score_statistic run_score_test",
    "cusum_test": "CusumProcess CusumResult cumulative_process multiplier_null "
                  "multiplier_processes sup_test",
    "sim_study": "SimConfig SimCell SimReport generate_dataset nonlinear_effect run_study",
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names.split()}

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME_OF})
