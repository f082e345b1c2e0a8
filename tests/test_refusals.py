"""The library's refusals of its own arguments: each raises its category's
error with its message. The command line's refusals are in test_cli.py."""

from dataclasses import replace

import numpy as np
import pytest

from covtest import (
    ConfigError,
    DataError,
    Dataset,
    KnotSet,
    NullDistribution,
    NumericalError,
    build_design,
    cumulative_process,
    fit_ols,
    fit_reml_random_intercept,
    generate_dataset,
    p_value,
    place_knots,
    profile_terms,
    reml_projection,
    score_statistic,
    smoother_kernel,
    spectral_decompose,
    sup_test,
    truncated_power,
)


def null_fit(ds):
    design = build_design(ds, KnotSet(np.empty(0), 1))
    return fit_ols(ds, design), design


def ordering_too_long(ds):
    cumulative_process(null_fit(ds)[0], np.zeros(ds.n + 1))


def no_sups(ds):
    sup_test(cumulative_process(null_fit(ds)[0], ds.t), [])


def no_knots(ds):
    spectral_decompose(build_design(ds, KnotSet(np.empty(0), 1)))


def zero_denominator(ds):
    cache = spectral_decompose(build_design(ds, place_knots(ds.t, 5, 1)))
    profile_terms(cache, np.zeros(cache.proj_eigs.size), 0.0, 1.0)


def one_cluster(ds):
    ds = Dataset(y=ds.y, S=ds.S, t=ds.t, cluster=np.zeros(ds.n))
    fit_reml_random_intercept(ds, build_design(ds, KnotSet(np.empty(0), 1)))


def design_too_long(ds):
    reml_projection(null_fit(ds)[0], np.ones((ds.n + 1, 1)))


def ratio_without_clusters(ds):
    fit, design = null_fit(ds)
    reml_projection(replace(fit, ratio=0.5), design.X)


def projection_of_another_fit(ds):
    other, design = null_fit(generate_dataset(ds.n - 1, 0.25, 0, seed=(3, 0)))
    score_statistic(null_fit(ds)[0], reml_projection(other, design.X), smoother_kernel(ds.t, 1))


N = 40  # rows of conftest's small_dataset
CASES = {
    "cusum ordering of the wrong length": (
        ordering_too_long, ConfigError, f"ordering variable has {N + 1} rows, residuals have {N}"),
    "cusum test without sups": (no_sups, ConfigError, "need at least one resampled sup-norm"),
    "1-d S of one column, the wrong length": (
        lambda ds: Dataset(y=np.zeros(3), S=np.zeros(2), t=np.zeros(3)),
        DataError, "length mismatch: y has 3 rows, t has 3, S has 2"),
    "empty 1-d S beside a y that is not a vector": (
        lambda ds: Dataset(y=np.zeros((3, 1)), S=[], t=np.zeros(3)),
        DataError, "y and t must be vectors and S a 2-d matrix"),
    "t that is not a vector": (
        lambda ds: Dataset(y=np.zeros(3), S=np.zeros((3, 0)), t=np.zeros((3, 1))),
        DataError, "y and t must be vectors and S a 2-d matrix"),
    "cluster labels of the wrong length": (
        lambda ds: Dataset(y=np.zeros(3), S=np.zeros((3, 0)), t=np.arange(3.0), cluster=[0, 1]),
        DataError, "cluster has 2 rows, expected 3"),
    "spectral decomposition without knots": (
        no_knots, ConfigError, "spectral decomposition needs at least one knot"),
    "profile with a zero denominator": (
        zero_denominator, NumericalError, "denominator of the profile ratio is zero"),
    "p-value against an empty null": (
        lambda ds: p_value(1.0, NullDistribution(np.empty(0), {})),
        ConfigError, "null distribution has no samples"),
    "random-intercept fit of one cluster": (
        one_cluster, ConfigError, "random-intercept fit needs >= 2 clusters, got 1"),
    "projection of a design with another row count": (
        design_too_long, ConfigError, f"design has {N + 1} rows but the fit has {N}"),
    "projection at a positive ratio without clusters": (
        ratio_without_clusters, ConfigError, "a positive intercept variance needs cluster labels"),
    "score of a fit from another projection": (
        projection_of_another_fit, ConfigError,
        f"the fit ({N} rows) must match the projection's n = {N - 1} and ratio"),
    "knot set of negative degree": (
        lambda ds: KnotSet(np.empty(0), -1), ConfigError, "spline degree must be >= 0, got -1"),
    "knots that do not increase": (
        lambda ds: KnotSet(np.array([0.5, 0.5]), 1), ConfigError, "knots must be strictly increasing"),
    "truncated power of negative degree": (
        lambda ds: truncated_power(np.zeros(2), 0.5, -1), ConfigError, "degree must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", CASES)
def test_refusal_raises_its_category_and_message(small_dataset, case):
    call, error, message = CASES[case]
    assert small_dataset.n == N
    with pytest.raises(error) as info:
        call(small_dataset)
    assert type(info.value) is error and str(info.value) == message
