import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# derandomize: the package's contract leans on bit-reproducible runs, so the
# property tests should not be a hidden entropy source either.
settings.register_profile(
    "covtest",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("covtest")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def small_dataset():
    """Independent partially linear data under the linear null."""
    from covtest import generate_dataset

    return generate_dataset(40, 0.25, 0, seed=(101, 0))


@pytest.fixture(scope="session")
def study_block():
    """Blocks of the paper's study at m = 100, as ``sim_study._run_block`` builds
    them: two sigma and five c (10 columns), 20 knots, G = 201, seed 1.
    ``study_block(R)`` is (config, fixtures, Y, factored) for replicates 0..R-1,
    with the stacked QR of X = [S | A] per spline degree (1 and 2)."""
    from covtest.sim_study import SimConfig, _block_data, _study_fixtures
    from covtest.spline_basis import stacked_qr

    config = SimConfig(m_values=(100,), tests=("lrt1", "lrt2", "rlrt", "score"), n_runs=33,
                       n_sims_null=10, seed=1)
    fixtures = _study_fixtures(config, 100)

    def block(reps):
        Y, S = _block_data(config, *fixtures["effects"], range(reps))
        factored = {d: stacked_qr(np.stack([np.hstack([s, design.A]) for s in S]))
                    for d, design in fixtures["designs"].items()}
        return config, fixtures, Y, factored

    return block
