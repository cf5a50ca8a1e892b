"""Shared tuned configurations for session-level tests.

The small-session config keeps the norm circuit compact (coarse additive
masks, scaled-down data, one validated layer) so full protocol runs stay
sub-second; the training config adds the learning-rate and shard settings
used by the iterated runs.
"""

import pytest
from hypothesis import settings

from gradmarket.sim import SessionConfig

# Every run draws the same examples (CI on each Python version and local
# runs alike) and writes no example database.
settings.register_profile("gradmarket", derandomize=True, database=None, deadline=None)
settings.load_profile("gradmarket")

SMALL_SESSION = dict(
    layers=(4, 8, 2),
    N=4,
    K=5,
    T=1,
    samples_per_do=16,
    mo_samples=32,
    data_scale=0.35,
    mask_additive_sigma=0.3,
    scale_bits=6,
    validate_layers=(2,),
    rho_margin=6.0,
)

TRAINING = dict(
    layers=(4, 8, 2),
    N=4,
    K=5,
    T=1,
    samples_per_do=64,
    mo_samples=64,
    data_scale=0.35,
    mask_additive_sigma=0.3,
    scale_bits=6,
    validate_layers=(2,),
    rho_margin=6.0,
    eta=0.5,
)


@pytest.fixture
def small_config():
    return SessionConfig(**SMALL_SESSION)


def small_session_config(**overrides):
    return SessionConfig(**{**SMALL_SESSION, **overrides})


def training_config(**overrides):
    return SessionConfig(**{**TRAINING, **overrides})
