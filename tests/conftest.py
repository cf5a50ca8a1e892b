"""Shared tuned configurations for session-level tests.

The small-session config keeps the norm circuit compact (coarse additive
masks, scaled-down data, one validated layer) so full protocol runs stay
sub-second; the training config adds the learning-rate and shard settings
used by the iterated runs. `ideal_accepts` is the ideal market's verdict
on an owner, which session outcomes are checked against.
"""

import pytest
from hypothesis import settings

from gradmarket import perturb
from gradmarket.shamir import ShareVector, ss_recon
from gradmarket.sim import SessionConfig, calibrated_rho, quantized_norm_sq

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
    eta=0.5,
)


@pytest.fixture
def small_config():
    return SessionConfig(**SMALL_SESSION)


def small_session_config(**overrides):
    return SessionConfig(**{**SMALL_SESSION, **overrides})


def training_config(**overrides):
    return SessionConfig(**{**TRAINING, **overrides})


def probe_vector(session) -> list[int]:
    """The model owner's quantized probe gradient in a published `sim._Session`."""
    probe = perturb.encrypted_gradient(session.enc_model, session.masks.r_out,
                                       *session.world.mo_data)
    return session._quantize(perturb.flatten(probe), "model owner's probe")


def ideal_accepts(session, n: int) -> bool:
    """Whether the ideal market accepts owner n of a finished `sim._Session`.

    Every share n delivered, read at the index of the server that received
    it, must lie on one degree-T polynomial per coordinate whose value at 0
    is n's own vector v: shares 1..T with any other share reconstruct v.
    The on-chain commitment is not read, since another owner can overwrite
    it (defect #7). v must also be nonzero, with sum(v^2) <= rho over the
    validated coordinates and <= a whole-vector bound over all of them.
    Nonzero is the weakest floor that refuses a free rider (ROADMAP item
    22). The whole-vector bound is calibrated from the model owner's probe as rho is
    from its validated slice: honest vectors exceed rho as a whole (sum(v^2)
    1971..5288 against rho 106 on clean.json at seed 3), so rho alone cannot
    bound the unvalidated coordinates (ROADMAP item 5).
    """
    T, v = session.config.T, session.qvecs[n].tolist()
    shares = [ShareVector(i, session.sent[n][i].values) for i in sorted(session.sent[n])]
    if any(ss_recon([*shares[:T], s], T) != v for s in shares[T:]):
        return False
    whole_bound = calibrated_rho(quantized_norm_sq(probe_vector(session)))
    return 0 < quantized_norm_sq(v) <= whole_bound and session._sub_norm(v) <= session.rho
