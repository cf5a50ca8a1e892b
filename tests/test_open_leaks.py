"""Each open privacy leak, reproduced and held to the ideal market's outcome.

Each leak test runs `clean.json` at seed 3 and follows the rules of
`test_open_defects.py`: today each leak happens, so each test is a strict
xfail, and the fix for a leak removes its test's marker; strict mode fails
a forgotten one. Only an `AssertionError` counts as the expected failure.
A reproduction that stops reproducing the setting it needs fails outright
through `pytest.fail`, not as the expected failure.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from gradmarket import commit, perturb, sim
from gradmarket.field import Q
from gradmarket.shamir import robust_recon
from test_open_defects import CLEAN, _open_defect, _run

ROOT = Path(__file__).resolve().parent.parent
OWNER = 0


@_open_defect("C[0] is an unblinded commitment to the owner's vector", 13)
def test_the_on_chain_commitment_does_not_confirm_a_guessed_gradient(monkeypatch):
    # anyone who holds owner 0's shard, or guesses it, recomputes its
    # gradient from the published masked model and tests the guess against
    # C[0] = prod_k basis[k]^v[k], which carries no mask term
    session = _run(monkeypatch, sim._Session)
    X, Y = session.world.shards[OWNER]
    guess = perturb.encrypted_gradient(session.enc_model, session.masks.r_out, X, Y)
    q = perturb.quantize_vector(perturb.flatten(guess), session.codec)
    if q != session.qvecs[OWNER].tolist():
        pytest.fail("the recomputed gradient is not the one owner 0 sent")
    on_chain = session.contract.commitments[OWNER].elements[0]
    assert commit.commit(q, [], session.key).elements[0] != on_chain


@_open_defect("a validity set of one releases that owner's gradient", 12)
def test_a_cohort_of_one_releases_no_aggregate(monkeypatch):
    # owners 1..3 send random gradients and are rejected. Today owner 0 is
    # paid the whole deposit, and the aggregate the model owner decrypts is
    # owner 0's own gradient, within the quantization error (0.0142 here)
    others = [{"id": n, "behavior": "random_gradient"} for n in range(1, 4)]
    session = _run(monkeypatch, sim._Session, malicious_dos=others)
    plain = perturb.plain_gradient(session.world.model, *session.world.shards[OWNER])
    if session.validity != [OWNER]:
        pytest.fail(f"the validity set is {session.validity}, not owner 0 alone")
    if session.decrypted is not None and max(
        float(np.max(np.abs(d - p))) for d, p in zip(session.decrypted, plain)
    ) > 0.0143:
        pytest.fail("the released aggregate is no longer owner 0's gradient")
    assert session.decrypted is None
    assert session.contract.balances.get("mo") == CLEAN["deposit"]


def _sums_of_squares_with_output(output: int, rho: int, limit: int) -> list[int]:
    """Every S < limit whose norm-circuit output prod_{j=0..rho} (S - j) mod q
    is `output`, by one multiplicative step per S."""
    found, value = [], math.factorial(rho + 1) % Q  # the output at S = rho + 1
    for S in range(rho + 1, limit):
        if value == output:
            found.append(S)
        value = value * (S + 1) * pow(S - rho, -1, Q) % Q
    return found


@_open_defect("a rejected owner's verdict shares decode to its circuit output", 29)
def test_the_posted_verdict_shares_reveal_only_the_verdict(monkeypatch):
    # owner 0 scales its gradient past rho (106 here) and is rejected. The
    # output shares the servers post for it decode to prod_{j=0..rho} (S - j),
    # which fixes S, the sum of squares of its validated slice (1404 here)
    session = _run(monkeypatch, sim._Session,
                   malicious_dos=[{"id": OWNER, "behavior": "norm_attack"}])
    if session.contract.verdicts.get(OWNER) != "output_nonzero":
        pytest.fail("owner 0 is not rejected on its circuit output")
    posted = session.contract.verdict_buffer[OWNER]
    servers = sorted(posted)
    output = robust_recon(servers, [posted[i][1] for i in servers], session.config.T)
    S = session._sub_norm(session.qvecs[OWNER].tolist())
    if not session.contract.rho < S < 2**16:
        pytest.fail(f"owner 0's sum of squares {S} is not in the searched range")
    assert S not in _sums_of_squares_with_output(output, session.contract.rho, 2**16)


def test_the_readme_threat_model_names_existing_tests():
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("## Threat model"):readme.index("## Design notes")]
    named = re.findall(r"`(test_\w+\.py)::(test_\w+)`", table)
    assert len(named) >= 5
    for module, name in named:
        source = (ROOT / "tests" / module).read_text()
        assert re.search(rf"^def {name}\(", source, re.M), f"{module}::{name}"
