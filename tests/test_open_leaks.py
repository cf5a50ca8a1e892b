"""Each open privacy leak, reproduced and held to the ideal market's outcome.

Both tests run `clean.json` at seed 3 and follow the rules of
`test_open_defects.py`: today each leak happens, so each test is a strict
xfail, and the fix for a leak removes its test's marker; strict mode fails
a forgotten one. Only an `AssertionError` counts as the expected failure.
A reproduction that stops reproducing the setting it needs fails outright
through `pytest.fail`, not as the expected failure.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from gradmarket import commit, perturb, sim
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


def test_the_readme_threat_model_names_existing_tests():
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("## Threat model"):readme.index("## Design notes")]
    named = re.findall(r"`(test_\w+\.py)::(test_\w+)`", table)
    assert len(named) >= 5
    for module, name in named:
        source = (ROOT / "tests" / module).read_text()
        assert re.search(rf"^def {name}\(", source, re.M), f"{module}::{name}"
