"""Each open defect, reproduced and held to the ideal market's outcome.

Every test runs `clean.json` at seed 3 with one owner, owner 0, misbehaving
by a subclass of `sim._Session`, and asserts what the ideal market does:
owner 0 is excluded and unpaid, and every honest owner is accepted and
paid. Today each defect lets owner 0 through, so each test is a strict
xfail. The fix for a defect removes its test's marker; strict mode fails a
forgotten one. Only an `AssertionError` counts as the expected failure, so
a reproduction that stops running, or stops producing an offender, fails
outright.
"""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import ideal_accepts
from gradmarket import perturb, sim
from gradmarket.commit import setup_key
from gradmarket.contract import TxRejected

CLEAN = json.loads((Path(__file__).resolve().parent.parent / "configs" / "clean.json").read_text())
OFFENDER = 0


def _open_defect(defect: str, item: int):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"{defect}, ROADMAP item {item}")


def _run(monkeypatch, session_cls, **overrides) -> sim._Session:
    config = sim.SessionConfig.from_dict({**CLEAN, **overrides})
    monkeypatch.setattr(sim, "_Session", session_cls)
    key = setup_key(perturb.flat_length(config.layers), sim.rng_stream(3, "contract.setup"))
    return sim._run_session(config, 3, sim.build_world(config, 3), key)


def assert_ideal_outcome(session: sim._Session) -> None:
    """Owner 0 fails the ideal predicate and every other owner meets it; the
    session must accept and pay exactly the owners that meet it."""
    ideal = {n for n in session.do_ids if ideal_accepts(session, n)}
    if ideal != set(session.do_ids) - {OFFENDER}:
        pytest.fail(f"the reproduction has no lone offender: ideal set {sorted(ideal)}")
    paid = {n for n, amount in session.contract.balances.items() if n != "mo" and amount > 0}
    assert (set(session.validity), paid) == (ideal, ideal)


class _ZeroGradient(sim._Session):
    """Owner 0 sends an all-zero gradient: a free rider."""

    def _quantize(self, flat, who):
        if who == f"data owner {OFFENDER}":
            flat = np.zeros_like(flat)
        return super()._quantize(flat, who)


class _UnvalidatedPoison(sim._Session):
    """Owner 0 adds 50.0 to each coordinate the norm circuit does not see."""

    def _quantize(self, flat, who):
        if who == f"data owner {OFFENDER}":
            flat = flat.copy()
            flat[np.setdiff1d(np.arange(len(flat)), self.sub_idx)] += 50.0
        return super()._quantize(flat, who)


class _ImpersonatedVerdicts(sim._Session):
    """Before the servers test owner 0's proof, one party posts a zero
    verdict share under every server's id. The servers then post their own
    verdicts; a refusal of either is tolerated, so the test also runs
    against a contract that refuses the impersonation."""

    def _test_proof(self, n, packages, circ, r):
        if n == OFFENDER:
            for i in self.servers:
                with contextlib.suppress(TxRejected):
                    self.contract.submit_verdict(i, n, 0, 0)
        with contextlib.suppress(TxRejected):
            super()._test_proof(n, packages, circ, r)


@_open_defect("defect #6: a free rider is paid", 22)
def test_an_all_zero_gradient_is_excluded_and_unpaid(monkeypatch):
    assert_ideal_outcome(_run(monkeypatch, _ZeroGradient))


@_open_defect("hole #3: the unvalidated coordinates are unbounded", 5)
def test_poison_on_the_unvalidated_coordinates_is_excluded_and_unpaid(monkeypatch):
    assert_ideal_outcome(_run(monkeypatch, _UnvalidatedPoison))


@_open_defect("defect #7: anyone can post a verdict under a server's id", 23)
def test_impersonated_verdicts_do_not_admit_an_owner_over_the_bound(monkeypatch):
    session = _run(monkeypatch, _ImpersonatedVerdicts,
                   malicious_dos=[{"id": OFFENDER, "behavior": "norm_attack"}])
    assert_ideal_outcome(session)
