"""Each open defect, reproduced and held to the ideal market's outcome.

Every session test runs `clean.json` at seed 3 with one owner, owner 0,
misbehaving by a subclass of `sim._Session`, and asserts what the ideal
market does: owner 0 is excluded and unpaid, and every honest owner is
accepted and paid; where owner 0 squats another owner's commitment, only
the latter half is asserted. One test reproduces the wraparound hole on a
single proof instead. Today each defect lets the offence through, so each
test is a strict xfail. The fix for a defect removes its test's marker;
strict mode fails a forgotten one. Only an `AssertionError` counts as the
expected failure, so a reproduction that stops running, or stops
producing an offender, fails outright. A bad share and a share relabeled
for another server, offences the market already excludes, are held to the
same outcome as controls.
"""

import contextlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import ideal_accepts
from gradmarket import field, perturb, sim, snip
from gradmarket.circuit import build_norm_circuit
from gradmarket.commit import setup_key
from gradmarket.contract import TxRejected
from gradmarket.field import Q
from gradmarket.shamir import ShareVector, robust_recon, ss_share

CLEAN = json.loads((Path(__file__).resolve().parent.parent / "configs" / "clean.json").read_text())
OFFENDER = 0
SQUATTED = 1  # the owner whose id the squatted commitment takes
EQUIVOCATED = 2  # the server owner 0 gives a corrupted share and then disowns


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
    assert (set(session.validity), _paid(session)) == (ideal, ideal)


def _paid(session: sim._Session) -> set[int]:
    return {n for n, amount in session.contract.balances.items() if n != "mo" and amount > 0}


def _wrapping_vector(m: int, target: int, rng) -> list[int]:
    """(x1, x2, 1, 0, ...) of length m >= 3 whose sum of squares is target
    mod q, with x1 drawn from rng and x2 a square root mod q (q = 3 mod 4),
    so its true sum of squares is about 2^250."""
    while True:
        x1 = rng.randrange(1, Q)
        a = (target - 1 - x1 * x1) % Q
        x2 = pow(a, (Q + 1) // 4, Q)
        if x2 * x2 % Q == a:
            return [x1, x2, 1] + [0] * (m - 3)


class _AdaptiveProof(sim._Session):
    """Owner 0 draws the challenge r before it builds its packages and fits
    its proof to r: it shares h'(t) = h(t) + c * (t - r) * prod_{0<s<M} (t - s)
    with c chosen so that h'(M), the output of the last multiplication gate
    and so the circuit's output, is 0. h' agrees with h at 1..M - 1 and at
    r, so every server's trace and the identity at r stay those of the
    honest h. A contract that refuses the early draw gets an honest proof."""

    def _prove(self, n, circ):
        if n != OFFENDER:
            return super()._prove(n, circ)
        try:
            r = self.contract.sample_challenge()
        except TxRejected:
            return super()._prove(n, circ)
        self.contract.sample_challenge = lambda: r
        _, _, h = snip.compute_h(circ, self.qvecs[n].take(self.sub_idx).tolist())
        M = circ.num_mul

        def shift(t):
            return (t - r) * math.prod(t - s for s in range(1, M)) % Q

        c = -h[M - 1] * field.inv(shift(M)) % Q
        forged = [(v + c * shift(t)) % Q for t, v in enumerate(h, 1)]
        return snip.package_proof(self.sub_shares[n], forged, self.config.T, self.config.K,
                                  sim.rng_stream(self.seed, f"do.{n}.proof"))


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


class _WrappingSlice(sim._Session):
    """Owner 0's validated slice has a sum of squares of about 2^250 that
    wraps to 5 mod q, inside 0..rho."""

    def _quantize(self, flat, who):
        qvec = super()._quantize(flat, who)
        if who == f"data owner {OFFENDER}":
            wrapped = _wrapping_vector(len(self.sub_idx), 5, random.Random(3))
            for i, v in zip(self.sub_idx.tolist(), wrapped):
                qvec[i] = v
        return qvec


class _SquattedCommitment(sim._Session):
    """Before owner 1 stores its commitment, owner 0 stores its own under
    owner 1's id, and owner 1's store is refused. A refusal of either is
    tolerated, so the test also runs against a contract that refuses the
    squat."""

    def share(self):
        store = self.contract.store_commitment

        def store_commitment(n, commitment):
            if n == SQUATTED:
                with contextlib.suppress(TxRejected):
                    store(n, commitment)
                return
            store(n, commitment)
            if n == OFFENDER:
                with contextlib.suppress(TxRejected):
                    store(SQUATTED, commitment)

        self.contract.store_commitment = store_commitment
        super().share()


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


class _EquivocatedComplaint(sim._Session):
    """Owner 0 delivers a corrupted share to server 2, and answers server 2's
    complaint with the honest share it never delivered."""

    def share(self):
        super().share()
        honest = self.sent[OFFENDER][EQUIVOCATED]
        values = list(honest.values)
        values[0] += 1
        self.sent[OFFENDER][EQUIVOCATED] = ShareVector(EQUIVOCATED, values)
        resolve = self.contract.resolve_complaint

        def resolve_complaint(n, share):
            if (n, share.index) == (OFFENDER, EQUIVOCATED):
                share = honest
            return resolve(n, share)

        self.contract.resolve_complaint = resolve_complaint


@pytest.mark.parametrize("target", [1, 4])
def test_a_bad_share_is_excluded_and_unpaid(monkeypatch, target):
    # server 1's share is one of the T shares every reconstruction in the
    # ideal check uses; server 4's is checked on its own
    bad_share = {"id": OFFENDER, "behavior": "bad_share", "target_server": target}
    assert_ideal_outcome(_run(monkeypatch, sim._Session, malicious_dos=[bad_share]))


class _RelabeledShare(sim._Session):
    """Owner 0 gives server 2 its honest share for server 3, labeled 3."""

    relabeled = {OFFENDER: (2, 3)}  # owner: (receiving server, share's server)

    def share(self):
        super().share()
        for n, (i, j) in self.relabeled.items():
            self.sent[n][i] = self.sent[n][j]


class _EveryOwnerRelabels(_RelabeledShare):
    """Owners 0..3 give servers 1..4 their honest shares for server 5."""

    relabeled = {n: (n + 1, 5) for n in range(4)}


def test_a_share_relabeled_for_another_server_is_excluded_and_unpaid(monkeypatch):
    # server 2 reads the share at its own index, where it fails; read at
    # the label it carries, it would pass, and the honest summed share of
    # server 2 would be the one rejected
    assert_ideal_outcome(_run(monkeypatch, _RelabeledShare))


def test_shares_relabeled_by_every_owner_refund_the_deposit(monkeypatch):
    # every complaint is upheld, so no owner is paid and the session ends
    # normally; read at their labels, the shares passed, every owner was
    # paid, and the model owner then had too few aggregate shares
    session = _run(monkeypatch, _EveryOwnerRelabels)
    assert session.contract.phase == "Finished"
    assert session.validity == [] and _paid(session) == set()
    assert session.contract.balances["mo"] == session.config.deposit


@_open_defect("hole #1: a proof is not bound before the challenge", 1)
def test_a_proof_fitted_to_a_known_challenge_is_excluded_and_unpaid(monkeypatch):
    session = _run(monkeypatch, _AdaptiveProof,
                   malicious_dos=[{"id": OFFENDER, "behavior": "norm_attack"}])
    assert_ideal_outcome(session)


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


@_open_defect("hole #2: the sum of squares wraps mod q", 2)
def test_a_proof_over_a_wrapping_sum_of_squares_is_rejected():
    T, K, rho = 1, 5, 10
    rng = random.Random(3)
    x = _wrapping_vector(3, 5, rng)
    if sim.quantized_norm_sq(x).bit_length() < 240:
        pytest.fail("the input's true sum of squares is not past the bound")
    circ = build_norm_circuit(len(x), rho, accept_zero=True)
    shares, _ = ss_share(x, T, K, rng)
    packages = snip.prove(x, circ, T, K, rng, input_shares=shares)
    verdicts = snip.identity_test(shares, packages, circ, rng.randrange(Q), T)
    # decoded as the contract decodes a verdict: both values must be zero
    xs = list(range(1, K + 1))
    identity = robust_recon(xs, [v.identity_share for v in verdicts], T)
    output = robust_recon(xs, [v.output_share for v in verdicts], T)
    assert (identity, output) != (0, 0)


@_open_defect("hole #2: the sum of squares wraps mod q", 2)
def test_a_validated_slice_whose_sum_of_squares_wraps_is_excluded_and_unpaid(monkeypatch):
    assert_ideal_outcome(_run(monkeypatch, _WrappingSlice))


@_open_defect("defect #7: anyone can store a commitment under an owner's id", 23)
def test_a_squatted_commitment_does_not_exclude_its_owner(monkeypatch):
    session = _run(monkeypatch, _SquattedCommitment)
    honest = set(session.do_ids) - {OFFENDER}
    assert all(ideal_accepts(session, n) for n in honest)
    assert honest <= set(session.validity) and honest <= _paid(session)


@_open_defect("defect #8: an owner can answer a complaint with a share it never delivered", 30)
def test_an_owner_who_equivocates_on_a_complaint_is_excluded_and_unpaid(monkeypatch):
    assert_ideal_outcome(_run(monkeypatch, _EquivocatedComplaint))
