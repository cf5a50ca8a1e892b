import json
import random

import pytest

from gradmarket import commit, field
from gradmarket.commit import P, VectorCommitment, setup_key
from gradmarket.contract import (
    FINISHED,
    GRAD_VALIDATION,
    PHASES,
    RECONSTRUCTION,
    REGISTER,
    SETUP,
    SHARE_COLLECTION,
    GasTable,
    TradeContract,
    TxRejected,
    baseline_gas_estimate,
    expected_word_count,
    merkle_root,
    rs_decode_field_ops,
)
from gradmarket.field import Q
from gradmarket.shamir import ShareVector, ss_share


def _fresh(deposit=100, N=4, K=5, T=1, m=3):
    rng = random.Random(7)
    key = setup_key(m, rng)
    contract = TradeContract(
        deposit=deposit,
        whitelist=range(N),
        K=K,
        T=T,
        commit_key=key,
        rng=random.Random(11),
    )
    return contract, key, rng


def _honest_sharing(key, rng, m=3, T=1, K=5):
    secret = [field.rand_element(rng) for _ in range(m)]
    shares, masks = ss_share(secret, T, K, rng)
    return secret, shares, commit.commit(secret, masks, key)


def _advance_to_validation(contract, key, rng, N=4, rho=4):
    contract.start(b"\x01" * 32, N_max=N, rho=rho)
    sharings = {}
    for n in range(N):
        contract.register(n)
    for n in range(N):
        secret, shares, cm = _honest_sharing(key, rng, T=contract.T, K=contract.K)
        contract.store_commitment(n, cm)
        sharings[n] = (secret, shares)
    contract.begin_validation()
    return sharings


def test_lifecycle_and_phase_guards():
    contract, key, rng = _fresh()
    assert contract.phase == SETUP
    contract.start(b"\x02" * 32, N_max=4)
    assert contract.phase == REGISTER
    with pytest.raises(TxRejected):
        contract.start(b"\x02" * 32, N_max=4)  # second start rejected
    assert contract.phase == REGISTER


def test_gas_of_start_from_cost_table():
    contract, _, _ = _fresh()
    contract.start(b"\x03" * 32, N_max=4)
    t = GasTable()
    assert contract.meter.per_method["start"] == t.tx_base + t.hash_word + 2 * t.storage_word_write


def test_start_stores_a_rho_word_only_when_rho_is_given():
    t = GasTable()
    for rho, words in ((None, 2), (5, 3)):
        contract, _, _ = _fresh()
        contract.start(b"\x03" * 32, N_max=4, rho=rho)
        assert contract.rho == rho
        assert ("rho" in contract.slots) == (rho is not None)
        assert contract.tx_log[-1]["stored_words_delta"] == words
        assert contract.tx_log[-1]["gas"] == t.tx_base + t.hash_word + words * t.storage_word_write


@pytest.mark.parametrize("rho", [True, 0, -1, 2.5])
def test_start_refuses_a_rho_that_is_not_a_positive_integer(rho):
    contract, _, _ = _fresh()
    log_length, gas_total = len(contract.tx_log), contract.meter.total
    with pytest.raises(TxRejected, match="^start: rho must be a positive integer"):
        contract.start(b"\x03" * 32, N_max=4, rho=rho)
    assert contract.tx_log[log_length:] == [{
        "method": "start", "caller": "mo", "gas": GasTable().tx_base,
        "phase_before": SETUP, "phase_after": SETUP, "stored_words_delta": 0,
    }]
    assert contract.meter.total == gas_total + GasTable().tx_base
    assert contract.rho is None and "rho" not in contract.slots


def _assert_refused(contract, method, args, caller, reason):
    """`method(*args)` is refused with `reason`: base gas, one tx_log record
    under `caller`, phase and storage unchanged."""
    phase, slots = contract.phase, dict(contract.slots)
    log_length, gas_total = len(contract.tx_log), contract.meter.total
    with pytest.raises(TxRejected, match=f"^{method}: {reason}"):
        getattr(contract, method)(*args)
    assert contract.tx_log[log_length:] == [{
        "method": method, "caller": str(caller), "gas": GasTable().tx_base,
        "phase_before": phase, "phase_after": phase, "stored_words_delta": 0,
    }]
    assert contract.meter.total == gas_total + GasTable().tx_base
    assert contract.phase == phase and contract.slots == slots


@pytest.mark.parametrize("N_max", [True, 2.5, 0])
def test_start_refuses_an_N_max_that_is_not_a_positive_integer(N_max):
    # N_max=2.5 would keep registration open until a third owner joins
    contract, _, _ = _fresh()
    _assert_refused(contract, "start", (b"\x03" * 32, N_max), "mo",
                    "N_max must be a positive integer")
    assert contract.N_max == 0 and contract.root is None


@pytest.mark.parametrize("do_id", [True, 1.0])
def test_register_refuses_an_id_that_is_not_an_integer(do_id):
    # True and 1.0 equal 1 and pass the whitelist check: refused, they leave
    # owner 1's place free
    contract, _, _ = _fresh(N=4)
    contract.start(b"\x05" * 32, N_max=4)
    _assert_refused(contract, "register", (do_id,), do_id, "do_id must be an integer")
    assert contract.registered == []
    contract.register(1)
    assert contract.registered == [1] and contract.tx_log[-1]["caller"] == "1"


@pytest.mark.parametrize("bad", [True, 1.0])
def test_owner_and_server_ids_must_be_integers(bad):
    # `bad` equals 1, so it passes every membership and range check that
    # owner 1 or server 1 passes; each transaction refuses it instead
    contract, key, rng = _fresh(N=2)
    contract.start(b"\x0e" * 32, N_max=2, rho=4)
    contract.register(0)
    contract.register(1)
    _, _, cm0 = _honest_sharing(key, rng)
    _, shares1, cm1 = _honest_sharing(key, rng)
    contract.store_commitment(0, cm0)
    _assert_refused(contract, "store_commitment", (bad, cm1), bad, "do_id must be an integer")
    contract.store_commitment(1, cm1)
    _assert_refused(contract, "complain", (bad, 0), bad, "server_i must be an integer")
    _assert_refused(contract, "complain", (1, bad), 1, "do_id must be an integer")
    assert not contract.pending_complaints
    contract.complain(1, 1)
    _assert_refused(contract, "resolve_complaint", (bad, shares1[0]), bad,
                    "do_id must be an integer")
    forged = ShareVector(index=bad, values=shares1[0].values)
    _assert_refused(contract, "resolve_complaint", (1, forged), 1,
                    "share index must be an integer")
    assert contract.resolve_complaint(1, shares1[0]) is True
    contract.begin_validation()
    contract.sample_challenge()
    _assert_refused(contract, "submit_verdict", (bad, 0, 0, 0), bad,
                    "server_i must be an integer")
    _assert_refused(contract, "submit_verdict", (1, bad, 0, 0), 1, "do_id must be an integer")
    assert contract.verdict_buffer == {}
    contract.submit_verdict(1, 0, 0, 0)
    assert list(contract.verdict_buffer) == [0]


def test_start_refuses_a_root_that_is_not_32_bytes():
    # a 32-character str passes a length check alone
    for root in ("x" * 32, b"x" * 31, None):
        contract, _, _ = _fresh()
        _assert_refused(contract, "start", (root, 4), "mo", "root must be 32 bytes")
        assert contract.root is None


@pytest.mark.parametrize(
    "commitment, refusal",
    [
        pytest.param(None, "commitment must be a VectorCommitment", id="None"),
        pytest.param((5, 7), "commitment must be a VectorCommitment", id="tuple"),
        pytest.param(VectorCommitment((5,)), r"commitment width must be T\+1", id="width-1"),
        pytest.param(VectorCommitment(("a", "b")), "commitment elements must be integers",
                     id="str-elements"),
        pytest.param(VectorCommitment((True, 5)), "commitment elements must be integers",
                     id="bool-element"),
        pytest.param(VectorCommitment((5, 0)), "commitment elements must be integers",
                     id="zero-element"),
        pytest.param(VectorCommitment((P, 5)), "commitment elements must be integers",
                     id="p-element"),
    ],
)
def test_store_commitment_refuses_anything_but_T_plus_1_group_elements(commitment, refusal):
    # an applied ("a", "b") commitment would crash every later share check
    contract, key, rng = _fresh(N=1)
    contract.start(b"\x0f" * 32, N_max=1)
    contract.register(0)
    _assert_refused(contract, "store_commitment", (0, commitment), 0, refusal)
    assert contract.commitments == {}
    _, _, cm = _honest_sharing(key, rng)
    contract.store_commitment(0, cm)
    assert contract.commitments == {0: cm}


def test_store_commitment_refuses_an_element_outside_the_order_q_subgroup():
    # C[1] times p - 1, an element of order 2: stored, it would make the
    # owner's honest shares pass the plain check at even server indices
    # only, so the owner would choose which servers complain
    contract, key, rng = _fresh(N=1)
    contract.start(b"\x11" * 32, N_max=1)
    contract.register(0)
    _, shares, cm = _honest_sharing(key, rng)
    odd = VectorCommitment((cm.elements[0], cm.elements[1] * (P - 1) % P))
    assert [commit.verify_share(s, odd, key) for s in shares] == [False, True] * 2 + [False]
    _assert_refused(contract, "store_commitment", (0, odd), 0,
                    "commitment elements must lie in the order-q subgroup")
    assert contract.commitments == {}
    # the membership test is one group operation per element
    contract.store_commitment(0, cm)
    t, T = GasTable(), contract.T
    assert contract.tx_log[-1]["gas"] == t.tx_base + (T + 1) * (t.storage_word_write + t.group_op)
    assert contract.commitments == {0: cm}


def test_resolve_complaint_refuses_a_share_that_is_not_a_share_vector():
    contract, key, rng = _fresh(N=2)
    contract.start(b"\x10" * 32, N_max=2)
    contract.register(0)
    contract.register(1)
    sharings = [_honest_sharing(key, rng) for _ in range(2)]
    for n, (_, _, cm) in enumerate(sharings):
        contract.store_commitment(n, cm)
    contract.complain(1, 1)
    shares1 = sharings[1][1]
    for share in (None, (1, shares1[0].values)):
        _assert_refused(contract, "resolve_complaint", (1, share), 1,
                        "share must be a ShareVector")
    assert contract.pending_complaints == {(1, 1)}
    assert contract.resolve_complaint(1, shares1[0]) is True


def test_verdict_shares_must_be_integers_and_the_flag_a_bool():
    # a float share or a truthy non-bool flag is refused by every server,
    # so the owner stays under validation with nothing stored
    contract, key, rng = _fresh(N=1)
    _advance_to_validation(contract, key, rng, N=1)
    contract.sample_challenge()
    for i in range(1, contract.K + 1):
        _assert_refused(contract, "submit_verdict", (i, 0, 0.5, 0), i,
                        "identity_share must be an integer")
        _assert_refused(contract, "submit_verdict", (i, 0, 0, True), i,
                        "output_share must be an integer")
        _assert_refused(contract, "submit_verdict", (i, 0, 0, 0, "no"), i,
                        "decode_failed must be a bool")
        _assert_refused(contract, "submit_verdict", (i, 0, 0, 0, 1), i,
                        "decode_failed must be a bool")
    assert contract.verdict_buffer == {} and contract.verdicts == {}
    assert contract.validity == {0}
    _submit_shared_value(contract, 0, 0, 0, rng)
    assert contract.verdicts == {0: None}


_DEPOSIT = "deposit must be a non-negative integer"
_K = "K must be an integer"
_T = "T must be a positive integer"


@pytest.mark.parametrize(
    "name, value, refusal",
    [
        pytest.param("deposit", 10.5, _DEPOSIT, id="deposit-10.5"),
        pytest.param("deposit", True, _DEPOSIT, id="deposit-True"),
        pytest.param("deposit", -1, _DEPOSIT, id="deposit--1"),
        pytest.param("K", 5.0, _K, id="K-5.0"),
        pytest.param("K", True, _K, id="K-True"),
        # K = T + 1 leaves robust reconstruction no redundancy
        pytest.param("K", 2, r"need K > T \+ 1", id="K-2"),
        pytest.param("T", True, _T, id="T-True"),
        pytest.param("T", 1.0, _T, id="T-1.0"),
        pytest.param("T", 0, _T, id="T-0"),
        pytest.param("T", -1, _T, id="T--1"),
    ],
)
def test_constructor_refuses_a_deposit_K_or_T_that_is_not_an_integer(name, value, refusal):
    # deployment is a transaction: a bad argument is refused like any other
    args = {"deposit": 10, "whitelist": range(2), "K": 5, "T": 1,
            "commit_key": setup_key(3, None), "rng": random.Random(1), name: value}
    with pytest.raises(TxRejected, match=f"^deploy: {refusal}"):
        TradeContract(**args)


def test_rejected_tx_charges_base_and_preserves_state():
    contract, _, _ = _fresh()
    words = contract.on_chain_word_count()
    gas_before = contract.meter.total
    with pytest.raises(TxRejected):
        contract.register(0)  # wrong phase
    assert contract.meter.total == gas_before + GasTable().tx_base
    assert contract.on_chain_word_count() == words
    assert contract.phase == SETUP
    assert contract.tx_log[-1]["phase_before"] == contract.tx_log[-1]["phase_after"]


def test_register_full_set_advances_phase():
    contract, _, _ = _fresh(N=4)
    contract.start(b"\x04" * 32, N_max=4)
    for n in range(3):
        contract.register(n)
        assert contract.phase == REGISTER
    contract.register(3)
    assert contract.phase == SHARE_COLLECTION


def test_register_rejections():
    contract, _, _ = _fresh(N=4)
    contract.start(b"\x05" * 32, N_max=4)
    log_length, gas_total = len(contract.tx_log), contract.meter.total
    with pytest.raises(TxRejected, match="^register: not whitelisted$"):
        contract.register(99)
    # a refused body check is charged and logged once, under its caller
    assert contract.tx_log[log_length:] == [{
        "method": "register", "caller": "99", "gas": GasTable().tx_base,
        "phase_before": REGISTER, "phase_after": REGISTER, "stored_words_delta": 0,
    }]
    assert contract.meter.total == gas_total + GasTable().tx_base
    contract.register(1)
    with pytest.raises(TxRejected):
        contract.register(1)  # duplicate


def test_register_timeout_proceeds_with_partial_set():
    contract, _, _ = _fresh(N=4)
    contract.start(b"\x06" * 32, N_max=4)
    contract.register(0)
    contract.register(1)
    for _ in range(3):
        contract.advance_round()
    assert contract.phase == SHARE_COLLECTION
    assert contract.registered == [0, 1]


def test_commitment_from_unregistered_rejected():
    contract, key, rng = _fresh()
    contract.start(b"\x07" * 32, N_max=2)
    contract.register(0)
    contract.register(1)
    _, _, cm = _honest_sharing(key, rng)
    with pytest.raises(TxRejected):
        contract.store_commitment(3, cm)


def test_complaint_upheld_excludes_owner():
    contract, key, rng = _fresh(N=2)
    contract.start(b"\x08" * 32, N_max=2)
    contract.register(0)
    contract.register(1)
    for n in range(2):
        secret, shares, cm = _honest_sharing(key, rng)
        contract.store_commitment(n, cm)
    # owner 1 delivered a corrupted share to server 3
    bad = ShareVector(index=3, values=(1, 2, 3))
    contract.complain(3, 1)
    assert contract.resolve_complaint(1, bad) is False
    assert contract.verdicts == {1: "complaint_upheld"}
    # the upheld complaint stores the owner's verdict record and pays its write
    t, checked = GasTable(), (contract.T + 1) + len(key)
    assert contract.slots[("verdict", 1)] == 1
    assert contract.tx_log[-1]["stored_words_delta"] == 1
    assert contract.tx_log[-1]["gas"] == (
        t.tx_base + checked * (t.storage_word_read + t.group_op) + t.storage_word_write
    )
    contract.begin_validation()
    assert contract.validity == {0}


def test_second_upheld_complaint_keeps_the_verdict():
    contract, key, rng = _fresh(N=1)
    contract.start(b"\x0b" * 32, N_max=1)
    contract.register(0)
    _, _, cm = _honest_sharing(key, rng)
    contract.store_commitment(0, cm)
    # owner 0 gave bad shares to servers 2 and 4
    contract.complain(2, 0)
    contract.complain(4, 0)
    assert contract.resolve_complaint(0, ShareVector(index=2, values=(1, 2, 3))) is False
    slots = dict(contract.slots)
    assert contract.resolve_complaint(0, ShareVector(index=4, values=(4, 5, 6))) is False
    # the second ruling stores nothing and is charged no write
    t, checked = GasTable(), (contract.T + 1) + len(key)
    assert contract.slots == slots
    assert contract.tx_log[-1]["stored_words_delta"] == 0
    assert contract.tx_log[-1]["gas"] == t.tx_base + checked * (t.storage_word_read + t.group_op)
    assert contract.verdicts == {0: "complaint_upheld"}
    contract.begin_validation()
    assert contract.validity == set()


def test_false_complaint_dismissed_owner_retained():
    contract, key, rng = _fresh(N=1)
    contract.start(b"\x09" * 32, N_max=1)
    contract.register(0)
    secret, shares, cm = _honest_sharing(key, rng)
    contract.store_commitment(0, cm)
    contract.complain(2, 0)
    assert contract.resolve_complaint(0, shares[1]) is True
    assert contract.false_complaints == [(2, 0)]
    # a dismissed complaint stores nothing and is charged no write
    t, checked = GasTable(), (contract.T + 1) + len(key)
    assert contract.tx_log[-1]["stored_words_delta"] == 0
    assert contract.tx_log[-1]["gas"] == t.tx_base + checked * (t.storage_word_read + t.group_op)
    contract.begin_validation()
    assert contract.validity == {0}


def test_shares_ready_blocked_by_pending_complaint():
    contract, key, rng = _fresh(N=1)
    contract.start(b"\x0a" * 32, N_max=1)
    contract.register(0)
    _, shares, cm = _honest_sharing(key, rng)
    contract.store_commitment(0, cm)
    contract.complain(1, 0)
    with pytest.raises(TxRejected):
        contract.begin_validation()
    contract.resolve_complaint(0, shares[0])
    contract.begin_validation()


def test_challenge_ordering_enforced():
    contract, key, rng = _fresh()
    _advance_to_validation(contract, key, rng)
    with pytest.raises(TxRejected):
        contract.submit_verdict(1, 0, 1, 1)  # before the challenge
    r = contract.sample_challenge()
    assert 0 <= r < Q
    with pytest.raises(TxRejected):
        contract.sample_challenge()  # only once


def test_session_without_rho_is_not_validated():
    contract, key, rng = _fresh()
    _advance_to_validation(contract, key, rng, rho=None)
    with pytest.raises(TxRejected, match="^sample_challenge: validation disabled for this session$"):
        contract.sample_challenge()
    assert contract.tx_log[-1]["gas"] == GasTable().tx_base
    assert contract.challenge is None
    contract.pay()  # no verdicts to wait for
    assert contract.phase == RECONSTRUCTION
    assert contract.validity == {0, 1, 2, 3}


def test_pay_waits_for_every_verdict():
    contract, key, rng = _fresh(N=2)
    _advance_to_validation(contract, key, rng, N=2)
    contract.sample_challenge()
    _submit_shared_value(contract, 0, 0, 0, rng)
    _assert_refused(contract, "pay", (), "mo", r"verdicts pending for \[1\]")
    assert contract.balances == {}
    _submit_shared_value(contract, 1, 0, 0, rng)
    contract.pay()
    assert contract.phase == RECONSTRUCTION
    assert contract.balances == {0: 50, 1: 50}


def test_begin_validation_waits_for_every_commitment():
    contract, key, rng = _fresh(N=2)
    contract.start(b"\x10" * 32, N_max=2, rho=4)
    contract.register(0)
    contract.register(1)
    _, _, cm = _honest_sharing(key, rng)
    contract.store_commitment(0, cm)
    log_length = len(contract.tx_log)
    with pytest.raises(TxRejected, match=r"^begin_validation: missing commitments for \[1\]$"):
        contract.begin_validation()
    assert contract.phase == SHARE_COLLECTION and len(contract.tx_log) == log_length
    contract.store_commitment(1, cm)
    contract.begin_validation()
    assert contract.phase == GRAD_VALIDATION
    assert contract.events[-1] == {
        "event": "validation_started", "phase": GRAD_VALIDATION, "validity": [0, 1],
    }


def test_challenge_deterministic_per_seed():
    def challenge(seed):
        contract = TradeContract(
            deposit=1, whitelist=[0], K=4, T=1,
            commit_key=setup_key(3, random.Random(5)),
            rng=random.Random(seed),
        )
        contract.start(b"\x0b" * 32, N_max=1, rho=2)
        contract.register(0)
        _, _, cm = _honest_sharing(setup_key(3, random.Random(5)), random.Random(6), K=4)
        contract.store_commitment(0, cm)
        contract.begin_validation()
        return contract.sample_challenge()

    assert challenge(1) == challenge(1)
    assert challenge(1) != challenge(2)


def _submit_shared_value(contract, n, identity_value, output_value, rng, failed_servers=()):
    """Shamir-share two scalars across K servers and submit all verdicts;
    each of `failed_servers` reports a failed decode."""
    id_shares, _ = ss_share([identity_value], contract.T, contract.K, rng)
    out_shares, _ = ss_share([output_value], contract.T, contract.K, rng)
    for i in range(1, contract.K + 1):
        contract.submit_verdict(i, n, id_shares[i - 1].values[0], out_shares[i - 1].values[0],
                                decode_failed=i in failed_servers)


def test_verdict_flow_accept_and_reject():
    contract, key, rng = _fresh(N=5)  # K=5, T=1: at most one flag is a liar's
    _advance_to_validation(contract, key, rng, N=5)
    contract.sample_challenge()
    _submit_shared_value(contract, 0, 0, 0, rng)  # identity 0, output 0: valid
    _submit_shared_value(contract, 1, 0, 5, rng)  # output nonzero: rejected
    _submit_shared_value(contract, 2, 7, 0, rng)  # identity nonzero: rejected
    _submit_shared_value(contract, 3, 0, 0, rng, failed_servers=(2, 4))  # too many flags
    _submit_shared_value(contract, 4, 0, 0, rng, failed_servers=(5,))  # one liar flags
    assert contract.validity == {0, 4}
    assert contract.verdicts == {
        0: None, 1: "output_nonzero", 2: "identity_nonzero", 3: "decode_failed", 4: None,
    }
    contract.pay()
    assert contract.phase == RECONSTRUCTION


def test_duplicate_verdict_rejected():
    contract, key, rng = _fresh()
    _advance_to_validation(contract, key, rng)
    contract.sample_challenge()
    contract.submit_verdict(1, 0, 1, 1)
    with pytest.raises(TxRejected):
        contract.submit_verdict(1, 0, 1, 1)


def test_verdict_buffer_freed_after_reconstruction():
    contract, key, rng = _fresh()
    _advance_to_validation(contract, key, rng)
    contract.sample_challenge()
    _submit_shared_value(contract, 0, 0, 0, rng)
    assert all(("verdict_share", 0, i) not in contract.slots for i in range(1, contract.K + 1))
    assert contract.slots[("verdict", 0)] == 1


def _complete_session(contract, key, rng, N=4, identity=0, output=0):
    sharings = _advance_to_validation(contract, key, rng, N=N)
    contract.sample_challenge()
    for n in range(N):
        _submit_shared_value(contract, n, identity, output, rng)
    contract.pay()
    contract.aggregate_commitment()
    contract.finish()
    return sharings


def test_payment_even_split():
    contract, key, rng = _fresh(deposit=100, N=4)
    _complete_session(contract, key, rng)
    assert all(contract.balances[n] == 25 for n in range(4))


def test_payment_floor_and_remainder():
    contract, key, rng = _fresh(deposit=100, N=3)
    _complete_session(contract, key, rng, N=3)
    assert all(contract.balances[n] == 33 for n in range(3))
    # the remainder goes back to the MO, so the deposit is conserved
    assert contract.balances["mo"] == 1
    assert sum(contract.balances.values()) == 100


def test_payment_refund_on_empty_validity():
    contract, key, rng = _fresh(deposit=100, N=2)
    _advance_to_validation(contract, key, rng, N=2)
    contract.sample_challenge()
    for n in range(2):
        _submit_shared_value(contract, n, 0, 9, rng)  # everyone invalid
    contract.pay()
    assert contract.balances == {"mo": 100}
    assert contract.aggregate_commitment() is None
    contract.finish()
    assert contract.phase == FINISHED


def test_aggregate_commitment_matches_validity_product():
    contract, key, rng = _fresh(N=3)
    sharings = _advance_to_validation(contract, key, rng, N=3)
    contract.sample_challenge()
    for n in range(3):
        _submit_shared_value(contract, n, 0, 0, rng)
    contract.pay()
    agg = contract.aggregate_commitment()
    # the summed shares of the valid owners verify against the aggregate
    for i in range(contract.K):
        summed = [0, 0, 0]
        for n in range(3):
            for k in range(3):
                summed[k] = (summed[k] + sharings[n][1][i].values[k]) % Q
        assert commit.verify_share(ShareVector(i + 1, tuple(summed)), agg, key)


def test_word_count_matches_closed_form():
    contract, key, rng = _fresh(deposit=100, N=4, T=1)
    _complete_session(contract, key, rng)
    assert contract.on_chain_word_count() == expected_word_count(4, 1, paid=4)


def test_word_count_closed_form_across_parameters():
    for N in range(2, 7):
        for T in range(1, 4):
            K = 2 * T + 3
            rng = random.Random(100 + N * 10 + T)
            key = setup_key(3, rng)
            contract = TradeContract(
                deposit=50, whitelist=range(N), K=K, T=T,
                commit_key=key, rng=random.Random(1),
            )
            _complete_session(contract, key, rng, N=N)
            # 50 over N owners leaves a remainder, the MO's balance, for N = 3, 4, 6
            paid = N + (50 % N != 0)
            assert contract.on_chain_word_count() == expected_word_count(N, T, paid), (N, T)


def test_charged_writes_are_the_stored_words():
    # with only storage writes priced, gas counts the words each transaction
    # stores: the live words, each owner's 2K verdict-share words (freed,
    # uncharged, by its final verdict), and the `registered` word that every
    # register after the first rewrites
    N, K = 4, 5
    rng = random.Random(7)
    key = setup_key(3, rng)
    write = GasTable(storage_word_read=0, field_op=0, group_op=0, hash_word=0, tx_base=0)
    contract = TradeContract(
        deposit=100, whitelist=range(N), K=K, T=1, commit_key=key,
        rng=random.Random(11), gas_table=write,
    )
    _complete_session(contract, key, rng, N=N)
    words = contract.on_chain_word_count()
    assert sum(r["stored_words_delta"] for r in contract.tx_log) == words
    assert contract.meter.total == (words + N * 2 * K + N - 1) * write.storage_word_write
    for record in contract.tx_log:
        if record["method"] != "register" and record["stored_words_delta"] >= 0:
            assert record["gas"] == record["stored_words_delta"] * write.storage_word_write


def test_state_machine_safety_exhaustive():
    """Every (phase, transaction) pair outside the legal edges is rejected
    and leaves phase, storage, and validity unchanged."""
    legal = {
        "start": {SETUP},
        "register": {REGISTER},
        "advance_round": {REGISTER},
        "store_commitment": {SHARE_COLLECTION},
        "complain": {SHARE_COLLECTION},
        "resolve_complaint": {SHARE_COLLECTION},
        "begin_validation": {SHARE_COLLECTION},
        "sample_challenge": {GRAD_VALIDATION},
        "submit_verdict": {GRAD_VALIDATION},
        "pay": {GRAD_VALIDATION},
        "aggregate_commitment": {RECONSTRUCTION},
        "finish": {RECONSTRUCTION},
    }

    def drive_to(phase):
        contract, key, rng = _fresh(N=2)
        if phase == SETUP:
            return contract
        contract.start(b"\x0c" * 32, N_max=2, rho=4)
        if phase == REGISTER:
            return contract
        contract.register(0)
        contract.register(1)
        if phase == SHARE_COLLECTION:
            return contract
        for n in range(2):
            _, _, cm = _honest_sharing(key, rng)
            contract.store_commitment(n, cm)
        contract.begin_validation()
        if phase == GRAD_VALIDATION:
            return contract
        contract.sample_challenge()
        for n in range(2):
            _submit_shared_value(contract, n, 0, 0, rng)
        contract.pay()
        if phase == RECONSTRUCTION:
            return contract
        contract.aggregate_commitment()
        contract.finish()
        return contract

    cm_rng = random.Random(55)
    key = setup_key(3, cm_rng)
    _, spare_shares, spare_cm = _honest_sharing(key, cm_rng)
    args = {
        "start": (b"\x0d" * 32, 4, 2),
        "register": (0,),
        "advance_round": (),
        "store_commitment": (0, spare_cm),
        "complain": (1, 0),
        "resolve_complaint": (0, spare_shares[0]),
        "begin_validation": (),
        "sample_challenge": (),
        "submit_verdict": (1, 0, 1, 1),
        "pay": (),
        "aggregate_commitment": (),
        "finish": (),
    }
    # checkpoints are free: a refused one charges nothing and logs nothing
    free = {"advance_round", "begin_validation"}
    for phase in PHASES:
        for method, legal_phases in legal.items():
            if phase in legal_phases:
                continue
            contract = drive_to(phase)
            snapshot = (
                contract.phase,
                dict(contract.slots),
                set(contract.validity),
                sorted(contract.balances.items(), key=str),
            )
            log_length, gas_total = len(contract.tx_log), contract.meter.total
            with pytest.raises(TxRejected) as refusal:
                getattr(contract, method)(*args[method])
            assert str(refusal.value).startswith(f"{method}:"), (phase, method, refusal.value)
            assert contract.phase == snapshot[0], (phase, method)
            assert contract.slots == snapshot[1], (phase, method)
            assert contract.validity == snapshot[2]
            assert sorted(contract.balances.items(), key=str) == snapshot[3]
            if method in free:
                assert len(contract.tx_log) == log_length, (phase, method)
                assert contract.meter.total == gas_total, (phase, method)
                continue
            assert len(contract.tx_log) == log_length + 1, (phase, method)
            record = contract.tx_log[-1]
            assert record["method"] == method
            assert record["gas"] == contract.meter.table.tx_base
            assert record["phase_before"] == record["phase_after"] == phase
            assert record["stored_words_delta"] == 0


def test_tx_log_schema():
    contract, key, rng = _fresh()
    _complete_session(contract, key, rng)
    keys = {"method", "caller", "gas", "phase_before", "phase_after", "stored_words_delta"}
    assert contract.tx_log
    for record in contract.tx_log:
        assert json.loads(json.dumps(record)) == record
        assert set(record) == keys
        assert record["phase_before"] in PHASES and record["phase_after"] in PHASES


def test_merkle_root_properties():
    data = bytes(range(256)) * 20  # 5120 bytes: 5 chunks, padded to 8 leaves
    root = merkle_root(data)
    assert len(root) == 32
    assert merkle_root(data) == root
    assert merkle_root(data[:-1]) != root
    assert len(merkle_root(b"")) == 32
    assert len(merkle_root(b"x")) == 32


def test_rs_decode_cost_model_scaling():
    assert rs_decode_field_ops(5) == 5 * 9
    assert rs_decode_field_ops(16) == 16 * 16


def test_baseline_estimate_scales_with_m():
    base_small = baseline_gas_estimate(100, 4, 300)
    base_big = baseline_gas_estimate(400, 4, 300)
    assert base_big["total"] > 3 * base_small["total"]


def test_gas_table_overrides():
    t = GasTable.from_dict({"field_op": 3})
    assert t.field_op == 3 and t.tx_base == 21000
    assert GasTable.from_dict({"tx_base": 0}).tx_base == 0
    for bad in ({"bogus": 1}, {"storage_word_write": -100000}, {"tx_base": 1.9},
                {"tx_base": 21000.0}, {"field_op": True}, {"hash_word": "36"}):
        with pytest.raises(ValueError):
            GasTable.from_dict(bad)
