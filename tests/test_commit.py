import random

import pytest

from gradmarket import commit, field
from gradmarket.commit import (
    G,
    P,
    CommitmentKey,
    _key_from_scalar,
    aggregate_commitments,
    setup_key,
    verify_share,
)
from gradmarket.field import Q
from gradmarket.shamir import ShareVector, ss_share


def test_group_parameters():
    # q divides p - 1 and the generator spans an order-q subgroup
    assert (P - 1) % Q == 0
    assert G != 1
    assert pow(G, Q, P) == 1


def test_setup_single_element_is_generator():
    rng = random.Random(1)
    key = setup_key(1, rng)
    assert key.basis == (G,)


def test_setup_powers_consistent_with_exposed_scalar():
    key = _key_from_scalar(12345, 4)
    assert key.basis[0] == G
    for k in range(1, 4):
        assert key.basis[k] == pow(key.basis[k - 1], 12345, P)


def test_setups_with_different_seeds_differ():
    k1 = setup_key(3, random.Random(1))
    k2 = setup_key(3, random.Random(2))
    assert k1.basis[1] != k2.basis[1]


def test_commit_zero_is_identity():
    key = setup_key(4, random.Random(3))
    c = commit.commit([0] * 4, [[0] * 4], key)
    assert all(e == 1 for e in c.elements)


def test_commit_single_term():
    key = setup_key(1, random.Random(4))
    c = commit.commit([5], [], key)
    assert c.elements == (pow(G, 5, P),)


def test_commit_matches_exponent_sum_oracle():
    # recompute the exponent sum with a test-only scalar
    alpha = 987654321
    m = 6
    key = _key_from_scalar(alpha, m)
    rng = random.Random(8)
    secret = [field.rand_element(rng) for _ in range(m)]
    c = commit.commit(secret, [], key)
    exponent = 0
    apow = 1
    for v in secret:
        exponent = (exponent + apow * v) % Q
        apow = (apow * alpha) % Q
    assert c.elements[0] == pow(G, exponent, P)


def test_commit_length_mismatch():
    key = setup_key(3, random.Random(5))
    with pytest.raises(ValueError):
        commit.commit([1, 2], [], key)
    with pytest.raises(ValueError):
        commit.commit([1, 2, 3], [[1, 2]], key)


def _honest_instance(rng, m=5, T=2, K=5):
    key = setup_key(m, rng)
    secret = [field.rand_element(rng) for _ in range(m)]
    shares, masks = ss_share(secret, T, K, rng)
    cm = commit.commit(secret, masks, key)
    return key, secret, shares, masks, cm


def test_verify_share_completeness():
    rng = random.Random(11)
    key, _, shares, _, cm = _honest_instance(rng)
    for s in shares:
        assert verify_share(s, cm, key)


def test_verify_share_detects_single_flip():
    rng = random.Random(12)
    key, _, shares, _, cm = _honest_instance(rng)
    for coord in range(5):
        bad = list(shares[1].values)
        bad[coord] = (bad[coord] + 1) % Q
        assert not verify_share(ShareVector(2, tuple(bad)), cm, key)


def test_verify_all_zero_instance():
    key = setup_key(3, random.Random(13))
    cm = commit.commit([0] * 3, [[0] * 3], key)
    assert verify_share(ShareVector(4, (0, 0, 0)), cm, key)


def test_homomorphism():
    rng = random.Random(14)
    m, T = 4, 1
    key = setup_key(m, rng)
    s1 = [field.rand_element(rng) for _ in range(m)]
    s2 = [field.rand_element(rng) for _ in range(m)]
    z1 = [[field.rand_element(rng) for _ in range(m)]]
    z2 = [[field.rand_element(rng) for _ in range(m)]]
    c1 = commit.commit(s1, z1, key)
    c2 = commit.commit(s2, z2, key)
    s12 = [field.add(a, b) for a, b in zip(s1, s2)]
    z12 = [[field.add(a, b) for a, b in zip(z1[0], z2[0])]]
    c12 = commit.commit(s12, z12, key)
    prod = aggregate_commitments([c1, c2])
    assert prod.elements == c12.elements


def test_aggregate_single_and_identity():
    rng = random.Random(15)
    key, _, _, _, cm = _honest_instance(rng, m=3, T=1)
    assert aggregate_commitments([cm]).elements == cm.elements
    ident = commit.VectorCommitment(elements=(1, 1))
    assert aggregate_commitments([ident, ident]).elements == (1, 1)
    with pytest.raises(ValueError):
        aggregate_commitments([])


def test_aggregate_verifies_summed_shares():
    # the aggregated-commitment check for summed shares, per server
    rng = random.Random(16)
    m, T, K = 4, 1, 5
    key = setup_key(m, rng)
    parts = []
    all_shares = []
    for _ in range(2):
        secret = [field.rand_element(rng) for _ in range(m)]
        shares, masks = ss_share(secret, T, K, rng)
        parts.append(commit.commit(secret, masks, key))
        all_shares.append(shares)
    agg = aggregate_commitments(parts)
    for i in range(K):
        summed = ShareVector(
            index=i + 1,
            values=tuple(
                field.add(a, b)
                for a, b in zip(all_shares[0][i].values, all_shares[1][i].values)
            ),
        )
        assert verify_share(summed, agg, key)


def test_group_element_bytes_roundtrip():
    rng = random.Random(17)
    key = setup_key(2, rng)
    for e in key.basis:
        data = commit.element_to_bytes(e)
        assert len(data) == commit.GROUP_ELEMENT_BYTES
        assert commit.element_from_bytes(data) == e
    with pytest.raises(ValueError):
        commit.element_from_bytes(b"\x00" * commit.GROUP_ELEMENT_BYTES)


def _per_term_product(basis, exponents):
    """Reference multi-exp: one modular power per term."""
    acc = 1
    for b, e in zip(basis, exponents):
        acc = acc * pow(b, e, P) % P
    return acc


def test_multi_exp_empty_and_all_zero_vectors():
    key = _key_from_scalar(31337, 5)
    assert commit._multi_exp((), []) == 1
    assert commit._multi_exp(key.basis, [0] * 5) == 1


def test_multi_exp_single_term_and_top_exponent():
    key = _key_from_scalar(31337, 3)
    for e in (1, 2, Q - 1):
        assert commit._multi_exp(key.basis[:1], [e]) == pow(G, e, P)
    exps = [Q - 1, Q - 1, 5]
    assert commit._multi_exp(key.basis, exps) == _per_term_product(key.basis, exps)


def test_multi_exp_reduces_exponents_mod_q():
    rng = random.Random(21)
    key = _key_from_scalar(424242, 6)
    reduced = [field.rand_element(rng) for _ in range(6)]
    expected = _per_term_product(key.basis, reduced)
    above = [e + Q * (k + 1) for k, e in enumerate(reduced)]
    below = [e - Q * (k + 1) for k, e in enumerate(reduced)]
    assert commit._multi_exp(key.basis, above) == expected
    assert commit._multi_exp(key.basis, below) == expected
    # the unreduced per-term powers agree too, since the basis has order q
    assert _per_term_product(key.basis, below) == expected
    assert commit._multi_exp(key.basis, [Q, -Q, 2 * Q, 0, -1, Q + 1]) == \
        _per_term_product(key.basis, [0, 0, 0, 0, Q - 1, 1])


def test_multi_exp_small_signed_values():
    # quantized negative gradient entries are stored as q - k
    rng = random.Random(22)
    m = 50
    key = _key_from_scalar(7777777, m)
    signed = [rng.randint(-40, 40) for _ in range(m)]
    encoded = [v % Q for v in signed]
    assert any(v < 0 for v in signed) and 0 in signed
    expected = _per_term_product(key.basis, encoded)
    assert commit._multi_exp(key.basis, encoded) == expected
    assert commit._multi_exp(key.basis, signed) == expected


@pytest.mark.parametrize("m", [7, 64, 300, 2400])
def test_multi_exp_matches_per_term_product(m):
    rng = random.Random(m)
    key = _key_from_scalar(field.rand_element(rng), m)
    full = [field.rand_element(rng) for _ in range(m)]
    assert commit._multi_exp(key.basis, full) == _per_term_product(key.basis, full)
    # sparse vector with short exponents: fewer terms, fewer windows
    sparse = [rng.randrange(1 << 20) if rng.random() < 0.3 else 0 for _ in range(m)]
    assert commit._multi_exp(key.basis, sparse) == _per_term_product(key.basis, sparse)


@pytest.mark.parametrize("alpha", [2, Q - 1, 0x1D3A_5B7C_9E0F_2468_ACE1_3579_BDF0_8642])
def test_key_from_scalar_matches_per_element_pow(alpha):
    m = 300
    key = _key_from_scalar(alpha, m)
    exponents = [pow(alpha, k, Q) for k in range(m)]
    assert key.basis == tuple(pow(G, e, P) for e in exponents)
    # both an empty and an occupied top byte of the comb occur
    top_bytes = {e >> 120 for e in exponents}
    assert 0 in top_bytes and len(top_bytes) > 1
