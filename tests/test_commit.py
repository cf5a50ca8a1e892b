import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from gradmarket import commit, field, perturb, sim
from gradmarket.cli import main
from gradmarket.commit import (
    GENERATOR_LABEL,
    GROUP_COFACTOR,
    P,
    CommitmentKey,
    aggregate_commitments,
    generator,
    setup_key,
    verify_share,
)
from gradmarket.field import FieldVector, Q
from gradmarket.shamir import ShareVector, integer_weights, ss_share

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _explicit_key(rng, m):
    """A key of m random elements of the order-q subgroup (a residue raised
    to the cofactor), independent of the transparent generators."""
    return CommitmentKey(tuple(pow(rng.randrange(2, P), GROUP_COFACTOR, P) for _ in range(m)))


def _label_generator(k):
    """Generator k recomputed from the published label alone."""
    digest = hashlib.sha256(GENERATOR_LABEL + k.to_bytes(8, "big")).digest()
    return pow(int.from_bytes(digest, "big"), GROUP_COFACTOR, P)


def test_group_parameters():
    # q divides p - 1 and the first generator spans the order-q subgroup
    assert P == GROUP_COFACTOR * Q + 1
    assert (P - 1) % Q == 0
    assert generator(0) != 1
    assert pow(generator(0), Q, P) == 1


def test_setup_single_element_is_generator():
    rng = random.Random(1)
    key = setup_key(1, rng)
    assert key.basis == (_label_generator(0),)
    assert key.basis[0] != 1 and pow(key.basis[0], Q, P) == 1


def test_generators_are_nothing_up_my_sleeve():
    # every generator recomputes from the label with hashlib, has order q
    # and is not 1, and no two coincide
    basis = setup_key(2400, None).basis
    for k in (0, 1, 2, 191, 1000, 2399):
        assert basis[k] == _label_generator(k) == generator(k)
    assert all(g != 1 and pow(g, Q, P) == 1 for g in basis)
    assert len(set(basis)) == 2400


def test_setups_with_different_seeds_agree():
    # the key has no setup secret: it reads nothing from rng
    r1, r2 = random.Random(1), random.Random(2)
    state = r1.getstate()
    assert setup_key(3, r1).basis == setup_key(3, r2).basis
    assert r1.getstate() == state
    commit._transparent_key.cache_clear()
    assert setup_key(3, r1).basis == setup_key(5, r2).basis[:3]


def test_commit_zero_is_identity():
    key = setup_key(4, random.Random(3))
    c = commit.commit([0] * 4, [[0] * 4], key)
    assert all(e == 1 for e in c.elements)


def test_commit_single_term():
    key = setup_key(1, random.Random(4))
    c = commit.commit([5], [], key)
    assert c.elements == (pow(key.basis[0], 5, P),)


def test_commit_matches_exponent_sum_oracle():
    # a key of known discrete logs e_k to one generator g: the commitment
    # is g to the exponent sum
    m = 6
    rng = random.Random(8)
    g = generator(0)
    logs = [field.rand_element(rng) for _ in range(m)]
    key = CommitmentKey(tuple(pow(g, e, P) for e in logs))
    secret = [field.rand_element(rng) for _ in range(m)]
    c = commit.commit(secret, [], key)
    exponent = sum(e * v for e, v in zip(logs, secret)) % Q
    assert c.elements[0] == pow(g, exponent, P)


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
    s12 = [(a + b) % Q for a, b in zip(s1, s2)]
    z12 = [[(a + b) % Q for a, b in zip(z1[0], z2[0])]]
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
                (a + b) % Q
                for a, b in zip(all_shares[0][i].values, all_shares[1][i].values)
            ),
        )
        assert verify_share(summed, agg, key)


def _small_secret_instance(rng, T, K, m=6, bound=3000):
    """A key, a dealing of small signed values (an aggregate's kind of
    secret), its shares and its commitment."""
    key = _explicit_key(rng, m)
    secret = [rng.randint(-bound, bound) % Q for _ in range(m)]
    shares, masks = ss_share(secret, T, K, rng)
    return key, secret, shares, commit.commit(secret, masks, key)


@pytest.mark.parametrize("T, K", [(1, 5), (2, 7)])
def test_verify_share_with_verified_shares_matches_the_plain_check(T, K):
    rng = random.Random(70 + T)
    key, secret, shares, cm = _small_secret_instance(rng, T, K)
    # another dealing's shares under the same key
    _, _, other, _ = _small_secret_instance(random.Random(80 + T), T, K)
    plus_one = []
    for s in shares:
        values = list(s.values)
        values[rng.randrange(len(values))] += 1
        plus_one.append(ShareVector(s.index, values))
    candidates = [*shares, *plus_one, *other]
    assert [verify_share(s, cm, key) for s in candidates] == [True] * K + [False] * 2 * K
    # accepted lists: every T-subset of the honest shares, one that repeats
    # an index, and one that holds index 0 (the secret, u(0), passes)
    zero = ShareVector(0, secret)
    assert verify_share(zero, cm, key)
    accepted = [list(c) for c in itertools.combinations(shares, T)]
    accepted += [[shares[0]] * T, [zero, *shares[1:T]]]
    for verified in accepted:
        for s in candidates:
            assert verify_share(s, cm, key, verified=verified) == verify_share(s, cm, key)


@pytest.mark.parametrize("T, K", [(1, 5), (2, 7)])
def test_a_checked_share_of_small_secrets_folds_at_most_two_bytes(T, K, monkeypatch):
    # with T shares accepted, each further check folds V = D * secret, whose
    # values stay within 2^16 (D is 15 at most here); a +1 on one coordinate
    # keeps V small, takes the same short folds and still fails
    rng = random.Random(90 + T)
    key, _, shares, cm = _small_secret_instance(rng, T, K, m=48)
    folds = _recording_folds(monkeypatch)
    for s in shares[T:]:
        folds.clear()
        assert verify_share(s, cm, key, verified=shares[:T])
        assert folds and all(d.shape[1] <= 2 for d in folds)
        values = list(s.values)
        values[7] += 1
        folds.clear()
        assert not verify_share(ShareVector(s.index, values), cm, key, verified=shares[:T])
        assert folds and all(d.shape[1] <= 2 for d in folds)
    # fewer than T accepted shares: the plain check's 16 windows
    folds.clear()
    assert verify_share(shares[-1], cm, key, verified=shares[: T - 1])
    assert [d.shape[1] for d in folds] == [16]


def test_secret_weights_clear_the_denominators_or_refuse():
    assert integer_weights((1, 2), 0) == (1, (2, -1))
    assert integer_weights((1, 2, 5), 0) == (6, (15, -10, 1))
    for xs in ((1, 1), (0, 2), (3, 2, 3), (Q, 1), (-1, 2)):
        assert integer_weights(xs, 0) is None
    # through 1, 2 and X, w_1 = X (X - 2): below 2^31 at X = 2^15, not at 2^16
    assert integer_weights((1, 2, 1 << 15), 0)[1][0] < 1 << 31
    assert integer_weights((1, 2, 1 << 16), 0) is None


def _counting_multi_exps(monkeypatch):
    """A one-element list counting `commit._multi_exp` calls from now on."""
    calls = [0]
    multi_exp = commit._multi_exp

    def counted(key, exponents):
        calls[0] += 1
        return multi_exp(key, exponents)

    monkeypatch.setattr(commit, "_multi_exp", counted)
    return calls


@pytest.mark.parametrize("T, K", [(1, 5), (2, 7)])
def test_a_share_past_t_plus_one_verified_ones_is_checked_in_the_field(T, K, monkeypatch):
    # with T + 1 shares accepted, every further check interpolates them at
    # the share's index: the plain check's answer on honest, random and
    # one-coordinate-offset shares, from every (T + 1)-subset of anchors,
    # with no multi-exp
    rng = random.Random(100 + T)
    key, secret, shares, cm = _small_secret_instance(rng, T, K)
    random_shares = [ShareVector(s.index, [field.rand_element(rng) for _ in s.values])
                     for s in shares]
    offset = []
    for s in shares:
        values = list(s.values)
        values[rng.randrange(len(values))] += rng.randrange(1, Q)
        offset.append(ShareVector(s.index, values))
    # index 0 holds the secret; index K + 3 lies past the dealt ones
    beyond = [ShareVector(0, secret), ShareVector(0, [v + 1 for v in secret]),
              ShareVector(K + 3, list(shares[0].values))]
    candidates = [*shares, *random_shares, *offset, *beyond]
    plain = [verify_share(s, cm, key) for s in candidates]
    assert plain == [True] * K + [False] * 2 * K + [True, False, False]
    calls = _counting_multi_exps(monkeypatch)
    for anchors in itertools.combinations(shares, T + 1):
        # more verified shares than T + 1: only the first T + 1 are read
        verified = [*anchors, *random_shares[:1]]
        assert [verify_share(s, cm, key, verified=verified) for s in candidates] == plain
    assert calls[0] == 0


def test_a_large_weight_falls_back_to_the_plain_check(monkeypatch):
    rng = random.Random(95)
    m, T = 4, 2
    key = _explicit_key(rng, m)
    secret = [rng.randint(-50, 50) % Q for _ in range(m)]
    masks = [[field.rand_element(rng) for _ in range(m)] for _ in range(T)]
    cm = commit.commit(secret, masks, key)

    def share(x, bump=0):
        values = [(a + sum(z[k] * x ** (j + 1) for j, z in enumerate(masks))) % Q
                  for k, a in enumerate(secret)]
        values[0] += bump
        return ShareVector(x, values)

    verified = [share(1), share(2)]
    assert integer_weights((1, 2, 1 << 16), 0) is None
    results = [verify_share(s, cm, key, verified=verified)
               for s in (share(1 << 16), share(1 << 16, bump=1))]
    assert results == [True, False]
    # past T + 1 verified shares, the weights at 2^16 through (1, 2, 3)
    # reach 2^31 (w_2 = -(X - 1)(X - 3)), and so do those at 0 through
    # (1, 2, 2^16): each check is the plain one, one 16-window fold
    verified.append(share(3))
    assert integer_weights((1, 2, 3), 1 << 16) is None
    assert integer_weights((1, 2, 3), 1 << 15) is not None
    folds = _recording_folds(monkeypatch)
    results = [verify_share(s, cm, key, verified=verified)
               for s in (share(1 << 16), share(1 << 16, bump=1))]
    assert results == [True, False]
    assert [d.shape[1] for d in folds] == [16, 16]


def test_a_commitment_outside_the_group_takes_the_plain_check():
    # C[1] times -1, an element of order 2: the plain check at index x sees
    # (-1)^x, so index 2 passes and index 3 fails. Through (2, 3) the
    # weights are (3, -2) and D = 1, and the even weight of share 3 cancels
    # the -1, so the secret check alone would pass it
    rng = random.Random(96)
    key, _, shares, cm = _small_secret_instance(rng, 1, 5)
    odd = commit.VectorCommitment((cm.elements[0], cm.elements[1] * (P - 1) % P))
    assert not odd.in_group and cm.in_group
    assert verify_share(shares[1], odd, key)
    assert not verify_share(shares[2], odd, key)
    assert integer_weights((2, 3), 0) == (1, (3, -2))
    secret = FieldVector.combination((3, -2), [shares[1].values, shares[2].values])
    assert commit._multi_exp(key, secret) == odd.elements[0]
    assert not verify_share(shares[2], odd, key, verified=[shares[1]])


def test_group_element_bytes_layout():
    # fixed width, most significant byte first; a commitment is its
    # elements in order
    width = commit.GROUP_ELEMENT_BYTES
    assert width == 17  # p < 2^134
    assert commit.element_to_bytes(0x0102) == b"\x00" * (width - 2) + b"\x01\x02"
    rng = random.Random(17)
    key = setup_key(2, rng)
    for e in key.basis:
        data = commit.element_to_bytes(e)
        assert len(data) == width
        assert int.from_bytes(data, "big") == e
    cm = commit.VectorCommitment(elements=key.basis)
    assert cm.to_bytes() == b"".join(commit.element_to_bytes(e) for e in key.basis)


def _per_term_product(basis, exponents):
    """Reference multi-exp: one modular power per term."""
    acc = 1
    for b, e in zip(basis, exponents):
        acc = acc * pow(b, e, P) % P
    return acc


def test_multi_exp_empty_and_all_zero_vectors():
    key = _explicit_key(random.Random(20), 5)
    assert commit._multi_exp(CommitmentKey(()), []) == 1
    assert commit._multi_exp(key, [0] * 5) == 1


def test_multi_exp_single_term_and_top_exponent():
    key = _explicit_key(random.Random(20), 3)
    for e in (1, 2, Q - 1):
        assert commit._multi_exp(CommitmentKey(key.basis[:1]), [e]) == pow(key.basis[0], e, P)
    exps = [Q - 1, Q - 1, 5]
    assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)


def test_multi_exp_reduces_exponents_mod_q():
    rng = random.Random(21)
    key = _explicit_key(rng, 6)
    reduced = [field.rand_element(rng) for _ in range(6)]
    expected = _per_term_product(key.basis, reduced)
    above = [e + Q * (k + 1) for k, e in enumerate(reduced)]
    below = [e - Q * (k + 1) for k, e in enumerate(reduced)]
    assert commit._multi_exp(key, above) == expected
    assert commit._multi_exp(key, below) == expected
    # the unreduced per-term powers agree too, since the basis has order q
    assert _per_term_product(key.basis, below) == expected
    assert commit._multi_exp(key, [Q, -Q, 2 * Q, 0, -1, Q + 1]) == \
        _per_term_product(key.basis, [0, 0, 0, 0, Q - 1, 1])


def test_multi_exp_small_signed_values():
    # quantized negative gradient entries are stored as q - k
    rng = random.Random(22)
    m = 50
    key = _explicit_key(rng, m)
    signed = [rng.randint(-40, 40) for _ in range(m)]
    encoded = [v % Q for v in signed]
    assert any(v < 0 for v in signed) and 0 in signed
    expected = _per_term_product(key.basis, encoded)
    assert commit._multi_exp(key, encoded) == expected
    assert commit._multi_exp(key, signed) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 192, 300, 511, 512, 2400])
def test_multi_exp_matches_per_term_product(m):
    # every width takes the product tree over the limb table at every key
    # length: one-byte exponents (signed ones included), the same vector
    # with one exponent of 256, and wider vectors
    rng = random.Random(m)
    key = _explicit_key(rng, m)
    every = list(range(-255, 256))
    rng.shuffle(every)
    # every |v| <= 255 once m >= 511, each extreme at any m
    one_byte = [every[k % len(every)] for k in range(m)]
    one_byte[0], one_byte[-1] = -255, 255
    wide = list(one_byte)
    wide[rng.randrange(m)] = 256
    full = [field.rand_element(rng) for _ in range(m)]
    # sparse vector with short exponents: fewer terms, fewer windows
    sparse = [rng.randrange(1 << 20) if rng.random() < 0.3 else 0 for _ in range(m)]
    # 16 different digits: one term per bucket, a product tree of depth 0
    single = [0] * m
    single[rng.randrange(m)] = int.from_bytes(bytes(range(1, field.ELEMENT_BYTES + 1)), "little")

    def check(exps):
        expect = _per_term_product(key.basis, exps)
        # a packed vector's bytes are read in place, a list is packed first
        assert commit._multi_exp(key, exps) == commit._multi_exp(key, FieldVector(exps)) == expect

    for exps in (one_byte, [v % Q for v in one_byte], [255] * m, [0] * m):
        check(exps)
    check(wide)
    assert "limbs" in vars(key)
    for exps in (full, sparse, [Q - 1] * m, [field.HALF_Q] * m, [field.HALF_Q + 1] * m, single):
        check(exps)


def test_multi_exp_alternating_keys():
    # each key reads its own table: a table kept from the other key fails,
    # and so does a table kept per length on two keys of one length
    rng = random.Random(23)
    keys = [_explicit_key(rng, m) for m in (40, 40, 192, 40, 512, 512)]
    for _ in range(2):
        for key in keys:
            exps = [field.rand_element(rng) for _ in range(len(key))]
            assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)


@pytest.mark.parametrize("m", [3, 192, 2400])
def test_multi_exp_zero_top_windows(m):
    # exponents below 256^j leave every byte window from j up empty; the
    # bounds sit on and next to each byte boundary (at most 64 nonzero
    # exponents keep the per-term oracle fast)
    rng = random.Random(24)
    key = _explicit_key(rng, m)
    for j in range(1, field.ELEMENT_BYTES):
        for bound in (1 << (8 * j), (1 << (8 * j)) + 1):
            exps = [0] * m
            for k in rng.sample(range(m), min(m, 64)):
                exps[k] = rng.randrange(bound)
            exps[rng.randrange(m)] = bound - 1
            assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)


@pytest.mark.parametrize("m", [7, 192, 2400])
def test_limb_table_layout(m):
    # setup_key builds no table; the first multi-exp builds one
    # read-only table, whose entry w*m + k is basis[k]^(256^w) in Montgomery
    # form below 2p, and whose last entry is one
    commit._transparent_key.cache_clear()
    key = setup_key(m, None)
    assert "limbs" not in vars(key)
    rng = random.Random(28)
    exps = [field.rand_element(rng) for _ in range(m)]
    assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    table = vars(key)["limbs"]
    assert key.limbs is table and not table.flags.writeable
    assert table.shape == (commit._LIMBS, field.ELEMENT_BYTES * m + 1)
    values = commit._from_limbs(table)
    assert max(values) < 2 * P and values[-1] == commit._R % P
    r_inv = pow(commit._R, -1, P)
    rows = [[v * r_inv % P for v in values[w * m : (w + 1) * m]]
            for w in range(field.ELEMENT_BYTES)]
    assert rows[0] == list(key.basis)
    for row, nxt in zip(rows, rows[1:]):
        assert nxt == [pow(b, 256, P) for b in row]
    for w, k in [(0, 0), (1, m // 2), (8, m - 1), (15, m - 1)]:
        assert values[w * m + k] % P == pow(key.basis[k], 256**w, P) * commit._R % P


def test_key_table_built_once_on_first_use():
    rng = random.Random(25)
    commit._transparent_key.cache_clear()
    key = setup_key(5, rng)
    assert "limbs" not in vars(key)
    # the first commitment, to a one-byte vector, builds the table
    secret = [rng.randint(-255, 255) % Q for _ in range(5)]
    assert commit.commit(secret, [], key).elements == (_per_term_product(key.basis, secret),)
    table = vars(key)["limbs"]
    # later commitments and share checks, at every width, reuse it
    shares, masks = ss_share(secret, 1, 5, rng)
    cm = commit.commit(secret, masks, key)
    assert all(verify_share(s, cm, key) for s in shares)
    assert vars(key)["limbs"] is table and key.limbs is table


def test_montgomery_invariants():
    # lanes at the edges of the inputs' range, below 2p: every product
    # comes back in limbs below 2^28, below 2p and equal to a*b/R mod p
    assert commit._R > 4 * P
    edges = [2 * P - 1, P - 1, 0]
    a = commit._to_limbs([x for x in edges for _ in edges])
    b = commit._to_limbs(edges * len(edges))
    out = np.empty_like(a)
    commit._mont_mul(a, b, out)
    assert out.dtype == np.uint32 and int(out.max()) < 1 << commit._LIMB_BITS
    r_inv = pow(commit._R, -1, P)
    products = commit._from_limbs(out)
    for x, y, r in zip(commit._from_limbs(a), commit._from_limbs(b), products):
        assert r < 2 * P and r % P == x * y * r_inv % P
    # the output may overwrite an input, as the table build does
    commit._mont_mul(a, b, a)
    assert commit._from_limbs(a) == products


def _cios(x, y):
    """The exact integer of Montgomery's CIOS: (x*y + u*p) / R, with
    u = -x*y*p^-1 mod R."""
    r = commit._R
    u = -x * y * pow(P, -1, r) % r
    return (x * y + u * P) // r


def test_montgomery_lanes_are_the_exact_cios_integer():
    # not merely x*y/R mod p: each lane is the one integer below 2p that
    # CIOS gives, so the table and the bucket trees are fixed lane by lane
    r = commit._R
    edges = [0, 1, P - 1, P, P + 1, 2 * P - 1, (1 << 28) - 1, 1 << 112, r % P]
    rng = random.Random(29)
    xs = [x for x in edges for _ in edges] + [rng.randrange(2 * P) for _ in range(3000)]
    ys = edges * len(edges) + [rng.randrange(2 * P) for _ in range(3000)]
    # small low limbs leave limb 0 below (c - 1) * u, so its column goes
    # negative in the reduction step; a zero operand gives u = 0 throughout
    for _ in range(500):
        xs.append((rng.randrange(2 * P >> 28) << 28) + rng.randrange(1, 64))
        ys.append((rng.randrange(2 * P >> 28) << 28) + rng.randrange(1, 64))
    xs += [0] * 20
    ys += [rng.randrange(2 * P) for _ in range(20)]
    low = [(x & 0xFFFFFFF) * (y & 0xFFFFFFF) for x, y in zip(xs, ys)]
    u0 = [t * commit._P_NEG_INV % (1 << 28) for t in low]
    assert sum(t < commit._P_LOW * u for t, u in zip(low, u0)) >= 500
    a, b = commit._to_limbs(xs), commit._to_limbs(ys)
    out = np.empty_like(a)
    commit._mont_mul(a, b, out)
    lanes = commit._from_limbs(out)
    assert lanes == [_cios(x, y) for x, y in zip(xs, ys)]
    assert max(lanes) < 2 * P


@pytest.mark.parametrize("m", [7, 512, 2400])
def test_multi_exp_montgomery_bucket_extremes(m):
    # the product tree leaves its buckets in Montgomery form and corrects
    # the fold once: every bucket filled, bucket 255 alone from one term of
    # one window, and every term's every digit in one bucket
    rng = random.Random(30)
    key = _explicit_key(rng, m)
    every = [int.from_bytes(bytes((k + w) % 255 + 1 for w in range(15)), "little")
             for k in range(m)]
    top = [0] * m
    top[rng.randrange(m)] = 255 << (8 * rng.randrange(field.ELEMENT_BYTES - 1))
    one = [int.from_bytes(bytes([7]) * rng.randint(1, field.ELEMENT_BYTES), "little")
           for _ in range(m)]
    for exps in (every, top, one):
        assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    assert "limbs" in vars(key)


def _counting_mults(monkeypatch):
    """Record the lane count of every vectorized multiply: one per tree
    level at these lengths, as a level has fewer than `_SLICE` pairs."""
    mults = []
    mont_mul = commit._mont_mul

    def counted(a, b, out):
        mults.append(a.shape[1])
        mont_mul(a, b, out)

    monkeypatch.setattr(commit, "_mont_mul", counted)
    return mults


def _merges(flat, left):
    """The pairs each level of a product tree merged, sum_d floor(c_d / 2)
    over its run lengths c_d, replayed from the digits the tree read and
    the counts per digit it returned; and the pairs one more level would
    merge."""
    counts = np.bincount(flat, minlength=256)[1:]
    merged = []
    while not np.array_equal(counts, left):
        assert (counts > 1).any(), "the counts returned are no level of the tree"
        merged.append(int((counts >> 1).sum()))
        counts = (counts + 1) >> 1
    return merged, int((left >> 1).sum())


def _recording_trees(monkeypatch):
    """Record every product tree's digits on entry and its counts per digit
    on return, and count the vectorized multiplies."""
    trees = []
    tree = commit._tree_entries

    def recorded(limbs, flat):
        entries, left = tree(limbs, flat)
        trees.append((np.array(flat), np.array(left)))
        return entries, left

    monkeypatch.setattr(commit, "_tree_entries", recorded)
    return trees, _counting_mults(monkeypatch)


def test_a_short_random_vector_runs_no_tree_level(monkeypatch):
    # m = 16: 256 terms over about 160 nonempty digits, so a level would
    # merge at most 128 pairs, not more than 255, and the fold multiplies
    # the table entries themselves
    rng = random.Random(31)
    key = _explicit_key(rng, 16)
    key.limbs
    trees, mults = _recording_trees(monkeypatch)
    for _ in range(3):
        exps = [field.rand_element(rng) for _ in range(16)]
        assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    assert len(trees) == 3 and mults == []
    for flat, left in trees:
        merged, more = _merges(flat, left)
        assert left.sum() == np.count_nonzero(flat) and merged == [] and more <= 255


@pytest.mark.parametrize("m", [48, 192])
def test_the_tree_stops_with_several_entries_per_digit(m, monkeypatch):
    # a level runs only while it would merge more than 255 pairs, and the
    # fold multiplies what is left; one-byte vectors (the signed ones and
    # all q - 1, whose magnitudes are 1) take the tree too
    rng = random.Random(32 + m)
    key = _explicit_key(rng, m)
    key.limbs
    trees, mults = _recording_trees(monkeypatch)
    random_exps = [field.rand_element(rng) for _ in range(m)]
    sparse = [rng.randrange(1 << 20) if rng.random() < 0.3 else 0 for _ in range(m)]
    signed = [rng.randint(-255, 255) % Q for _ in range(m)]
    for exps in (random_exps, sparse, signed, [Q - 1] * m):
        assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    # random and sparse fold once each, the signed vectors twice each
    assert len(trees) == 6
    levels = []
    for flat, left in trees:
        merged, more = _merges(flat, left)
        assert all(pairs > 255 for pairs in merged) and more <= 255
        levels.append(len(merged))
    assert levels == [len(mults), 0, 0, 0, 0, 0] and len(mults) == {48: 1, 192: 3}[m]
    flat, left = trees[0]
    assert np.count_nonzero(flat) > 2 * 255 and left.max() > 2


def test_a_random_multi_exp_at_192_runs_three_tree_levels(monkeypatch):
    # 3059 nonzero terms over all 255 digits: levels that merge 1464, 731
    # and 370 pairs (1595, 864 and 494 with the odd runs' padding) leave
    # 494 entries, and a fourth level would merge 213 pairs, not more than
    # 255; a tree run to one entry per digit would add levels of 281 and
    # 255 pairs
    rng = random.Random(33)
    key = setup_key(192, None)
    key.limbs
    mults = _counting_mults(monkeypatch)
    exps = [field.rand_element(rng) for _ in range(192)]
    assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    assert len(mults) == 3


def test_every_tree_level_at_2400_merges_more_than_255_pairs(monkeypatch):
    # each level a tree ran would merge more than 255 pairs, and the counts
    # it returns would merge at most 255: random residues run 6 or 7
    # levels, and dense one-byte vectors run levels too
    m = 2400
    rng = random.Random(34 + m)
    key = _explicit_key(rng, m)
    trees, _ = _recording_trees(monkeypatch)
    vectors = [
        [field.rand_element(rng) for _ in range(m)],
        [rng.randint(-255, 255) % Q for _ in range(m)],
        [rng.randint(-40, 40) % Q for _ in range(m)],
        [rng.randrange(1 << 20) if rng.random() < 0.3 else 0 for _ in range(m)],
        [255] * m,
    ]
    for exps in vectors:
        assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    levels = []
    for flat, left in trees:
        merged, more = _merges(flat, left)
        assert all(pairs > 255 for pairs in merged) and more <= 255
        levels.append(len(merged))
    assert levels[0] in (6, 7) and min(levels[1:5]) > 0


@pytest.mark.parametrize("m", [192, 2400, 4096])
def test_one_byte_signed_vectors_run_levels_only_past_m_2400(m, monkeypatch):
    # values -255..255, both extremes among them, on about 2 in 5
    # coordinates: each sign's fold reads about m/5 terms, so a level would
    # merge fewer than m/10 pairs, not more than 255 up to m = 2400
    rng = random.Random(35 + m)
    key = _explicit_key(rng, m)
    trees, _ = _recording_trees(monkeypatch)
    exps = [rng.randint(-255, 255) if rng.random() < 0.4 else 0 for _ in range(m)]
    exps[0], exps[-1] = -255, 255
    assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
    assert len(trees) == 2
    for flat, left in trees:
        merged, more = _merges(flat, left)
        assert all(pairs > 255 for pairs in merged) and more <= 255
        assert (len(merged) > 0) == (m > 2400)


def _recording_folds(monkeypatch):
    """Record the digit matrix of every `_bucket_fold` call: one call on
    the plain path, two (positives, then the negatives' magnitudes) on the
    signed path, none for an all-zero vector."""
    folds = []
    fold = commit._bucket_fold

    def recorded(key, digits):
        folds.append(np.array(digits))
        return fold(key, digits)

    monkeypatch.setattr(commit, "_bucket_fold", recorded)
    return folds


def _decode(rows):
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


@pytest.mark.parametrize("m", [1, 192, 2400])
def test_multi_exp_signed_split(m, monkeypatch):
    rng = random.Random(26)
    key = _explicit_key(rng, m)
    folds = _recording_folds(monkeypatch)

    def check(exps, signed, width=None):
        folds.clear()
        assert commit._multi_exp(key, exps) == _per_term_product(key.basis, exps)
        assert len(folds) == (2 if signed else 1)
        if width is not None:
            assert all(d.shape == (m, width) for d in folds)

    # the largest positive and the most negative residue: magnitudes of 126 bits
    for edge in (field.HALF_Q, field.HALF_Q + 1):
        exps = [rng.randint(-50, 50) % Q for _ in range(m)]
        exps[rng.randrange(m)] = edge
        check(exps, signed=False)
    # all-negative small values: two byte windows in place of sixteen
    negative = [Q - rng.randint(1, 60000) for _ in range(m)]
    check(negative, signed=True, width=2)
    # small signed values with one random residue keep the single set
    mixed = [rng.randint(-60000, 60000) % Q for _ in range(m)]
    mixed[rng.randrange(m)] = field.rand_element(rng)
    check(mixed, signed=False)
    # small negatives and one residue whose top byte is 0x01: plain, and the
    # negatives' 0x7f top bytes keep all 16 windows
    exps = [Q - rng.randint(1, 60000) for _ in range(m)]
    exps[rng.randrange(m)] = (1 << 120) + rng.randrange(1 << 120)
    check(exps, signed=False, width=16)
    # every top byte 0x7f, down to q - (2^120 - 1): signed, with no positives
    exps = [Q - rng.randint(1, (1 << 120) - 1) for _ in range(m)]
    exps[rng.randrange(m)] = 0x7F << 120
    check(exps, signed=True, width=15)
    assert not folds[0].any()
    # a top byte of 0x7f next to one in 0x02..0x7e: plain
    for top in (0x02, 0x40, 0x7E):
        exps = [Q - rng.randint(1, 60000) for _ in range(m)]
        exps[rng.randrange(m)] = (top << 120) + rng.randrange(1 << 120)
        check(exps, signed=False, width=16)


def test_signed_parts_match_ints_at_edges(monkeypatch):
    # residues within 256^15 of 0 or q, with the 64-bit limb boundaries; a
    # negative's magnitude q - e is read as e XOR q
    folds = _recording_folds(monkeypatch)

    def fold_digits(values):
        folds.clear()
        key = setup_key(len(values), None)
        assert commit._multi_exp(key, values) == _per_term_product(key.basis, values)
        return list(folds)

    near = 1 << 120
    exps = [0, 1, (1 << 64) - 1, 1 << 64, near - 1,
            Q - 1, Q - (1 << 64), Q - (1 << 64) + 1, Q - near + 1]
    pos, neg = fold_digits(FieldVector(exps))
    assert pos.shape == neg.shape == (len(exps), 15)
    assert _decode(pos) == [e if e <= field.HALF_Q else 0 for e in exps]
    assert _decode(neg) == [Q - e if e > field.HALF_Q else 0 for e in exps]
    for edge in (near, Q - near, field.HALF_Q, field.HALF_Q + 1):
        (plain,) = fold_digits([*exps, edge])
        assert plain.shape == (len(exps) + 1, 16)
        assert _decode(plain) == [*exps, edge]
    # widths read from the two 64-bit words, against the ints' byte lengths:
    # all zero, one nonzero top byte, and 0x7f as one element's top byte
    m = 300
    top = [0] * m
    top[m // 2] = 1 << 120
    seven_f = [k % 7 for k in range(m)]
    seven_f[-1] = 0x7F << 120
    for values in ([0] * m, top, seven_f, exps):
        digits = commit._digits(FieldVector(values).digits().view("<u8"))
        assert digits.shape == (len(values), (max(values).bit_length() + 7) // 8)
        assert _decode(digits) == values
    assert fold_digits([0] * m) == []
    assert len(fold_digits(top)) == 1
    # 0x7f << 120 is the negative of 2^120 - 1, whose 15 bytes are 0xff
    pos, neg = fold_digits(seven_f)
    assert pos.shape == neg.shape == (m, 15)
    assert _decode(pos) == [*seven_f[:-1], 0]
    assert _decode(neg) == [0] * (m - 1) + [(1 << 120) - 1]


# SHA-256 of the commitment elements and the share-check results below,
# recorded with the transparent key and checked against per-term powers
COMMIT_VERIFY_2400_DIGEST = "41e5b72989f424a437d8fe26b1ae9067684c45ad006fcefc17180a8e3048c23d"


def test_commit_and_verify_golden_digest():
    key = setup_key(2400, sim.rng_stream(3, "contract.setup"))
    rng = random.Random(2400)
    secret = [rng.randint(-40, 40) % Q for _ in range(2400)]
    shares, masks = ss_share(secret, 1, 5, rng)
    cm = commit.commit(secret, masks, key)
    bad = ShareVector(3, ((shares[2].values[0] + 1) % Q,) + shares[2].values[1:])
    results = [verify_share(s, cm, key) for s in [*shares, bad]]
    assert results == [True] * 5 + [False]
    digest = hashlib.sha256(cm.to_bytes() + bytes(results)).hexdigest()
    assert digest == COMMIT_VERIFY_2400_DIGEST


def _counting_limbs(monkeypatch):
    """Record the length of every key whose limb table gets built."""
    builds = []
    build = CommitmentKey.limbs.func

    def counted(key):
        builds.append(len(key))
        return build(key)

    prop = functools.cached_property(counted)
    prop.__set_name__(CommitmentKey, "limbs")
    monkeypatch.setattr(CommitmentKey, "limbs", prop)
    return builds


def test_sessions_at_two_seeds_build_the_limb_table_once(monkeypatch):
    config = sim.SessionConfig.from_dict(json.loads((CONFIGS / "clean.json").read_text()))
    commit._transparent_key.cache_clear()
    builds = _counting_limbs(monkeypatch)
    sim.run_session(config, 3)
    sim.run_session(config, 4)
    assert builds == [perturb.flat_length(config.layers)]


def test_session_outputs_same_with_cold_and_warm_key_cache(tmp_path):
    config = str(CONFIGS / "clean.json")
    commit._transparent_key.cache_clear()
    outs = []
    for name in ("cold", "warm"):
        out = tmp_path / f"{name}.json"
        assert main(["run", "--config", config, "--seed", "3", "--out", str(out)]) == 0
        outs.append((out.read_bytes(), Path(f"{out}.txlog.jsonl").read_bytes()))
    # the cold run built the key, the warm run read it from the memo
    assert commit._transparent_key.cache_info()[:2] == (1, 1)
    assert outs[0] == outs[1]
